"""Tests for Cauchy transforms, map evaluation, extraction, and inversion."""

import math

import numpy as np
import pytest
from scipy import integrate

import monoclt as mc
from monoclt import clt, ergodic as eg, transforms as tf
from monoclt.errors import CoverageError, DomainError

from test_measures import BERN, BOOLE, random_atomic

SQRT2 = math.sqrt(2.0)


def arcsine_density(x):
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < SQRT2
    out = np.zeros_like(x)
    out[inside] = 1.0 / (np.pi * np.sqrt(2.0 - x[inside] ** 2))
    return out


class TestSqrtBranch:
    def test_minus_one(self):
        assert abs(mc.sqrt_upper(-1.0) - 1j) < 1e-15

    def test_square_and_halfplane_on_grid(self):
        xs = np.linspace(-3, 3, 10)
        ys = np.linspace(0.1, 4, 10)
        z = xs[:, None] + 1j * ys[None, :]
        F = mc.f_eval(mc.ArcsineMap(), z)
        assert np.abs(F * F - (z * z - 2.0)).max() < 1e-12
        assert F.imag.min() > 0


class TestCauchyEval:
    def test_point_mass_at_i(self):
        assert abs(mc.cauchy_eval(mc.point_mass(0.0), 1j) - (-1j)) < 1e-15

    def test_two_point_at_i(self):
        oracle = 0.5 * (1.0 / (1j - 1.0) + 1.0 / (1j + 1.0))
        assert abs(mc.cauchy_eval(BOOLE, 1j) - oracle) < 1e-15
        assert abs(oracle - (-0.5j)) < 1e-15

    def test_arcsine_imaginary_axis(self):
        for y in (0.7, 1.0, 3.0):
            assert abs(mc.cauchy_eval(mc.arcsine(), 1j * y) - (-1j / math.sqrt(y * y + 2))) < 1e-14

    def test_reference_laws_against_quadrature(self):
        z = 0.7 + 1.3j
        for law, lo, hi in ((mc.arcsine(), -SQRT2, SQRT2),
                            (mc.semicircle(), -2, 2), (mc.normal(), -12, 12)):
            dens = {"arcsine": lambda t: 1 / (np.pi * np.sqrt(2 - t * t)),
                    "semicircle": lambda t: np.sqrt(4 - t * t) / (2 * np.pi),
                    "normal": lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi)}[law.kind]
            re, _ = integrate.quad(lambda t: (dens(t) * (1 / (z - t))).real, lo, hi, limit=300)
            im, _ = integrate.quad(lambda t: (dens(t) * (1 / (z - t))).imag, lo, hi, limit=300)
            assert abs(mc.cauchy_eval(law, z) - (re + 1j * im)) < 1e-7

    def test_domain_and_bounds(self):
        with pytest.raises(DomainError):
            mc.cauchy_eval(BOOLE, 1.0 - 0.5j)
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = random_atomic(rng)
            z = complex(rng.uniform(-5, 5), rng.uniform(0.05, 5))
            g = mc.cauchy_eval(m, z)
            assert g.imag < 0
            assert abs(g) <= 1.0 / z.imag + 1e-12


class TestFEval:
    def test_two_point_map(self):
        assert abs(mc.f_eval(mc.MeasureMap(BOOLE), 1j) - 2j) < 1e-14

    def test_arcsine_map_imaginary_axis(self):
        for y in (1.0, 2.5):
            assert abs(mc.f_eval(mc.ArcsineMap(), 1j * y) - 1j * math.sqrt(y * y + 2)) < 1e-14

    def test_double_iterate(self):
        F2 = mc.IterateMap(mc.MeasureMap(BOOLE), 2)
        assert abs(mc.f_eval(F2, 2j) - 2.9j) < 1e-14

    def test_compose_right_to_left(self):
        shift2 = mc.MeasureMap(mc.point_mass(2.0))   # z - 2
        sq = mc.MeasureMap(BOOLE)                    # z - 1/z
        val = mc.f_eval(mc.ComposeMap((shift2, sq)), 1j)
        assert abs(val - (2j - 2.0)) < 1e-14

    def test_dilated_node(self):
        D = mc.DilatedMap(mc.MeasureMap(BOOLE), 2.0)
        assert abs(mc.f_eval(D, 2j) - 2.0 * mc.f_eval(mc.MeasureMap(BOOLE), 1j)) < 1e-14

    def test_halfplane_preserved_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            m = random_atomic(rng)
            z = complex(rng.uniform(-5, 5), rng.uniform(0.02, 4))
            w = mc.f_eval(mc.MeasureMap(m), z)
            assert w.imag > z.imag  # strict for nondegenerate measures
        w = mc.f_eval(mc.MeasureMap(mc.point_mass(1.0)), 0.5j)
        assert w.imag == 0.5  # equality for the degenerate case

    def test_domain_error(self):
        with pytest.raises(DomainError):
            mc.f_eval(mc.ArcsineMap(), -1j)

    @pytest.mark.parametrize("z", [complex(0.0, math.nan), complex(math.nan, 1.0),
                                   complex(math.inf, 1.0), complex(0.0, math.inf)])
    def test_non_finite_point(self, z):
        for F in (mc.MeasureMap(BOOLE), mc.ArcsineMap(), mc.IterateMap(mc.MeasureMap(BOOLE), 3)):
            with pytest.raises(DomainError):
                mc.f_eval(F, z)
        with pytest.raises(DomainError):
            mc.cauchy_eval(BOOLE, np.array([1j, z]))
        with pytest.raises(DomainError):
            mc.subordination_eval(BOOLE, BOOLE, z)


class TestNevanlinna:
    def test_point_mass_degenerate_pair(self):
        rep = mc.nevanlinna_extract(mc.point_mass(2.0))
        assert rep.a == -2.0 and rep.sigma is None
        F = mc.nevanlinna_synthesize(rep)
        assert abs(mc.f_eval(F, 1j) - (1j - 2.0)) < 1e-15

    def test_symmetric_two_point(self):
        rep = mc.nevanlinna_extract(BOOLE)
        assert abs(rep.a) < 1e-12
        assert len(rep.sigma) == 1
        assert abs(rep.sigma.positions[0]) < 1e-12
        assert abs(rep.sigma.masses[0] - 1.0) < 1e-12

    def test_bernoulli_pair(self):
        # F(z) = z - 1/2 - 1/(4z - 2): zero of G at 1/2, residue -1/4,
        # sigma mass 1/5; the additive constant follows from the mean
        # identity  mean(mu) = mean(sigma) - a, giving a = -2/5.
        rep = mc.nevanlinna_extract(BERN)
        assert abs(rep.sigma.positions[0] - 0.5) < 1e-12
        assert abs(rep.sigma.masses[0] - 0.2) < 1e-12
        assert abs(rep.a - (-0.4)) < 1e-12
        mom_sigma = mc.moments(rep.sigma)
        assert abs(mom_sigma.mean - rep.a - mc.moments(BERN).mean) < 1e-12

    def test_roundtrip_randomized(self):
        rng = np.random.default_rng(2)
        zs = rng.uniform(-5, 5, 100) + 1j * rng.uniform(0.05, 5, 100)
        for _ in range(20):
            m = random_atomic(rng)
            F1 = mc.nevanlinna_synthesize(mc.nevanlinna_extract(m))
            F2 = mc.MeasureMap(m)
            assert np.abs(mc.f_eval(F1, zs) - mc.f_eval(F2, zs)).max() < 1e-10

    def test_variance_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_atomic(rng)
            rep = mc.nevanlinna_extract(m)
            sig = mc.moments(rep.sigma)
            assert abs(sig.m2 + rep.sigma.total_mass - mc.moments(m).var) < 1e-9

    def test_synthesize_simple_forms(self):
        ident = mc.nevanlinna_synthesize(mc.NevanlinnaRep(0.0, None))
        assert mc.f_eval(ident, 1.3j) == 1.3j
        pole = mc.NevanlinnaRep(0.0, mc.atomic([(0.0, 1.0)], is_probability=False))
        F = mc.nevanlinna_synthesize(pole)
        assert abs(mc.f_eval(F, 1j) - 2j) < 1e-15
        r = 0.37
        Fr = mc.nevanlinna_synthesize(
            mc.NevanlinnaRep(0.0, mc.atomic([(0.0, r)], is_probability=False)))
        for y in (1.0, 3.0):
            assert abs(mc.f_eval(Fr, 1j * y) - 1j * y * (1 + r / y**2)) < 1e-14


class TestInversion:
    def test_poisson_kernel_for_point_mass(self):
        eta = 1e-2
        d = mc.measure_from_map(mc.IdentityMap(), eta=eta, richardson=False)
        x = d.grid
        oracle = eta / (np.pi * (x * x + eta * eta))
        assert np.abs(d.values - oracle).max() < 1e-8

    def test_arcsine_center_value(self):
        d = mc.measure_from_map(mc.ArcsineMap(), eta=1e-2)
        i0 = np.argmin(np.abs(d.grid))
        assert abs(d.values[i0] - 1.0 / (np.pi * SQRT2)) < 1e-4

    def test_arcsine_l1_recovery(self):
        # linear eta-extrapolation leaves only square-root boundary layers:
        # interior recovery is clean, the global error is edge-dominated
        d = mc.measure_from_map(mc.ArcsineMap(), eta=1e-2)
        err = np.abs(d.values - arcsine_density(d.grid))
        inner = np.abs(d.grid) <= SQRT2 - 0.1
        assert np.trapezoid(err[inner], dx=d.h) < 1e-3
        assert np.trapezoid(err, dx=d.h) < 0.08
        assert abs(d.total_mass - 1.0) < 2e-3

    def test_atom_recovery_mass(self):
        eta = 1e-3
        d = mc.measure_from_map(mc.MeasureMap(BOOLE), eta=eta, richardson=False)
        x = d.grid
        sel = (x >= 0.9) & (x <= 1.1)
        recovered = np.trapezoid(d.values[sel], dx=d.h)
        # oracle: the smoothing kernel integrated over [0.9, 1.1] per atom
        oracle = 0.0
        for t, w in zip(BOOLE.positions, BOOLE.masses):
            oracle += w * (np.arctan((1.1 - t) / eta) - np.arctan((0.9 - t) / eta)) / np.pi
        assert abs(recovered - oracle) < 5e-3
        assert abs(recovered - 0.5) < 0.01

    def test_grid_must_be_uniform(self):
        with pytest.raises(ValueError):
            mc.measure_from_map(mc.IdentityMap(), grid=np.array([0.0, 1.0, 3.0]), eta=0.1)


class TestKsDistance:
    def test_identical_laws(self):
        assert mc.ks_distance(mc.arcsine(), mc.arcsine()) == 0.0

    def test_smoothed_point_mass(self):
        # eta must stay on the order of the grid spacing so the trapezoid
        # rule resolves the smoothing kernel
        eta = 2e-3
        d = mc.measure_from_map(mc.IdentityMap(), eta=eta, richardson=False)
        ks = mc.ks_distance(d, mc.point_mass(0.0), atom_window=0.25)
        assert ks < 5e-3  # ~ eta/(pi*window) plus trapezoid mass defect

    def test_two_point_vs_arcsine_quarter(self):
        ks = mc.ks_distance(BOOLE, mc.arcsine())
        # hand value: just left of the atom at -1 the step CDF is 0 while the
        # arc-sine CDF is 1/2 + arcsin(-1/sqrt2)/pi = 1/4
        assert abs(ks - 0.25) < 1e-3

    def test_coverage_error(self):
        d = mc.GridDensity(-1.0, 0.5, np.array([0.5, 0.5, 0.5, 0.5, 0.5]))
        with pytest.raises(CoverageError):
            mc.ks_distance(d, mc.normal())

    def test_binomial_vs_gaussian_shrinks(self):
        from monoclt import classical_power, dilate
        ks = []
        for n in (16, 256):
            p = classical_power(BOOLE, n)
            ks.append(mc.ks_distance(dilate(p, n**-0.5), mc.normal()))
        assert ks[1] < ks[0] < 0.1


class TestTightness:
    def test_identity_family(self):
        stat = mc.tightness_stat([mc.IdentityMap()] * 3, [1.0, 10.0, 100.0])
        assert np.all(stat.deviations == 0.0) and stat.tight

    def test_two_point_value(self):
        stat = mc.tightness_stat([mc.MeasureMap(BOOLE)], [10.0])
        assert abs(stat.deviations[0, 0] - 0.01) < 1e-14

    def test_scaled_family(self):
        # one-step maps z - 1/(n z) for n = 10, 100: deviation 1/(n y^2)
        maps = [mc.DilatedMap(mc.MeasureMap(BOOLE), 1.0 / math.sqrt(n)) for n in (10, 100)]
        stat = mc.tightness_stat(maps, [100.0])
        assert stat.deviations.max() < 1e-4
        assert stat.tight


def plain_cauchy(t, w, z):
    """``sum_k w_k / (z - t_k)`` as one plain broadcast."""
    return (w / (z[:, None] - t)).sum(axis=-1)


def same_bits(a, b):
    """Equal bit for bit, also in the sign of each zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


#: points on and off the imaginary axis: there the real parts of the
#: symmetric laws' sums cancel to exactly 0
MIXED_Z = np.concatenate([1j * np.linspace(0.5, 3.0, 6), [1.0 + 1j, -2.0 + 0.1j]])


class TestPoleSumKernel:
    """Every pole sum runs through one workspace kernel.  Its results equal
    the plain broadcast formulas bit for bit, also in the sign of a zero
    real part and when the points span several workspace blocks (``rows``
    points per block; None is the default block)."""

    @staticmethod
    def blocks_of(monkeypatch, rows, n_poles):
        if rows is not None:
            monkeypatch.setattr(tf, "_CHUNK", rows * n_poles)

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_lattice_tail_iterate(self, rows, monkeypatch):
        lab = eg.lattice_tail_lab(10_000)
        s, t = lab.sigma.masses, lab.sigma.positions
        c, w = 0.0 - float((s * t).sum()), s * (1.0 + t * t)
        self.blocks_of(monkeypatch, rows, len(t))
        z = np.concatenate([clt.default_z_grid(), [0.5 + 0.1j, -3.0 + 2j]])
        want = z.copy()
        for _ in range(4):
            want = want + c + (w / (t - want[:, None])).sum(axis=-1)
        assert same_bits(mc.f_eval(mc.IterateMap(lab.map, 4), z), want)
        assert same_bits(mc.f_eval(lab.map, z), z + c + (w / (t - z[:, None])).sum(axis=-1))

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_atomic_scaled_power(self, rows, monkeypatch):
        rng = np.random.default_rng(11)
        z = np.concatenate([MIXED_Z, rng.uniform(-3, 3, 40) + 1j * rng.uniform(0.05, 2.0, 40)])
        n, B = 25, 5.0
        for m in (random_atomic(rng, k=9), BOOLE, mc.point_mass(0.0)):
            self.blocks_of(monkeypatch, rows, len(m))
            want = z * B
            for _ in range(n):
                want = 1.0 / plain_cauchy(m.positions, m.masses, want)
            assert same_bits(mc.f_eval(mc.ScaledPowerMap(m, n, B), z), want / B)
            assert same_bits(mc.f_eval(mc.MeasureMap(m), z), 1.0 / plain_cauchy(m.positions, m.masses, z))

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_cauchy_eval(self, rows, monkeypatch):
        rng = np.random.default_rng(12)
        m = random_atomic(rng, k=12)
        g = mc.measure_from_map(mc.ScaledPowerMap(BOOLE, 50, math.sqrt(50)),
                                grid=mc.default_grid(-2.0, 2.0, 1e-2))
        wts = np.full(len(g.values), g.h)
        wts[0] = wts[-1] = 0.5 * g.h
        z = np.concatenate([MIXED_Z, rng.uniform(-3, 3, 30) + 1j * rng.uniform(0.01, 2.0, 30)])
        for mu in (m, BOOLE, mc.point_mass(0.0)):
            self.blocks_of(monkeypatch, rows, len(mu))
            assert same_bits(mc.cauchy_eval(mu, z), plain_cauchy(mu.positions, mu.masses, z))
        self.blocks_of(monkeypatch, rows, len(g.values))
        assert same_bits(mc.cauchy_eval(g, z), plain_cauchy(g.grid, wts * g.values, z))

    def test_subordination_eval(self, monkeypatch):
        rng = np.random.default_rng(13)
        z = np.concatenate([MIXED_Z, rng.uniform(-3, 3, 60) + 1j * rng.uniform(0.02, 1.0, 60)])
        pairs = [(random_atomic(rng, k=4), random_atomic(rng, k=6)), (BOOLE, BOOLE)]
        self.blocks_of(monkeypatch, 7, 6)
        got = [mc.subordination_eval(m, n, z) for m, n in pairs]

        def plain_step(mu):
            return lambda v: 1.0 / plain_cauchy(mu.positions, mu.masses, v)

        monkeypatch.setattr(tf, "_one_step_evaluator", plain_step)
        want = [mc.subordination_eval(m, n, z) for m, n in pairs]
        for g, w in zip(got, want):
            assert g[2] == w[2]
            assert same_bits(g[0], w[0]) and same_bits(g[1], w[1])
