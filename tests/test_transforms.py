"""Tests for Cauchy transforms, map evaluation, extraction, and inversion."""

import contextlib
import math
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, optimize

import monoclt as mc
from monoclt import clt, ergodic as eg, transforms as tf
from monoclt.errors import CoverageError, DomainError, NonConvergence, NumericBreakdown

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [mc.point_mass(0.0), mc.GridDensity(-1.0, 0.5, np.ones(5))])
    def test_non_finite_value_is_typed(self, m):
        # next to an atom or grid point at 0, w/(z - 0) overflows
        with pytest.raises(NumericBreakdown, match="not finite"):
            mc.cauchy_eval(m, np.array([1j, 1e-310j]))


class TestPowerTailCauchy:
    """``G`` of ``PowerTailLaw(p, w, b)`` from one ``2F1`` against 50-digit
    mpmath, at points ``z = u b``: the density's quadrature pins the formula
    at ``QUAD`` (``Im u >= 1e-2``), ``mp.hyp2f1`` pins scipy's evaluation at
    the other points."""

    QUAD = [0.3 + 0.2j, -1 + 1e-2j, 1e-2j, 3j, 30 + 1j]
    AXIS = [x + 1e-8j for x in (-1e6, -1e3, -2.0, -0.5, 0.0, 1e-3, 0.5, 2.0, 1e3, 1e6)]
    NEAR_ONE = [1 + 1e-8j, -1 + 1e-8j, 1.0000001 + 1e-6j, -0.9999999 + 1e-7j, 1 + 1e-7j]
    FAR = [1e6j, 1e6 * np.exp(0.3j), 1e6 * np.exp(2.9j), 1e6 + 1j]

    @staticmethod
    def reference(p, w, b, z, by_quad):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            u = mpmath.mpc(z.real, z.imag) / b
            if by_quad:
                ends = [1, abs(u.real), mpmath.inf] if abs(u.real) > 1 else [1, mpmath.inf]
                g = w * mpmath.quad(lambda t: t ** -mpmath.mpf(p) * 2 * u / (u * u - t * t), ends)
            else:
                a = (mpmath.mpf(p) + 1) / 2
                g = -(2 * w / (p + 1)) * u * mpmath.hyp2f1(1, a, a + 1, u * u)
            return complex(g / b)

    @pytest.mark.parametrize("b", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0, 8.0])
    def test_against_mpmath(self, p, b):
        m = mc.PowerTailLaw(p, (p - 1.0) / 2.0, b)
        us = self.QUAD + self.AXIS + self.NEAR_ONE + self.FAR
        z = np.array(us) * b
        g = mc.cauchy_eval(m, z)
        eps = np.finfo(float).eps
        for i, (u, zz, gg) in enumerate(zip(us, z, g)):
            want = self.reference(p, m.weight, b, zz, i < len(self.QUAD))
            # u^2 rounds to an absolute 1e-16, which moves G by about 1e-16/|1 - u^2|
            tol = 1e-10 if min(abs(u - 1), abs(u + 1)) < 2e-6 else 1e-13
            assert abs(gg - want) <= tol * abs(want), (u, gg, want)
            assert gg.imag < 0
            assert abs(gg) <= m.total_mass / zz.imag * (1.0 + 4 * eps)

    def test_breakdown_is_typed(self):
        m = mc.power_tail(3.0)
        # u^2 overflows, and far along the axis Im G rounds to >= 0 at some points
        with pytest.raises(NumericBreakdown, match="160j"):
            mc.cauchy_eval(m, np.array([1j, 1e160j]))
        rng = np.random.default_rng(7)
        x = np.exp(rng.uniform(math.log(1e6), math.log(1e10), 2000)) * rng.choice([-1, 1], 2000)
        z = x + 1j * np.abs(x) * rng.uniform(1e-17, 1e-15, 2000)
        with pytest.raises(NumericBreakdown, match="Im G < 0"):
            mc.cauchy_eval(m, z)


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

    def test_json_point_mass_is_a_shift(self):
        # the JSON point mass is the one-atom law, whose map is z - c exactly,
        # so Im F = Im z holds with equality (1/(1/(z - c)) can round below it)
        rng = np.random.default_rng(22)
        cs = rng.uniform(-100.0, 100.0, 200)
        zs = rng.uniform(-100.0, 100.0, 200) + 1j * 10.0 ** rng.uniform(-6.0, 3.0, 200)
        for c, z in zip(cs.tolist(), zs.tolist()):
            F = mc.MeasureMap(mc.measure_from_json({"type": "ref", "law": "point", "c": c}))
            w = mc.f_eval(F, z)
            assert w == z - c and w.imag == z.imag

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("F, z", [
        (mc.MeasureMap(BOOLE), 1e-310j),         # on F's pole at 0: w/(0 - z) overflows
        (mc.ArcsineMap(), 1e200 + 1j),           # z^2 overflows
    ])
    def test_output_off_half_plane(self, F, z):
        with pytest.raises(NumericBreakdown):
            mc.f_eval(F, z)
        with pytest.raises(NumericBreakdown):
            mc.f_eval(F, np.array([1j, z]))

    def test_far_point_of_partial_fractions(self):
        # z - 1/z in partial fractions: the pole's term is below an ulp of
        # z, so F(z) is z exactly (as 1/G, Im F rounded to 0 here)
        assert mc.f_eval(mc.MeasureMap(BOOLE), 1e308 + 1j) == 1e308 + 1j


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
            assert np.abs(mc.f_eval(F1, zs) - 1.0 / mc.cauchy_eval(m, zs)).max() < 1e-10

    @pytest.mark.parametrize("atoms, error, match", [
        # the zero of G lies 1e-18 from the light atom: no float between them
        # has the sign G takes there, and the probe's distance used to halve
        # forever (upper atom) or stop on the atom itself (lower atom)
        ([(0.0, 1.0), (1.0, 1e-18)], NumericBreakdown, "within an ulp"),
        ([(1.0, 1e-18), (2.0, 1.0)], NumericBreakdown, "within an ulp"),
        # brentq needs more than its 200 steps for a zero at 1e-300
        ([(0.0, 1e-300), (1.0, 1.0)], NonConvergence, "zero of G"),
        # G' at the zero 0 overflows, so the residue underflows to 0
        ([(-1e-300, 0.5), (1e-300, 0.5)], NumericBreakdown, "residue"),
    ])
    def test_unrepresentable_zero_is_typed(self, atoms, error, match):
        with alarm(10), pytest.raises(error, match=match):
            mc.nevanlinna_extract(mc.AtomicMeasure(*zip(*atoms)))

    @pytest.mark.parametrize("gap, masses", [
        # a near zero at 5e-10 beside an atom at 1e153: a scale set by the
        # largest atom squared its distances to 0 (gap 1e-9) or to a subnormal
        # with 7 bits (gap 1e-7); the unscaled formula has these bits
        (1e-9, ["0x1.47f12e9228414p-62", "0x1.c71c71c71c649p-4"]),
        (1e-7, ["0x1.9051e9596a228p-49", "0x1.c71c71c71c649p-4"]),
    ])
    def test_wide_spread_law_keeps_the_unscaled_bits(self, gap, masses):
        rep = mc.nevanlinna_extract(mc.atomic([(0.0, 0.45), (gap, 0.45), (1e153, 0.1)]))
        assert rep.sigma.masses.tolist() == [float.fromhex(h) for h in masses]

    def test_masses_are_the_unscaled_formulas_where_it_is_normal(self):
        # atoms spread over 165 decades, so each zero has its own scale
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(300):
            k = int(rng.integers(2, 6))
            pos = np.sort(rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-12.0, 153.0, k))
            mas = rng.dirichlet(np.ones(k))
            rep = mc.nevanlinna_extract(mc.AtomicMeasure(pos, mas))
            for t, s in zip(rep.sigma.positions.tolist(), rep.sigma.masses.tolist()):
                sq = (t - pos) ** 2
                if sq.min() < np.finfo(float).tiny:
                    continue
                assert same_bits(s, -1.0 / (float(-(mas / sq).sum()) * (1.0 + t * t)))
                checked += 1
        assert checked > 500

    def test_zero_on_a_flat_run_is_its_middle(self):
        # G rounds to 0 on the floats within 2^-54 of 0, whose middle is the
        # exact zero: x - 1/x keeps its pole at 0, not at 2^-54
        assert mc.nevanlinna_extract(BOOLE).sigma.positions.tolist() == [0.0]
        sym = mc.atomic([(-2.0, 0.25), (-1.0, 0.25), (1.0, 0.25), (2.0, 0.25)])
        assert mc.nevanlinna_extract(sym).sigma.positions[1] == 0.0

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


@st.composite
def brent_laws(draw):
    """2-6 atoms: an integer lattice, a lattice at a scale from 1e-3 to
    1e3, or uniform positions at a scale from 1e-8 to 1e8."""
    k = draw(st.integers(2, 6))
    family = draw(st.sampled_from(["lattice", "scaled", "uniform"]))
    ints = draw(st.lists(st.integers(-50, 50) if family != "uniform" else
                         st.integers(-10**6, 10**6), min_size=k, max_size=k, unique=True))
    if family == "lattice":
        pos = np.array(ints, dtype=float)
    elif family == "scaled":
        pos = np.array(ints) * 10.0 ** draw(st.floats(-3.0, 3.0))
    else:
        pos = np.array(ints) / 1e6 * 10.0 ** draw(st.floats(-8.0, 8.0))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    order = np.argsort(pos)
    return mc.AtomicMeasure(pos[order], (w / w.sum())[order])


class TestBrentPort:
    """`transforms._brentq` finds the zeros of G with scipy's bits."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(brent_laws())
    def test_zeros_of_g_have_scipys_bits(self, m):
        pairs = []
        port = tf._brentq

        def both(f, a, b, xtol, rtol, maxiter):
            x = port(f, a, b, xtol, rtol, maxiter)
            pairs.append((x, optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)))
            return x

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tf, "_brentq", both)
            tf.nevanlinna_extract(m)
        assert len(pairs) == len(m) - 1
        assert all(same_bits(x, ref) for x, ref in pairs)

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x, 0.0, 1.0),            # f(a) == 0 returns a
        (lambda x: x - 1.0, 0.0, 1.0),      # f(b) == 0 returns b
        (lambda x: x**3 - 2.0, -1.0, 3.0),
        (math.cos, 0.0, 3.0),
        (lambda x: math.exp(x) - 1e10, -5.0, 50.0),
    ])
    def test_plain_functions_have_scipys_bits(self, f, a, b):
        # a coarse xtol makes the ``- delta`` of the step test matter
        for xtol, rtol in [(1e-300, 1e-14), (2e-12, 8.9e-16), (1e-3, 1e-6), (0.5, 1e-3)]:
            ref = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=200)
            assert same_bits(tf._brentq(f, a, b, xtol, rtol, 200), ref)

    @staticmethod
    def _scaled(e):
        base = mc.atomic(list(zip([-2.0, -1.0, 1.0, 3.0], [0.1, 0.4, 0.3, 0.2])))
        return mc.AtomicMeasure((base.positions - mc.moments(base).mean) * 10.0 ** e, base.masses)

    @pytest.mark.parametrize("e", range(64, 160))
    def test_huge_scales_have_scipys_bits(self, e):
        # the extrapolation's denominator underflows to 0 from b ~ 1e62: C divides
        # to +-inf and bisects, where a Python division raised ZeroDivisionError
        pairs = []
        port = tf._brentq

        def both(f, a, b, xtol, rtol, maxiter):
            x = port(f, a, b, xtol, rtol, maxiter)
            pairs.append((x, optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)))
            return x

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tf, "_brentq", both)
            rep = tf.nevanlinna_extract(self._scaled(e))
        assert len(pairs) == 3
        assert all(same_bits(x, ref) for x, ref in pairs)
        # the residues are scale-free up to the 1 of 1 + t^2 and the rounding of 10^e
        # (3e-15 at most here), also where t^2 overflows (from 10^154)
        ref = tf.nevanlinna_extract(self._scaled(140)).sigma.masses
        np.testing.assert_allclose(rep.sigma.masses, ref, rtol=4e-15, atol=0)

    def test_step_cap_gives_nan(self):
        with pytest.raises(RuntimeError):
            optimize.brentq(math.cos, 0.0, 3.0, xtol=1e-300, rtol=1e-14, maxiter=2)
        assert math.isnan(tf._brentq(math.cos, 0.0, 3.0, 1e-300, 1e-14, 2))


class TestLatticeBisect:
    """The one root finder of preimages and norming cutoffs."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(r=st.floats(allow_nan=False, allow_infinity=False))
    @example(r=1e308)
    @example(r=-1e308)
    @example(r=5e-324)
    @example(r=-2.2250738585072014e-308)
    @example(r=0.0)
    @example(r=-0.0)
    def test_root_of_a_shifted_identity(self, r):
        probes = []

        def f(x, rows):
            probes.append(x[0])
            return x - r

        root = tf._lattice_bisect(f, [-np.inf], [np.inf])
        with np.errstate(over="ignore"):
            assert root[0] in (r, np.nextafter(r, np.inf))
        assert len(probes) <= 64 and np.isfinite(probes).all()     # no end evaluated

    def test_rows_are_independent(self):
        r = np.array([-3.0, 0.5, 1e-300, 7e200])
        lo, hi = np.array([-np.inf, 0.0, 0.0, 1.0]), np.array([0.0, 1.0, np.inf, np.inf])
        both = tf._lattice_bisect(lambda x, rows: x - r[rows], lo, hi)
        for j in range(len(r)):
            one = tf._lattice_bisect(lambda x, rows: x - r[j], lo[j:j + 1], hi[j:j + 1])
            assert one[0] == both[j] in (r[j], np.nextafter(r[j], np.inf))


class TestInversion:
    def test_poisson_kernel_for_point_mass(self):
        eta = 1e-2
        d = mc.measure_from_map(mc.MeasureMap(mc.point_mass(0.0)), eta=eta, richardson=False)
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
            mc.measure_from_map(mc.MeasureMap(mc.point_mass(0.0)), grid=np.array([0.0, 1.0, 3.0]), eta=0.1)

    @pytest.mark.parametrize("grid", [[0.0], []])
    def test_grid_needs_two_points(self, grid):
        with pytest.raises(ValueError, match="at least two points"):
            mc.measure_from_map(mc.MeasureMap(BOOLE), grid=np.array(grid))


class TestKsDistance:
    def test_identical_laws(self):
        assert mc.ks_distance(mc.arcsine(), mc.arcsine()) == 0.0

    def test_smoothed_point_mass(self):
        # eta must stay on the order of the grid spacing so the trapezoid
        # rule resolves the smoothing kernel
        eta = 2e-3
        d = mc.measure_from_map(mc.MeasureMap(mc.point_mass(0.0)), eta=eta, richardson=False)
        # the sup next to the atom is half its jump, so compare only outside
        # a window of 0.25 around it, and at the atom itself
        pts = np.append(d.grid[np.abs(d.grid) > 0.25], 0.0)
        ks = np.max(np.abs(mc.cdf(d, pts) - mc.cdf(mc.point_mass(0.0), pts)))
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

    @pytest.mark.parametrize("swap", [False, True])
    def test_heavy_power_tail_has_no_finite_span(self, swap):
        # (1e-7)^(1/(1 - p)) overflows below p of about 1.0227: it was a bare OverflowError
        pair = (mc.power_tail(1.01), mc.normal())
        with pytest.raises(CoverageError, match="no finite grid"):
            mc.ks_distance(*(pair[::-1] if swap else pair))

    def test_binomial_vs_gaussian_shrinks(self):
        from monoclt import classical_power, dilate
        ks = []
        for n in (16, 256):
            p = classical_power(BOOLE, n)
            ks.append(mc.ks_distance(dilate(p, n**-0.5), mc.normal()))
        assert ks[1] < ks[0] < 0.1


class TestTightness:
    def test_identity_family(self):
        stat = mc.tightness_stat([mc.MeasureMap(mc.point_mass(0.0))] * 3, [1.0, 10.0, 100.0])
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


@contextlib.contextmanager
def alarm(seconds):
    """Raise TimeoutError in the block after `seconds`, so a hang fails."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def plain_map(c, t, w, z):
    """``z + c + sum_j w_j / (t_j - z)`` as one plain broadcast."""
    return z + c + (w / (t - z[:, None])).sum(axis=-1)


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
        # an atomic probability law steps by its extracted partial fractions
        rng = np.random.default_rng(11)
        z = np.concatenate([MIXED_Z, rng.uniform(-3, 3, 40) + 1j * rng.uniform(0.05, 2.0, 40)])
        n, B = 25, 5.0
        for m in (random_atomic(rng, k=9), BOOLE, mc.point_mass(0.0)):
            c, t, w = tf._partial_fractions(mc.nevanlinna_extract(m))
            self.blocks_of(monkeypatch, rows, len(t))
            want = z * B
            for _ in range(n):
                want = plain_map(c, t, w, want)
            assert same_bits(mc.f_eval(mc.ScaledPowerMap(m, n, B), z), want / B)
            assert same_bits(mc.f_eval(mc.MeasureMap(m), z), plain_map(c, t, w, z))

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
        self.blocks_of(monkeypatch, 7, 5)
        got = [mc.subordination_eval(m, n, z) for m, n in pairs]
        # every pole sum of the solve, h = c + psum and the answer's F_m,
        # as a plain broadcast over the extracted partial fractions
        monkeypatch.setattr(tf, "_PoleSum", lambda t, w, dtype=complex:
                            lambda v: (w / (t - v[:, None])).sum(axis=-1))
        want = [mc.subordination_eval(m, n, z) for m, n in pairs]
        for g, w in zip(got, want):
            assert g[2] == w[2]
            assert same_bits(g[0], w[0]) and same_bits(g[1], w[1])


class TestPoleSumKernelFewPoleBranch(TestPoleSumKernel):
    """The same checks with the kernel's few-pole branch on every call of at
    most ``_FEW_POLES`` poles, however few the points (the tests above use
    few points, which the kernel sends to its generic branch)."""

    @pytest.fixture(autouse=True)
    def few_pole_branch(self, monkeypatch):
        monkeypatch.setattr(tf, "_FEW_POINTS_PER_POLE", 0)


def few_pole_calls(monkeypatch):
    """Count the blocks that `_PoleSum` hands to its few-pole branch."""
    calls = []
    inner = tf._few_pole_rows

    def spy(*args):
        calls.append(len(args[2]))
        return inner(*args)

    monkeypatch.setattr(tf, "_few_pole_rows", spy)
    return calls


class TestFewPoleOrder:
    """The few-pole branch adds its terms in the order of numpy's own
    ``np.add.reduce`` along a contiguous row, bit for bit, for every pole
    count it serves.  The order is a numpy implementation detail: a numpy
    whose reduce adds in another order fails here."""

    @staticmethod
    def laws(rng, k):
        """(t, w) pairs: random, symmetric (pairs of terms cancel) and with
        weights so small that a far point's terms underflow to zeros, all
        -0.0 far to the right (where the reduce returns +0.0)."""
        t = np.sort(rng.uniform(-3.0, 3.0, k))
        half = np.sort(rng.uniform(0.5, 3.0, k // 2))
        sym = np.concatenate((-half[::-1], [7.0] * (k % 2), half))
        sym_w = np.concatenate((rng.uniform(0.1, 1.0, k // 2)[::-1], [0.5] * (k % 2)))
        sym_w = np.concatenate((sym_w, sym_w[:k // 2][::-1]))
        return [(t, rng.uniform(0.1, 1.0, k)), (sym, sym_w),
                (t, rng.uniform(1.0, 2.0, k) * 1e-17)]

    @staticmethod
    def points(rng, dtype, t, far):
        """Random points, zeros and points `far` out, where the terms of
        tiny weights underflow to zeros signed as ``t - x``."""
        x = np.concatenate([rng.uniform(-4.0, 4.0, 24), [0.0, -0.0, far, -far, 0.3 * far]])
        if dtype is float:
            return x[~np.isin(x, t)]
        # on a pole's vertical line the term's real part is a signed zero
        y = np.concatenate([rng.uniform(0.01, 2.0, 24), [0.5, 2.0, 1.0, 1.0, 1.0]])
        return np.concatenate([x + 1j * y, t + 0.25j, -0.0 + 1j * np.array([0.3, 1.0])])

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("squared", [False, True])
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_matches_add_reduce(self, dtype, squared, rows, monkeypatch):
        monkeypatch.setattr(tf, "_FEW_POINTS_PER_POLE", 0)
        calls = few_pole_calls(monkeypatch)
        rng = np.random.default_rng(21)
        cut = tf._FEW_POLES[np.dtype(dtype).char]
        for k in range(1, cut + 1):
            if rows is not None:
                monkeypatch.setattr(tf, "_CHUNK", rows * k)
            for t, w in self.laws(rng, k):
                x = self.points(rng, dtype, t, 1e154 if squared else 1e308)
                d = t - x[:, None]
                want = np.add.reduce(w / (np.square(d) if squared else d), axis=-1)
                del calls[:]
                got = tf._PoleSum(t, w, dtype)(x, squared=squared)
                assert calls and sum(calls) == len(x)
                assert same_bits(got, want), (k, squared)
                if not squared:
                    psum = tf._PoleSum(t, w, dtype)
                    assert same_bits(psum(x[:5]), want[:5]) and same_bits(psum(x), want)

    def test_branch_by_size(self, monkeypatch):
        calls = few_pole_calls(monkeypatch)
        x = tf.default_grid()
        # a 5-atom law on the 8001-point grid takes the few-pole branch
        mc.cauchy_eval(random_atomic(np.random.default_rng(3), k=5), x + 0.01j)
        assert sum(calls) == len(x)
        del calls[:]
        # the 100-pole boundary map of the orbit benchmark does not, nor
        # does one point of a 2-pole map
        T = eg.lattice_tail_lab(50).T
        assert T.n_poles == 100
        eg.eval_T(T, np.random.default_rng(4).uniform(-2.0, 2.0, 2048))
        mc.cauchy_eval(BOOLE, 0.5 + 1j)
        assert calls == []


class TestKernelPaths:
    """The kernel's three paths -- poles tiled to the block, points broadcast
    from the poles, and the few-pole loop -- give the bytes of
    ``np.add.reduce(w / (t - x[:, None]), axis=-1)`` on either side of
    ``_TILE_POLES`` and ``_FEW_POLES``, for real and complex points and any
    number of rows, on `TestFewPoleOrder`'s laws and points."""

    @staticmethod
    def pole_counts(dtype):
        few = tf._FEW_POLES[np.dtype(dtype).char]
        return [1, few, few + 1, tf._TILE_POLES, tf._TILE_POLES + 1]

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("squared", [False, True])
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_paths_match_add_reduce(self, dtype, squared, rows, monkeypatch):
        rng = np.random.default_rng(23)
        for k in self.pole_counts(dtype):
            for t, w in TestFewPoleOrder.laws(rng, k):
                # complex points on the vertical lines of at most 32 poles
                lines = t[::-(-k // 32)]
                x = TestFewPoleOrder.points(rng, dtype, lines, 1e154 if squared else 1e308)
                d = t - x[:, None]
                want = np.add.reduce(w / (np.square(d) if squared else d), axis=-1)
                with monkeypatch.context() as mp:
                    if rows is not None:
                        mp.setattr(tf, "_CHUNK", rows * k)
                    mp.setattr(tf, "_FEW_POLES", {"D": 0, "d": 0})
                    for tile_poles in (k - 1, k):       # points broadcast, poles tiled
                        mp.setattr(tf, "_TILE_POLES", tile_poles)
                        psum = tf._PoleSum(t, w, dtype)
                        got = psum(x, squared=squared)
                        assert same_bits(got, want), (k, squared, tile_poles)
                        assert (len(psum.tiles[0]) > 0) == (tile_poles == k)
                    assert len(psum.tiles[0]) == min(len(psum.block), len(x))
                if k <= tf._FEW_POLES[np.dtype(dtype).char]:
                    with monkeypatch.context() as mp:
                        if rows is not None:
                            mp.setattr(tf, "_CHUNK", rows * k)
                        mp.setattr(tf, "_FEW_POINTS_PER_POLE", 0)
                        calls = few_pole_calls(mp)
                        assert same_bits(tf._PoleSum(t, w, dtype)(x, squared=squared), want)
                        assert sum(calls) == len(x)
                if not squared and rows is None:
                    # as a loop runs it: one object, grown from a few points
                    psum = tf._PoleSum(t, w, dtype)
                    assert same_bits(psum(x[:3]), want[:3]) and same_bits(psum(x), want)

    def test_workspace_casts_once_and_tiles_short_rows(self):
        for k in (1, 100, tf._TILE_POLES, tf._TILE_POLES + 1, 20_000):
            t = np.arange(k, dtype=float)
            psum = tf._PoleSum(t, np.ones(k), complex)
            assert psum.t.dtype == psum.w.dtype == complex
            assert len(psum.tiles[0]) == 0
            psum(np.array([0.5j, 1.5j]))                # two points: the generic branch
            assert (len(psum.tiles[0]) > 0) == (k <= tf._TILE_POLES)
            if k <= tf._TILE_POLES:
                assert all(a.shape == (2, k) and np.array_equal(a[1], b)
                           for a, b in zip(psum.tiles, (psum.t, psum.w)))

    @pytest.mark.parametrize("few", [True, False])
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_one_object_serves_every_call(self, dtype, few, monkeypatch):
        """One `_PoleSum` called on 3, then 9000, then 5 points grows its
        block once and gives the bytes of a fresh object per call."""
        if not few:
            monkeypatch.setattr(tf, "_FEW_POLES", {"D": 0, "d": 0})
        calls = few_pole_calls(monkeypatch)
        rng = np.random.default_rng(24)
        for k in (1, 3, 20, 40):
            t, w = np.sort(rng.uniform(-3.0, 3.0, k)), rng.uniform(0.1, 1.0, k)
            psum = tf._PoleSum(t, w, dtype)
            blocks = []
            for n in (3, 9000, 5):
                x = rng.uniform(-4.0, 4.0, n)
                if dtype is complex:
                    x = x + 1j * rng.uniform(0.01, 2.0, n)
                for squared in (False, True):
                    got = psum(x, squared=squared)
                    assert same_bits(got, tf._PoleSum(t, w, dtype)(x, squared=squared)), (k, n)
                blocks.append(psum.block)
            assert blocks[0] is not blocks[1] is blocks[2]
            assert len(blocks[1]) == min(9000, tf._CHUNK // k)
        assert bool(calls) == few


@pytest.mark.parametrize("few", [True, False])
@pytest.mark.parametrize("dtype", [complex, float])
def test_pole_map_step_matches_plain_formula(dtype, few, monkeypatch):
    """`_pole_map`'s step adds ``x + c`` into the pole sum's own output: the
    bytes of ``x + c + _PoleSum(t, w)(x)`` on either kernel branch, with
    ``c = -0.0`` and signed-zero sums, on Boole's map ``z - 1/z`` (one pole
    at 0, met by points whose real part is +0.0 or -0.0) and on
    `TestFewPoleOrder`'s laws and points."""
    if few:
        monkeypatch.setattr(tf, "_FEW_POINTS_PER_POLE", 0)
    else:
        monkeypatch.setattr(tf, "_FEW_POLES", {"D": 0, "d": 0})
    calls = few_pole_calls(monkeypatch)
    rng = np.random.default_rng(25)
    c, t, w = tf._map_form(BOOLE)
    assert c == 0.0 and np.array_equal(t, [0.0]) and np.array_equal(w, [1.0])
    laws = [(t, w)] + TestFewPoleOrder.laws(rng, 3) + TestFewPoleOrder.laws(rng, 6)
    for t, w in laws:
        x = TestFewPoleOrder.points(rng, dtype, t, 1e308)
        if dtype is complex:
            x = np.concatenate([x, [complex(-0.0, 0.5), complex(0.0, 0.5), complex(-0.0, 1e-300)]])
        for c in (0.0, -0.0, 0.75, -2.0):
            want = x + c + tf._PoleSum(t, w, dtype)(x)
            assert same_bits(tf._pole_map(c, t, w, dtype)(x), want), (len(t), c)
    assert bool(calls) == few


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("k", [1, 3])
def test_generic_squared_sums_ignore_block_size(dtype, k, monkeypatch):
    """The generic branch squares each difference out of place: numpy
    squares a one-element complex array in place by a scalar loop whose
    last bit can differ, so one-row blocks of one pole would differ."""
    monkeypatch.setattr(tf, "_FEW_POLES", {"D": 0, "d": 0})
    rng = np.random.default_rng(22)
    x = rng.uniform(-3.0, 3.0, 2000)
    if dtype is complex:
        x = x + 1j * rng.uniform(0.01, 2.0, 2000)
    t, w = np.sort(rng.uniform(-1.0, 1.0, k)), rng.uniform(0.1, 1.0, k)
    want = np.add.reduce(w / np.square(t - x[:, None]), axis=-1)
    chunk = tf._CHUNK
    for tile_poles in (k, k - 1):                   # poles tiled, points broadcast
        monkeypatch.setattr(tf, "_TILE_POLES", tile_poles)
        for rows in (None, 1, 7):
            monkeypatch.setattr(tf, "_CHUNK", chunk if rows is None else rows * k)
            assert same_bits(tf._PoleSum(t, w, dtype)(x, squared=True), want), (tile_poles, rows)


# ---------------------------------------------------------------------------
# Properties of the evaluator on random small laws and Nevanlinna pairs
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)


@st.composite
def pole_laws(draw, probability=True):
    """1-6 atoms on the grid 0.25*Z within [-5, 5] (symmetric laws, whose
    real parts cancel to signed zeros on the imaginary axis, included)."""
    k = draw(st.integers(1, 6))
    pos = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k, unique=True))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0) if probability else st.floats(0.01, 2.0),
                               min_size=k, max_size=k)))
    order = np.argsort(pos)
    pos = 0.25 * np.asarray(pos, dtype=float)[order]
    if probability:
        return mc.AtomicMeasure(pos, (w / w.sum())[order])
    return mc.AtomicMeasure(pos, w[order], is_probability=False)


@st.composite
def nevanlinna_maps(draw):
    sigma = draw(st.none() | pole_laws(probability=False))
    return mc.NevanlinnaMap(mc.NevanlinnaRep(draw(st.floats(-3.0, 3.0)), sigma))


POINTS = st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.05, 5.0)),
                  min_size=1, max_size=8).map(lambda p: np.array([complex(x, y) for x, y in p]))


class TestEvaluatorProperties:
    """The paper's half-plane invariants, and the evaluator's structure:
    an iteration or a composition gives the bits of its steps applied in
    turn."""

    @PROPERTY_SETTINGS
    @given(m=pole_laws(), N=nevanlinna_maps(), z=POINTS)
    def test_half_plane_and_cauchy_bound(self, m, N, z):
        eps = np.finfo(float).eps
        for F in (mc.MeasureMap(m), N, mc.IterateMap(mc.MeasureMap(m), 3), mc.IterateMap(N, 3)):
            w = mc.f_eval(F, z)
            assert np.all(np.isfinite(w))
            assert np.all(w.imag >= z.imag * (1.0 - 4 * eps))
        G = mc.cauchy_eval(m, z)
        assert np.all(np.abs(G) <= m.total_mass / z.imag * (1.0 + 4 * eps))

    @PROPERTY_SETTINGS
    @given(m=pole_laws(), N=nevanlinna_maps(), z=POINTS, n=st.integers(0, 6))
    # a symmetric law on the imaginary axis: each step's real part is -0.0
    @example(m=BOOLE, N=mc.NevanlinnaMap(mc.NevanlinnaRep(0.0, None)), z=np.array([1j, 2j]), n=2)
    def test_iterate_is_repeated_evaluation(self, m, N, z, n):
        for base in (mc.MeasureMap(m), N, mc.DilatedMap(mc.MeasureMap(m), 2.0)):
            want = z
            for _ in range(n):
                want = mc.f_eval(base, want)
            assert same_bits(mc.f_eval(mc.IterateMap(base, n), z), want)

    @PROPERTY_SETTINGS
    @given(m=pole_laws(), m2=pole_laws(), N=nevanlinna_maps(), z=POINTS)
    def test_compose_applies_parts_in_turn(self, m, m2, N, z):
        parts = (mc.MeasureMap(m), N, mc.MeasureMap(m2))
        want = z
        for part in reversed(parts):
            want = mc.f_eval(part, want)
        assert same_bits(mc.f_eval(mc.ComposeMap(parts), z), want)

    @PROPERTY_SETTINGS
    @given(m=pole_laws(), z=POINTS)
    def test_nevanlinna_round_trip(self, m, z):
        want = 1.0 / mc.cauchy_eval(m, z)
        got = mc.f_eval(mc.nevanlinna_synthesize(mc.nevanlinna_extract(m)), z)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_half_plane_checks(self, n, monkeypatch):
        """An iterated pole-form base is checked once per evaluation, a
        generic base after each of its steps."""
        calls = []
        inner = tf._check_upper_out
        monkeypatch.setattr(tf, "_check_upper_out", lambda w, what: (calls.append(what), inner(w, what))[1])
        lab = eg.lattice_tail_lab(10)
        z = clt.default_z_grid()
        for F, want in [(mc.IterateMap(mc.MeasureMap(BOOLE), n), 1), (mc.IterateMap(lab.map, n), 1),
                        (mc.ScaledPowerMap(BOOLE, n, 2.0), 1), (mc.IterateMap(mc.ArcsineMap(), n), n),
                        (mc.ComposeMap((mc.MeasureMap(BOOLE), lab.map)), 2)]:
            del calls[:]
            mc.f_eval(F, z)
            assert len(calls) == want, (F, calls)


@st.composite
def light_atom_laws(draw):
    """2-4 atoms on the grid 0.25*Z within [-5, 5], one of them as light as
    1e-15, whose zero of G then sits that close to it."""
    k = draw(st.integers(2, 4))
    pos = np.sort(0.25 * np.array(draw(st.lists(st.integers(-20, 20), min_size=k,
                                                 max_size=k, unique=True)), dtype=float))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    w[draw(st.integers(0, k - 1))] = 10.0 ** draw(st.floats(-15.0, -1.0))
    return mc.AtomicMeasure(pos, w / w.sum())


class TestPartialFractionForm:
    """An atomic probability law's map steps by its extracted partial
    fractions, certified against ``1/G`` and else ``1/G`` itself."""

    @PROPERTY_SETTINGS
    @given(m=light_atom_laws(), z=POINTS)
    def test_matches_inverse_cauchy(self, m, z):
        F = mc.f_eval(mc.MeasureMap(m), z)
        want = 1.0 / plain_cauchy(m.positions, m.masses, z)
        assert np.all(np.abs(F - want) <= 1e-10 * np.abs(want))
        assert np.all(F.imag >= z.imag)

    @pytest.mark.parametrize("m, tol", [
        (random_atomic(np.random.default_rng(14), k=5), -1.0),     # a certificate forced to fail
        (mc.atomic([(0.0, 1.0), (1.0, 1e-18)]), None),             # extraction raises
        (mc.atomic([(0.0, 1e-300), (1.0, 1.0)]), None),
        # right at i, but 37% off at 1e-10 + 1e-10 i: |c| ~ 3e9 swamps F there
        (mc.AtomicMeasure([-1e10, 0.0, 1e-10], [0.3, 0.4, 0.3]), None),
    ])
    def test_uncertified_law_keeps_inverse_cauchy(self, m, tol, monkeypatch):
        # each law steps by 1/G, bit for bit
        if tol is not None:
            monkeypatch.setattr(tf, "_FORM_TOL", tol)
        rng = np.random.default_rng(15)
        z = rng.uniform(-3, 3, 30) + 1j * rng.uniform(0.05, 2.0, 30)
        inverse = lambda v: 1.0 / plain_cauchy(m.positions, m.masses, v)
        assert tf._map_form(m) is None
        assert same_bits(mc.f_eval(mc.MeasureMap(m), z), inverse(z))
        assert same_bits(mc.f_eval(mc.ScaledPowerMap(m, 3, 2.0), z), inverse(inverse(inverse(z * 2.0))) / 2.0)
        h = mc.convolve._h_func(m)
        assert same_bits(h(z), inverse(z) - z)


class TestOrbit:
    """`_orbit`: the iterates of one start, stepped on Python complex
    numbers below the pole cut and on a one-element array above it."""

    @pytest.mark.parametrize("F", [
        random_atomic(np.random.default_rng(21), k=6),
        mc.AtomicMeasure(np.linspace(-1.0, 1.0, 64), np.full(64, 1.0 / 64)),    # 63 poles
        mc.nevanlinna_synthesize(mc.NevanlinnaRep(0.4, mc.atomic(
            [(-1.0, 0.3), (2.0, 0.5)], is_probability=False))),
        mc.point_mass(0.7),
    ])
    def test_branches_agree_with_f_eval(self, F, monkeypatch):
        z, n = 0.3 + 0.8j, 400
        scalar = tf._orbit(F, z, n)
        monkeypatch.setattr(tf, "_ORBIT_SCALAR_POLES", 0)
        array = tf._orbit(F, z, n)
        G = F if isinstance(F, mc.SelfMap) else mc.MeasureMap(F)
        want = [z]
        for _ in range(n):
            want.append(mc.f_eval(G, want[-1]))
        assert same_bits(array, np.array(want))      # the evaluator's own step
        assert np.max(np.abs(scalar - array) / np.abs(array)) < 1e-14

    def test_other_maps_step_their_evaluator(self):
        z = tf._orbit(mc.ArcsineMap(), 0.5 + 2j, 5)
        assert z[0] == 0.5 + 2j and len(z) == 6
        assert np.allclose(z[5], mc.f_eval(mc.IterateMap(mc.ArcsineMap(), 5), 0.5 + 2j),
                           rtol=1e-15, atol=0.0)

    def test_one_check_covers_every_iterate(self, monkeypatch):
        calls = []
        inner = tf._check_upper_out
        monkeypatch.setattr(tf, "_check_upper_out",
                            lambda w, what: (calls.append(len(w)), inner(w, what))[1])
        tf._orbit(BOOLE, 1j, 30)
        assert calls == [31]

    def test_step_onto_a_pole_is_typed(self):
        # Boole's map z - 1/z has its pole at 0
        with pytest.raises(NumericBreakdown, match="onto a pole"):
            tf._orbit(BOOLE, 0j, 3)
