"""Tests for monotone/classical/free convolution engines."""

import math

import numpy as np
import pytest

import monoclt as mc
from monoclt.errors import NonConvergence

from test_measures import BERN, BOOLE, random_atomic


def random_upper(rng, n):
    return rng.uniform(-4, 4, n) + 1j * rng.uniform(0.1, 4, n)


class TestMonotone:
    def test_point_masses_shift(self):
        F = mc.monotone_convolve(mc.point_mass(1.0), mc.point_mass(2.5))
        z = 0.3 + 1j
        assert abs(mc.f_eval(F, z) - (z - 3.5)) < 1e-14

    def test_identity_factor(self):
        F = mc.monotone_convolve(BOOLE, mc.point_mass(0.0))
        for z in (1j, 2 + 0.5j):
            assert abs(mc.f_eval(F, z) - mc.f_eval(mc.MeasureMap(BOOLE), z)) < 1e-14

    def test_self_convolution_value(self):
        F = mc.monotone_convolve(BOOLE, BOOLE)
        assert abs(mc.f_eval(F, 2j) - 2.9j) < 1e-14

    def test_power_identity_and_semigroup(self):
        rng = np.random.default_rng(0)
        zs = random_upper(rng, 20)
        assert np.all(mc.f_eval(mc.monotone_power(BOOLE, 0), zs) == zs)
        p1 = mc.f_eval(mc.monotone_power(BOOLE, 1), zs)
        assert np.abs(p1 - mc.f_eval(mc.MeasureMap(BOOLE), zs)).max() < 1e-14
        five = mc.f_eval(mc.monotone_power(BOOLE, 5), zs)
        split = mc.f_eval(mc.ComposeMap((mc.monotone_power(BOOLE, 2),
                                         mc.monotone_power(BOOLE, 3))), zs)
        assert np.abs(five - split).max() < 1e-12

    def test_associativity_randomized(self):
        rng = np.random.default_rng(1)
        zs = random_upper(rng, 10)
        for _ in range(5):
            a, b, c = (random_atomic(rng) for _ in range(3))
            left = mc.ComposeMap((mc.monotone_convolve(a, b), mc.MeasureMap(c)))
            right = mc.ComposeMap((mc.MeasureMap(a), mc.monotone_convolve(b, c)))
            assert np.abs(mc.f_eval(left, zs) - mc.f_eval(right, zs)).max() < 1e-12

    def test_dilation_homomorphism(self):
        rng = np.random.default_rng(2)
        zs = random_upper(rng, 10)
        for _ in range(5):
            a, b = random_atomic(rng), random_atomic(rng)
            lam = rng.uniform(0.3, 3.0)
            lhs = mc.DilatedMap(mc.monotone_convolve(a, b), lam)
            rhs = mc.monotone_convolve(mc.dilate(a, lam), mc.dilate(b, lam))
            assert np.abs(mc.f_eval(lhs, zs) - mc.f_eval(rhs, zs)).max() < 1e-12


class TestScaledPower:
    def test_rescaled_coin_closed_form(self):
        # centered coin on {0,1} scaled by sqrt(n)/2 has one-step map z - 1/(nz)
        m = mc.shift(BERN, -0.5)
        rng = np.random.default_rng(3)
        zs = random_upper(rng, 50)
        for n in (1, 10, 100):
            M = mc.scaled_monotone_power(m, 1, math.sqrt(n) / 2.0)
            closed = zs - 1.0 / (n * zs)
            assert np.abs(mc.f_eval(M, zs) - closed).max() < 1e-12

    def test_trivial_scaling(self):
        M = mc.scaled_monotone_power(BOOLE, 1, 1.0)
        assert abs(mc.f_eval(M, 1j) - 2j) < 1e-14

    def test_limit_toward_arcsine_transform(self):
        M = mc.scaled_monotone_power(BOOLE, 10_000, 100.0)
        assert abs(mc.f_eval(M, 1j) - 1j * math.sqrt(3.0)) < 0.05


class TestClassicalPower:
    def test_coin_square(self):
        p = mc.classical_power(BERN, 2)
        assert np.allclose(p.positions, [0, 1, 2])
        assert np.allclose(p.masses, [0.25, 0.5, 0.25])

    def test_point_mass_power(self):
        p = mc.classical_power(mc.point_mass(0.3), 7)
        assert np.allclose(p.positions, [2.1]) and p.masses[0] == 1.0

    def test_fourth_power_binomial(self):
        p = mc.classical_power(BOOLE, 4)
        assert np.allclose(p.positions, [-4, -2, 0, 2, 4])
        assert np.allclose(p.masses, np.array([1, 4, 6, 4, 1]) / 16.0)

    def test_doubling_matches_repeated(self):
        rng = np.random.default_rng(4)
        m = random_atomic(rng, k=3)
        direct = m
        for _ in range(4):
            direct = mc.classical_convolve(direct, m)
        fast = mc.classical_power(m, 5)
        assert np.allclose(direct.positions, fast.positions)
        assert np.allclose(direct.masses, fast.masses)


class TestFreeConvolve:
    def test_point_masses(self):
        F = mc.free_convolve(mc.point_mass(1.0), mc.point_mass(-3.0))
        z = 0.2 + 0.7j
        assert abs(mc.f_eval(F, z) - (z + 2.0)) < 1e-12

    def test_identity_factor(self):
        F = mc.free_convolve(BOOLE, mc.point_mass(0.0))
        for z in (1j, -1 + 2j):
            assert abs(mc.f_eval(F, z) - mc.f_eval(mc.MeasureMap(BOOLE), z)) < 1e-12

    def test_coin_with_coin_closed_form(self):
        # R-transform oracle: each factor has R(w) = (sqrt(1+4w^2)-1)/(2w),
        # doubling gives K(w) = sqrt(1+4w^2)/w, hence F(z) = sqrt(z^2-4)
        rng = np.random.default_rng(5)
        zs = random_upper(rng, 30)
        F = mc.free_convolve(BOOLE, BOOLE)
        target = mc.sqrt_upper(zs * zs - 4.0)
        assert np.abs(mc.f_eval(F, zs) - target).max() < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        zs = random_upper(rng, 20)
        for _ in range(5):
            a, b = random_atomic(rng, k=3), random_atomic(rng, k=4)
            v1 = mc.f_eval(mc.free_convolve(a, b), zs)
            v2 = mc.f_eval(mc.free_convolve(b, a), zs)
            assert np.abs(v1 - v2).max() < 1e-10

    def test_variance_additivity(self):
        d = mc.free_density(BOOLE, BOOLE, eta=2e-3)
        mom = mc.moments(d)
        assert abs(mom.var - 2.0) < 0.02
        assert abs(mom.mean) < 1e-6

    def test_nonconvergence_raises(self):
        with pytest.raises(NonConvergence):
            mc.subordination_eval(BOOLE, BOOLE, 0.01 + 1e-4j, maxiter=5)

    def test_iteration_budget_on_inversion_line(self):
        z = mc.transforms.default_grid() + 1e-2j
        val, _, iters = mc.subordination_eval(BOOLE, BOOLE, z)
        assert iters <= 200
        assert np.abs(val - mc.sqrt_upper(z * z - 4.0)).max() < 1e-11

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eta", [5e-3, 2.5e-3])
    def test_independent_lattice_pair(self, eta):
        # an independent pair where the undamped map stalls above tol
        # (benchmarks/NOTES.md, known defect 1)
        z = mc.transforms.default_grid(-5.0, 5.0, 5e-4) + 1j * eta
        val, omega, _ = mc.subordination_eval(LATTICE_M, LATTICE_N, z)
        want = averaged_subordination(LATTICE_M, LATTICE_N, z)
        assert np.all(np.abs(omega - want) <= 1e-10 * np.abs(want))
        F_m = mc.f_eval(mc.MeasureMap(LATTICE_M), want)
        assert np.all(np.abs(val - F_m) <= 1e-10 * np.abs(F_m))


LATTICE_M = mc.AtomicMeasure([1.0, 2.0], [0.7056671390355612, 0.2943328609644388])
LATTICE_N = mc.AtomicMeasure([-2.0, -1.0, 0.0, 1.0, 2.0],
                             [0.11300140301058002, 0.2905287776786913, 0.12264935226443599,
                              0.44042775618677543, 0.03339271085951729])


def averaged_subordination(m, n, z, tol=1e-13, maxiter=20_000):
    """Reference: ``w <- (w + phi(w))/2`` per point from ``w = z``, answering
    ``phi(w)`` once ``|phi(w) - w| < tol (1 + |phi(w)|)``."""
    F_m, F_n = mc.MeasureMap(m), mc.MeasureMap(n)
    out = np.full_like(z, np.nan)
    live, w = np.arange(len(z)), z.copy()
    for _ in range(maxiter):
        u = z[live] + mc.f_eval(F_m, w) - w
        phi = z[live] + mc.f_eval(F_n, u) - u
        done = np.abs(phi - w) < tol * (1.0 + np.abs(phi))
        out[live[done]] = phi[done]
        live, w = live[~done], (0.5 * (w + phi))[~done]
        if not len(live):
            return out
    raise AssertionError("the averaged map did not converge")
