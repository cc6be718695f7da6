"""Tests for monotone/classical/free convolution engines."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import monoclt as mc
from monoclt import convolve as cv, measures as ms
from monoclt.errors import CapacityExceeded, NonConvergence

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


@pytest.fixture
def pair_calls(monkeypatch):
    """Records each call of the pair path, ``measures.classical_convolve``."""
    calls = []
    real = ms.classical_convolve

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ms, "classical_convolve", counted)
    return calls


def pair_power(monkeypatch, m, n, **kwargs):
    """`classical_power` with every law on the pair path."""
    with monkeypatch.context() as mp:
        mp.setattr(cv, "_lattice", lambda *args: None)
        return mc.classical_power(m, n, **kwargs)


class TestLatticePower:
    @pytest.mark.parametrize("n", [1, 2, 7, 1024])
    def test_binomial(self, n, pair_calls):
        k = np.arange(n + 1)
        pmf = stats.binom.pmf(k, n, 0.5)
        for law, positions in ((BERN, k), (BOOLE, 2 * k - n)):
            p = mc.classical_power(law, n)
            assert np.array_equal(p.positions, positions)
            assert np.abs(p.masses - pmf).max() < 1e-15
        assert not pair_calls

    def test_half_spacing_with_offset_and_gap(self, pair_calls, monkeypatch):
        m = mc.AtomicMeasure([-0.75, -0.25, 0.75], [0.2, 0.5, 0.3])   # -0.75 + 0.5*{0, 1, 3}
        p = mc.classical_power(m, 9)
        assert not pair_calls
        ref = pair_power(monkeypatch, m, 9)
        reachable = np.delete(np.arange(28), 26)        # 26 is no sum of nine of {0, 1, 3}
        assert np.array_equal(p.positions, 9 * -0.75 + 0.5 * reachable)
        assert len(ref) == len(p)
        assert np.abs(p.masses - ref.masses).max() <= 1e-15 * ref.masses.max()

    def test_finite_measure_and_pruned_mass_pass_through(self, pair_calls, monkeypatch):
        m = mc.AtomicMeasure([-1.0, 2.0], [0.25, 0.5], is_probability=False,
                             pruned_mass=1e-3)
        p = mc.classical_power(m, 5)
        assert not pair_calls
        ref = pair_power(monkeypatch, m, 5)
        assert not p.is_probability
        assert p.pruned_mass == ref.pruned_mass == pytest.approx(5e-3, rel=1e-15)
        assert np.array_equal(p.positions, ref.positions)
        assert np.abs(p.masses - ref.masses).max() <= 1e-15 * ref.masses.max()

    def test_prunes_at_the_cap(self, pair_calls, monkeypatch):
        # the cube forms 5 x 9 mass products, within 4 per atom of the cap
        # 12, and has 13 atoms: pruning the two below 1e-15 leaves 11
        m = mc.AtomicMeasure(np.arange(5.0), [1e-6, 0.3, 0.4, 0.3 - 2e-6, 1e-6])
        p = mc.classical_power(m, 3, cap=12)
        assert not pair_calls
        ref = pair_power(monkeypatch, m, 3, cap=12)
        assert np.array_equal(p.positions, np.arange(1.0, 12.0))
        assert p.pruned_mass == pytest.approx(ref.pruned_mass, rel=1e-12)
        assert p.pruned_mass == pytest.approx(2e-18, rel=1e-12)
        assert abs(p.total_mass - 1.0) < 1e-15
        assert np.abs(p.masses - ref.masses).max() <= 1e-15 * ref.masses.max()
        heavier = mc.AtomicMeasure(np.arange(5.0), [1e-4, 0.3, 0.4, 0.3 - 2e-4, 1e-4])
        with pytest.raises(CapacityExceeded, match="after pruning"):
            mc.classical_power(heavier, 3, cap=12)

    def test_sparse_lattice_forms_pairs(self, pair_calls):
        # on Z, but its mass vectors would be 64e6 long for 2145 atoms
        m = mc.AtomicMeasure([0.0, 1.0, 1e6], [0.3, 0.3, 0.4])
        t0 = time.perf_counter()
        p = mc.classical_power(m, 64)
        assert time.perf_counter() - t0 < 2.0
        assert pair_calls
        assert len(p) == math.comb(66, 2)

    def test_sparse_lattice_with_small_gaps_forms_pairs(self, pair_calls, monkeypatch):
        # on Z, with 17 masses per atom in its own vector; the last step
        # forms 45 x 45 atom pairs, within 4 per atom of the cap 600, but
        # its vectors would make 401 x 401 products
        m = mc.AtomicMeasure([0.0, 1.0, 50.0], [0.3, 0.3, 0.4])
        p = mc.classical_power(m, 16, cap=600)
        assert pair_calls
        ref = pair_power(monkeypatch, m, 16, cap=600)
        assert np.array_equal(p.positions, ref.positions)
        assert np.array_equal(p.masses, ref.masses)
        # forced onto vectors, it refuses no more than the pairs do
        monkeypatch.setattr(cv, "_lattice", lambda *args: (0.0, 1.0, np.array([0, 1, 50])))
        forced = mc.classical_power(m, 16, cap=600)
        assert len(forced) == len(ref) == 153
        assert np.abs(forced.positions - ref.positions).max() < 1e-12
        assert np.abs(forced.masses - ref.masses).max() <= 1e-15 * ref.masses.max()

    def test_refuses_only_where_pairs_do(self, pair_calls, monkeypatch):
        # {0, 1, 11}^2 has 6 atoms on a vector of 23 masses: the last step
        # forms 36 atom pairs, within 4 per atom of the cap 15, but its
        # vectors would make 529 products
        m = mc.AtomicMeasure([0.0, 1.0, 11.0], [0.25, 0.25, 0.5])
        p = mc.classical_power(m, 4, cap=15)
        assert not pair_calls
        ref = pair_power(monkeypatch, m, 4, cap=15)
        assert len(p) == len(ref) == 15
        assert np.abs(p.positions - ref.positions).max() < 1e-12
        assert np.abs(p.masses - ref.masses).max() <= 1e-15 * ref.masses.max()
        with pytest.raises(CapacityExceeded, match="per atom of the cap"):
            mc.classical_power(m, 4, cap=8)
        with pytest.raises(CapacityExceeded, match="per atom of the cap"):
            pair_power(monkeypatch, m, 4, cap=8)

    def test_huge_power_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityExceeded, match="per atom of the cap"):
                mc.classical_power(BERN, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20      # the refused product alone is 8e6 masses, 64 MB

    def test_agrees_with_pairs(self, pair_calls, monkeypatch):
        rng = np.random.default_rng(17)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            pos = np.sort(rng.choice(np.arange(-4, 5), size=k, replace=False)).astype(float)
            w = rng.uniform(0.05, 1.0, k)
            m = mc.AtomicMeasure(pos, w / w.sum())
            n = int(rng.integers(2, 64))        # no subnormal masses: pairs stay in order
            p = mc.classical_power(m, n)
            assert not pair_calls
            ref = pair_power(monkeypatch, m, n)
            pair_calls.clear()
            assert np.array_equal(p.positions, np.rint(p.positions))
            assert len(p) == len(ref)
            assert np.abs(p.positions - ref.positions).max() < 1e-12
            # both sum the same products in another order: 2.1e-15 at most
            # over 300 such laws
            assert np.abs(p.masses - ref.masses).max() <= 4e-15 * ref.masses.max()


class TestFreeConvolve:
    def test_point_masses(self):
        F = mc.free_convolve(mc.point_mass(1.0), mc.point_mass(-3.0))
        z = 0.2 + 0.7j
        assert abs(mc.f_eval(F, z) - (z + 2.0)) < 1e-12

    def test_identity_factor(self):
        F = mc.free_convolve(BOOLE, mc.point_mass(0.0))
        for z in (1j, -1 + 2j):
            assert abs(mc.f_eval(F, z) - mc.f_eval(mc.MeasureMap(BOOLE), z)) < 1e-12

    def test_json_point_mass_shifts_exactly(self):
        # h of the one-atom law is the constant -c, so the fixed point is
        # z - c bit for bit
        rng = np.random.default_rng(22)
        m = random_atomic(rng, k=4)
        for c in rng.uniform(-10.0, 10.0, 5).tolist():
            point = mc.measure_from_json({"type": "ref", "law": "point", "c": c})
            zs = random_upper(rng, 40)
            got = mc.f_eval(mc.free_convolve(m, point), zs)
            assert got.tobytes() == mc.f_eval(mc.MeasureMap(m), zs - c).tobytes()

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

    @pytest.mark.parametrize("grid", [[0.0], []])
    def test_density_grid_needs_two_points(self, grid):
        with pytest.raises(ValueError, match="at least two points"):
            mc.free_density(BOOLE, BOOLE, grid=np.array(grid))

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

    @pytest.mark.parametrize("pos, mass", [
        ([-2.0, 0.0, 1.0, 2.0],
         [0.22053550233651437, 0.3294405197719883, 0.3444206437063717, 0.10560333418512562]),
        ([-2.0, -1.0, 0.0, 2.0],
         [0.48853491694725293, 0.20798180075223127, 0.12100651759919623, 0.18247676470131957]),
    ])
    def test_secant_cycle_converges(self, pos, mass):
        # m boxplus m for two laws of the density_scan benchmark's stream:
        # started at w = z with Im z = 1e-2, the secant cycles between two
        # points near x = -1.006 (the first law) unless it gives way to the
        # averaged map; the default start above the axis avoids the cycle
        m = mc.AtomicMeasure(pos, mass)
        x = mc.transforms.default_grid(-5.0, 5.0, 5e-4)
        z = x + 1e-2j
        _, omega_z, iters = mc.subordination_eval(m, m, z, start=z)
        assert 50 < iters <= 300
        _, omega, iters = mc.subordination_eval(m, m, z)
        assert iters <= 20
        assert np.all(np.abs(omega - omega_z) <= 1e-10 * np.abs(omega_z))
        d = mc.free_density(m, m, grid=x, eta=5e-3)
        assert np.all(np.isfinite(d.values)) and abs(d.total_mass - 1.0) < 1e-2

    @pytest.mark.parametrize("b", [1e-3, 1.0, 1e3, 1e6])
    def test_default_start_is_scale_invariant(self, b):
        # the cycling law above, dilated: the start's height dilates with it
        m = mc.AtomicMeasure(b * np.array([-2.0, 0.0, 1.0, 2.0]),
                             [0.22053550233651437, 0.3294405197719883,
                              0.3444206437063717, 0.10560333418512562])
        z = b * (mc.transforms.default_grid(-5.0, 5.0, 5e-4) + 1e-2j)
        val, _, iters = mc.subordination_eval(m, m, z)
        assert iters <= 20
        assert np.all(np.isfinite(val) & (val.imag >= z.imag))

    def test_infinite_variance_start(self):
        # power_tail(2.5) has no variance: the start falls back to z + i
        m = mc.power_tail(2.5)
        assert mc.convolve._start_scale(m, BOOLE) == 1.0
        z = np.array([-3.0 + 0.1j, -1.0 + 1e-2j, 0.5 + 0.5j, 2.0 + 1e-2j, 40.0 + 1j])
        val, _, _ = mc.subordination_eval(m, BOOLE, z)
        assert np.all(np.isfinite(val) & (val.imag >= z.imag))

    def test_start_below_axis_takes_default(self):
        z = np.array([-1.5 + 1e-2j, 0.3 + 1e-2j, 2.0 + 0.5j])
        # one standard deviation of BERN boxplus BOOLE above z
        want = mc.subordination_eval(BERN, BOOLE, z, start=z + 1j * math.sqrt(0.25 + 1.0))
        for start in (None, np.array([-1.5 - 1j, 0.3 + 0.0j, 2.0 - 1e-9j])):
            got = mc.subordination_eval(BERN, BOOLE, z, start=start)
            assert np.array_equal(got[0], want[0]) and got[2] == want[2]

    @pytest.mark.parametrize("richardson", [True, False])
    def test_density_solves_cold_once_at_the_largest_eta(self, richardson, monkeypatch):
        # no ladder of larger etas: cold at eta, then eta/2 from its omega
        solves = []
        solve = cv.subordination_eval

        def recorded(m, n, z, **kwargs):
            got = solve(m, n, z, **kwargs)
            solves.append((float(z.imag[0]), kwargs["start"], got[1]))
            return got

        monkeypatch.setattr(cv, "subordination_eval", recorded)
        mc.free_density(BOOLE, BERN, grid=mc.transforms.default_grid(-3.0, 3.0, 1e-2),
                        eta=1e-4, richardson=richardson)
        assert [s[0] for s in solves] == ([1e-4, 5e-5] if richardson else [1e-4])
        assert solves[0][1] is None
        if richardson:
            assert solves[1][1] is solves[0][2]

    @pytest.mark.parametrize("eta", [1e-3, 1e-4])
    def test_independent_pairs_converge_cold(self, eta):
        # a cold solve at small eta: the pairs whose solves once ran for
        # 1478-8381 phi calls with the averaged step after the secant window
        x = mc.transforms.default_grid(-5.0, 5.0, 5e-4)
        z = x + 1j * eta
        for m, n in lattice_pairs(np.random.default_rng(123), 10):
            _, omega, iters = mc.subordination_eval(m, n, z)
            assert iters <= 1000
            # the same fixed point, continued in eta from 1e-2 by halving;
            # relative to 1 + |omega|, the scale of the solver's stopping
            # test (omega ~ 2e-4 occurs, where that test alone allows 5e-10
            # of |omega|)
            w, e = None, 1e-2
            while e > eta:
                _, w, _ = mc.subordination_eval(m, n, x + 1j * e, start=w)
                e /= 2
            _, chained, _ = mc.subordination_eval(m, n, z, start=w)
            assert np.all(np.abs(omega - chained) <= 1e-10 * (1.0 + np.abs(chained)))


def lattice_pairs(rng, count):
    """`count` independent pairs of 2-5-atom laws on distinct integers of
    {-2..2}, with masses 0.1 plus Dirichlet(1) shares of the rest (the
    `density_scan` benchmark's laws)."""
    def law(k):
        pos = np.sort(rng.choice(np.arange(-2, 3), size=k, replace=False)).astype(float)
        return mc.AtomicMeasure(pos, 0.1 + (1.0 - k * 0.1) * rng.dirichlet(np.ones(k)))

    return [(law(int(rng.integers(2, 6))), law(int(rng.integers(2, 6)))) for _ in range(count)]


LATTICE_M = mc.AtomicMeasure([1.0, 2.0], [0.7056671390355612, 0.2943328609644388])
LATTICE_N = mc.AtomicMeasure([-2.0, -1.0, 0.0, 1.0, 2.0],
                             [0.11300140301058002, 0.2905287776786913, 0.12264935226443599,
                              0.44042775618677543, 0.03339271085951729])


def plain_h(m):
    """``h(w) = F(w) - w = c + sum_j w_j/(t_j - w)`` on the extracted partial
    fractions, as one plain broadcast: no ``F(w) - w`` to cancel at large ``|w|``."""
    c, t, wts = mc.transforms._partial_fractions(mc.nevanlinna_extract(m))
    return lambda w: c + (wts / (t - w[:, None])).sum(axis=-1)


def averaged_subordination(m, n, z, tol=1e-13, maxiter=20_000):
    """Reference: ``w <- (w + phi(w))/2`` per point from ``w = z``, answering
    ``phi(w)`` once ``|phi(w) - w| < tol (1 + |phi(w)|)``."""
    h_m, h_n = plain_h(m), plain_h(n)
    out = np.full_like(z, np.nan)
    live, w = np.arange(len(z)), z.copy()
    for _ in range(maxiter):
        u = z[live] + h_m(w)
        phi = z[live] + h_n(u)
        done = np.abs(phi - w) < tol * (1.0 + np.abs(phi))
        out[live[done]] = phi[done]
        live, w = live[~done], (0.5 * (w + phi))[~done]
        if not len(live):
            return out
    raise AssertionError("the averaged map did not converge")
