"""Tests for boundary maps, preservation, conservativity, and orbits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import monoclt as mc
from monoclt import clt, ergodic as eg, transforms as tf
from monoclt.errors import DomainError, NonConvergence, NumericBreakdown, PoleProximity

from test_measures import BOOLE, random_atomic


def random_rep(rng, k=3):
    pos = np.sort(rng.uniform(-4, 4, k))
    while np.any(np.diff(pos) < 0.2):
        pos = np.sort(rng.uniform(-4, 4, k))
    w = rng.uniform(0.1, 1.0, k)
    return mc.NevanlinnaRep(rng.normal(), mc.AtomicMeasure(pos, w, is_probability=False))


def T_at(T, x):
    """``T(x)`` on the library's own pole-map step, the oracle of these tests."""
    xa = np.asarray(x, dtype=float)
    out = tf._pole_map(T.c, T.pole_positions, T.pole_weights, float)(xa.ravel()).reshape(xa.shape)
    return out if out.ndim else float(out)


class TestBoundaryMap:
    def test_origin_atom_gives_reciprocal_map(self):
        rep = mc.NevanlinnaRep(0.0, mc.atomic([(0.0, 1.0)], is_probability=False))
        T = eg.boundary_map(rep)
        assert T.c == 0.0
        assert np.allclose(T.pole_positions, [0.0]) and np.allclose(T.pole_weights, [1.0])
        assert T_at(T, 2.0) == 2.0 - 0.5

    def test_scaled_weight(self):
        r = 0.4
        rep = mc.NevanlinnaRep(0.0, mc.atomic([(0.0, r)], is_probability=False))
        T = eg.boundary_map(rep)
        assert T_at(T, 2.0) == 2.0 - r / 2.0

    def test_shifted_atom_partial_fractions(self):
        rep = mc.NevanlinnaRep(0.0, mc.atomic([(1.0, 1.0)], is_probability=False))
        T = eg.boundary_map(rep)
        assert abs(T.c - (-1.0)) < 1e-15
        assert np.allclose(T.pole_weights, [2.0])
        assert abs(T_at(T, 0.0) - 1.0) < 1e-15
        assert abs(eg.eval_dT(T, 0.0) - 3.0) < 1e-15

    def test_empty_sigma_translation(self):
        T = eg.boundary_map(mc.NevanlinnaRep(1.5, None))
        assert T.n_poles == 0
        assert T_at(T, 2.0) == 3.5
        assert eg.eval_dT(T, 2.0) == 1.0

    def test_matches_transform_near_axis(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rep = random_rep(rng)
            T = eg.boundary_map(rep)
            F = mc.nevanlinna_synthesize(rep)
            xs = rng.uniform(-8, 8, 100)
            keep = eg._pole_distance(T, xs) > 1e-3
            xs = xs[keep]
            vals = mc.f_eval(F, xs + 1e-8j)
            assert np.abs(T_at(T, xs) - vals.real).max() <= 1e-6 * (1 + np.abs(xs)).max()
            # the imaginary part scales like eta * T'(x): tiny off the poles
            dT = eg.eval_dT(T, xs)
            assert np.all(vals.imag <= 1e-8 * dT * (1 + 1e-6))
            assert np.all(vals.imag[dT <= 2.0] <= 2e-8)

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(1)
        T = eg.boundary_map(random_rep(rng))
        back = eg.RationalBooleMap.from_json(T.to_json())
        assert back.c == T.c
        assert np.allclose(back.pole_positions, T.pole_positions)
        assert np.allclose(back.pole_weights, T.pole_weights)


class TestEval:
    def test_classic_values(self):
        T = eg.boole_map()
        assert T_at(T, 1.0) == 0.0 and eg.eval_dT(T, 1.0) == 2.0
        assert T_at(T, -1.0) == 0.0 and eg.eval_dT(T, -1.0) == 2.0

    def test_pole_proximity(self):
        T = eg.boole_map()
        for x in (1e-14, 0.0):
            with pytest.raises(PoleProximity):
                eg.eval_dT(T, x)

    def test_derivative_above_one(self):
        rng = np.random.default_rng(2)
        T = eg.boundary_map(random_rep(rng, k=5))
        xs = rng.uniform(-10, 10, 200)
        xs = xs[eg._pole_distance(T, xs) > 1e-6]
        assert np.all(eg.eval_dT(T, xs) > 1.0)


class TestPreimages:
    def test_boole_at_zero(self):
        assert np.allclose(eg.preimages(eg.boole_map(), 0.0), [-1.0, 1.0])

    def test_boole_at_three_halves(self):
        # x - 1/x = 3/2  <=>  x^2 - (3/2)x - 1 = 0  <=>  x in {2, -1/2}
        assert np.allclose(eg.preimages(eg.boole_map(), 1.5), [-0.5, 2.0])

    def test_branch_count_and_residuals(self):
        rng = np.random.default_rng(3)
        T = eg.boundary_map(random_rep(rng, k=4))
        for y in rng.normal(0, 10, 20):
            xs = eg.preimages(T, float(y))
            assert len(xs) == 5
            assert np.abs(T_at(T, xs) - y).max() < 1e-10 * (1 + abs(y))

    def test_translation_single_branch(self):
        T = eg.boundary_map(mc.NevanlinnaRep(2.0, None))
        assert np.allclose(eg.preimages(T, 5.0), [3.0])


def scalar_preimages(T, y):
    """A scalar bisection on real midpoints from searched brackets, one
    branch and one pole sum at a time: the reference for the solver's bytes.
    It runs until the midpoint equals an end, so it ends on the same two
    adjacent floats as the bisection over the float lattice."""
    if T.n_poles == 0:
        return np.array([y - T.c])
    t = T.pole_positions

    def g(x):
        return x + T.c + (T.pole_weights / (t - x)).sum() - y

    def bisect(lo, hi):
        glo = g(lo)
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            gm = g(mid)
            if (gm > 0) == (glo > 0):
                lo, glo = mid, gm
            else:
                hi = mid
        return 0.5 * (lo + hi)

    roots = np.empty(T.n_poles + 1)
    lo = t[0] - 1.0 - abs(y - T.c)
    while g(lo) >= 0:
        lo = t[0] - 2.0 * (t[0] - lo)
    eps = 0.5
    while g(t[0] - eps) <= 0:
        eps *= 0.5
    roots[0] = bisect(lo, t[0] - eps)
    for i in range(T.n_poles - 1):
        gap = t[i + 1] - t[i]
        eps = 0.25 * gap
        while g(t[i] + eps) >= 0:
            eps *= 0.5
        lo = t[i] + eps
        eps = 0.25 * gap
        while g(t[i + 1] - eps) <= 0:
            eps *= 0.5
        roots[i + 1] = bisect(lo, t[i + 1] - eps)
    hi = t[-1] + 1.0 + abs(y - T.c)
    while g(hi) <= 0:
        hi = t[-1] + 2.0 * (hi - t[-1])
    eps = 0.5
    while g(t[-1] + eps) >= 0:
        eps *= 0.5
    roots[-1] = bisect(t[-1] + eps, hi)
    return roots


def scalar_preservation_check(T, ys):
    worst = 0.0
    for y in np.atleast_1d(np.asarray(ys, dtype=float)):
        xs = scalar_preimages(T, float(y))
        dT = 1.0 + (T.pole_weights / (T.pole_positions - xs[:, None]) ** 2).sum(axis=-1)
        worst = max(worst, abs(float((1.0 / dT).sum()) - 1.0))
    return worst


class TestBatchedPreimages:
    """The batched solver against the scalar bisection, bytes for bytes."""

    MAPS = {
        "0 poles": eg.RationalBooleMap(0.7, np.empty(0), np.empty(0)),
        "1 pole": eg.boole_map(),
        # T(0) = 0 exactly: g hits 0 on a midpoint
        "1 pole, root at 0": eg.RationalBooleMap(-1.0, np.array([1.0]), np.array([1.0])),
        # g(x) = x exactly near the root 0 of y = c = 0, down to the
        # subnormals: the real-midpoint bisection takes over 1000 steps
        "2 poles, 200 steps": eg.RationalBooleMap(0.0, np.array([-1.0, 1.0]),
                                                  np.array([1.0, 1.0])),
        "3 poles": eg.boundary_map(random_rep(np.random.default_rng(60), k=3)),
        "100 poles": eg.lattice_tail_lab(50).T,
    }

    @staticmethod
    def targets(T):
        t = T.pole_positions
        poles = [float(t[0]), float(t[len(t) // 2])] if len(t) else []
        rand = np.random.default_rng(61).normal(0.0, 5.0, 4).tolist()
        return [T.c, 0.0, 1e6, -1e6, -1e-300] + poles + rand

    @pytest.mark.parametrize("name", list(MAPS))
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_bytes_equal(self, name, rows, monkeypatch):
        T = self.MAPS[name]
        if rows is not None:
            monkeypatch.setattr(tf, "_CHUNK", rows * max(T.n_poles, 1))
        ys = self.targets(T)
        want = np.array([scalar_preimages(T, y) for y in ys])
        roots, dT = eg._solve_preimages(T, ys)
        assert roots.tobytes() == want.tobytes()
        for y, row in zip(ys, want):
            assert eg.preimages(T, y).tobytes() == row.tobytes()
        plain_dT = 1.0 + (T.pole_weights / (T.pole_positions - want[..., None]) ** 2).sum(axis=-1)
        assert dT.tobytes() == plain_dT.tobytes()
        assert eg.preservation_check(T, ys) == scalar_preservation_check(T, ys)

    def test_preservation_random_points(self):
        rng = np.random.default_rng(62)
        for T in self.MAPS.values():
            ys = rng.normal(0.0, 5.0, 30)
            assert eg.preservation_check(T, ys) == scalar_preservation_check(T, ys)
        assert eg.preservation_check(eg.boole_map(), []) == 0.0

    def test_bisection_steps_bounded(self, monkeypatch):
        # one pole-map call per bisection step plus one for the residuals;
        # a solve that does not end fails at call 200 instead of hanging
        calls = []
        pole_map = tf._pole_map

        def counted_pole_map(*args):
            step = pole_map(*args)

            def counted(x):
                calls.append(len(x))
                if len(calls) > 200:
                    raise AssertionError("the preimage bisection does not end")
                return step(x)
            return counted

        monkeypatch.setattr(tf, "_pole_map", counted_pole_map)
        for T in self.MAPS.values():
            calls.clear()
            with np.errstate(divide="raise"):       # no probe lands on a pole
                eg._solve_preimages(T, self.targets(T))
            assert len(calls) <= 64 + 1
        # g(x) = x - y near 0: roots to the last ulp, where 200 real-midpoint
        # steps stopped 3e-61 away
        roots = eg._solve_preimages(self.MAPS["2 poles, 200 steps"], [0.0, -1e-300])[0][:, 1]
        assert roots[0] == 0.0 and abs(roots[1] + 1e-300) <= np.spacing(1e-300)
        calls.clear()
        with np.errstate(divide="raise"), pytest.raises(PoleProximity):
            eg.preimages(self.MAPS["100 poles"], -1e15)
        assert len(calls) <= 64

    @pytest.mark.parametrize("y", [-1e15, 1e15, -1e300, 1e300, -1.7976931348623157e308])
    def test_huge_targets_certified_or_typed(self, y):
        # inner roots of a huge |y| sit within POLE_TOL of a pole, and
        # near the float range the outer roots overflow
        T = eg.lattice_tail_lab(50).T
        try:
            with np.errstate(over="ignore"):
                xs = eg.preimages(T, y)
        except (PoleProximity, NumericBreakdown):
            return
        edges = np.concatenate(([-np.inf], T.pole_positions, [np.inf]))
        assert np.all((edges[:-1] < xs) & (xs < edges[1:]))
        dT = eg.eval_dT(T, xs)
        bound = 1e-10 * (1.0 + abs(y)) + 8.0 * np.finfo(float).eps * (1.0 + np.abs(xs)) * dT
        assert np.all(np.abs(T_at(T, xs) - y) <= bound)

    def test_root_near_float_max(self):
        # both ends of the right branch's last bracket exceed 9e307, where
        # 0.5 (lo + hi) overflows; the roots of x - 1e308/x = 1e308 are -1 and
        # 1e308 to within rounding
        T = eg.RationalBooleMap(0.0, np.array([0.0]), np.array([1e308]))
        with np.errstate(over="ignore"):
            xs = eg.preimages(T, 1e308)
        assert np.isfinite(xs).all()
        assert abs(xs[0] + 1.0) <= 1e-15 and abs(xs[1] / 1e308 - 1.0) <= 1e-15

    def test_residual_failure_is_typed(self, monkeypatch):
        # a residual tolerance below 0 fails every root
        monkeypatch.setattr(eg, "eval_dT", lambda T, x: np.full(np.shape(x), -1e300))
        with pytest.raises(NonConvergence, match="preimage residual"):
            eg.preimages(eg.boole_map(), 0.5)
        with pytest.raises(NonConvergence):
            eg.preservation_check(eg.lattice_tail_lab(10).T, [0.5, 1.0])
        # a NaN bound certifies nothing, though "residual > NaN" is false
        monkeypatch.setattr(eg, "eval_dT", lambda T, x: np.full(np.shape(x), np.nan))
        with pytest.raises(NonConvergence, match="exceeds nan"):
            eg.preimages(eg.boole_map(), 0.5)


@st.composite
def boole_maps(draw):
    k = draw(st.integers(0, 6))
    start = draw(st.floats(-10.0, 10.0))
    gaps = draw(st.lists(st.floats(0.05, 5.0), min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(1e-3, 10.0), min_size=k, max_size=k))
    c = draw(st.floats(-10.0, 10.0))
    return eg.RationalBooleMap(c, start + np.cumsum(gaps), np.array(weights))


class TestPreimageProperties:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(T=boole_maps(), y=st.floats(-1e3, 1e3))
    def test_one_root_per_branch(self, T, y):
        xs = eg.preimages(T, y)
        assert len(xs) == T.n_poles + 1
        edges = np.concatenate(([-np.inf], T.pole_positions, [np.inf]))
        assert np.all((edges[:-1] < xs) & (xs < edges[1:]))
        dT = eg.eval_dT(T, xs)
        bound = 1e-10 * (1.0 + abs(y)) + 8.0 * np.finfo(float).eps * (1.0 + np.abs(xs)) * dT
        assert np.all(np.abs(T_at(T, xs) - y) <= bound)
        assert abs(float((1.0 / dT).sum()) - 1.0) <= 1e-8


class TestPreservation:
    def test_boole_identity(self):
        assert eg.preservation_check(eg.boole_map(), [0.0, 1.0, -1.0, 10.0, -10.0]) < 1e-10

    def test_random_maps(self):
        rng = np.random.default_rng(4)
        for k in (3, 5):
            T = eg.boundary_map(random_rep(rng, k=k))
            ys = rng.normal(0, 5, 100)
            assert eg.preservation_check(T, ys) < 1e-8

    def test_translation_exact(self):
        T = eg.boundary_map(mc.NevanlinnaRep(0.7, None))
        assert eg.preservation_check(T, [0.0, 3.0]) == 0.0

    def test_lattice_tail_truncated(self):
        lab = eg.lattice_tail_lab(50)
        rng = np.random.default_rng(5)
        assert eg.preservation_check(lab.T, rng.normal(0, 3, 20)) < 1e-8


class TestAaronsonSums:
    def test_first_term(self):
        s = eg.aaronson_sums(BOOLE, 10)
        assert s.terms[0] == 0.5

    def test_terms_positive_sums_monotone(self):
        rng = np.random.default_rng(6)
        m = random_atomic(rng, k=4)
        s = eg.aaronson_sums(m, 500)
        assert np.all(s.terms > 0)
        assert np.all(np.diff(s.partial_sums) > 0)

    def test_sqrt_decay_constant(self):
        s = eg.aaronson_sums(BOOLE, 10_000)
        n = 10_000
        assert abs(s.terms[n - 1] * math.sqrt(2.0 * n) - 1.0) < 0.1

    def test_degenerate_closed_form(self):
        c = 1.0
        s = eg.aaronson_sums(mc.point_mass(c), 1000)
        ns = np.arange(1, 1001)
        oracle = 1.0 / (1.0 + ns**2 * c**2)
        assert np.abs(s.terms - oracle).max() < 1e-12

    def test_point_mass_terms_exact(self):
        # F(z) = z - 1 steps exactly, so only 1/(i - n) rounds
        s = eg.aaronson_sums(mc.point_mass(1.0), 100_000)
        oracle = 1.0 / (1.0 + np.arange(1, 100_001, dtype=float) ** 2)
        assert np.max(np.abs(s.terms - oracle) / oracle) < 1e-14

    def test_terms_follow_the_map(self):
        """Each term is Im(-1/F^(n)(z)) with F^(n) the evaluator's, for laws
        on both sides of the scalar-orbit pole cut, and for map nodes."""
        rng = np.random.default_rng(0)
        laws = []
        for _ in range(6):
            k = int(rng.integers(2, 9))
            pos, mass = rng.normal(0.0, 2.0, k), rng.uniform(0.05, 1.0, k)
            laws.append(mc.atomic(list(zip(pos, mass / mass.sum()))))
        many = mc.AtomicMeasure(np.linspace(-1.0, 1.0, 65), np.full(65, 1.0 / 65))
        assert len(tf._map_form(laws[0])[1]) < tf._ORBIT_SCALAR_POLES
        assert len(tf._map_form(many)[1]) == tf._ORBIT_SCALAR_POLES
        for m in laws + [many, eg.lattice_tail_lab(10).map]:
            F = m if isinstance(m, tf.SelfMap) else tf.MeasureMap(m)
            s = eg.aaronson_sums(m, 2000)
            w, ref = 1j, np.empty(2000)
            for n in range(2000):           # n f_eval calls are an IterateMap, bit for bit
                w = tf.f_eval(F, w)
                ref[n] = (-1.0 / w).imag
            assert np.max(np.abs(s.terms - ref) / ref) < 1e-13
        ns = [1, 7, 300]
        want = [(-1.0 / tf.f_eval(tf.IterateMap(tf.MeasureMap(laws[1]), n), 1j)).imag for n in ns]
        assert np.allclose(eg.aaronson_sums(laws[1], 300).terms[np.subtract(ns, 1)], want,
                           rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("z", [1.0 + 0.0j, 2.0 - 1e-3j])
    def test_start_off_the_half_plane(self, z):
        with pytest.raises(DomainError, match="Im z > 0"):
            eg.aaronson_sums(BOOLE, 10, z=z)

    def test_terms_track_reciprocal_norming(self):
        # the n-th term behaves like a constant over B_n for finite variance
        s = eg.aaronson_sums(BOOLE, 10_000)
        B = clt.norming_constants(BOOLE, ns=np.arange(1, 10_001))
        prod = s.terms[99:] * B.values[99:]
        assert 0.1 < prod.min() and prod.max() < 10.0

    def test_z_choice_does_not_change_character(self):
        for z in (1j, 1 + 1j, 2j):
            s = eg.aaronson_sums(BOOLE, 4000, z=z)
            # sqrt growth: the sum doubles roughly like sqrt(4) between N and 4N
            ratio = s.partial_sums[3999] / s.partial_sums[999]
            assert 1.7 < ratio < 2.3

    def test_transform_defined_measure_accepted(self, monkeypatch):
        # a Nevanlinna map steps on its bare formula, and one half-plane
        # check after the loop covers all N + 1 iterates, as in an iteration
        calls = []
        inner = tf._check_upper_out
        monkeypatch.setattr(tf, "_check_upper_out",
                            lambda w, what: (calls.append((what, len(w))), inner(w, what))[1])
        lab = eg.lattice_tail_lab(100)
        s = eg.aaronson_sums(lab.map, 50)
        assert np.all(s.terms > 0)
        assert calls == [("orbit", 51)]

    @pytest.mark.parametrize("z", [complex(0.0, math.nan), complex(math.nan, 1.0),
                                   complex(0.0, math.inf), complex(math.inf, 1.0)])
    def test_non_finite_start(self, z):
        for m in (BOOLE, eg.lattice_tail_lab(10).map):
            with pytest.raises(DomainError):
                eg.aaronson_sums(m, 10, z=z)

    def test_underflowing_terms_are_typed(self):
        # from 1e308 + 1j the first term Im(-1/w) is below the subnormals
        many = mc.AtomicMeasure(np.linspace(-1.0, 1.0, 65), np.full(65, 1.0 / 65))
        for m in (BOOLE, many):                 # the scalar and the numpy branch
            with pytest.raises(DomainError, match=r"start z = \(1e\+308\+1j\): term 1 underflows"):
                eg.aaronson_sums(m, 5, z=1e308 + 1j)
        assert np.all(eg.aaronson_sums(BOOLE, 5, z=1e155 + 1j).terms > 0)

    def test_overflowing_orbit_is_typed(self):
        # the first step from 1e-310j above a pole of F overflows to
        # infinity: the scalar branch's pole at 0 and the numpy branch's
        # at one of its poles t_j
        many = mc.AtomicMeasure(np.linspace(-1.0, 1.0, 65), np.full(65, 1.0 / 65))
        t = mc.nevanlinna_extract(many).sigma.positions
        for m, z in ((BOOLE, 1e-310j), (many, complex(t[32], 1e-310))):
            with np.errstate(all="ignore"), pytest.raises(NumericBreakdown):
                eg.aaronson_sums(m, 10, z=z)


class TestConservativity:
    def test_finite_variance_log_verdict(self):
        rep = eg.conservativity_criterion(BOOLE, 50_000)
        assert rep.verdict.startswith("divergent (log)")
        assert rep.fits["log"]["rmse"] < rep.fits["loglog"]["rmse"]
        assert np.all(np.diff(rep.partial_sums) > 0)
        assert abs(rep.fits["log"]["alpha"] - 1.0) < 0.05  # 1/var with var = 1

    def test_lattice_tail_loglog_verdict(self):
        lab = eg.lattice_tail_lab(100, N=200_000)
        rep = eg.conservativity_criterion(lab.sigma, 200_000, B=lab.B)
        assert rep.verdict.startswith("divergent (loglog)")

    def test_dilation_invariance(self):
        rep1 = eg.conservativity_criterion(BOOLE, 10_000)
        rep2 = eg.conservativity_criterion(mc.dilate(BOOLE, 3.0), 10_000)
        assert rep1.verdict == rep2.verdict

    def test_power_tail_route(self):
        rep = eg.conservativity_criterion(mc.power_tail(3.0), 10_000)
        assert rep.norming_provenance == "h-cutoff"
        assert rep.verdict.startswith("divergent")

    @pytest.mark.parametrize("N", [1, 9, 11])
    def test_short_horizon_rejected(self, N):
        # the checkpoints start at n = 10: N < 10 indexed past the partial sums
        with pytest.raises(ValueError, match="checkpoints"):
            eg.conservativity_criterion(BOOLE, N)
        assert len(eg.conservativity_criterion(BOOLE, 12).ns) == 3


class TestOrbits:
    def test_occupation_grows_for_boole(self):
        T = eg.boole_map()
        r1 = eg.occupation_time(T, [0.3], 100_000, (-1.0, 1.0))
        r2 = eg.occupation_time(T, [0.3], 1_000_000, (-1.0, 1.0))
        assert 0 < r1.visits[0] < r2.visits[0]
        assert r1.truncated_at[0] == -1

    def test_translation_bounded_visits(self):
        T = eg.boundary_map(mc.NevanlinnaRep(1.0, None))
        r_short = eg.occupation_time(T, [0.0], 100, (0.0, 1.0))
        r_long = eg.occupation_time(T, [0.0], 10_000, (0.0, 1.0))
        assert r_short.visits[0] == r_long.visits[0] <= 2

    def test_pole_start_flagged(self):
        r = eg.occupation_time(eg.boole_map(), [0.0], 100, (-1.0, 1.0))
        assert r.truncated_at[0] == 0


class TestHopf:
    def test_equal_kernels_ratio_one(self):
        res = eg.hopf_ratio(eg.boole_map(), "cauchy", "cauchy", [0.3, 1.7], 2000,
                            checkpoints=[10, 100, 2000])
        assert np.abs(res.ratios - 1.0).max() < 1e-12
        assert res.target == 1.0

    def test_checkpoints_must_be_positive(self):
        # no Birkhoff sum exists after 0 steps
        with pytest.raises(ValueError):
            eg.hopf_ratio(eg.boole_map(), "cauchy", "gauss", [0.3], 50,
                          checkpoints=[0, 10, 50])
        with pytest.raises(ValueError):
            eg.hopf_ratio(eg.boole_map(), "cauchy", "gauss", [0.3], 0)

    def test_targets(self):
        assert abs(eg.kernel_integral("cauchy") - math.pi) < 1e-15
        assert abs(eg.kernel_integral("gauss") - math.sqrt(math.pi)) < 1e-15
        assert eg.kernel_integral("indicator", 0.0, 1.0) == 1.0

    def test_cauchy_over_gauss_converges_loosely(self):
        rng = np.random.default_rng(7)
        res = eg.hopf_ratio(eg.boole_map(), "cauchy", "gauss",
                            rng.uniform(-2, 2, 4), 1_000_000)
        med = np.median(res.ratios[-1])
        assert abs(med - math.sqrt(math.pi)) / math.sqrt(math.pi) < 0.3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_denominator(self):
        # the Gauss kernel is exactly 0 beyond |x| ~ 27: the ratio is undefined;
        # past |x| ~ 1.3e154 x*x overflows, and the kernels stay 0 without a warning
        with pytest.raises(DomainError, match=r"1000000\.0 \(index 1\)"):
            eg.hopf_ratio(eg.boole_map(), "cauchy", "gauss", [0.3, 1e6], 1000)
        with pytest.raises(DomainError):
            eg.hopf_ratio(eg.lattice_tail_lab(10).T, "gauss", "cauchy", [1e200], 10)
        # a positive numerator over it is fine
        res = eg.hopf_ratio(eg.boole_map(), "gauss", "cauchy", [1e6], 1000)
        assert res.ratios.tolist() == [[0.0]]

    @pytest.mark.parametrize("window", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                                        (-math.inf, 1.0)])
    def test_indicator_window_must_be_bounded(self, window):
        # a NaN window gave target nan and ratios 0, an infinite one target 0
        for f, g in ((("indicator", *window), "gauss"), ("cauchy", ("indicator", *window))):
            with pytest.raises(ValueError, match="bounded and nondegenerate"):
                eg.hopf_ratio(eg.boole_map(), f, g, [0.3], 100)

    def test_indicator_over_cauchy(self):
        rng = np.random.default_rng(8)
        res = eg.hopf_ratio(eg.boole_map(), ("indicator", 0.0, 1.0), "cauchy",
                            rng.uniform(-2, 2, 4), 1_000_000)
        med = np.median(res.ratios[-1])
        assert abs(med - 1.0 / math.pi) / (1.0 / math.pi) < 0.3


class TestLatticeTailLab:
    def test_first_shell_mass(self):
        lab = eg.lattice_tail_lab(100)
        i = np.searchsorted(lab.sigma.positions, 1.0)
        assert abs(lab.sigma.masses[i] - 3.0 / 16.0) < 1e-15
        j = np.searchsorted(lab.sigma.positions, -1.0)
        assert abs(lab.sigma.masses[j] - 3.0 / 16.0) < 1e-15

    def test_mean_zero_exactly_and_defect(self):
        for K in (10, 1000):
            lab = eg.lattice_tail_lab(K)
            assert abs(mc.moments(lab.sigma).mean) < 1e-14
            assert abs(lab.mass_defect - K**-2.0) < 2.0 * K**-3.0

    def test_smoothed_variance_tracks_log(self):
        lab = eg.lattice_tail_lab(1_000_000)
        x = 1e3
        ratio = mc.harmonic_variance(lab.sigma, x) / (2.0 * math.log(x))
        assert abs(ratio - 1.0) < 0.1

    def test_norming_closed_form(self):
        lab = eg.lattice_tail_lab(10, N=100)
        assert abs(lab.B.at(100) - math.sqrt(100.0 * math.log(100.0))) < 1e-12

    def test_boundary_map_symmetric(self):
        lab = eg.lattice_tail_lab(50)
        assert abs(lab.T.c) < 1e-14
        assert lab.T.n_poles == len(lab.sigma)


def random_map(rng, k):
    """A boundary map with `k` random poles (k = 0: a random translation)."""
    if k == 0:
        return eg.RationalBooleMap(float(rng.normal()), [], [])
    return eg.boundary_map(random_rep(rng, k=k))


def reference_segment(x, n, c, poles, buf):
    """The scalar stepper as two plain loops over the poles: the pole test
    ``|x - t| < tol (1 + |x|)`` at every step, then the pole sum from -0.0."""
    for j in range(n):
        r = eg.POLE_TOL * (1.0 + abs(x))
        for t, _ in poles:
            if abs(x - t) < r:
                return j, x
        buf[j] = x
        s = -0.0
        for t, w in poles:
            s += w / (t - x)
        x = x + c + s
    return n, x


class TestScalarOrbitLoop:
    """The generated scalar stepper against the plain reference loop and
    against the batched stepper, bit for bit, for every pole count it serves."""

    #: an indicator denominator's window holds every start, so each row has
    #: visited it by the first checkpoint (an unvisited window is refused)
    KERNEL_PAIRS = [("cauchy", "gauss"), (("indicator", -1.0, 1.0), "cauchy"),
                    ("gauss", ("indicator", -10.0, 10.0))]

    def starts(self, T, rng):
        # free starts, then (with poles) one on a pole and one mapped onto a
        # pole at step 1
        free = rng.uniform(-3, 3, 4)
        if not T.n_poles:
            return free
        hit = eg.preimages(T, float(T.pole_positions[0]))[0]
        return np.concatenate([free, [T.pole_positions[0], hit]])

    @staticmethod
    def on_both(monkeypatch, run):
        """``run()`` on the scalar stepper, then on the batched one."""
        out = []
        for scalar in (True, False):
            monkeypatch.setattr(eg, "_use_scalar", lambda T, x0, s=scalar: s)
            out.append(run())
        return out

    def assert_hopf_match(self, monkeypatch, T, x0, N, checkpoints):
        for f, g in self.KERNEL_PAIRS:
            sc, ba = self.on_both(monkeypatch,
                                  lambda: eg.hopf_ratio(T, f, g, x0, N, checkpoints))
            assert np.array_equal(sc.truncated_at, ba.truncated_at)
            assert np.all(np.isfinite(sc.ratios)) and np.array_equal(sc.ratios, ba.ratios)
        return sc

    def assert_visits_match(self, monkeypatch, T, x0, N):
        sc, ba = self.on_both(monkeypatch,
                              lambda: eg.occupation_time(T, x0, N, (-1.0, 1.0)))
        assert np.array_equal(sc.visits, ba.visits)
        assert np.array_equal(sc.truncated_at, ba.truncated_at)
        assert sc.visits.dtype == ba.visits.dtype == np.int64
        return sc

    @pytest.mark.parametrize("k", range(eg._SCALAR_MAX_POLES + 1))
    def test_stepper_matches_reference_loop(self, k):
        rng = np.random.default_rng(60 + k)
        T = random_map(rng, k)
        poles = list(zip(T.pole_positions.tolist(), T.pole_weights.tolist()))
        x0 = self.starts(T, rng).tolist()
        for t, _ in poles:
            # |t - x| between the pole test's tol (1 + |x|) and the
            # prefilter's 2 tol (1 + |t|) on either side, then just inside
            scale = eg.POLE_TOL * (1.0 + abs(t))
            x0 += [t + 1.5 * scale, t - 1.5 * scale, t + 0.5 * scale]
        cases = [(float(T.c), poles, x0)]
        if k:
            # a pole at 1e12, where tol (1 + |x|) is about 0.1: the start
            # 0.05 away is on it, so the prefilter must scale with |t|
            far = poles[:-1] + [(1e12, poles[-1][1])]
            cases.append((float(T.c), far, [1e12 - 0.05, 1e12 + 0.05, 1e12 - 0.5, 0.3]))
        n = 3000
        for c, ps, starts in cases:
            for x in starts:
                ref, new = [0.0] * n, [0.0] * n
                steps, end = reference_segment(x, n, c, ps, ref)
                got, got_end = eg._orbit_segment(x, n, c, ps, new)
                assert got == steps
                assert (np.array(new[:got] + [got_end]).tobytes()
                        == np.array(ref[:steps] + [end]).tobytes())
        if k:
            # the start 0.05 from the pole at 1e12 stops before its first step
            assert eg._orbit_segment(1e12 - 0.05, n, float(T.c), far, [0.0] * n)[0] == 0

    @pytest.mark.parametrize("k", range(eg._SCALAR_MAX_POLES + 1))
    def test_hopf_sums_match(self, k, monkeypatch):
        rng = np.random.default_rng(30 + k)
        T = random_map(rng, k)
        N = eg._CHUNK + 500
        x0 = self.starts(T, rng)
        checkpoints = [1, 100, eg._CHUNK, eg._CHUNK + 1, N]
        if not k:
            self.assert_hopf_match(monkeypatch, T, x0, N, checkpoints)
            return
        sc = self.assert_hopf_match(monkeypatch, T, np.delete(x0, -2), N, checkpoints)
        assert sc.truncated_at[-1] == 1
        # the start truncated at step 1 keeps its one-point sums
        assert np.all(sc.ratios[1:, -1] == sc.ratios[0, -1])
        # a start on a pole has no Birkhoff sums (0/0): both steppers refuse it
        for scalar in (True, False):
            monkeypatch.setattr(eg, "_use_scalar", lambda T, x0, s=scalar: s)
            with pytest.raises(PoleProximity):
                eg.hopf_ratio(T, "cauchy", "gauss", x0, N)

    def test_unvisited_indicator_denominator(self, monkeypatch):
        # the orbit from -2.5 stays out of [0, 2] for 10 steps: 0 visits
        # would make the ratio inf (or NaN for 0/0); both steppers refuse it
        for scalar in (True, False):
            monkeypatch.setattr(eg, "_use_scalar", lambda T, x0, s=scalar: s)
            with pytest.raises(DomainError, match=r"start -2\.5 \(index 0\).*window"):
                eg.hopf_ratio(eg.boole_map(), "gauss", ("indicator", 0.0, 2.0),
                              [-2.5, 0.5], 10, checkpoints=[1, 10])
        # a window visited by every checkpoint gives finite ratios
        r = eg.hopf_ratio(eg.boole_map(), "gauss", ("indicator", -3.0, 2.0), [-2.5, 0.5], 10,
                          checkpoints=[1, 10])
        assert np.all(np.isfinite(r.ratios))

    @pytest.mark.parametrize("k", range(eg._SCALAR_MAX_POLES + 1))
    def test_visit_counts_match(self, k, monkeypatch):
        rng = np.random.default_rng(40 + k)
        T = random_map(rng, k)
        sc = self.assert_visits_match(monkeypatch, T, self.starts(T, rng), eg._CHUNK + 500)
        if k:
            assert list(sc.truncated_at[-2:]) == [0, 1] and sc.visits[-2] == 0

    def test_truncation_inside_a_block(self, monkeypatch):
        # starts mapped onto a pole at steps 1, 2 and 3, in batched blocks of
        # 5 steps: the pole hits fall inside the first block and the
        # checkpoints cross the block boundaries
        rng = np.random.default_rng(51)
        T = eg.boundary_map(random_rep(rng, k=3))
        chain = [float(T.pole_positions[0])]
        for branch in (0, 1, 0):
            chain.append(float(eg.preimages(T, chain[-1])[branch]))
        x0 = np.concatenate([rng.uniform(-3, 3, 3), chain[1:]])
        monkeypatch.setattr(eg, "_BLOCK", 5 * len(x0))
        N = 1000
        sc = self.assert_hopf_match(monkeypatch, T, x0, N, [1, 2, 3, 4, 5, 6, 11, N])
        assert list(sc.truncated_at[-3:]) == [1, 2, 3]
        visits = self.assert_visits_match(monkeypatch, T, x0, N)
        assert list(visits.truncated_at) == list(sc.truncated_at)

    def test_few_starts_take_scalar_loop(self):
        T = eg.boole_map()
        assert eg._use_scalar(T, np.zeros(eg._SCALAR_MAX_WORK // 2))
        assert not eg._use_scalar(T, np.zeros(eg._SCALAR_MAX_WORK // 2 + 1))
        lab = eg.lattice_tail_lab(10)
        assert not eg._use_scalar(lab.T, np.zeros(1))


class TestOrbitInputs:
    """Non-finite starts and horizons outside 1..1e8 are rejected on both
    steppers; so are non-finite preimage targets."""

    @pytest.fixture(params=["scalar", "batched"])
    def T(self, request):
        # the Boole map takes the scalar stepper, the 100-pole lattice map
        # the batched one
        T = eg.boole_map() if request.param == "scalar" else eg.lattice_tail_lab(50).T
        assert eg._use_scalar(T, np.zeros(2)) == (request.param == "scalar")
        return T

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start(self, T, bad):
        with pytest.raises(DomainError):
            eg.occupation_time(T, [0.3, bad], 100, (-1.0, 1.0))
        with pytest.raises(DomainError):
            eg.hopf_ratio(T, "cauchy", "gauss", [bad], 100)

    @pytest.mark.parametrize("N", [-5, 0, 10**8 + 1])
    def test_horizon_range(self, T, N):
        with pytest.raises(ValueError):
            eg.occupation_time(T, [0.3], N, (-1.0, 1.0))
        with pytest.raises(ValueError):
            eg.hopf_ratio(T, "cauchy", "gauss", [0.3], N)

    def test_shortest_horizon(self, T):
        rec = eg.occupation_time(T, [0.3, 5.5, T.pole_positions[0]], 1, (-1.0, 1.0))
        assert list(rec.visits) == [1, 0, 0] and list(rec.truncated_at) == [-1, -1, 0]
        res = eg.hopf_ratio(T, "cauchy", "cauchy", [0.3], 1)
        assert res.ratios.tolist() == [[1.0]]

    @pytest.mark.parametrize("y", [math.nan, math.inf])
    def test_non_finite_preimage_target(self, T, y):
        with pytest.raises(DomainError):
            eg.preimages(T, y)


class TestPoleKernels:
    """The nearest-pole search and the batched pole sum against the plain
    broadcast formulas, bit for bit."""

    @staticmethod
    def plain_distance(t, x):
        return np.abs(x[:, None] - t).min(axis=1)

    @pytest.mark.parametrize("lab_K", [None, 50])
    def test_nearest_pole_distance(self, lab_K):
        T = eg.boole_map() if lab_K is None else eg.lattice_tail_lab(lab_K).T
        t = T.pole_positions
        i = len(t) // 2
        xs = np.array([t[0], t[-1], t[i],                   # on the first, last, an interior pole
                       t[0] - 3.5, t[-1] + 2.25,            # below the first, above the last
                       0.5 * (t[i - 1] + t[i]) if len(t) > 1 else 0.5,   # midway
                       t[i] + 1e-14, t[i] - 1e-12, -1e300, 1e300])
        xs = np.concatenate([xs, np.random.default_rng(3).uniform(-60, 60, 500)])
        d = eg._pole_distance(T, xs)
        assert np.array_equal(d, self.plain_distance(t, xs))
        assert np.array_equal(eg._pole_distance(T, xs.reshape(2, -1)), d.reshape(2, -1))
        assert eg._pole_distance(T, np.float64(xs[5])) == d[5]

    def test_midway_lattice_points(self):
        # the lattice poles are the nonzero integers |k| <= 50: each half
        # integer is exactly midway between two of them, and so is 0
        T = eg.lattice_tail_lab(50).T
        xs = np.concatenate([np.arange(-49.5, 50.0, 1.0), [0.0]])
        d = eg._pole_distance(T, xs)
        assert np.array_equal(d, self.plain_distance(T.pole_positions, xs))
        assert np.all(d[:-1] == 0.5) and d[-1] == 1.0

    @pytest.mark.parametrize("rows", [1, 13, None])
    def test_batched_orbit_points(self, rows, monkeypatch):
        T = eg.lattice_tail_lab(50).T
        t, w, c = T.pole_positions, T.pole_weights, T.c
        if rows is not None:
            monkeypatch.setattr(tf, "_CHUNK", rows * T.n_poles)
        rng = np.random.default_rng(21)
        x0 = np.concatenate([rng.uniform(-2, 2, 60), [t[3], eg.preimages(T, t[7])[50]]])
        N = 40
        x, alive = x0.copy(), np.ones(len(x0), dtype=bool)
        pts, live = [], []
        for _ in range(N):
            alive &= ~(self.plain_distance(t, x) < eg.POLE_TOL * (1.0 + np.abs(x)))
            pts.append(x.copy())
            live.append(alive.copy())
            x[alive] = x[alive] + c + (w / (t - x[alive, None])).sum(axis=1)
        got = [(p.copy(), lv.copy()) for p, lv in eg._batched_orbit(T, x0, N)]
        assert np.array_equal(np.concatenate([p for p, _ in got]), np.array(pts))
        assert np.array_equal(np.concatenate([lv for _, lv in got]), np.array(live))
        assert list(np.array(live).sum(axis=0)[-2:]) == [0, 1]

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_eval_dT(self, rows, monkeypatch):
        T = eg.lattice_tail_lab(50).T
        t, w = T.pole_positions, T.pole_weights
        if rows is not None:
            monkeypatch.setattr(tf, "_CHUNK", rows * T.n_poles)
        xs = np.random.default_rng(23).uniform(-60, 60, (4, 50))
        want = 1.0 + (w / (t - xs[..., None]) ** 2).sum(axis=-1)
        assert np.array_equal(eg.eval_dT(T, xs), want)
        assert eg.eval_dT(T, float(xs[1, 2])) == want[1, 2]
