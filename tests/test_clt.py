"""Tests for norming constants, regular variation, and CLT experiments."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize

import monoclt as mc
from monoclt import clt, ergodic as eg, transforms as tf
from monoclt.errors import DegenerateMeasure, DomainError, NonConvergence, NumericBreakdown

from test_measures import BERN, BOOLE, NU, random_atomic
from test_transforms import same_bits

#: a skewed lattice law whose classical powers reach subnormal masses
SKEWED_LATTICE_MASSES = [0.3235686273437737, 0.39653599468449835, 0.22711375043952328,
                         0.0527816275322048]

CENTERED_BERN = mc.shift(BERN, -0.5)


class TestNormingConstants:
    def test_nevanlinna_map_takes_the_sigma_criterion(self):
        lab = eg.lattice_tail_lab(200)
        ns = [10, 100, 1000]
        B = clt.norming_constants(lab.map, ns)
        want = clt.sigma_criterion_constants(lab.sigma, ns)
        assert B.provenance == "sigma-criterion"
        assert same_bits(B.values, want.values)
        assert same_bits(clt.norming_constants(lab.map, N=5).values,
                         clt.sigma_criterion_constants(lab.sigma, range(1, 6)).values)
        # the map's law has no variance or H to read
        for method in ("variance", "h-cutoff"):
            with pytest.raises(ValueError):
                clt.norming_constants(lab.map, ns, method=method)
        for F in (mc.ArcsineMap(), mc.IterateMap(lab.map, 2)):
            with pytest.raises(ValueError):
                clt.norming_constants(F, ns)
        # a translation's sigma is 0: its law is a point mass
        with pytest.raises(DegenerateMeasure):
            clt.norming_constants(mc.NevanlinnaMap(mc.NevanlinnaRep(0.5)), ns)

    def test_two_point_both_routes(self):
        for method in ("auto", "variance", "h-cutoff"):
            B = clt.norming_constants(BOOLE, ns=[100], method=method)
            assert abs(B.values[0] - 10.0) < 1e-9

    def test_centered_coin_half_sqrt(self):
        B = clt.norming_constants(CENTERED_BERN, ns=[1, 4, 100, 10_000])
        assert np.allclose(B.values, np.sqrt(B.ns) / 2.0)
        assert B.provenance == "variance"

    def test_power_tail_cutoff_vs_root_oracle(self):
        n = 10_000
        B = clt.norming_constants(NU, ns=[n])
        oracle = optimize.brentq(lambda y: n * 2.0 * math.log(y) - y * y,
                                 200.0, 800.0, rtol=1e-13)
        assert abs(B.values[0] - oracle) < 1e-6 * oracle
        # the sqrt(n log n) shorthand undershoots the exact cutoff by the
        # second-order loglog term (~12% at this horizon)
        ratio = B.values[0] / math.sqrt(n * math.log(n))
        assert 1.05 < ratio < 1.20

    def test_nondecreasing_and_scale_equivariant(self):
        rng = np.random.default_rng(0)
        ns = np.array([10, 30, 100, 300, 1000])
        for _ in range(10):
            m = random_atomic(rng)
            m = mc.shift(m, -mc.moments(m).mean)
            B = clt.norming_constants(m, ns=ns, method="h-cutoff")
            assert np.all(np.diff(B.values) > 0)
            b = rng.uniform(0.3, 3.0)
            Bd = clt.norming_constants(mc.dilate(m, b), ns=ns, method="h-cutoff")
            assert np.abs(Bd.values / B.values - b).max() < 1e-8

    def test_route_consistency_finite_variance(self):
        rng = np.random.default_rng(1)
        ns = np.array([100, 1000])
        for _ in range(10):
            m = random_atomic(rng)
            m = mc.shift(m, -mc.moments(m).mean)
            Bv = clt.norming_constants(m, ns=ns, method="variance")
            Bc = clt.norming_constants(m, ns=ns, method="h-cutoff")
            assert np.abs(Bc.values / Bv.values - 1.0).max() < 0.01

    @pytest.mark.parametrize("kind", ["normal", "arcsine", "semicircle"])
    def test_reference_law_cutoff(self, kind):
        # unit variance, so the largest root of n*H(y) = y^2 is sqrt(n) to
        # H's digits; the search starts past the small roots that n*H(y) ~ y^3
        # makes near 0, on which 1e-3 was returned up to n = 1000
        ns = np.array([10, 100, 1000, 10_000])
        B = clt.norming_constants(mc.ReferenceLaw(kind), ns=ns, method="h-cutoff")
        assert np.all(np.abs(B.values[1:] / np.sqrt(ns[1:]) - 1.0) < 1e-12)
        h = clt.h_function(mc.ReferenceLaw(kind))
        assert abs(10 * h(B.values[0]) / B.values[0] ** 2 - 1.0) < 1e-12

    def test_cutoff_without_a_root_takes_the_seed(self):
        # 2n log y < y^2 for every y at n <= 2: no root, so the seed 2 (the
        # atomic route's top-plateau fallback likewise); n = 3 has roots
        B = clt.norming_constants(NU, ns=[1, 2, 3], method="h-cutoff")
        assert B.values[:2].tolist() == [2.0, 2.0]
        assert abs(3 * 2.0 * math.log(B.values[2]) / B.values[2] ** 2 - 1.0) < 1e-12
        assert B.values[2] > math.sqrt(math.e)

    def test_lookup_in_caller_order(self):
        B = clt.norming_constants(BERN, ns=[32, 5, 100])
        assert [B.at(n) for n in (5, 32, 100)] == [math.sqrt(n) / 2.0 for n in (5, 32, 100)]
        with pytest.raises(KeyError):
            B.at(6)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMeasure):
            clt.norming_constants(mc.point_mass(2.0), ns=[10])

    def test_unbracketed_cutoff_is_typed(self):
        # n*h(y) - y^2 = y^2 stays positive: no doubling of hi brackets the root
        with pytest.raises(NonConvergence):
            clt._cutoff_bisect(lambda y: y * y, np.array([2]), 1.0)

    def test_unbracketed_sigma_criterion_is_typed(self):
        # one atom of mass 1 at t = 1e100: L(y) + 1 = y^2 at about sqrt(t) = 1e50,
        # where L + 1 and y^2 agree to all their digits and g = L + 1 - y^2 is
        # rounding, so no float resolves the root (a bisection returned 6.1e91)
        sigma = mc.atomic([(1e100, 1.0)], is_probability=False)
        with pytest.raises(NonConvergence, match="within the rounding"):
            clt.sigma_criterion_constants(sigma, [1])

    def test_half_slope(self):
        ns = np.array([100, 316, 1000, 3162, 10_000])
        for m in (BOOLE, CENTERED_BERN):
            B = clt.norming_constants(m, ns=ns, method="variance")
            slope = np.polyfit(np.log(ns), np.log(B.values), 1)[0]
            assert 0.48 <= slope <= 0.52
        # the slowly-varying factor adds ~1/(2 log n) to the slope, so the
        # power-tail member sits visibly above 1/2 at desk scale and drifts
        # down as the window moves out
        B = clt.norming_constants(NU, ns=ns, method="h-cutoff")
        slope_near = np.polyfit(np.log(ns), np.log(B.values), 1)[0]
        assert 0.5 < slope_near < 0.6
        far = np.array([10_000, 100_000, 1_000_000])
        Bf = clt.norming_constants(NU, ns=far, method="h-cutoff")
        slope_far = np.polyfit(np.log(far), np.log(Bf.values), 1)[0]
        assert 0.5 < slope_far < slope_near


class TestRatioCheck:
    def test_non_finite_y(self):
        lab = eg.lattice_tail_lab(10)
        B = clt.sigma_criterion_constants(lab.sigma, [10, 100])
        for y in (math.inf, math.nan):
            with pytest.raises(DomainError):
                clt.norming_ratio_check(lab.sigma, B, y=y)

    def test_non_finite_ratio_is_typed(self):
        lab = eg.lattice_tail_lab(10)
        B = clt.sigma_criterion_constants(lab.sigma, [10, 100])
        # (B_n y)^2 overflows, yet L(B_n y) is its limit sum w t^2 (it read NaN)
        m2 = float(np.dot(lab.sigma.positions**2, lab.sigma.masses))
        want = B.ns * (m2 + lab.sigma.total_mass) / B.values**2
        for y in (1e160, 1e308):
            got = clt.norming_ratio_check(lab.sigma, B, y=y).ratios
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        assert np.allclose(want, [1.2474545136650, 1.0286598338261], rtol=1e-12, atol=0.0)
        # an L that overflows is a typed error
        with pytest.raises(NumericBreakdown, match="overflows"):
            clt.norming_ratio_check(mc.atomic([(1e200, 1.0)], is_probability=False), B, y=1e160)

    def test_overflowing_variance_is_typed(self):
        with pytest.raises(NumericBreakdown, match="overflows"):
            clt.norming_constants(mc.normal(1e200), ns=[10])


class TestSigmaCriterion:
    def test_origin_atom_exact(self):
        sigma = mc.atomic([(0.0, 0.25)], is_probability=False)
        ns = np.array([4, 100, 1000])
        B = clt.sigma_criterion_constants(sigma, ns)
        assert np.allclose(B.values, np.sqrt(ns) / 2.0)
        rr = clt.norming_ratio_check(sigma, B, y=1.0)
        assert np.abs(rr.ratios - 1.0).max() < 1e-12

    def test_origin_atom_any_mass(self):
        b = 0.73
        sigma = mc.atomic([(0.0, b)], is_probability=False)
        ns = np.array([10, 1000])
        B = clt.sigma_criterion_constants(sigma, ns)
        assert np.allclose(B.values, np.sqrt(ns * b))

    def test_selected_constants_satisfy_ratio(self):
        rng = np.random.default_rng(2)
        sigma = mc.atomic([(t, w) for t, w in zip(rng.normal(0, 2, 5),
                                                  rng.uniform(0.1, 1, 5))],
                          is_probability=False)
        ns = np.array([100, 1000, 10_000])
        B = clt.sigma_criterion_constants(sigma, ns)
        rr = clt.norming_ratio_check(sigma, B, y=1.0)
        assert rr.tail_max_dev < 1e-10

    def test_benchmark_warm_up_op_is_pinned(self):
        # the lattice_clt benchmark's first op compares F(z0) with recorded bits,
        # so B and the ratio at n = 88 must not move by an ulp
        lab = eg.lattice_tail_lab(10_000)
        B = clt.sigma_criterion_constants(lab.sigma, [88])
        assert B.values[0] == 26.900429737370615
        assert clt.norming_ratio_check(lab.sigma, B).ratios[0] == 1.0

    def test_log_shorthand_constants_overshoot_ratio(self):
        # with B_n = sqrt(n log n) the ratio is (log n + loglog n + 1)/log n,
        # still ~1.35 at n = 1e4: the shorthand constants reach the selection
        # rule only logarithmically slowly
        from monoclt import ergodic as eg
        lab = eg.lattice_tail_lab(10_000)
        ns = np.array([1000, 10_000])
        B = clt.NormingSequence(ns, np.sqrt(ns * np.log(ns)), "closed-form")
        rr = clt.norming_ratio_check(lab.sigma, B, y=1.0)
        oracle = (np.log(ns) + np.log(np.log(ns)) + 1.0) / np.log(ns)
        # the discrete binning shifts L by an O(1) constant, so the crude
        # continuous oracle is only good to ~0.1 here
        assert np.abs(rr.ratios - oracle).max() < 0.15
        assert rr.ratios.min() > 1.2
        assert rr.ratios[1] < rr.ratios[0]


class TestSlowVariation:
    def test_log_growth_ratio(self):
        rep = clt.slow_variation_report(clt.h_function(NU), [2.0], [1e6])
        oracle = math.log(2e6) / math.log(1e6)
        assert abs(rep.ratios[0, 0] - oracle) < 1e-12
        assert abs(rep.ratios[0, 0] - 1.050) < 1e-3

    def test_finite_variance_flat(self):
        rep = clt.slow_variation_report(clt.h_function(BOOLE), [2.0, 5.0], [10.0, 100.0])
        assert np.all(rep.ratios == 1.0)
        assert abs(rep.index_estimate) < 1e-12

    def test_half_index_tail(self):
        # density |t|^-{5/2} outside the unit cutoff: direct integration gives
        # H(x) = 4*(sqrt(x) - 1), regularly varying with index 1/2
        m = mc.PowerTailLaw(2.5, 1.0)
        oracle, _ = integrate.quad(lambda t: 2.0 * t * t * t**-2.5, 1.0, 100.0)
        assert abs(oracle - 4.0 * (math.sqrt(100.0) - 1.0)) < 1e-9
        assert abs(clt.h_function(m)(100.0) - oracle) < 1e-9
        rep = clt.slow_variation_report(clt.h_function(m), [2.0],
                                        np.geomspace(1e2, 1e6, 9))
        assert abs(rep.index_estimate - 0.5) < 0.05


class TestCltReport:
    def test_two_point_small_horizons(self):
        rep = clt.clt_report(BOOLE, [100, 400], with_ks=False)
        assert rep.rows[0].f_dev > rep.rows[1].f_dev
        assert rep.rows[1].f_dev < 0.02
        assert rep.monotone_ok
        assert abs(rep.h_index_estimate) < 0.01

    def test_centering_is_automatic(self):
        rep = clt.clt_report(BERN, [100], with_ks=False)
        rep2 = clt.clt_report(CENTERED_BERN, [100], with_ks=False)
        assert abs(rep.rows[0].f_dev - rep2.rows[0].f_dev) < 1e-12

    def test_squared_transform_rate(self):
        n = 1000
        M = mc.scaled_monotone_power(CENTERED_BERN, n, math.sqrt(n) / 2.0)
        z = 10.5j
        val = mc.f_eval(M, z)
        assert abs(val * val - (z * z - 2.0)) <= 5.0 / n

    def test_classical_column(self):
        rep = clt.clt_report(BOOLE, [64], with_ks=False)
        assert rep.rows[0].ks_normal is not None
        assert rep.rows[0].ks_normal < 0.06

    def test_ks_and_fdev_orderings_agree(self):
        rep = clt.clt_report(BOOLE, [100, 1000])
        devs = [r.f_dev for r in rep.rows]
        kss = [r.ks_arcsine for r in rep.rows]
        assert (devs[0] > devs[1]) == (kss[0] > kss[1])

    def test_uniform_grid_corpus_member(self):
        h = 0.01
        x = np.arange(-1.0, 1.0 + h / 2, h)
        uniform = mc.GridDensity(float(x[0]), h, np.full(len(x), 0.5))
        assert abs(mc.moments(uniform).var - 1.0 / 3.0) < 1e-4
        rep = clt.clt_report(uniform, [50, 200, 800], with_ks=False)
        assert rep.monotone_ok
        assert rep.rows[-1].f_dev < 0.05

    def test_reordered_merge_is_typed(self):
        # on its lattice the law powers by mass vectors, whose positions are
        # exact at any n
        m = mc.AtomicMeasure([-2.0, -1.0, 0.0, 2.0], SKEWED_LATTICE_MASSES)
        for n in (256, 265):
            assert math.isfinite(clt.clt_report(m, [n], with_ks=False).rows[0].ks_normal)
        # a hair off the lattice it forms atom pairs: the 265-fold power
        # merges atoms of subnormal mass, whose weighted positions fall out
        # of order, and that is a typed error, not a bare ValueError
        off = mc.AtomicMeasure([-2.0, -1.0, 0.0, 2.000000000000001], SKEWED_LATTICE_MASSES)
        with pytest.raises(NumericBreakdown, match="out of order"):
            clt.clt_report(off, [265], with_ks=False)

    def test_lattice_power_keeps_the_centered_precision(self):
        # a lattice far from 0: the power is taken on the centered offset, as
        # precise as the centered law's pairs were (positions near n*1e6 =
        # 1e9 would be 6e-8 apart from exact, 3.8e-6 standard deviations)
        m = mc.AtomicMeasure([1e6, 1e6 + 1e-3], [0.5, 0.5])
        ks = clt.clt_report(m, [1000], with_ks=False).rows[0].ks_normal
        assert abs(ks - 0.011726624198362012) < 1e-12     # the pair path's value

    def test_map_source_needs_constants(self):
        # sigma is an atom at 0 of mass 1, so B_n = sqrt(n): without B a
        # Nevanlinna map takes the sigma criterion's constants, bit for bit
        sigma = mc.atomic([(0.0, 1.0)], is_probability=False)
        F = mc.nevanlinna_synthesize(mc.NevanlinnaRep(0.0, sigma))
        B = clt.sigma_criterion_constants(sigma, [10])
        assert abs(B.values[0] - math.sqrt(10.0)) < 1e-12
        row = clt.clt_report(F, [10]).rows[0]
        want = clt.clt_report(F, [10], B=B).rows[0]
        assert same_bits([row.B, row.f_dev, row.ks_arcsine], [want.B, want.f_dev, want.ks_arcsine])
        assert row.B == B.values[0] and row.f_dev < 0.5 and row.ks_normal is None
        # other maps have no norming rule
        for G in (mc.ArcsineMap(), mc.DilatedMap(F, 2.0)):
            with pytest.raises(ValueError):
                clt.clt_report(G, [10])


class TestConjugacyTrace:
    def test_single_step_identity(self):
        tr = clt.conjugacy_trace(CENTERED_BERN, 1, -(10.5**2), 0.5)
        assert abs(tr.lhs - tr.telescoped) < 1e-12

    def test_closed_form_remainder_bound(self):
        for n in (100, 1000):
            tr = clt.conjugacy_trace(CENTERED_BERN, n, -(10.5**2), math.sqrt(n) / 2.0)
            assert abs(tr.lhs - tr.telescoped) < 1e-10
            assert abs(tr.telescoped - (-(10.5**2) - 2.0)) <= 1.0 / (10.0 * n)

    def test_remainder_limit(self):
        tr = clt.conjugacy_trace(BOOLE, 1000, -(10.5**2), math.sqrt(1000.0))
        assert abs(tr.remainder_sum - (-2.0)) < 0.02

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            clt.conjugacy_trace(BOOLE, 10, -(9.0**2), 3.0)

    @pytest.mark.parametrize("z", [-math.inf, -(1e200 * 1e200), complex(math.nan, 0.0)])
    def test_non_finite_start(self, z):
        with pytest.raises(DomainError):
            clt.conjugacy_trace(BOOLE, 10, z, 3.0)

    @pytest.mark.parametrize("B", [math.inf, math.nan, -1.0, 0.0, 1e-320])
    def test_non_finite_trace_is_typed(self, B):
        # a B that is not finite and positive is invalid input; a tiny one
        # overflows the orbit
        error = NumericBreakdown if B > 0 and math.isfinite(B) else DomainError
        for src in (BOOLE, eg.lattice_tail_lab(10).map):
            with pytest.raises(error):
                clt.conjugacy_trace(src, 10, -(10.5**2), B)


class TestDriftBound:
    def test_zeroth_iterate(self):
        rep = clt.drift_bound_check(BOOLE, 100, 10.5, [0], 10.0)
        assert rep.deviations[0] == 0.0

    def test_full_orbit_against_limit_value(self):
        n = 1000
        y = 10.5
        rep = clt.drift_bound_check(CENTERED_BERN, n, y, [n], math.sqrt(n) / 2.0)
        # the n-th iterate approaches sqrt((iy)^2 - 2): distance to iy is
        # 2/(y + sqrt(y^2 + 2))
        oracle = 2.0 / (y + math.sqrt(y * y + 2.0))
        assert abs(rep.deviations[0] - oracle) < 1e-3
        assert not rep.violations.any()

    def test_intermediate_iterates_bounded(self):
        n = 1000
        rep = clt.drift_bound_check(BOOLE, n, 11.0, [0, 250, 500, 1000], math.sqrt(n))
        assert not rep.violations.any()
        assert rep.deviations.max() <= 5.0

    def test_deviations_follow_the_scaled_power_map(self):
        # one orbit of B*iy, rescaled once: F^(j)(B iy)/B as ScaledPowerMap
        # evaluates it, on both sides of the scalar-orbit pole cut
        k4 = mc.atomic([(-1.5, 0.2), (0.0, 0.3), (0.7, 0.4), (2.2, 0.1)])
        many = mc.AtomicMeasure(np.linspace(-1.0, 1.0, 65), np.full(65, 1.0 / 65))
        js = [0, 1, 10, 500, 2000]
        for m, B in ((BOOLE, math.sqrt(2000.0)), (mc.shift(k4, -0.2), 40.0), (many, 20.0)):
            rep = clt.drift_bound_check(m, 2000, 10.5, js, B)
            want = [abs(tf.f_eval(tf.ScaledPowerMap(m, j, B), 10.5j) - 10.5j) for j in js]
            assert np.max(np.abs(rep.deviations - want)) < 1e-12

    @pytest.mark.parametrize("y", [math.nan, math.inf])
    def test_non_finite_start(self, y):
        with pytest.raises(DomainError):
            clt.drift_bound_check(BOOLE, 100, y, [0, 50], 10.0)

    @pytest.mark.parametrize("B", [math.inf, math.nan, -1.0, 0.0, 1e-320])
    def test_non_finite_deviation_is_typed(self, B):
        error = NumericBreakdown if B > 0 and math.isfinite(B) else DomainError
        for src in (BOOLE, eg.lattice_tail_lab(10).map):
            with pytest.raises(error):
                clt.drift_bound_check(src, 10, 10.5, [0, 5, 10], B)

    def test_half_plane_checks_per_step(self, monkeypatch):
        """A map source and an atomic measure both step on their bare
        formula, and one check after the loop covers all 11 iterates."""
        calls = []
        inner = tf._check_upper_out
        monkeypatch.setattr(tf, "_check_upper_out",
                            lambda w, what: (calls.append((what, len(w))), inner(w, what))[1])
        clt.drift_bound_check(eg.lattice_tail_lab(10).map, 10, 10.5, [0, 10], 3.0)
        assert calls == [("orbit", 11)]
        del calls[:]
        clt.drift_bound_check(BOOLE, 10, 10.5, [0, 10], 3.0)
        assert calls == [("orbit", 11)]
