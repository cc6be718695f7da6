"""Tests for measure representations, moments, and classical convolution."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import monoclt as mc
from monoclt import measures as ms
from monoclt.errors import CapacityExceeded

BOOLE = mc.atomic([(-1.0, 0.5), (1.0, 0.5)])
BERN = mc.atomic([(0.0, 0.5), (1.0, 0.5)])
NU = mc.power_tail(3.0)          # tail mass x^-2, truncated variance 2*log(x)


def random_atomic(rng, k=None, span=5.0):
    k = k or rng.integers(2, 13)
    pos = np.sort(rng.uniform(-span, span, k))
    while np.any(np.diff(pos) < 1e-3):
        pos = np.sort(rng.uniform(-span, span, k))
    w = rng.uniform(0.1, 1.0, k)
    return mc.AtomicMeasure(pos, w / w.sum())


class TestMoments:
    def test_symmetric_two_point(self):
        m = mc.moments(BOOLE)
        assert m.mean == 0.0 and m.m2 == 1.0 and m.var == 1.0

    def test_arcsine_variance_matches_quadrature(self):
        dens = lambda x: 1.0 / (math.pi * math.sqrt(2.0 - x * x))
        oracle, _ = integrate.quad(lambda x: x * x * dens(x),
                                   -math.sqrt(2.0), math.sqrt(2.0), points=[0.0])
        m = mc.moments(mc.arcsine())
        assert abs(oracle - 1.0) < 1e-9
        assert m.mean == 0.0 and abs(m.var - oracle) < 1e-9

    def test_point_mass(self):
        m = mc.moments(mc.point_mass(3.5))
        assert m.mean == 3.5 and m.m2 == 3.5**2 and m.var == 0.0

    def test_power_tail_sentinels(self):
        assert math.isinf(mc.moments(NU).var)
        assert mc.moments(NU).mean == 0.0
        assert math.isinf(mc.moments(mc.power_tail(1.5)).mean)
        m5 = mc.moments(mc.power_tail(5.0))     # density |t|^-5 (weight 2)
        oracle = 2.0 * 2.0 * integrate.quad(lambda t: t**-3.0, 1.0, np.inf)[0]
        assert abs(m5.m2 - oracle) < 1e-12

    def test_finite_measure_raw_moments(self):
        sigma = mc.atomic([(0.5, 0.2)], is_probability=False)
        m = mc.moments(sigma)
        assert abs(m.mean - 0.1) < 1e-15 and abs(m.m2 - 0.05) < 1e-15


class TestTruncatedVariance:
    def test_two_point_inside_outside(self):
        assert mc.truncated_variance(BOOLE, 0.5) == 0.0
        assert mc.truncated_variance(BOOLE, 2.0) == 1.0

    def test_power_tail_log_formula_vs_quadrature(self):
        oracle, _ = integrate.quad(lambda t: t * t * t**-3.0, 1.0, math.e)
        val = mc.truncated_variance(NU, math.e)
        assert abs(val - 2.0 * oracle) < 1e-12
        assert abs(val - 2.0) < 1e-12

    def test_monotone_in_cutoff(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_atomic(rng)
            xs = np.sort(rng.uniform(0.1, 8.0, 10))
            hs = [mc.truncated_variance(m, x) for x in xs]
            assert all(a <= b + 1e-15 for a, b in zip(hs, hs[1:]))
            ls = [mc.harmonic_variance(m, x) for x in xs]
            assert all(a <= b + 1e-15 for a, b in zip(ls, ls[1:]))

    def test_reaches_second_moment(self):
        rng = np.random.default_rng(2)
        m = random_atomic(rng)
        m2 = mc.moments(m).m2
        assert abs(mc.truncated_variance(m, 10.0) - m2) < 1e-14
        assert abs(mc.harmonic_variance(m, 1e9) - m2) < 1e-6


class TestHarmonicVariance:
    def test_origin_mass_contributes_nothing(self):
        sigma = mc.atomic([(0.0, 1.0)], is_probability=False)
        for x in (0.5, 1.0, 7.0):
            assert mc.harmonic_variance(sigma, x) == 0.0

    def test_two_point_half(self):
        assert abs(mc.harmonic_variance(BOOLE, 1.0) - 0.5) < 1e-15

    def test_large_cutoff_limit(self):
        assert abs(mc.harmonic_variance(BOOLE, 1e8) - 1.0) < 1e-12

    def test_split_bound_against_h_and_tail(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_atomic(rng)
            x = rng.uniform(0.2, 6.0)
            bound = mc.truncated_variance(m, x) + x * x * mc.tail(m, x)
            assert mc.harmonic_variance(m, x) <= bound + 1e-14

    def test_slow_variation_equivalence_for_power_tail(self):
        x = 1e4
        ratio = mc.truncated_variance(NU, x) / mc.harmonic_variance(NU, x)
        assert abs(ratio - 1.0) < 0.05

    def test_power_tail_closed_form_vs_quadrature(self):
        for x in (2.0, 31.0):
            oracle, _ = integrate.quad(
                lambda t: 2.0 * t**-3.0 * t * t * x * x / (t * t + x * x), 1.0, np.inf)
            assert abs(mc.harmonic_variance(NU, x) - oracle) < 1e-9


class TestTail:
    def test_two_point(self):
        assert mc.tail(BOOLE, 2.0) == 0.0
        assert mc.tail(BOOLE, 0.5) == 1.0

    def test_power_tail_inverse_square(self):
        assert abs(mc.tail(NU, 3.0) - 1.0 / 9.0) < 1e-15
        assert abs(mc.tail(NU, 10.0) - 1e-2) < 1e-15


class TestDilateShift:
    def test_dilate_point(self):
        d = mc.dilate(mc.point_mass(1.0), 3.0)
        assert d.positions[0] == 3.0

    def test_dilate_two_point(self):
        d = mc.dilate(BOOLE, 2.0)
        assert np.allclose(d.positions, [-2.0, 2.0]) and np.allclose(d.masses, 0.5)

    def test_dilation_transform_identity(self):
        d = mc.dilate(BOOLE, 2.0)
        val = mc.f_eval(mc.MeasureMap(d), 2j)
        assert abs(val - 4j) < 1e-14
        assert abs(val - 2.0 * mc.f_eval(mc.MeasureMap(BOOLE), 1j)) < 1e-14

    def test_shift_examples(self):
        s = mc.shift(BERN, -0.5)
        assert np.allclose(s.positions, [-0.5, 0.5])
        assert mc.shift(mc.point_mass(0.0), 5.0).positions[0] == 5.0
        assert abs(mc.moments(mc.shift(BOOLE, 1.0)).mean - 1.0) < 1e-15

    def test_moment_commutation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = random_atomic(rng)
            b = rng.uniform(0.2, 4.0)
            c = rng.uniform(-3.0, 3.0)
            assert abs(mc.moments(mc.dilate(m, b)).var - b * b * mc.moments(m).var) < 1e-12
            assert abs(mc.moments(mc.shift(m, c)).mean - mc.moments(m).mean - c) < 1e-12

    def test_dilate_reference_laws(self):
        g2 = mc.dilate(mc.arcsine(), math.sqrt(2.0))
        assert abs(mc.moments(g2).var - 2.0) < 1e-12
        assert abs(mc.tail(g2, 1.0) - mc.tail(mc.arcsine(), 1.0 / math.sqrt(2.0))) < 1e-12
        nu2 = mc.dilate(NU, 2.0)
        assert abs(mc.tail(nu2, 6.0) - mc.tail(NU, 3.0)) < 1e-15


class TestMergeProperties:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(start=st.floats(-100.0, 100.0), data=st.data(), b=st.floats(1e-2, 1e2))
    def test_separated_atoms_keep_positions(self, start, data, b):
        # a lone atom is no merge: its position survives bit for bit, even
        # where p * m underflows (subnormal masses)
        gaps = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=6))
        pos = start + np.cumsum(gaps)
        masses = data.draw(st.lists(st.floats(1e-320, 10.0, allow_subnormal=True),
                                    min_size=len(pos), max_size=len(pos)))
        order = data.draw(st.permutations(range(len(pos))))
        m = mc.atomic([(pos[i], masses[i]) for i in order], is_probability=False)
        assert m.positions.tobytes() == np.sort(pos).tobytes()
        assert m.masses.tobytes() == np.array(masses)[np.argsort(pos)].tobytes()
        d = mc.dilate(m, b)
        assert d.positions.tobytes() == (m.positions * b).tobytes()
        assert d.masses.tobytes() == m.masses.tobytes()


class TestClassicalConvolve:
    def test_point_masses_add(self):
        out = mc.classical_convolve(mc.point_mass(1.5), mc.point_mass(-0.5))
        assert np.allclose(out.positions, [1.0]) and out.masses[0] == 1.0

    def test_binomial(self):
        out = mc.classical_convolve(BERN, BERN)
        assert np.allclose(out.positions, [0.0, 1.0, 2.0])
        assert np.allclose(out.masses, [0.25, 0.5, 0.25])

    def test_symmetric_square(self):
        out = mc.classical_convolve(BOOLE, BOOLE)
        assert np.allclose(out.positions, [-2.0, 0.0, 2.0])
        assert np.allclose(out.masses, [0.25, 0.5, 0.25])

    def test_merge_tolerance(self):
        eps = 1e-14
        m = mc.atomic([(0.0, 0.5), (1.0, 0.5)])
        n = mc.atomic([(0.0, 0.5), (1.0 + eps, 0.5)])
        out = mc.classical_convolve(m, n)
        assert len(out) == 3  # 1 and 1+eps coalesce

    def test_capacity_pruning_and_error(self):
        rng = np.random.default_rng(5)
        big = random_atomic(rng, k=60)
        with pytest.raises(CapacityExceeded):
            mc.classical_convolve(big, big, cap=100)
        # 64 pairs are allowed at cap 20, but 36 atoms remain after pruning
        eight = random_atomic(rng, k=8)
        with pytest.raises(CapacityExceeded, match="even after pruning"):
            mc.classical_convolve(eight, eight, cap=20)
        # a pruneable case: many near-zero masses (11 atoms, cap 10)
        w = np.full(6, 1e-16)
        w[0] = 1.0 - w[1:].sum()
        spread = mc.AtomicMeasure(np.linspace(0, 1, 6), w)
        out = mc.classical_convolve(spread, spread, cap=10)
        assert len(out) <= 10
        assert out.pruned_mass > 0
        assert abs(out.total_mass - 1.0) < 1e-12

    def test_pairs_checked_before_allocating(self):
        # a non-lattice law: the 2^k-fold power has C(2^k + 4, 4) atoms, so
        # the pairs outgrow any cap (the 32 -> 64 doubling would form
        # 58 905^2 pairs, 25.9 GiB per array)
        m = mc.atomic([(-1.3, .2), (-0.41421356, .2), (0.1, .2), (0.70710678, .2),
                       (2.23606798, .2)])
        base = mc.classical_power(m, 8)
        assert len(base) == 490
        assert len(mc.classical_convolve(base, base, cap=490**2 // 4)) == 4130
        tracemalloc.start()
        try:
            with pytest.raises(CapacityExceeded, match="atom pairs"):
                mc.classical_convolve(base, base, cap=490**2 // 4 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 490**2 * 8       # not even one array of the pairs


class TestValidationAndJson:
    def test_probability_normalization_enforced(self):
        with pytest.raises(ValueError):
            mc.AtomicMeasure(np.array([0.0]), np.array([0.5]))
        mc.AtomicMeasure(np.array([0.0]), np.array([0.5]), is_probability=False)

    @pytest.mark.parametrize("pairs", [[(math.nan, 0.5), (1.0, 0.5)],
                                       [(0.0, math.nan), (1.0, 0.5)],
                                       [(-math.inf, 0.5), (1.0, 0.5)],
                                       [(0.0, math.inf), (1.0, 0.5)]])
    def test_non_finite_atoms_rejected(self, pairs):
        pos, mas = np.array(pairs).T
        for finite in (False, True):
            with pytest.raises(ValueError, match="finite"):
                mc.AtomicMeasure(pos, mas, is_probability=not finite)
            with pytest.raises(ValueError, match="finite"):
                mc.atomic(pairs, is_probability=not finite)
            # json.dumps writes NaN and Infinity, json.loads reads them back
            text = json.dumps({"type": "atomic", "atoms": pairs, "finite": finite})
            with pytest.raises(ValueError, match="finite"):
                mc.measure_from_json(text)

    def test_grid_density_validation(self):
        with pytest.raises(ValueError):
            mc.GridDensity(0.0, 1e-3, np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            mc.GridDensity(0.0, -1e-3, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("build", [
        lambda bad: mc.GridDensity(0.0, 0.1, np.array([bad, 1.0, 1.0])),
        lambda bad: mc.GridDensity(bad, 0.1, np.array([1.0, 1.0])),
        lambda bad: mc.GridDensity(0.0, bad, np.array([1.0, 1.0])),
        lambda bad: mc.GridDensity(0.0, 0.1, np.array([1.0, 1.0]), clamped_mass=bad),
        lambda bad: mc.ReferenceLaw("arcsine", scale=bad),
        lambda bad: mc.ReferenceLaw("point", c=bad),
        lambda bad: mc.PowerTailLaw(bad),
        lambda bad: mc.PowerTailLaw(3.0, weight=bad),
        lambda bad: mc.PowerTailLaw(3.0, scale=bad),
        lambda bad: mc.AtomicMeasure(np.array([0.0]), np.array([1.0]), pruned_mass=bad),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, build, bad):
        # NaN passes every "< 0" and "<= 0" check; +inf passes "> 1"
        with pytest.raises(ValueError, match="must be finite"):
            build(bad)

    def test_json_roundtrips(self):
        rng = np.random.default_rng(6)
        cases = [random_atomic(rng), mc.arcsine(), mc.normal(), mc.semicircle(),
                 mc.ReferenceLaw("point", c=2.0), NU,
                 mc.GridDensity(-1.0, 0.5, np.array([0.1, 0.2, 0.1])),
                 mc.atomic([(0.5, 0.2)], is_probability=False)]
        for m in cases:
            back = mc.measure_from_json(mc.measure_to_json(m))
            assert type(back) is type(m)
            if isinstance(m, mc.AtomicMeasure):
                assert np.allclose(back.positions, m.positions)
                assert np.allclose(back.masses, m.masses)
                assert back.is_probability == m.is_probability

    def test_json_schema_shape(self):
        doc = json.loads(mc.measure_to_json(BOOLE))
        assert doc == {"type": "atomic", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
        doc = json.loads(mc.measure_to_json(mc.arcsine()))
        assert doc == {"type": "ref", "law": "arcsine"}


@st.composite
def measure_docs(draw):
    """A JSON document of each measure type, with finite fields in moderate ranges."""
    num = lambda lo, hi: draw(st.floats(lo, hi))
    kind = draw(st.sampled_from(["atomic", "grid", "arcsine", "normal", "semicircle",
                                 "point", "powertail"]))
    if kind == "atomic":
        k = draw(st.integers(1, 6))
        pos = draw(st.lists(st.floats(-100.0, 100.0), min_size=k, max_size=k))
        mas = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=k, max_size=k)))
        finite = draw(st.booleans())
        if not finite:
            mas = mas / mas.sum()
        return {"type": "atomic", "atoms": [[p, float(w)] for p, w in zip(pos, mas)],
                "finite": finite}
    if kind == "grid":
        values = draw(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=20))
        return {"type": "grid", "x0": num(-10.0, 10.0), "h": num(1e-3, 1.0), "values": values}
    if kind == "point":
        return {"type": "ref", "law": "point", "c": num(-100.0, 100.0)}
    if kind == "powertail":
        return {"type": "ref", "law": "powertail", "exponent": num(1.1, 5.0),
                "weight": num(1e-2, 10.0), "scale": num(1e-2, 1e2)}
    return {"type": "ref", "law": kind, "scale": num(1e-2, 1e2)}


def numeric_paths(doc):
    """Paths to every number in a measure document."""
    paths = []
    for key, val in doc.items():
        if key == "atoms":
            paths += [(key, i, j) for i in range(len(val)) for j in (0, 1)]
        elif key == "values":
            paths += [(key, i) for i in range(len(val))]
        elif isinstance(val, float):
            paths.append((key,))
    return paths


class TestMeasureJsonProperties:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(doc=measure_docs(), data=st.data(),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_field_rejected(self, doc, data, bad):
        *path, last = data.draw(st.sampled_from(numeric_paths(doc)))
        node = doc
        for key in path:
            node = node[key]
        node[last] = bad
        with pytest.raises(ValueError, match="must be finite"):
            mc.measure_from_json(json.dumps(doc))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(doc=measure_docs())
    def test_round_trip_and_cauchy_bound(self, doc):
        m = mc.measure_from_json(json.dumps(doc))
        text = mc.measure_to_json(m)
        assert mc.measure_to_json(mc.measure_from_json(text)) == text
        G = mc.cauchy_eval(m, 1j)
        assert np.isfinite(G)
        assert abs(G) <= ms.total_mass(m) * (1.0 + 1e-12)
