"""Tests for measure representations, moments, and classical convolution."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import monoclt as mc
from monoclt import clt, measures as ms
from monoclt.errors import CapacityExceeded, NumericBreakdown

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

    @pytest.mark.parametrize("x", [1e154, 1e155, 1e200, 1e300, 1.7976931348623157e308])
    def test_huge_cutoff_stays_finite(self, x):
        # x*x overflows: the terms used to read inf/inf (NaN), or inf at 1e154
        assert mc.harmonic_variance(mc.atomic([(-2.0, 0.25), (1.0, 0.75)]), x) == 1.75
        assert mc.harmonic_variance(mc.point_mass(2.0), x) == 4.0
        grid = mc.GridDensity(-1.0, 0.5, np.full(5, 0.5))
        assert mc.harmonic_variance(grid, x) == mc.moments(grid).m2
        assert abs(mc.harmonic_variance(mc.ReferenceLaw("normal"), x) - 1.0) < 1e-12
        assert abs(mc.harmonic_variance(mc.power_tail(3.5), x) - 5.0) < 1e-12
        # log(1 + x^2) for the x^-3 tail
        assert abs(mc.harmonic_variance(NU, x) - 2.0 * math.log(x)) < 1e-12 * math.log(x)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 31.0, 1e5, 1e10, 1e100, 1e300])
    def test_power_tail_exponent_2_closed_form(self, x):
        # int_1^inf x^2/(t^2 + x^2) dt = x (pi/2 - atan(1/x)) = x atan(x); quad
        # on [1, inf) gave -3.0 for exponent 2.5 from x ~ 1e5 on
        w = 0.75
        exact = 2.0 * w * x * math.atan(x)
        assert abs(mc.harmonic_variance(mc.PowerTailLaw(2.0, w), x) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("p", [1.5, 2.5])
    def test_heavy_power_tail_grows(self, p):
        xs = np.concatenate([np.geomspace(1e-3, 1e200, 80), [1.0, np.nextafter(1.0, 2.0)]])
        ls = [mc.harmonic_variance(mc.PowerTailLaw(p, 0.75), x) for x in np.sort(xs)]
        assert all(math.isfinite(v) and v >= 0.0 for v in ls)
        assert all(a <= b for a, b in zip(ls, ls[1:]))
        # L grows like x^(3 - p): 2 w x^(3-p) pi/(2 cos(pi (2-p)/2)) to leading order
        lead = 1.5 * 1e200 ** (3.0 - p) * math.pi / (2.0 * math.cos(math.pi * (2.0 - p) / 2.0))
        assert abs(ls[-1] / lead - 1.0) < 1e-12

    @pytest.mark.parametrize("p, w, closed", [
        (4.0, 0.75, lambda x: 1.5 * (1.0 - math.atan(x) / x)),
        (5.0, 2.0, lambda x: 2.0 - 2.0 * math.log1p(x * x) / (x * x)),
    ])
    @pytest.mark.parametrize("x", [2.0, 10.0, 1e3, 1e5, 1e8, 1e12])
    def test_light_power_tail_closed_form(self, p, w, closed, x):
        # quad on [1, inf) missed the turn at t ~ x: 1.5000000001490 at p = 4, x = 1e5
        law = mc.PowerTailLaw(p, w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # no step warns
            got = mc.harmonic_variance(law, x)
        assert abs(got - closed(x)) <= 1e-12 * closed(x)
        assert got <= mc.moments(law).m2

    @pytest.mark.parametrize("p", [3.5, 8.0, 12.0])
    def test_light_power_tail_quadrature_converges(self, p):
        law = mc.PowerTailLaw(p, 0.75)
        xs = np.concatenate([np.geomspace(1e-3, 1e12, 31), [1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ls = [mc.harmonic_variance(law, x) for x in xs]
        assert all(a <= b for a, b in zip(ls, ls[1:]))
        assert ls[-1] == mc.moments(law).m2

    def test_overflowing_power_tail_is_typed(self):
        with pytest.raises(NumericBreakdown, match="overflows"):
            mc.harmonic_variance(mc.PowerTailLaw(1.5, 0.75), 1e300)

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


@pytest.mark.parametrize("call", [
    lambda: mc.moments(mc.ReferenceLaw("normal", scale=1e200)),
    lambda: mc.moments(mc.point_mass(1e200)),
    lambda: mc.moments(mc.PowerTailLaw(4.0, 0.75, 1e200)),
    lambda: mc.truncated_variance(mc.PowerTailLaw(4.0, 0.75, 1e200), 1e250),
    lambda: mc.truncated_variance(mc.PowerTailLaw(1.5, 0.25), 1e300),
    lambda: mc.truncated_variance(mc.point_mass(1e200), 1e250),
    lambda: mc.harmonic_variance(mc.PowerTailLaw(2.5, 0.75, 1e200), 1e250),
    lambda: mc.harmonic_variance(mc.ReferenceLaw("normal", scale=1e200), 1e250),
])
def test_overflowing_closed_form_is_typed(call):
    # Python's float power used to raise a bare OverflowError here; only the
    # typed error comes out, with no RuntimeWarning of numpy's before it
    with warnings.catch_warnings(), pytest.raises(NumericBreakdown, match="overflows"):
        warnings.simplefilter("error", RuntimeWarning)
        call()


@pytest.mark.parametrize("law", [
    mc.atomic([(-1e200, 0.5), (1e200, 0.5)]),
    mc.atomic([(1e160, 1.0)], is_probability=False),
    mc.atomic([(1e308, 10.0)], is_probability=False),
    mc.GridDensity(1e200, 1e190, np.full(3, 1e-190)),
])
def test_overflowing_bounded_moments_are_typed(law):
    # a law of bounded support has finite moments: inf would read as divergence
    with pytest.raises(NumericBreakdown, match="overflows"):
        mc.moments(law)
    if isinstance(law, mc.AtomicMeasure) and law.is_probability:
        with pytest.raises(NumericBreakdown, match="overflows"):
            clt.norming_constants(law, [4])


class TestTinyScalePowerTail:
    """H and L of ``PowerTailLaw(p, w, scale)`` for p < 3, whose
    ``scale**2 * u**(3 - p)`` (u = x/scale) is a float although a factor is
    not, against 50-digit references."""

    CASES = [(1e-200, 1.0), (1e-200, 1e100), (1.0, 2.0), (1.0, 1e3), (1.0, 1e100),
             (1e100, 2e100), (1e100, 1e150)]

    @staticmethod
    def references(p, w, b, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            p, w, b, x = map(mpmath.mpf, (p, w, b, x))
            u, a = x / b, 3 - p
            h = 2 * w * b**2 * (u**a - 1) / a
            # int_1^inf s^(2-p) u^2/(s^2 + u^2) ds = u^a int_(1/u)^inf r^(2-p)/(1 + r^2) dr
            head = u**-a / a * mpmath.hyp2f1(1, a / 2, a / 2 + 1, -u**-2)
            l = 2 * w * b**2 * u**a * (mpmath.pi / (2 * mpmath.cos(mpmath.pi * (2 - p) / 2)) - head)
            return float(h), float(l)

    @pytest.mark.parametrize("p", [1.5, 2.5])
    @pytest.mark.parametrize("b, x", CASES)
    def test_against_mpmath(self, p, b, x):
        w = 0.25 if p == 1.5 else 0.75
        m = mc.PowerTailLaw(p, w, b)
        h, l = self.references(p, w, b, x)
        assert abs(mc.truncated_variance(m, x) - h) <= 1e-12 * h
        assert abs(mc.harmonic_variance(m, x) - l) <= 1e-12 * l


class TestCompactLawL:
    """L of the arc-sine and semicircle laws against ``x^2 (1 + x Im G(ix))``
    in mpmath, with the working precision raised past its cancellation."""

    XS = [1e-5, 1e-8] + [c * 10.0 ** e for e in range(-300, 301, 13) for c in (1.0, 3.7)]

    @staticmethod
    def reference(kind, scale, x):
        mpmath = pytest.importorskip("mpmath")
        # 1 + u Im G(iu) ~ r^2/(2 u^2) loses about 4 log10(u) digits at large u
        with mpmath.workdps(50 + 4 * max(0, round(math.log10(x) - math.log10(scale)))):
            u = mpmath.mpf(x) / scale
            im_g = -1 / mpmath.sqrt(u * u + 2) if kind == "arcsine" else (u - mpmath.sqrt(u * u + 4)) / 2
            return scale**2 * u * u * (1 + u * im_g)

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
    @pytest.mark.parametrize("kind", ["arcsine", "semicircle"])
    def test_against_mpmath(self, kind, scale):
        m = mc.ReferenceLaw(kind, scale=scale)
        for x in self.XS:
            want = self.reference(kind, scale, x)
            # below the normal range L underflows and only its absolute error counts
            assert abs(mc.harmonic_variance(m, x) - want) <= 1e-15 * want + np.finfo(float).tiny, x


class TestDilationLaw:
    """``L(D_b m, b x) = b^2 L(m, x)``: bit for bit at b = 2^k for the laws of
    the one sum of terms, whose operands it scales by powers of two, and
    within 1e-15 for the closed forms."""

    KS = list(range(-480, 481, 24)) + [-1, 1, 479]
    XS = np.array([1e-3, 0.37, 1.0, 2.5, 40.0, 1e6, 1e150])

    @staticmethod
    def sum_laws(k):
        b = 2.0**k
        pos = np.array([-3.0, -1.0, -0.25, 0.5, 2.0, 7.0])
        return [mc.AtomicMeasure(pos * b, np.full(6, 1.0 / 6.0)),
                mc.AtomicMeasure(np.array([0.0, 3.0]) * b, np.array([0.5, 2.0]), is_probability=False),
                mc.GridDensity(-2.0 * b, 0.01 * b, np.linspace(0.0, 1.0, 401) / b),
                mc.point_mass(-1.5 * b)]

    @pytest.mark.parametrize("k", KS)
    def test_sum_laws_bit_for_bit(self, k):
        # built directly: dilate would merge atoms at tiny scales
        for m, mk in zip(self.sum_laws(0), self.sum_laws(k)):
            want = np.ldexp(mc.harmonic_variance(m, self.XS), 2 * k)
            got = mc.harmonic_variance(mk, np.ldexp(self.XS, k))
            assert got.tobytes() == want.tobytes(), (m, k)

    @pytest.mark.parametrize("k", KS)
    def test_closed_forms(self, k):
        laws = [mc.normal(), mc.arcsine(), mc.semicircle()] + [
            mc.PowerTailLaw(p, 0.75) for p in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 8.0)]
        for m in laws:
            mk = ms.dilate(m, 2.0**k)
            for x in self.XS:
                l, xk = mc.harmonic_variance(m, x), math.ldexp(x, k)
                if math.frexp(l)[1] + 2 * k > 1024:         # 4^k L is past the floats
                    with pytest.raises(NumericBreakdown, match="overflows"):
                        mc.harmonic_variance(mk, xk)
                    continue
                want = math.ldexp(l, 2 * k)
                assert abs(mc.harmonic_variance(mk, xk) - want) <= 1e-15 * want, (m, x)

    def test_array_cutoffs_match_scalar_ones(self):
        xs = np.array([[0.5, 1.0], [1.5, 1e3]])
        for m in (BOOLE, mc.normal(), NU, mc.point_mass(2.0)):
            got = mc.harmonic_variance(m, xs)
            assert got.shape == xs.shape
            assert got.tolist() == [[mc.harmonic_variance(m, x) for x in row] for row in xs.tolist()]
        with pytest.raises(ValueError):
            mc.harmonic_variance(BOOLE, np.array([1.0, 0.0]))


def test_frame_cache_is_thread_safe():
    # L keeps the atoms' side of its last frame on the measure; threads that
    # need other frames must never read one another's
    import sys
    import threading
    m = mc.AtomicMeasure(np.linspace(-3.0, 7.0, 50), np.full(50, 0.02))
    xs = [1e-60, 1e-20, 1.0, 1e60]           # frames -256, -128, 0 and 0
    want = {x: mc.harmonic_variance(m, x) for x in xs}
    wrong = []

    def work(k):
        for j in range(400):
            x = xs[(j + k) % len(xs)]
            if mc.harmonic_variance(m, x) != want[x]:
                wrong.append(x)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


class TestClosedFormL:
    """L of the normal law and of power tails against mpmath for x from 1e-300
    to 1e300 at scales 1e-100, 1 and 1e100: within 1e-15 (normal) and 2e-15
    (power tails) relative, plus ``float_info.tiny`` where L underflows, and
    :class:`NumericBreakdown` where L overflows."""

    XS = [c * 10.0 ** e for e in range(-300, 301, 20) for c in (1.0, 3.7)]
    US = [0.3, 0.99, 1.0, 1.2, 1.5, 1.51, 2.0, 2.9, 30.0]     # near the branch points

    @staticmethod
    def reference_normal(s, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            u = mpmath.mpf(x) / s
            if u > 1e6:     # 1 - u M(u) = u^-2 - 3 u^-4 + ..., Mills' ratio M
                q = 1 / (u * u)
                return s**2 * (1 - 3 * q + 15 * q * q - 105 * q**3)
            with mpmath.workdps(60 + 2 * max(0, int(mpmath.log10(u + 1)))):
                m = mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(u / mpmath.sqrt(2)) * mpmath.exp(u * u / 2)
                return s**2 * u * u * (1 - u * m)

    @staticmethod
    def reference_power_tail(p, w, b, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            p, w, b, x = map(mpmath.mpf, (p, w, b, x))
            u, beta = x / b, (p - 1) / 2
            return 2 * w * b**2 * u**2 / (p - 1) * mpmath.hyp2f1(1, beta, beta + 1, -u * u)

    @staticmethod
    def check(m, x, want, rtol):
        if want > np.finfo(float).max:
            with pytest.raises(NumericBreakdown, match="overflows"):
                mc.harmonic_variance(m, x)
        else:
            got = mc.harmonic_variance(m, x)
            assert abs(got - want) <= rtol * want + np.finfo(float).tiny, (m, x)

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_normal(self, scale):
        m = mc.normal(scale)
        for x in self.XS + [u * scale for u in self.US]:
            self.check(m, x, self.reference_normal(scale, x), 1e-15)

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 3.5, 4.0, 5.0, 8.0])
    def test_power_tail(self, p, scale):
        m = mc.PowerTailLaw(p, 0.75, scale)
        for x in self.XS + [u * scale for u in self.US]:
            self.check(m, x, self.reference_power_tail(p, 0.75, scale, x), 2e-15)


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
        lambda bad: mc.point_mass(bad),
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
                 mc.point_mass(2.0), NU,
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


@pytest.mark.parametrize("text, field", [
    ('{"type": "atomic", "atoms": 5}', "atoms"),
    ('{"type": "ref", "law": "normal", "scale": "2"}', "scale"),
    ('{"type": "ref", "law": "powertail", "exponent": "3"}', "exponent"),
    ('{"type": "grid", "x0": "a", "h": 1, "values": [1, 2]}', "x0"),
    ('{"type": "atomic", "atoms": [[0, 1]], "finite": "yes"}', "finite"),
    ('{"type": "atomic", "atoms": [[0, true]]}', "atoms"),
    ('{"type": "atomic", "atoms": [[0, 0.5, 0.5]]}', "atoms"),
    ('{"type": "grid", "x0": 0, "h": 1}', "values"),
    ('{"type": "grid", "x0": 0, "h": 1, "values": ["1", 2]}', "values"),
    ('{"type": "ref", "law": "point", "c": false}', "c"),
    ('{"type": "ref", "law": ["normal"]}', "law"),
])
def test_mistyped_json_field_is_named(text, field):
    # a string, a bool or a missing field raised TypeError or KeyError, or
    # read "yes" as a finite measure
    with pytest.raises(ValueError, match=f"field '{field}'"):
        mc.measure_from_json(text)
