"""Norming constants, regular-variation diagnostics, and CLT experiments.

The scaled monotone powers ``D_{1/B_n} m^(n)`` converge to the arc-sine
law exactly when the classical scaled sums converge to the Gaussian, and
the same norming constants work for both.  This module computes those
constants three ways (`norming_constants` picks the rule):

* ``variance``        -- ``B_n = sqrt(n * var)`` for finite variance,
* ``h-cutoff``        -- the largest solution of ``n*H(y) = y^2`` (the
  classical cutoff; exact step-scan for atomic measures, a bisection over
  the float64 lattice up to +inf for closed-form tails),
* ``sigma-criterion`` -- the largest solution of
  ``n*(L_sigma(y) + sigma(R)) = y^2``, phrased directly in terms of the
  singular part of the Nevanlinna representation; this is the rule for
  laws *given* through their transform, a `transforms.NevanlinnaMap`.  L is
  `measures.harmonic_variance`, as for every other caller.

The literal infimum form of the cutoff degenerates to 0 whenever H
vanishes near 0, so the largest-solution convention is used throughout;
it reproduces ``sqrt(n*var)`` exactly in the finite-variance case.

Experiments: sup-grid transform deviation and CDF distance per n
(`clt_report`), the square-root conjugacy telescoping (`conjugacy_trace`)
and the iterate drift bound (`drift_bound_check`); conjugacy and drift read
the half-plane orbit ``F^(j)(B z)/B`` of `transforms._orbit`, as
:mod:`monoclt.ergodic` does.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import convolve as cv
from . import measures as ms
from . import transforms as tf
from .errors import (CapacityExceeded, DegenerateMeasure, DomainError, NonConvergence,
                     NumericBreakdown)

__all__ = [
    "NormingSequence",
    "norming_constants",
    "sigma_criterion_constants",
    "norming_ratio_check",
    "RatioReport",
    "slow_variation_report",
    "SlowVariationReport",
    "h_function",
    "CltRow",
    "CltReport",
    "clt_report",
    "ConjugacyTrace",
    "conjugacy_trace",
    "DriftReport",
    "drift_bound_check",
    "default_z_grid",
]

Source = ms.Measure | tf.SelfMap


@dataclass(frozen=True)
class NormingSequence:
    """Positive norming constants ``B_n`` for the given indices."""

    ns: np.ndarray
    values: np.ndarray
    provenance: str

    def __post_init__(self):
        ns = np.atleast_1d(np.asarray(self.ns, dtype=np.int64))
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if ns.shape != vals.shape:
            raise ValueError("ns and values must have equal length")
        if np.any(vals <= 0):
            raise ValueError("norming constants must be positive")
        ns.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "values", vals)

    def at(self, n: int) -> float:
        """The constant stored for `n`, in whatever order `ns` was given."""
        hit = np.flatnonzero(self.ns == n)
        if not hit.size:
            raise KeyError(f"no norming constant stored for n={n}")
        return float(self.values[hit[0]])


def _is_degenerate(m: ms.Measure) -> bool:
    return isinstance(m, ms.AtomicMeasure) and len(m) == 1


def h_function(m: ms.Measure):
    """The truncated variance of `m` as a callable."""
    return lambda x: ms.truncated_variance(m, x)


def _cutoff_atomic(m: ms.AtomicMeasure, ns: np.ndarray) -> np.ndarray:
    """Largest solution of ``n*H(y) = y^2`` for a step-function H, exactly.

    On each plateau ``H = S_j`` the candidate root is ``sqrt(n*S_j)``; it is
    genuine iff it lands inside the plateau.  The largest genuine candidate
    is the cutoff.
    """
    abspos = np.abs(m.positions)
    order = np.argsort(abspos)
    taus = abspos[order]
    contrib = (m.positions**2 * m.masses)[order]
    # collapse duplicate |t| values
    uniq, inverse = np.unique(np.round(taus, 15), return_inverse=True)
    sums = np.zeros(len(uniq))
    np.add.at(sums, inverse, contrib)
    S = np.cumsum(sums)
    pos_mask = S > 0
    if not np.any(pos_mask):
        raise DegenerateMeasure("measure has no second-moment mass away from 0")
    taus, S = uniq[pos_mask], S[pos_mask]
    upper = np.append(taus[1:], np.inf)

    cand = np.sqrt(np.multiply.outer(ns.astype(float), S))      # (n, plateau)
    valid = (cand >= taus) & (cand < upper)
    cand = np.where(valid, cand, -np.inf)
    best = cand.max(axis=1)
    # fall back to the asymptotic top-plateau root if no plateau captures it
    return np.where(np.isfinite(best), best, np.sqrt(ns * S[-1]))


def _largest_root(g, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, the root of ``g(y, rows) = n*(...) - y^2`` between `lo`, where
    ``g >= 0`` (else the row ends next to `lo`), and `hi` (maybe +inf), by
    `tf._lattice_bisect` of ``-g``.  A probe where g is NaN or +inf, or a
    row whose ``hi`` never leaves +inf, raises :class:`NonConvergence`."""
    def minus_g(y, rows):
        v = g(y, rows)
        bad = np.isnan(v) | (v == np.inf)
        if bad.any():
            raise NonConvergence(f"the norming equation is not finite at y = {y[bad][0]!r}")
        return -v

    with np.errstate(over="ignore", invalid="ignore"):
        root = tf._lattice_bisect(minus_g, lo, hi)
    if not np.isfinite(root).all():
        raise NonConvergence("the norming equation has no root below the largest float")
    return root


def _cutoff_bisect(h, ns: np.ndarray, lo_seed: float) -> np.ndarray:
    """Vectorized largest root of ``n*h(y) = y^2`` above ``max(sqrt(n*h(lo_seed)), lo_seed)``.

    `h` must be vectorized, nondecreasing, and positive at `lo_seed`.  A row
    with ``n*h(lo_seed) < lo_seed^2`` has no root there to bracket (n <= 2
    for ``power_tail(3)``, where ``2n log y < y^2`` for every y); like the
    top plateau of `_cutoff_atomic`, it takes `lo_seed`, the least cutoff
    the search allows.
    """
    ns = ns.astype(float)
    nh = ns * h(np.full(ns.shape, lo_seed))
    lo = np.maximum(np.sqrt(nh), lo_seed)  # ensure h(lo) >= h(lo_seed) by monotonicity
    root = _largest_root(lambda y, rows: ns[rows] * h(y) - y * y, lo, np.full(ns.shape, np.inf))
    return np.where(nh < lo_seed * lo_seed, lo_seed, root)


def norming_constants(m: Source, ns=None, N: int | None = None,
                      method: str = "auto") -> NormingSequence:
    """Norming constants for the scaled powers of `m`.

    ``method='auto'`` takes ``sqrt(n*var)`` when the variance is finite and
    the largest solution of ``n*H(y) = y^2`` otherwise; the two routes agree
    asymptotically (and exactly, for centered atomic measures once n is
    moderate).  Raises :class:`DegenerateMeasure` for point masses.  An n
    with no cutoff above the closed-form search's seed takes the seed
    (`_cutoff_bisect`), as an atomic law's takes its top plateau.  A
    `transforms.NevanlinnaMap` takes only 'auto', the sigma criterion of its
    sigma (a translation, sigma None, is degenerate); other maps raise
    ``ValueError``.
    """
    if _is_degenerate(m):
        raise DegenerateMeasure("norming constants are undefined for a point mass")
    if ns is None:
        if N is None:
            raise ValueError("pass ns or N")
        ns = np.arange(1, N + 1)
    ns = np.atleast_1d(np.asarray(ns, dtype=np.int64))
    if isinstance(m, tf.SelfMap):
        if not isinstance(m, tf.NevanlinnaMap) or method != "auto":
            raise ValueError(f"no {method!r} norming rule for a {type(m).__name__}")
        if m.rep.sigma is None:
            raise DegenerateMeasure("norming constants are undefined for a translation")
        return sigma_criterion_constants(m.rep.sigma, ns)
    mm = ms.moments(m)
    if method == "auto":
        method = "variance" if math.isfinite(mm.var) else "h-cutoff"
    if method == "variance":
        if not math.isfinite(mm.var) or mm.var <= 0:
            raise DegenerateMeasure("variance route needs finite positive variance")
        return NormingSequence(ns, np.sqrt(ns * mm.var), "variance")
    if method != "h-cutoff":
        raise ValueError(f"unknown method {method!r}")
    if isinstance(m, ms.AtomicMeasure):
        return NormingSequence(ns, _cutoff_atomic(m, ns), "h-cutoff")
    h = np.vectorize(h_function(m))
    if isinstance(m, ms.PowerTailLaw):
        seed = 2.0 * m.scale
    else:
        # just past where H exceeds m2/2: sqrt(n*H) exceeds that from n ~ 5 on, so the
        # bisection starts where n*H(y) >= y^2, past the roots of n*H ~ y^3 near 0
        half = 0.5 * ms.moments(m).m2
        root = tf._lattice_bisect(lambda x, rows: h(x) - half, [0.0], [np.inf])
        seed = np.nextafter(root[0], np.inf)
        if seed == np.inf:
            raise DegenerateMeasure("could not find positive truncated variance")
    return NormingSequence(ns, _cutoff_bisect(h, ns, float(seed)), "h-cutoff")


def sigma_criterion_constants(sigma: ms.AtomicMeasure, ns) -> NormingSequence:
    """Norming constants from the singular part: largest root of
    ``n*(L_sigma(y) + sigma(R)) = y^2``.

    This is the selection rule matched to measures given through their
    transform, where H of the measure itself is not directly computable.
    Where ``g = n*(L + sigma(R)) - y^2`` one part in 1e6 to either side of
    the root found is within its own rounding, as when its terms agree to all
    their digits, the root is not resolved and this raises
    :class:`NonConvergence`.
    """
    ns = np.atleast_1d(np.asarray(ns, dtype=np.int64))
    S = sigma.total_mass
    nsf = ns.astype(float)

    def g(y, rows):     # and a bound on its rounding, 64 ulps of its terms
        a, b = nsf[rows] * (ms.harmonic_variance(sigma, y) + S), y * y
        return a - b, 64 * np.finfo(float).eps * (a + b)

    lo = np.sqrt(nsf * S)                      # g(lo) = n*L(lo) >= 0 always
    # L <= sum w t^2, so g(hi) <= 0
    hi = np.sqrt(nsf * (float(np.dot(sigma.positions**2, sigma.masses)) + S))
    B = _largest_root(lambda y, rows: g(y, rows)[0], lo, hi)
    for side in (1.0 - 1e-6, 1.0 + 1e-6):
        v, bound = g(B * side, slice(None))
        if (unresolved := np.abs(v) <= bound).any():
            raise NonConvergence(f"the sigma criterion's root near y = {float(B[unresolved][0])!r} "
                                 "is within the rounding of n*(L + S) - y^2")
    return NormingSequence(ns, B, "sigma-criterion")


@dataclass(frozen=True)
class RatioReport:
    """Ratios ``r_n = n * B_n^-2 * (L_sigma(B_n*y) + sigma(R))`` and the
    worst tail deviation ``|r_n - 1|`` over the upper half of the indices."""

    ns: np.ndarray
    ratios: np.ndarray
    tail_max_dev: float


def norming_ratio_check(sigma: ms.AtomicMeasure, B: NormingSequence, y: float = 1.0) -> RatioReport:
    """Check the norming selection rule on the singular part `sigma` against
    given constants (`y` finite and positive, else :class:`DomainError`; a
    non-finite ratio :class:`NumericBreakdown`)."""
    if not (math.isfinite(y) and y > 0):
        raise DomainError(f"the ratio check needs a finite y > 0, got {y!r}")
    if sigma is None:
        raise DegenerateMeasure("ratio check needs a nonzero singular part")
    S = sigma.total_mass
    nsf = B.ns.astype(float)
    with np.errstate(over="ignore"):      # B_n y may overflow, to L's limit sum w t^2
        r = nsf / B.values**2 * (ms.harmonic_variance(sigma, B.values * y) + S)
    if not np.isfinite(r).all():
        raise NumericBreakdown(f"a norming ratio at y = {y!r} is not finite: {r!r}")
    tail = B.ns >= (B.ns[-1] // 2 if len(B.ns) > 1 else B.ns[-1])
    return RatioReport(B.ns, r, float(np.abs(r[tail] - 1.0).max()))


@dataclass(frozen=True)
class SlowVariationReport:
    """Dilation ratios ``f(c*x)/f(x)`` and the log-log slope estimate."""

    c_values: np.ndarray
    x_values: np.ndarray
    ratios: np.ndarray          # shape (n_c, n_x)
    index_estimate: float


def slow_variation_report(fn, c_list, x_list) -> SlowVariationReport:
    """Regular-variation diagnostics for a positive function.

    A slowly varying function has all ratios tend to 1 and log-log slope 0;
    slope ``d`` estimates the index of regular variation.
    """
    cs = np.atleast_1d(np.asarray(c_list, dtype=float))
    xs = np.atleast_1d(np.asarray(x_list, dtype=float))
    fx = np.array([fn(x) for x in xs])
    if np.any(fx <= 0):
        raise ValueError("function must be positive at the sampled points")
    ratios = np.empty((len(cs), len(xs)))
    for i, c in enumerate(cs):
        ratios[i] = np.array([fn(c * x) for x in xs]) / fx
    if len(xs) >= 2:
        slope = float(np.polyfit(np.log(xs), np.log(fx), 1)[0])
    else:
        slope = math.nan
    return SlowVariationReport(cs, xs, ratios, slope)


def default_z_grid() -> np.ndarray:
    """Purely imaginary test grid ``iy`` for transform convergence."""
    return 1j * np.linspace(1.0, 5.0, 9)


@dataclass(frozen=True)
class CltRow:
    n: int
    B: float
    f_dev: float
    ks_arcsine: float | None
    ks_normal: float | None
    runtime_s: float


@dataclass(frozen=True)
class CltReport:
    """Per-n convergence report for the three convolution calculi."""

    rows: tuple
    monotone_ok: bool           # sup-grid deviation nonincreasing up to 20% slack
    h_index_estimate: float     # slow-variation diagnostic for H of the input


def clt_report(source: Source, n_list, *, B: NormingSequence | None = None,
               eta: float = 1e-2, grid: np.ndarray | None = None,
               with_ks: bool = True) -> CltReport:
    """Convergence of the scaled powers of `source` toward the limit laws.

    `source` is a measure or directly a half-plane self-map (for measures
    that are defined through their transform).  A measure is centered by
    its mean first; a map source is taken as already centered.  `B`
    defaults to `norming_constants` of the centered source.  For each n the
    report records the sup over `default_z_grid` of the deviation from the
    arc-sine transform, the CDF distance of the inverted scaled power to the
    arc-sine law, and (for atomic inputs) the exact classical column against
    the Gaussian with the *same* constants.

    That column (``ks_normal``, None for any other source) is the
    classical power of the centered law; a law on a lattice ``b + a*Z`` (see
    :func:`~monoclt.convolve.classical_power`) is powered on ``b - mean +
    a*Z``, since the centered positions need not keep an exact lattice.  It
    is None where the power exceeds the atom cap.
    """
    n_arr = np.atleast_1d(np.asarray(n_list, dtype=np.int64))
    centered, h_fn = source, None
    if not isinstance(source, tf.SelfMap):
        if _is_degenerate(source):
            raise DegenerateMeasure("clt_report needs a nondegenerate measure")
        mean = ms.moments(source).mean
        if not math.isfinite(mean):
            raise DomainError("clt_report needs a finite (or zero) mean to center")
        centered = ms.shift(source, -mean) if mean != 0.0 else source
        h_fn = h_function(centered)
    if B is None:
        B = norming_constants(centered, ns=n_arr)
    zg = default_z_grid()
    target = tf.f_eval(tf.ArcsineMap(), zg)

    rows = []
    for n in n_arr:
        t0 = time.time()
        Bn = B.at(int(n))
        M = tf.ScaledPowerMap(centered, int(n), Bn)
        f_dev = float(np.abs(tf.f_eval(M, zg) - target).max())
        ks_arc = None
        if with_ks:
            dens = tf.measure_from_map(M, grid=grid, eta=eta)
            ks_arc = tf.ks_distance(dens, ms.arcsine())
        ks_norm = None
        if isinstance(source, ms.AtomicMeasure):
            try:
                power = cv._centered_power(source, int(n), mean)
                ks_norm = tf.ks_distance(ms.dilate(power, 1.0 / Bn), ms.normal())
            except CapacityExceeded:
                ks_norm = None
        rows.append(CltRow(int(n), Bn, f_dev, ks_arc, ks_norm, time.time() - t0))

    devs = [r.f_dev for r in rows]
    monotone_ok = all(devs[i + 1] <= 1.2 * devs[i] for i in range(len(devs) - 1))
    h_idx = math.nan
    if h_fn is not None:
        xs = np.geomspace(max(B.values.max(), 10.0), 10.0 * max(B.values.max(), 10.0), 5)
        try:
            h_idx = slow_variation_report(h_fn, [2.0], xs).index_estimate
        except ValueError:
            pass
    return CltReport(tuple(rows), monotone_ok, h_idx)


@dataclass(frozen=True)
class ConjugacyTrace:
    """Iteration of the scaled map seen through the square-root conjugacy.

    ``lhs`` is the direct value ``F^(n)(sqrt z)^2``; ``telescoped`` rebuilds
    it as ``z + sum_j R(w_j)`` with ``R(w) = F_1(w)^2 - w^2`` along the
    orbit.  The two must agree to roundoff; for centered measures with
    slowly varying H the remainder sum tends to -2.
    """

    lhs: complex
    telescoped: complex
    remainder_sum: complex
    terms: np.ndarray


def conjugacy_trace(source: Source, n: int, z: complex, B: float) -> ConjugacyTrace:
    """Telescoped iteration at ``z = -y^2`` with ``y > 10`` (finite, else
    :class:`DomainError`, as is a `B` that is not finite and positive;
    :class:`NumericBreakdown` if a result is not finite)."""
    zc = complex(z)
    if not (np.isfinite(zc) and zc.imag == 0.0 and zc.real < -100.0 and 0 < B < math.inf):
        raise DomainError("conjugacy trace needs a finite z = -y^2 with y > 10 and a "
                          f"finite B > 0, got z = {zc!r}, B = {B!r}")
    with np.errstate(over="ignore", invalid="ignore"):     # a subnormal B overflows w
        w = tf._orbit(source, B * complex(tf.sqrt_upper(zc)), n) / B
        terms = np.diff(w * w)
        total = complex(terms.sum())
        lhs, telescoped = complex(w[-1] * w[-1]), zc + total
    if not np.isfinite([lhs, telescoped]).all():      # as is the sum, if a term is not
        raise NumericBreakdown(f"conjugacy trace from z = {zc!r}: {lhs!r}, {telescoped!r}")
    return ConjugacyTrace(lhs=lhs, telescoped=telescoped, remainder_sum=total, terms=terms)


@dataclass(frozen=True)
class DriftReport:
    """Deviations ``|F_1^(j)(iy) - iy|`` against the ``10*j/n`` drift bound."""

    js: np.ndarray
    deviations: np.ndarray
    bounds: np.ndarray
    violations: np.ndarray


def drift_bound_check(source: Source, n: int, y: float, j_list, B: float) -> DriftReport:
    """Track the orbit of ``iy`` under the scaled one-step map (`y` finite,
    else :class:`DomainError`, as is a `B` that is not finite and positive;
    :class:`NumericBreakdown` if a deviation is not finite)."""
    if not (math.isfinite(y) and 0 < B < math.inf):
        raise DomainError(f"the drift bound needs a finite y and B > 0, got y = {y!r}, B = {B!r}")
    if y <= 10:
        raise ValueError("the drift bound applies for y > 10")
    js = np.unique(np.asarray(j_list, dtype=np.int64))
    if js[0] < 0 or js[-1] > n:
        raise ValueError("j values must lie in [0, n]")
    iy = complex(0.0, y)
    with np.errstate(over="ignore", invalid="ignore"):     # a subnormal B overflows them
        devs = np.abs(tf._orbit(source, B * iy, int(js[-1]))[js] / B - iy)
    if not np.all(np.isfinite(devs)):
        raise NumericBreakdown(f"the drift from iy = {iy!r} is not finite: {devs!r}")
    bounds = 10.0 * js / n
    return DriftReport(js, devs, bounds, devs > bounds + 1e-12)

