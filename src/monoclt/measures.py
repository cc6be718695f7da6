"""Measures on the real line: atomic, grid-sampled, and closed-form laws.

The workbench manipulates four concrete representations:

* :class:`AtomicMeasure` -- a finite weighted point set (probability or
  general finite positive measure),
* :class:`GridDensity` -- a nonnegative density sampled on a uniform grid
  (the output format of Stieltjes inversion),
* :class:`ReferenceLaw` -- closed-form laws (arc-sine, standard normal,
  standard semicircle), optionally dilated,
* :class:`PowerTailLaw` -- symmetric densities ``~ |t|**-p`` outside a
  cutoff, the standard source of slowly varying truncated variances.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads.  Every numeric
field must be finite: a NaN or an infinity raises ``ValueError``.

Moment-type quantities use an explicit ``inf`` sentinel for divergent
integrals; no operation is allowed to overflow instead.  The smoothed
truncated variance L (`harmonic_variance`) is the library's only L: one sum
for atomic and grid laws and a closed form for the others, with no
quadrature anywhere.  For finite
(non-probability) measures ``mean`` and ``m2`` are the raw integrals
``int t dm`` and ``int t^2 dm``; ``var`` always refers to the normalized
law, so the two conventions agree on probability measures.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapacityExceeded, NumericBreakdown

__all__ = [
    "AtomicMeasure",
    "GridDensity",
    "ReferenceLaw",
    "PowerTailLaw",
    "Measure",
    "Moments",
    "atomic",
    "point_mass",
    "arcsine",
    "normal",
    "semicircle",
    "power_tail",
    "moments",
    "truncated_variance",
    "harmonic_variance",
    "tail",
    "dilate",
    "shift",
    "classical_convolve",
    "measure_to_json",
    "measure_from_json",
]

#: positions closer than MERGE_TOL*(1+|x|) are considered one atom
MERGE_TOL = 1e-12

#: default cap on atom counts produced by classical convolution
DEFAULT_ATOM_CAP = 2_000_000

#: atoms lighter than this are pruned when the cap is hit
PRUNE_MASS = 1e-15

#: classical convolution forms at most this many atom pairs per atom of its
#: cap before merging: the pairs and the merge's temporaries take about 75
#: bytes each, so 8e6 pairs (600 MB) at the default cap.  The powers of a
#: lattice law (`convolve.classical_power`) convolve mass vectors instead,
#: within the same budget of atom pairs (nonzero masses), and hold only the
#: vectors: the 10^4-fold power of a coin in the first demo forms at most
#: 5.7e6 products (1511 x 3421 masses) in one convolution, in under 0.1 MB.
_PAIRS_PER_CAP_ATOM = 4

_PROB_TOL = 1e-12


def _require_finite(what: str, *values):
    """Refuse NaN and infinities, which pass every ``< 0`` or ``<= 0`` check."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError(f"{what} must be finite")


def _merge_atoms(positions: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort atoms and coalesce numerically coincident positions.

    A group of coincident atoms sits at its mass-weighted mean position; an
    atom with no neighbour keeps its position bit for bit.
    """
    order = np.argsort(positions, kind="stable")
    pos = positions[order]
    mas = masses[order]
    if len(pos) < 2:
        return pos, mas
    gaps = np.diff(pos)
    tol = MERGE_TOL * (1.0 + np.abs(pos[:-1]))
    # group id increases whenever the gap to the previous atom is significant
    group = np.concatenate(([0], np.cumsum(gaps > tol)))
    ngroups = int(group[-1]) + 1
    merged_mass = np.zeros(ngroups)
    np.add.at(merged_mass, group, mas)
    weighted_pos = np.zeros(ngroups)
    np.add.at(weighted_pos, group, pos * mas)
    merged_pos = weighted_pos / merged_mass
    single = np.bincount(group) == 1
    merged_pos[single] = pos[single[group]]
    return merged_pos, merged_mass


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive measure supported on finitely many points.

    Parameters
    ----------
    positions : ndarray
        Finite, strictly increasing atom locations.
    masses : ndarray
        Finite positive weights, same length as `positions`.
    is_probability : bool
        If True the masses must sum to 1 within ``1e-12``; otherwise any
        positive total is allowed ("finite measure" mode, used e.g. for the
        singular part of a Nevanlinna representation).
    pruned_mass : float
        Mass removed by capacity pruning during convolution (provenance).
    """

    positions: np.ndarray
    masses: np.ndarray
    is_probability: bool = True
    pruned_mass: float = 0.0

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float)).copy()
        mas = np.atleast_1d(np.asarray(self.masses, dtype=float)).copy()
        if pos.shape != mas.shape or pos.ndim != 1:
            raise ValueError("positions and masses must be 1-d arrays of equal length")
        if len(pos) == 0:
            raise ValueError("an atomic measure needs at least one atom")
        _require_finite("positions, masses and pruned mass", pos, mas, self.pruned_mass)
        if np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing (use atomic() to merge)")
        if np.any(mas <= 0):
            raise ValueError("all masses must be positive")
        if self.is_probability and abs(mas.sum() - 1.0) > _PROB_TOL:
            raise ValueError(f"probability masses sum to {mas.sum()!r}, not 1")
        pos.setflags(write=False)
        mas.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mas)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def __len__(self) -> int:
        return len(self.positions)


def atomic(pairs, *, is_probability: bool = True, pruned_mass: float = 0.0) -> AtomicMeasure:
    """Build an :class:`AtomicMeasure` from ``(position, mass)`` pairs.

    Coincident positions (within the merge tolerance) are coalesced, so the
    input does not need to be sorted or duplicate-free.
    """
    arr = np.asarray(list(pairs), dtype=float).reshape(-1, 2)
    _require_finite("positions and masses", arr)
    pos, mas = _merge_atoms(arr[:, 0], arr[:, 1])
    return AtomicMeasure(pos, mas, is_probability=is_probability, pruned_mass=pruned_mass)


def point_mass(c: float) -> AtomicMeasure:
    """The Dirac measure at ``c``: one atom, whose map is ``z - c``."""
    return AtomicMeasure(np.array([float(c)]), np.array([1.0]))


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative density sampled on a uniform grid ``x0 + h*arange(n)``.

    Integrals use the trapezoid rule.  `clamped_mass` records negative
    density mass that was clamped to zero (inversion roundoff provenance).
    """

    x0: float
    h: float
    values: np.ndarray
    clamped_mass: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError("values must be a 1-d array with at least two samples")
        _require_finite("grid origin, spacing, values and clamped mass",
                        self.x0, self.h, vals, self.clamped_mass)
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")
        if vals.min() < 0:
            raise ValueError("density values must be nonnegative (clamp before constructing)")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def grid(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(len(self.values))

    @property
    def total_mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.h))

    def cdf_values(self) -> np.ndarray:
        """Trapezoid cumulative integral on the grid (starts at 0)."""
        v = self.values
        inc = 0.5 * self.h * (v[1:] + v[:-1])
        return np.concatenate(([0.0], np.cumsum(inc)))


_REF_KINDS = ("arcsine", "normal", "semicircle")


@dataclass(frozen=True)
class ReferenceLaw:
    """Closed-form reference law, optionally dilated by `scale`.

    ``arcsine``    -- density ``1/(pi*sqrt(2-x^2))`` on ``(-sqrt2, sqrt2)``;
    ``normal``     -- standard Gaussian;
    ``semicircle`` -- variance-1 semicircle on ``[-2, 2]``.

    A point mass is the one-atom law of :func:`point_mass`.
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _REF_KINDS:
            raise ValueError(f"unknown reference law {self.kind!r}")
        _require_finite("scale", self.scale)
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def arcsine(scale: float = 1.0) -> ReferenceLaw:
    return ReferenceLaw("arcsine", scale=scale)


def normal(scale: float = 1.0) -> ReferenceLaw:
    return ReferenceLaw("normal", scale=scale)


def semicircle(scale: float = 1.0) -> ReferenceLaw:
    return ReferenceLaw("semicircle", scale=scale)


@dataclass(frozen=True)
class PowerTailLaw:
    """Dilation by `scale` of the density ``weight*|t|**-exponent`` on ``|t| >= 1``.

    With ``exponent=3, weight=1`` this is the probability law with tail
    ``mass(|t| > x) = x**-2`` and truncated variance ``2*log(x)`` -- the
    canonical slowly-varying-variance example.  ``weight=(exponent-1)/2``
    normalizes any exponent to total mass 1.
    """

    exponent: float
    weight: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        _require_finite("exponent, weight and scale", self.exponent, self.weight, self.scale)
        if self.exponent <= 1:
            raise ValueError("exponent must exceed 1 for a finite measure")
        if self.weight <= 0 or self.scale <= 0:
            raise ValueError("weight and scale must be positive")

    @property
    def total_mass(self) -> float:
        return 2.0 * self.weight / (self.exponent - 1.0)

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= _PROB_TOL


def power_tail(exponent: float, weight: float | None = None) -> PowerTailLaw:
    """Power-tail law at unit cutoff; default weight normalizes to mass 1."""
    if weight is None:
        weight = (exponent - 1.0) / 2.0
    return PowerTailLaw(exponent, weight)


Measure = AtomicMeasure | GridDensity | ReferenceLaw | PowerTailLaw


def total_mass(m: Measure) -> float:
    if isinstance(m, ReferenceLaw):
        return 1.0
    return m.total_mass


@dataclass(frozen=True)
class Moments:
    """Raw first/second moments plus the normalized-law variance.

    ``mean``/``m2`` are the raw integrals; ``inf`` marks divergence.
    """

    mean: float
    m2: float
    total: float = 1.0
    var: float = field(init=False)

    def __post_init__(self):
        if math.isinf(self.m2) or math.isinf(self.mean):
            object.__setattr__(self, "var", math.inf)
        else:
            v = self.m2 / self.total - (self.mean / self.total) ** 2
            object.__setattr__(self, "var", max(v, 0.0))


def _typed_overflow(fn):
    """`fn` raising :class:`NumericBreakdown` where a result or a float power overflows."""
    @functools.wraps(fn)
    def checked(*args):
        try:
            out = fn(*args)
        except OverflowError:
            out = math.inf
        if out == math.inf:
            raise NumericBreakdown(f"{fn.__name__}({', '.join(map(repr, args[1:]))}) overflows")
        return out

    return checked


@_typed_overflow
def moments(m: Measure) -> Moments:
    """Mean and second moment; divergent integrals come back as ``inf``.

    Atomic and grid laws have finite moments, so where theirs overflow (or
    a closed form's does) this raises :class:`NumericBreakdown`."""
    if isinstance(m, AtomicMeasure):
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.dot(m.positions, m.masses))
            m2 = float(np.dot(m.positions**2, m.masses))
        return _bounded_moments(mean, m2, m.total_mass)
    if isinstance(m, GridDensity):
        x = m.grid
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.trapezoid(x * m.values, dx=m.h))
            m2 = float(np.trapezoid(x**2 * m.values, dx=m.h))
        return _bounded_moments(mean, m2, m.total_mass)
    if isinstance(m, ReferenceLaw):
        # arcsine, normal and semicircle all have mean 0 and unit variance
        return Moments(0.0, m.scale**2)
    if isinstance(m, PowerTailLaw):
        p = m.exponent
        # symmetric but absolutely convergent only for p > 2
        mean = 0.0 if p > 2 else math.inf
        if p > 3:
            m2 = 2.0 * m.weight * m.scale**2 / (p - 3.0)
        else:
            m2 = math.inf
        return Moments(mean, m2, m.total_mass)
    raise TypeError(f"not a measure: {m!r}")


def _bounded_moments(mean: float, m2: float, total: float) -> Moments:
    """`Moments` of a law of bounded support, whose integrals are finite:
    an infinite or NaN one overflowed (`moments` makes that a
    :class:`NumericBreakdown`), and ``inf`` would read as divergence."""
    if not (math.isfinite(mean) and math.isfinite(m2)):
        raise OverflowError
    return Moments(mean, m2, total)


def _scaled_power(b: float, x: float, a: float) -> float:
    """``b**2 * u**a`` with ``u = x/b``, for ``b > 0``, ``u >= 1`` and ``a < 2``.
    Where ``b**2`` is not a normal float or ``u**a`` overflows, which a tiny
    scale at a huge cutoff brings about while the product is a float, it is
    ``(b * u**(a/2))**2``, and where u itself overflows ``(b**(1 - a/2) *
    x**(a/2))**2``: no factor leaves the floats, and no rounding is amplified
    as a logarithm's would be."""
    u = x / b
    if u == math.inf:
        return (b ** (1.0 - 0.5 * a) * x ** (0.5 * a)) ** 2
    b2 = b * b
    if b2 >= sys.float_info.min:
        try:
            if (v := b2 * u ** a) < math.inf:
                return v
        except OverflowError:
            pass
    return (b * u ** (0.5 * a)) ** 2


def _ref_h_unit(kind: str, x: float) -> float:
    """H of an unscaled reference law at cutoff ``x > 0``."""
    if kind == "arcsine":
        u = min(x / math.sqrt(2.0), 1.0)
        th = math.asin(u)
        return (2.0 / math.pi) * (th - math.sin(th) * math.cos(th))
    if kind == "normal":
        return math.erf(x / math.sqrt(2.0)) - 2.0 * x * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if kind == "semicircle":
        u = min(x / 2.0, 1.0)
        th = math.asin(u)
        return (2.0 / math.pi) * (th - math.sin(4.0 * th) / 4.0)
    raise AssertionError(kind)


@_typed_overflow
def truncated_variance(m: Measure, x: float) -> float:
    """Second moment truncated to ``[-x, x]`` (the function H).

    Nondecreasing in x; converges to the raw second moment whenever the
    latter is finite.  Atoms exactly at ``+-x`` are included.
    """
    if x <= 0:
        raise ValueError("cutoff x must be positive")
    if isinstance(m, AtomicMeasure):
        inside = np.abs(m.positions) <= x
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.dot(m.positions[inside] ** 2, m.masses[inside]))
    if isinstance(m, GridDensity):
        g = m.grid
        inside = np.abs(g) <= x
        if inside.sum() < 2:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.trapezoid((g[inside] ** 2) * m.values[inside], dx=m.h))
    if isinstance(m, ReferenceLaw):
        return m.scale**2 * _ref_h_unit(m.kind, x / m.scale)
    if isinstance(m, PowerTailLaw):
        p, w, b = m.exponent, m.weight, m.scale
        u = x / b
        if u <= 1.0:
            return 0.0
        if abs(p - 3.0) < 1e-12:
            h_unit = 2.0 * w * math.log(u)
        elif p < 3.0:
            return 2.0 * w * (_scaled_power(b, x, 3.0 - p) - b * b) / (3.0 - p)
        else:
            h_unit = 2.0 * w * (u ** (3.0 - p) - 1.0) / (3.0 - p)
        return b**2 * h_unit
    raise TypeError(f"not a measure: {m!r}")


def _smoothed_squares(m, t: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_k w_k t_k^2 x^2/(t_k^2 + x^2)`` for the sorted atoms `t` and weights `w` of
    `m`, at each cutoff of the 1-d `x`.

    Each term is ``((w t^2) x^2)/(t^2 + x^2)``, and a row of terms is summed by
    ``np.add.reduce``.  A row's operands are first scaled by ``2^-f``, f the
    multiple of 128 nearest the exponent of ``min(x, max|t|)``, and their
    squares capped at ``2^400``, far above the other square (below ``2^128``),
    which a capped one adds exactly; the sum is scaled back by ``2^(2f)``.
    Scaling by a power of two is exact, so this is the unscaled formula bit
    for bit wherever no square is capped or subnormal, and it overflows only
    where L does.  The atoms' side of the last frame f is kept on `m`
    (measures are immutable), so a search that evaluates L of one law at many
    cutoffs squares its atoms once.
    """
    tmax = max(-t[0], t[-1])
    frames = (np.frexp(np.minimum(x, tmax) if tmax > 0.0 else x)[1] + 64) & -128
    out = np.empty(len(x))
    step = max(1, (1 << 22) // len(t))
    for f in set(frames.tolist()):
        frame = vars(m).get("_l_frame")
        if frame is None or frame[0] != f:
            with np.errstate(over="ignore"):
                u2 = np.minimum(np.square(np.ldexp(t, -f)), 2.0 ** 400)
            frame = (f, u2, w * u2)
            object.__setattr__(m, "_l_frame", frame)
        _, u2, wu2 = frame
        rows = np.flatnonzero(frames == f)
        for i in range(0, len(rows), step):
            r = rows[i:i + step, None]
            with np.errstate(over="ignore"):
                v2 = np.square(np.minimum(np.ldexp(x[r], -f), 2.0 ** 200))
            terms = wu2 * v2
            terms /= u2 + v2
            out[r[:, 0]] = np.add.reduce(terms, axis=-1)
    return np.ldexp(out, 2 * frames)


def harmonic_variance(m: Measure, x):
    """Smoothed truncated variance ``int t^2 x^2 / (t^2 + x^2) dm`` (the function L).

    `x` is a cutoff or an array of cutoffs, each positive (``inf`` gives the
    second moment); the result is a float or an array of the same shape.
    Nondecreasing in x and bounded by the raw second moment; finite for any
    x, except that a power tail of exponent p <= 3 grows without bound (like
    ``x^(3-p)``, or ``log x`` at p = 3).  Where L overflows this raises
    :class:`NumericBreakdown`.  Atomic and grid (trapezoid weights) laws
    share one sum, `_smoothed_squares`; the other laws have closed forms.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(xs > 0):
        raise ValueError("cutoff x must be positive")
    flat = xs.ravel()
    if isinstance(m, AtomicMeasure):
        out = _smoothed_squares(m, m.positions, m.masses, flat)
    elif isinstance(m, GridDensity):
        w = m.h * m.values
        w[[0, -1]] *= 0.5
        out = _smoothed_squares(m, m.grid, w, flat)
    else:
        try:
            out = np.array([_closed_form_l(m, v) for v in flat.tolist()])
        except OverflowError:
            out = np.full(len(flat), math.inf)
    if not np.isfinite(out).all():
        raise NumericBreakdown(f"harmonic_variance at x = {float(flat[~np.isfinite(out)][0])!r} overflows")
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _closed_form_l(m: ReferenceLaw | PowerTailLaw, x: float) -> float:
    """L of a reference law or a power tail."""
    if isinstance(m, PowerTailLaw):
        p, w, b = m.exponent, m.weight, m.scale
        bound = 2.0 * w * b * b / (p - 3.0) if p > 3.0 else math.inf
        return min(_power_tail_l(p, w, b, x), bound)    # rounding may cross it by an ulp
    if not isinstance(m, ReferenceLaw):
        raise TypeError(f"not a measure: {m!r}")
    s = m.scale
    if m.kind == "normal":
        u = x / s
        if u < 1.0:     # x^2 (1 - u M(u)), Mills' ratio M(u) = sqrt(pi/2) erfcx(u/sqrt 2)
            v = u / math.sqrt(2.0)
            return x * (x * (1.0 - u * (math.sqrt(0.5 * math.pi) * math.erfc(v) * math.exp(v * v))))
        # Laplace's continued fraction (DLMF 7.9) is u M = 1/(1 + J q), q = (s/x)^2 and
        # J = 1/(1 + 2q/(1 + 3q/(1 + ...))), so L = s^2 J/(1 + q J), with no cancellation
        q, t = (s / x) ** 2, 1.0
        for k in range(16 + int(400.0 * q), 1, -1):
            t = 1.0 + k * q / t
        return s * (s * (1.0 / (t + q)))
    # L = x^2 (1 + x Im G(ix)) with the cancellation divided out: with
    # k = hypot(x, r scale), r the unit radius, the arc-sine law's is
    # 2 (x scale/k) (x scale/(k + x)) and the semicircle's (2 x scale/(k + x))^2.
    # In units of max(x, scale) nothing over- or underflows unless L does.
    big = max(x, s)
    c, t = min(x, s), (1.0 if x >= s else x / big)
    if m.kind == "arcsine":
        k = math.hypot(t, math.sqrt(2.0) * (s / big))
        return 2.0 * (c / k) * (c / (k + t))
    k = math.hypot(t, 2.0 * (s / big))
    return (2.0 * c / (k + t)) ** 2


def _power_tail_l(p: float, w: float, b: float, x: float) -> float:
    """L of ``PowerTailLaw(p, w, b)``: ``2 w b^2 u^2/(p - 1) 2F1(1, beta; beta + 1; -u^2)``
    with ``u = x/b`` and ``beta = (p - 1)/2`` (DLMF 15.6.1).

    Up to u = 1.5 the 2F1 is Pfaff's ``2F1(1, 1; beta + 1; y)/(1 + u^2)``,
    ``y = u^2/(1 + u^2) <= 0.7``, a series of positive terms.  Above, it is
    its connection to ``q = 1/u`` (DLMF 15.8.2): ``L/(2 w b^2)`` is the power
    ``pi u^(3-p)/(2 sin(pi beta))`` less half of ``sum_k (-q^2)^k/(k + 1 - beta)``.
    The power and the term k0 nearest the pole, ``k0 + 1 - beta = -d``, are
    joined as ``((-q^2)^k0/2) (1/d - pi q^(2d)/sin(pi d))``, which stays
    finite at the odd exponents, d = 0 (p = 3 gives ``w b^2 log(1 + u^2)``).
    Sums are `math.fsum`'s; no u^2 or ``b^2 u^(3-p)`` overflows unless L does.
    """
    u, beta = x / b, 0.5 * (p - 1.0)
    if u <= 1.5:
        y, terms = u * u / (1.0 + u * u), [1.0]
        while terms[-1] > 2.0 ** -56:
            n = len(terms)
            terms.append(terms[-1] * (y * n / (beta + n)))
        return x * (x * ((2.0 * w / (p - 1.0)) * math.fsum(terms) / (1.0 + u * u)))
    q2, k0 = (b / x) ** 2, max(round(beta - 1.0), -1)        # no pole term below p = 2
    ell = math.log(u) if u < math.inf else math.log(x) - math.log(b)
    # q^2 < 0.45, so the terms beyond k0 + 48 fall below 2^-56 of the first
    parts = [-0.5 * (-q2) ** k / (k + 1.0 - beta) for k in range(k0 + 50) if k != k0]
    power = math.pi / (2.0 * math.sin(math.pi * beta))
    if k0 >= 0:
        d, s0 = beta - 1.0 - k0, 0.5 * (-q2) ** k0
        xd = math.pi * d
        if d:       # 1/d - pi/sin(pi d), by the series of xd - sin xd
            odd = sum((-1) ** j * xd ** (2 * j + 1) / math.factorial(2 * j + 1) for j in range(1, 12))
            parts.append(s0 * odd / (d * math.sin(xd)))
        if d == 0.0 or abs(2.0 * d * ell) < 1.0:      # q^(2d) - 1 by expm1; 2 log u at d = 0
            parts.append(s0 * (2.0 * ell if d == 0.0 else -math.pi * math.expm1(-2.0 * d * ell) / math.sin(xd)))
            power = 0.0
        else:
            parts.append(s0 * math.pi / math.sin(xd))
            power = -(-1) ** k0 * math.pi / (2.0 * math.sin(xd))
    out = b * (b * math.fsum(parts))
    return 2.0 * w * (out + power * _scaled_power(b, x, 3.0 - p) if power else out)


def tail(m: Measure, x: float) -> float:
    """Mass of ``{|t| > x}`` (raw, not normalized)."""
    if x <= 0:
        raise ValueError("cutoff x must be positive")
    if isinstance(m, AtomicMeasure):
        return float(m.masses[np.abs(m.positions) > x].sum())
    if isinstance(m, GridDensity):
        g = m.grid
        total = 0.0
        for sel in (g > x, g < -x):
            if sel.sum() >= 2:
                total += float(np.trapezoid(m.values[sel], dx=m.h))
        return total
    if isinstance(m, ReferenceLaw):
        u = x / m.scale
        if m.kind == "arcsine":
            if u >= math.sqrt(2.0):
                return 0.0
            return 1.0 - 2.0 * math.asin(u / math.sqrt(2.0)) / math.pi
        if m.kind == "normal":
            return math.erfc(u / math.sqrt(2.0))
        if m.kind == "semicircle":
            if u >= 2.0:
                return 0.0
            th = math.asin(u / 2.0)
            return 1.0 - (2.0 / math.pi) * (th + math.sin(th) * math.cos(th))
    if isinstance(m, PowerTailLaw):
        p, w, b = m.exponent, m.weight, m.scale
        u = x / b
        if u <= 1.0:
            return m.total_mass
        return 2.0 * w * u ** (1.0 - p) / (p - 1.0)
    raise TypeError(f"not a measure: {m!r}")


def dilate(m: Measure, b: float) -> Measure:
    """Pushforward under ``x -> b*x`` (masses unchanged)."""
    if b <= 0:
        raise ValueError("dilation factor must be positive")
    if isinstance(m, AtomicMeasure):
        pos, mas = _merge_atoms(m.positions * b, m.masses)
        return AtomicMeasure(pos, mas, is_probability=m.is_probability, pruned_mass=m.pruned_mass)
    if isinstance(m, GridDensity):
        return GridDensity(m.x0 * b, m.h * b, m.values / b, clamped_mass=m.clamped_mass)
    if isinstance(m, (ReferenceLaw, PowerTailLaw)):
        return replace(m, scale=m.scale * b)
    raise TypeError(f"not a measure: {m!r}")


def shift(m: Measure, c: float) -> Measure:
    """Pushforward under ``x -> x + c`` (translation)."""
    if isinstance(m, AtomicMeasure):
        return AtomicMeasure(m.positions + c, m.masses, is_probability=m.is_probability,
                             pruned_mass=m.pruned_mass)
    if isinstance(m, GridDensity):
        return GridDensity(m.x0 + c, m.h, m.values, clamped_mass=m.clamped_mass)
    if c == 0.0:
        return m
    raise TypeError(f"cannot shift {type(m).__name__} by a nonzero amount; "
                    "discretize to a grid first")


def classical_convolve(m: AtomicMeasure, n: AtomicMeasure, *, cap: int = DEFAULT_ATOM_CAP) -> AtomicMeasure:
    """Classical (additive) convolution of two atomic measures.

    Atoms land at all pairwise sums with multiplied masses; coinciding
    positions merge.  If the result would exceed `cap` atoms, atoms with
    mass below ``1e-15`` are pruned and the measure renormalized, with the
    removed mass recorded in ``pruned_mass``.  Raises
    :class:`~monoclt.errors.CapacityExceeded` if pruning is not enough, and
    before allocating anything if there are more than ``4 * cap`` pairs of
    atoms to form.  Raises :class:`~monoclt.errors.NumericBreakdown` if the
    merged positions come out of order (masses down in the subnormals).
    """
    if not isinstance(m, AtomicMeasure) or not isinstance(n, AtomicMeasure):
        raise TypeError("classical_convolve needs atomic measures")
    if len(m) * len(n) > _PAIRS_PER_CAP_ATOM * cap:
        raise CapacityExceeded(
            f"convolution would form {len(m)} x {len(n)} atom pairs, more than "
            f"{_PAIRS_PER_CAP_ATOM} per atom of the cap {cap}")
    pos = np.add.outer(m.positions, n.positions).ravel()
    mas = np.multiply.outer(m.masses, n.masses).ravel()
    nonzero = mas > 0.0          # extreme tail products underflow to exact 0
    pos, mas = _merge_atoms(pos[nonzero], mas[nonzero])
    if np.any(np.diff(pos) <= 0.0):
        raise NumericBreakdown(
            "classical convolution left merged atom positions out of order: a merged "
            "position is the mass-weighted mean of its group, and with subnormal masses "
            "the products position*mass lose their digits")
    pruned = m.pruned_mass + n.pruned_mass
    if len(pos) > cap:
        keep = mas >= PRUNE_MASS
        pruned += float(mas[~keep].sum())
        pos, mas = pos[keep], mas[keep]
        if len(pos) > cap:
            raise CapacityExceeded(
                f"convolution produced {len(pos)} atoms (cap {cap}) even after pruning")
        mas = mas / mas.sum() * (m.total_mass * n.total_mass)
    prob = m.is_probability and n.is_probability
    return AtomicMeasure(pos, mas, is_probability=prob, pruned_mass=pruned)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def measure_to_json(m: Measure) -> str:
    """Serialize a measure to the interchange JSON format."""
    if isinstance(m, AtomicMeasure):
        doc = {"type": "atomic",
               "atoms": [[float(x), float(w)] for x, w in zip(m.positions, m.masses)]}
        if not m.is_probability:
            doc["finite"] = True
        if m.pruned_mass:
            doc["pruned_mass"] = m.pruned_mass
    elif isinstance(m, GridDensity):
        doc = {"type": "grid", "x0": m.x0, "h": m.h, "values": [float(v) for v in m.values]}
    elif isinstance(m, ReferenceLaw):
        doc = {"type": "ref", "law": m.kind}
        if m.scale != 1.0:
            doc["scale"] = m.scale
    elif isinstance(m, PowerTailLaw):
        doc = {"type": "ref", "law": "powertail", "exponent": m.exponent,
               "weight": m.weight}
        if m.scale != 1.0:
            doc["scale"] = m.scale
    else:
        raise TypeError(f"not a measure: {m!r}")
    return json.dumps(doc)


def measure_from_json(text: str | dict) -> Measure:
    """Inverse of :func:`measure_to_json`; ``{"type": "ref", "law": "point", "c": c}``
    reads as :func:`point_mass`."""
    doc = json.loads(text) if isinstance(text, str) else text
    kind = doc.get("type") if isinstance(doc, dict) else type(doc).__name__
    if kind == "atomic":
        return atomic(doc["atoms"], is_probability=not doc.get("finite", False),
                      pruned_mass=doc.get("pruned_mass", 0.0))
    if kind == "grid":
        return GridDensity(doc["x0"], doc["h"], np.asarray(doc["values"], dtype=float))
    if kind == "ref":
        law = doc["law"]
        if law == "point":
            return point_mass(doc.get("c", 0.0))
        if law == "powertail":
            return PowerTailLaw(doc["exponent"], doc.get("weight", 1.0), doc.get("scale", 1.0))
        return ReferenceLaw(law, scale=doc.get("scale", 1.0))
    raise ValueError(f"unknown measure type {kind!r}")
