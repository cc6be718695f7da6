"""Measures on the real line: atomic, grid-sampled, and closed-form laws.

The workbench manipulates four concrete representations:

* :class:`AtomicMeasure` -- a finite weighted point set (probability or
  general finite positive measure),
* :class:`GridDensity` -- a nonnegative density sampled on a uniform grid
  (the output format of Stieltjes inversion),
* :class:`ReferenceLaw` -- closed-form laws (arc-sine, standard normal,
  standard semicircle, point mass), optionally dilated,
* :class:`PowerTailLaw` -- symmetric densities ``~ |t|**-p`` outside a
  cutoff, the standard source of slowly varying truncated variances.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads.  Every numeric
field must be finite: a NaN or an infinity raises ``ValueError``.

Moment-type quantities use an explicit ``inf`` sentinel for divergent
integrals; no operation is allowed to overflow instead.  For finite
(non-probability) measures ``mean`` and ``m2`` are the raw integrals
``int t dm`` and ``int t^2 dm``; ``var`` always refers to the normalized
law, so the two conventions agree on probability measures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import integrate

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
#: bytes each, so 8e6 pairs (600 MB) at the default cap.  A lattice law's
#: pairs merge into far fewer atoms; the largest shipped use, the 10^4-fold
#: power of a coin in the first demo, forms 2.8 pairs per atom of the
#: default cap (5.7e6 pairs, 420 MB).
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
    """The Dirac measure at ``c``."""
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

    def to_csv(self) -> str:
        """Plot-ready ``x,density`` table (17 significant digits)."""
        lines = ["x,density"]
        lines += [f"{x:.17g},{v:.17g}" for x, v in zip(self.grid, self.values)]
        return "\n".join(lines) + "\n"


_REF_KINDS = ("arcsine", "normal", "semicircle", "point")


@dataclass(frozen=True)
class ReferenceLaw:
    """Closed-form reference law, optionally dilated by `scale`.

    ``arcsine``    -- density ``1/(pi*sqrt(2-x^2))`` on ``(-sqrt2, sqrt2)``;
    ``normal``     -- standard Gaussian;
    ``semicircle`` -- variance-1 semicircle on ``[-2, 2]``;
    ``point``      -- unit mass at `c` (ignores `scale`).
    """

    kind: str
    c: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _REF_KINDS:
            raise ValueError(f"unknown reference law {self.kind!r}")
        _require_finite("location and scale", self.c, self.scale)
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


def moments(m: Measure) -> Moments:
    """Mean and second moment; divergent integrals come back as ``inf``."""
    if isinstance(m, AtomicMeasure):
        mean = float(np.dot(m.positions, m.masses))
        m2 = float(np.dot(m.positions**2, m.masses))
        return Moments(mean, m2, m.total_mass)
    if isinstance(m, GridDensity):
        x = m.grid
        mean = float(np.trapezoid(x * m.values, dx=m.h))
        m2 = float(np.trapezoid(x**2 * m.values, dx=m.h))
        return Moments(mean, m2, m.total_mass)
    if isinstance(m, ReferenceLaw):
        if m.kind == "point":
            return Moments(m.c, m.c**2)
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


def truncated_variance(m: Measure, x: float) -> float:
    """Second moment truncated to ``[-x, x]`` (the function H).

    Nondecreasing in x; converges to the raw second moment whenever the
    latter is finite.  Atoms exactly at ``+-x`` are included.
    """
    if x <= 0:
        raise ValueError("cutoff x must be positive")
    if isinstance(m, AtomicMeasure):
        inside = np.abs(m.positions) <= x
        return float(np.dot(m.positions[inside] ** 2, m.masses[inside]))
    if isinstance(m, GridDensity):
        g = m.grid
        inside = np.abs(g) <= x
        if inside.sum() < 2:
            return 0.0
        return float(np.trapezoid((g[inside] ** 2) * m.values[inside], dx=m.h))
    if isinstance(m, ReferenceLaw):
        if m.kind == "point":
            return m.c**2 if abs(m.c) <= x else 0.0
        return m.scale**2 * _ref_h_unit(m.kind, x / m.scale)
    if isinstance(m, PowerTailLaw):
        p, w, b = m.exponent, m.weight, m.scale
        u = x / b
        if u <= 1.0:
            return 0.0
        if abs(p - 3.0) < 1e-12:
            h_unit = 2.0 * w * math.log(u)
        else:
            h_unit = 2.0 * w * (u ** (3.0 - p) - 1.0) / (3.0 - p)
        return b**2 * h_unit
    raise TypeError(f"not a measure: {m!r}")


def harmonic_variance(m: Measure, x: float) -> float:
    """Smoothed truncated variance ``int t^2 x^2 / (t^2 + x^2) dm`` (the function L).

    Nondecreasing in x and bounded by the raw second moment.
    """
    if x <= 0:
        raise ValueError("cutoff x must be positive")
    if isinstance(m, AtomicMeasure):
        t2 = m.positions**2
        return float(np.dot(t2 * x * x / (t2 + x * x), m.masses))
    if isinstance(m, GridDensity):
        g = m.grid
        t2 = g**2
        return float(np.trapezoid(t2 * x * x / (t2 + x * x) * m.values, dx=m.h))
    if isinstance(m, ReferenceLaw):
        if m.kind == "point":
            return m.c**2 * x * x / (m.c**2 + x * x) if m.c != 0.0 else 0.0
        u = x / m.scale

        def f(t):
            return t * t * u * u / (t * t + u * u) * _ref_density_unit(m.kind, t)

        lo, hi = _ref_support_unit(m.kind)
        val, _ = integrate.quad(f, lo, hi, limit=200)
        return m.scale**2 * val
    if isinstance(m, PowerTailLaw):
        p, w, b = m.exponent, m.weight, m.scale
        u = x / b
        if abs(p - 3.0) < 1e-12:
            l_unit = w * math.log1p(u * u)
        else:
            val, _ = integrate.quad(
                lambda t: t ** (2.0 - p) * u * u / (t * t + u * u), 1.0, np.inf, limit=200)
            l_unit = 2.0 * w * val
        return b**2 * l_unit
    raise TypeError(f"not a measure: {m!r}")


def _ref_density_unit(kind: str, t: float) -> float:
    if kind == "arcsine":
        s = 2.0 - t * t
        return 1.0 / (math.pi * math.sqrt(s)) if s > 0 else 0.0
    if kind == "normal":
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    if kind == "semicircle":
        s = 4.0 - t * t
        return math.sqrt(s) / (2.0 * math.pi) if s > 0 else 0.0
    raise AssertionError(kind)


def _ref_support_unit(kind: str) -> tuple[float, float]:
    if kind == "arcsine":
        r = math.sqrt(2.0)
        return -r, r
    if kind == "semicircle":
        return -2.0, 2.0
    return -np.inf, np.inf


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
        if m.kind == "point":
            return 1.0 if abs(m.c) > x else 0.0
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
    if isinstance(m, ReferenceLaw):
        if m.kind == "point":
            return ReferenceLaw("point", c=m.c * b)
        return replace(m, scale=m.scale * b)
    if isinstance(m, PowerTailLaw):
        return replace(m, scale=m.scale * b)
    raise TypeError(f"not a measure: {m!r}")


def shift(m: Measure, c: float) -> Measure:
    """Pushforward under ``x -> x + c`` (translation)."""
    if isinstance(m, AtomicMeasure):
        return AtomicMeasure(m.positions + c, m.masses, is_probability=m.is_probability,
                             pruned_mass=m.pruned_mass)
    if isinstance(m, GridDensity):
        return GridDensity(m.x0 + c, m.h, m.values, clamped_mass=m.clamped_mass)
    if isinstance(m, ReferenceLaw) and m.kind == "point":
        return ReferenceLaw("point", c=m.c + c)
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
        if m.kind == "point":
            doc["c"] = m.c
        elif m.scale != 1.0:
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
    """Inverse of :func:`measure_to_json`."""
    doc = json.loads(text) if isinstance(text, str) else text
    kind = doc.get("type")
    if kind == "atomic":
        return atomic(doc["atoms"], is_probability=not doc.get("finite", False),
                      pruned_mass=doc.get("pruned_mass", 0.0))
    if kind == "grid":
        return GridDensity(doc["x0"], doc["h"], np.asarray(doc["values"], dtype=float))
    if kind == "ref":
        law = doc["law"]
        if law == "point":
            return ReferenceLaw("point", c=doc.get("c", 0.0))
        if law == "powertail":
            return PowerTailLaw(doc["exponent"], doc.get("weight", 1.0), doc.get("scale", 1.0))
        return ReferenceLaw(law, scale=doc.get("scale", 1.0))
    raise ValueError(f"unknown measure type {kind!r}")
