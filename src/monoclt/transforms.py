"""Cauchy transforms, half-plane self-maps, and inversion diagnostics.

The Cauchy transform of a probability measure ``m`` is
``G(z) = int 1/(z - t) dm(t)`` on the upper half-plane; its reciprocal
``F = 1/G`` is an analytic self-map of the half-plane with
``F(iy)/iy -> 1``.  Monotone convolution composes these maps, so the
workbench represents maps symbolically (composition/iteration/dilation
nodes) and evaluates them pointwise -- rational degree explodes under
composition, but evaluation stays ``O(chain length)`` per point.

Every map form used downstream lives here:

* :class:`MeasureMap` -- ``F = 1/G`` of a measure,
* :class:`NevanlinnaMap` -- ``z + a + sum s_k (1 + t_k z)/(t_k - z)``,
* :class:`ComposeMap`, :class:`IterateMap`, :class:`DilatedMap`,
* :class:`ArcsineMap` -- the closed form ``sqrt(z^2 - 2)`` with the branch
  analytic off ``[0, inf)`` and ``sqrt(-1) = i``,
* :class:`ScaledPowerMap` and :class:`FreeConvolveMap` (logic in
  :mod:`monoclt.convolve`).

Every pole sum ``sum_k w_k/(t_k - x)`` -- the Cauchy transform of an
atomic or grid measure, a Nevanlinna map's partial fractions, the boundary
maps of :mod:`monoclt.ergodic` -- runs through one kernel, `_pole_sum`.  It
subtracts, divides and sums in place, a block of points at a time, in a
reused workspace of at most ``_CHUNK`` elements (points x poles, real or
complex); an iteration loop keeps one workspace for its whole length, so a
step allocates no temporary of the size of the poles.  Only the points are
chunked and each point's terms are summed by one pairwise ``sum`` in pole
order, so the answers do not depend on the block size.  The Cauchy
transform ``sum_k w_k/(z - t_k)`` is 0 minus the pole sum and ``1/G`` is
``-(1/s)``: both negations are exact, so every value equals the direct
formula's bit for bit.

`measure_from_map` recovers a grid density by Stieltjes inversion
(``-Im(1/F(x + i*eta))/pi``) with optional linear Richardson extrapolation
in eta, and `ks_distance` quantifies weak convergence as a sup-CDF
distance using the midpoint convention at atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special

from . import measures as ms
from .errors import CoverageError, DomainError, NumericBreakdown

__all__ = [
    "sqrt_upper",
    "cauchy_eval",
    "f_eval",
    "SelfMap",
    "MeasureMap",
    "NevanlinnaMap",
    "ComposeMap",
    "IterateMap",
    "DilatedMap",
    "ArcsineMap",
    "IdentityMap",
    "ScaledPowerMap",
    "FreeConvolveMap",
    "NevanlinnaRep",
    "nevanlinna_extract",
    "nevanlinna_synthesize",
    "measure_from_map",
    "default_grid",
    "cdf",
    "ks_distance",
    "tightness_stat",
    "TightnessStat",
]

#: how far below the real axis an intermediate may stray before we call it a bug
BREAKDOWN_TOL = 1e-9

#: elements (points x poles) of a pole-sum workspace: 1 MiB of complex, so
#: a block stays in cache between its subtract, divide and sum
_CHUNK = 1 << 16


def sqrt_upper(w):
    """Square root with branch cut on ``[0, inf)``, values in the closed upper half-plane.

    ``sqrt_upper(-1) == 1j``; on the cut itself the limit from above is used.
    """
    w = np.asarray(w, dtype=complex)
    r = np.sqrt(np.abs(w))
    th = np.angle(w)
    th = np.where(th < 0.0, th + 2.0 * np.pi, th)
    out = r * np.exp(0.5j * th)
    return out if out.ndim else complex(out)


def _require_upper(z: np.ndarray):
    if not np.all(np.isfinite(z) & (np.imag(z) > 0)):
        raise DomainError("evaluation point must be finite with Im z > 0")


def _rows(n_poles: int, n_points: int) -> int:
    """Rows of a :func:`_pole_sum` workspace: one per point, at most
    ``_CHUNK`` elements in all, but at least one row."""
    return max(1, min(n_points, _CHUNK // max(n_poles, 1)))


def _pole_sum(t: np.ndarray, w: np.ndarray, x: np.ndarray, work=None) -> np.ndarray:
    """The pole sums ``sum_k w_k / (t_k - x[i])`` over flat `x`.

    The points pass through the rows of `work`, a ``(rows, len(t))`` block
    of the result's dtype (real or complex) that the caller may keep and
    reuse, so no temporary of the poles' size is allocated per call.  Each
    row is one pairwise ``sum`` over the poles in their given order; only
    the points are chunked, so the block size never changes a bit of the
    result.
    """
    if work is None:
        work = np.empty((_rows(len(t), len(x)), len(t)), dtype=np.result_type(t, w, x))
    out = np.empty(len(x), dtype=work.dtype)
    rows = len(work)
    for i in range(0, len(x), rows):
        j = min(i + rows, len(x))
        blk = work[:j - i]
        np.subtract(t, x[i:j, None], out=blk)
        np.divide(w, blk, out=blk)
        np.add.reduce(blk, axis=-1, out=out[i:j])     # what ndarray.sum runs
    return out


def _pole_sum_loop(t: np.ndarray, w: np.ndarray, dtype=complex):
    """``x -> _pole_sum(t, w, x)`` on points of `dtype`, for a loop that
    calls it many times: one workspace serves every call (regrown only when
    a call brings more points than it holds)."""
    work = np.empty((0, len(t)), dtype=dtype)

    def psum(x):
        nonlocal work
        if len(x) > len(work) and len(work) < _rows(len(t), len(x)):
            work = np.empty((_rows(len(t), len(x)), len(t)), dtype=dtype)
        return _pole_sum(t, w, x, work)

    return psum


def _sum_kernel(z: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum_k w_k / (z - t_k)`` over flat z: the pole sum subtracted from 0.

    ``0 - s`` is ``-s`` exactly, except that a real part cancelled to 0
    stays +0, as summing the terms ``w_k / (z - t_k)`` leaves it.  It runs
    on the float view, which numpy handles about five times faster than
    complex numbers.
    """
    out = _pole_sum(t, w, z)
    v = out.view(float)
    np.subtract(0.0, v, out=v)
    return out


def cauchy_eval(m: ms.Measure, z):
    """Cauchy transform ``G(z) = int 1/(z - t) dm(t)`` for ``Im z > 0``.

    Vectorized over `z`.  Always satisfies ``Im G < 0`` and
    ``|G| <= total_mass / Im z``.
    """
    zarr = np.asarray(z, dtype=complex)
    _require_upper(zarr)
    flat = zarr.ravel()
    if isinstance(m, ms.AtomicMeasure):
        out = _sum_kernel(flat, m.positions, m.masses)
    elif isinstance(m, ms.GridDensity):
        wts = np.full(len(m.values), m.h)
        wts[0] = wts[-1] = 0.5 * m.h
        out = _sum_kernel(flat, m.grid, wts * m.values)
    elif isinstance(m, ms.ReferenceLaw):
        u = flat if m.kind == "point" else flat / m.scale
        if m.kind == "point":
            out = 1.0 / (flat - m.c)
        elif m.kind == "arcsine":
            out = 1.0 / (m.scale * sqrt_upper(u * u - 2.0))
        elif m.kind == "semicircle":
            out = (u - sqrt_upper(u * u - 4.0)) / (2.0 * m.scale)
        else:  # normal: G(z) = -i sqrt(pi/2) w(z/sqrt2), w = Faddeeva function
            out = -1j * math.sqrt(math.pi / 2.0) * special.wofz(u / math.sqrt(2.0)) / m.scale
    elif isinstance(m, ms.PowerTailLaw):
        out = _cauchy_power_tail(m, flat)
    else:
        raise TypeError(f"not a measure: {m!r}")
    out = out.reshape(zarr.shape)
    return out if out.ndim else complex(out)


def _cauchy_power_tail(m: ms.PowerTailLaw, z: np.ndarray) -> np.ndarray:
    """Quadrature Cauchy transform of a power-tail law (slow path)."""
    p, w, b = m.exponent, m.weight, m.scale
    out = np.empty(z.shape, dtype=complex)
    for i, zz in enumerate(z):
        u = zz / b

        def re_part(t):
            return t ** (-p) * ((u.real - t) / abs(u - t) ** 2 + (u.real + t) / abs(u + t) ** 2)

        def im_part(t):
            return t ** (-p) * (-u.imag / abs(u - t) ** 2 - u.imag / abs(u + t) ** 2)

        re, _ = integrate.quad(re_part, 1.0, np.inf, limit=400)
        im, _ = integrate.quad(im_part, 1.0, np.inf, limit=400)
        out[i] = w * (re + 1j * im) / b
    return out


# ---------------------------------------------------------------------------
# Nevanlinna representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NevanlinnaRep:
    """Pair ``(a, sigma)`` of the half-plane representation.

    ``F(z) = z + a + int (1 + t z)/(t - z) dsigma(t)`` with ``a`` real and
    ``sigma`` a finite positive atomic measure (``None`` means sigma = 0,
    i.e. ``F`` is the translation ``z + a``).
    """

    a: float
    sigma: ms.AtomicMeasure | None = None

    @property
    def sigma_total(self) -> float:
        return 0.0 if self.sigma is None else self.sigma.total_mass


class SelfMap:
    """Base class for evaluable analytic self-maps of the upper half-plane."""

    def __call__(self, z):
        return f_eval(self, z)


@dataclass(frozen=True)
class MeasureMap(SelfMap):
    """Reciprocal Cauchy transform ``F = 1/G`` of a measure."""

    measure: ms.Measure


@dataclass(frozen=True)
class NevanlinnaMap(SelfMap):
    """Map synthesized from a Nevanlinna pair ``(a, sigma)``.

    Evaluation uses the equivalent partial-fraction form
    ``z + c + sum w_k/(t_k - z)`` with ``w_k = s_k (1 + t_k^2)`` and
    ``c = a - sum s_k t_k`` (fewer flops per atom on long iterations).
    """

    rep: NevanlinnaRep

    def __post_init__(self):
        sig = self.rep.sigma
        if sig is None:
            c, t, w = self.rep.a, np.empty(0), np.empty(0)
        else:
            t = sig.positions
            s = sig.masses
            c = self.rep.a - float((s * t).sum())
            w = s * (1.0 + t * t)
        object.__setattr__(self, "_pf", (c, t, w))


@dataclass(frozen=True)
class ComposeMap(SelfMap):
    """Composition, applied right-to-left: ``parts[0](parts[1](...(z)))``."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class IterateMap(SelfMap):
    """n-fold iteration of `base` (n = 0 is the identity)."""

    base: SelfMap
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("iteration count must be >= 0")


@dataclass(frozen=True)
class DilatedMap(SelfMap):
    """``z -> b * base(z / b)`` -- the map of the dilated measure."""

    base: SelfMap
    b: float

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("dilation factor must be positive")


@dataclass(frozen=True)
class ArcsineMap(SelfMap):
    """Closed form ``sqrt(z^2 - 2)``: the map of the arc-sine law."""


@dataclass(frozen=True)
class IdentityMap(SelfMap):
    """``z -> z`` (the map of the point mass at 0)."""


@dataclass(frozen=True)
class ScaledPowerMap(SelfMap):
    """Map of the rescaled n-fold monotone power: ``z -> F^(n)(B z)/B``.

    Evaluation cost is O(n) per point; the composition is never expanded.
    """

    measure: ms.Measure
    n: int
    B: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("power must be >= 0")
        if self.B <= 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class FreeConvolveMap(SelfMap):
    """Map of the free (additive) convolution, via subordination.

    Each evaluation solves the subordination fixed point; see
    :func:`monoclt.convolve.subordination_eval`.
    """

    m: ms.Measure
    n: ms.Measure
    tol: float = 1e-13
    maxiter: int = 10_000


AnalyticSelfMap = SelfMap


def _check_upper_out(w: np.ndarray, what: str):
    if np.min(np.imag(w)) < -BREAKDOWN_TOL:
        raise NumericBreakdown(f"{what} produced Im = {np.min(np.imag(w))!r} < -{BREAKDOWN_TOL}")


def f_eval(F: SelfMap, z):
    """Evaluate a half-plane self-map at ``z`` (scalar or array), with guards.

    Raises :class:`DomainError` off the open upper half-plane and
    :class:`NumericBreakdown` if any intermediate drops below the real axis
    by more than ``1e-9`` (which would indicate a representation bug).
    """
    zarr = np.asarray(z, dtype=complex)
    _require_upper(zarr)
    out = _eval_node(F, zarr.ravel()).reshape(zarr.shape)
    return out if out.ndim else complex(out)


def _eval_node(F: SelfMap, z: np.ndarray) -> np.ndarray:
    if isinstance(F, IdentityMap):
        return z
    if isinstance(F, MeasureMap):
        w = 1.0 / cauchy_eval(F.measure, z)
    elif isinstance(F, NevanlinnaMap):
        w = _one_step_evaluator(F)(z)
    elif isinstance(F, ComposeMap):
        w = z
        for part in reversed(F.parts):
            w = _eval_node(part, w)
        return w
    elif isinstance(F, IterateMap):
        if isinstance(F.base, NevanlinnaMap) or (
                isinstance(F.base, MeasureMap) and isinstance(F.base.measure, ms.AtomicMeasure)):
            base = F.base.measure if isinstance(F.base, MeasureMap) else F.base
            return _iterate_map(base, z, F.n)
        w = z
        for _ in range(F.n):
            w = _eval_node(F.base, w)
        return w
    elif isinstance(F, DilatedMap):
        w = F.b * _eval_node(F.base, z / F.b)
    elif isinstance(F, ArcsineMap):
        w = np.asarray(sqrt_upper(z * z - 2.0))
    elif isinstance(F, ScaledPowerMap):
        return _iterate_map(F.measure, z, F.n, F.B)
    elif isinstance(F, FreeConvolveMap):
        from .convolve import subordination_eval

        w, _, _ = subordination_eval(F.m, F.n, z, tol=F.tol, maxiter=F.maxiter)
    else:
        raise TypeError(f"not an analytic self-map: {F!r}")
    _check_upper_out(w, type(F).__name__)
    return w


def _one_step_evaluator(m):
    """Return a fast ``w -> F(w)`` closure over flat points for inner loops.

    Accepts a measure or a :class:`NevanlinnaMap`; atomic measures and
    Nevanlinna maps evaluate their pole sums in one workspace kept for the
    closure's life.  Other maps fall back to the generic evaluator.
    """
    if isinstance(m, ms.AtomicMeasure):
        psum = _pole_sum_loop(m.positions, m.masses)

        def step(w):
            # 1/G = 1/(-s) = -(1/s), exactly (negated on the float view)
            s = psum(w)
            np.divide(1.0, s, out=s)
            v = s.view(float)
            np.negative(v, out=v)
            return s

        return step
    if isinstance(m, NevanlinnaMap):
        c, t, wt = m._pf
        if len(t) == 0:
            return lambda w: w + c
        psum = _pole_sum_loop(t, wt)
        return lambda w: w + c + psum(w)
    if isinstance(m, SelfMap):
        return lambda w: _eval_node(m, w)
    F = MeasureMap(m)
    return lambda w: _eval_node(F, w)


def _iterate_map(base, z: np.ndarray, n: int, B: float = 1.0) -> np.ndarray:
    """``n`` iterations of ``w -> F(B*w)/B`` for a measure or map base.

    Loops the vectorized one-step evaluator.
    """
    step = _one_step_evaluator(base)
    out = z * B
    for _ in range(n):
        out = step(out)
    out = out / B
    _check_upper_out(out, "iteration")
    return out


# ---------------------------------------------------------------------------
# Nevanlinna extraction / synthesis
# ---------------------------------------------------------------------------

def nevanlinna_extract(m: ms.AtomicMeasure) -> NevanlinnaRep:
    """Extract the pair ``(a, sigma)`` of an atomic probability measure.

    For k atoms, sigma has exactly k-1 atoms at the real zeros of the
    Cauchy transform (one in each gap between consecutive atoms), with
    masses ``-res_j / (1 + t_j^2)`` where ``res_j`` is the residue of
    ``F = 1/G`` at the zero ``t_j``.  A single atom at ``c`` yields the
    degenerate pair ``(-c, 0)``.
    """
    if not isinstance(m, ms.AtomicMeasure) or not m.is_probability:
        raise TypeError("extraction needs an atomic probability measure")
    pos, mas = m.positions, m.masses
    k = len(pos)
    if k == 1:
        return NevanlinnaRep(a=-float(pos[0]), sigma=None)

    def G(x):
        return float((mas / (x - pos)).sum())

    def dG(x):
        return float(-(mas / (x - pos) ** 2).sum())

    zeros = np.empty(k - 1)
    for j in range(k - 1):
        lo_atom, hi_atom = pos[j], pos[j + 1]
        gap = hi_atom - lo_atom
        eps = 0.25 * gap
        while G(lo_atom + eps) <= 0:
            eps *= 0.5
        lo = lo_atom + eps
        eps = 0.25 * gap
        while G(hi_atom - eps) >= 0:
            eps *= 0.5
        hi = hi_atom - eps
        zeros[j] = optimize.brentq(G, lo, hi, xtol=1e-300, rtol=1e-14, maxiter=200)

    # residue of F = 1/G at a simple zero t of G is 1/G'(t) (negative here)
    s = np.array([-1.0 / (dG(t) * (1.0 + t * t)) for t in zeros])
    sigma = ms.AtomicMeasure(zeros, s, is_probability=False)
    # a from F(i) = i + a + sum s (1 + i t)/(t - i): avoids large-y cancellation
    Fi = complex(1.0 / cauchy_eval(m, 1j))
    corr = complex((s * (1.0 + 1j * zeros) / (zeros - 1j)).sum())
    a = (Fi - 1j - corr).real
    return NevanlinnaRep(a=a, sigma=sigma)


def nevanlinna_synthesize(rep: NevanlinnaRep) -> NevanlinnaMap:
    """Evaluable map ``z + a + sum s_k (1 + t_k z)/(t_k - z)``."""
    return NevanlinnaMap(rep)


# ---------------------------------------------------------------------------
# Stieltjes inversion
# ---------------------------------------------------------------------------

def default_grid(lo: float = -4.0, hi: float = 4.0, h: float = 1e-3) -> np.ndarray:
    """The standard inversion grid."""
    n = int(round((hi - lo) / h)) + 1
    return lo + h * np.arange(n)


def measure_from_map(F: SelfMap, grid: np.ndarray | None = None, eta: float = 1e-2,
                     *, richardson: bool = True) -> ms.GridDensity:
    """Recover a density on a uniform grid by Stieltjes inversion of ``1/F``.

    The density is ``-Im(1/F(x + i*eta))/pi``; with `richardson` the linear
    eta-term is removed using the pair ``(eta, eta/2)``.  Negative values
    from roundoff/extrapolation are clamped at zero and the clamped mass is
    recorded on the result.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = default_grid() if grid is None else np.asarray(grid, dtype=float)
    h = x[1] - x[0]
    if not np.allclose(np.diff(x), h, rtol=1e-9, atol=0):
        raise ValueError("inversion grid must be uniform")
    d = -np.imag(1.0 / f_eval(F, x + 1j * eta)) / np.pi
    if richardson:
        d_half = -np.imag(1.0 / f_eval(F, x + 0.5j * eta)) / np.pi
        d = 2.0 * d_half - d
    clamped = float(-d[d < 0].sum() * h) + 0.0
    return ms.GridDensity(float(x[0]), float(h), np.maximum(d, 0.0), clamped_mass=clamped)


# ---------------------------------------------------------------------------
# CDFs and the sup-CDF (Kolmogorov) distance
# ---------------------------------------------------------------------------

def cdf(m: ms.Measure | ms.GridDensity, x, side: str = "mid"):
    """CDF values at ``x``; atoms use the requested convention.

    ``side='mid'`` assigns half of an atom's mass at the atom itself, which
    is the convention used by :func:`ks_distance` (it makes the distance
    insensitive to how a smoothed approximation splits a jump).
    """
    xarr = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(m, ms.AtomicMeasure):
        cum = np.concatenate(([0.0], np.cumsum(m.masses)))
        right = cum[np.searchsorted(m.positions, xarr, side="right")]
        if side == "right":
            out = right
        else:
            left = cum[np.searchsorted(m.positions, xarr, side="left")]
            out = left if side == "left" else 0.5 * (left + right)
    elif isinstance(m, ms.GridDensity):
        out = np.interp(xarr, m.grid, m.cdf_values(), left=0.0, right=m.total_mass)
    elif isinstance(m, ms.ReferenceLaw):
        if m.kind == "point":
            if side == "right":
                out = (xarr >= m.c).astype(float)
            elif side == "left":
                out = (xarr > m.c).astype(float)
            else:
                out = np.where(xarr > m.c, 1.0, 0.0) + 0.5 * (xarr == m.c)
        else:
            u = xarr / m.scale
            if m.kind == "arcsine":
                out = 0.5 + np.arcsin(np.clip(u / math.sqrt(2.0), -1, 1)) / np.pi
            elif m.kind == "normal":
                out = special.ndtr(u)
            else:  # semicircle
                uu = np.clip(u, -2.0, 2.0)
                out = 0.5 + uu * np.sqrt(4.0 - uu * uu) / (4.0 * np.pi) + np.arcsin(uu / 2.0) / np.pi
    elif isinstance(m, ms.PowerTailLaw):
        p, w, b = m.exponent, m.weight, m.scale
        u = xarr / b
        half = m.total_mass / 2.0
        out = np.full(u.shape, half)
        neg = u <= -1.0
        out[neg] = w * np.abs(u[neg]) ** (1.0 - p) / (p - 1.0)
        poss = u >= 1.0
        out[poss] = m.total_mass - w * u[poss] ** (1.0 - p) / (p - 1.0)
    else:
        raise TypeError(f"not a measure: {m!r}")
    return out if np.ndim(x) else float(out[0])


def _atoms_of(m) -> np.ndarray:
    if isinstance(m, ms.AtomicMeasure):
        return m.positions
    if isinstance(m, ms.ReferenceLaw) and m.kind == "point":
        return np.array([m.c])
    return np.empty(0)


def _span_of(m) -> tuple[float, float]:
    if isinstance(m, ms.AtomicMeasure):
        return float(m.positions.min()), float(m.positions.max())
    if isinstance(m, ms.GridDensity):
        g = m.grid
        return float(g[0]), float(g[-1])
    if isinstance(m, ms.ReferenceLaw):
        if m.kind == "point":
            return m.c, m.c
        if m.kind == "normal":
            return -8.0 * m.scale, 8.0 * m.scale
        r = math.sqrt(2.0) if m.kind == "arcsine" else 2.0
        return -r * m.scale, r * m.scale
    if isinstance(m, ms.PowerTailLaw):
        big = m.scale * max(10.0, (1e-7) ** (1.0 / (1.0 - m.exponent)))
        return -big, big
    raise TypeError(f"not a measure: {m!r}")


def ks_distance(d: ms.GridDensity | ms.Measure, target: ms.Measure, *,
                coverage_tol: float = 1e-6, dense: int = 4001,
                atom_window: float = 0.0) -> float:
    """Sup-CDF distance between ``d`` and ``target``.

    Evaluation points are the grid of ``d`` (when it is a
    :class:`~monoclt.measures.GridDensity`) or a dense fill of the combined
    support, plus all atom locations; atoms contribute with the midpoint
    convention.  Raises :class:`CoverageError` when the target carries more
    than `coverage_tol` mass outside the comparison grid.

    When comparing a *smoothed* approximation against a target with atoms,
    the classical sup never drops below half the jump just next to an atom;
    set `atom_window` to a few smoothing widths to compare, inside that
    window, only at the jump midpoint.
    """
    if isinstance(d, ms.GridDensity):
        xs = d.grid
        lo, hi = xs[0], xs[-1]
        outside = cdf(target, lo, "left") + (ms.total_mass(target) - cdf(target, hi, "right"))
        if outside > coverage_tol:
            raise CoverageError(
                f"target has mass {outside:.3g} outside the grid [{lo}, {hi}]")
    else:
        lo = min(_span_of(d)[0], _span_of(target)[0])
        hi = max(_span_of(d)[1], _span_of(target)[1])
        pad = 0.05 * (hi - lo) + 1e-9
        xs = np.linspace(lo - pad, hi + pad, dense)
    atoms = np.unique(np.concatenate((_atoms_of(d), _atoms_of(target))))
    pts = np.asarray(xs, dtype=float)
    if len(atoms):
        # drop fill points that numerically duplicate an atom (or sit inside
        # the requested window around one), then add the atoms themselves
        idx = np.searchsorted(atoms, pts)
        dist = np.full(pts.shape, np.inf)
        left_ok = idx > 0
        dist[left_ok] = np.abs(pts[left_ok] - atoms[idx[left_ok] - 1])
        right_ok = idx < len(atoms)
        dist[right_ok] = np.minimum(dist[right_ok],
                                    np.abs(atoms[idx[right_ok]] - pts[right_ok]))
        window = np.maximum(atom_window, 1e-9 * (1.0 + np.abs(pts)))
        pts = np.concatenate((pts[dist > window], atoms))
    return float(np.max(np.abs(cdf(d, pts, "mid") - cdf(target, pts, "mid"))))


# ---------------------------------------------------------------------------
# Tightness diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TightnessStat:
    """Relative deviations ``|F(iy)/(iy) - 1|`` for a family of maps."""

    deviations: np.ndarray          # shape (n_maps, n_y)
    y_values: np.ndarray
    tight: bool


def tightness_stat(F_list, y_list, *, threshold: float = 0.05) -> TightnessStat:
    """Deviation matrix ``|F(iy)/(iy) - 1|``; the family is flagged tight
    when the sup over maps at the largest y is below `threshold`."""
    ys = np.asarray(list(y_list), dtype=float)
    if np.any(ys <= 0):
        raise ValueError("y values must be positive")
    devs = np.empty((len(F_list), len(ys)))
    for i, F in enumerate(F_list):
        vals = f_eval(F, 1j * ys)
        devs[i] = np.abs(vals / (1j * ys) - 1.0)
    j_big = int(np.argmax(ys))
    return TightnessStat(devs, ys, bool(devs[:, j_big].max() < threshold))
