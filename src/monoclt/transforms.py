"""Cauchy transforms, half-plane self-maps, and inversion diagnostics.

The Cauchy transform of a probability measure ``m`` is
``G(z) = int 1/(z - t) dm(t)`` on the upper half-plane; its reciprocal
``F = 1/G`` is an analytic self-map of the half-plane with
``F(iy)/iy -> 1``.  Monotone convolution composes these maps, so the
workbench represents maps symbolically (composition/iteration/dilation
nodes) and evaluates them pointwise -- rational degree explodes under
composition, but evaluation stays ``O(chain length)`` per point.

Every map form used downstream lives here:

* :class:`MeasureMap` -- ``F = 1/G`` of a measure (for an atomic probability
  law, evaluated in partial fractions),
* :class:`NevanlinnaMap` -- ``z + a + sum s_k (1 + t_k z)/(t_k - z)``,
* :class:`ComposeMap`, :class:`IterateMap`, :class:`DilatedMap`,
* :class:`ArcsineMap` -- the closed form ``sqrt(z^2 - 2)`` with the branch
  analytic off ``[0, inf)`` and ``sqrt(-1) = i``,
* :class:`ScaledPowerMap` and :class:`FreeConvolveMap` (logic in
  :mod:`monoclt.convolve`).

Every pole sum ``sum_k w_k/(t_k - x)`` -- the Cauchy transform of an
atomic or grid measure, a Nevanlinna map's partial fractions, the boundary
maps of :mod:`monoclt.ergodic` and, with squared denominators, their
derivatives -- is a call of one `_PoleSum`, an object that owns its poles
cast to the points' dtype and one reused workspace of at most ``_CHUNK``
elements.  Each caller builds one per loop or per call and keeps it
private, so an iteration's step allocates no temporary of the size of the
poles.  Its two branches (a loop over at most 24 complex or 32 real poles,
else one reduce of the whole block) add each point's terms in numpy's own
pairwise order, bit for bit, whatever the block size.

The Cauchy transform ``sum_k w_k/(z - t_k)`` is 0 minus the pole sum and
``1/G`` is ``-(1/s)``: both negations are exact, so every value equals the
direct formula's bit for bit.

Evaluation has one path: `_evaluator` turns a map node or a measure into
a function of flat points, built once per `f_eval` call or loop so that
each of its pole sums keeps one `_PoleSum`, in one dispatch over node types.
Pole-form maps use two formulas.  ``x + c + sum w_k/(t_k - x)``
(`_pole_map`) is a Nevanlinna map's partial fractions, on the half-plane
and, as its boundary map, on the line; it is also the map of every atomic
probability law with k atoms, whose k - 1 poles are the zeros of G
(`_map_form`: extracted once per measure by `nevanlinna_extract`, certified
against ``1/G`` and cached on the measure).  A point mass is the one-atom
law: its map ``z - c`` has no pole, and ``point_mass(0)``'s is the
identity, bit for bit.  It needs one pole fewer than
G and no reciprocal, and ``Im F >= Im z`` holds term by term.  ``1/G``
(`_inverse_cauchy`) remains for grid laws, atomic laws that are not
probability laws, and laws whose extraction fails its certificate.

`measure_from_map` recovers a grid density by Stieltjes inversion
(``-Im(1/F(x + i*eta))/pi``) with optional linear Richardson extrapolation
in eta, and `ks_distance` quantifies weak convergence as a sup-CDF
distance using the midpoint convention at atoms.

scipy is loaded only where it is used, so atomic and grid laws never
load it.  This module loads only ``scipy.special``, for the closed-form
Cauchy transforms of the normal law (``wofz``) and a power-tail law
(``hyp2f1``) and the normal CDF (``ndtr``).  The zeros of G are found by
`_brentq`, a port of scipy's ``brentq`` with the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from .errors import CoverageError, DomainError, MonocltError, NonConvergence, NumericBreakdown

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

#: `_PoleSum` loops over the poles (its few-pole branch) for at most this
#: many poles, by dtype char (complex, real).  Measured on one call over
#: 8001 and 20 001 points (2-vCPU VM, numpy 2.4), the loop runs 4-5x
#: faster than the reduce at 2 complex poles, 1.1-1.2x at 24 and breaks
#: even at 28-32; for real points 10x at 2, 1.1-1.3x at 32 and even at 40.
#: numpy's reduce order was checked up to 64 complex and 128 real terms.
_FEW_POLES = {"D": 24, "d": 32}

#: ... and only for at least this many points per pole: each pole costs the
#: loop three or four numpy calls, which on a few points outweigh the
#: reduce's slow inner loop (the two break even at 50-100 points per pole).
_FEW_POINTS_PER_POLE = 128

#: `_PoleSum` subtracts and divides on poles tiled to its block for rows
#: of at most this many poles, and subtracts the points broadcast from the
#: poles above it.  numpy buffers a broadcast subtract whose rows fit in a
#: third of its 8192-element ufunc buffer, which makes it 2-4x slower than
#: a flat one.  Measured on one block (2-vCPU VM, numpy 2.4; 3-24 rows,
#: real and complex alike), copy + flat subtract + flat divide takes
#: 0.61-0.89 of broadcast subtract + divide at 20-2730 poles and 1.02-1.25
#: at 2731-20 000; with a 16 384-element buffer the step moves to 5461/5462.
_TILE_POLES = 8192 // 3

#: accumulators of numpy's pairwise add-reduce along a contiguous row: 8
#: floats, so 4 complex numbers or 8 reals
_LANES = {"D": 4, "d": 8}

#: `_orbit` steps fewer poles on Python complex numbers (us/step against a
#: one-element array: 0.33 vs 7.6 at 1 pole, even at 50-60, 9.0 vs 7.8 at 64)
_ORBIT_SCALAR_POLES = 64

#: relative agreement with ``1/G`` that certifies an atomic law's extracted
#: partial fractions (see `_map_form`)
_FORM_TOL = 1e-12


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


def _require_upper(z: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(z) & (np.imag(z) > 0)):
        raise DomainError("evaluation point must be finite with Im z > 0")
    return z


class _PoleSum:
    """``x -> sum_k w_k / (t_k - x[i])`` over flat points `x` of `dtype`, or
    with `squared` ``sum_k w_k / (t_k - x[i])**2``, each call a fresh array.

    Each caller builds one per loop or per call and keeps it private (none
    is cached on a shared object such as a measure).  It is that caller's
    workspace: the poles `t` and weights `w` cast once to `dtype`, so
    complex points do not have numpy cast the real poles buffer by buffer on
    every call, and a ``(rows, len(t))`` block of that dtype, grown when a
    call needs more rows (one per point, at most ``_CHUNK`` elements in all)
    and never shrunk, so a step allocates no temporary of the size of the
    poles.  The points pass through the block ``rows`` at a time; only the
    points are chunked, so the block size never changes a bit of the result.
    The branches add the terms of each point in the same order, bit for bit:

    * Generic: the block holds one term per (point, pole), formed by one
      subtract, (square,) divide over the block, and each row is summed by
      ``np.add.reduce``.  That is pairwise summation: below 8 floats' worth
      of terms left to right; from there up to 128 floats, one accumulator
      per 8 floats' lane, added as a balanced tree, then the rest.  Squares
      are taken out of place, from a second block (see `_few_pole_rows`).
      For at most ``_TILE_POLES`` poles the first generic call tiles `t`
      and `w` to its rows (`tiles`, regrown when a call needs more); the
      points are copied into the block and the subtract and divide run
      flat over contiguous blocks, where numpy would buffer a broadcast
      subtract of such short rows.  Longer rows subtract the points
      broadcast from the poles.  Each term is the same IEEE subtract and
      divide of the same operands either way.
    * Few-pole (`_few_pole_rows`): for ``1 <= len(t) <= _FEW_POLES`` (24
      complex, 32 real) and at least ``_FEW_POINTS_PER_POLE`` (128) points
      per pole.  It forms one pole's term at a time on a vector of points
      and adds it in place, reproducing numpy 2.4's reduce order with
      ``L`` = 4 complex or 8 real lanes: below ``L`` terms, left to right;
      from ``L`` terms up, ``c_j = a_j`` for ``j < L``, ``c_j += a_{i+j}``
      for each full group of ``L``, then ``(c0 + c1) + (c2 + c3)`` (for 8
      lanes ``((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7))``), then the
      remaining terms left to right.  The reduce adds that sum to a
      starting ``+0.0``, which turns a ``-0.0`` into ``+0.0``; so does the
      branch's last step.  Its buffers are rows of the block.

    The cut is measured (see `_FEW_POLES`): numpy reduces a short trailing
    axis slowly, so a loop of whole-vector calls wins for a few poles, but
    it costs three or four numpy calls per pole, which lose to the one
    reduce for many poles or few points.  numpy's order was checked up to
    64 complex and 128 real terms (one pairwise block); a test pins it.
    """

    def __init__(self, t, w, dtype=complex):
        self.t, self.w = np.asarray(t, dtype), np.asarray(w, dtype)
        self.block = np.empty((1, len(t)), dtype)
        self.tiles = self.block[:0], self.block[:0]

    def __call__(self, x: np.ndarray, squared: bool = False) -> np.ndarray:
        t, w, blk = self.t, self.w, self.block
        need = min(len(x), _CHUNK // max(len(t), 1))
        if need > len(blk):
            blk = self.block = np.empty((need, len(t)), blk.dtype)
        rows = len(blk)
        out = np.empty(len(x), dtype=blk.dtype)
        if 0 < len(t) <= _FEW_POLES.get(blk.dtype.char, 0) \
                and len(x) >= _FEW_POINTS_PER_POLE * len(t):
            bufs = blk.reshape(-1)[:min(len(t), _LANES[blk.dtype.char] + 1) * rows].reshape(-1, rows)
            for i in range(0, len(x), rows):
                j = min(i + rows, len(x))
                _few_pole_rows(t, w, x[i:j], bufs[:, :j - i], out[i:j], squared)
            return out
        tiled, n = len(t) <= _TILE_POLES, min(rows, len(x))
        if tiled and len(self.tiles[0]) < n:
            self.tiles = np.tile(t, (n, 1)), np.tile(w, (n, 1))
        tt, tw = self.tiles
        diff = np.empty_like(blk) if squared else blk
        for i in range(0, len(x), rows):
            j = min(i + rows, len(x))
            b, d = blk[:j - i], diff[:j - i]
            if tiled:
                d[...] = x[i:j, None]
                np.subtract(tt[:j - i], d, out=d)
                num = tw[:j - i]
            else:
                np.subtract(t, x[i:j, None], out=d)
                num = w
            if squared:
                np.square(d, out=b)
            np.divide(num, b, out=b)
            np.add.reduce(b, axis=-1, out=out[i:j])     # what ndarray.sum runs
        return out


def _few_pole_rows(t, w, x, bufs, out, squared):
    """`_PoleSum`'s few-pole branch on one block of points `x`, summed into
    `out`.  `bufs` has ``min(k, L + 1)`` rows: below ``L`` poles a
    temporary for each new term, else the ``L - 1`` lanes after `out` and
    the temporary; the last row holds the difference a squared term is
    squared from (numpy squares a one-element complex array in place by a
    scalar loop whose last bit can differ, so no square is in place)."""
    k, lanes = len(t), _LANES[out.dtype.char]
    tmp, diff = bufs[0 if k < lanes else lanes - 1], bufs[-1]

    def term(p, dst):
        if squared:
            np.subtract(t[p], x, out=diff)
            np.square(diff, out=dst)
        else:
            np.subtract(t[p], x, out=dst)
        np.divide(w[p], dst, out=dst)
        return dst

    if k < lanes:
        term(0, out)
        for p in range(1, k):
            np.add(out, term(p, tmp), out=out)
    else:
        acc = [out, *bufs[:lanes - 1]]
        for p in range(lanes):
            term(p, acc[p])
        full = k - k % lanes
        for p in range(lanes, full):
            np.add(acc[p % lanes], term(p, tmp), out=acc[p % lanes])
        while len(acc) > 1:
            for a, b in zip(acc[0::2], acc[1::2]):
                np.add(a, b, out=a)
            acc = acc[0::2]
        for p in range(full, k):
            np.add(out, term(p, tmp), out=out)
    np.add(out, 0.0, out=out)


def _pole_map(c: float, t: np.ndarray, w: np.ndarray, dtype=complex):
    """``x -> x + c + sum_k w_k/(t_k - x)`` over flat points of `dtype`, on
    one `_PoleSum` (``x -> x + c`` without poles).  ``x + c`` is added into
    the pole sum's own output, which is ``(x + c) + s`` bit for bit."""
    if len(t) == 0:
        return lambda x: x + c
    psum = _PoleSum(t, w, dtype)

    def step(x):
        s = psum(x)
        s += x + c
        return s

    return step


def _lattice(i: np.ndarray) -> np.ndarray:
    """Order-preserving int64 keys of float64 bits, and back (an involution)."""
    return i ^ ((i >> 63) & 0x7FFF_FFFF_FFFF_FFFF)


def _lattice_bisect(f, lo, hi) -> np.ndarray:
    """One root of each row's `f` between the floats ``lo[j] <= hi[j]``.

    ``f(x, rows)`` evaluates the live `rows` at the floats `x` and must
    increase across each bracket, whose ends (``-inf`` and ``+inf`` allowed)
    are never evaluated.  A step halves the floats left between the ends as
    int64 keys, keeping ``hi`` where ``f > 0`` and ``lo`` elsewhere (NaN
    too); after at most 64 steps they are adjacent, and the root is the end
    whose bits are even: what ``0.5 (lo + hi)`` rounds to, without its
    overflow beyond 9e307.  A row's root does not depend on the others.
    """
    lo = _lattice(np.array(lo, dtype=float).view(np.int64))
    hi = _lattice(np.array(hi, dtype=float).view(np.int64))
    act = np.arange(len(lo))
    while len(act := act[hi[act] > lo[act] + 1]):
        l, h = lo[act], hi[act]
        mid = (l >> 1) + (h >> 1) + (l & h & 1)
        up = f(_lattice(mid).view(float), act) > 0
        hi[act[up]] = mid[up]
        lo[act[~up]] = mid[~up]
    lo, hi = _lattice(lo), _lattice(hi)
    return np.where(hi & 1, lo, hi).view(float)


def _inverse_cauchy(t: np.ndarray, w: np.ndarray):
    """``z -> 1/G(z)`` for ``G = sum_k w_k/(z - t_k)``, on one `_PoleSum`: ``-(1/s)``
    for the pole sum s, which is ``1/(0 - s)`` bit for bit wherever ``s != 0``."""
    psum = _PoleSum(t, w)

    def inverse(z):
        s = psum(z)
        np.divide(1.0, s, out=s)
        v = s.view(float)
        np.negative(v, out=v)
        return s

    return inverse


def _map_form(m):
    """``(c, t, w)`` with ``F = 1/G = z + c + sum_j w_j/(t_j - z)`` for an
    atomic probability law `m`, else None.

    The triple is `_partial_fractions` of `nevanlinna_extract`, made once
    per measure object and cached on it (measures are immutable).  It is
    certified before use: every ``w_j`` finite and positive, every ``t_j``
    strictly inside its gap between atoms, and F within ``_FORM_TOL``
    relative of ``1/G`` at ``i`` and at ``p + i d`` for each atom ``p``,
    ``d`` its distance to the nearest other atom.  The atoms' points are
    there because the form loses digits where ``|c|`` or a term dwarfs F:
    atoms at ``-1e10, 0, 1e-10`` pass at ``i`` but are 37% off at
    ``1e-10 + 1e-10 i``.  A law whose extraction raises a
    :class:`MonocltError` or fails the certificate caches None, and its map
    stays ``1/G`` (`_inverse_cauchy`).
    """
    if not isinstance(m, ms.AtomicMeasure) or not m.is_probability:
        return None
    if "_map_form" not in vars(m):
        object.__setattr__(m, "_map_form", _certified_form(m))
    return m._map_form


def _certified_form(m: ms.AtomicMeasure):
    """`_map_form`'s triple of `m`, or None where it fails its certificate."""
    try:
        c, t, w = _partial_fractions(nevanlinna_extract(m))
    except MonocltError:
        return None
    pos = m.positions
    if not (np.all(np.isfinite(w) & (w > 0)) and np.all((pos[:-1] < t) & (t < pos[1:]))):
        return None
    gaps = np.diff(pos)
    near = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    keep = np.isfinite(near)                # not a lone atom, nor one an infinite gap away
    z = np.append(1j, pos[keep] + 1j * near[keep])
    want = _inverse_cauchy(pos, m.masses)(z)
    if not np.all(np.abs(_pole_map(c, t, w)(z) - want) <= _FORM_TOL * np.abs(want)):
        return None
    return c, t, w


def _poles(m):
    """``(t, w)`` of ``G = sum_k w_k/(z - t_k)``, atomic or grid (trapezoid), else None."""
    if isinstance(m, ms.AtomicMeasure):
        return m.positions, m.masses
    if isinstance(m, ms.GridDensity):
        wts = np.full(len(m.values), m.h)
        wts[0] = wts[-1] = 0.5 * m.h
        return m.grid, wts * m.values
    return None


def cauchy_eval(m: ms.Measure, z):
    """Cauchy transform ``G(z) = int 1/(z - t) dm(t)`` for ``Im z > 0``.

    Vectorized over `z`.  Always satisfies ``Im G < 0`` and
    ``|G| <= total_mass / Im z``; an atomic or grid law raises
    :class:`NumericBreakdown` where a value is not finite (a point within
    about 1e-308 of an atom), and a power-tail law also where rounding
    would break the first.
    """
    zarr = np.asarray(z, dtype=complex)
    _require_upper(zarr)
    flat = zarr.ravel()
    poles = _poles(m)
    if poles is not None:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = _PoleSum(*poles)(flat)
        bad = ~np.isfinite(out)
        if bad.any():
            raise NumericBreakdown(f"G is not finite at z = {complex(flat[np.argmax(bad)])!r}")
        # 0 - s on the float view (5x faster): a real part cancelled to 0 stays +0
        v = out.view(float)
        np.subtract(0.0, v, out=v)
    elif isinstance(m, ms.ReferenceLaw):
        u = flat / m.scale
        if m.kind == "arcsine":
            out = 1.0 / (m.scale * sqrt_upper(u * u - 2.0))
        elif m.kind == "semicircle":
            out = (u - sqrt_upper(u * u - 4.0)) / (2.0 * m.scale)
        else:  # normal: G(z) = -i sqrt(pi/2) w(z/sqrt2), w = Faddeeva function
            from scipy import special
            out = -1j * math.sqrt(math.pi / 2.0) * special.wofz(u / math.sqrt(2.0)) / m.scale
    elif isinstance(m, ms.PowerTailLaw):
        out = _cauchy_power_tail(m, flat)
    else:
        raise TypeError(f"not a measure: {m!r}")
    out = out.reshape(zarr.shape)
    return out if out.ndim else complex(out)


def _cauchy_power_tail(m: ms.PowerTailLaw, z: np.ndarray) -> np.ndarray:
    """``G(z) = -(2 w u/((p + 1) b)) 2F1(1, (p+1)/2; (p+3)/2; u^2)`` with ``u = z/b``.

    The series of DLMF 15.2.1 (``1/(u^2 - t^2)`` expanded in ``t^-2``, each
    term a moment of ``w t^-p`` on ``t >= 1``), continued to ``Im u > 0``,
    where ``u^2`` never lies on the cut ``[1, inf)``.  Raises
    :class:`NumericBreakdown` where ``u^2`` overflows (``|u|`` above about
    1.3e154) or rounding leaves ``Im G >= 0`` (``Im z/|z|`` below about 1e-15).
    """
    from scipy import special
    p, w, b = m.exponent, m.weight, m.scale
    u = z / b
    with np.errstate(over="ignore", invalid="ignore"):
        f = special.hyp2f1(1.0, 0.5 * (p + 1.0), 0.5 * (p + 3.0), u * u)
        out = (-2.0 * w / ((p + 1.0) * b)) * (u * f)      # u f ~ 1/u: only a G that overflows does
    bad = ~(np.isfinite(out) & (out.imag < 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericBreakdown(f"power-tail G reads {out[i]!r} at z = {z[i]!r}, not finite with Im G < 0")
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


def _partial_fractions(rep: NevanlinnaRep):
    """``(c, t, w)`` with the map of `rep` ``z + c + sum w_k/(t_k - z)``: by
    ``(1 + t z)/(t - z) = -t + (1 + t^2)/(t - z)``, ``w_k = s_k (1 + t_k^2)``
    and ``c = a - sum s_k t_k``."""
    if rep.sigma is None:
        return rep.a, np.empty(0), np.empty(0)
    t, s = rep.sigma.positions, rep.sigma.masses
    return rep.a - float((s * t).sum()), t, s * (1.0 + t * t)


class SelfMap:
    """Base class for evaluable analytic self-maps of the upper half-plane."""

    def __call__(self, z):
        return f_eval(self, z)


@dataclass(frozen=True)
class MeasureMap(SelfMap):
    """Reciprocal Cauchy transform ``F = 1/G`` of a measure.

    An atomic probability law's map is evaluated as
    ``z + c + sum_j w_j/(t_j - z)``, from its certified Nevanlinna
    extraction (`_map_form`); other measures' as ``1/G``.
    """

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
        object.__setattr__(self, "_pf", _partial_fractions(self.rep))


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


def _check_upper_out(w: np.ndarray, what: str) -> np.ndarray:
    if np.min(np.imag(w)) < -BREAKDOWN_TOL:
        raise NumericBreakdown(f"{what} produced Im = {np.min(np.imag(w))!r} < -{BREAKDOWN_TOL}")
    return w


def f_eval(F: SelfMap, z):
    """Evaluate a half-plane self-map at ``z`` (scalar or array), with guards.

    Raises :class:`DomainError` off the open upper half-plane and
    :class:`NumericBreakdown` if any intermediate drops below the real axis
    by more than ``1e-9`` (which would indicate a representation bug), or
    if a value returned is not finite with ``Im > 0`` (say, ``Im F``
    rounded to 0 far out on the real axis).  numpy's floating-point
    warnings are off inside: such a value comes out as that error alone.
    """
    zarr = np.asarray(z, dtype=complex)
    _require_upper(zarr)
    if not isinstance(F, SelfMap):
        raise TypeError(f"not an analytic self-map: {F!r}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _evaluator(F)[0](zarr.ravel())
    if not np.all(np.isfinite(out) & (out.imag > 0)):
        raise NumericBreakdown(f"{type(F).__name__} left the open upper half-plane "
                               "(a value is not finite or has Im <= 0)")
    out = out.reshape(zarr.shape)
    return out if out.ndim else complex(out)


def _evaluator(F):
    """``(fn, step)``: the map node or measure `F` as functions of flat points.

    `fn` runs `_check_upper_out` after each node that has a check (all but
    compositions and iterations).  `step` is the unchecked
    formula of an atomic measure's map or a Nevanlinna map, which an
    iteration repeats and checks once at its end; other nodes have None.
    That formula is `_pole_map` on the partial fractions of `_map_form`
    for an atomic probability law that has them, else `_inverse_cauchy`.
    A measure stands for its map as a loop step: `fn` is `step` if any.
    """
    if not isinstance(F, SelfMap):
        fn, step = _evaluator(MeasureMap(F))
        return step or fn, step
    step = None
    if isinstance(F, ComposeMap):
        parts = [_evaluator(part)[0] for part in reversed(F.parts)]
        return (lambda z: functools.reduce(lambda w, part: part(w), parts, z)), None
    if isinstance(F, IterateMap):
        base, step = _evaluator(F.base)
        power = _repeat(step or base, F.n)
        return (power if step is None else lambda z: _check_upper_out(power(z), "iteration")), None
    if isinstance(F, ScaledPowerMap):
        power, B = _repeat(_evaluator(F.measure)[0], F.n), F.B
        return (lambda z: _check_upper_out(power(z * B) / B, "iteration")), None
    if isinstance(F, MeasureMap):
        m, poles, form = F.measure, _poles(F.measure), _map_form(F.measure)
        if form is not None:
            step = _pole_map(*form)
            raw = lambda z: step(_require_upper(z))
        elif poles is None:
            raw = lambda z: 1.0 / cauchy_eval(m, z)
        else:
            inverse = _inverse_cauchy(*poles)
            raw = lambda z: inverse(_require_upper(z))      # as cauchy_eval checks z
            if isinstance(m, ms.AtomicMeasure):
                step = inverse
    elif isinstance(F, NevanlinnaMap):
        raw = step = _pole_map(*F._pf)
    elif isinstance(F, DilatedMap):
        base, b = _evaluator(F.base)[0], F.b
        raw = lambda z: b * base(z / b)
    elif isinstance(F, ArcsineMap):
        raw = lambda z: np.asarray(sqrt_upper(z * z - 2.0))
    elif isinstance(F, FreeConvolveMap):
        from .convolve import subordination_eval

        raw = lambda z: subordination_eval(F.m, F.n, z)[0]
    else:
        raise TypeError(f"not an analytic self-map: {F!r}")
    what = type(F).__name__
    return (lambda z: _check_upper_out(raw(z), what)), step


def _orbit(F, z: complex, n: int) -> np.ndarray:
    """The iterates ``z, F(z), ..., F^n(z)`` of a map node or measure `F`: a law's
    `_map_form` or a `NevanlinnaMap`'s partial fractions step on Python complex
    numbers below `_ORBIT_SCALAR_POLES` poles, other maps by `_evaluator`'s step
    on a one-element array; one `_check_upper_out` covers every iterate."""
    form = F._pf if isinstance(F, NevanlinnaMap) else _map_form(F)
    if form is not None and len(form[1]) < _ORBIT_SCALAR_POLES:
        c, poles = form[0], list(zip(form[1].tolist(), form[2].tolist()))

        def step(z):
            s = 0j
            for t, w in poles:
                s += w / (t - z)
            return z + c + s
    else:
        fn, step = _evaluator(F)
        step, z = step or fn, np.array([z], dtype=complex)
    zs = [z]
    try:
        for _ in range(n):
            zs.append(z := step(z))
    except ZeroDivisionError:
        raise NumericBreakdown(f"the orbit of {zs[0]!r} stepped onto a pole at {z!r}") from None
    return _check_upper_out(np.array(zs, dtype=complex).ravel(), "orbit")


def _repeat(fn, n: int):
    def repeated(z):
        for _ in range(n):
            z = fn(z)
        return z

    return repeated


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

    Each zero is bracketed by halving a probe's distance to the gap's atoms
    until G has the sign it takes next to that atom, then found by Brent's
    method (`_brentq`, a port of scipy's ``brentq`` whose zeros have the
    same bits as ``scipy.optimize.brentq``'s).  A mass is formed on the
    zero and the atoms divided by a power of two at or above the zero's
    distance to its nearest atom (1 below 1), so it stays finite at every
    scale and spread and has the unscaled formula's bits wherever that
    formula neither over- nor underflows.
    A zero within an ulp of an atom (a mass of about 1e-16 of its
    neighbour's or less) has no float probe of that sign; the halving stops
    when the probe rounds onto the atom and raises
    :class:`NumericBreakdown`, as does a residue that over- or underflows.
    Brent's step cap raises :class:`NonConvergence`.  `_map_form` caches
    the partial fractions of the result on `m`: every atomic probability
    law's map steps by them.
    """
    if not isinstance(m, ms.AtomicMeasure) or not m.is_probability:
        raise TypeError("extraction needs an atomic probability measure")
    pos, mas = m.positions, m.masses
    k = len(pos)
    if k == 1:
        return NevanlinnaRep(a=-float(pos[0]), sigma=None)

    def G(x):
        return float((mas / (x - pos)).sum())

    def mass(t):
        kappa = math.ldexp(1.0, min(1023, max(0, math.frexp(float(np.abs(t - pos).min()))[1])))
        d = (t - pos) / kappa
        with np.errstate(over="ignore", divide="ignore"):
            den = float((mas / (d * d)).sum()) * (1.0 / kappa / kappa + (t / kappa) * (t / kappa))
        return 1.0 / den if den else math.inf

    def off(atom, eps):
        """``atom + eps``, which must be another float: a probe that rounds
        onto the atom would halve `eps` forever."""
        x = atom + eps
        if x == atom:
            raise NumericBreakdown(f"the zero of G next to the atom at {atom!r} lies within "
                                   "an ulp of it, so F has no representable pole there")
        return x

    zeros = np.empty(k - 1)
    for j in range(k - 1):
        lo_atom, hi_atom = pos[j], pos[j + 1]
        gap = hi_atom - lo_atom
        eps = 0.25 * gap
        while G(off(lo_atom, eps)) <= 0:
            eps *= 0.5
        lo = lo_atom + eps
        eps = -0.25 * gap
        while G(off(hi_atom, eps)) >= 0:
            eps *= 0.5
        hi = hi_atom + eps
        zeros[j] = t = _brentq(G, float(lo), float(hi), 1e-300, 1e-14, 200)
        if math.isnan(t):
            raise NonConvergence(f"the zero of G in ({lo_atom!r}, {hi_atom!r}) is not found "
                                 "in 200 steps of Brent's method")

    # residue of F = 1/G at a simple zero t of G is 1/G'(t) (negative here);
    # its mass is -1/(G'(t) (1 + t^2))
    s = np.array([mass(t) for t in zeros])
    if not np.all(np.isfinite(s) & (s > 0)):
        raise NumericBreakdown("a residue of F at a zero of G over- or underflows")
    sigma = ms.AtomicMeasure(zeros, s, is_probability=False)
    # a from F(i) = i + a + sum s (1 + i t)/(t - i): avoids large-y cancellation
    Fi = complex(1.0 / cauchy_eval(m, 1j))
    corr = complex((s * (1.0 + 1j * zeros) / (zeros - 1j)).sum())
    a = (Fi - 1j - corr).real
    return NevanlinnaRep(a=a, sigma=sigma)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Zero of `f` in ``[xa, xb]`` by Brent's method, or NaN after `maxiter` steps.

    A step-for-step port of scipy's ``brentq.c`` (Brent 1973, ch. 4): the
    same float operations in the same order, so the zero has the same bits
    as ``scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol,
    maxiter=maxiter)``.  Python floats are C doubles, with no fused
    multiply-add.  Where the extrapolation's denominator underflows to 0,
    which laws at scales from about 1e62 bring about, the step bisects, as
    C's division to +-inf or NaN fails its short-step test.  The caller
    brackets the zero: ``f(xa)`` and ``f(xb)`` have opposite signs.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):   # good short step
                spre, scur = scur, stry
            else:                       # bisect
                spre = scur = sbis
        else:                           # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return math.nan


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
    return _inverted_density(grid, eta, richardson,
                             lambda x, etas: [f_eval(F, x + 1j * e) for e in etas])


def _inverted_density(grid, eta: float, richardson: bool, values) -> ms.GridDensity:
    """`measure_from_map` from ``values(x, etas)``, ``F(x + i*e)`` for ``e`` in `etas`."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if x.size < 2:
        raise ValueError("inversion grid needs at least two points")
    h = x[1] - x[0]
    if not np.allclose(np.diff(x), h, rtol=1e-9, atol=0):
        raise ValueError("inversion grid must be uniform")
    F = values(x, [eta, 0.5 * eta] if richardson else [eta])
    d = -np.imag(1.0 / F[0]) / np.pi
    if richardson:
        d = 2.0 * (-np.imag(1.0 / F[1]) / np.pi) - d
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
        u = xarr / m.scale
        if m.kind == "arcsine":
            out = 0.5 + np.arcsin(np.clip(u / math.sqrt(2.0), -1, 1)) / np.pi
        elif m.kind == "normal":
            from scipy import special
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
    return np.empty(0)


def _span_of(m) -> tuple[float, float]:
    if isinstance(m, ms.AtomicMeasure):
        return float(m.positions.min()), float(m.positions.max())
    if isinstance(m, ms.GridDensity):
        g = m.grid
        return float(g[0]), float(g[-1])
    if isinstance(m, ms.ReferenceLaw):
        if m.kind == "normal":
            return -8.0 * m.scale, 8.0 * m.scale
        r = math.sqrt(2.0) if m.kind == "arcsine" else 2.0
        return -r * m.scale, r * m.scale
    if isinstance(m, ms.PowerTailLaw):
        try:    # the cutoff outside which about 1e-7 of the mass lies
            big = m.scale * max(10.0, (1e-7) ** (1.0 / (1.0 - m.exponent)))
        except OverflowError:
            big = math.inf
        return -big, big
    raise TypeError(f"not a measure: {m!r}")


def ks_distance(d: ms.GridDensity | ms.Measure, target: ms.Measure) -> float:
    """Sup-CDF distance between ``d`` and ``target``.

    Evaluation points are the grid of ``d`` (when it is a
    :class:`~monoclt.measures.GridDensity`) or 4001 points filling the
    combined support, plus all atom locations; atoms contribute with the
    midpoint convention.  Raises :class:`CoverageError` when the target
    carries more than 1e-6 of mass outside the comparison grid, or when no finite
    grid covers the support (a power tail of exponent below about 1.0227).
    """
    if isinstance(d, ms.GridDensity):
        xs = d.grid
        lo, hi = xs[0], xs[-1]
        outside = cdf(target, lo, "left") + (ms.total_mass(target) - cdf(target, hi, "right"))
        if outside > 1e-6:
            raise CoverageError(
                f"target has mass {outside:.3g} outside the grid [{lo}, {hi}]")
    else:
        lo = min(_span_of(d)[0], _span_of(target)[0])
        hi = max(_span_of(d)[1], _span_of(target)[1])
        pad = 0.05 * (hi - lo) + 1e-9
        if not math.isfinite(pad):
            raise CoverageError(f"no finite grid covers the span [{lo}, {hi}]")
        xs = np.linspace(lo - pad, hi + pad, 4001)
    atoms = np.unique(np.concatenate((_atoms_of(d), _atoms_of(target))))
    pts = np.asarray(xs, dtype=float)
    if len(atoms):
        # drop fill points that numerically duplicate an atom, then add the
        # atoms themselves
        idx = np.searchsorted(atoms, pts)
        dist = np.full(pts.shape, np.inf)
        left_ok = idx > 0
        dist[left_ok] = np.abs(pts[left_ok] - atoms[idx[left_ok] - 1])
        right_ok = idx < len(atoms)
        dist[right_ok] = np.minimum(dist[right_ok],
                                    np.abs(atoms[idx[right_ok]] - pts[right_ok]))
        pts = np.concatenate((pts[dist > 1e-9 * (1.0 + np.abs(pts))], atoms))
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


def tightness_stat(F_list, y_list) -> TightnessStat:
    """Deviation matrix ``|F(iy)/(iy) - 1|``; the family is flagged tight
    when the sup over maps at the largest y is below 0.05."""
    ys = np.asarray(list(y_list), dtype=float)
    if np.any(ys <= 0):
        raise ValueError("y values must be positive")
    devs = np.empty((len(F_list), len(ys)))
    for i, F in enumerate(F_list):
        vals = f_eval(F, 1j * ys)
        devs[i] = np.abs(vals / (1j * ys) - 1.0)
    j_big = int(np.argmax(ys))
    return TightnessStat(devs, ys, bool(devs[:, j_big].max() < 0.05))
