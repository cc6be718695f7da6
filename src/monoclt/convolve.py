"""Monotone, classical, and free convolution of measures.

Monotone convolution composes reciprocal Cauchy transforms, so powers are
represented as iteration nodes and evaluated pointwise (degree would
multiply under symbolic expansion).  Classical powers of atomic measures
are exact, via iterated doubling: of mass vectors for a law on a lattice
``b + a*Z``, of atom pairs otherwise.  Free convolution is computed through
the analytic subordination fixed point: ``F_{m boxplus n} = F_m(omega1)``
where ``omega1`` solves

    omega1 = z + h_n(omega2),   omega2 = z + h_m(omega1),

with ``h(w) = F(w) - w``.  For an atomic probability law h is its partial
fractions ``c + sum_j w_j/(t_j - w)`` (see `transforms._map_form`), which
do not cancel at large ``|w|``; for other laws it is ``F(w) - w``.  The
solver looks for the zero of the residual ``r(w) = phi(w) - w`` of the
Belinschi--Bercovici map ``phi(w) = z + h_n(z + h_m(w))``.  Its fixed
point is the Denjoy--Wolff point of ``phi``, which attracts every start in
the upper half-plane, so a solve starts one standard deviation of
``m boxplus n`` above ``z`` (`_start_scale`), away from the real axis where
the secant can cycle.  Each step is a secant step on ``r`` through the last
two iterates where the secant point is usable, or the averaged map
``w + r/2`` (same fixed point) elsewhere; after the first
``_SECANT_CALLS`` (50) steps the secant is used only where ``|r|`` shrank
since the previous step, which breaks a cycle.  The plain iteration of
``phi`` alone converges only linearly, at a rate that degrades like
``1 - O(Im z)`` near the real axis.  A density scan (`free_density`)
solves cold once, at the largest requested eta, and continues from there
to the smaller ones.
"""

from __future__ import annotations

import math

import numpy as np

from . import measures as ms
from . import transforms as tf
from .errors import CapacityExceeded, NonConvergence, NumericBreakdown

__all__ = [
    "monotone_convolve",
    "monotone_power",
    "scaled_monotone_power",
    "classical_power",
    "free_convolve",
    "subordination_eval",
    "free_density",
]


def monotone_convolve(m: ms.Measure, n: ms.Measure) -> tf.ComposeMap:
    """Map of the monotone convolution: ``F_m o F_n`` (nondegenerate if
    either factor is)."""
    return tf.ComposeMap((tf.MeasureMap(m), tf.MeasureMap(n)))


def monotone_power(m: ms.Measure, n: int) -> tf.SelfMap:
    """Map of the n-fold monotone power; ``n = 0`` gives the map of the point
    mass at 0, which is the identity bit for bit."""
    if n < 0:
        raise ValueError("power must be >= 0")
    if n == 0:
        return tf.MeasureMap(ms.point_mass(0.0))
    return tf.IterateMap(tf.MeasureMap(m), n)


def scaled_monotone_power(m: ms.Measure, n: int, B: float) -> tf.ScaledPowerMap:
    """Map of the rescaled power ``D_{1/B} m^(n)``: evaluates ``F^(n)(Bz)/B``."""
    if n < 1:
        raise ValueError("power must be >= 1")
    return tf.ScaledPowerMap(m, n, float(B))


def classical_power(m: ms.AtomicMeasure, n: int, *, cap: int = ms.DEFAULT_ATOM_CAP) -> ms.AtomicMeasure:
    """Exact n-fold classical convolution power via iterated doubling.

    A law whose positions lie on a lattice ``b + a*Z``, checked exactly on
    its floats (each position equals ``b + a*k`` for an integer ``k``),
    doubles by convolving mass vectors (``np.convolve``) whose exact-zero
    (underflowed) ends are trimmed.  The power's positions are then exactly
    ``n*b + a*k``: nothing is sorted or merged, so no atom can be reordered,
    and products of subnormal masses stay where they belong.  This path is
    taken when the law's own mass vector is dense, at most
    ``_PAIRS_PER_CAP_ATOM`` (4) masses per atom (a sparse lattice such as
    ``{0, 1, 1e6}`` is not), and when the power's neighbours stay farther
    apart than the merge tolerance.  Every other law doubles by :func:`~monoclt.measures.classical_convolve`.

    Both paths prune atoms below ``1e-15`` (recorded in ``pruned_mass``)
    when a product has more than `cap` atoms, and raise
    :class:`~monoclt.errors.CapacityExceeded` before allocating a product of
    more than ``4 * cap`` pairs of atoms (of nonzero masses).
    """
    if n < 0:
        raise ValueError("power must be >= 0")
    lattice = _lattice(m, n)
    if lattice is not None:
        return _vector_power(m, n, *lattice, cap)
    return _doubling(n, ms.point_mass(0.0), m,
                     lambda u, v: ms.classical_convolve(u, v, cap=cap))


def _centered_power(m: ms.AtomicMeasure, n: int, mean: float) -> ms.AtomicMeasure:
    """The n-th classical power of ``m`` shifted by ``-n*mean``: the power of
    the centered law, except that a law on a lattice ``b + a*Z`` is powered
    on ``b - mean + a*Z``, since the centered positions ``fl(p - mean)``
    need not keep an exact lattice."""
    lattice = _lattice(m, n)
    if lattice is None:
        return classical_power(ms.shift(m, -mean) if mean != 0.0 else m, n)
    b, a, k = lattice
    return _vector_power(m, n, b - mean, a, k, ms.DEFAULT_ATOM_CAP)


def _doubling(n: int, one, base, product):
    """`base` to the n-th power under `product`, by iterated doubling."""
    result = one
    while n:
        if n & 1:
            result = product(result, base)
        n >>= 1
        if n:
            base = product(base, base)
    return result


def _lattice(m, n: int):
    """``(b, a, k)`` with ``m.positions == b + a*k`` exactly, for integers
    ``0 = k_0 < k_1 < ... < 4*len(m)``, where mass vectors on ``b + a*Z``
    give the n-th power of `m` (see :func:`classical_power`); else None."""
    if n < 1 or not isinstance(m, ms.AtomicMeasure):
        return None
    p = m.positions
    b, span = p[0], p[-1] - p[0]
    top = ms._PAIRS_PER_CAP_ATOM * len(p) - 1     # the last index of a dense vector
    gaps = np.unique(np.diff(p)).tolist() or [1.0]
    a = gaps[0]
    for g in gaps[1:]:
        # Euclid's algorithm, exact in floats (fmod is), stopped once the
        # spacing would leave the law's own vector sparse
        while g and span <= top * g:
            a, g = g, math.fmod(a, g)
        if g:
            return None
    if span > top * a:
        return None
    k = np.rint((p - b) / a)
    if not np.array_equal(b + a * k, p):
        return None
    if a <= ms.MERGE_TOL * (1.0 + n * float(np.abs(p).max())):
        return None         # neighbours the pair path merges, and floats may not keep apart
    return b, a, k.astype(np.int64)


def _vector_power(m: ms.AtomicMeasure, n: int, b: float, a: float, k: np.ndarray,
                  cap: int) -> ms.AtomicMeasure:
    """The n-th power of `m`, on ``b + a*k``, by convolving mass vectors.

    A factor is ``(lo, w, pruned)``: masses ``w`` at ``j*b + a*(lo + i)``
    for its power j, and the mass its products pruned, summed as
    :func:`~monoclt.measures.classical_convolve` sums it.
    """
    budget = ms._PAIRS_PER_CAP_ATOM * cap

    def product(u, v):
        (lo_u, w_u, pruned_u), (lo_v, w_v, pruned_v) = u, v
        # refuse on the pair path's own count, its atom pairs: a dense law's
        # powers stay dense, so the convolution of the vectors is as bounded
        atoms_u, atoms_v = np.count_nonzero(w_u), np.count_nonzero(w_v)
        if atoms_u * atoms_v > budget:
            raise CapacityExceeded(
                f"convolution would form {atoms_u} x {atoms_v} atom pairs, more "
                f"than {ms._PAIRS_PER_CAP_ATOM} per atom of the cap {cap}")
        w = np.convolve(w_u, w_v)
        pruned = pruned_u + pruned_v
        if np.count_nonzero(w) > cap:
            small = w < ms.PRUNE_MASS
            pruned += float(w[small].sum())
            w[small] = 0.0
            if np.count_nonzero(w) > cap:
                raise CapacityExceeded(
                    f"convolution produced {np.count_nonzero(w)} atoms (cap {cap}) even "
                    "after pruning")
            w = w / w.sum() * (w_u.sum() * w_v.sum())
        nonzero = np.flatnonzero(w)      # extreme tail products underflow to exact 0
        if not nonzero.size:
            raise NumericBreakdown("every mass of the classical power underflowed to 0")
        return lo_u + lo_v + int(nonzero[0]), w[nonzero[0]:nonzero[-1] + 1], pruned

    w = np.zeros(int(k[-1]) + 1)
    w[k] = m.masses
    lo, w, pruned = _doubling(n, (0, np.ones(1), 0.0), (0, w, m.pruned_mass), product)
    keep = np.flatnonzero(w)
    return ms.AtomicMeasure(n * b + a * (lo + keep), w[keep],
                            is_probability=m.is_probability, pruned_mass=pruned)


def free_convolve(m: ms.Measure, n: ms.Measure, *, tol: float = 1e-13,
                  maxiter: int = 10_000) -> tf.FreeConvolveMap:
    """Map of the free convolution ``m boxplus n`` (degenerate factors
    reduce to shifts)."""
    return tf.FreeConvolveMap(m, n, tol=tol, maxiter=maxiter)


#: a solve takes the usable secant point everywhere in its first this many
#: phi calls, and after them only where the residual shrank since the
#: previous call (elsewhere the averaged step).  Started at ``w = z`` near
#: the real axis, the secant can cycle between two points where the
#: averaged map converges (two 4-atom laws cycled at Im z = 1e-2, at
#: relative residuals 0.1-0.5); a cycle's residual does not keep shrinking,
#: so after the window the averaged step breaks it.  From the default start
#: above the axis those laws converge in 11-12 calls.
_SECANT_CALLS = 50


def _start_scale(m: ms.Measure, n: ms.Measure) -> float:
    """Height of the default start above ``z``: the standard deviation
    ``sqrt(var_m + var_n)`` of ``m boxplus n``, which dilates with the laws,
    or 1 where that is not finite and positive (a point mass, a divergent
    or overflowing variance)."""
    try:
        s = math.sqrt(ms.moments(m).var + ms.moments(n).var)
    except NumericBreakdown:
        return 1.0
    return s if 0.0 < s < math.inf else 1.0


def _h_func(m: ms.Measure):
    """``h(w) = F_m(w) - w`` as a fresh array the caller may overwrite:
    ``c + sum_j w_j/(t_j - w)`` for a law whose map has partial fractions
    (`transforms._map_form`), which does not cancel at large ``|w|``; else
    the map's step minus ``w``."""
    form = tf._map_form(m)
    if form is None:
        step = tf._evaluator(m)[0]
        return lambda w: step(w) - w
    c, t, wts = form
    psum = tf._pole_sum_loop(t, wts)

    def h(w):
        s = psum(w)
        s += c
        return s

    return h


def subordination_eval(m: ms.Measure, n: ms.Measure, z, *, tol: float = 1e-13,
                       maxiter: int = 10_000, start=None):
    """Solve the subordination fixed point at ``z`` (scalar or array).

    Returns ``(F_value, omega1, iterations)`` where `iterations` counts
    evaluations of ``phi(w) = z + h_n(z + h_m(w))`` (shared across an array,
    i.e. the count for the slowest point).  From its second ``phi`` call
    on, each point steps to the secant point
    ``w - r (w - w_prev) / (r - r_prev)`` of the residual ``r = phi(w) - w``
    where that point is usable: finite, in the upper half-plane and, after
    the first ``_SECANT_CALLS`` (50) calls, only where ``|r| < |r_prev|``
    (the residual shrank since the previous call).  Elsewhere, and on the
    first call, it takes the averaged step ``w + r/2``.  A point stops when
    ``|r| < tol (1 + |phi(w)|)`` and answers ``phi(w)``.  ``h_m`` and
    ``h_n`` are partial fractions for atomic probability laws (`_h_func`).
    The residuals, iterates and secant points of the unconverged points
    live in the rows of one buffer, kept for the whole solve.

    `start` overrides the default initial guess ``w = z + i s``, with
    ``s`` the standard deviation of ``m boxplus n`` (`_start_scale`); it is
    used for continuation in eta when scanning a density line.  A start
    with ``Im <= 0`` takes the default one.
    """
    zarr = np.asarray(z, dtype=complex)
    tf._require_upper(zarr)
    zf = zarr.ravel()
    h_m = _h_func(m)
    h_n = _h_func(n)

    # rows over the unconverged points (the first `k` columns): z, the
    # iterate and the one before it, their residuals, the secant point and
    # its denominator; |r| of the last two calls and the stopping bound
    za, wa, wp, ra, rp, sec, den = np.empty((7, len(zf)), dtype=complex)
    ar, arp, bound = np.empty((3, len(zf)))
    za[:] = zf
    if start is None:
        wa[:] = zf + 1j * _start_scale(m, n)
    else:
        wa[:] = np.broadcast_to(np.asarray(start, dtype=complex).ravel(), zf.shape)
        low = np.imag(wa) <= 0
        if low.any():
            wa[low] = zf[low] + 1j * _start_scale(m, n)

    out = np.empty_like(zf)
    # active-set compression: iterate only the unconverged points
    idx = np.arange(len(zf))
    iters = 0
    while iters < maxiter and len(idx):
        k = len(idx)
        z, w, r, nxt = za[:k], wa[:k], ra[:k], wp[:k]
        u = h_m(w)
        u += z
        phi = h_n(u)
        phi += z
        iters += 1
        np.subtract(phi, w, out=r)
        np.abs(r, out=ar[:k])
        if iters > 1:
            s, d = sec[:k], den[:k]
            with np.errstate(all="ignore"):
                np.subtract(w, nxt, out=s)
                np.multiply(r, s, out=s)
                np.subtract(r, rp[:k], out=d)
                np.divide(s, d, out=s)
                np.subtract(w, s, out=s)
            usable = np.isfinite(s) & (s.imag > 0)
            if iters > _SECANT_CALLS:
                usable &= ar[:k] < arp[:k]
        # the next iterate overwrites the previous one, which the secant has used
        np.multiply(r, 0.5, out=nxt)
        np.add(w, nxt, out=nxt)
        if iters > 1:
            np.copyto(nxt, s, where=usable)
        # this call's rows become the previous call's
        wa, wp, ra, rp, ar, arp = wp, wa, rp, ra, arp, ar
        b = np.abs(phi, out=bound[:k])
        b += 1.0
        b *= tol
        done = arp[:k] < b
        if done.any():
            out[idx[done]] = phi[done]
            keep = ~done
            idx = idx[keep]
            for row in (za, wa, wp, rp, arp):
                row[:len(idx)] = row[:k][keep]
    if len(idx):
        raise NonConvergence(
            f"subordination did not converge in {maxiter} steps at "
            f"Im z >= {float(np.min(zf.imag)):.3g}; raise Im z (or eta)")

    value = tf._evaluator(m)[0](out)
    value = value.reshape(zarr.shape)
    omega1 = out.reshape(zarr.shape)
    if zarr.ndim == 0:
        return complex(value), complex(omega1), iters
    return value, omega1, iters


def free_density(m: ms.Measure, n: ms.Measure, grid: np.ndarray | None = None,
                 eta: float = 1e-2, *, richardson: bool = True, tol: float = 1e-13,
                 maxiter: int = 10_000) -> ms.GridDensity:
    """Density of ``m boxplus n`` on a grid, by inversion of the subordination map.

    Same output convention as :func:`monoclt.transforms.measure_from_map`,
    but the subordination fixed point is continued in eta: the solve starts
    cold at the largest requested eta (from the default start of
    :func:`subordination_eval`), and each smaller eta, in descending order,
    starts from the subordination function of the one before.  With
    Richardson extrapolation that is two solves, at ``eta`` and ``eta/2``.
    The fixed point attracts every start, and a solve keeps its secant
    steps after its first ``_SECANT_CALLS`` calls wherever the residual
    shrank, so small-eta scans converge at fixed-point tolerance `tol`
    without a ladder of larger etas.
    """

    def values(x, etas):
        vals, w = {}, None
        for et in sorted(set(etas), reverse=True):
            vals[et], w, _ = subordination_eval(m, n, x + 1j * et, tol=tol,
                                                maxiter=maxiter, start=w)
        return [vals[et] for et in etas]

    return tf._inverted_density(grid, eta, richardson, values)
