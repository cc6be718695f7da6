"""Monotone, classical, and free convolution of measures.

Monotone convolution composes reciprocal Cauchy transforms, so powers are
represented as iteration nodes and evaluated pointwise (degree would
multiply under symbolic expansion).  Classical powers of atomic measures
are exact, via iterated doubling.  Free convolution is computed through
the analytic subordination fixed point: ``F_{m boxplus n} = F_m(omega1)``
where ``omega1`` solves

    omega1 = z + h_n(omega2),   omega2 = z + h_m(omega1),

with ``h(w) = F(w) - w``.  The solver iterates
``w <- z + h_n(z + h_m(w))`` from ``w = z``; a safeguarded Aitken
extrapolation accelerates the plain iteration, whose linear rate
degrades like ``1 - O(Im z)`` near the real axis.
"""

from __future__ import annotations

import numpy as np

from . import measures as ms
from . import transforms as tf
from .errors import NonConvergence

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
    """Map of the n-fold monotone power; ``n = 0`` gives the identity
    (the point mass at 0)."""
    if n < 0:
        raise ValueError("power must be >= 0")
    if n == 0:
        return tf.IdentityMap()
    return tf.IterateMap(tf.MeasureMap(m), n)


def scaled_monotone_power(m: ms.Measure, n: int, B: float) -> tf.ScaledPowerMap:
    """Map of the rescaled power ``D_{1/B} m^(n)``: evaluates ``F^(n)(Bz)/B``."""
    if n < 1:
        raise ValueError("power must be >= 1")
    return tf.ScaledPowerMap(m, n, float(B))


def classical_power(m: ms.AtomicMeasure, n: int, *, cap: int = ms.DEFAULT_ATOM_CAP) -> ms.AtomicMeasure:
    """Exact n-fold classical convolution power via iterated doubling."""
    if n < 0:
        raise ValueError("power must be >= 0")
    result = ms.point_mass(0.0)
    base = m
    k = n
    while k:
        if k & 1:
            result = ms.classical_convolve(result, base, cap=cap)
        k >>= 1
        if k:
            base = ms.classical_convolve(base, base, cap=cap)
    return result


def free_convolve(m: ms.Measure, n: ms.Measure, *, tol: float = 1e-13,
                  maxiter: int = 10_000) -> tf.FreeConvolveMap:
    """Map of the free convolution ``m boxplus n`` (degenerate factors
    reduce to shifts)."""
    return tf.FreeConvolveMap(m, n, tol=tol, maxiter=maxiter)


def _h_func(m: ms.Measure):
    step = tf._evaluator(m)[0]
    return lambda w: step(w) - w


def subordination_eval(m: ms.Measure, n: ms.Measure, z, *, tol: float = 1e-13,
                       maxiter: int = 10_000, accel: bool = True, start=None):
    """Solve the subordination fixed point at ``z`` (scalar or array).

    Returns ``(F_value, omega1, iterations)`` where `iterations` counts
    applications of the iteration map (shared across an array, i.e. the
    count for the slowest point).  The plain iteration -- with a 0.5
    damping fallback for points whose residual stops shrinking -- is the
    safeguard; every third step an Aitken delta-squared extrapolation is
    attempted per point and accepted only when it stays in the upper
    half-plane and reduces the residual.

    `start` overrides the default initial guess ``w = z`` (used for
    continuation in eta when scanning a density line).
    """
    zarr = np.asarray(z, dtype=complex)
    tf._require_upper(zarr)
    zf = zarr.ravel()
    h_m = _h_func(m)
    h_n = _h_func(n)

    if start is None:
        w = zf.copy()
    else:
        w = np.broadcast_to(np.asarray(start, dtype=complex).ravel(), zf.shape).copy()
        w[np.imag(w) <= 0] = zf[np.imag(w) <= 0]

    out = np.empty_like(zf)
    # active-set compression: iterate only the unconverged points
    idx = np.arange(len(zf))
    za = zf.copy()
    wa = w
    damping = np.ones(len(zf))
    prev_res = np.full(len(zf), np.inf)
    hist: list[np.ndarray] = []
    iters = 0
    while iters < maxiter and len(idx):
        w_new = za + h_n(za + h_m(wa))
        iters += 1
        res = np.abs(w_new - wa)
        stepped = wa + damping * (w_new - wa)
        damping[res > prev_res] = 0.5
        prev_res = res
        done = res < tol * (1.0 + np.abs(w_new))
        wa = stepped
        if done.any():
            out[idx[done]] = wa[done]
            keep = ~done
            idx, za, wa = idx[keep], za[keep], wa[keep]
            damping, prev_res = damping[keep], prev_res[keep]
            hist = [h[keep] for h in hist]
            if not len(idx):
                break
        hist.append(wa)
        if accel and len(hist) >= 3:
            w0, w1, w2 = hist[-3:]
            denom = w2 - 2.0 * w1 + w0
            ok = np.abs(denom) > 1e-300
            safe = np.where(ok, denom, 1.0)
            cand = np.where(ok, w0 - (w1 - w0) ** 2 / safe, w2)
            ok &= np.imag(cand) > 0
            if ok.any():
                trial = np.where(ok, cand, wa)
                cand_next = za + h_n(za + h_m(trial))
                iters += 1
                better = ok & (np.abs(cand_next - trial) < np.abs(w2 - w1))
                wa = np.where(better, cand_next, wa)
            hist = []
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
    at ``Im z ~ 1e-2`` (where plain cold starts are cheap) and halves eta,
    reusing the previous subordination function as the initial guess.  This
    makes small-eta density scans feasible at fixed-point tolerance `tol`.
    """

    def values(x, etas):
        levels = [min(etas)]
        while levels[-1] < 0.8e-2:
            levels.append(min(levels[-1] * 2.0, 1e-2))
        vals, w = {}, None
        for et in sorted(set(levels + etas), reverse=True):
            vals[et], w, _ = subordination_eval(m, n, x + 1j * et, tol=tol,
                                                maxiter=maxiter, start=w)
        return [vals[et] for et in etas]

    return tf._inverted_density(grid, eta, richardson, values)
