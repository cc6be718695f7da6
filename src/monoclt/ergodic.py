"""Boundary restrictions of inner functions as transformations of the line.

When the measure behind a half-plane map is singular, the map is inner
and its boundary restriction ``T(x) = lim F(x + iy)`` (y -> 0+) preserves
Lebesgue measure.  For an atomic singular part the restriction is the
generalized Boole transformation

    T(x) = x + c + sum_k w_k / (t_k - x),       w_k > 0,

strictly increasing from -inf to +inf on each of the k+1 branches cut by
the poles.  The lab provides orbits, preimages, the branch-derivative
preservation identity, recurrence sums along one half-plane orbit
(`transforms._orbit`, as in :mod:`monoclt.clt`) whose divergence
characterizes conservativity, the norming-based divergence criterion, Hopf
ratio experiments, and the integer-lattice tail example.

Hopf ratios and occupation times run on one orbit engine.  A stepper
produces the visited points; one accumulator sums kernel values along
them in orbit order (an occupation time is the Birkhoff sum of the
window's indicator).  A few starts on a map with few poles step one at a
time on Python floats; many starts step batched on numpy, one set of
numpy calls per step for all of them, into blocks of about 64k points.
The scalar stepper is taken only below 8 poles: numpy sums 8 or more
terms pairwise rather than left to right, and the chaotic orbits amplify
that rounding difference (on random 8- and 9-pole maps the Hopf ratios
after 20 000 steps differed by 0.1 to 0.7).  Below both limits the two
steppers give bit-identical results.  The scalar stepper is one
straight-line loop per pole count k, generated from one template: a step
takes ``d_i = t_i - x`` once per pole and sums ``w_i/d_i`` left to right,
and the pole test ``|x - t| < tol (1 + |x|)`` runs only where some
``|d_i| < R_i = 2 tol (1 + |t_i|)``.  That bound holds wherever the test
does (``|x|`` is then within ``tol (1 + |x|)`` of ``|t|``, so
``1 + |x| < (1 + |t|)(1 + 1e-12)``), with a factor 2 to spare for
rounding, and it scales with ``|t|``: near a pole at 1e12 the test
accepts points 0.1 away.  The batched stepper finds each
start's nearest pole by bisection in the sorted poles and sums the poles
with the pole-sum kernel of :mod:`monoclt.transforms`, in one workspace
kept for the whole orbit.  Orbit starts must be finite and horizons lie
in 1..1e8 steps; a Hopf ratio also needs every start off the poles.

Preimages come from the float64-lattice bisection of :mod:`monoclt.transforms`
(which also finds the norming cutoffs): each (y, branch) pair is a row that
starts from the branch's exact ends (poles or infinities, never
evaluated), every step evaluates ``T`` on all live rows with one call of
the pole-sum kernel and halves the floats left between the ends, and a
row is done after at most 64 steps.  A root does not depend on how many
points are solved together.  The preservation identity solves all its
points in one call and sums ``1/T'`` over the ``(points, k+1)`` roots.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import clt as cl
from . import measures as ms
from . import transforms as tf
from .errors import DomainError, NonConvergence, NumericBreakdown, PoleProximity

__all__ = [
    "RationalBooleMap",
    "boundary_map",
    "boole_map",
    "eval_dT",
    "preimages",
    "preservation_check",
    "AaronsonSums",
    "aaronson_sums",
    "ConservativityReport",
    "conservativity_criterion",
    "HopfResult",
    "hopf_ratio",
    "kernel_integral",
    "OrbitRecord",
    "occupation_time",
    "LatticeTailLab",
    "lattice_tail_lab",
]

#: orbit points closer than this (relative) to a pole truncate the orbit
POLE_TOL = 1e-13


@dataclass(frozen=True)
class RationalBooleMap:
    """Generalized Boole transformation ``T(x) = x + c + sum w_k/(t_k - x)``.

    All weights positive, pole positions strictly increasing.  `T` is
    strictly increasing on each of the ``k+1`` maximal intervals between
    poles and maps each onto all of the line.
    """

    c: float
    pole_positions: np.ndarray
    pole_weights: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.pole_positions, dtype=float))
        w = np.atleast_1d(np.asarray(self.pole_weights, dtype=float))
        if t.shape != w.shape:
            raise ValueError("pole positions and weights must have equal length")
        if len(t) and np.any(np.diff(t) <= 0):
            raise ValueError("pole positions must be strictly increasing")
        if np.any(w <= 0):
            raise ValueError("pole weights must be positive")
        t.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "pole_positions", t)
        object.__setattr__(self, "pole_weights", w)

    @property
    def n_poles(self) -> int:
        return len(self.pole_positions)

    def to_json(self) -> str:
        return json.dumps({"c": self.c,
                           "poles": [[float(t), float(w)] for t, w in
                                     zip(self.pole_positions, self.pole_weights)]})

    @classmethod
    def from_json(cls, text: str | dict) -> "RationalBooleMap":
        doc = json.loads(text) if isinstance(text, str) else text
        poles = np.asarray(doc.get("poles", []), dtype=float).reshape(-1, 2)
        return cls(float(doc["c"]), poles[:, 0], poles[:, 1])


def boundary_map(rep: tf.NevanlinnaRep) -> RationalBooleMap:
    """Boundary restriction of the map synthesized from ``(a, sigma)``.

    It has the partial fractions of the half-plane map,
    ``w_k = s_k (1 + t_k^2)`` and ``c = a - sum s_k t_k``.  An empty sigma
    gives the pole-free translation ``x + a``.
    """
    return RationalBooleMap(*tf._partial_fractions(rep))


def boole_map() -> RationalBooleMap:
    """Boole's map ``x -> x - 1/x``."""
    return RationalBooleMap(0.0, np.array([0.0]), np.array([1.0]))


def _pole_distance(T: RationalBooleMap, x) -> np.ndarray:
    """Distance from each point to its nearest pole.

    A bisection in the sorted poles finds the two neighbours of each point;
    the nearer one gives exactly the minimum over all poles, since rounding
    ``|x - t|`` is monotone in ``t`` on either side of ``x``.
    """
    t = T.pole_positions
    if T.n_poles == 0:
        return np.full(np.shape(x), np.inf)
    i = np.searchsorted(t, x)
    below = np.abs(x - t[np.maximum(i - 1, 0)])
    return np.minimum(below, np.abs(x - t[np.minimum(i, T.n_poles - 1)]))


def _on_pole(T: RationalBooleMap, x) -> np.ndarray:
    """The orbit engine's pole test: ``x`` within ``POLE_TOL`` (relative) of a pole."""
    return _pole_distance(T, x) < POLE_TOL * (1.0 + np.abs(x))


def eval_dT(T: RationalBooleMap, x):
    """Derivative ``1 + sum w_k/(t_k - x)^2``; strictly above 1 with poles."""
    xa = np.asarray(x, dtype=float)
    if np.any(_on_pole(T, xa)):
        raise PoleProximity("evaluation point is numerically on a pole")
    s = tf._PoleSum(T.pole_positions, T.pole_weights, float)(xa.ravel(), squared=True)
    out = 1.0 + s.reshape(xa.shape)         # an empty pole sum is 0
    return out if out.ndim else float(out)


def _solve_preimages(T: RationalBooleMap, ys) -> tuple[np.ndarray, np.ndarray]:
    """All preimages of every point of `ys`, and ``T'`` at each of them.

    Returns two arrays of shape ``(len(ys), k+1)``; row j holds the roots of
    ``T(x) = ys[j]`` in branch order.  Each (y, branch) pair is a row of one
    bisection of ``g(x) = x + c + sum_k w_k/(t_k - x) - y`` over the ordered
    float64 lattice: the branch's ends ``-inf, t_0, ..., t_{k-1}, +inf`` are
    the first bracket, where g tends to -inf on the left and +inf on the
    right, so no end is searched for or evaluated (`tf._lattice_bisect`: at
    most 64 steps, the end whose bits are even).  Every step makes one
    pole-sum call for all live rows, in a workspace kept for the whole
    solve, and a row's root does not depend on the other rows.  A root that
    is not finite raises :class:`NumericBreakdown`, one within ``POLE_TOL``
    of a pole (huge ``|y|`` on an inner branch) :class:`PoleProximity`, and
    a residual ``|g|`` that is not below
    ``1e-10 (1 + |y|) + 8 u (1 + |x|) T'(x)``, with ``u`` the float64
    machine epsilon, :class:`NonConvergence`.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    bad = ~np.isfinite(ys)
    if bad.any():
        raise DomainError(f"preimages need a finite point, got {ys[bad][0]}")
    k, t, c = T.n_poles, T.pole_positions, T.c
    if k == 0:
        roots = (ys - c)[:, None]
        return roots, np.ones_like(roots)
    step = tf._pole_map(c, t, T.pole_weights, float)
    g = lambda x, y: step(x) - y

    # rows are branch-major within each y
    n = len(ys)
    y = np.repeat(ys, k + 1)
    ends = np.concatenate(([-np.inf], t, [np.inf]))
    roots = tf._lattice_bisect(lambda x, rows: g(x, y[rows]),
                               np.tile(ends[:-1], n), np.tile(ends[1:], n))

    if not np.isfinite(roots).all():
        raise NumericBreakdown(f"a preimage of y = {float(y[~np.isfinite(roots)][0])!r} overflows")
    dT = eval_dT(T, roots)
    resid = np.abs(g(roots, y))
    # steep branches bound the attainable y-residual by T'(x) * ulp(x)
    slope_floor = 8.0 * np.finfo(float).eps * (1.0 + np.abs(roots)) * dT
    tol = 1e-10 * (1.0 + np.abs(y)) + slope_floor
    bad = ~(resid <= tol)                   # a NaN residual or bound fails too
    if bad.any():
        i = int(np.argmax(bad))
        raise NonConvergence(f"preimage residual {resid[i]:.3g} exceeds {tol[i]:.3g} "
                             f"at y = {y[i]!r}")
    return roots.reshape(n, k + 1), dT.reshape(n, k + 1)


def preimages(T: RationalBooleMap, y: float) -> np.ndarray:
    """All solutions of ``T(x) = y``: exactly one per branch interval.

    The batched bisection for the single point `y`, one row per branch,
    each over the floats between the branch's ends in at most 64 steps.
    Every residual ``|T(x) - y|`` is certified below
    ``1e-10 (1 + |y|) + 8 u (1 + |x|) T'(x)`` with ``u`` the float64 machine
    epsilon (the second term is the steep branches' floor, ``T'(x)`` times
    a few ulps of x); a larger or NaN one raises :class:`NonConvergence`.
    A non-finite `y` raises :class:`DomainError`.  For a huge ``|y|`` an
    inner root falls within ``POLE_TOL`` of a pole, which raises
    :class:`PoleProximity`, and a root that overflows (``|y|`` near the
    float range) raises :class:`NumericBreakdown`.
    """
    return _solve_preimages(T, [y])[0][0]


def _preservation_deviations(T: RationalBooleMap, ys) -> np.ndarray:
    """``|sum over the preimages of y of 1/T' - 1|`` for each y, in one solve."""
    _, dT = _solve_preimages(T, ys)
    return np.abs((1.0 / dT).sum(axis=-1) - 1.0)


def preservation_check(T: RationalBooleMap, y_list) -> float:
    """Max deviation of ``sum over preimages of 1/T'`` from 1.

    The identity holding for a.e. y is equivalent to T preserving Lebesgue
    measure.  All points are solved in one batched call, with the errors
    of :func:`preimages`: :class:`PoleProximity` for a point so large that
    one of its roots is numerically on a pole.
    """
    worst = 0.0
    for dev in _preservation_deviations(T, y_list).tolist():
        worst = max(worst, dev)
    return worst


# ---------------------------------------------------------------------------
# Conservativity diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AaronsonSums:
    """Terms and partial sums of ``Im(-1/F^(n)(z))``; divergence of the
    series is equivalent to conservativity of the boundary restriction."""

    z: complex
    terms: np.ndarray
    partial_sums: np.ndarray


def aaronson_sums(m: ms.Measure, N: int, z: complex = 1j) -> AaronsonSums:
    """Recurrence sums of a singular measure's map along one orbit (`transforms._orbit`).

    Cost O(N); all terms are positive and the partial sums nondecreasing.  A
    `z` not finite with ``Im z > 0`` raises :class:`DomainError`, a non-finite
    iterate or sum (an orbit that overflows) :class:`NumericBreakdown`, and a
    term that underflows to 0 (a start so far out that ``Im(-1/w)`` is below
    the subnormals) :class:`DomainError` naming the start.
    """
    zc = complex(z)
    if not (np.isfinite(zc) and zc.imag > 0):
        raise DomainError(f"recurrence sums need a finite start with Im z > 0, got z = {zc!r}")
    orbit = tf._orbit(m, zc, N)
    terms = (-1.0 / orbit[1:]).imag
    sums = np.cumsum(terms)
    if not (np.isfinite(orbit).all() and np.isfinite(sums[-1:]).all()):
        raise NumericBreakdown(f"the orbit or the recurrence sums from z = {zc!r} are not finite")
    if not terms.all():
        raise DomainError(f"start z = {zc!r}: term {int(np.argmin(terms != 0)) + 1} "
                          "underflows to 0, so the terms are not all positive")
    return AaronsonSums(zc, terms, sums)


@dataclass(frozen=True)
class ConservativityReport:
    """Partial sums of ``1/B_n^2`` with divergence-model fits.

    The verdict states which growth model fits best at the horizon; it is
    a model comparison, never a proof of (non)conservativity.
    """

    ns: np.ndarray
    partial_sums: np.ndarray
    fits: dict
    verdict: str
    h_index_estimate: float
    norming_provenance: str


def _fit_rmse(xdesign: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, float]:
    coef, *_ = np.linalg.lstsq(xdesign, s, rcond=None)
    resid = s - xdesign @ coef
    return coef, float(np.sqrt(np.mean(resid**2)))


def conservativity_criterion(m: ms.Measure, N: int, *,
                             B: cl.NormingSequence | None = None) -> ConservativityReport:
    """Divergence diagnosis of ``sum 1/B_n^2`` for the norming constants of `m`.

    Fits ``a*log n + b``, ``a*loglog n + b``, and a convergent model
    ``a - b/n^g`` to the partial sums at 40 log-spaced checkpoints; the verdict
    is the best divergent model unless the convergent fit wins by a factor
    of 2 in RMSE.  Includes the slow-variation diagnostic for H of `m`.
    The checkpoints start at n = 10, and each model has two parameters, so
    ``N < 12`` (fewer than three checkpoints) raises ``ValueError``.
    """
    if N < 12:
        raise ValueError(f"horizon N = {N} is below 12: too few checkpoints to fit")
    if B is None:
        B = cl.norming_constants(m, N=N)
    elif B.ns[0] != 1 or len(B.ns) < N or np.any(np.diff(B.ns) != 1):
        raise ValueError("given norming constants must cover n = 1..N")
    inv2 = 1.0 / B.values[:N] ** 2
    sums = np.cumsum(inv2)
    ns = np.unique(np.geomspace(10, N, 40).astype(np.int64))
    s = sums[ns - 1]

    ones = np.ones_like(s)
    fits = {}
    coef, rmse = _fit_rmse(np.column_stack([np.log(ns), ones]), s)
    fits["log"] = {"alpha": float(coef[0]), "beta": float(coef[1]), "rmse": rmse}
    coef, rmse = _fit_rmse(np.column_stack([np.log(np.log(ns)), ones]), s)
    fits["loglog"] = {"alpha": float(coef[0]), "beta": float(coef[1]), "rmse": rmse}
    best_conv = None
    for g in (0.25, 0.5, 1.0, 2.0):
        coef, rmse = _fit_rmse(np.column_stack([ones, -1.0 / ns.astype(float) ** g]), s)
        if best_conv is None or rmse < best_conv[2]:
            best_conv = (g, coef, rmse)
    fits["convergent"] = {"gamma": best_conv[0], "alpha": float(best_conv[1][0]),
                          "beta": float(best_conv[1][1]), "rmse": best_conv[2]}

    div_name = "log" if fits["log"]["rmse"] <= fits["loglog"]["rmse"] else "loglog"
    if fits["convergent"]["rmse"] * 2.0 < fits[div_name]["rmse"]:
        verdict = "convergent-fit-preferred"
    else:
        verdict = f"divergent ({div_name}) at horizon {N}"

    xs = np.geomspace(B.values[-1], 10 * B.values[-1], 5)
    try:
        h_idx = cl.slow_variation_report(cl.h_function(m), [2.0], xs).index_estimate
    except (ValueError, TypeError):
        h_idx = math.nan
    return ConservativityReport(ns, s, fits, verdict, h_idx, B.provenance)


# ---------------------------------------------------------------------------
# Orbits: Hopf ratios and occupation times
# ---------------------------------------------------------------------------

def kernel_integral(kind: str, a: float = 0.0, b: float = 0.0) -> float:
    """Lebesgue integral of a named kernel over the whole line."""
    if kind == "cauchy":
        return math.pi
    if kind == "gauss":
        return math.sqrt(math.pi)
    if kind == "indicator":
        return b - a
    raise ValueError(f"unknown kernel {kind!r}")


def _kernel_values(kind: str, x: np.ndarray, a: float, b: float) -> np.ndarray:
    # past |x| ~ 1.3e154 x*x overflows to inf, which gives each kernel its value 0
    with np.errstate(over="ignore"):
        if kind == "cauchy":
            return 1.0 / (1.0 + x * x)
        if kind == "gauss":
            return np.exp(-x * x)
    if kind == "indicator":
        return ((x >= a) & (x <= b)).astype(float)
    raise ValueError(f"unknown kernel {kind!r}")


#: the scalar stepper serves at most this many start-poles, ``starts * (poles + 1)``;
#: the batched stepper wins above (measured crossovers, 4000- and 20 000-step
#: orbits: about 256 starts at 1 pole, 128 at 3 poles, 64 at 7 poles)
_SCALAR_MAX_WORK = 512
#: and at most this many poles: from 8 terms numpy sums pairwise, not left to right
_SCALAR_MAX_POLES = 7
#: orbit points per chunk handed from the scalar stepper to the accumulator
_CHUNK = 8192
#: orbit points (steps x starts) per block of the batched stepper
_BLOCK = 65536
#: longest orbit either public function runs
_MAX_STEPS = 10**8


def _use_scalar(T: RationalBooleMap, x0: np.ndarray) -> bool:
    return (T.n_poles <= _SCALAR_MAX_POLES
            and len(x0) * (T.n_poles + 1) <= _SCALAR_MAX_WORK)


@functools.cache
def _straight_line_stepper(k: int):
    """The scalar stepper for `k` poles: one loop with the poles unrolled.

    ``step(x, n, c, tol, buf, t_0, w_0, lo_0, hi_0, ..., t_{k-1}, ..., hi_{k-1})``
    is generated from one template (the orbit engine asks for k up to
    ``_SCALAR_MAX_POLES``, so at most 8 exist) and runs
    :func:`_orbit_segment`'s loop, reading ``d_i = t_i - x`` once per pole
    and testing for a pole only where some ``lo_i < d_i < hi_i``.  For k = 2
    the loop reads::

        for j in range(n):
            d0 = t0 - x
            d1 = t1 - x
            if lo0 < d0 < hi0 or lo1 < d1 < hi1:
                r = tol * (1.0 + abs(x))
                if abs(d0) < r or abs(d1) < r:
                    return j, x
            buf[j] = x
            x = x + c + (w0 / d0 + w1 / d1)
        return n, x
    """
    poles = range(k)
    src = [f"def step(x, n, c, tol, buf{''.join(f', t{i}, w{i}, lo{i}, hi{i}' for i in poles)}):",
           "    for j in range(n):"]
    src += [f"        d{i} = t{i} - x" for i in poles]
    if k:
        src += ["        if " + " or ".join(f"lo{i} < d{i} < hi{i}" for i in poles) + ":",
                "            r = tol * (1.0 + abs(x))",
                "            if " + " or ".join(f"abs(d{i}) < r" for i in poles) + ":",
                "                return j, x"]
    src += ["        buf[j] = x",
            "        x = x + c" + (" + (" + " + ".join(f"w{i} / d{i}" for i in poles) + ")"
                                   if k else ""),
            "    return n, x"]
    namespace: dict = {}
    exec("\n".join(src), namespace)
    return namespace["step"]


def _orbit_segment(x: float, n: int, c: float, poles: list, buf: list):
    """Advance one orbit by up to `n` steps on Python floats.

    The visited points go to ``buf[:steps]``; returns ``(steps, x)``.  Fewer
    than `n` steps means `x` lies on a pole by the batched stepper's test,
    ``|x - t| < tol (1 + |x|)``.  A step is ``x + c + (w_0/d_0 + w_1/d_1 + ...)``
    with ``d_i = t_i - x``: the poles summed left to right, as numpy sums
    fewer than 8 terms.  The loop is the generated straight-line stepper for
    ``len(poles)`` poles.  Its pole test reads ``|d_i|``, which is
    ``|x - t_i|`` bit for bit since ``fl(t - x) = -fl(x - t)``, and runs
    only where some ``|d_i| < R_i = 2 tol (1 + |t_i|)``: a point the test
    accepts has ``|x| < |t| + tol (1 + |x|)``, so ``|t - x| < tol (1 + |t|)``
    up to a factor ``1 + 1e-12``, and the factor 2 leaves room for rounding.
    """
    bounds = []
    for t, w in poles:
        r = 2.0 * POLE_TOL * (1.0 + abs(t))
        bounds += (t, w, -r, r)
    return _straight_line_stepper(len(poles))(x, n, c, POLE_TOL, buf, *bounds)


def _scalar_orbit(T: RationalBooleMap, x: float, N: int):
    """Orbit points ``x_0 .. x_{N-1}`` of one start as numpy chunks.

    The chunks end early, before the first point on a pole.
    """
    c = float(T.c)
    poles = list(zip(T.pole_positions.tolist(), T.pole_weights.tolist()))
    buf = [0.0] * min(N, _CHUNK)
    done = 0
    while done < N:
        n = min(N - done, _CHUNK)
        m, x = _orbit_segment(x, n, c, poles, buf)
        if m:
            yield np.fromiter(buf, float, m)
        done += m
        if m < n:
            return


def _batched_orbit(T: RationalBooleMap, x0: np.ndarray, N: int):
    """Orbit points of all starts as blocks ``(points, live)`` of shape
    ``(steps, starts)``, one set of numpy calls per step for all starts.

    A start is live until the step on which it lies on a pole; it is not
    moved after that.  The blocks are reused buffers of about `_BLOCK`
    points and stop early once every start is dead.
    """
    x = x0.copy()
    alive = np.ones(len(x0), dtype=bool)
    rows = min(N, max(1, _BLOCK // max(1, len(x0))))
    pts = np.empty((rows, len(x0)))
    live = np.empty((rows, len(x0)), dtype=bool)
    step = tf._pole_map(T.c, T.pole_positions, T.pole_weights, float)
    r = 0
    for _ in range(N):
        if T.n_poles:
            alive &= ~_on_pole(T, x)
            if not alive.any():
                break
        pts[r] = x
        live[r] = alive
        r += 1
        if r == rows:
            yield pts, live
            r = 0
        x[alive] = step(x[alive])
    if r:
        yield pts[:r], live[:r]


def _accumulate(blocks, kernels, checkpoints: list, N: int, starts: int):
    """Birkhoff sums of `kernels` over orbit blocks ``(points, live)``.

    A block holds consecutive steps of `starts` orbits (``live`` None means
    all live).  Kernel values are summed in orbit order by
    ``np.add.accumulate``, the sum carried from block to block; dead entries
    add exactly 0.0, so a truncated start keeps its frozen sums, and the
    block sizes never change a bit of the result.  Returns the sums at the
    checkpoints, shape ``(kernels, checkpoints, starts)``, and per start the
    step of its pole hit (-1 where the orbit survived).
    """
    sums = np.empty((len(kernels), len(checkpoints), starts))
    carry = np.zeros((len(kernels), starts))
    lived = np.zeros(starts, dtype=np.int64)
    ci = done = 0
    for pts, live in blocks:
        vals = np.stack([_kernel_values(kind, pts, a, b) for kind, a, b in kernels])
        if live is None:
            lived += len(pts)
        else:
            vals[:, ~live] = 0.0
            lived += np.count_nonzero(live, axis=0)
        vals[:, 0] += carry
        run = np.add.accumulate(vals, axis=1)
        while ci < len(checkpoints) and checkpoints[ci] <= done + len(pts):
            sums[:, ci] = run[:, checkpoints[ci] - done - 1]
            ci += 1
        carry = run[:, -1]
        done += len(pts)
    sums[:, ci:] = carry[:, None]
    return sums, np.where(lived < N, lived, -1)


def _birkhoff_sums(T: RationalBooleMap, x0, N: int, checkpoints, kernels):
    """The orbit engine: Birkhoff sums of `kernels` along the orbits of `x0`.

    Few starts on a map with few poles step one at a time on Python floats,
    many starts step batched on numpy; both feed the same accumulator.
    Returns ``(sums, truncated_at)`` as :func:`_accumulate` does.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not np.all(np.isfinite(x0)):
        raise DomainError("orbit starts must be finite")
    if not 1 <= N <= _MAX_STEPS:
        raise ValueError(f"orbit horizon must lie in 1..{_MAX_STEPS} steps, got {N}")
    checkpoints = [int(n) for n in checkpoints]
    if not _use_scalar(T, x0):
        return _accumulate(_batched_orbit(T, x0, N), kernels, checkpoints, N, len(x0))
    sums = np.empty((len(kernels), len(checkpoints), len(x0)))
    truncated = np.empty(len(x0), dtype=np.int64)
    for s, x in enumerate(x0.tolist()):
        blocks = ((pts[:, None], None) for pts in _scalar_orbit(T, x, N))
        sums[:, :, s:s + 1], truncated[s:s + 1] = _accumulate(blocks, kernels, checkpoints, N, 1)
    return sums, truncated


def _normalize_kernel(spec) -> tuple[str, float, float]:
    if isinstance(spec, str):
        if spec == "indicator":
            raise ValueError("indicator kernel needs an interval: ('indicator', a, b)")
        return (spec, 0.0, 0.0)
    kind, a, b = spec[0], float(spec[1]), float(spec[2])
    if kind != "indicator":
        raise ValueError("only the indicator kernel takes parameters")
    if not (b > a and math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"indicator interval ({a!r}, {b!r}) must be bounded and nondegenerate")
    return (kind, a, b)


@dataclass(frozen=True)
class HopfResult:
    """Running Birkhoff-sum ratios at checkpoints, per starting point."""

    checkpoints: np.ndarray
    ratios: np.ndarray              # shape (n_checkpoints, n_starts)
    target: float
    truncated_at: np.ndarray        # -1 where the orbit survived


def hopf_ratio(T: RationalBooleMap, f, g, x0, N: int,
               checkpoints=None) -> HopfResult:
    """Ratio of Birkhoff sums of two integrable kernels along orbits.

    For a conservative ergodic map the ratio tends a.e. to the ratio of
    the integrals (the `target` field).  Kernels are named closed forms:
    ``'cauchy'`` (``1/(1+x^2)``), ``'gauss'`` (``exp(-x^2)``), or
    ``('indicator', a, b)``.  Checkpoints (default: the powers of ten from
    1000 up to N, then N) must lie in ``1..N``.  Starts must be finite
    (:class:`DomainError`) and off the poles (:class:`PoleProximity`; a
    later pole hit truncates the orbit and keeps its sums), and N in
    ``1..1e8``.  A denominator that sums to exactly 0 at a checkpoint raises
    :class:`DomainError` naming the start: a ``'cauchy'`` or ``'gauss'`` one
    when the orbit stays so far out that every value underflows, an
    indicator when the orbit has not yet visited its window.
    """
    fk = _normalize_kernel(f)
    gk = _normalize_kernel(g)
    if checkpoints is None:
        checkpoints = [10**k for k in range(3, 9) if 10**k <= N]
        if not checkpoints or checkpoints[-1] != N:
            checkpoints.append(N)
    checkpoints = np.asarray(sorted(set(int(c) for c in checkpoints)), dtype=np.int64)
    if checkpoints[-1] > N:
        raise ValueError("checkpoints must not exceed N")
    if checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive")
    target = kernel_integral(*fk) / kernel_integral(*gk)
    sums, truncated = _birkhoff_sums(T, x0, N, checkpoints, (fk, gk))
    if np.any(truncated == 0):
        raise PoleProximity("a start lies on a pole: its Birkhoff sums would be 0/0")
    zero = np.flatnonzero((sums[1] == 0.0).any(axis=0))
    if len(zero):
        s = int(zero[0])
        if gk[0] == "indicator":
            # the sums only grow, so the zeros are at the first checkpoints
            last = int(checkpoints[np.count_nonzero(sums[1][:, s] == 0.0) - 1])
            why = f"the orbit has not visited the window ({gk[1]!r}, {gk[2]!r}) by step {last}"
        else:
            # a positive kernel's Birkhoff sum is 0 only where every value underflowed
            why = f"the {gk[0]} kernel's Birkhoff sum underflows to 0"
        raise DomainError(f"start {float(np.atleast_1d(x0)[s])!r} (index {s}): {why}, "
                          "so the ratio is undefined")
    with np.errstate(invalid="ignore", divide="ignore"):
        return HopfResult(checkpoints, sums[0] / sums[1], target, truncated)


@dataclass(frozen=True)
class OrbitRecord:
    """Occupation statistics of orbits in a window."""

    window: tuple
    steps: int
    visits: np.ndarray
    truncated_at: np.ndarray


def occupation_time(T: RationalBooleMap, x0_list, N: int, A: tuple) -> OrbitRecord:
    """Visit counts of orbits to the bounded interval ``A`` over N steps.

    For conservative maps the counts grow without bound along a.e. orbit
    (a diagnostic, not a proof); a pole hit truncates the orbit and is
    flagged.  The counts are Birkhoff sums of the window's indicator
    (exact in float64 far beyond the 1e8-step cap).  Starts must be finite
    (:class:`DomainError`) and N in ``1..1e8``.
    """
    a, b = float(A[0]), float(A[1])
    if not (b > a and math.isfinite(a) and math.isfinite(b)):
        raise ValueError("occupation window must be a bounded interval")
    sums, truncated = _birkhoff_sums(T, x0_list, N, [N], [("indicator", a, b)])
    return OrbitRecord((a, b), N, sums[0, -1].astype(np.int64), truncated)


# ---------------------------------------------------------------------------
# Integer-lattice tail example
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeTailLab:
    """Integer-lattice discretization of the symmetric ``x**-2``-tail law.

    Holds the atomic singular part, its transform and boundary
    restriction, the closed-form norming constants, and the truncated
    mass defect.
    """

    sigma: ms.AtomicMeasure
    map: tf.NevanlinnaMap
    T: RationalBooleMap
    B: cl.NormingSequence | None
    mass_defect: float


def lattice_tail_sigma(K: int) -> tuple[ms.AtomicMeasure, float]:
    """Bin the unit-cutoff ``|t|**-3`` density onto the integers ``|k| <= K``.

    Each cell ``[k, k+1)`` splits its mass half to each endpoint, so the
    discretized measure has mean 0 exactly.  Returns the measure and the
    truncated mass defect.
    """
    if K < 10:
        raise ValueError("truncation K must be at least 10")
    k = np.arange(1, K + 1, dtype=float)
    # cell masses nu([k, k+1)) of the tail law: (k^-2 - (k+1)^-2)/2
    cells = 0.5 * (k**-2.0 - (k + 1.0) ** -2.0)
    # atom k gets half of cell [k-1, k) and half of cell [k, k+1)
    prev = np.concatenate(([0.0], cells[:-1]))
    p = 0.5 * (prev + cells)
    positions = np.concatenate((-k[::-1], k))
    masses = np.concatenate((p[::-1], p))
    sigma = ms.AtomicMeasure(positions, masses, is_probability=False)
    return sigma, 1.0 - sigma.total_mass


def lattice_tail_lab(K: int, N: int | None = None) -> LatticeTailLab:
    """Assemble the lattice-tail example: sigma, transform, boundary map,
    and the closed-form constants ``B_n = sqrt(n log n)``."""
    sigma, defect = lattice_tail_sigma(K)
    rep = tf.NevanlinnaRep(a=0.0, sigma=sigma)
    B = None
    if N is not None:
        ns = np.arange(1, N + 1)
        vals = np.sqrt(ns * np.log(np.maximum(ns, 2)))
        B = cl.NormingSequence(ns, vals, "closed-form sqrt(n log n)")
    return LatticeTailLab(sigma, tf.NevanlinnaMap(rep), boundary_map(rep), B, defect)
