"""The four benchmark workloads: seeded inputs, one op each, per-op checks.

Each workload is a scaled-down copy of an acceptance criterion's hot path
and calls only the public functions of the ``monoclt`` modules, always
through the module attribute (``tf.f_eval``, never ``monoclt.f_eval``) so
that the traced run's wrappers see every call.

A workload object has

* ``setup()``            -- shared objects built once per process;
* ``inputs(seed)``       -- an endless, deterministic stream of op inputs;
* ``op(inp)``            -- the timed library calls; returns the raw result;
* ``outputs(inp, raw)``  -- untimed: the op's numbers as a flat dict;
* ``check(inp, outs)``   -- untimed: a list of problems (empty when correct).

Sizes that set an op's cost (n, atom counts) are drawn stratified: every
block of ``BLOCK`` ops covers each size range in equal strata, in a seeded
order with seeded offsets.  Every run therefore sees the same spread of
sizes and the run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from monoclt import cli, clt, convolve as cv, ergodic as eg, measures as ms, transforms as tf

#: the seed whose first ops are recorded in reference.json; its op 0 is
#: every run's warm-up op
DEFAULT_SEED = 0

#: ops per stratification block
BLOCK = 8


def _strata(rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
    """``BLOCK`` integers in ``[lo, hi]``, one per equal stratum, shuffled."""
    edges = np.linspace(lo, hi + 1, BLOCK + 1)
    return rng.permutation(np.floor(rng.uniform(edges[:-1], edges[1:])).astype(int))


def _cycle(rng: np.random.Generator, values) -> np.ndarray:
    """``BLOCK`` draws that repeat `values` evenly, shuffled."""
    return rng.permutation(np.resize(np.asarray(values), BLOCK))


def _lattice_law(rng: np.random.Generator, k: int, floor: float = 0.0) -> ms.AtomicMeasure:
    """k atoms on distinct integers of {-2..2}: masses `floor` + Dirichlet(1) share of the rest."""
    pos = np.sort(rng.choice(np.arange(-2, 3), size=k, replace=False)).astype(float)
    return ms.AtomicMeasure(pos, floor + (1.0 - k * floor) * rng.dirichlet(np.ones(k)))


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


class Workload:
    name = ""

    def __init__(self, scratch: Path):
        self.scratch = scratch      # directory for files an op writes


class LatticeClt(Workload):
    """Many poles, few points: the infinite-variance lattice-tail CLT.

    Scaled down from C04/C06.  The 20 000-pole transform of
    ``lattice_tail_lab(10_000)`` is iterated n times on the 9-point
    ``default_z_grid()``, with the sigma-criterion constants and the
    norming-ratio check of C06.
    """

    name = "lattice_clt"
    N_RANGE = (50, 200)

    def setup(self):
        self.lab = eg.lattice_tail_lab(10_000)
        self.z0 = complex(clt.default_z_grid()[0])
        self.target0 = tf.f_eval(tf.ArcsineMap(), self.z0)

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            for n in _strata(rng, *self.N_RANGE):
                yield {"n": int(n)}

    def op(self, inp):
        n = inp["n"]
        B = clt.sigma_criterion_constants(self.lab.sigma, [n])
        rep = clt.clt_report(self.lab.map, [n], B=B, with_ks=False)
        rr = clt.norming_ratio_check(self.lab.sigma, B)
        return B, rep, rr

    def outputs(self, inp, raw):
        B, rep, rr = raw
        n, Bn = inp["n"], float(B.values[0])
        # the report keeps only the sup deviation; F itself is evaluated at the
        # lowest grid point (where n iterations move it most) for the checks
        F0 = tf.f_eval(tf.DilatedMap(tf.IterateMap(self.lab.map, n), 1.0 / Bn), self.z0)
        return {"B": Bn, "f_dev": rep.rows[0].f_dev, "ratio": float(rr.ratios[0]),
                "F0_re": F0.real, "F0_im": F0.imag}

    def check(self, inp, outs):
        problems = []
        if not _finite(*outs.values()):
            problems.append("non-finite output")
            return problems
        if outs["F0_im"] < self.z0.imag * (1.0 - 1e-12):
            problems.append(f"Im F(z0) = {outs['F0_im']!r} < Im z0")
        dev0 = abs(complex(outs["F0_re"], outs["F0_im"]) - self.target0)
        if dev0 > outs["f_dev"] * (1.0 + 1e-9) + 1e-12:
            problems.append(f"|F(z0) - target| = {dev0!r} exceeds the reported sup {outs['f_dev']!r}")
        if not 0.9 <= outs["ratio"] <= 1.1:
            problems.append(f"norming ratio {outs['ratio']!r} outside [0.9, 1.1]")
        return problems


class DensityScan(Workload):
    """Many points, few poles: inversion, KS, classical column, free density.

    Scaled down from C03, C05 and C08.  Laws live on integer lattices only:
    ``classical_convolve`` builds the full outer product before it checks
    its atom cap, and a non-lattice law at these n can ask for tens of GiB.
    The free density is that of ``m boxplus m``, as C08 convolves a law
    with itself; every atom has mass at least ``MASS_FLOOR`` and n stays
    below 256, so no mass of the n-fold power is subnormal.  No op fails
    then; NOTES.md lists the library defects that independent pairs and
    rare atoms run into.
    """

    name = "density_scan"
    N_RANGE = (100, 255)
    #: 0.1 ** 255 = 1e-255 stays a normal double
    MASS_FLOOR = 0.1
    #: the KS distance to the arc-sine law grows with the law's skewness like
    #: the classical Berry-Esseen quantity ``be``: on 356 seeded inputs the
    #: seed commit stays below ``0.05 + 1.2*be``; the check allows
    #: ``0.05 + 2*be``.
    KS_ARCSINE_FLOOR = 0.05
    KS_ARCSINE_PER_BE = 2.0
    #: mass of the inverted monotone scaled power (Richardson, eta = 1e-2) on
    #: a window that holds its farthest scaled atom: within 5e-9 of 1 at the
    #: seed commit on 496 seeded inputs and on 2-atom laws with a rare atom
    #: of mass 1e-3 down to 1e-8
    MONO_MASS_TOL = 1e-6
    FREE_MASS_TOL = 1e-2
    #: free density values kept in the output record (every STRIDE-th point)
    STRIDE = 200

    def setup(self):
        self.grid = tf.default_grid(-5.0, 5.0, 5e-4)

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            for n, k in zip(_strata(rng, *self.N_RANGE), _cycle(rng, (2, 3, 4, 5))):
                yield {"n": int(n), "m": _lattice_law(rng, int(k), self.MASS_FLOOR)}

    def op(self, inp):
        rep = clt.clt_report(inp["m"], [inp["n"]])
        dens = cv.free_density(inp["m"], inp["m"], grid=self.grid, eta=5e-3)
        return rep, dens

    def outputs(self, inp, raw):
        rep, dens = raw
        row = rep.rows[0]
        # the report keeps only the KS distance of the inverted monotone
        # power; its mass comes from the same inversion, repeated untimed.
        # The report's grid [-4, 4] can miss a few percent of the mass of a
        # law with a rare atom (mass ~1e-4), whose scaled atom lies at
        # |c|/B; the window here reaches 3 beyond it.
        m, n = inp["m"], inp["n"]
        mean = ms.moments(m).mean
        centered = ms.shift(m, -mean) if mean != 0.0 else m
        half = max(4.0, math.ceil(float(np.max(np.abs(centered.positions))) / row.B + 3.0))
        mono = tf.measure_from_map(cv.scaled_monotone_power(centered, n, row.B),
                                   grid=tf.default_grid(-half, half))
        return {"B": row.B, "f_dev": row.f_dev, "ks_arcsine": row.ks_arcsine,
                "mono_mass": mono.total_mass,
                "ks_normal": math.nan if row.ks_normal is None else row.ks_normal,
                "free_mass": dens.total_mass, "free_clamped": dens.clamped_mass,
                "free_values": dens.values[::self.STRIDE].copy(),
                "free_finite": float(np.all(np.isfinite(dens.values)))}

    @staticmethod
    def berry_esseen(m: ms.AtomicMeasure, n: int) -> float:
        mean = float(np.dot(m.positions, m.masses))
        c = m.positions - mean
        var = float(np.dot(c * c, m.masses))
        rho = float(np.dot(np.abs(c) ** 3, m.masses))
        return 0.4748 * rho / (var ** 1.5 * math.sqrt(n))

    def check(self, inp, outs):
        problems = []
        if not _finite(*outs.values()) or outs["free_finite"] != 1.0:
            problems.append("non-finite output")
            return problems
        be = self.berry_esseen(inp["m"], inp["n"])
        ks_tol = self.KS_ARCSINE_FLOOR + self.KS_ARCSINE_PER_BE * be
        if outs["ks_arcsine"] > ks_tol:
            problems.append(f"KS to arc-sine {outs['ks_arcsine']:.4g} > {ks_tol:.4g}")
        if abs(outs["mono_mass"] - 1.0) > self.MONO_MASS_TOL:
            problems.append(f"monotone density mass {outs['mono_mass']!r} not within "
                            f"{self.MONO_MASS_TOL} of 1")
        if outs["ks_normal"] > be:
            problems.append(f"classical KS {outs['ks_normal']:.4g} > Berry-Esseen {be:.4g}")
        if abs(outs["free_mass"] - 1.0) > self.FREE_MASS_TOL:
            problems.append(f"free density mass {outs['free_mass']!r} not within "
                            f"{self.FREE_MASS_TOL} of 1")
        return problems


class HopfCli(Workload):
    """Few starts, few poles, long orbits, run through the CLI.

    Scaled down from C12: ``monoclt hopf`` on the boundary map of a
    2-4-atom lattice law (1-3 poles), 8 starts, N = 20 000, including
    config hashing and CSV/manifest writing.
    """

    name = "hopf_cli"
    N = 20_000
    STARTS = 8
    CHECKPOINTS = 3             # 1000, 10 000 and N

    def setup(self):
        self.scratch.mkdir(parents=True, exist_ok=True)

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        i = 0
        while True:
            for k in _cycle(rng, (2, 3, 4)):
                m = _lattice_law(rng, int(k))
                spec = json.dumps({"type": "atomic", "atoms": [[float(p), float(q)] for p, q
                                                               in zip(m.positions, m.masses)]})
                outdir = self.scratch / f"seed{seed}-op{i}"
                shutil.rmtree(outdir, ignore_errors=True)
                i += 1
                yield {"argv": ["hopf", "--measure", spec, "--N", str(self.N),
                                "--starts", str(self.STARTS),
                                "--seed", str(int(rng.integers(0, 2**31))),
                                "--outdir", str(outdir)],
                       "outdir": outdir}

    def op(self, inp):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(inp["argv"])
        if code != 0:
            raise RuntimeError(f"monoclt hopf exited with code {code}")
        return code

    def outputs(self, inp, raw):
        ratios = []
        for path in sorted(inp["outdir"].glob("hopf-*.csv")):
            with open(path, newline="") as fh:
                rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
            ratios += [float(r[2]) for r in rows]
        shutil.rmtree(inp["outdir"], ignore_errors=True)
        return {"ratios": np.asarray(ratios, dtype=float)}

    def check(self, inp, outs):
        problems = []
        r = outs["ratios"]
        if len(r) != self.CHECKPOINTS * self.STARTS:
            problems.append(f"CSV has {len(r)} rows, expected {self.CHECKPOINTS * self.STARTS}")
        # a truncated orbit keeps its frozen sums in this CSV, so every ratio
        # must be finite and positive
        if not (np.all(np.isfinite(r)) and np.all(r > 0)):
            problems.append("non-finite or non-positive Hopf ratio")
        return problems


class LatticeOrbits(Workload):
    """Many starts, many poles: batched orbits of the 100-pole boundary map.

    The boundary map of ``lattice_tail_lab(50)`` (the CLI's orbit default
    K): occupation times of 2048 starts over N = 100 steps in (-1, 1), and
    the Lebesgue-preservation identity of C09 at 5 points.
    """

    name = "lattice_orbits"
    STARTS = 2048
    N = 100
    WINDOW = (-1.0, 1.0)
    PRESERVATION_TOL = 1e-8

    def setup(self):
        self.T = eg.lattice_tail_lab(50).T

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield {"x0": rng.uniform(-2.0, 2.0, self.STARTS), "ys": rng.normal(0.0, 5.0, 5)}

    def op(self, inp):
        rec = eg.occupation_time(self.T, inp["x0"], self.N, self.WINDOW)
        dev = eg.preservation_check(self.T, inp["ys"])
        return rec, dev

    def outputs(self, inp, raw):
        rec, dev = raw
        tr = rec.truncated_at
        return {"visits": rec.visits.astype(float), "truncated": float(np.count_nonzero(tr >= 0)),
                "truncated_range": [float(tr.min()), float(tr.max())],
                "preservation_dev": float(dev)}

    def check(self, inp, outs):
        problems = []
        v, (tr_lo, tr_hi) = outs["visits"], outs["truncated_range"]
        if len(v) != self.STARTS or np.any(v < 0) or np.any(v > self.N):
            problems.append("visit counts outside [0, N]")
        if tr_lo < -1 or tr_hi >= self.N:
            problems.append("truncation step outside [-1, N)")
        if not outs["preservation_dev"] <= self.PRESERVATION_TOL:
            problems.append(f"|sum 1/T' - 1| = {outs['preservation_dev']!r} > {self.PRESERVATION_TOL}")
        return problems


WORKLOADS = {cls.name: cls for cls in (LatticeClt, DensityScan, HopfCli, LatticeOrbits)}


def make(name: str, scratch: Path) -> Workload:
    """The workload called `name`; `scratch` holds files an op writes."""
    return WORKLOADS[name](scratch)


# ---------------------------------------------------------------------------
# Comparison against recorded outputs
# ---------------------------------------------------------------------------

#: values that are differences or distances of O(1) quantities are compared
#: against this floor instead of their own (small) size
ABS_FLOOR = {"f_dev": 1.0, "ks_arcsine": 1.0, "ks_normal": 1.0, "preservation_dev": 1.0,
             "free_clamped": 1.0}

REF_RTOL = 1e-9


def to_record(outs: dict) -> dict:
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in outs.items()}


def compare(outs: dict, ref: dict) -> list[str]:
    """Keys whose values differ from `ref` by more than ``REF_RTOL`` of their scale.

    Arrays are compared norm-wise (scale = largest recorded magnitude).
    NaN matches NaN.
    """
    bad = []
    for key, want in ref.items():
        a = np.asarray(outs.get(key, np.nan), dtype=float)
        b = np.asarray(want, dtype=float)
        if a.shape != b.shape:
            bad.append(f"{key}: shape {a.shape} != {b.shape}")
            continue
        if not np.array_equal(np.isnan(a), np.isnan(b)):
            bad.append(f"{key}: NaN pattern differs")
            continue
        fin = ~np.isnan(b)
        if not fin.any():
            continue
        scale = max(float(np.max(np.abs(b[fin]))), ABS_FLOOR.get(key, 0.0), 1e-300)
        err = float(np.max(np.abs(a[fin] - b[fin])))
        if err > REF_RTOL * scale:
            bad.append(f"{key}: differs by {err:.3g} (tolerance {REF_RTOL * scale:.3g})")
    return bad
