"""Command-line front end: experiments as subcommands with file artifacts.

Every subcommand assembles a config (defaults, then ``--config`` JSON,
then explicit flags), hashes it, runs the experiment, and returns one
table ``(note, header, rows)``.  :func:`run` is the package's one
artifact writer: it writes that table as ``<subcommand>-<hash>.csv`` or
``.json`` plus a run manifest ``<subcommand>-<hash>-manifest.json``
(inputs, versions, wall time); the library's report objects are plain
data.  Identical configs produce byte-identical artifacts: floats are
formatted with 17 significant digits and any sampling uses the seeded
generator from the config.

Exit codes: 0 success, 2 config/validation error, 3 numerical error
(non-convergence, capacity, pole proximity).

``orbit`` and ``hopf`` run every start through the library's one orbit
engine in a single call, in one thread.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import platform
import re
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, clt, convolve as cv, ergodic as eg, measures as ms, transforms as tf
from .errors import (CapacityExceeded, CoverageError, DegenerateMeasure, DomainError,
                     NonConvergence, NumericBreakdown, PoleProximity)

_VALIDATION_ERRORS = (CoverageError, DomainError, DegenerateMeasure, ValueError, KeyError)
_NUMERICAL_ERRORS = (NonConvergence, CapacityExceeded, NumericBreakdown, PoleProximity)

SCHEMA_VERSION = 1


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def parse_measure(token: str):
    """Resolve a measure spec: a named token, ``ex310b:K``, inline JSON, or
    ``@file``.  ``ex310b:K`` is the lattice-tail law truncated at an integer
    K in ``10..eg.LATTICE_MAX_K`` (10**6), given by its map, a `tf.NevanlinnaMap`."""
    named = {
        "boole": lambda: ms.atomic([(-1.0, 0.5), (1.0, 0.5)]),
        "bern01": lambda: ms.atomic([(0.0, 0.5), (1.0, 0.5)]),
        "arcsine": ms.arcsine,
        "normal": ms.normal,
        "semicircle": ms.semicircle,
        "powertail3": lambda: ms.power_tail(3.0),
    }
    if token in named:
        return named[token]()
    if token.startswith("ex310b"):
        K = re.fullmatch(r"ex310b:([1-9][0-9]+)", token)   # an integer K >= 10
        if K is None:
            raise ValueError(f"expected ex310b:K with an integer K >= 10, got {token!r}")
        return eg.lattice_tail_lab(int(K[1])).map       # which refuses K above the cap
    if token.startswith("@"):
        return ms.measure_from_json(Path(token[1:]).read_text())
    return ms.measure_from_json(token)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    pass


def build_config(spec: dict, args: argparse.Namespace) -> dict:
    """Merge defaults, --config file, and explicit flags; reject unknowns."""
    cfg = {k: v[1] for k, v in spec.items()}
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        unknown = set(loaded) - set(spec)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg.update(loaded)
    for key in spec:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    for key, (check, _default, _help) in spec.items():
        cfg[key] = check(cfg[key])
    return cfg


def config_hash(cfg: dict) -> str:
    # the hash identifies the experiment; where artifacts land is not part of it
    keyed = {k: v for k, v in cfg.items() if k != "outdir"}
    return hashlib.sha256(json.dumps(keyed, sort_keys=True).encode()).hexdigest()[:12]


def _number(kind, ok=lambda v: True, want="a number"):
    """A reader of an int or float `kind` for which `ok` holds: an int field
    takes an integer or an integer string, a float field a number or a
    numeric string; anything else, a bool or a float for an int included,
    is a config error."""
    accepted = (int, str) if kind is int else (int, float, str)

    def check(v):
        if isinstance(v, bool) or not isinstance(v, accepted):
            raise ConfigError(f"expected {want}, got {v!r}")
        try:
            x = kind(v)
        except (OverflowError, ValueError):  # "abc", int(nan), int(inf), float(10**400)
            raise ConfigError(f"expected {want}, got {v!r}") from None
        if not ok(x):
            raise ConfigError(f"expected {want}, got {v!r}")
        return x
    return check


def _positive(kind):
    return _number(kind, lambda v: 0 < v < math.inf, "a finite value > 0")


def _nonneg(kind):
    return _number(kind, lambda v: 0 <= v < math.inf, "a finite value >= 0")


_finite = _number(float, math.isfinite, "a finite value")


def _list(check):
    def parse(v):
        if isinstance(v, str):
            v = v.split(",")
        if not isinstance(v, list) or not v:
            raise ConfigError(f"expected a non-empty list, got {v!r}")
        return [check(x) for x in v]
    return parse


_int_list = _list(_positive(int))
_float_list = _list(_finite)


def _choice(*values):
    def check(v):
        v = str(v)
        if v not in values:
            raise ConfigError(f"expected {'|'.join(values)}, got {v!r}")
        return v
    return check


def _measure(kinds=object, want="", K=1000):
    """A reader of a measure spec that parses whole into one of `kinds`; the
    config records a bare ``ex310b`` as ``ex310b:K``."""
    def check(v):
        if not isinstance(v, str):
            raise ConfigError(f"expected a measure spec string, got {v!r}")
        v = f"ex310b:{K}" if v == "ex310b" else v
        try:
            law = parse_measure(v)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{type(exc).__name__}: {exc}") from None
        if not isinstance(law, kinds):
            raise ConfigError(f"{want}, got {v!r}")
        return v
    return check


_plain_measure = _measure(ms.Measure, "free convolution needs plain measures")
_map_source = _measure(ms.AtomicMeasure | tf.NevanlinnaMap,
                       "boundary maps need an atomic (singular) measure or ex310b", K=50)

# field spec: name -> (validator, default, help)
_COMMON = {
    "outdir": (str, "artifacts", "output directory"),
    "format": (_choice("csv", "json"), "csv", "artifact format (csv|json)"),
}


_GRID = {
    "xmin": (_finite, -4.0, "grid start"),
    "xmax": (_finite, 4.0, "grid end"),
    "h": (_positive(float), 1e-3, "grid spacing"),
    "eta": (_positive(float), 1e-2, "inversion offset"),
}


def _grid_from_cfg(cfg) -> np.ndarray:
    if cfg["xmax"] <= cfg["xmin"]:
        raise ConfigError("xmax must exceed xmin")
    return tf.default_grid(cfg["xmin"], cfg["xmax"], cfg["h"])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_SUBCOMMANDS: dict = {}     # name -> (field spec, command)


def _subcommand(name: str, fields: dict):
    """Register a command as subcommand `name`, whose config is the common
    fields and `fields`."""
    def register(fn):
        _SUBCOMMANDS[name] = ({**_COMMON, **fields}, fn)
        return fn
    return register


@_subcommand("moments", {
    "measure": (_measure(), "boole", "measure token/JSON/@file"),
    "x-list": (_float_list, [1.0, 10.0, 100.0], "cutoffs for H/L/tail")})
def cmd_moments(cfg, out):
    m = parse_measure(cfg["measure"])
    if isinstance(m, tf.NevanlinnaMap):
        m = m.rep.sigma
    mom = ms.moments(m)
    rows = [["mean", mom.mean], ["m2", mom.m2], ["var", mom.var]]
    for x in cfg["x-list"]:
        rows.append([f"H({_fmt(x)})", ms.truncated_variance(m, x)])
        rows.append([f"L({_fmt(x)})", ms.harmonic_variance(m, x)])
        rows.append([f"tail({_fmt(x)})", ms.tail(m, x)])
    return "moments", ["quantity", "value"], rows


@_subcommand("norming", {
    "measure": (_measure(), "boole", "measure token/JSON/@file"),
    "method": (_choice("auto", "variance", "h-cutoff"), "auto", "auto|variance|h-cutoff"),
    "n-list": (_int_list, [10, 100, 1000, 10000], "indices")})
def cmd_norming(cfg, out):
    m = parse_measure(cfg["measure"])
    ns = np.asarray(cfg["n-list"], dtype=np.int64)
    B = clt.norming_constants(m, ns=ns, method=cfg["method"])
    rows = [[int(n), float(b)] for n, b in zip(B.ns, B.values)]
    return f"norming ({B.provenance})", ["n", "B"], rows


@_subcommand("clt-report", {**_GRID,
    "measure": (_measure(), "boole", "measure token/JSON/@file"),
    "n-list": (_int_list, [100, 1000], "powers"),
    "with-ks": (_choice("yes", "no"), "yes", "compute inversion KS column (yes|no)")})
def cmd_clt_report(cfg, out):
    obj = parse_measure(cfg["measure"])
    ns = np.asarray(cfg["n-list"], dtype=np.int64)
    rep = clt.clt_report(obj, ns, eta=cfg["eta"], grid=_grid_from_cfg(cfg),
                         with_ks=cfg["with-ks"] == "yes")
    rows = [[r.n, r.B, r.f_dev,
             "" if r.ks_arcsine is None else r.ks_arcsine,
             "" if r.ks_normal is None else r.ks_normal] for r in rep.rows]
    return "clt-report", ["n", "B", "f_dev", "ks_arcsine", "ks_normal"], rows


@_subcommand("conjugacy", {
    "measure": (_measure(), "bern01", "measure token/JSON/@file"),
    "n": (_positive(int), 1000, "iteration count"),
    "B": (_nonneg(float), 0.0, "norming constant (0 = auto)"),
    "y-list": (_float_list, [10.2, 10.5, 10.8], "y values (>10)")})
def cmd_conjugacy(cfg, out):
    src = parse_measure(cfg["measure"])
    if not isinstance(src, tf.SelfMap):
        mean = ms.moments(src).mean
        src = ms.shift(src, -mean) if mean != 0.0 else src
    n = cfg["n"]
    Bn = cfg["B"] or float(clt.norming_constants(src, ns=[n]).values[0])
    rows = []
    for y in cfg["y-list"]:
        tr = clt.conjugacy_trace(src, n, -(y * y), Bn)
        rows.append([y, tr.lhs.real, tr.lhs.imag, tr.telescoped.real, tr.telescoped.imag,
                     abs(tr.lhs - tr.telescoped), abs(tr.remainder_sum - (-2.0))])
    header = ["y", "lhs_re", "lhs_im", "telescoped_re", "telescoped_im",
              "agreement", "remainder_dev_from_minus2"]
    return "conjugacy", header, rows


@_subcommand("invert", {**_GRID,
    "measure": (_measure(), "boole", "measure token/JSON/@file")})
def cmd_invert(cfg, out):
    obj = parse_measure(cfg["measure"])
    F = obj if isinstance(obj, tf.SelfMap) else tf.MeasureMap(obj)
    dens = tf.measure_from_map(F, grid=_grid_from_cfg(cfg), eta=cfg["eta"])
    rows = [[x, v] for x, v in zip(dens.grid, dens.values)]
    return f"invert (clamped_mass={_fmt(dens.clamped_mass)})", ["x", "density"], rows


@_subcommand("free-conv", {**_GRID,
    "measure": (_plain_measure, "boole", "left factor"),
    "with": (_plain_measure, "boole", "right factor"),
    "maxiter": (_positive(int), 10_000, "fixed-point step cap")})
def cmd_free_conv(cfg, out):
    dens = cv.free_density(parse_measure(cfg["measure"]), parse_measure(cfg["with"]),
                           grid=_grid_from_cfg(cfg), eta=cfg["eta"], maxiter=cfg["maxiter"])
    rows = [[x, v] for x, v in zip(dens.grid, dens.values)]
    return f"free-conv (clamped_mass={_fmt(dens.clamped_mass)})", ["x", "density"], rows


@_subcommand("nevanlinna", {
    "measure": (_measure(ms.AtomicMeasure, "extraction needs an atomic probability measure"),
                "boole", "atomic measure token/JSON/@file")})
def cmd_nevanlinna(cfg, out):
    rep = tf.nevanlinna_extract(parse_measure(cfg["measure"]))
    rows = [["a", rep.a], ["sigma_total", rep.sigma_total]]
    if rep.sigma is not None:
        for t, s in zip(rep.sigma.positions, rep.sigma.masses):
            rows.append([f"atom({_fmt(float(t))})", float(s)])
    return "nevanlinna", ["quantity", "value"], rows


def _map_from_cfg(cfg):
    obj = parse_measure(cfg["measure"])
    return eg.boundary_map(obj.rep if isinstance(obj, tf.NevanlinnaMap)
                           else tf.nevanlinna_extract(obj))


@_subcommand("boundary-map", {
    "measure": (_map_source, "boole", "atomic measure token/JSON/@file")})
def cmd_boundary_map(cfg, out):
    T = _map_from_cfg(cfg)
    rows = [["c", T.c]] + [[f"pole({_fmt(float(t))})", float(w)]
                           for t, w in zip(T.pole_positions, T.pole_weights)]
    out["map_json"] = T.to_json()
    return "boundary-map", ["quantity", "value"], rows


def _random_starts(cfg) -> np.ndarray:
    """``cfg['starts']`` uniform starts in the sampling window, seeded by ``cfg['seed']``."""
    lo, hi = cfg["start-lo"], cfg["start-hi"]
    if not math.isfinite(hi - lo):
        raise ConfigError(f"start window [{lo}, {hi}] is wider than the largest float")
    return np.random.default_rng(cfg["seed"]).uniform(lo, hi, cfg["starts"])


@_subcommand("orbit", {
    "measure": (_map_source, "boole", "atomic measure token/JSON/@file"),
    "N": (_positive(int), 100_000, "orbit length"),
    "starts": (_positive(int), 4, "number of random starts"),
    "seed": (_nonneg(int), 0, "seed of the random starts"),
    "start-lo": (_finite, -2.0, "start sampling window low"),
    "start-hi": (_finite, 2.0, "start sampling window high"),
    "window-lo": (_finite, -1.0, "occupation window low"),
    "window-hi": (_finite, 1.0, "occupation window high")})
def cmd_orbit(cfg, out):
    T = _map_from_cfg(cfg)
    x0 = _random_starts(cfg)
    rec = eg.occupation_time(T, x0, cfg["N"], (cfg["window-lo"], cfg["window-hi"]))
    rows = [[float(x), int(v), int(tr)] for x, v, tr in zip(x0, rec.visits, rec.truncated_at)]
    return "orbit", ["x0", "visits", "truncated_at"], rows


@_subcommand("preserve-check", {
    "measure": (_map_source, "boole", "atomic measure token/JSON/@file"),
    "samples": (_positive(int), 100, "number of test points"),
    "seed": (_nonneg(int), 0, "seed of the random test points"),
    "y-scale": (_positive(float), 5.0, "test point spread")})
def cmd_preserve_check(cfg, out):
    T = _map_from_cfg(cfg)
    rng = np.random.default_rng(cfg["seed"])
    ys = rng.normal(0.0, cfg["y-scale"], cfg["samples"])
    devs = eg._preservation_deviations(T, ys)
    rows = [[y, T.n_poles + 1, dev] for y, dev in zip(ys.tolist(), devs.tolist())]
    return "preserve-check", ["y", "n_preimages", "deviation"], rows


@_subcommand("aaronson", {
    "measure": (_measure(), "boole", "singular measure token/JSON/@file"),
    "N": (_positive(int), 10_000, "number of terms"),
    "z-re": (_finite, 0.0, "Re z"),
    "z-im": (_positive(float), 1.0, "Im z")})
def cmd_aaronson(cfg, out):
    src = parse_measure(cfg["measure"])
    sums = eg.aaronson_sums(src, cfg["N"], complex(cfg["z-re"], cfg["z-im"]))
    rows = [[n + 1, sums.terms[n], sums.partial_sums[n]] for n in range(cfg["N"])]
    return "aaronson", ["n", "term", "s_n"], rows


@_subcommand("conservativity", {
    "measure": (_measure(), "boole", "measure token/JSON/@file"),
    "N": (_positive(int), 100_000, "horizon")})
def cmd_conservativity(cfg, out):
    src = parse_measure(cfg["measure"])
    if isinstance(src, tf.NevanlinnaMap):   # ex310b: normed by the closed form sqrt(n log n)
        rep = eg.conservativity_criterion(src.rep.sigma, cfg["N"],
                                          B=eg._lattice_tail_norming(cfg["N"]))
    else:
        rep = eg.conservativity_criterion(src, cfg["N"])
    rows = [[int(n), float(s)] for n, s in zip(rep.ns, rep.partial_sums)]
    out["fits"] = rep.fits
    out["verdict"] = rep.verdict
    return f"conservativity (verdict: {rep.verdict})", ["N", "sum_inv_B_squared"], rows


def _parse_kernel(tok: str):
    kind, *bounds = tok.split(":")
    if kind in ("cauchy", "gauss") and not bounds:
        return kind
    if kind == "indicator" and len(bounds) == 2 and all(map(_is_number, bounds)):
        return (kind, *map(float, bounds))
    raise ConfigError(f"expected cauchy, gauss or indicator:a:b with numbers a and b, got {tok!r}")


def _kernel(v):
    try:
        eg._normalize_kernel(_parse_kernel(str(v)))
    except ValueError as exc:    # a ConfigError included
        raise ConfigError(str(exc)) from None
    return str(v)


@_subcommand("hopf", {
    "measure": (_map_source, "boole", "atomic measure token/JSON/@file"),
    "N": (_positive(int), 1_000_000, "orbit length"),
    "starts": (_positive(int), 4, "number of random starts"),
    "seed": (_nonneg(int), 0, "seed of the random starts"),
    "start-lo": (_finite, -2.0, "start sampling window low"),
    "start-hi": (_finite, 2.0, "start sampling window high"),
    "f": (_kernel, "cauchy", "numerator kernel (cauchy|gauss|indicator:a:b)"),
    "g": (_kernel, "gauss", "denominator kernel")})
def cmd_hopf(cfg, out):
    T = _map_from_cfg(cfg)
    x0 = _random_starts(cfg)
    res = eg.hopf_ratio(T, _parse_kernel(cfg["f"]), _parse_kernel(cfg["g"]), x0, cfg["N"])
    rows = [[int(n), si, res.ratios[ci, si]]
            for ci, n in enumerate(res.checkpoints) for si in range(len(x0))]
    out["target"] = res.target
    return f"hopf (target={_fmt(res.target)})", ["n", "start_index", "ratio"], rows


@_subcommand("example-3-5", {
    "n": (_positive(int), 1000, "iteration count"),
    "y-list": (_float_list, [10.2, 10.5, 10.8], "y values in (10, 11)")})
def cmd_example_3_5(cfg, out):
    # closed-form check: the centered two-point law scaled by sqrt(n)/2 has
    # one-step map z - 1/(nz); the squared iterate telescopes to z - 2 + O(1/n)
    m = ms.shift(ms.atomic([(0.0, 0.5), (1.0, 0.5)]), -0.5)
    n = cfg["n"]
    Bn = np.sqrt(n) / 2.0
    rows = []
    for y in cfg["y-list"]:
        M = cv.scaled_monotone_power(m, n, Bn)
        val = tf.f_eval(M, 1j * y)
        dev = abs(val * val - ((1j * y) ** 2 - 2.0))
        one_step = tf.f_eval(cv.scaled_monotone_power(m, 1, Bn), 1j * y)
        closed = 1j * y - 1.0 / (n * 1j * y)
        rows.append([y, dev, 5.0 / n, abs(one_step - closed)])
    return "example-3-5", ["y", "sq_deviation", "bound_5_over_n",
                           "one_step_closed_form_dev"], rows


@_subcommand("example-3-10b", {
    "K": (_number(int, lambda v: 10 <= v <= eg.LATTICE_MAX_K,
                  f"an integer in 10..{eg.LATTICE_MAX_K}"), 1000, "lattice truncation"),
    "N": (_positive(int), 1000, "norming horizon")})
def cmd_example_3_10b(cfg, out):
    lab = eg.lattice_tail_lab(cfg["K"], N=cfg["N"])
    rows = [["mass_defect", lab.mass_defect],
            ["sigma_total", lab.sigma.total_mass],
            ["sigma_mean", ms.moments(lab.sigma).mean],
            ["c", lab.T.c],
            ["n_poles", float(lab.T.n_poles)]]
    for n in (10, 100, 1000, cfg["N"]):
        if n <= cfg["N"]:
            rows.append([f"B({n})", lab.B.at(n)])
    out["map_json_poles"] = int(lab.T.n_poles)
    return "example-3-10b", ["quantity", "value"], rows


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """``--opt -1e-05`` as ``--opt=-1e-05``.  argparse reads only plain
    negative decimals (``-5``, ``-0.5``) as values and takes any other token
    that starts with ``-`` for an unknown option; every subcommand option
    takes one value, so a number right after an option is its value."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and _is_number(token)):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="monoclt",
        description="Convolution-of-measures workbench: transform-composition "
                    "experiments and boundary-map ergodic diagnostics.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (spec, _fn) in _SUBCOMMANDS.items():
        sp = subs.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        for field, (_check, default, help_text) in spec.items():
            sp.add_argument(f"--{field}", default=None,
                            help=f"{help_text} (default {default!r})")
    return parser


def run(argv=None) -> int:
    args = _parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))

    spec, fn = _SUBCOMMANDS[args.subcommand]
    t0 = time.time()
    try:
        cfg = build_config(spec, args)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error [{args.subcommand}]: {exc}", file=sys.stderr)
        return 2

    outdir = Path(cfg["outdir"])
    h = config_hash(cfg)
    extra: dict = {}
    try:
        note, header, rows = fn(cfg, extra)
    except _VALIDATION_ERRORS as exc:
        print(f"validation error [{args.subcommand}]: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error [{args.subcommand}]: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3

    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{args.subcommand}-{h}.{cfg['format']}"
    if cfg["format"] == "csv":
        _write_csv(path, header, rows)
    else:
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "note": note,
                                    "rows": [dict(zip(header, row)) for row in rows]},
                                   indent=1))
    print(f"{args.subcommand}: wrote {path} ({note})")

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.subcommand,
        "config": cfg,
        "config_hash": h,
        "artifacts": [path.name],
        "versions": {"monoclt": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__, "python": platform.python_version()},
        "wall_time_s": round(time.time() - t0, 3),
        **extra,
    }
    (outdir / f"{args.subcommand}-{h}-manifest.json").write_text(
        json.dumps(manifest, indent=1, default=str))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
