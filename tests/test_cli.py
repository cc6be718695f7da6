"""Tests for the command-line front end: artifacts, determinism, exit codes."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoclt import cli, ergodic as eg, measures as ms
from test_convolve import LATTICE_M, LATTICE_N


def run_cli(args, tmp_path, outname="arts"):
    outdir = tmp_path / outname
    code = cli.run(args + ["--outdir", str(outdir)])
    return code, outdir


ALL_SUBCOMMANDS = list(cli._SUBCOMMANDS)


def test_subcommand_inventory():
    assert set(ALL_SUBCOMMANDS) == {
        "moments", "norming", "clt-report", "conjugacy", "invert", "free-conv",
        "nevanlinna", "boundary-map", "orbit", "preserve-check", "aaronson",
        "conservativity", "hopf", "example-3-5", "example-3-10b"}


ARTIFACT_ARGS = [
    ["moments", "--measure", "boole"],
    ["norming", "--measure", "bern01", "--n-list", "10,100"],
    ["clt-report", "--measure", "boole", "--n-list", "50", "--with-ks", "no"],
    ["conjugacy", "--measure", "bern01", "--n", "100"],
    ["invert", "--measure", "boole", "--h", "0.01"],
    ["free-conv", "--measure", "boole", "--with", "boole", "--h", "0.01", "--eta", "0.05"],
    ["nevanlinna", "--measure", "bern01"],
    ["boundary-map", "--measure", "boole"],
    ["orbit", "--measure", "boole", "--N", "1000", "--starts", "2"],
    ["preserve-check", "--measure", "boole", "--samples", "10"],
    ["aaronson", "--measure", "boole", "--N", "50"],
    ["conservativity", "--measure", "boole", "--N", "2000"],
    ["hopf", "--measure", "boole", "--N", "10000", "--starts", "2"],
    ["example-3-5", "--n", "100"],
    ["example-3-10b", "--K", "100", "--N", "100"],
]


@pytest.mark.parametrize("args", ARTIFACT_ARGS)
def test_subcommands_produce_artifacts(args, tmp_path):
    code, outdir = run_cli(args, tmp_path)
    assert code == 0
    csvs = list(outdir.glob(f"{args[0]}-*.csv"))
    manifests = list(outdir.glob(f"{args[0]}-*-manifest.json"))
    assert len(csvs) == 1 and len(manifests) == 1
    man = json.loads(manifests[0].read_text())
    assert man["subcommand"] == args[0]
    assert man["config_hash"] in csvs[0].name
    assert csvs[0].name in man["artifacts"]
    assert "wall_time_s" in man and "versions" in man


@pytest.mark.parametrize("args", ARTIFACT_ARGS)
def test_json_rows_equal_csv_rows(args, tmp_path):
    # the one writer lays out the same table either way: %.17g and JSON
    # both round-trip a float exactly, and a missing value is "" in both
    tables = {}
    for fmt in ("csv", "json"):
        code, outdir = run_cli(args + ["--format", fmt], tmp_path, fmt)
        assert code == 0
        [art] = [p for p in outdir.iterdir() if not p.name.endswith("-manifest.json")]
        man = json.loads(next(outdir.glob("*-manifest.json")).read_text())
        assert man["artifacts"] == [art.name] and art.suffix == f".{fmt}"
        tables[fmt] = art.read_text()
    lines = tables["csv"].splitlines()
    assert lines[0] == f"# schema_version={cli.SCHEMA_VERSION}"
    header = lines[1].split(",")
    csv_rows = [line.split(",") for line in lines[2:]]
    doc = json.loads(tables["json"])
    assert doc["schema_version"] == cli.SCHEMA_VERSION
    assert len(doc["rows"]) == len(csv_rows) > 0
    for cells, row in zip(csv_rows, doc["rows"]):
        assert list(row) == header
        for cell, value in zip(cells, row.values()):
            if isinstance(value, float):
                assert float(cell) == value
            else:
                assert type(value)(cell) == value


@pytest.mark.parametrize("sub", ["free-conv", "nevanlinna"])
def test_K_is_not_an_option_of_plain_measure_subcommands(sub, tmp_path):
    # K only sizes the ex310b lab, which neither subcommand accepts
    with pytest.raises(SystemExit) as exc:
        run_cli([sub, "--K", "5"], tmp_path)
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 5}))
    assert cli.run([sub, "--config", str(cfg), "--outdir", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_K_only_on_example_3_10b(tmp_path):
    # a measure spec carries its own truncation, ex310b:K
    assert {sub for sub, (spec, _fn) in cli._SUBCOMMANDS.items() if "K" in spec} == {
        "example-3-10b"}
    with pytest.raises(SystemExit) as exc:
        run_cli(["moments", "--measure", "ex310b", "--K", "50"], tmp_path)
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 50}))
    code, outdir = run_cli(["boundary-map", "--measure", "ex310b", "--config", str(cfg)],
                           tmp_path)
    assert code == 2 and not outdir.exists()


@pytest.mark.parametrize("measure, poles", [("ex310b", 100), ("ex310b:1000", 2000)])
def test_ex310b_token_sets_the_truncation(measure, poles, tmp_path):
    # a bare ex310b is ex310b:50 where the boundary map is iterated, and the
    # config records that explicit form
    code, outdir = run_cli(["boundary-map", "--measure", measure], tmp_path)
    assert code == 0
    rows = next(outdir.glob("boundary-map-*.csv")).read_text().splitlines()[2:]
    assert sum(row.startswith("pole(") for row in rows) == poles
    man = json.loads(next(outdir.glob("*-manifest.json")).read_text())
    assert man["config"]["measure"] == ("ex310b:50" if measure == "ex310b" else measure)


def test_bare_ex310b_is_its_explicit_form(tmp_path):
    # one experiment, one config hash: the bare token records its default K
    for args, K in ((["moments"], 1000), (["orbit", "--N", "100"], 50)):
        names = []
        for measure in ("ex310b", f"ex310b:{K}"):
            code, outdir = run_cli(args + ["--measure", measure], tmp_path, measure + args[0])
            assert code == 0
            names.append(sorted(p.name for p in outdir.iterdir()))
        assert names[0] == names[1]


def test_determinism_byte_identical(tmp_path):
    args = ["aaronson", "--measure", "boole", "--N", "500"]
    _, out1 = run_cli(args, tmp_path, "a")
    _, out2 = run_cli(args, tmp_path, "b")
    f1 = next(out1.glob("aaronson-*.csv"))
    f2 = next(out2.glob("aaronson-*.csv"))
    assert f1.name == f2.name
    assert f1.read_bytes() == f2.read_bytes()


def test_aaronson_first_row(tmp_path):
    code, outdir = run_cli(["aaronson", "--measure", "boole", "--N", "10"], tmp_path)
    assert code == 0
    lines = next(outdir.glob("aaronson-*.csv")).read_text().splitlines()
    assert lines[1] == "n,term,s_n"
    first = lines[2].split(",")
    assert first[0] == "1" and float(first[1]) == 0.5 and float(first[2]) == 0.5


def test_example_3_5_rate_columns(tmp_path):
    n = 1000
    code, outdir = run_cli(["example-3-5", "--n", str(n)], tmp_path)
    assert code == 0
    lines = next(outdir.glob("example-3-5-*.csv")).read_text().splitlines()
    for row in lines[2:]:
        y, dev, bound, one_step = (float(v) for v in row.split(","))
        assert 10.0 < y < 11.0
        assert dev <= bound == 5.0 / n
        assert one_step < 1e-12


def test_invalid_config_exits_2(tmp_path):
    code, _ = run_cli(["invert", "--measure", "boole", "--eta", "-1"], tmp_path)
    assert code == 2
    code, _ = run_cli(["nevanlinna", "--measure", "arcsine"], tmp_path)
    assert code == 2
    code, outdir = run_cli(["moments", "--measure", "[]"], tmp_path)   # JSON, not a spec
    assert code == 2 and not outdir.exists()


@pytest.mark.parametrize("value", ["Yes", "true", ""])
def test_with_ks_must_be_yes_or_no(value, tmp_path, capsys):
    code, outdir = run_cli(["clt-report", "--measure", "bern01", "--n-list", "5",
                            "--with-ks", value], tmp_path)
    assert code == 2
    assert not outdir.exists()
    assert "yes|no" in capsys.readouterr().err


def test_unknown_config_field_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": "boole", "bogus": 1}))
    code = cli.run(["moments", "--config", str(cfg), "--outdir", str(tmp_path / "x")])
    assert code == 2
    assert not (tmp_path / "x").exists()


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": "boole", "N": 25}))
    code = cli.run(["aaronson", "--config", str(cfg), "--outdir", str(tmp_path / "y")])
    assert code == 0
    lines = next((tmp_path / "y").glob("aaronson-*.csv")).read_text().splitlines()
    assert len(lines) == 2 + 25


def test_numerical_error_exits_3(tmp_path):
    code, _ = run_cli(["free-conv", "--measure", "boole", "--with", "boole",
                       "--h", "0.01", "--eta", "0.001", "--maxiter", "3"], tmp_path)
    assert code == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_free_conv_independent_lattice_pair(tmp_path):
    # the pair of TestFreeConvolve::test_independent_lattice_pair at the
    # default maxiter, with the Richardson half-eta solve
    code, outdir = run_cli(["free-conv", "--measure", ms.measure_to_json(LATTICE_M),
                            "--with", ms.measure_to_json(LATTICE_N), "--xmin", "-5",
                            "--xmax", "5", "--h", "5e-4", "--eta", "5e-3"], tmp_path)
    assert code == 0
    rows = np.loadtxt(next(outdir.glob("free-conv-*.csv")), delimiter=",", skiprows=2)
    assert rows.shape == (20_001, 2) and np.isfinite(rows).all()


@st.composite
def atomic_laws(draw):
    k = draw(st.integers(2, 5))
    pos = draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k))
    w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
    return json.dumps({"type": "atomic", "atoms": [[p, v] for p, v in zip(pos, w / w.sum())]})


class TestFreeConvFuzz:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(m=atomic_laws(), n=atomic_laws(), xmin=st.floats(-6.0, 0.0),
           width=st.floats(0.1, 6.0), points=st.integers(2, 200),
           eta=st.floats(1e-4, 1.0), maxiter=st.integers(1, 2000))
    def test_exit_codes_and_finite_artifacts(self, tmp_path_factory, m, n, xmin, width,
                                             points, eta, maxiter):
        # each value its own token, so "-1e-05" follows its option
        args = ["free-conv", "--measure", m, "--with", n, "--xmin", repr(xmin),
                "--xmax", repr(xmin + width), "--h", repr(width / (points - 1)),
                "--eta", repr(eta), "--maxiter", str(maxiter)]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))


class TestInvertFuzz:
    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(m=atomic_laws(), xmin=st.floats(-6.0, 0.0), width=st.floats(0.1, 6.0),
           points=st.integers(2, 200), eta=st.floats(1e-4, 1.0))
    def test_exit_codes_and_finite_artifacts(self, tmp_path_factory, m, xmin, width,
                                             points, eta):
        args = ["invert", "--measure", m, "--xmin", repr(xmin), "--xmax", repr(xmin + width),
                "--h", repr(width / (points - 1)), "--eta", repr(eta)]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))


class TestPowerTailFuzz:
    """``invert``, ``clt-report`` and ``free-conv`` (with an atomic partner) on
    power-tail laws, the closed-form Cauchy transform, on grids of at most 200
    points (``invert``'s in units of the law's scale)."""

    @staticmethod
    def spec(p, scale):
        return json.dumps({"type": "ref", "law": "powertail", "exponent": p,
                           "weight": (p - 1.0) / 2.0, "scale": scale})

    @staticmethod
    def grid(scale, xmin, width, points):
        return ["--xmin", repr(scale * xmin), "--xmax", repr(scale * (xmin + width)),
                "--h", repr(scale * width / (points - 1))]

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(p=st.floats(1.5, 8.0), scale=st.floats(1e-3, 1e3), xmin=st.floats(-6.0, 0.0),
           width=st.floats(0.1, 12.0), points=st.integers(2, 200), eta=st.floats(1e-4, 1.0))
    def test_invert(self, tmp_path_factory, p, scale, xmin, width, points, eta):
        args = (["invert", "--measure", self.spec(p, scale), "--eta", repr(scale * eta)]
                + self.grid(scale, xmin, width, points))
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(p=st.floats(1.5, 8.0), scale=st.floats(1e-3, 1e3),
           ns=st.lists(st.integers(1, 64), min_size=1, max_size=3), xmin=st.floats(-10.0, 0.0),
           width=st.floats(0.1, 20.0), points=st.integers(2, 200), eta=st.floats(1e-3, 1.0),
           ks=st.sampled_from(["yes", "no"]))
    def test_clt_report(self, tmp_path_factory, p, scale, ns, xmin, width, points, eta, ks):
        args = (["clt-report", "--measure", self.spec(p, scale),
                 "--n-list", ",".join(map(str, ns)), "--eta", repr(eta), "--with-ks", ks]
                + self.grid(1.0, xmin, width, points))
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(p=st.floats(1.5, 8.0), scale=st.floats(1e-3, 1e3), n=atomic_laws(),
           xmin=st.floats(-6.0, 0.0), width=st.floats(0.1, 12.0), points=st.integers(2, 200),
           eta=st.floats(1e-4, 1.0), maxiter=st.integers(1, 2000))
    def test_free_conv(self, tmp_path_factory, p, scale, n, xmin, width, points, eta, maxiter):
        args = (["free-conv", "--measure", self.spec(p, scale), "--with", n, "--eta", repr(eta),
                 "--maxiter", str(maxiter)] + self.grid(1.0, xmin, width, points))
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))


class TestExtractionFuzz:
    """The subcommands that extract a law's zeros of G or square a huge cutoff."""

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(m=atomic_laws(), sub=st.sampled_from(["nevanlinna", "boundary-map"]))
    def test_exit_codes_and_finite_artifacts(self, tmp_path_factory, m, sub):
        assert_exit_code_and_finite([sub, "--measure", m], tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(m=st.one_of(atomic_laws(), st.sampled_from(["arcsine", "semicircle"])),
           xs=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=4))
    def test_moments_huge_cutoffs(self, tmp_path_factory, m, xs):
        args = ["moments", "--measure", m, "--x-list", ",".join(map(repr, xs))]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))


kernels = st.sampled_from(["cauchy", "gauss", "indicator:-1:1", "indicator:-0.5:3"])


class TestOrbitFuzz:
    """``orbit`` and ``hopf`` on the boundary maps of random atomic laws (1 to
    4 poles, the scalar stepper for few starts, the batched one for many)."""

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(m=atomic_laws(), N=st.integers(1, 300), starts=st.integers(1, 200),
           lo=st.floats(-5.0, 5.0), width=st.floats(1e-3, 10.0), seed=st.integers(0, 99),
           window=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))
    def test_orbit(self, tmp_path_factory, m, N, starts, lo, width, seed, window):
        args = ["orbit", "--measure", m, "--N", str(N), "--starts", str(starts),
                "--start-lo", repr(lo), "--start-hi", repr(lo + width), "--seed", str(seed),
                "--window-lo", repr(min(window)), "--window-hi", repr(max(window))]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(m=atomic_laws(), N=st.integers(1, 300), starts=st.integers(1, 200),
           lo=st.floats(-5.0, 5.0), width=st.floats(1e-3, 10.0), seed=st.integers(0, 99),
           f=kernels, g=kernels)
    def test_hopf(self, tmp_path_factory, m, N, starts, lo, width, seed, f, g):
        args = ["hopf", "--measure", m, "--N", str(N), "--starts", str(starts),
                "--start-lo", repr(lo), "--start-hi", repr(lo + width), "--seed", str(seed),
                "--f", f, "--g", g]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))


class TestMapCheckFuzz:
    """``preserve-check`` and ``conservativity`` on random atomic laws and the
    lattice-tail example, and the two worked examples at random sizes."""

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(m=st.one_of(atomic_laws(), st.integers(10, 50).map("ex310b:{}".format)),
           samples=st.integers(1, 200), scale=st.floats(1e-3, 1e3), seed=st.integers(0, 99))
    def test_preserve_check(self, tmp_path_factory, m, samples, scale, seed):
        args = ["preserve-check", "--measure", m, "--samples", str(samples),
                "--y-scale", repr(scale), "--seed", str(seed)]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(m=st.one_of(atomic_laws(), st.integers(10, 200).map("ex310b:{}".format)),
           N=st.integers(1, 5000))
    def test_conservativity(self, tmp_path_factory, m, N):
        args = ["conservativity", "--measure", m, "--N", str(N)]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 2000),
           ys=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3))
    def test_example_3_5(self, tmp_path_factory, n, ys):
        args = ["example-3-5", "--n", str(n), "--y-list", ",".join(map(repr, ys))]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(K=st.integers(1, 200), N=st.integers(1, 5000))
    def test_example_3_10b(self, tmp_path_factory, K, N):
        args = ["example-3-10b", "--K", str(K), "--N", str(N)]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))


class TestHalfPlaneOrbitFuzz:
    """``aaronson`` and ``conjugacy`` on random atomic laws (1 to 4 poles,
    the scalar half-plane orbit) and on the lattice-tail map."""

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(m=atomic_laws(), N=st.integers(1, 300), re=st.floats(-5.0, 5.0),
           im=st.floats(1e-3, 10.0))
    def test_aaronson(self, tmp_path_factory, m, N, re, im):
        args = ["aaronson", "--measure", m, "--N", str(N), "--z-re", repr(re), "--z-im", repr(im)]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(m=st.one_of(atomic_laws(), st.just("ex310b:50")), n=st.integers(1, 300),
           ys=st.lists(st.floats(10.0, 1e3, exclude_min=True), min_size=1, max_size=3),
           B=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    def test_conjugacy(self, tmp_path_factory, m, n, ys, B):
        args = ["conjugacy", "--measure", m, "--n", str(n),
                "--y-list", ",".join(map(repr, ys)), "--B", repr(B)]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))


class TestNormingFuzz:
    """``norming`` and ``clt-report`` on random atomic laws, at powers up to
    64 and on grids of at most 200 points."""

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(m=atomic_laws(), ns=st.lists(st.integers(1, 64), min_size=1, max_size=3),
           method=st.sampled_from(["auto", "variance", "h-cutoff"]))
    def test_norming(self, tmp_path_factory, m, ns, method):
        args = ["norming", "--measure", m, "--n-list", ",".join(map(str, ns)),
                "--method", method]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(m=atomic_laws(), ns=st.lists(st.integers(1, 64), min_size=1, max_size=3),
           xmin=st.floats(-6.0, 0.0), width=st.floats(0.1, 6.0), points=st.integers(2, 200),
           eta=st.floats(1e-3, 1.0), ks=st.sampled_from(["yes", "no"]))
    def test_clt_report(self, tmp_path_factory, m, ns, xmin, width, points, eta, ks):
        args = ["clt-report", "--measure", m, "--n-list", ",".join(map(str, ns)),
                "--xmin", repr(xmin), "--xmax", repr(xmin + width),
                "--h", repr(width / (points - 1)), "--eta", repr(eta), "--with-ks", ks]
        assert_exit_code_and_finite(args, tmp_path_factory.mktemp("fuzz"))


def test_repeated_runs_match_fresh_runs(tmp_path):
    # one parser serves every call: each run's artifacts equal those of a
    # run on a freshly built parser, whatever ran before it
    runs = [["hopf", "--measure", "boole", "--N", "3000", "--starts", "3", "--f", "gauss",
             "--g", "cauchy"],
            ["orbit", "--measure", "bern01", "--N", "500", "--start-lo=-1e-05"],
            ["hopf", "--measure", "bern01", "--N", "2000", "--seed", "4", "--format", "json"],
            ["orbit", "--measure", "boole", "--N", "800", "--window-lo", "0"],
            ["hopf", "--measure", "boole", "--N", "3000", "--starts", "3"]]
    for i, args in enumerate(runs):
        assert run_cli(args, tmp_path, f"in-process-{i}")[0] == 0
    for i, args in enumerate(runs):
        cli._parser.cache_clear()
        assert run_cli(args, tmp_path, f"fresh-{i}")[0] == 0
        outdir, ours = tmp_path / f"fresh-{i}", tmp_path / f"in-process-{i}"
        names = sorted(p.name for p in outdir.iterdir() if "manifest" not in p.name)
        assert names == sorted(p.name for p in ours.iterdir() if "manifest" not in p.name)
        for name in names:
            assert (ours / name).read_bytes() == (outdir / name).read_bytes()
        manifests = [json.loads(next(d.glob("*-manifest.json")).read_text())
                     for d in (ours, outdir)]
        for man in manifests:
            del man["wall_time_s"], man["config"]["outdir"]
        assert manifests[0] == manifests[1]


def test_moments_huge_cutoff_writes_no_nan(tmp_path):
    # x*x overflows: L used to read inf at 1e154 and nan from 1e155 on
    law = '{"type": "atomic", "atoms": [[-2, 0.25], [1, 0.75]]}'
    code, outdir = run_cli(["moments", "--measure", law, "--x-list", "1e154,1e200"], tmp_path)
    assert code == 0
    text = next(outdir.glob("moments-*.csv")).read_text()
    assert "nan" not in text and "inf" not in text
    ls = [float(v) for q, v in (row.split(",") for row in text.splitlines()[2:]) if q[:2] == "L("]
    assert ls == [1.75, 1.75]


def assert_exit_code_and_finite(args, tmp_path):
    """Exit 0, 2 or 3 with no traceback; no artifact on an error, and no NaN
    or inf in any artifact on success."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, outdir = run_cli(args, tmp_path)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert not outdir.exists()
        return
    for path in outdir.iterdir():
        text = path.read_text().lower()
        assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("sub", ["invert", "free-conv"])
def test_negative_values_with_exponent(sub, tmp_path):
    # argparse alone reads "-1e-05" as an unknown option and exits 2
    args = [sub, "--measure", "boole", "--xmin", "-1e-05", "--xmax", "1e-05", "--h", "1e-06"]
    code, outdir = run_cli(args + ["--with", "boole"] * (sub == "free-conv"), tmp_path)
    assert code == 0
    man = json.loads(next(outdir.glob("*-manifest.json")).read_text())
    assert man["config"]["xmin"] == -1e-05
    rows = np.loadtxt(next(outdir.glob(f"{sub}-*.csv")), delimiter=",", skiprows=2)
    assert rows.shape == (21, 2) and rows[0, 0] == -1e-05


@pytest.mark.parametrize("sub", ["nevanlinna", "boundary-map"])
def test_zero_within_an_ulp_of_an_atom_exits_3(sub, tmp_path):
    # extraction raises instead of halving its probe forever
    law = '{"type": "atomic", "atoms": [[0, 1.0], [1, 1e-18]]}'
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, outdir = run_cli([sub, "--measure", law], tmp_path)
    assert code == 3 and "within an ulp" in err.getvalue()
    assert not outdir.exists()


def test_json_format(tmp_path):
    code, outdir = run_cli(["moments", "--measure", "bern01", "--format", "json"], tmp_path)
    assert code == 0
    arts = [f for f in outdir.glob("moments-*.json") if "manifest" not in f.name]
    doc = json.loads(arts[0].read_text())
    assert doc["schema_version"] == 1
    mean_row = [r for r in doc["rows"] if r["quantity"] == "mean"][0]
    assert mean_row["value"] == 0.5


def test_named_measure_ex310b(tmp_path):
    code, outdir = run_cli(["example-3-10b", "--K", "50", "--N", "100"], tmp_path)
    assert code == 0
    text = next(outdir.glob("example-3-10b-*.csv")).read_text()
    assert "mass_defect" in text and "sigma_mean" in text


def test_non_finite_orbit_start_exits_2(tmp_path, capsys):
    for sub in ("orbit", "hopf"):
        code, outdir = run_cli([sub, "--measure", "boole", "--N", "100",
                                "--start-lo", "nan"], tmp_path, sub)
        assert code == 2
        assert not outdir.exists()
        # finite bounds whose window width overflows
        code, outdir = run_cli([sub, "--measure", "boole", "--N", "100",
                                "--start-lo=-1e308", "--start-hi=1e308"], tmp_path, sub + "-wide")
        assert code == 2
        assert not outdir.exists()
        assert "ConfigError" in capsys.readouterr().err


def test_underflowing_hopf_denominator_exits_2(tmp_path, capsys):
    # far from the pole the Gauss kernel underflows to 0 on the whole orbit
    code, outdir = run_cli(["hopf", "--measure", "boole", "--N", "1000",
                            "--start-lo", "1e6", "--start-hi", "2e6"], tmp_path)
    assert code == 2
    assert not outdir.exists()
    assert "DomainError" in capsys.readouterr().err


def test_preimage_residual_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a residual tolerance below 0 fails every root
    monkeypatch.setattr(eg, "eval_dT", lambda T, x: np.full(np.shape(x), -1e300))
    code, outdir = run_cli(["preserve-check", "--measure", "boole", "--samples", "3"], tmp_path)
    assert code == 3
    assert not outdir.exists()
    assert "NonConvergence" in capsys.readouterr().err


def test_clt_report_keeps_the_n_list_order(tmp_path):
    # norming constants are looked up by n, not bisected in a sorted list
    rows = {}
    for order in ("32,5", "5,32"):
        code, outdir = run_cli(["clt-report", "--measure", "bern01", "--n-list", order,
                                "--with-ks", "no"], tmp_path, order)
        assert code == 0
        rows[order] = next(outdir.glob("clt-report-*.csv")).read_text().splitlines()[2:]
        assert [row.split(",")[0] for row in rows[order]] == order.split(",")
    assert rows["32,5"] == rows["5,32"][::-1]


def test_reordered_classical_merge_exits_3(tmp_path, capsys):
    # the 265-fold classical power of this skewed law, a hair off the
    # lattice Z, merges atoms of subnormal mass out of order
    law = json.dumps({"type": "atomic", "atoms": [
        [-2.0, 0.3235686273437737], [-1.0, 0.39653599468449835],
        [0.0, 0.22711375043952328], [2.000000000000001, 0.0527816275322048]]})
    code, outdir = run_cli(["clt-report", "--measure", law, "--n-list", "265",
                            "--with-ks", "no"], tmp_path)
    assert code == 3
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert "NumericBreakdown" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["aaronson", "--z-im", "nan"],
    ["aaronson", "--z-re", "nan"],
    ["aaronson", "--z-im", "inf"],
    ["conjugacy", "--y-list", "inf"],
    ["conjugacy", "--y-list", "10.5,1e200"],       # y^2 overflows
])
def test_non_finite_map_step_start_exits_2(args, tmp_path, capsys):
    code, outdir = run_cli(args + ["--N" if args[0] == "aaronson" else "--n", "20"], tmp_path)
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err
    # z and each y must be finite config values; a finite y whose square
    # overflows reaches the library
    want = "DomainError" if "1e200" in args[-1] else f"config error [{args[0]}]"
    assert want in err and "Traceback" not in err


@pytest.mark.parametrize("B", ["inf", "nan", "-1"])
def test_invalid_conjugacy_B_exits_2(B, tmp_path, capsys):
    # B must be finite and >= 0, where 0 picks the constant automatically
    code, outdir = run_cli(["conjugacy", "--n", "20", "--B", B], tmp_path)
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert "config error [conjugacy]" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("sub, field", [
    *((sub, field) for sub in ("invert", "clt-report", "free-conv")
      for field in ("xmin", "xmax", "h", "eta")),
    ("preserve-check", "y-scale"), ("aaronson", "z-im")])
def test_non_finite_float_field_exits_2(sub, field, value, tmp_path, capsys):
    # an infinite grid end overflowed the point count (exit 1); an infinite
    # spacing, offset or scale passed as positive
    code, outdir = run_cli([sub, f"--{field}", value], tmp_path)
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert f"config error [{sub}]" in err and "Traceback" not in err


@pytest.mark.parametrize("method", ["variance", "h-cutoff"])
def test_ex310b_norming_is_the_sigma_criterion(method, tmp_path, capsys):
    # the law is given by its transform: it has no variance or H to norm by
    code, outdir = run_cli(["norming", "--measure", "ex310b:50", "--method", method],
                           tmp_path)
    assert code == 2
    assert not outdir.exists()
    assert "ValueError" in capsys.readouterr().err
    code, outdir = run_cli(["norming", "--measure", "ex310b:50"], tmp_path, "auto")
    assert code == 0
    assert "(sigma-criterion)" in capsys.readouterr().out


@pytest.mark.parametrize("kernel", ["indicator:nan:1", "indicator:0:inf", "indicator:-inf:0"])
def test_unbounded_hopf_window_exits_2(kernel, tmp_path, capsys):
    for field in ("f", "g"):
        code, outdir = run_cli(["hopf", "--N", "100", f"--{field}", kernel], tmp_path, field)
        assert code == 2
        assert not outdir.exists()
        err = capsys.readouterr().err
        assert "bounded and nondegenerate" in err and "Traceback" not in err


# a field that is not a JSON number, a bool or a list of [x, w] pairs
MISTYPED_MEASURES = [
    '{"type": "atomic", "atoms": 5}',
    '{"type": "ref", "law": "normal", "scale": "2"}',
    '{"type": "ref", "law": "powertail", "exponent": "3"}',
    '{"type": "grid", "x0": "a", "h": 1, "values": [1, 2]}',
    '{"type": "atomic", "atoms": [[0, 1]], "finite": "yes"}',
]


@pytest.mark.parametrize("args, config", [
    # a kernel token without two numeric bounds ended in an IndexError
    (["hopf", "--f", "indicator"], None),
    (["hopf", "--g", "indicator:0"], None),
    (["hopf", "--f", "indicator:a:1"], None),
    (["hopf", "--f", "indicator:0:1:2"], None),
    # int(inf) ended in an OverflowError, and a bool passed as 1
    (["orbit"], '{"N": Infinity}'),
    (["orbit"], '{"seed": -Infinity}'),
    (["orbit"], '{"starts": true}'),
    (["norming"], '{"n-list": [Infinity]}'),
    # an empty list wrote an empty table and exited 0
    (["moments"], '{"x-list": []}'),
    (["norming"], '{"n-list": []}'),
    (["conjugacy"], '{"y-list": []}'),
    (["example-3-5"], '{"y-list": []}'),
    # an int field truncated a float; an unknown method or kernel passed config
    (["aaronson"], '{"N": 2.5}'),
    (["norming", "--method", "bogus"], None),
    (["hopf", "--f", "foo"], None),
    (["hopf", "--g", "cauchy:0:1"], None),
    # a non-finite window, point or kernel bound passed config
    (["orbit", "--window-lo", "nan"], None),
    (["aaronson", "--z-re", "inf"], None),
    (["conjugacy", "--y-list", "10.5,nan"], None),
    (["hopf", "--f", "indicator:0:inf"], None),
    # a measure spec was parsed only when the subcommand ran: a mistyped JSON
    # field ended in a TypeError, and "finite": "yes" read as finite
    *((["moments", "--measure", m], None) for m in MISTYPED_MEASURES),
    # a bad token or K, an unreadable file, JSON that is not a measure
    *(([sub, "--measure", m], None)
      for m in ("ex310b:5", "ex310b:abc", "ex310b:", "ex310b:050", "@/nonexistent", "[]")
      for sub in ("moments", "conservativity", "hopf")),
    (["free-conv", "--with", "ex310b:5"], None),
    # the wrong kind of law for the subcommand
    (["free-conv", "--with", "ex310b"], None),
    (["free-conv", "--measure", "ex310b:20"], None),
    (["nevanlinna", "--measure", "arcsine"], None),
    (["nevanlinna", "--measure", "ex310b"], None),
    *(([sub, "--measure", "powertail3"], None)
      for sub in ("boundary-map", "orbit", "preserve-check", "hopf")),
    # a truncation above the cap of 10**6 ended in numpy's _ArrayMemoryError
    *(([sub, "--measure", m], None)
      for m in ("ex310b:1000001", "ex310b:1000000000000") for sub in ("moments", "orbit")),
    *((["example-3-10b", "--K", K], None) for K in ("5", "1000001", "1000000000000")),
    (["example-3-10b"], '{"K": 1000000000000}'),
])
def test_malformed_config_value_exits_2(args, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        args = args + ["--config", str(path)]
    code, outdir = run_cli(args, tmp_path)
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert f"config error [{args[0]}]" in err and "Traceback" not in err


@pytest.mark.parametrize("measure", [
    '{"type": "grid", "x0": 0, "h": 0.1, "values": [NaN, 1, 1]}',
    '{"type": "grid", "x0": 0, "h": Infinity, "values": [1, 1]}',
    '{"type": "ref", "law": "arcsine", "scale": NaN}',
    '{"type": "ref", "law": "powertail", "exponent": Infinity}',
])
def test_non_finite_measure_field_exits_2(measure, tmp_path, capsys):
    code, outdir = run_cli(["moments", "--measure", measure], tmp_path)
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err


def test_overflowing_measure_field_exits_3(tmp_path, capsys):
    # the normal law's second moment scale^2 overflows
    code, outdir = run_cli(["moments", "--measure",
                            '{"type": "ref", "law": "normal", "scale": 1e200}'], tmp_path)
    assert code == 3
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert "NumericBreakdown" in err and "Traceback" not in err


def test_overflowing_atomic_moments_exit_3(tmp_path, capsys):
    # the atoms' squares overflow: m2 used to read inf (a divergent second
    # moment) with exit 0
    law = '{"type": "atomic", "atoms": [[-1e200, 0.5], [1e200, 0.5]]}'
    for sub in ("moments", "norming"):
        code, outdir = run_cli([sub, "--measure", law], tmp_path, sub)
        assert code == 3
        assert not outdir.exists()
        err = capsys.readouterr().err
        assert "NumericBreakdown" in err and "Traceback" not in err


def test_underflowing_aaronson_terms_exit_2(tmp_path, capsys):
    # from 1e308 + 1j the first term Im(-1/w) is below the subnormals
    code, outdir = run_cli(["aaronson", "--z-re", "1e308", "--N", "5"], tmp_path)
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert "DomainError" in err and "Traceback" not in err


def test_preserve_check_huge_targets_end(tmp_path, capsys):
    # inner preimages of |y| ~ 1e15 sit within POLE_TOL of a pole
    code, outdir = run_cli(["preserve-check", "--measure", "ex310b", "--y-scale", "1e15",
                            "--samples", "3"], tmp_path)
    assert code in (0, 3)
    assert outdir.exists() == (code == 0)
    assert "Traceback" not in capsys.readouterr().err


def test_seed_only_where_numbers_are_drawn(tmp_path):
    assert {sub for sub, (spec, _fn) in cli._SUBCOMMANDS.items() if "seed" in spec} == {
        "orbit", "hopf", "preserve-check"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    code, outdir = run_cli(["moments", "--config", str(cfg)], tmp_path)
    assert code == 2 and not outdir.exists()


def _schema_cases():
    """Every field but ``outdir`` of every subcommand, at each hostile
    ``--config`` value; an int field (by its default) also at 2.5, and a
    numeric field also at its argv forms.  ``K`` is a field of
    ``example-3-10b`` only: every other subcommand refuses it at the same
    values, as an unknown field or option."""
    hostile = ["Infinity", "-Infinity", "NaN", '"abc"', "[]", "{}", "null"]
    for sub, (spec, _fn) in cli._SUBCOMMANDS.items():
        defaults = {"K": 1000} | {field: default for field, (_c, default, _h) in spec.items()}
        for field, default in defaults.items():
            if field == "outdir":
                continue
            listed = isinstance(default, list)
            kind = type(default[0] if listed else default)
            ints = ["[2.5]" if listed else "2.5"] if kind is int else []
            yield from ((sub, field, "config", v) for v in hostile + ints)
            if kind in (int, float):
                yield from ((sub, field, "argv", v) for v in ["inf", "-inf", "nan", "abc"]
                            + ["2.5"] * (kind is int))


@pytest.mark.parametrize("sub, field, how, value", list(_schema_cases()))
def test_schema_rejects_malformed_values(sub, field, how, value, tmp_path, capsys):
    if how == "config":
        (tmp_path / "cfg.json").write_text(f'{{"{field}": {value}}}')
        args = [sub, "--config", str(tmp_path / "cfg.json")]
    else:
        args = [sub, f"--{field}", value]
    try:
        code, outdir = run_cli(args, tmp_path)
    except SystemExit as exc:     # argparse refuses an option the subcommand lacks
        code, outdir = exc.code, tmp_path / "arts"
    assert code == 2
    assert not outdir.exists()
    assert "Traceback" not in capsys.readouterr().err
