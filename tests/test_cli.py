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


@pytest.mark.parametrize("args", [
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
])
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
        # "--xmin=-1e-05": argparse reads a separate "-1e-05" as an option
        args = ["free-conv", "--measure", m, "--with", n, f"--xmin={xmin!r}",
                f"--xmax={xmin + width!r}", f"--h={width / (points - 1)!r}",
                f"--eta={eta!r}", f"--maxiter={maxiter}"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, outdir = run_cli(args, tmp_path_factory.mktemp("fuzz"))
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code:
            assert not outdir.exists()
            return
        for path in outdir.iterdir():
            text = path.read_text().lower()
            assert "nan" not in text and "inf" not in text


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


def test_reordered_classical_merge_exits_3(tmp_path, capsys):
    # the 265-fold classical power of this skewed law merges atoms of
    # subnormal mass out of order
    law = json.dumps({"type": "atomic", "atoms": [
        [-2.0, 0.3235686273437737], [-1.0, 0.39653599468449835],
        [0.0, 0.22711375043952328], [2.0, 0.0527816275322048]]})
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
    assert "DomainError" in err and "Traceback" not in err


def test_non_finite_conjugacy_trace_exits_3(tmp_path, capsys):
    code, outdir = run_cli(["conjugacy", "--n", "20", "--B", "inf"], tmp_path)
    assert code == 3
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert "NumericBreakdown" in err and "Traceback" not in err


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
