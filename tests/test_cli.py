"""Tests for the command-line front end: artifacts, determinism, exit codes."""

import json

import pytest

from monoclt import cli


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
