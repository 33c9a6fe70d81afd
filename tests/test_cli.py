"""End-to-end tests of the command line interface."""
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from voxstokes import cli
from voxstokes.cli import main, read_csv_rows


def run_cli(argv):
    return main(list(argv))


@pytest.fixture()
def small_geom(tmp_path):
    path = tmp_path / "g.vox"
    rc = run_cli(
        ["gen", "--N", "1", "--nc", "10", "--navg", "4", "--nmin", "2",
         "--seed", "7", "-o", str(path)]
    )
    assert rc == 0
    return path


def test_gen_stats_full_scale(tmp_path, capsys):
    geom = tmp_path / "g.vox"
    rc = run_cli(
        ["gen", "--N", "7", "--nc", "50", "--navg", "4", "--nmin", "2",
         "--seed", "42", "-o", str(geom)]
    )
    assert rc == 0
    capsys.readouterr()
    rc = run_cli(["stats", str(geom)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["porosity_pct"] == pytest.approx(15.36, abs=1e-12)
    assert data["n_components"] == 1
    assert set(data) == {
        "v_fluid", "v_surf", "porosity_pct", "stv_pct", "n_components",
    }


def test_solve_writes_reports(small_geom, tmp_path, capsys):
    base = tmp_path / "rep"
    rc = run_cli(
        ["solve", str(small_geom), "--prec", "simple", "--profile", "paper2d",
         "-o", str(base)]
    )
    assert rc == 0
    stdout = json.loads(capsys.readouterr().out)
    assert stdout["converged"] is True
    on_disk = json.loads((tmp_path / "rep.json").read_text())
    assert on_disk["k_value"] == stdout["k_value"]
    lines = (tmp_path / "rep.csv").read_text().strip().split("\n")
    assert lines[0] == "iter,res_prec,res_unprec,k,e_k"
    assert len(lines) == stdout["iters_outer"] + 2


def test_solve_csv_reruns_byte_identical(small_geom, tmp_path, capsys):
    for name in ("a", "b"):
        rc = run_cli(
            ["solve", str(small_geom), "--prec", "uzawa",
             "--eps-s", "1e-3", "--norm", "unprec", "--eps-a", "1e-13",
             "-o", str(tmp_path / name)]
        )
        assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_spectrum_cli(small_geom, tmp_path, capsys):
    base = tmp_path / "spec"
    rc = run_cli(["spectrum", str(small_geom), "-o", str(base)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_zero"] == 1
    rows = read_csv_rows(tmp_path / "spec.csv")
    assert len(rows) == data["m_p"]
    assert float(rows[-1]["eigenvalue"]) == pytest.approx(data["lambda_max"])


def test_spectrum_over_cap(small_geom, capsys):
    rc = run_cli(["spectrum", str(small_geom), "--cap", "5"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: dense cap exceeded")
    assert "\n" not in err


def test_nev_check_cli(tmp_path, capsys):
    out = tmp_path / "nev.csv"
    rc = run_cli(
        ["nev-check", "--N", "1", "--nc", "8", "--seeds", "0", "1",
         "-o", str(out)]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "match 2/2" in captured.err
    rows = read_csv_rows(out)
    assert len(rows) == 2
    for row in rows:
        assert row["match"] == "true"
        assert int(row["n_ev_measured"]) == int(row["n_ev_formula"])


def test_missing_file_error(capsys):
    rc = run_cli(["stats", "does-not-exist.vox"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:")
    assert "\n" not in err


def test_invalid_params_error(tmp_path, capsys):
    rc = run_cli(
        ["gen", "--N", "1", "--nc", "10", "--navg", "3", "--nmin", "2",
         "-o", str(tmp_path / "g.vox")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "voxstokes", "stats", "missing.vox"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def sweep_args(out_dir, jobs):
    return [
        "sweep", "--N", "2", "--nc", "10", "--nmin", "2",
        "--navg", "4", "6", "--seed", "3", "--prec", "both",
        "--profile", "paper2d", "--jobs", str(jobs), "-o", str(out_dir),
    ]


def drop_time_column(path):
    rows = read_csv_rows(path)
    for row in rows:
        row.pop("time", None)
    return rows


def test_sweep_outputs(tmp_path, capsys):
    out = tmp_path / "sweep1"
    rc = run_cli(sweep_args(out, jobs=1))
    assert rc == 0
    capsys.readouterr()

    summary = read_csv_rows(out / "summary.csv")
    assert len(summary) == 4
    assert [row["prec"] for row in summary] == ["uzawa", "simple"] * 2
    for row in summary:
        assert row["status"] == "ok"
        assert int(row["iters"]) > 0
        assert float(row["k_final"]) > 0
        assert float(row["e_final"]) >= 0

    thresholds = read_csv_rows(out / "thresholds.csv")
    assert len(thresholds) == 12
    for row in thresholds:
        assert row["norm_kind"] == "unpreconditioned"
        if row["iter"]:
            assert float(row["e_k"]) >= 0

    correlation = read_csv_rows(out / "correlation.csv")
    assert len(correlation) == 2
    for row in correlation:
        assert float(row["cond_S"]) > 1
        assert float(row["cond_precond"]) > 1

    # member artifacts exist
    assert (out / "navg4_uzawa.json").exists()
    assert (out / "navg6_simple.csv").exists()
    assert (out / "navg4_reference.json").exists()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched generator")
def test_sweep_survives_killed_worker(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep"
    finished = out / "navg4_simple.csv"  # the last artifact member 4 writes
    generate = cli.generate_packing

    def generate_or_die(params):
        if params.n_avg == 6:
            deadline = time.monotonic() + 120
            while not finished.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.5)  # let member 4 hand its rows back first
            os._exit(1)
        return generate(params)

    monkeypatch.setattr(cli, "generate_packing", generate_or_die)
    assert run_cli(sweep_args(out, jobs=2)) == 0
    capsys.readouterr()

    summary = read_csv_rows(out / "summary.csv")
    assert [(row["n_avg"], row["prec"]) for row in summary] == [
        ("4", "uzawa"), ("4", "simple"), ("6", "uzawa"), ("6", "simple"),
    ]
    assert [row["status"] for row in summary[:2]] == ["ok", "ok"]
    for row in summary[2:]:
        assert row["status"].startswith("error: ")
        assert "terminated abruptly" in row["status"]
        assert row["iters"] == ""
    assert {row["n_avg"] for row in read_csv_rows(out / "thresholds.csv")} == {"4"}
    correlation = read_csv_rows(out / "correlation.csv")
    assert [row["n_avg"] for row in correlation] == ["4", "6"]
    assert float(correlation[0]["cond_S"]) > 1
    assert correlation[1]["cond_S"] == correlation[1]["stv_pct"] == ""


def test_sweep_deterministic_and_parallel(tmp_path, capsys):
    out1, out2, out3 = (tmp_path / f"s{i}" for i in (1, 2, 3))
    assert run_cli(sweep_args(out1, jobs=1)) == 0
    assert run_cli(sweep_args(out2, jobs=1)) == 0
    assert run_cli(sweep_args(out3, jobs=2)) == 0
    capsys.readouterr()
    for other in (out2, out3):
        assert drop_time_column(out1 / "summary.csv") == drop_time_column(
            other / "summary.csv"
        )
        assert (out1 / "thresholds.csv").read_bytes() == (
            other / "thresholds.csv"
        ).read_bytes()
        assert (out1 / "correlation.csv").read_bytes() == (
            other / "correlation.csv"
        ).read_bytes()
