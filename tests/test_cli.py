"""Command-line front end: formats, determinism, exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "bessel4.cli", *args],
                          capture_output=True, text=True, env=env)


def test_eval_csv_contract():
    r = run_cli("eval", "--M", "1", "--lam", "1", "--grid", "0.1:10:50:log")
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "x,J,Y,I,K"
    assert len(lines) == 51
    row = lines[1].split(",")
    assert len(row) == 5
    assert float(row[0]) == pytest.approx(0.1)


def test_eval_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = run_cli("eval", "--grid", "0.5:5:7:linear", "--out", str(a))
    r2 = run_cli("eval", "--grid", "0.5:5:7:linear", "--out", str(b))
    assert r1.returncode == r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_rejects_nonpositive_grid():
    r = run_cli("eval", "--grid", "0:1:5:linear")
    assert r.returncode == 2
    assert "error" in r.stderr


def test_tol_is_a_usage_error_where_nothing_reads_it():
    # only inverse and pde-residual take a tolerance
    r = run_cli("eval", "--tol", "1e-3")
    assert r.returncode == 2


def test_series_json_reports_roots():
    r = run_cli("series", "--order", "6", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["meta"]["indicial_roots"] == "6 4 2 0 -2 -4"
    r = run_cli("series", "--order", "4", "--format", "json")
    payload = json.loads(r.stdout)
    assert payload["meta"]["indicial_roots"] == "4 2 0 -2"
    roots = {row[0] for row in payload["rows"]}
    assert roots == {4, 2, 0, -2}


def test_spectrum_alpha_never_zero():
    r = run_cli("spectrum", "--M", "1", "--grid=-15:-0.001:8:log")
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines()
             if l and not l.startswith(("#", "mu"))]
    assert len(lines) == 8
    for line in lines:
        mu, alpha, beta = map(float, line.split(","))
        assert mu < 0 and abs(alpha) > 1e-6


def test_pde_residual_table():
    r = run_cli("pde-residual", "--grid", "0.2:5:10:linear", "--thetas", "8",
                "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert len(payload["rows"]) == 80
    assert float(payload["meta"]["max_residual"]) < 1e-5


def test_outdir_env_variable(tmp_path):
    r = run_cli("eval", "--grid", "1:2:2:linear",
                env_extra={"BESSEL4_OUTDIR": str(tmp_path)})
    assert r.returncode == 0
    assert (tmp_path / "eval.csv").exists()


def test_unknown_fixture_is_usage_error():
    r = run_cli("transform", "--function", "nope", "--grid", "0.5:2:3:linear")
    assert r.returncode == 2


def test_grid_parser_validation():
    from bessel4.cli import parse_grid
    with pytest.raises(ValueError):
        parse_grid("1:2:3")
    with pytest.raises(ValueError):
        parse_grid("-1:2:3:log")
    with pytest.raises(ValueError):
        parse_grid("1:2:0:linear")
    g = parse_grid("-15:-0.001:3:log")
    assert g[0] == pytest.approx(-15.0) and g[-1] == pytest.approx(-0.001)


def test_inverse_command_small():
    r = run_cli("inverse", "--function", "gaussian", "--grid",
                "0.5:1:2:linear", "--format", "json", "--tol", "1e-4")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert float(payload["meta"]["max_abs_defect"]) < 1e-3


def test_csv_quotes_fields_with_commas(tmp_path):
    import argparse
    import csv
    from bessel4.cli import _emit
    out = tmp_path / "rows.csv"
    args = argparse.Namespace(format="csv", out=str(out), command="verify")
    row = ("FR-ROOTS", "orders 4, 6, 8", 0.0, "<=", 0.0, "pass", 0.007)
    _emit(args, ("check_id", "description", "measured", "op", "threshold",
                 "status", "seconds"), [row], {"checks": 1})
    with open(out, newline="") as fh:
        parsed = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert parsed[1] == ["FR-ROOTS", "orders 4, 6, 8", "0", "<=", "0", "pass",
                         "0.0070000000000000001"]


def test_verify_exits_3_when_an_energy_body_misses_tol(monkeypatch, capsys):
    # FO-POS-T0 and FO-POS-SK raise instead of reading a non-converged
    # energy body into their minimum; the CLI maps that to exit code 3
    import dataclasses

    from bessel4 import cli, quadrature, verify

    def unconverged(*args, **kwargs):
        r = quadrature.adaptive_quad(*args, **kwargs)
        return dataclasses.replace(r, converged=False)

    monkeypatch.setattr(verify, "adaptive_quad", unconverged)
    f = verify._positivity_suite()[0]
    with pytest.raises(quadrature.ConvergenceError) as err:
        verify._energy_body(f)
    assert np.isfinite(err.value.best)
    checks = verify.CHECKS
    for check_id in ("FO-POS-T0", "FO-POS-SK"):
        monkeypatch.setattr(verify, "CHECKS", [c for c in checks
                                               if c.check_id == check_id])
        assert cli.main(["verify"]) == cli.NONCONVERGENCE == 3
        assert "nonconvergence" in capsys.readouterr().err
