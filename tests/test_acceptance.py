"""Acceptance criteria, graded from one ``bessel4 verify`` run.

Each criterion ACCEPT-NN is a set of check IDs of the registry in
``bessel4.verify``, where every check is defined once, plus an optional
time ceiling.  A session fixture runs the CLI's ``verify`` once in a
subprocess; each criterion reads its rows from that JSON and prints one
verdict line in the terminal summary.  A ceiling is asserted against
the sum of the criterion's check seconds, ACCEPT-12's against the wall
time of the whole subprocess.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from conftest import record_acceptance

from bessel4.verify import CHECKS

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# ACCEPT number: (test name, verdict name, check IDs, time ceiling in s)
ACCEPTANCE = {
    1: ("solution_residuals", "solution residuals", ("BT-RESIDUAL",), 5.0),
    2: ("boundary_normalization", "boundary normalization", ("BT-NORM",),
        None),
    3: ("classical_limit", "classical limit", ("BT-CLASSICAL",), None),
    4: ("frobenius", "frobenius structure",
        ("FR-ROOTS", "FR-Y4", "FR-Y4-LEAD"), None),
    5: ("boundary_form_identities", "boundary forms",
        ("FO-SYMPL16", "FO-LIMIT-BC", "FO-GREEN", "FO-DIRICHLET"), None),
    6: ("positivity", "positivity", ("FO-POS-T0", "FO-POS-SK"), 10.0),
    7: ("eigenvalue_extension_map", "eigenvalue-extension map",
        ("SP-EXT", "SP-EXT-BC"), 30.0),
    8: ("generalized_transform_suite", "generalized transform",
        ("TR-PARSEVAL", "TR-MOMENT", "TR-ROUNDTRIP"), 180.0),
    9: ("vanishing_moment_and_mass", "vanishing moment",
        ("TR-VANISH", "MQ-N-MASS"), None),
    10: ("delta_families", "delta families",
         ("TR-DELTA-CL", "TR-DELTA-GEN", "TR-M-LIMIT"), None),
    11: ("plum_separation", "planar separation", ("PL-SEP", "PL-CRIT"), None),
    12: ("kernel_suite_and_cli_verify", "kernel quality and verify",
         ("CB-WRONSKIAN", "CB-K-DECAY"), 300.0),
}

# Checks that `bessel4 verify` runs and no criterion names.
VERIFY_ONLY = {"CB-ODE", "BT-BASIS", "BT-K-DECAY", "FR-LOG", "FR-INDEP",
               "FR-FIT", "MQ-QUAD", "MQ-OSC", "MQ-MK", "FO-LIMIT-PAIR",
               "FO-GREEN-CONST", "SP-SK-SCAN", "SP-OSC"}


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "verify.json"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "bessel4.cli", "verify", "--format", "json",
         "--out", str(out)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    wall = time.monotonic() - t0
    payload = json.loads(out.read_text()) if out.exists() else {}
    cols = payload.get("columns", [])
    return {"rc": proc.returncode, "wall": wall,
            "meta": payload.get("meta", {}),
            "rows": {r[0]: dict(zip(cols, r)) for r in payload.get("rows", [])}}


def _verdict(num, run):
    _, name, ids, ceiling = ACCEPTANCE[num]
    rows = [run["rows"].get(i) for i in ids]
    ok = all(r is not None and r["status"] == "pass" for r in rows)
    detail = [f"{i} missing" if r is None else
              f"{i} {r['measured']:.1e} {r['op']} {r['threshold']:g}"
              for i, r in zip(ids, rows)]
    if num == 12:
        elapsed = run["wall"]
        ok &= run["rc"] == 0 and run["meta"].get("all_passed") is True
        detail.append(f"verify rc={run['rc']} with "
                      f"{run['meta'].get('checks', '?')} checks")
    else:
        elapsed = sum(r["seconds"] for r in rows if r is not None)
    if ceiling is not None:
        ok &= elapsed < ceiling
        detail.append(f"{elapsed:.1f}s < {ceiling:g}s")
    line = (f"ACCEPT-{num:02d} {name}: {'PASS' if ok else 'FAIL'} "
            f"({'; '.join(detail)})")
    record_acceptance(line)
    print(line)
    assert ok, line


def _criterion(num):
    def test(verify_run):
        _verdict(num, verify_run)
    return test


# One test per criterion, under the names the criteria have always had.
globals().update({f"test_acceptance_{num:02d}_{row[0]}": _criterion(num)
                  for num, row in ACCEPTANCE.items()})


def test_registry_covers_every_criterion():
    ids = [c.check_id for c in CHECKS]
    assert len(ids) == len(set(ids))
    named = {i for row in ACCEPTANCE.values() for i in row[2]}
    assert named <= set(ids)
    assert set(ids) - named == VERIFY_ONLY


def test_failing_row_prints_fail_and_asserts(monkeypatch):
    lines = []
    monkeypatch.setattr(sys.modules[__name__], "record_acceptance",
                        lines.append)
    row = {"measured": 2e-6, "op": "<=", "threshold": 1e-6, "status": "FAIL",
           "seconds": 0.5}
    run = {"rc": 1, "wall": 1.0, "meta": {}, "rows": {"BT-RESIDUAL": row}}
    with pytest.raises(AssertionError):
        _verdict(1, run)
    assert lines == ["ACCEPT-01 solution residuals: FAIL (BT-RESIDUAL 2.0e-06 "
                     "<= 1e-06; 0.5s < 5s)"]
