"""Stage metrics: the counts a run reports per stage, kept beside its
certificate and out of the certificate's bytes."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ggs import DefiningVector, verify_claim
from ggs import metrics

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def test_enumeration_stage_counts_what_the_tracer_counts(monkeypatch, e10):
    # collision-e10-n3: the enumeration stage reports the 59,049 elements the
    # benchmark's tracer counts for the same run, and the certificate keeps
    # the golden bytes.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    try:
        cert = verify_claim("prop-collision", e10, 3)
    finally:
        tr.uninstall()
    enumerated = [s["elements"] for s in cert.metrics if s["stage"] == "enumeration"]
    assert enumerated == [tr.count("quotient.enumerate", "elements")] == [3**10]
    (scan,) = [s for s in cert.metrics if s["stage"] == "collision scan"]
    assert (scan["elements"], scan["offenders"]) == (4 * 3**8, 0)
    assert all(s["s"] >= 0 for s in cert.metrics)
    assert "metrics" not in cert.canonical_dict()
    assert cert.canonical_json() == (GOLDEN / "prop-collision__p3_e1_0__n3.json").read_text()


def test_each_claim_collects_its_own_stages():
    # Stages are kept by the innermost open collect(); sigma sets and the
    # exponent check report their counts.
    cert = verify_claim("thm-G2", DefiningVector(5, (2, 3, 2, 3)), 2)
    names = [s["stage"] for s in cert.metrics]
    assert names == ["enumeration", "exponent check", "sigma set", "sigma set"]
    assert cert.metrics[1]["offenders"] == 0
    assert [s["members"] for s in cert.metrics[2:]] == [1021, 1501]
    stages = verify_claim("prop-collision", DefiningVector(3, (1, 0)), 2).metrics
    assert [s["stage"] for s in stages] == ["enumeration", "collision scan"]
    with metrics.collect() as outer:
        with metrics.stage("outer", items=1):
            with metrics.collect() as inner:
                with metrics.stage("inner") as counts:
                    counts["items"] = 2
    assert [(s["stage"], s["items"]) for s in outer] == [("outer", 1)]
    assert [(s["stage"], s["items"]) for s in inner] == [("inner", 2)]


def test_a_stage_left_by_an_exception_records_nothing():
    with metrics.collect() as records:
        with pytest.raises(ValueError):
            with metrics.stage("refused"):
                raise ValueError("budget")
    assert records == []


def test_cli_writes_metrics_and_logs_stages(tmp_path):
    out = tmp_path / "m.json"
    args = ["verify", "prop-collision", "--p", "3", "--e", "1,0", "--level", "3"]
    res = subprocess.run(
        [sys.executable, "-m", "ggs", *args, "-v", "--metrics", str(out), "--format", "structured"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == (GOLDEN / "prop-collision__p3_e1_0__n3.json").read_text()
    stages = json.loads(out.read_text())
    assert [s["elements"] for s in stages if s["stage"] == "enumeration"] == [59049]
    assert "ggs: stage enumeration: " in res.stderr and " elements=59049" in res.stderr
    assert "ggs: stage collision scan: " in res.stderr


def test_without_verbose_nothing_loads_logging():
    # The stage instrument costs a run that logs nothing no import.
    code = (
        "import sys; from ggs.cli import main; "
        "main(['verify', 'prop-collision', '--p', '3', '--e', '1,0', '--level', '2']); "
        "print('logging' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"
    assert "ggs: stage" not in res.stderr
