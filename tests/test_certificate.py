"""Certificate document format."""
from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

import ggs
from ggs import CODE_VERSION, Certificate, SCHEMA


def _sample() -> Certificate:
    cert = Certificate(
        claim="demo",
        statement="a demonstration",
        params={"p": 3, "e": [1, 2], "n": 2},
        verdict="",
        exhaustive=False,
    )
    cert.check("first", True, "fine")
    cert.check("second", True, "also fine")
    cert.witnesses["w"] = ["3,2:0,1,2,0"]
    cert.notes.append("a note")
    cert.verdict = "verified"
    return cert


def test_schema_and_version():
    cert = _sample()
    doc = cert.canonical_dict()
    assert doc["schema"] == SCHEMA == "ggs-certificate/v1"
    assert doc["code_version"] == CODE_VERSION


def test_default_containers_are_fresh_per_certificate():
    one = Certificate(claim="a", statement="", params={}, verdict="", exhaustive=False)
    two = Certificate(claim="b", statement="", params={}, verdict="", exhaustive=False)
    one.check("x", True)
    one.witnesses["w"] = []
    one.notes.append("n")
    assert (two.checks, two.witnesses, two.notes) == ([], {}, [])
    assert (two.element_count, two.code_version, two.wall_time) == (None, CODE_VERSION, 0.0)


def test_check_recorder_returns_outcome():
    cert = _sample()
    assert cert.check("good", True, "") is True
    assert cert.check("bad", False, "") is False
    assert [c.name for c in cert.checks][-2:] == ["good", "bad"]
    assert cert.checks[-1].passed is False


def test_verdict_properties():
    cert = _sample()
    assert cert.verified and not cert.refuted and not cert.skipped
    cert.verdict = "refuted"
    assert cert.refuted
    cert.verdict = "skipped: scale"
    assert cert.skipped


def test_canonical_json_sorted_and_stable():
    doc = json.loads(_sample().canonical_json())
    assert list(doc) == sorted(doc)
    assert _sample().canonical_json() == _sample().canonical_json()


def test_wall_time_excluded():
    one, two = _sample(), _sample()
    one.wall_time = 1.0
    two.wall_time = 99.9
    assert one.canonical_json() == two.canonical_json()
    assert "wall_time" not in json.loads(one.canonical_json())


def test_from_dict_roundtrip():
    cert = _sample()
    doc = json.loads(cert.canonical_json())
    back = Certificate.from_dict(doc)
    assert back.canonical_json() == cert.canonical_json()
    assert back.claim == "demo"
    assert back.checks[0].name == "first"
    assert back.witnesses == cert.witnesses


def test_package_version_is_read_from_the_code():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] support is marked beta
        config = pyprojecttoml.read_configuration(str(path))
    assert config["project"]["version"] == ggs.__version__ == CODE_VERSION
