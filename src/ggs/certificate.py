"""Verification certificates with a canonical serialized form.

A certificate records one claim checked at concrete parameters: verdict,
witnesses in canonical portrait encoding, whether the check was
exhaustive, and the individual sub-checks.  Serialization is canonical
JSON (sorted keys, fixed separators); the wall-clock time is kept on the
object for reporting but excluded from the canonical form so that reruns
and cache hits produce byte-identical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["SCHEMA", "Check", "Certificate"]

SCHEMA = "ggs-certificate/v1"
CODE_VERSION = "0.2.0"

VERDICT_VERIFIED = "verified"
VERDICT_REFUTED = "refuted"


@dataclass
class Check:
    """One named sub-check inside a certificate."""

    name: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class Certificate:
    claim: str
    statement: str
    params: dict
    verdict: str
    exhaustive: bool
    element_count: int | None = None
    witnesses: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    code_version: str = CODE_VERSION
    wall_time: float = 0.0

    @property
    def verified(self) -> bool:
        return self.verdict == VERDICT_VERIFIED

    @property
    def refuted(self) -> bool:
        return self.verdict == VERDICT_REFUTED

    @property
    def skipped(self) -> bool:
        return self.verdict.startswith("skipped")

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        """Record a sub-check and return its outcome."""
        self.checks.append(Check(name, passed, detail))
        return passed

    def canonical_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "claim": self.claim,
            "statement": self.statement,
            "params": self.params,
            "verdict": self.verdict,
            "exhaustive": self.exhaustive,
            "element_count": self.element_count,
            "witnesses": self.witnesses,
            "checks": [c.as_dict() for c in self.checks],
            "notes": self.notes,
            "code_version": self.code_version,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "Certificate":
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"unsupported certificate schema {doc.get('schema')!r}")
        cert = cls(
            claim=doc["claim"],
            statement=doc["statement"],
            params=doc["params"],
            verdict=doc["verdict"],
            exhaustive=doc["exhaustive"],
            element_count=doc.get("element_count"),
            witnesses=doc.get("witnesses", {}),
            notes=list(doc.get("notes", [])),
            code_version=doc.get("code_version", ""),
        )
        cert.checks = [
            Check(c["name"], c["passed"], c.get("detail", ""))
            for c in doc.get("checks", [])
        ]
        return cert
