"""Command-line front end: classify, enumerate, verify, sigma.

Structured output (--format structured) is the canonical JSON document and
is the source of truth; the text format is rendered from the same document.
Verify results can be cached: a cache hit replays the stored document byte
for byte.  Exit codes: 0 for verified or cleanly skipped claims, 1 for a
refuted claim, 2 for errors (bad arguments, budget overflow, syntax).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

from .beauville import GeneratingTriple, NotGeneratingError, sigma_set
from .certificate import CODE_VERSION, Certificate
from .generators import DefiningVector, classify, parse_vector
from .portrait import tree_shape
from .quotient import BudgetExceeded, DEFAULT_BUDGET, enumerate_quotient, predicted_order
from .verifiers import CLAIMS, claim_params, verify_claim
from .words import WordSyntaxError, parse_word

__all__ = ["main", "console_main"]

CACHE_ENV = "GGS_CACHE_DIR"


def _default_vector(p: int) -> DefiningVector:
    """Alternating vector (1, -1, 1, -1, ...): periodic since p - 1 is even."""
    tree_shape(p, 1)  # rejects a bad p before its p - 1 entries are built
    return DefiningVector(p, tuple(1 if i % 2 == 0 else p - 1 for i in range(p - 1)))


def _vector_from_args(args) -> DefiningVector:
    if args.e is None:
        return _default_vector(args.p)
    return parse_vector(args.p, args.e)


def _add_common(sub: argparse.ArgumentParser, with_level: bool = True) -> None:
    sub.add_argument("--p", type=int, required=True, help="odd prime branching")
    sub.add_argument(
        "--e",
        type=str,
        default=None,
        help="defining vector, comma-separated (default: alternating 1,-1,...)",
    )
    if with_level:
        sub.add_argument("--level", type=int, default=None, help="tree depth n")
    sub.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"max elements to enumerate (default {DEFAULT_BUDGET})",
    )
    sub.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output format (structured = canonical JSON)",
    )
    sub.add_argument("--out", type=str, default=None, help="also write output to file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggs",
        description="GGS groups over the p-adic tree: quotients, Sigma sets, "
        "and verification certificates.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("classify", help="defining-vector invariants")
    _add_common(c, with_level=False)

    e = subs.add_parser("enumerate", help="enumerate a level-n quotient")
    _add_common(e)
    e.add_argument("--histogram", action="store_true", help="include order histogram")
    e.add_argument("--dump", type=str, default=None, help="write sorted encodings")
    e.add_argument("--cayley", type=str, default=None, help="write Cayley graph (DOT)")

    v = subs.add_parser("verify", help="verify a documented claim")
    v.add_argument("claim", choices=sorted(CLAIMS), help="claim id")
    _add_common(v)
    v.add_argument("--to", type=int, default=None, help="target depth m (lifting)")
    v.add_argument("--x", type=str, default="a", help="word for x (lifting)")
    v.add_argument("--y", type=str, default="b", help="word for y (lifting)")
    v.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help=f"certificate cache directory (or ${CACHE_ENV})",
    )

    s = subs.add_parser("sigma", help="Sigma set of a generating pair")
    _add_common(s)
    s.add_argument("--x", type=str, required=True, help="word for x")
    s.add_argument("--y", type=str, required=True, help="word for y")
    s.add_argument("--contains", type=str, default=None, help="membership query word")
    s.add_argument("--dump", action="store_true", help="list all member encodings")

    return parser


# -- output plumbing ---------------------------------------------------------------


def _emit(doc_text: str, rendered: str, args) -> None:
    out = doc_text if args.format == "structured" else rendered
    print(out, end="" if out.endswith("\n") else "\n")
    if args.out:
        Path(args.out).write_text(doc_text)


def _render_report(doc: dict) -> str:
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{key}:")
            lines.extend(f"  {k}: {v}" for k, v in value.items())
        elif isinstance(value, list):
            lines.append(f"{key}:")
            lines.extend(f"  - {v}" for v in value)
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _render_certificate(doc: dict) -> str:
    lines = [
        f"claim: {doc['claim']}",
        f"statement: {doc['statement']}",
        "params: "
        + " ".join(f"{k}={_fmt_param(v)}" for k, v in sorted(doc["params"].items())),
        f"verdict: {doc['verdict']}",
        f"exhaustive: {str(doc['exhaustive']).lower()}",
    ]
    if doc.get("element_count") is not None:
        lines.append(f"element_count: {doc['element_count']}")
    if doc["checks"]:
        lines.append("checks:")
        for ch in doc["checks"]:
            mark = "ok" if ch["passed"] else "FAIL"
            lines.append(f"  [{mark}] {ch['name']}: {ch['detail']}")
    if doc["witnesses"]:
        lines.append("witnesses:")
        for k, v in doc["witnesses"].items():
            lines.append(f"  {k}: {v}")
    if doc["notes"]:
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in doc["notes"])
    return "\n".join(lines) + "\n"


def _fmt_param(v) -> str:
    if isinstance(v, list):
        return ",".join(str(x) for x in v)
    return str(v)


# -- subcommands -------------------------------------------------------------------


def cmd_classify(args) -> int:
    v = _vector_from_args(args)
    info = classify(v)
    doc = {
        "p": v.p,
        "e": list(v.e),
        "alpha": v.alpha,
        "periodic": v.periodic,
        "symmetric": v.symmetric,
        "rank": v.rank,
        "gupta_sidki": info.gupta_sidki,
        "predicted_orders": {
            str(n): predicted_order(v, n) for n in (1, 2, 3)
        },
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", _render_report(doc), args)
    return 0


def cmd_enumerate(args) -> int:
    v = _vector_from_args(args)
    n = args.level if args.level is not None else 2
    group = enumerate_quotient(v, n, args.budget)
    formula = predicted_order(v, n)
    doc = {
        "p": v.p,
        "e": list(v.e),
        "n": n,
        "order": len(group),
        "formula_order": formula,
        "formula_matches": None if formula is None else formula == len(group),
    }
    if args.histogram:
        doc["order_histogram"] = {
            str(k): c for k, c in group.order_histogram().items()
        }
    if args.dump:
        Path(args.dump).write_text("\n".join(group.sorted_encodings()) + "\n")
        doc["dump"] = args.dump
    if args.cayley:
        Path(args.cayley).write_text(group.cayley_dot())
        doc["cayley"] = args.cayley
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", _render_report(doc), args)
    return 0


@lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 of the package's sources, read on first use, not at import.

    It keys the certificate cache, so a code change that alters a
    certificate never serves bytes cached by the old code, whether or not
    CODE_VERSION was bumped.
    """
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cache_file(cache_dir: str, claim: str, params: dict, budget: int) -> Path:
    # The budget decides between an exhaustive verdict and "skipped: scale".
    key = json.dumps(
        {
            "budget": budget,
            "claim": claim,
            "params": params,
            "source": source_digest(),
            "version": CODE_VERSION,
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode()).hexdigest()
    return Path(cache_dir) / f"{digest}.json"


def cmd_verify(args) -> int:
    v = _vector_from_args(args)
    params = claim_params(args.claim, v, args.level, args.to, args.x, args.y)

    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    cache_path = (
        _cache_file(cache_dir, args.claim, params, args.budget) if cache_dir else None
    )
    doc_text = None
    if cache_path is not None and cache_path.exists():
        try:
            cached = Certificate.from_dict(json.loads(cache_path.read_text()))
            doc_text = cached.canonical_json()
            doc = cached.canonical_dict()
        except (ValueError, KeyError, TypeError, AttributeError):
            # Bytes that are not UTF-8 or JSON, or JSON that is not a certificate.
            print(f"discarding corrupt cache file: {cache_path}", file=sys.stderr)
            cache_path.unlink(missing_ok=True)
            doc_text = None
        else:
            print(f"cache hit: {cache_path}", file=sys.stderr)
    if doc_text is None:
        cert = verify_claim(
            args.claim,
            v,
            params["n"],
            m=args.to,
            x_word=args.x,
            y_word=args.y,
            budget=args.budget,
        )
        doc_text = cert.canonical_json()
        doc = cert.canonical_dict()
        print(f"wall time: {cert.wall_time:.2f}s", file=sys.stderr)
        if cache_path is not None:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = cache_path.with_name(f"{cache_path.name}.tmp{os.getpid()}")
            tmp.write_text(doc_text)
            os.replace(tmp, cache_path)
    _emit(doc_text, _render_certificate(doc), args)
    verdict = doc["verdict"]
    if verdict == "verified" or verdict.startswith("skipped"):
        return 0
    return 1


def cmd_sigma(args) -> int:
    v = _vector_from_args(args)
    n = args.level if args.level is not None else 2
    group = enumerate_quotient(v, n, args.budget)
    x = parse_word(args.x, group)
    y = parse_word(args.y, group)
    triple = GeneratingTriple.make(group, x, y)
    s = sigma_set(triple, group)
    doc = {
        "p": v.p,
        "e": list(v.e),
        "n": n,
        "x": x.encode(),
        "y": y.encode(),
        "xy": triple.xy.encode(),
        "group_order": len(group),
        "sigma_size": len(s),
    }
    if args.contains is not None:
        probe = parse_word(args.contains, group)
        doc["contains"] = {args.contains: probe.labels in s.members}
    if args.dump:
        doc["members"] = sorted(group.element(k).encode() for k in s.members)
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", _render_report(doc), args)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "classify": cmd_classify,
        "enumerate": cmd_enumerate,
        "verify": cmd_verify,
        "sigma": cmd_sigma,
    }
    try:
        return handlers[args.command](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NotGeneratingError, WordSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
