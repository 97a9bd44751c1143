"""End-to-end command-line behavior, including exit codes and caching."""
from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, env=None, cwd=None, timeout=600):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ggs", *args],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=cwd,
        timeout=timeout,
    )


def test_classify_text():
    res = run_cli("classify", "--p", "3", "--e", "1,-1")
    assert res.returncode == 0
    assert "periodic: True" in res.stdout
    assert "gupta_sidki: True" in res.stdout
    assert "rank: 2" in res.stdout


def test_classify_structured_and_default_vector():
    res = run_cli("classify", "--p", "5", "--format", "structured")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["e"] == [1, 4, 1, 4]  # alternating default
    assert doc["periodic"] is True
    assert doc["predicted_orders"]["2"] == 3125


def test_enumerate(tmp_path):
    dump = tmp_path / "elements.txt"
    cayley = tmp_path / "graph.dot"
    res = run_cli(
        "enumerate", "--p", "3", "--e", "1,0", "--level", "2",
        "--histogram", "--dump", str(dump), "--cayley", str(cayley),
        "--format", "structured",
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["order"] == 81
    assert doc["formula_matches"] is True
    assert doc["order_histogram"] == {"1": 1, "3": 44, "9": 36}
    lines = dump.read_text().splitlines()
    assert len(lines) == 81 and lines == sorted(lines)
    assert cayley.read_text().startswith("digraph")


def test_enumerate_budget_error():
    res = run_cli("enumerate", "--p", "3", "--e", "1,-1", "--level", "3",
                  "--budget", "100")
    assert res.returncode == 2
    assert "error" in res.stderr.lower()


def _ends_cleanly(*args):
    """Run a command that must neither hang nor crash: exit 0, or exit 2
    with one plain error line."""
    res = run_cli(*args, timeout=20)
    assert "Traceback" not in res.stderr
    assert "integer string conversion" not in res.stderr
    if res.returncode == 2:
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1
    else:
        assert res.returncode == 0
    return res


def test_deep_order_formula_is_written_symbolically():
    # The order 3^(2*3^38+1) is decided over budget on its exponent.
    res = _ends_cleanly("verify", "order-formula", "--p", "3", "--e", "1,2",
                        "--level", "40", "--format", "structured")
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "skipped: scale"
    assert doc["notes"] == [
        "predicted order 3^2701703435345984179 exceeds the budget 10000000"
    ]


def test_deep_prop_key_runs_element_wise():
    res = _ends_cleanly("verify", "prop-key", "--p", "3", "--e", "1,2",
                        "--level", "10", "--format", "structured")
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "skipped: scale"
    assert doc["notes"] == [
        "predicted order 3^13123 exceeds the budget 10000000; "
        "running element-wise sub-checks only"
    ]


def test_deep_enumerate_is_refused_before_building_the_tree():
    res = _ends_cleanly("enumerate", "--p", "3", "--e", "1,2", "--level", "17")
    assert res.returncode == 2
    assert "predicted order 3^28697815" in res.stderr
    res = _ends_cleanly("enumerate", "--p", "3", "--e", "1,2", "--level", "40")
    assert res.returncode == 2
    assert "predicted order 3^2701703435345984179" in res.stderr


def test_levels_past_the_tree_bound_exit_2():
    # A symmetric vector has no order formula, so the tree bound refuses it.
    for args in (
        ("enumerate", "--p", "3", "--e", "1,1", "--level", "40"),
        ("verify", "prop-key", "--p", "3", "--e", "1,2", "--level", "40"),
        ("verify", "order-formula", "--p", "3", "--e", "1,2", "--level", "1000000"),
        ("verify", "order-formula", "--p", "3", "--e", "1,2", "--level", "0"),
    ):
        assert _ends_cleanly(*args).returncode == 2


def test_tree_past_the_walk_vertex_limit_is_refused_at_once():
    # A symmetric vector has no predicted order; its depth-6 tree has 364
    # internal vertices, past the 256 the enumeration walk handles.
    res = _ends_cleanly("enumerate", "--p", "3", "--e", "1,1", "--level", "6")
    assert res.returncode == 2
    assert "364 internal vertices, more than the 256" in res.stderr
    res = _ends_cleanly("verify", "order-formula", "--p", "3", "--e", "1,1",
                        "--level", "6", "--format", "structured")
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "skipped: scale"
    assert "more than the 256" in doc["notes"][0]


def test_huge_prime_exits_2_at_once():
    huge = "1000000000000000003"
    for args in (("classify", "--p", huge), ("classify", "--p", huge, "--e", "1,-1")):
        res = _ends_cleanly(*args)
        assert res.returncode == 2
        assert "at most 127" in res.stderr


def test_deeply_nested_word_exits_2():
    deep = "(" * 3000 + "a" + ")" * 3000
    res = _ends_cleanly("sigma", "--p", "3", "--e", "1,-1", "--level", "2",
                        "--x", deep, "--y", "b")
    assert res.returncode == 2
    assert "nested deeper than 100 at position 100" in res.stderr


def test_verify_text_output():
    res = run_cli("verify", "lemma-conjugates", "--p", "3", "--e", "1,-1")
    assert res.returncode == 0
    assert "verdict: verified" in res.stdout
    assert "[ok]" in res.stdout
    assert "wall time" in res.stderr


def test_verify_structured_is_canonical():
    first = run_cli("verify", "lemma-conjugates", "--p", "3", "--e", "1,-1",
                    "--format", "structured")
    second = run_cli("verify", "lemma-conjugates", "--p", "3", "--e", "1,-1",
                     "--format", "structured")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["schema"] == "ggs-certificate/v1"
    assert doc["verdict"] == "verified"


def test_verify_out_file(tmp_path):
    out = tmp_path / "cert.json"
    res = run_cli("verify", "lemma-orders", "--p", "3", "--e", "1,-1",
                  "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["claim"] == "lemma-orders"
    assert doc["verdict"] == "verified"


def test_verify_cache_round_trip(tmp_path):
    cache = tmp_path / "cache"
    args = ("verify", "thm-B", "--p", "3", "--e", "1,0", "--level", "2",
            "--format", "structured", "--cache-dir", str(cache))
    miss = run_cli(*args)
    assert miss.returncode == 0
    assert "cache hit" not in miss.stderr
    stored = list(cache.glob("*.json"))
    assert len(stored) == 1
    hit = run_cli(*args)
    assert hit.returncode == 0
    assert "cache hit" in hit.stderr
    assert hit.stdout == miss.stdout
    assert stored[0].read_text() == miss.stdout


def test_verify_cache_env_var(tmp_path):
    cache = tmp_path / "envcache"
    res = run_cli("verify", "lemma-orders", "--p", "3", "--e", "1,-1",
                  env={"GGS_CACHE_DIR": str(cache)})
    assert res.returncode == 0
    assert len(list(cache.glob("*.json"))) == 1


def test_verify_lifting_refuted_exit_code():
    res = run_cli("verify", "lifting", "--p", "3", "--e", "1,-1", "--level", "2",
                  "--to", "3", "--x", "ab", "--y", "Ab")
    assert res.returncode == 1
    assert "verdict: refuted" in res.stdout


def test_verify_lifting_default_target_shares_cache(tmp_path):
    # Without --to the target depth is n + 1 = 4, so both runs name one entry.
    cache = tmp_path / "cache"
    base = ("verify", "lifting", "--p", "3", "--e", "1,-1", "--cache-dir", str(cache))
    first = run_cli(*base)
    assert first.returncode == 0
    assert "cache hit" not in first.stderr
    second = run_cli(*base, "--to", "4")
    assert second.returncode == 0
    assert "cache hit" in second.stderr
    assert second.stdout == first.stdout
    assert len(list(cache.glob("*.json"))) == 1


def test_verify_skip_is_exit_zero():
    res = run_cli("verify", "thm-A", "--p", "5", "--level", "3",
                  "--format", "structured")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "skipped: scale"
    assert all(c["passed"] for c in doc["checks"])


def test_sigma():
    res = run_cli("sigma", "--p", "3", "--e", "1,-1", "--level", "2",
                  "--x", "a", "--y", "b", "--contains", "(ab)^2",
                  "--format", "structured")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["sigma_size"] == 19
    assert doc["group_order"] == 27
    assert doc["contains"]["(ab)^2"] is True


def test_sigma_dump_members():
    res = run_cli("sigma", "--p", "3", "--e", "1,-1", "--level", "2",
                  "--x", "a", "--y", "b", "--dump", "--format", "structured")
    doc = json.loads(res.stdout)
    assert len(doc["members"]) == 19
    assert doc["members"] == sorted(doc["members"])


def test_error_exit_codes():
    # non-periodic vector for a periodic-only claim
    res = run_cli("verify", "thm-G2", "--p", "3", "--e", "1,0")
    assert res.returncode == 2 and "error:" in res.stderr
    # non-generating sigma pair
    res = run_cli("sigma", "--p", "3", "--e", "1,-1", "--x", "a", "--y", "A")
    assert res.returncode == 2 and "error:" in res.stderr
    # zero defining vector
    res = run_cli("classify", "--p", "3", "--e", "0,0")
    assert res.returncode == 2
    # malformed word
    res = run_cli("sigma", "--p", "3", "--e", "1,-1", "--x", "a^", "--y", "b")
    assert res.returncode == 2
    # unknown claim (argparse rejects the choice)
    res = run_cli("verify", "thm-Z", "--p", "3")
    assert res.returncode == 2


def test_help():
    res = run_cli("--help")
    assert res.returncode == 0
    for sub in ("classify", "enumerate", "verify", "sigma"):
        assert sub in res.stdout


def test_verify_cache_key_includes_budget(tmp_path):
    cache = tmp_path / "cache"
    base = ("verify", "prop-key", "--p", "3", "--e", "1,-1", "--cache-dir", str(cache))
    small = run_cli(*base, "--budget", "10")
    assert small.returncode == 0
    assert "verdict: skipped: scale" in small.stdout
    full = run_cli(*base)
    assert full.returncode == 0
    assert "cache hit" not in full.stderr
    assert "verdict: verified" in full.stdout
    assert len(list(cache.glob("*.json"))) == 2


def test_verify_corrupt_cache_is_recomputed(tmp_path):
    cache = tmp_path / "cache"
    args = ("verify", "lemma-orders", "--p", "3", "--e", "1,-1",
            "--format", "structured", "--cache-dir", str(cache))
    first = run_cli(*args)
    assert first.returncode == 0
    (stored,) = cache.glob("*.json")
    for corrupt in ("{", "{}", "[]"):
        stored.write_text(corrupt)
        again = run_cli(*args)
        assert again.returncode == 0
        assert "corrupt cache file" in again.stderr
        assert json.loads(again.stdout)["verdict"] == "verified"
        assert again.stdout == first.stdout
        assert stored.read_text() == first.stdout


def test_verify_refuses_workers():
    from ggs import DefiningVector, verify_claim

    res = run_cli("verify", "lemma-orders", "--p", "3", "--workers", "2")
    assert res.returncode == 2
    assert "unrecognized arguments: --workers 2" in res.stderr
    v = DefiningVector(3, (1, -1))
    with pytest.raises(ValueError, match="workers must be 1, got 2"):
        verify_claim("lemma-orders", v, 3, workers=2)
    golden = ROOT / "tests" / "golden" / "lemma-orders__p3_e1_2__n3.json"
    assert verify_claim("lemma-orders", v, 3, workers=1).canonical_json() == golden.read_text()


def _readme_usage_commands() -> list[list[str]]:
    """Arguments of each `ggs` line in the first sh block of README.md that
    has any: the command-line usage examples."""
    text = (ROOT / "README.md").read_text()
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        commands = [shlex.split(x)[1:] for x in block.splitlines() if x.startswith("ggs ")]
        if commands:
            return commands
    return []


def test_readme_usage_block_runs(tmp_path, monkeypatch, capsys):
    from ggs.cli import CACHE_ENV, main

    commands = _readme_usage_commands()
    assert {c[0] for c in commands} == {"classify", "enumerate", "verify", "sigma"}
    monkeypatch.chdir(tmp_path)  # --dump and --cayley write files
    monkeypatch.delenv(CACHE_ENV, raising=False)
    for argv in commands:
        assert main(argv) == 0, argv
    assert (tmp_path / "elements.txt").exists() and (tmp_path / "graph.dot").exists()


def test_cache_key_follows_source_digest(monkeypatch, tmp_path):
    import ggs.cli as cli

    params = {"p": 3, "e": [1, 2], "n": 3}
    assert len(cli.source_digest()) == 64
    current = cli._cache_file(str(tmp_path), "lemma-orders", params, 100)
    monkeypatch.setattr(cli, "source_digest", lambda: "0" * 64)
    edited = cli._cache_file(str(tmp_path), "lemma-orders", params, 100)
    assert edited != current
    assert edited == cli._cache_file(str(tmp_path), "lemma-orders", params, 100)


def test_import_does_not_hash_sources():
    code = "import ggs.cli; print(ggs.cli.source_digest.cache_info().currsize)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0"
