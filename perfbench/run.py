"""Benchmark of the ggs claim verifier: time to a verdict, memory, set-up.

One client calls `ggs.verify_claim` in a closed loop with workers=1, in
this process, on one seeded workload, and checks every certificate outside
the timed region.  A speed probe (`speed.py`) scales each operation's
time to the machine's reference speed, and each CLI start-up is timed
against a bare interpreter start, so neither moves with the load of a
shared machine.  With `--trace 1` it instead times one untraced and one
traced operation, records the per-layer metrics through `tracer.py`, and
runs the product microbenchmark in `microbench.py`.

    python3 perfbench/run.py --workload g2-search-p5 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 3

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; details go to
`perfbench/out/`.  Metric and workload definitions: `perfbench/README.md`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_BATCH = 3  # CLI start-ups timed before the loop and after each operation
# Wall time of `python -c pass` on an idle core of the machine the benchmark
# was tuned on (2-vCPU Intel Xeon VM, Python 3.11): `setup_s` reads as
# seconds on that core.
REFERENCE_START_S = 0.04


@dataclass(frozen=True)
class Workload:
    claim: str
    p: int
    n: int
    default_e: tuple[int, ...]
    order: int  # |G_n| = p^(t*p^(n-2)+1) for the class's circulant rank t
    recheck_witnesses: bool = False


WORKLOADS = {
    "g2-search-p5": Workload("thm-G2", 5, 2, (1, 4, 1, 4), 5**5, recheck_witnesses=True),
    "g2-literal-p7": Workload("thm-G2", 7, 2, (1, 6, 1, 6, 1, 6), 7**7),
    "collision-e10-n3": Workload("prop-collision", 3, 3, (1, 0), 3**10),
}


# -- seeded inputs ----------------------------------------------------------------


def circulant_rank(e: tuple[int, ...], p: int) -> int:
    """Rank mod p of the circulant matrix with first row (e_1, ..., e_{p-1}, 0)."""
    first = list(e) + [0]
    rows = [[first[(j - i) % p] for j in range(p)] for i in range(p)]
    rank = 0
    for col in range(p):
        pivot = next((r for r in range(rank, p) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(p):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def vector_class(e: tuple[int, ...], p: int) -> tuple[bool, bool, int]:
    """(periodic, symmetric, circulant rank): fixes the quotient order."""
    return sum(e) % p == 0, e == e[::-1], circulant_rank(e, p)


def pick_vector(w: Workload, seed: int) -> tuple[int, ...]:
    """Seed 0 gives the README vector; other seeds draw uniformly from its class."""
    if seed == 0:
        return w.default_e
    target = vector_class(w.default_e, w.p)
    rng = random.Random(seed)
    while True:
        e = tuple(rng.randrange(w.p) for _ in range(w.p - 1))
        if any(e) and vector_class(e, w.p) == target:
            return e


# -- one operation and its check --------------------------------------------------


def operation(w: Workload, e: tuple[int, ...]) -> str:
    """The timed work: a verdict and its canonical certificate bytes."""
    from ggs import DefiningVector, verify_claim

    return verify_claim(w.claim, DefiningVector(w.p, e), w.n, workers=1).canonical_json()


def check(w: Workload, e: tuple[int, ...], body: str) -> list[str]:
    """Problems with one certificate; empty when it is right."""
    from ggs import DefiningVector, GeneratingTriple, enumerate_quotient, is_beauville_pair

    doc = json.loads(body)
    problems = []
    if doc["params"] != {"p": w.p, "e": list(e), "n": w.n}:
        problems.append(f"certificate params {doc['params']} are not the inputs")
    if doc["verdict"] != "verified":
        problems.append(f"verdict {doc['verdict']!r}, the paper's answer is 'verified'")
    if doc["element_count"] != w.order:
        problems.append(f"element_count {doc['element_count']} != predicted order {w.order}")
    problems += [f"sub-check {c['name']} failed" for c in doc["checks"] if not c["passed"]]
    if w.recheck_witnesses:
        group = enumerate_quotient(DefiningVector(w.p, e), w.n)
        triples = []
        for key in ("triple_1", "triple_2"):
            x, y, xy = doc["witnesses"][key]
            t = GeneratingTriple.make(group, group.element(x), group.element(y))
            if t.xy.encode() != xy:
                problems.append(f"{key}: stored product is not x*y")
            triples.append(t)
        if not is_beauville_pair(*triples, group).verified:
            problems.append("witness triples fail is_beauville_pair on a fresh group")
    return problems


def timed_op(w: Workload, e: tuple[int, ...], tracer=None,
             probe: SpeedProbe | None = None) -> tuple[float, float, str]:
    """Run one operation: (seconds to the certificate, relative machine speed
    during it, its canonical JSON).  Under a probe the seconds leave out the
    probe's own time; without one the speed reads 1."""
    gc.collect()
    mark = probe.mark() if probe else None
    start = perf_counter()
    if tracer is None:
        body = operation(w, e)
    else:
        tracer.install()
        try:
            body = tracer.span("op", operation, None)(w, e)
        finally:
            tracer.uninstall()
    elapsed = perf_counter() - start
    if probe is None:
        return elapsed, 1.0, body
    return *probe.since(mark, elapsed), body


# -- set-up ----------------------------------------------------------------------


def _start(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    return perf_counter() - start, proc


def measure_setup(p: int) -> dict:
    """Wall times of SETUP_BATCH fresh `python -m ggs classify --p <p>`
    processes, each paired with the start of a bare interpreter right after.

    Process start-up slows with the machine's load much less than
    pure-Python work does, so the speed probe cannot scale it.  A bare
    `python -c pass` started next to it slows the same way, and the ratio
    of the two stays put; `setup_s` is that ratio times REFERENCE_START_S.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, bare = [], []
    for _ in range(SETUP_BATCH):
        wall, proc = _start([sys.executable, "-m", "ggs", "classify", "--p", str(p)], env)
        if proc.returncode != 0 or not proc.stdout.startswith(f"p: {p}\n"):
            raise RuntimeError(f"ggs classify failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(wall)
        bare.append(_start([sys.executable, "-c", "pass"], env)[0])
    return {"wall_s": times, "bare_s": bare}


# -- environment -------------------------------------------------------------------


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


# -- runs ------------------------------------------------------------------------


def untraced_run(w: Workload, e: tuple[int, ...], seconds: float, record: dict) -> dict:
    """Closed loop for about `seconds`, under the speed probe: it starts
    another operation only if that would end the run nearer to `seconds`
    than stopping now.

    Set-up is timed before the loop and again after every operation, so the
    samples span the whole run.  Peak RSS is read after the first operation,
    before any check has run, so only `verify_claim` sets it.
    """
    probe = SpeedProbe()
    probe.start()
    try:
        setup = [measure_setup(w.p)]
        start = perf_counter()
        while True:
            wall, speed, body = timed_op(w, e, probe=probe)
            if not record["ops"]:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            problems = check(w, e, body)
            record["ops"].append({"verdict_s": wall * speed, "wall_s": wall, "speed": speed,
                                  "problems": problems})
            setup.append(measure_setup(w.p))
            if problems or perf_counter() - start + wall / 2 > seconds:
                break
    finally:
        probe.stop()
    record["setup"] = setup
    record["speed"] = {"samples": len(probe.samples), "mean": statistics.fmean(probe.samples),
                       "min": min(probe.samples), "max": max(probe.samples)}
    wall = statistics.median(op["wall_s"] for op in record["ops"])
    print(f"verdict wall median = {wall:.4g} s at mean relative speed {record['speed']['mean']:.3f}")
    return {
        "verdict_s": (statistics.median(op["verdict_s"] for op in record["ops"]), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (REFERENCE_START_S * statistics.median(
            t / bare for b in setup for t, bare in zip(b["wall_s"], b["bare_s"])), "s"),
    }


def traced_run(w: Workload, e: tuple[int, ...], seed: int, record: dict) -> dict:
    """One untraced and one traced operation, then the product microbenchmark."""
    import microbench
    from tracer import Tracer, layer_metrics

    plain, _, body = timed_op(w, e)
    record["ops"].append({"verdict_s": plain, "problems": check(w, e, body)})
    tracer = Tracer()
    traced, _, body = timed_op(w, e, tracer)
    record["ops"].append({"verdict_s": traced, "traced": True, "problems": check(w, e, body)})
    record["trace"] = tracer.dump()
    if tracer.absent:
        print(f"absent layer functions: {', '.join(tracer.absent)}", file=sys.stderr)
    mul_us, failed_shapes = microbench.run(seed)
    record["ops"] += [
        {"microbench": shape, "problems": ["product differs from the reference"] if shape in failed_shapes else []}
        for shape in mul_us
    ]
    metrics = layer_metrics(tracer, mul_us, traced - plain)
    record["trace"]["unentered"] = tracer.unentered()
    if record["trace"]["unentered"]:
        print(f"layers this workload never entered (their metrics read 0): "
              f"{', '.join(record['trace']['unentered'])}", file=sys.stderr)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    w = WORKLOADS[name]
    e = pick_vector(w, seed)
    env = environment()
    print(f"workload {name}: {w.claim} p={w.p} n={w.n} e={','.join(map(str, e))} seed={seed}")
    print("environment: " + json.dumps(env, sort_keys=True))
    record: dict = {"workload": name, "seed": seed, "e": list(e), "trace": trace,
                    "environment": env, "ops": []}
    try:
        metrics = traced_run(w, e, seed, record) if trace else untraced_run(w, e, seconds, record)
    except Exception:
        traceback.print_exc()
        record["ops"].append({"problems": ["raised " + traceback.format_exc(limit=1).strip()]})
        metrics = {}
    attempted = len(record["ops"])
    failed = sum(bool(op["problems"]) for op in record["ops"])
    for op in record["ops"]:
        for problem in op["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    for key, m in record["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ops = {failed}/{attempted}; details in {out_file.relative_to(ROOT)}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is that workload's own."""
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        status |= proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            rows.append(f"{name}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        cells = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()]
        cells.append(f"failed_ops={result['failed']}/{result['attempted']}")
        rows.append(f"{lines[0]}\n  " + "  ".join(cells))
    print("\n".join(rows))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ggs" / "__init__.py").is_file():
        print(f"no ggs sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
