"""sftkit claim benchmark.

    python3 claimbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 claimbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout; the sftkit under test is the one in its
src/ directory. The run writes the workload's seeded claims doc, then runs
passes back to back for --seconds seconds. A pass is one fresh
single-threaded process that does what `sftkit verify DOC --format machine`
does (see child.py). With --trace 1, passes alternate between untraced and
traced; the traced ones record spans around every layer (see spans.py).

After the passes, the correctness gate (gate.py) checks every record. The
last line of standard output is one JSON object: with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer ones. Everything the run
writes goes under claimbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("search", "powers", "short")
MIN_PASSES = 2
PASS_TIMEOUT_S = 150
# environment variables that would change what a pass measures
DROPPED_ENV = ("SFTKIT_BUDGET_PROFILE", "SFTKIT_FORCE_PURE")


def ref_loop() -> float:
    """Seconds for a fixed pure-Python loop that touches no sftkit code; it
    tells a slow host apart from a slow change."""
    t = time.perf_counter()
    table: dict = {}
    for i in range(200_000):
        k = i % 1009
        table[k] = table.get(k, 0) + i * 7
    return time.perf_counter() - t


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_pass(workdir: Path, k: int, seed: int, traced: bool) -> dict:
    report = workdir / f"pass{k}.report.jsonl"
    result = workdir / f"pass{k}.result.json"
    spawn = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(SRC),
             str(workdir / "doc.json"), str(report), str(result), str(seed),
             repr(spawn), "1" if traced else "0"],
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {PASS_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"traced": traced, "error": proc.stderr.strip()[-2000:]}
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    with open(report, encoding="utf-8") as fh:
        out["lines"] = fh.read().splitlines()
    out["traced"] = traced
    return out


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def slowest_wall(passes: list) -> float:
    """The claim loop's wall time at the host's base speed: each claim's
    slowest time across the passes, summed, plus the slowest rest of the
    loop (run_suite bookkeeping and serialization). The host this was built
    on switches between a fast, bursty regime and a slow, steady one every
    few minutes; both reach the slow level, so the slowest times agree from
    run to run where medians and minimums follow the regime (README.md,
    Noise)."""
    if not passes:
        return 0.0
    timings = [[json.loads(line)["timing"] for line in p["lines"]]
               for p in passes]
    rest = max(p["wall_s"] - sum(ts) for p, ts in zip(passes, timings))
    return sum(max(ts) for ts in zip(*timings)) + rest


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from gate import Gate, digest
    from gen import build_doc
    from sftkit.files import dumps_doc

    workdir = OUT / f"{workload}-{seed}-t{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    doc = build_doc(workload, seed)
    (workdir / "doc.json").write_text(dumps_doc(doc), encoding="utf-8")

    passes, refs, spent = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        est = max(spent, default=0.0) if len(spent) < 3 else _median(spent)
        if len(passes) >= MIN_PASSES and elapsed + est > seconds:
            break
        refs.append(ref_loop())
        t = time.perf_counter()
        passes.append(_run_pass(workdir, len(passes), seed,
                                traced=trace and len(passes) % 2 == 1))
        spent.append(time.perf_counter() - t)

    gate = Gate(doc)
    n_claims = len(gate.claims)
    attempted = failed = 0
    for k, p in enumerate(passes):
        attempted += n_claims
        if "error" in p:
            failed += n_claims
            gate.problems.append(f"pass {k} exited: {p['error']}")
        else:
            failed += gate.check_pass(f"pass {k}", p["lines"])
    good = [p for p in passes if "error" not in p]
    plain = [p for p in good if not p["traced"]]
    first = [json.loads(line) for line in good[0]["lines"]] if good else []
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": len(passes), "claims": n_claims,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "digest": digest(first),
        "env": good[0]["env"] if good else None,
        "problems": gate.problems[:50],
    }
    if trace:
        metrics = _per_layer(good, first, plain)
        metrics["host.ref_loop_s"] = (_median(refs), "s")
    else:
        metrics = {
            "wall_s": (slowest_wall(plain), "s"),
            # the fastest set-up: its median moved by 35% between two
            # ten-run series on a host that changed speed, the fastest by 14%
            "setup_s": (min((p["setup_s"] for p in plain), default=0.0), "s"),
            "peak_rss_mb": (_median([p["peak_rss_mb"] for p in plain]), "MiB"),
            "ok_frac": (1 - failed / attempted, "ratio"),
        }
        summary["pass_wall_s"] = [p["wall_s"] for p in plain]
        summary["pass_setup_s"] = [p["setup_s"] for p in plain]
        summary["host.ref_loop_s"] = _median(refs)
    summary["metrics"] = {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}
    (workdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                          encoding="utf-8")
    return summary


_UNITS = {".calls": "count", ".term_products": "count", "_frac": "ratio"}


def _per_layer(good: list, records: list, plain: list) -> dict:
    from spans import layer_metrics

    traced = sorted((p for p in good if p["traced"]), key=lambda p: p["wall_s"])
    metrics = {}
    if traced:
        mid = traced[(len(traced) - 1) // 2]
        layer = layer_metrics(mid["spans"], *mid["window"])
        for name, value in layer.items():
            unit = next((u for suffix, u in _UNITS.items()
                         if name.endswith(suffix)), "s")
            metrics[name] = (value, unit)
        overhead = slowest_wall(traced) / slowest_wall(plain) - 1 if plain else 0.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    for meter in ("search_nodes", "multisets", "samples"):
        metrics[f"budget.{meter}"] = (
            sum(r.get("budgets_used", {}).get(meter, 0) for r in records),
            "count")
    metrics["sftcheck.inconclusive"] = (
        sum(1 for r in records
            if r.get("verdict") == "inconclusive_at_truncation"), "count")
    return metrics


def _print_summary(s: dict) -> None:
    print(f"[{s['workload']} seed={s['seed']} trace={s['trace']}] "
          f"{s['passes']} passes x {s['claims']} claims, "
          f"digest {s['digest']}")
    if s["env"]:
        print(f"  env: {json.dumps(s['env'], sort_keys=True)}")
    for name, m in s["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {s['failed_frac']:.6g} ratio "
          f"({s['failed']} of {s['attempted']} claims attempted)")
    for problem in s["problems"]:
        print(f"  FAIL {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sftkit" / "__init__.py").is_file():
        print(f"error: no sftkit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        s = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_summary(s)
        summaries.append(s)
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        metrics.update({prefix + k: v for k, v in s["metrics"].items()})
    print(json.dumps({
        "correct": all(s["failed"] == 0 for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
