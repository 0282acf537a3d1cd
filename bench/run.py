"""Seeded overlay benchmark for semroute.

    python3 bench/run.py --workload sem-publish --seed 1 --seconds 40 --trace 0

Runs `bench/measure.py` in a fresh interpreter (fixed PYTHONHASHSEED) again
and again until `--seconds` have passed, at least MIN_REPEATS times, on the
document the workload generator makes from `--seed`.  Every repeat grades
`run` against `oracle_deliveries`; the run is incorrect if any delivery is
spurious, if a workload inside the routing's completeness envelope misses a
delivery, or if two repeats give different report JSON (or, traced,
different per-layer counts).  The time of `run` and of `oracle_deliveries`
is summed action by action over the fastest repeat (see `best_total`), and
`setup_s` is the fastest of all the loads, for the same reason.

The last line of standard output is one JSON object with the keys
`correct`, `attempted` (deliveries the oracle expects), `failed` (missing
plus spurious deliveries) and `metrics`: the end-to-end metrics untraced,
the per-layer metrics with `--trace 1`.  The lines before it list the same
metrics as a table.  Traced runs also write their spans to
`.bench_out/trace-<workload>-<seed>.jsonl.gz`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEASURE = HERE / "measure.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sem-publish", "syn-subscribe", "sem-churn")
# Workloads whose scripts stay inside the routing's completeness envelope
# (every advertisement first, no subscription on a mapping output), so any
# missed delivery there is a defect.
COMPLETE = ("sem-publish", "syn-subscribe")
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "route_actions_per_s": "1/s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "delivery_ok_ratio": "ratio",
}
# Per-layer metrics read from the clock, with their units.  Every other one
# is a count or a ratio of counts that must repeat exactly from one repeat
# to the next.  Relation times are shares of `sim.run`, because on a
# workload that never calls the relation a time would read 0 s every run.
PER_LAYER_TIMED = {
    "knowledge.load.s": "s",
    "routing.handle_publish.self_s": "s",
    "routing.handle_publish.p50_us": "us",
    "routing.handle_publish.p99_us": "us",
    "routing.handle_subscribe.self_s": "s",
    "routing.handle_subscribe.p50_us": "us",
    "routing.handle_subscribe.p99_us": "us",
    "routing.handle_advertise.self_s": "s",
    "semantic.sem_intersects.run_share": "ratio",
    "semantic.normalize_advertisement.run_share": "ratio",
    "sim.run.s": "s",
}
PER_LAYER_COUNT_UNITS = {
    "semantic.sem_match.true_ratio": "ratio",
    "semantic.sem_match.cache_hit_ratio": "ratio",
    "routing.publish.evals_per_call": "evals/call",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_TIMED.get(name) or PER_LAYER_COUNT_UNITS.get(name, "count")


def child(workload: str, seed: int, trace: bool, trace_out: Path | None) -> dict:
    cmd = [sys.executable, str(MEASURE), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.exit(f"measure.py failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def repeat(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    deadline = time.monotonic() + seconds
    results: list[dict] = []
    while len(results) < MIN_REPEATS or time.monotonic() < deadline:
        trace_out = OUT / f"trace-{workload}-{seed}.jsonl.gz" if trace and not results else None
        results.append(child(workload, seed, trace, trace_out))
    return results


def best_total(repeats: list[list[float]]) -> float:
    """Sum over the parts of a timed call of the fastest repeat's time for
    each part.

    Other tenants of a shared host slow a process in bursts, and how often
    they do drifts over minutes, which moved the median of whole repeats by
    a third between runs.  The fastest of ten-odd repeats of a
    millisecond-long part is rarely slowed, so the sum follows the program
    much more closely.
    """
    return sum(min(times) for times in zip(*repeats))


def end_to_end(results: list[dict]) -> dict[str, float]:
    first = results[0]
    ok = 1 - (first["missing"] + first["spurious"]) / first["expected"]
    return {
        "setup_s": min(min(r["setup_s"]) for r in results),
        "route_actions_per_s": first["actions"] / best_total([r["run_parts"] for r in results]),
        "verify_s": best_total([r["verify_parts"] for r in results]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "delivery_ok_ratio": ok,
    }


def per_layer(results: list[dict]) -> tuple[dict[str, float], bool]:
    """Counts must agree across repeats; other clock readings are medians.
    `sim.run.s` and the handlers' self times are summed per action like the
    untraced run time, so `sim.run.s` against it gives the tracing overhead."""
    metrics, repeatable = {}, True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name] for r in results]
        if name in PER_LAYER_TIMED:
            metrics[name] = statistics.median(values)
        else:
            repeatable &= len(set(values)) == 1
            metrics[name] = values[0]
    metrics["sim.run.s"] = best_total([r["run_parts"] for r in results])
    for handler in results[0]["self_parts"]:
        metrics[handler + ".self_s"] = best_total([r["self_parts"][handler] for r in results])
    return metrics, repeatable


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "semroute" / "__init__.py").is_file():
        sys.exit(f"semroute sources not found under {ROOT / 'src'}")

    results = repeat(args.workload, args.seed, args.seconds, bool(args.trace))
    first = results[0]
    correct = (
        first["expected"] > 0
        and first["spurious"] == 0
        and (first["missing"] == 0 or args.workload not in COMPLETE)
        and len({r["report_sha256"] for r in results}) == 1
    )
    if args.trace:
        values, repeatable = per_layer(results)
        correct &= repeatable
        units = {name: per_layer_unit(name) for name in values}
    else:
        values = end_to_end(results)
        units = END_TO_END
    print(f"{args.workload} seed {args.seed}: {len(results)} repeats")
    for name, value in values.items():
        print(f"  {name:<42} {value:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": first["expected"],
                "failed": first["missing"] + first["spurious"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
