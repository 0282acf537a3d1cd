"""One measured benchmark process: generate, set up, route, verify.

`run.py` starts this script in a fresh interpreter for every repeat, so the
module-global memo caches of `semroute.semantic` and the peak RSS start from
nothing each time.  It prints one JSON object on standard output.

    python3 bench/measure.py --workload sem-publish --seed 1 [--trace]
        [--trace-out PATH] [--sizes '{"brokers": 5}']

Untraced, it times `load_scenario` several times, then `run` and
`oracle_deliveries` once each, action by action.  Traced, it loads once and
reports per-layer counters and span summaries instead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import semroute.semantic  # noqa: E402
from semroute.sim import load_scenario, oracle_deliveries, run  # noqa: E402

from tracing import ACTION, END, NAME, START, Tracer  # noqa: E402
from workloads import generate  # noqa: E402

SETUP_REPEATS = 3
MESSAGE_KINDS = ("advertise", "subscribe", "publish", "notify")
HANDLERS = ("routing.handle_publish", "routing.handle_subscribe", "routing.handle_advertise")


def grade(report, expected: set) -> dict:
    """Deliveries of `run` against the oracle, and the report's digest."""
    got = set(report.deliveries)
    return {
        "expected": len(expected),
        "missing": len(expected - got),
        "spurious": len(got - expected),
        "report_sha256": hashlib.sha256(report.to_json().encode()).hexdigest(),
    }


def timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class _StampedScript(tuple):
    """A script tuple that appends the clock to `stamps` each time iteration
    reaches the next action."""

    def __new__(cls, actions: tuple, stamps: list[float]):
        script = super().__new__(cls, actions)
        script.stamps = stamps
        return script

    def __iter__(self):
        stamps, clock = self.stamps, time.perf_counter
        for action in tuple.__iter__(self):
            stamps.append(clock())
            yield action


def segmented(fn, scenario):
    """Call `fn(scenario)`; return its result and the time of each part:
    up to the first action, each action in turn, and after the last.

    `run` and `oracle_deliveries` both walk the script once, so the parts
    are the same in every repeat and can be compared one by one.
    """
    stamps: list[float] = []
    stamped = replace(scenario, script=_StampedScript(scenario.script, stamps))
    gc.collect()
    start = time.perf_counter()
    result = fn(stamped)
    marks = [start, *stamps, time.perf_counter()]
    return result, [b - a for a, b in zip(marks, marks[1:])]


def measure(text: str) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        scenario, seconds = timed(load_scenario, text)
        setups.append(seconds)
    report, run_parts = segmented(run, scenario)
    expected, verify_parts = segmented(oracle_deliveries, scenario)
    return {
        "setup_s": setups,
        "actions": len(scenario.script),
        "run_parts": run_parts,
        "verify_parts": verify_parts,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **grade(report, expected),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def measure_traced(text: str, trace_out: Path | None, header: dict) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        scenario = load_scenario(text)
        setup, setup_times = tracer.take_phase()
        sim_run = tracer.spanned("sim.run", run)
        report = sim_run(tracer.traced_scenario(scenario))
        counts, times = tracer.take_phase()
        before = semroute.semantic.sem_match.cache_info()
        expected = tracer.spanned("sim.oracle", oracle_deliveries)(scenario)
        oracle, _ = tracer.take_phase()
        after = semroute.semantic.sem_match.cache_info()
    finally:
        tracer.uninstall()
    spans = tracer.summary()

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    run_s = span("sim.run", "total_s")
    # The same parts as `segmented` cuts an untraced run into, so that
    # `run.py` can sum the best repeat of each: up to each action's start,
    # then to the end of the run.
    run_span = next(s for s in tracer.spans if s[NAME] == "sim.run")
    starts = [s[START] for s in tracer.spans if s[NAME].startswith("sim.action.")]
    marks = [run_span[START], *starts, run_span[END]]
    sem_calls = counts["semantic.sem_match"]
    publish_calls = span("routing.handle_publish", "calls")
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    per_kind = {kind.lower(): sum(links.values()) for kind, links in report.counts.items()}
    metrics = {
        "model.parse.calls": setup["model.parse"],
        "knowledge.load.s": setup_times["knowledge.load"],
        "semantic.sem_match.calls": sem_calls,
        "semantic.sem_match.true_ratio": _ratio(counts["semantic.sem_match.true"], sem_calls),
        "semantic.augment.calls": counts["semantic.augment"],
        "knowledge.apply_mapping.calls": counts["knowledge.apply_mapping"],
        "routing.publish.evals_per_call": _ratio(
            sem_calls + counts["syntactic.match_event"], publish_calls
        ),
        "syntactic.covers.calls": counts["syntactic.covers"],
        "syntactic.intersects.calls": counts["syntactic.intersects"],
        "routing.table.max_subscriptions": tracer.max_table,
        "semantic.sem_covers.calls": counts["semantic.sem_covers"],
        "semantic.sem_intersects.calls": counts["semantic.sem_intersects"],
        "semantic.sem_intersects.run_share": _ratio(times["semantic.sem_intersects"], run_s),
        "semantic.normalize_advertisement.calls": counts["semantic.normalize_advertisement"],
        "semantic.normalize_advertisement.run_share": _ratio(
            times["semantic.normalize_advertisement"], run_s
        ),
        "semantic.sem_match.cache_entries": after.currsize,
        "semantic.sem_match.cache_hit_ratio": _ratio(hits, hits + misses),
        "sim.oracle.evals": oracle["sim.oracle"],
    }
    for handler, fields in (
        ("routing.handle_publish", ("calls", "p50_us", "p99_us")),
        ("routing.handle_subscribe", ("calls", "p50_us", "p99_us")),
        ("routing.handle_advertise", ("calls",)),
    ):
        for field in fields:
            metrics[f"{handler}.{field}"] = span(handler, field)
    # Each handler's self time per script action, for `run.py` to sum the
    # best repeat of each like the run time.
    self_parts = {handler: [0.0] * len(scenario.script) for handler in HANDLERS}
    for record, own in zip(tracer.spans, tracer.self_times()):
        if record[NAME] in self_parts:
            self_parts[record[NAME]][record[ACTION]] += own
    for kind in MESSAGE_KINDS:
        metrics[f"routing.messages.{kind}"] = per_kind.get(kind, 0)
    if trace_out is not None:
        tracer.write(trace_out, {**header, "spans": spans, "run_counts": dict(counts)})
    return {
        "metrics": metrics,
        "run_parts": [b - a for a, b in zip(marks, marks[1:])],
        "self_parts": self_parts,
        **grade(report, expected),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sizes", default="{}", help="JSON object of size overrides")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()
    sizes = json.loads(args.sizes)
    text = json.dumps(generate(args.workload, args.seed, **sizes))
    if args.trace:
        header = {"workload": args.workload, "seed": args.seed, "sizes": sizes}
        result = measure_traced(text, args.trace_out, header)
    else:
        result = measure(text)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
