"""Out-of-process instrumentation of semroute for the traced benchmark run.

Nothing in semroute knows about tracing.  The tracer replaces module
attributes (for example `semroute.routing.sem_match`) with wrappers, which
the callers pick up because they look those names up at call time:

- spans, with name, script action, parent, start and end, for the handler
  level and above (`sim.run`, one span per script action, the message
  dispatch and each handler);
- plain counters, and for a few calls an accumulated time, for relation
  calls, which run into the millions and would be distorted by a span each.

Spans stay in memory; `write` stores them at the end.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

import semroute.routing
import semroute.semantic
import semroute.sim

# Relation and helper calls counted by name: (module, attribute, counter).
COUNTED = (
    (semroute.sim, "parse_advertisement", "model.parse"),
    (semroute.sim, "parse_subscription", "model.parse"),
    (semroute.sim, "parse_event", "model.parse"),
    (semroute.routing, "covers", "syntactic.covers"),
    (semroute.routing, "intersects", "syntactic.intersects"),
    (semroute.routing, "sem_covers", "semantic.sem_covers"),
    (semroute.semantic, "augment", "semantic.augment"),
    (semroute.semantic, "apply_mapping", "knowledge.apply_mapping"),
)
# Relations whose true results are counted too.
COUNTED_TRUE = (
    (semroute.routing, "sem_match", "semantic.sem_match"),
    (semroute.routing, "match_event", "syntactic.match_event"),
    # The oracle matches through the simulator module's own imports.
    (semroute.sim, "sem_match", "sim.oracle"),
    (semroute.sim, "match_event", "sim.oracle"),
)
# Calls counted and timed: few enough that two clock reads do not matter.
TIMED = (
    (semroute.sim, "load_knowledge", "knowledge.load"),
    # A scenario without knowledge gets `KnowledgeBase.empty()` instead.
    (semroute.sim.KnowledgeBase, "empty", "knowledge.load"),
    (semroute.semantic, "normalize_advertisement", "semantic.normalize_advertisement"),
    (semroute.routing, "sem_intersects", "semantic.sem_intersects"),
)
SPANNED = (
    (semroute.sim, "handle_message", "routing.handle_message"),
    (semroute.routing, "handle_advertise", "routing.handle_advertise"),
    (semroute.routing, "handle_subscribe", "routing.handle_subscribe"),
    (semroute.routing, "handle_publish", "routing.handle_publish"),
)

# Span fields, in the order a span list holds them.
NAME, ACTION, PARENT, START, END = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.action: int | None = None
        self.max_table = 0
        self._originals: list[tuple[Any, str, Any]] = []

    # -- wrappers ---------------------------------------------------------

    def begin(self, name: str) -> list[Any]:
        parent = self.stack[-1] if self.stack else -1
        span = [name, self.action, parent, time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list[Any]) -> None:
        span[END] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_true(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        true_name = name + ".true"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if result:
                counts[true_name] += 1
            return result

        return wrapper

    def _timed(self, name: str, fn: Callable) -> Callable:
        counts, times, clock = self.counts, self.times, time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += clock() - start

        return wrapper

    def _table_tracking(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            state, out = fn(*args, **kwargs)
            self.max_table = max(self.max_table, len(state.subscriptions))
            return state, out

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        # The raw attribute, so that a classmethod is put back as one.
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for module, attr, name in COUNTED:
            self._patch(module, attr, self._counted(name, getattr(module, attr)))
        for module, attr, name in COUNTED_TRUE:
            self._patch(module, attr, self._counted_true(name, getattr(module, attr)))
        for module, attr, name in TIMED:
            self._patch(module, attr, self._timed(name, getattr(module, attr)))
        for module, attr, name in SPANNED:
            wrapped = self.spanned(name, getattr(module, attr))
            if attr == "handle_subscribe":
                wrapped = self._table_tracking(wrapped)
            self._patch(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def traced_scenario(self, scenario: semroute.sim.Scenario) -> semroute.sim.Scenario:
        """The same scenario whose script opens one span per action while
        `sim.run` iterates over it."""
        return replace(scenario, script=_TracedScript(self, scenario.script))

    def take_phase(self) -> tuple[Counter, Counter]:
        """Counters and times since the previous call, then reset."""
        taken = (self.counts.copy(), self.times.copy())
        self.counts.clear()
        self.times.clear()
        return taken

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, p50 and p99 in us."""
        durations: dict[str, list[float]] = {}
        self_s: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            durations.setdefault(span[NAME], []).append(span[END] - span[START])
            self_s[span[NAME]] += own
        out = {}
        for name, values in durations.items():
            values.sort()
            out[name] = {
                "calls": len(values),
                "total_s": sum(values),
                "self_s": self_s[name],
                "p50_us": statistics.median(values) * 1e6,
                "p99_us": values[min(len(values) - 1, int(len(values) * 0.99))] * 1e6,
            }
        return out

    def write(self, path: Path, header: dict) -> None:
        """Gzipped JSON lines: the header, then one object per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": span[NAME],
                    "action": span[ACTION],
                    "parent": span[PARENT],
                    "start_us": round((span[START] - origin) * 1e6, 3),
                    "end_us": round((span[END] - origin) * 1e6, 3),
                }
                out.write(json.dumps(record) + "\n")


class _TracedScript(tuple):
    """A script tuple whose iteration opens a span around each action."""

    def __new__(cls, tracer: Tracer, actions: tuple):
        script = super().__new__(cls, actions)
        script.tracer = tracer
        return script

    def __iter__(self):
        tracer = self.tracer
        for index, action in enumerate(tuple.__iter__(self)):
            tracer.action = index
            span = tracer.begin("sim.action." + action.kind.value.lower())
            try:
                yield action
            finally:
                tracer.end(span)
                tracer.action = None
