"""Deterministic scenario-driven simulation of the broker overlay.

A scenario file is a JSON object:

    {
      "brokers": ["b1", "b2"],
      "edges": [["b1", "b2"]],
      "clients": [{"id": "pub", "broker": "b1"}],
      "knowledge": "kb.json",          // path, inline object, or omitted
      "mode": "semantic",
      "seed": 7,                       // optional, echoed into the report
      "script": [
        {"action": "advertise", "client": "pub", "payload": "(x = 1)"},
        {"action": "subscribe", "client": "sub", "payload": "(x = 1)"},
        {"action": "publish", "client": "pub", "payload": "{(x, 1)}"}
      ]
    }

Ids and script payloads are non-empty JSON strings; payloads use the entity
text grammar.  The loader checks that the edges form a tree, that every
reference resolves, and that each publish is preceded by an advertisement
from the same client that admits the event over `relation_knowledge`.  It
keeps each broker's neighbours and each client's home broker, and resolves
each action to its first message: the parsed payload sent by the client to
its home broker.

`run` executes the script with logical time only: each action's message
cascade runs to quiescence before the next action starts.  Within a
cascade, order changes no report: the overlay is a tree and every handler
forwards away from the sender, so a cascade reaches each broker at most
once, brokers share no mutable state, and what they keep on shared entities
depends only on the entity and the knowledge base.  `verify` compares the
run's deliveries against a centralized matcher that ignores topology; a
deficit explainable only by mapping-dependent subscriptions (which
relation-based forwarding cannot anticipate) is reported as MAPPING_GAP
rather than FAIL, unless a missed client is on the publisher's own broker,
where a delivery needs no forwarding decision.
"""

from __future__ import annotations

import enum
import json
import random
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from .knowledge import KnowledgeBase, KnowledgeError, load_knowledge
from .model import (
    Advertisement,
    ParseError,
    Subscription,
    excerpt,
    list_field,
    parse_advertisement,
    parse_event,
    parse_subscription,
    read_document,
    read_file,
    read_name,
    read_object,
)
from .routing import BrokerState, Message, MessageKind, handle_message
from .semantic import (
    augmented_implied,
    normalize_subscription,
    sem_admits,
    subscription_attributes,
)
from .syntactic import all_implied
# Nothing here calls `sem_match` or `match_event`; `bench/tracing.py`
# patches them by name.
from .semantic import match_event, sem_match  # noqa: F401


class ScenarioError(ValueError):
    """Raised for scenario documents that fail validation."""


class Verdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    MAPPING_GAP = "MAPPING_GAP"


class RoutingMode(enum.Enum):
    SYNTACTIC = "syntactic"
    SEMANTIC = "semantic"


def relation_knowledge(mode: RoutingMode, kb: KnowledgeBase) -> KnowledgeBase:
    """The relations' knowledge base: `kb` semantically, empty syntactically."""
    return kb if mode is RoutingMode.SEMANTIC else KnowledgeBase.empty()


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; its relations use `relation_knowledge(mode, kb)`."""

    brokers: tuple[str, ...]
    # Each broker's neighbour brokers, sorted.
    neighbors: dict[str, tuple[str, ...]]
    # Each client's home broker.
    clients: dict[str, str]
    kb: KnowledgeBase
    mode: RoutingMode
    # Each action as the message its client sends to its home broker; a
    # publish carries its position among the script's publishes as `index`.
    script: tuple[Message, ...]
    seed: Optional[int] = None

    def with_mode(self, mode: RoutingMode) -> "Scenario":
        """Same scenario under another relation set.

        Load-time validation ran under the declared mode; switching modes
        here re-checks nothing, so a scenario valid only semantically can
        still be inspected syntactically.
        """
        return replace(self, mode=mode)


@dataclass(frozen=True)
class SimReport:
    mode: str
    seed: Optional[int]
    deliveries: tuple[tuple[str, int], ...]
    counts: dict
    suppressed_subscriptions: int
    gated_subscriptions: int
    verdict: str = "UNVERIFIED"
    missing: tuple[tuple[str, int], ...] = ()
    spurious: tuple[tuple[str, int], ...] = ()
    # Work counts, summed over the brokers, that `to_json` and `to_table`
    # leave out: subscriptions a publication was tested against, and the
    # links those tests matched.
    publish_tests: int = 0
    matched_links: int = 0

    def to_json(self) -> str:
        doc = {
            "mode": self.mode,
            "seed": self.seed,
            "deliveries": [list(d) for d in self.deliveries],
            "counts": self.counts,
            "suppressed_subscriptions": self.suppressed_subscriptions,
            "gated_subscriptions": self.gated_subscriptions,
            "verdict": self.verdict,
            "diffs": {
                "missing": [list(d) for d in self.missing],
                "spurious": [list(d) for d in self.spurious],
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        lines = [
            f"mode        {self.mode}",
            f"verdict     {self.verdict}",
            f"deliveries  {len(self.deliveries)}",
            f"suppressed  {self.suppressed_subscriptions}",
            f"gated       {self.gated_subscriptions}",
        ]
        for kind in sorted(self.counts):
            total = sum(self.counts[kind].values())
            lines.append(f"{kind.lower():<11} {total}")
        for client, idx in self.deliveries:
            lines.append(f"notify      {client} event {idx}")
        return "\n".join(lines) + "\n"


def _require(condition: bool, message: str) -> None:
    """For fixed messages: one quoting input is raised where it is formatted,
    so that it is formatted only when the input is rejected."""
    if not condition:
        raise ScenarioError(message)


def _name(raw: object, what: str) -> str:
    return read_name(raw, what, ScenarioError)


def _tree(
    brokers: tuple[str, ...], edges: list[tuple[str, str]]
) -> dict[str, tuple[str, ...]]:
    """Each broker's sorted neighbours, once the edges are checked to form a
    tree over the brokers."""
    _require(len(edges) == len(brokers) - 1, "edges must form a tree")
    adjacency: dict[str, list[str]] = {b: [] for b in brokers}
    for a, b in edges:
        if a not in adjacency or b not in adjacency:
            raise ScenarioError(f"edge ({excerpt(a)}, {excerpt(b)}) off the broker set")
        if a == b:
            raise ScenarioError(f"self-edge on {excerpt(a)}")
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {brokers[0]}
    frontier = [brokers[0]]
    while frontier:
        node = frontier.pop()
        for peer in adjacency[node]:
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    _require(len(seen) == len(brokers), "topology is not connected")
    return {b: tuple(sorted(peers)) for b, peers in adjacency.items()}


def load_scenario(
    document: Union[bytes, str, dict], base_dir: Optional[Path] = None
) -> Scenario:
    """Parse and validate a scenario document.

    `base_dir` anchors a relative knowledge path; inline knowledge objects
    need no anchor.
    """
    known = {"brokers", "edges", "clients", "knowledge", "mode", "seed", "script"}
    data = read_document(document, ScenarioError, "scenario", known)

    brokers = tuple(
        _name(b, "broker id") for b in list_field(data, "brokers", ScenarioError)
    )
    _require(len(brokers) > 0, "at least one broker required")
    _require(len(set(brokers)) == len(brokers), "duplicate broker id")

    raw_edges = list_field(data, "edges", ScenarioError)
    _require(
        all(isinstance(e, list) and len(e) == 2 for e in raw_edges),
        "edges must be pairs",
    )
    neighbors = _tree(
        brokers, [(_name(a, "edge end"), _name(b, "edge end")) for a, b in raw_edges]
    )

    clients: dict[str, str] = {}
    for i, raw in enumerate(list_field(data, "clients", ScenarioError)):
        raw = read_object(raw, ("id", "broker"), (), ScenarioError, f"clients[{i}]")
        cid = _name(raw["id"], "client id")
        broker = _name(raw["broker"], f"clients[{i}]: broker")
        if broker not in neighbors:
            raise ScenarioError(
                f"client {excerpt(cid)} on unknown broker {excerpt(broker)}"
            )
        if cid in neighbors:
            raise ScenarioError(f"client id {excerpt(cid)} collides with a broker")
        _require(cid not in clients, "duplicate client id")
        clients[cid] = broker

    knowledge = data.get("knowledge")
    if knowledge is None:
        kb = KnowledgeBase.empty()
    else:
        if isinstance(knowledge, str):
            path = Path(knowledge)
            if not path.is_absolute() and base_dir is not None:
                path = base_dir / path
            knowledge = read_file(path, ScenarioError, "knowledge file")
        elif not isinstance(knowledge, dict):
            raise ScenarioError("knowledge must be a path or an object")
        try:
            kb = load_knowledge(knowledge)
        except KnowledgeError as err:
            raise ScenarioError(f"bad knowledge document: {err}") from None

    mode_text = data.get("mode", "syntactic")
    try:
        mode = RoutingMode(mode_text)
    except ValueError:
        raise ScenarioError(f"unknown mode {excerpt(mode_text)}") from None
    admission_kb = relation_knowledge(mode, kb)

    seed = data.get("seed")
    if seed is not None:
        _require(
            isinstance(seed, int) and not isinstance(seed, bool), "seed must be an integer"
        )

    parsers = {
        "advertise": (MessageKind.ADVERTISE, parse_advertisement),
        "subscribe": (MessageKind.SUBSCRIBE, parse_subscription),
        "publish": (MessageKind.PUBLISH, parse_event),
    }
    script: list[Message] = []
    publish_count = 0
    advertised: dict[str, list[Advertisement]] = {c: [] for c in clients}
    for i, raw in enumerate(list_field(data, "script", ScenarioError)):
        where = f"script[{i}]"
        raw = read_object(raw, ("action", "client", "payload"), (), ScenarioError, where)
        action = raw["action"]
        if not (isinstance(action, str) and action in parsers):
            raise ScenarioError(f"{where}: unknown action {excerpt(action)}")
        client = _name(raw["client"], f"{where}: client")
        if client not in clients:
            raise ScenarioError(f"{where}: unknown client {excerpt(client)}")
        text = _name(raw["payload"], f"{where}: payload")
        kind, parser = parsers[action]
        try:
            payload = parser(text)
        except ParseError as err:
            raise ScenarioError(f"{where}: {err}") from None
        index = None
        if kind is MessageKind.PUBLISH:
            if not sem_admits(advertised[client], payload, admission_kb):
                raise ScenarioError(
                    f"{where}: publish by {excerpt(client)} not admitted by any"
                    " of its prior advertisements"
                )
            index = publish_count
            publish_count += 1
        elif kind is MessageKind.ADVERTISE:
            advertised[client].append(payload)
        script.append(Message(kind, payload, frm=client, to=clients[client], index=index))

    return Scenario(
        brokers=brokers,
        neighbors=neighbors,
        clients=clients,
        kb=kb,
        mode=mode,
        script=tuple(script),
        seed=seed,
    )


def run(
    scenario: Scenario,
    covering_suppression: bool = True,
    advertisement_gating: bool = True,
) -> SimReport:
    """Execute the script and collect deliveries and per-link traffic.

    Each action's cascade is one last-in, first-out worklist, whose order is
    free only because the overlay is a tree (see the module docstring).
    """
    homed: dict[str, list[str]] = {b: [] for b in scenario.brokers}
    for cid in sorted(scenario.clients):
        homed[scenario.clients[cid]].append(cid)
    kb = relation_knowledge(scenario.mode, scenario.kb)
    states = {
        b: BrokerState(
            id=b,
            neighbors=peers,
            clients=tuple(homed[b]),
            kb=kb,
            covering_suppression=covering_suppression,
            advertisement_gating=advertisement_gating,
        )
        for b, peers in scenario.neighbors.items()
    }
    traffic: Counter = Counter()
    deliveries: set[tuple[str, int]] = set()

    for first in scenario.script:
        pending = [first]
        while pending:
            msg = pending.pop()
            traffic[msg.kind, msg.frm, msg.to] += 1
            if msg.kind is MessageKind.NOTIFY:
                deliveries.add((msg.to, msg.index))
            else:
                _, out = handle_message(states[msg.to], msg)
                pending.extend(out)

    counts: dict[str, Counter] = {kind.value: Counter() for kind in MessageKind}
    for (kind, frm, to), n in traffic.items():
        counts[kind.value][f"{frm}->{to}"] += n
    return SimReport(
        mode=scenario.mode.value,
        seed=scenario.seed,
        deliveries=tuple(sorted(deliveries)),
        counts={
            kind: dict(sorted(counter.items()))
            for kind, counter in counts.items()
            if counter
        },
        suppressed_subscriptions=sum(s.suppressed for s in states.values()),
        gated_subscriptions=sum(s.gated for s in states.values()),
        publish_tests=sum(s.publish_tests for s in states.values()),
        matched_links=sum(s.matched_links for s in states.values()),
    )


def oracle_deliveries(scenario: Scenario) -> set[tuple[str, int]]:
    """Reference delivery set from a single matcher holding every subscription.

    Topology-free: a published event is due at every client whose earlier
    subscription matches semantically over `relation_knowledge`, that is over
    the empty knowledge base in syntactic mode.  Each subscription is
    normalized once, when it becomes active, and each event augmented and
    summarised once (`augmented_implied`); over the empty knowledge base
    normalization returns each entity itself and augmentation adds
    nothing.  A subscription is tested only if the event carries all its
    attributes.  The oracle keeps no state between calls and neither reads
    nor keeps anything on the entities.
    Like routing, it never asks `sem_match`, so it neither reads nor fills
    that memo.
    """
    kb = relation_knowledge(scenario.mode, scenario.kb)
    active: list[tuple[str, frozenset[str], Subscription]] = []
    expected: set[tuple[str, int]] = set()
    for action in scenario.script:
        if action.kind is MessageKind.SUBSCRIBE:
            sub = normalize_subscription(action.payload, kb)
            attributes = subscription_attributes(sub, kb)
            active.append((action.frm, attributes, sub))
        elif action.kind is MessageKind.PUBLISH:
            implied = augmented_implied(action.payload, kb)
            carried = implied.keys()
            for client, attributes, sub in active:
                if attributes <= carried and all_implied(sub.predicates, implied):
                    expected.add((client, action.index))
    return expected


def _mapping_explains(
    scenario: Scenario, missing: tuple[tuple[str, int], ...]
) -> bool:
    """True iff every miss hinges on mapping functions, whose outputs only
    add values: the oracle over the knowledge base without its mappings
    expects none of them, so no relation-driven forwarding could have routed
    them (the documented blind spot, not a routing defect).  Syntactic mode,
    which has no mappings, explains no miss, and neither does a miss at a
    client on the publisher's own broker: a local delivery needs no
    forwarding decision."""
    kb = relation_knowledge(scenario.mode, scenario.kb)
    if not kb.mappings:
        return False
    # Each publication's first message goes to its publisher's home broker.
    home = {a.index: a.to for a in scenario.script if a.kind is MessageKind.PUBLISH}
    if any(scenario.clients[client] == home[index] for client, index in missing):
        return False
    bare = replace(scenario, kb=kb.without_mappings())
    return oracle_deliveries(bare).isdisjoint(missing)


def verify(scenario: Scenario) -> SimReport:
    """Run the scenario and grade its deliveries against the oracle."""
    report = run(scenario)
    expected = oracle_deliveries(scenario)
    got = set(report.deliveries)
    missing = tuple(sorted(expected - got))
    spurious = tuple(sorted(got - expected))
    if not missing and not spurious:
        verdict = Verdict.PASS
    elif not spurious and _mapping_explains(scenario, missing):
        verdict = Verdict.MAPPING_GAP
    else:
        verdict = Verdict.FAIL
    return replace(
        report, verdict=verdict.value, missing=missing, spurious=spurious
    )


_INT_ATTRS = ("price", "size", "grade")


def random_scenario_document(seed: int) -> dict:
    """Generate a self-contained, mapping-free scenario document.

    The generator keeps every scenario inside the completeness envelope of
    the routing design: all advertisements precede subscriptions and
    publishes (stored subscriptions are not re-forwarded when a new
    advertisement arrives), and advertisements admit every event their
    client later publishes.  Inequality predicates use integers only, which
    routing does not need: an inequality over a synonym of the compared
    term can be satisfied syntactically yet fail after normalization, and
    integers alone keep the two modes' delivery sets in the containment
    order that `test_syntactic_deliveries_contained_in_semantic` checks.
    """
    rng = random.Random(seed)

    n_brokers = rng.randint(2, 10)
    brokers = [f"b{i}" for i in range(1, n_brokers + 1)]
    edges = [
        [brokers[rng.randrange(i)], brokers[i]] for i in range(1, n_brokers)
    ]

    n_terms = rng.randint(8, 40)
    terms = [f"t{i}" for i in range(1, n_terms + 1)]
    hierarchy = []
    for i, term in enumerate(terms):
        if i > 0 and rng.random() < 0.6:
            hierarchy.append({"child": term, "parent": terms[rng.randrange(i)]})
    synonyms = []
    alias_of: dict[str, list[str]] = {}
    for term in rng.sample(terms, k=max(1, n_terms // 4)):
        members = [f"{term}x", f"{term}y"][: rng.randint(1, 2)]
        synonyms.append({"root": term, "members": members})
        alias_of[term] = members
    knowledge = {
        "synonyms": synonyms,
        "hierarchy": hierarchy,
        "mappings": [],
        "reference_year": 2003,
    }

    term_attrs = rng.sample(terms, k=3)
    attrs = list(_INT_ATTRS) + term_attrs

    def random_value(attr: str) -> object:
        if attr in _INT_ATTRS:
            return rng.randint(0, 40)
        roll = rng.random()
        if roll < 0.15:
            return rng.random() < 0.5
        term = rng.choice(terms)
        aliases = alias_of.get(term)
        if aliases and rng.random() < 0.5:
            return rng.choice(aliases)
        return term

    def value_text(value: object) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return str(value)
        return f'"{value}"'

    clients = []
    publishers = []
    subscribers = []
    counter = 0
    for broker in brokers:
        for _ in range(rng.randint(1, 2)):
            counter += 1
            cid = f"c{counter}"
            clients.append({"id": cid, "broker": broker})
            if rng.random() < 0.5:
                publishers.append(cid)
            if rng.random() < 0.7:
                subscribers.append(cid)
    if not publishers:
        publishers.append(clients[0]["id"])
    if not subscribers:
        subscribers.append(clients[-1]["id"])

    events_by_publisher: dict[str, list[list[tuple[str, object]]]] = {}
    for pub in publishers:
        events = []
        for _ in range(rng.randint(2, 10)):
            pair_attrs = rng.sample(attrs, k=rng.randint(1, 3))
            events.append([(a, random_value(a)) for a in pair_attrs])
        events_by_publisher[pub] = events

    def advertisement_for(events: list[list[tuple[str, object]]]) -> str:
        # One predicate per distinct attribute/value shape so that every
        # published pair is admitted in either mode.
        preds = []
        seen_ints = {}
        seen_exact = set()
        for event in events:
            for attr, value in event:
                if isinstance(value, bool) or not isinstance(value, int):
                    key = (attr, value)
                    if key not in seen_exact:
                        seen_exact.add(key)
                        preds.append(f"({attr} = {value_text(value)})")
                else:
                    seen_ints[attr] = min(seen_ints.get(attr, value), value)
        for attr, low in sorted(seen_ints.items()):
            preds.append(f"({attr} >= {low})")
        return " AND ".join(preds)

    def random_subscription() -> str:
        preds = []
        for attr in rng.sample(attrs, k=rng.randint(1, 3)):
            if attr in _INT_ATTRS:
                op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
                preds.append(f"({attr} {op} {rng.randint(0, 40)})")
            else:
                value = random_value(attr)
                preds.append(f"({attr} = {value_text(value)})")
        return " AND ".join(preds)

    script = []
    for pub in publishers:
        script.append(
            {
                "action": "advertise",
                "client": pub,
                "payload": advertisement_for(events_by_publisher[pub]),
            }
        )
    rng.shuffle(script)

    tail = []
    for _ in range(rng.randint(5, 40)):
        tail.append(
            {
                "action": "subscribe",
                "client": rng.choice(subscribers),
                "payload": random_subscription(),
            }
        )
    for pub, events in events_by_publisher.items():
        for event in events:
            pairs = ", ".join(f"({a}, {value_text(v)})" for a, v in event)
            tail.append(
                {"action": "publish", "client": pub, "payload": "{" + pairs + "}"}
            )
    rng.shuffle(tail)

    return {
        "seed": seed,
        "brokers": brokers,
        "edges": edges,
        "clients": clients,
        "knowledge": knowledge,
        "mode": rng.choice(["syntactic", "semantic"]),
        "script": script + tail,
    }


def generate_scenario(seed: int) -> Scenario:
    return load_scenario(random_scenario_document(seed))
