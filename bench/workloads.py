"""Seeded scenario generators for the three benchmark workloads.

Each generator returns a scenario document (the JSON object `load_scenario`
accepts); the simulator sees nothing else.  The same workload, seed and
sizes always give the same document.

- `sem-publish`: semantic mode, a knowledge base of a few hundred terms with
  synonyms and two mapping functions.  Every advertisement comes first, then
  every subscription, then three times as many distinct publications.
  Publish routing and `sem_match` dominate.
- `syn-subscribe`: syntactic mode over an empty knowledge base, a larger
  tree, many overlapping integer-range subscriptions and few publications.
  Subscribe handling (covering, gating, table growth) dominates and the
  semantic layer does no work.
- `sem-churn`: semantic mode with advertisements arriving among the
  subscriptions and publications, so tables are written while they are
  read.  Some subscriptions precede the advertisement they need, and a few
  name a mapping output attribute, so known routing gaps show as missed
  deliveries.

Two generators draw each document.  `shape`, seeded by the workload name
alone, fixes the script's skeleton: the tree, where publishers and
subscribers sit, the order of actions and each entity's shape (which
attributes, how many predicates, which operator, how deep a term, which
range).  `rng`, seeded by the workload and the seed, picks the content:
the knowledge base and every term and value.  A few broad subscriptions
decide much of the routing work, so drawing shapes per seed made the work
itself vary by a quarter between seeds; with a fixed skeleton the spread
between seeds measures the program rather than the draw.
"""

from __future__ import annotations

import random
from typing import Callable

Pairs = list[tuple[str, object]]
Preds = list[tuple[str, str, object]]

INT_ATTRS = ("price", "size", "grade")
YEAR_LOW, YEAR_HIGH = 1960, 2000
REFERENCE_YEAR = 2003
# String attributes and the hierarchy among them.
ATTRS = ("k0", "k1", "k2", "k3", "k4", "k5")
ATTR_PARENTS = {"k3": "k0", "k4": "k1", "k5": "k2"}
# Depth of the value term a subscription names: 0 is a top-level term that
# many event values descend from, 3 a leaf.
SUB_DEPTHS = (0, 0, 1, 1, 2, 3)


def _tree(n: int) -> tuple[list[str], list[list[str]]]:
    """A complete ternary tree."""
    brokers = [f"b{i}" for i in range(n)]
    return brokers, [[brokers[(i - 1) // 3], brokers[i]] for i in range(1, n)]


def _clients(brokers: list[str]) -> list[dict]:
    """Two clients on every broker."""
    return [
        {"id": f"c{2 * i + j}", "broker": broker}
        for i, broker in enumerate(brokers)
        for j in range(2)
    ]


def _quoted(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f'"{value}"'


def _event_text(pairs: Pairs) -> str:
    return "{" + ", ".join(f"({a}, {_quoted(v)})" for a, v in pairs) + "}"


def _conjunction(preds: Preds) -> str:
    return " AND ".join(f"({a} {op} {_quoted(v)})" for a, op, v in preds)


def _distinct_events(make: Callable[..., Pairs], shapes: list[tuple]) -> list[Pairs]:
    """One event per shape, drawing its content again until its text is new."""
    seen: set[str] = set()
    events = []
    for shape in shapes:
        while True:
            event = make(*shape)
            text = _event_text(event)
            if text not in seen:
                break
        seen.add(text)
        events.append(event)
    return events


class _Knowledge:
    """A layered term forest with synonyms, and attributes over it.

    Value terms sit on four levels.  Each term below the top level has one
    parent on the level above, and parents on a level have equally many
    children (give or take one), so terms of one level are equally broad.
    """

    def __init__(self, rng: random.Random, n_terms: int):
        self.rng = rng
        sizes = [max(1, round(n_terms * share)) for share in (0.08, 0.16, 0.28)]
        sizes.append(max(1, n_terms - sum(sizes)))
        self.levels: list[list[str]] = []
        self.parent: dict[str, str] = dict(ATTR_PARENTS)
        for depth, size in enumerate(sizes):
            level = [f"t{depth}x{i}" for i in range(size)]
            if self.levels:
                above = self.levels[-1]
                parents = [above[i % len(above)] for i in range(size)]
                rng.shuffle(parents)
                self.parent.update(zip(level, parents))
            self.levels.append(level)
        self.event_terms = self.levels[-1] + self.levels[-2]
        terms = [t for level in self.levels for t in level]
        self.aliases: dict[str, list[str]] = {}
        for term in rng.sample(terms + list(ATTRS), k=len(terms) // 5):
            self.aliases[term] = [f"{term}s{j}" for j in range(rng.randint(1, 2))]
        self.root_of = {a: r for r, members in self.aliases.items() for a in members}

    def document(self) -> dict:
        return {
            "synonyms": [
                {"root": root, "members": members}
                for root, members in self.aliases.items()
            ],
            "hierarchy": [
                {"child": child, "parent": parent}
                for child, parent in self.parent.items()
            ],
            "mappings": [
                {
                    "name": "seniority",
                    "inputs": ["exp", "grad"],
                    "guard": {"attribute": "exp", "op": "=", "value": True},
                    "output": "seniority",
                    "body": {"kind": "years_since", "input": "grad"},
                },
                {
                    "name": "total",
                    "inputs": ["price"],
                    "output": "total",
                    "body": {"kind": "linear", "input": "price", "scale": 2, "offset": 5},
                },
            ],
            "reference_year": REFERENCE_YEAR,
        }

    def spelled(self, term: str) -> str:
        """The term itself or, three times in ten, one of its synonyms."""
        aliases = self.aliases.get(term)
        if aliases and self.rng.random() < 0.3:
            return self.rng.choice(aliases)
        return term

    def top(self, term: str) -> str:
        while term in self.parent:
            term = self.parent[term]
        return term

    def event(self, attrs: list[str], ints: list[str], career: bool) -> Pairs:
        rng = self.rng
        pairs: Pairs = [
            (self.spelled(attr), self.spelled(rng.choice(self.event_terms)))
            for attr in attrs
        ]
        pairs += [(attr, rng.randint(0, 100)) for attr in ints]
        if career:
            pairs += [("exp", rng.random() < 0.7), ("grad", rng.randint(YEAR_LOW, YEAR_HIGH))]
        return pairs

    def subscription(self, strings: list[tuple[str, str, int]], tail: Preds) -> Preds:
        """Predicates `(attr op term)` with a term of the given depth, then
        `tail`, whose ordering constants are drawn here."""
        rng = self.rng
        preds: Preds = [
            (self.spelled(attr), op, self.spelled(rng.choice(self.levels[depth])))
            for attr, op, depth in strings
        ]
        preds += [(a, op, rng.randint(*v) if isinstance(v, tuple) else v) for a, op, v in tail]
        return preds

    def advertisement(self, events: list[Pairs]) -> str:
        """One predicate per attribute and top-level value seen, so the
        advertisement admits every event of its publisher."""
        exact: dict[tuple[str, object], None] = {}
        lows: dict[str, int] = {}
        for event in events:
            for spelling, value in event:
                attr = self.root_of.get(spelling, spelling)
                if isinstance(value, bool):
                    exact[(attr, value)] = None
                elif isinstance(value, int):
                    lows[attr] = min(lows.get(attr, value), value)
                else:
                    exact[(attr, self.top(self.root_of.get(value, value)))] = None
        preds = [(a, "=", v) for a, v in exact]
        preds += [(a, ">=", low) for a, low in sorted(lows.items())]
        return _conjunction(preds)


def _subscription_shape(shape: random.Random, mapping: bool) -> tuple[list, Preds]:
    """String predicates as (attribute, operator, term depth), then the rest
    with (low, high) in place of each constant still to draw."""
    strings = [
        (attr, "!=" if shape.random() < 0.1 else "=", shape.choice(SUB_DEPTHS))
        for attr in shape.sample(ATTRS, k=shape.randint(1, 2))
    ]
    tail: Preds = []
    if shape.random() < 0.5:
        tail.append((shape.choice(INT_ATTRS), shape.choice(("<", "<=", ">", ">=")), (0, 100)))
    if shape.random() < 0.1:
        tail.append(("exp", "=", True))
    if mapping:
        if shape.random() < 0.5:
            tail.append(("seniority", ">", shape.randint(5, 30)))
        else:
            tail.append(("total", "<=", shape.randint(50, 200)))
    return strings, tail


def _semantic(
    shape: random.Random,
    rng: random.Random,
    brokers: int,
    subscriptions: int,
    publications: int,
    publishers: int,
    terms: int,
    mapping_every: int,
) -> tuple[dict, _Knowledge, list[dict], dict[str, list[Pairs]], list[dict]]:
    """The parts both semantic workloads share; the caller orders them.

    Returns the document without its script, the knowledge, the subscribe
    actions, each publisher's events and the publish actions.
    """
    broker_ids, edges = _tree(brokers)
    clients = _clients(broker_ids)
    ids = [c["id"] for c in clients]
    pubs = shape.sample(ids, k=min(publishers, len(ids)))
    event_shapes = [
        (
            shape.sample(ATTRS, k=shape.randint(1, 2)),
            shape.sample(INT_ATTRS, k=shape.randint(0, 2)),
            shape.random() < 0.3,
        )
        for _ in range(publications)
    ]
    event_pubs = [shape.choice(pubs) for _ in range(publications)]
    sub_shapes = [
        _subscription_shape(shape, mapping_every > 0 and i % mapping_every == 0)
        for i in range(subscriptions)
    ]

    kb = _Knowledge(rng, terms)
    by_publisher: dict[str, list[Pairs]] = {p: [] for p in pubs}
    stream = []
    for event, pub in zip(_distinct_events(kb.event, event_shapes), event_pubs):
        by_publisher[pub].append(event)
        stream.append({"action": "publish", "client": pub, "payload": _event_text(event)})
    subs = [
        {
            "action": "subscribe",
            "client": shape.choice(ids),
            "payload": _conjunction(kb.subscription(strings, tail)),
        }
        for strings, tail in sub_shapes
    ]
    base = {
        "brokers": broker_ids,
        "edges": edges,
        "clients": clients,
        "knowledge": kb.document(),
        "mode": "semantic",
    }
    return base, kb, subs, by_publisher, stream


def sem_publish(
    shape: random.Random,
    rng: random.Random,
    brokers: int = 40,
    subscriptions: int = 120,
    publications: int = 360,
    publishers: int = 8,
    terms: int = 300,
) -> dict:
    base, kb, subs, by_publisher, stream = _semantic(
        shape, rng, brokers, subscriptions, publications, publishers, terms, 0
    )
    ads = [
        {"action": "advertise", "client": pub, "payload": kb.advertisement(events)}
        for pub, events in by_publisher.items()
        if events
    ]
    return {**base, "script": ads + subs + stream}


def sem_churn(
    shape: random.Random,
    rng: random.Random,
    brokers: int = 40,
    subscriptions: int = 260,
    publications: int = 200,
    publishers: int = 12,
    terms: int = 300,
) -> dict:
    """Each publisher starts with its advertisement somewhere in the first
    sixth of the script, and its publications follow.  Subscriptions are
    spread evenly, so some arrive before an advertisement they need; one in
    thirty names a mapping output."""
    base, kb, subs, by_publisher, stream = _semantic(
        shape, rng, brokers, subscriptions, publications, publishers, terms, 30
    )
    start = {pub: shape.random() / 6 for pub in by_publisher}
    timed = [(shape.random(), action) for action in subs]
    for action in stream:
        begin = start[action["client"]]
        timed.append((begin + (1 - begin) * shape.random(), action))
    for pub, events in by_publisher.items():
        if events:
            ad = {"action": "advertise", "client": pub, "payload": kb.advertisement(events)}
            timed.append((start[pub], ad))
    # The advertisement sorts before anything that shares its time.
    timed.sort(key=lambda item: (item[0], item[1]["action"] != "advertise"))
    return {**base, "script": [action for _, action in timed]}


def syn_subscribe(
    shape: random.Random,
    rng: random.Random,
    brokers: int = 100,
    subscriptions: int = 1100,
    publications: int = 50,
    publishers: int = 10,
) -> dict:
    """Subscriptions are one or two integer ranges, with widths spread over
    three orders of magnitude so that many cover or overlap one another.
    Where a range sits decides how much covering work it causes, so the
    ranges belong to the skeleton; the seed picks kinds and event values."""
    broker_ids, edges = _tree(brokers)
    clients = _clients(broker_ids)
    ids = [c["id"] for c in clients]
    attrs = INT_ATTRS + ("weight",)
    kinds = [f"kind{i}" for i in range(4)]
    pubs = shape.sample(ids, k=min(publishers, len(ids)))
    ad = _conjunction([(a, ">=", 0) for a in attrs] + [("kind", "=", k) for k in kinds])
    script = [{"action": "advertise", "client": pub, "payload": ad} for pub in pubs]

    def subscription() -> str:
        preds: Preds = []
        for attr in shape.sample(attrs, k=shape.choice((1, 1, 2))):
            width = int(10 ** shape.uniform(0, 3))
            low = shape.randint(0, 1000 - width)
            preds += [(attr, ">=", low), (attr, "<=", low + width)]
        if shape.random() < 0.2:
            preds.append(("kind", "=", rng.choice(kinds)))
        return _conjunction(preds)

    def event() -> Pairs:
        return [(a, rng.randint(0, 1000)) for a in attrs] + [("kind", rng.choice(kinds))]

    tail = [
        {"action": "subscribe", "client": shape.choice(ids), "payload": subscription()}
        for _ in range(subscriptions)
    ]
    tail += [
        {"action": "publish", "client": shape.choice(pubs), "payload": _event_text(e)}
        for e in _distinct_events(event, [()] * publications)
    ]
    shape.shuffle(tail)
    return {
        "brokers": broker_ids,
        "edges": edges,
        "clients": clients,
        "mode": "syntactic",
        "script": script + tail,
    }


WORKLOADS: dict[str, Callable[..., dict]] = {
    "sem-publish": sem_publish,
    "syn-subscribe": syn_subscribe,
    "sem-churn": sem_churn,
}


def generate(workload: str, seed: int, **sizes: int) -> dict:
    """Scenario document for a workload; `sizes` override its defaults."""
    shape = random.Random(workload)
    rng = random.Random(f"{workload}:{seed}")
    return {"seed": seed, **WORKLOADS[workload](shape, rng, **sizes)}
