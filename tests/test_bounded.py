"""Every small scenario, exhaustively: a bounded referee.

Each scope fixes the path b1-b2-b3 with one client per broker (c1, c2, c3)
and an alphabet of actions any client may take.  A document is every script
of one to three (client, action) steps that ends in a publish and that
`load_scenario` accepts: each publish needs an earlier advertisement of the
same client that admits it.  Every document is graded with `verify`.

Failures are classified, not filtered.  Both known delivery defects show in
these scopes, and nothing else does:

- every FAIL is a stale subscription: moving the document's advertisements
  to the front of its script leaves no FAIL;
- every MAPPING_GAP client subscribed to the mapping's output attribute,
  and is on another broker than the publisher.

A new kind of failure fails the test, and the counts below change when a
fix lands.
"""

import itertools
from dataclasses import replace

import pytest

from semroute.routing import MessageKind
from semroute.sim import (
    ScenarioError,
    Verdict,
    load_scenario,
    oracle_deliveries,
    verify,
)

from .bruteforce import sem_match_oracle

BROKERS = ["b1", "b2", "b3"]
EDGES = [["b1", "b2"], ["b2", "b3"]]
CLIENTS = [{"id": f"c{i}", "broker": f"b{i}"} for i in (1, 2, 3)]
MAX_ACTIONS = 3

SYNTACTIC_ALPHABET = [
    ("advertise", "(x >= 0)"),
    ("advertise", "(x = 1)"),
    ("subscribe", "(x = 1)"),
    ("subscribe", "(x > 0)"),
    ("subscribe", "(x != 1)"),
    ("subscribe", "(x < 2)"),
    ("publish", "{(x, 1)}"),
    ("publish", "{(x, 0)}"),
    ("publish", "{(x, 2)}"),
]

# One synonym (`bb` for `b`), one hierarchy edge (`b` under `a`) and one
# mapping (`y = x + 1`).
KNOWLEDGE = {
    "synonyms": [{"root": "b", "members": ["bb"]}],
    "hierarchy": [{"child": "b", "parent": "a"}],
    "mappings": [
        {
            "name": "next",
            "inputs": ["x"],
            "output": "y",
            "body": {"kind": "linear", "input": "x", "scale": 1, "offset": 1},
        }
    ],
}
MAPPING_OUTPUT = "y"
SEMANTIC_ALPHABET = [
    ("advertise", '(x >= 0) AND (t = "b")'),
    ("advertise", "(x = 1)"),
    ("subscribe", "(y = 2)"),
    ("subscribe", "(x = 1)"),
    ("subscribe", '(t = "a")'),
    ("subscribe", "(y > 0)"),
    ("publish", "{(x, 1)}"),
    ("publish", '{(x, 1), (t, "bb")}'),
]

# The synonym and value hierarchy of `KNOWLEDGE`, an attribute hierarchy
# (`s` under `t`) and no mapping: `!=` on strings and booleans, with values
# and attributes lifted.
HIERARCHY_KNOWLEDGE = {
    "synonyms": [{"root": "b", "members": ["bb"]}],
    "hierarchy": [{"child": "b", "parent": "a"}, {"child": "s", "parent": "t"}],
}
HIERARCHY_ALPHABET = [
    ("advertise", '(s = "b") AND (s = true)'),
    ("advertise", '(t != "a")'),
    ("subscribe", '(t = "a")'),
    ("subscribe", '(t != "b")'),
    ("subscribe", '(s != "bb")'),
    ("subscribe", "(t != true)"),
    ("publish", '{(s, "bb")}'),
    ("publish", "{(s, true)}"),
    ("publish", '{(t, "a")}'),
]

# mode, knowledge, alphabet, documents that load, and their verdicts.
SCOPES = {
    "syntactic": (
        "syntactic",
        None,
        SYNTACTIC_ALPHABET,
        456,
        {"PASS": 396, "FAIL": 60},
    ),
    "semantic": (
        "semantic",
        KNOWLEDGE,
        SEMANTIC_ALPHABET,
        333,
        {"PASS": 237, "MAPPING_GAP": 72, "FAIL": 24},
    ),
    "hierarchy": (
        "semantic",
        HIERARCHY_KNOWLEDGE,
        HIERARCHY_ALPHABET,
        444,
        {"PASS": 372, "FAIL": 72},
    ),
}


def document(mode, knowledge, script):
    doc = {"brokers": BROKERS, "edges": EDGES, "clients": CLIENTS, "mode": mode}
    if knowledge is not None:
        doc["knowledge"] = knowledge
    doc["script"] = [
        {"action": action, "client": client, "payload": payload}
        for client, (action, payload) in script
    ]
    return doc


def scripts(alphabet, max_actions):
    """Every script of up to `max_actions` steps that ends in a publish."""
    steps = [(c["id"], action) for c in CLIENTS for action in alphabet]
    for n in range(1, max_actions + 1):
        for script in itertools.product(steps, repeat=n):
            if script[-1][1][0] == "publish":
                yield script


def loaded(mode, knowledge, alphabet, max_actions):
    """Each script that loads, with its scenario."""
    for script in scripts(alphabet, max_actions):
        try:
            yield script, load_scenario(document(mode, knowledge, script))
        except ScenarioError:
            continue


def bruteforce_deliveries(scenario, kb):
    """The oracle's delivery set, matched by closure expansion instead."""
    expected = set()
    active = []
    for action in scenario.script:
        if action.kind is MessageKind.SUBSCRIBE:
            active.append((action.frm, action.payload))
        elif action.kind is MessageKind.PUBLISH:
            expected.update(
                (client, action.index)
                for client, sub in active
                if sem_match_oracle(kb, action.payload, sub)
            )
    return expected


@pytest.mark.parametrize("scope", SCOPES)
def test_every_small_scenario(scope):
    check_scope(*SCOPES[scope], MAX_ACTIONS)


def check_scope(mode, knowledge, alphabet, n_documents, verdicts, max_actions):
    """Grade every document of the scope and check each invariant."""
    seen = {}
    count = 0
    for script, scenario in loaded(mode, knowledge, alphabet, max_actions):
        count += 1
        report = verify(scenario)
        seen[report.verdict] = seen.get(report.verdict, 0) + 1
        assert report.spurious == (), script
        assert verify(scenario).to_json() == report.to_json(), script

        # The oracle itself, graded against closure expansion over the
        # knowledge base without its mappings (all of it when it has none).
        bare = scenario.kb.without_mappings()
        expected = bruteforce_deliveries(scenario, bare)
        assert oracle_deliveries(replace(scenario, kb=bare)) == expected, script

        if report.verdict == Verdict.FAIL.value:
            front = sorted(script, key=lambda step: step[1][0] != "advertise")
            reordered = verify(load_scenario(document(mode, knowledge, front)))
            assert reordered.verdict != Verdict.FAIL.value, script
        elif report.verdict == Verdict.MAPPING_GAP.value:
            subscribed_to_output = {
                action.frm
                for action in scenario.script
                if action.kind is MessageKind.SUBSCRIBE
                and MAPPING_OUTPUT in {p.attribute for p in action.payload.predicates}
            }
            missed = {client for client, _ in report.missing}
            assert missed <= subscribed_to_output, script
            # A client on the publisher's broker needs no forwarding decision.
            home = {
                action.index: scenario.clients[action.frm]
                for action in scenario.script
                if action.kind is MessageKind.PUBLISH
            }
            assert all(
                scenario.clients[c] != home[i] for c, i in report.missing
            ), script
    assert count == n_documents
    assert seen == verdicts
