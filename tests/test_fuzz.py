"""Fuzz the two JSON loaders and the three entity text parsers.

Each loader example starts from a document that loads and replaces one to
three of its positions with a leaf: an empty or short string, a number, a
boolean, null, `[]` or `{}`.  A loader must return a value or raise its own
error; nothing else may escape.  A knowledge base that loads must then be
usable for matching.

Each parser example is text built from grammar tokens, in entity shape or
in any order, with stray characters spliced in.  A parser must return an
entity or raise `ParseError`, and an entity it returns must parse back from
its rendered text to an equal entity.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from semroute.knowledge import KnowledgeError, MappingEvaluationError, load_knowledge
from semroute.model import (
    ParseError,
    parse_advertisement,
    parse_event,
    parse_subscription,
    render,
)
from semroute.semantic import sem_covers, sem_intersects, sem_match
from semroute.sim import ScenarioError, load_scenario

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)

LEAVES = st.one_of(
    st.just(""),
    st.text(alphabet="aB \x00", min_size=1, max_size=3),
    st.integers(-3, 3),
    st.sampled_from([2**63, -(2**63) - 1]),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.booleans(),
    st.none(),
    st.builds(list),
    st.builds(dict),
)

KNOWLEDGE = {
    "synonyms": [{"root": "x", "members": ["y", "z"]}],
    "hierarchy": [{"child": "a", "parent": "b"}, {"child": "b", "parent": "c"}],
    "mappings": [
        {
            "name": "r",
            "inputs": ["a", "x"],
            "guard": {"attribute": "x", "op": "=", "value": "a"},
            "output": "d",
            "body": {"kind": "rename", "input": "a"},
        },
        {"name": "k", "inputs": ["a"], "output": "e",
         "body": {"kind": "const", "value": "b"}},
        {"name": "l", "inputs": ["a"], "output": "f",
         "body": {"kind": "linear", "input": "a", "scale": 2, "offset": 1}},
        {"name": "t", "inputs": ["a"], "output": "g",
         "body": {"kind": "years_since", "input": "a"}},
    ],
    "reference_year": 2003,
}

SCENARIO = {
    "brokers": ["b1", "b2"],
    "edges": [["b1", "b2"]],
    "clients": [{"id": "p", "broker": "b1"}, {"id": "s", "broker": "b2"}],
    "knowledge": {"synonyms": [{"root": "x", "members": ["y"]}]},
    "mode": "semantic",
    "seed": 1,
    "script": [
        {"action": "advertise", "client": "p", "payload": "(x >= 0)"},
        {"action": "subscribe", "client": "s", "payload": '(x = "y")'},
        {"action": "publish", "client": "p", "payload": "{(x, 1)}"},
    ],
}

EVENTS = [
    parse_event('{(x, "y"), (a, 10), (w, "a")}'),
    parse_event('{(b, "a"), (a, 4611686018427387904), (x, "a")}'),
]
SUBSCRIPTIONS = [
    parse_subscription(text)
    for text in ['(x = "z")', '(w = "c")', "(f > 0)", "(d >= 1) AND (g != 2)"]
]
ADVERTISEMENT = parse_advertisement('(x = "y") AND (w = "a") AND (a >= 0)')


def positions(node, path=()):
    """The path to every value inside a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from positions(child, path + (key,))


def replaced(document, edits):
    """A copy of `document` with each (path, leaf) edit applied in turn; an
    edit whose path an earlier one removed is skipped."""
    document = copy.deepcopy(document)
    for path, leaf in edits:
        node = document
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]]
        except (LookupError, TypeError):
            continue
        node[path[-1]] = leaf
    return document


def mutants(document):
    edit = st.tuples(st.sampled_from(list(positions(document))), LEAVES)
    return st.lists(edit, min_size=1, max_size=3).map(
        lambda edits: replaced(document, edits)
    )


def test_base_documents_load():
    load_knowledge(KNOWLEDGE)
    load_scenario(SCENARIO)


@FUZZ
@given(mutants(KNOWLEDGE))
def test_knowledge_loader_raises_only_knowledge_error(document):
    try:
        kb = load_knowledge(document)
    except KnowledgeError:
        return
    for sub in SUBSCRIPTIONS:
        sem_intersects(ADVERTISEMENT, sub, kb)
        for other in SUBSCRIPTIONS:
            sem_covers(sub, other, kb)
        for event in EVENTS:
            try:
                sem_match(event, sub, kb)
            except MappingEvaluationError:
                pass


@FUZZ
@given(mutants(SCENARIO))
def test_scenario_loader_raises_only_scenario_error(document):
    try:
        load_scenario(document)
    except ScenarioError:
        pass


# Text parser fuzzing ------------------------------------------------------

CHARACTERS = 'aZ \\"\x00\n'
QUOTED = st.one_of(
    st.text(alphabet=CHARACTERS, min_size=1, max_size=4).map(
        lambda t: '"' + t.replace("\\", "\\\\").replace('"', '\\"') + '"'
    ),
    # Unescaped: stray escapes and unbalanced quotes.
    st.text(alphabet=CHARACTERS, max_size=4).map(lambda t: f'"{t}"'),
)
BAREWORDS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,3}", fullmatch=True)
ATTRIBUTES = st.one_of(BAREWORDS, QUOTED)
VALUES = st.one_of(
    QUOTED,
    st.integers(-(2**64), 2**64).map(str),
    st.sampled_from(["true", "FALSE", "9" * 5000, "-" + "0" * 30 + "1", "x"]),
)
OPERATORS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
PAIRS = st.builds("({}, {})".format, ATTRIBUTES, VALUES)
PREDICATES = st.builds("({} {} {})".format, ATTRIBUTES, OPERATORS, VALUES)
TOKENS = st.one_of(
    st.sampled_from(["{", "}", "(", ")", ",", "AND", "and"]),
    OPERATORS,
    VALUES,
    st.text(max_size=2),
    st.sampled_from(["\x00", "\\", '"', "\t", "é"]),
)
SHAPED = st.one_of(
    st.lists(PAIRS, min_size=1, max_size=3).map(lambda ps: "{" + ", ".join(ps) + "}"),
    st.lists(PREDICATES, min_size=1, max_size=3).map(" AND ".join),
    st.lists(st.tuples(TOKENS, st.sampled_from(["", " "])), max_size=10).map(
        lambda parts: "".join(token + gap for token, gap in parts)
    ),
)


def spliced(text, edits):
    """`text` with each (position, junk) edit inserted, positions wrapping."""
    for position, junk in edits:
        position %= len(text) + 1
        text = text[:position] + junk + text[position:]
    return text


TEXTS = st.builds(
    spliced, SHAPED, st.lists(st.tuples(st.integers(0, 60), TOKENS), max_size=2)
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(TEXTS)
def test_text_parsers_raise_only_parse_error(text):
    for parse in (parse_event, parse_subscription, parse_advertisement):
        try:
            entity = parse(text)
        except ParseError:
            continue
        assert parse(render(entity)) == entity
