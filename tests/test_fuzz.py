"""Fuzz the two JSON loaders and the three entity text parsers.

Each loader example starts from a document that loads and replaces one to
three of its positions with a leaf: an empty or short string, a number, a
boolean, null, `[]` or `{}`.  A loader must return a value or raise its own
error; nothing else may escape.  A knowledge base that loads must then be
usable for matching.  Both loaders also read raw bytes: arbitrary bytes,
brackets nested deeper than the decoder recurses (alone or in place of a
value of a document that loads, as is an integer too long to convert), and
bytes that are not UTF-8 spliced into such a document.

Each parser example is text built from grammar tokens, in entity shape or
in any order, with stray characters spliced in, or an entity-shaped text
with one character inserted, deleted or replaced at a token's edge.  A
parser must return an entity or raise `ParseError`, and an entity it
returns must parse back from its rendered text to an equal entity.  The
production scanner must agree with the token parser on every text: the
same entity and id, or the same error at the same position.
"""

import copy
import functools
import itertools
import json
import operator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semroute import model
from semroute.knowledge import KnowledgeError, MappingEvaluationError, load_knowledge
from semroute.model import (
    INT_MAX,
    INT_MIN,
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


def objects(document):
    """The path to the document and to every object nested in it."""
    for path in [(), *positions(document)]:
        if isinstance(functools.reduce(operator.getitem, path, document), dict):
            yield path


def with_unknown_key(document, path):
    """A copy of `document` whose object at `path` also holds the key `zz`."""
    document = copy.deepcopy(document)
    functools.reduce(operator.getitem, path, document)["zz"] = 1
    return document


# Each object the loaders read, by its path in the document.
UNKNOWN_KEY_CASES = {
    "/".join(map(str, (name, *path))): (loader, document, error, path)
    for name, loader, document, error in [
        ("knowledge", load_knowledge, KNOWLEDGE, KnowledgeError),
        ("scenario", load_scenario, SCENARIO, ScenarioError),
    ]
    for path in objects(document)
}


@pytest.mark.parametrize(
    "loader, document, error, path",
    UNKNOWN_KEY_CASES.values(),
    ids=list(UNKNOWN_KEY_CASES),
)
def test_an_unknown_key_is_rejected_in_every_object(loader, document, error, path):
    with pytest.raises(error, match="unknown keys"):
        loader(with_unknown_key(document, path))


# Raw bytes -------------------------------------------------------------

def nesting(brackets, depth, closed):
    opener, closer = brackets
    return opener * depth + (closer * depth if closed else b"")


# At the top of the depth range, deeper than the decoder can recurse.
NESTING = st.builds(
    nesting,
    st.sampled_from([(b"[", b"]"), (b'{"a": ', b"}")]),
    st.integers(1, 3000),
    st.booleans(),
)
NOT_UTF8 = st.one_of(
    st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]),
    st.binary(min_size=1, max_size=3),
)


def with_value_at(document, path, value):
    """`document` as JSON bytes, with the value at `path` replaced by the
    bytes `value`."""
    marker = "\x01marker\x01"
    text = json.dumps(replaced(document, [(path, marker)])).encode()
    return text.replace(json.dumps(marker).encode(), value, 1)


def spliced_bytes(raw, edits):
    """`raw` with each (position, junk) edit inserted, positions wrapping."""
    for position, junk in edits:
        position %= len(raw) + 1
        raw = raw[:position] + junk + raw[position:]
    return raw


RAW = st.one_of(
    st.binary(max_size=64),
    NESTING,
    st.sampled_from([KNOWLEDGE, SCENARIO]).flatmap(
        lambda document: st.builds(
            with_value_at,
            st.just(document),
            st.sampled_from(list(positions(document))),
            st.one_of(NESTING, st.just(b"9" * 5000)),
        )
    ),
    st.builds(
        spliced_bytes,
        st.sampled_from([json.dumps(KNOWLEDGE).encode(), json.dumps(SCENARIO).encode()]),
        st.lists(st.tuples(st.integers(0, 600), NOT_UTF8), min_size=1, max_size=3),
    ),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(RAW)
def test_loaders_read_raw_bytes_raising_only_their_errors(raw):
    for load, error in ((load_knowledge, KnowledgeError), (load_scenario, ScenarioError)):
        try:
            load(raw)
        except error:
            pass


# Text parser fuzzing ------------------------------------------------------

CHARACTERS = 'aZ \\"\x00\n\tİ'
ESCAPED = st.text(alphabet=CHARACTERS, min_size=1, max_size=4).map(
    lambda t: '"' + t.replace("\\", "\\\\").replace('"', '\\"') + '"'
)
QUOTED = st.one_of(
    ESCAPED,
    # Unescaped: stray escapes, unbalanced quotes and empty quotes.
    st.text(alphabet=CHARACTERS, max_size=4).map(lambda t: f'"{t}"'),
)
BAREWORDS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,3}", fullmatch=True)


def any_case(word):
    return st.tuples(*(st.sampled_from([c.lower(), c.upper()]) for c in word)).map("".join)


BOOLEANS = st.one_of(any_case("true"), any_case("false"))
EDGE_INTEGERS = ["007", "-00", str(INT_MAX), str(-INT_MAX)]
WELL_FORMED_VALUES = st.one_of(
    ESCAPED, BOOLEANS, st.integers(INT_MIN, INT_MAX).map(str), st.sampled_from(EDGE_INTEGERS)
)
VALUES = st.one_of(
    QUOTED,
    BOOLEANS,
    st.integers(-(2**64), 2**64).map(str),
    st.sampled_from(
        [*EDGE_INTEGERS, str(INT_MAX + 1), "9" * 5000, "-" + "0" * 30 + "1", "-", "x"]
    ),
)
OPERATORS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
GAPS = st.sampled_from(["", " ", "\t", "\n", " \u00a0"])


def spaced(*parts):
    """A strategy for the pieces drawn from `parts` in order, each followed
    by a drawn gap piece."""
    return st.tuples(*(st.tuples(part, GAPS) for part in parts)).map(
        lambda drawn: [piece for pair in drawn for piece in pair]
    )


def joined(items, separator):
    """The piece lists `items` in one list, `separator`'s pieces between."""
    return [piece for i, item in enumerate(items) for piece in (separator if i else []) + item]


def entity_pieces(attributes, values):
    """Events and conjunctions as lists of pieces: each token and each gap."""
    pair = spaced(st.just("("), attributes, st.just(","), values, st.just(")"))
    predicate = spaced(st.just("("), attributes, OPERATORS, values, st.just(")"))
    return st.one_of(
        st.builds(
            lambda pairs, comma: ["{", *joined(pairs, comma), "}"],
            st.lists(pair, min_size=1, max_size=3),
            spaced(st.just(",")),
        ),
        st.builds(
            joined, st.lists(predicate, min_size=1, max_size=3), spaced(any_case("and"))
        ),
    )


TOKENS = st.one_of(
    st.sampled_from(["{", "}", "(", ")", ",", "AND", "and"]),
    OPERATORS,
    VALUES,
    st.text(max_size=2),
    st.sampled_from(["\x00", "\\", '"', "\t", "é"]),
)
SHAPED = st.one_of(
    entity_pieces(st.one_of(BAREWORDS, QUOTED), VALUES).map("".join),
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


def edited(pieces, edit, character):
    """The pieces' text, then that text with one `edit` of `character` at
    each boundary between pieces: inserted there, or deleting or replacing
    the character before it."""
    text = "".join(pieces)
    texts = [text]
    for end in sorted(set(itertools.accumulate(map(len, pieces), initial=0))):
        if edit == "insert":
            texts.append(text[:end] + character + text[end:])
        elif end:
            texts.append(text[: end - 1] + (character if edit == "replace" else "") + text[end:])
    return texts


TEXTS = st.one_of(
    st.builds(
        spliced, SHAPED, st.lists(st.tuples(st.integers(0, 60), TOKENS), max_size=2)
    ).map(lambda text: [text]),
    # One edit away from well-formed, where the two parsers must draw the
    # same line between accepted and rejected.
    st.builds(
        edited,
        entity_pieces(st.one_of(BAREWORDS, ESCAPED), WELL_FORMED_VALUES),
        st.sampled_from(["insert", "delete", "replace"]),
        st.sampled_from(list('(){},"\\ \n-0aZ_=<>!İſ\x00')),
    ),
)


def outcome(parse, text):
    """What `parse` makes of `text`: the entity and its id, or the error."""
    try:
        entity = parse(text)
    except ParseError as err:
        return str(err), err.position
    return entity, getattr(entity, "id", None)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(TEXTS)
def test_text_parsers_raise_only_parse_error(texts):
    for text in texts:
        for parse in (parse_event, parse_subscription, parse_advertisement):
            scanned = outcome(parse, text)
            with mock.patch.multiple(
                model, _scan_pairs=lambda text: None, _scan_predicates=lambda text: None
            ):
                assert outcome(parse, text) == scanned
            entity = scanned[0]
            if not isinstance(entity, str):
                assert parse(render(entity)) == entity
