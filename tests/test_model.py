import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semroute
from semroute.model import (
    INT_MAX,
    INT_MIN,
    Advertisement,
    Event,
    Pair,
    ParseError,
    Predicate,
    RelOp,
    Subscription,
    Value,
    ValueKind,
    parse_advertisement,
    parse_event,
    parse_subscription,
    read_file,
    read_name,
    read_object,
    render,
)
from semroute.semantic import match_event
from semroute.syntactic import covers, intersects


class Rejected(ValueError):
    """The error a test hands the readers."""


class TestReaders:
    """The loaders' one reader per kind of outside input."""

    @pytest.mark.parametrize(
        "raw", [None, [1], "id", {"id": "c"}], ids=["null", "list", "string", "missing"]
    )
    def test_an_object_needs_its_keys(self, raw):
        with pytest.raises(Rejected) as err:
            read_object(raw, ("id", "broker"), (), Rejected, "clients[0]")
        assert str(err.value) == "clients[0]: need id, broker"

    def test_an_object_holds_only_its_keys(self):
        raw = {"id": "c", "guard": 1}
        assert read_object(raw, ("id",), ("guard",), Rejected, "w") is raw
        with pytest.raises(Rejected) as err:
            read_object({"id": "c", "gaurd": 1}, ("id",), ("guard",), Rejected, "w")
        assert str(err.value) == "w: unknown keys: ['gaurd']"

    @pytest.mark.parametrize("raw", [5, None, True, [], ""])
    def test_a_name_is_a_non_empty_string(self, raw):
        assert read_name("Ab", "w: name", Rejected) == "Ab"
        with pytest.raises(Rejected) as err:
            read_name(raw, "w: name", Rejected)
        assert str(err.value) == "w: name must be a non-empty string"

    @pytest.mark.parametrize("name", ["missing.json", "a\x00b"], ids=["missing", "nul"])
    def test_an_unreadable_file_raises_the_given_error(self, tmp_path, name):
        (tmp_path / "kb.json").write_bytes(b"{}")
        assert read_file(tmp_path / "kb.json", Rejected, "kb") == b"{}"
        with pytest.raises(Rejected, match="^cannot read kb: "):
            read_file(tmp_path / name, Rejected, "kb")


class TestValues:
    def test_kinds_do_not_conflate(self):
        assert Value.integer(1) != Value.boolean(True)
        assert Value.integer(0) != Value.boolean(False)
        assert Value.string("1") != Value.integer(1)
        assert len({Value.integer(1), Value.boolean(True)}) == 2

    def test_strings_lowercased(self):
        assert Value.string("IBM") == Value.string("ibm")

    def test_int_bounds(self):
        Value.integer(INT_MAX)
        Value.integer(INT_MIN)
        with pytest.raises(ValueError):
            Value.integer(INT_MAX + 1)

    def test_ordering_ops_require_integers(self):
        assert not RelOp.LT.holds(Value.string("a"), Value.string("b"))
        assert not RelOp.GE.holds(Value.boolean(True), Value.integer(0))
        assert RelOp.LE.holds(Value.integer(3), Value.integer(3))

    def test_ne_across_kinds_is_true(self):
        assert RelOp.NE.holds(Value.integer(1), Value.boolean(True))
        assert RelOp.NE.holds(Value.string("x"), Value.integer(2))


class TestParseEvent:
    def test_two_pairs(self):
        event = parse_event('{(product, "computer"), (price, 1500)}')
        assert event.pairs == (
            Pair("product", Value.string("computer")),
            Pair("price", Value.integer(1500)),
        )

    def test_phrase_values_are_quoted_strings(self):
        event = parse_event('{(encyclopedia, "Stone Age"), (subject, "crocodiles")}')
        assert len(event.pairs) == 2
        assert event.pairs[0].value == Value.string("stone age")

    def test_empty_event_rejected(self):
        with pytest.raises(ParseError):
            parse_event("{}")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_event("{(a, 1), (a, 2)}")

    def test_attribute_case_folds(self):
        assert parse_event("{(Price, 5)}").pairs[0].attribute == "price"

    def test_quoted_attribute_with_spaces(self):
        event = parse_event('{("graduation date", 1990)}')
        assert event.pairs[0].attribute == "graduation date"

    def test_booleans(self):
        event = parse_event('{("work experience", true), (b, FALSE)}')
        assert event.pairs[0].value == Value.boolean(True)
        assert event.pairs[1].value == Value.boolean(False)

    @pytest.mark.parametrize(
        "parse, text, message, position",
        [
            (parse_event, "{(a, @)}", "unexpected character '@'", 5),
            (parse_event, '{(a, "x)}', "unexpected character '\"'", 5),
            (parse_event, "{(a, -)}", "unexpected character '-'", 5),
            (parse_subscription, "(a = 1) AND (b < -)", "unexpected character '-'", 17),
            (parse_event, "{(a 1)}", "expected ','", 4),
            (parse_event, "{(a, 1) (b, 2)}", "expected '}'", 8),
            (parse_event, "{(a, 1)} extra", "unexpected trailing input 'extra'", 9),
            (parse_subscription, "(a = 1) (b = 2)", "unexpected trailing input '('", 8),
            (parse_event, '{("", 1)}', "empty attribute name", 2),
            (parse_event, '{(a, "")}', "empty string value", 5),
            (parse_event, "{(a, 9223372036854775808)}", "integer out of 64-bit range", 5),
            (parse_subscription, "(a = 1) AND (b 1)", "expected relational operator", 15),
            (parse_event, "{(a, x)}", "expected value", 5),
            (parse_event, "{(1, 2)}", "expected attribute name", 2),
            (
                parse_subscription,
                '(a = 1) AND (b < "x")',
                "ordering operator '<' requires an integer value",
                12,
            ),
            (parse_event, "  { }", "empty event", 2),
            (parse_subscription, "  ", "empty subscription", 0),
            (parse_advertisement, "", "empty advertisement", 0),
            (parse_event, "{(a, 1), (A, 2)}", "duplicate attribute 'a'", 0),
        ],
        ids=[
            "stray-at",
            "unterminated-quote",
            "lone-minus",
            "lone-minus-late",
            "missing-comma",
            "missing-comma-between-pairs",
            "trailing-word",
            "trailing-predicate",
            "empty-attribute",
            "empty-string",
            "integer-out-of-range",
            "missing-operator",
            "missing-value",
            "missing-attribute",
            "ordering-needs-integer",
            "empty-event",
            "empty-subscription",
            "empty-advertisement",
            "duplicate-attribute",
        ],
    )
    def test_error_position_reported(self, parse, text, message, position):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_event("{(a, 1)} extra")

    def test_out_of_range_integer_rejected(self):
        with pytest.raises(ParseError):
            parse_event("{(a, 99999999999999999999)}")
        # Longer than int() converts by default.
        with pytest.raises(ParseError):
            parse_event("{(a, " + "9" * 5000 + ")}")


class TestLongInputIsQuotedShort:
    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_subscription, "(x = 1) " + "y" * 5000, "unexpected trailing input"),
            (parse_event, "{(a, 1)} " + "y" * 5000, "unexpected trailing input"),
            (
                parse_event,
                "{(" + "a" * 5000 + ", 1), (" + "a" * 5000 + ", 2)}",
                "duplicate attribute",
            ),
        ],
        ids=["subscription-trailing", "event-trailing", "event-duplicate"],
    )
    def test_message_stays_short(self, parse, text, message):
        with pytest.raises(ParseError, match=message) as err:
            parse(text)
        assert len(str(err.value)) < 100


class TestParsePredicates:
    def test_three_predicates(self):
        sub = parse_subscription(
            '(product = "computer") AND (brand = "IBM") AND (price <= 1600)'
        )
        assert [p.op for p in sub.predicates] == [RelOp.EQ, RelOp.EQ, RelOp.LE]
        assert sub.predicates[1].value == Value.string("ibm")

    def test_ordering_on_string_rejected(self):
        with pytest.raises(ParseError, match="ordering"):
            parse_subscription('(brand < "IBM")')
        with pytest.raises(ParseError, match="ordering"):
            parse_advertisement("(flag >= true)")

    def test_empty_inputs_rejected(self):
        with pytest.raises(ParseError):
            parse_subscription("")
        with pytest.raises(ParseError):
            parse_advertisement("   ")

    def test_advertisement_same_grammar(self):
        adv = parse_advertisement('(product = "computer") AND (price <= 1500)')
        assert isinstance(adv, Advertisement)
        assert len(adv.predicates) == 2

    def test_all_operators(self):
        sub = parse_subscription(
            "(a = 1) AND (a != 2) AND (a < 3) AND (a <= 4) AND (a > 5) AND (a >= 6)"
        )
        assert [p.op.value for p in sub.predicates] == ["=", "!=", "<", "<=", ">", ">="]

    def test_id_defaults_to_canonical_text(self):
        s = parse_subscription('(A =   "Foo")')
        assert s.id == '(a = "foo")'

    def test_ids_do_not_affect_equality(self):
        predicates = parse_subscription("(x = 1)").predicates
        a = Subscription(predicates, id="one")
        b = Subscription(predicates, id="two")
        assert a == b
        assert hash(a) == hash(b)


class TestRender:
    def test_single_pair(self):
        assert render(parse_event("{(price, 1500)}")) == "{(price, 1500)}"

    def test_subscription_round_trip_is_canonical(self):
        text = '( Product="computer" )AND(price<=1600)'
        sub = parse_subscription(text)
        assert render(sub) == '(product = "computer") AND (price <= 1600)'
        assert parse_subscription(render(sub)) == sub

    def test_quoting_preserved_where_needed(self):
        adv = parse_advertisement('("graduation date" >= 1900)')
        assert render(adv) == '("graduation date" >= 1900)'


def attr_names():
    return st.one_of(
        st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
        st.just("work experience"),
        st.just("graduation date"),
    )


def values():
    return st.one_of(
        st.integers(min_value=INT_MIN, max_value=INT_MAX).map(Value.integer),
        st.booleans().map(Value.boolean),
        st.from_regex(r"[a-z][a-z0-9 _\-]{0,8}", fullmatch=True).map(Value.string),
    )


def predicates():
    def build(attr, op, value):
        if op.is_ordering and not value.is_int:
            value = Value.integer(7)
        return Predicate(attr, op, value)

    return st.builds(build, attr_names(), st.sampled_from(list(RelOp)), values())


def events():
    return (
        st.lists(st.tuples(attr_names(), values()), min_size=1, max_size=4, unique_by=lambda t: t[0])
        .map(lambda items: Event(tuple(Pair(a, v) for a, v in items)))
    )


def subscriptions():
    return st.lists(predicates(), min_size=1, max_size=4).map(
        lambda ps: Subscription(tuple(ps))
    )


def advertisements():
    return st.lists(predicates(), min_size=1, max_size=4).map(
        lambda ps: Advertisement(tuple(ps))
    )


class TestRoundTrip:
    @settings(max_examples=200)
    @given(events())
    def test_event_round_trip(self, event):
        assert parse_event(render(event)) == event

    @settings(max_examples=200)
    @given(subscriptions())
    def test_subscription_round_trip(self, sub):
        assert parse_subscription(render(sub)) == sub

    @settings(max_examples=100)
    @given(advertisements())
    def test_advertisement_round_trip(self, adv):
        assert parse_advertisement(render(adv)) == adv

    @settings(max_examples=100)
    @given(subscriptions())
    def test_render_idempotent(self, sub):
        once = render(sub)
        assert render(parse_subscription(once)) == once

    @settings(max_examples=100)
    @given(events(), subscriptions(), advertisements())
    def test_rendered_text_never_reaches_the_token_parser(self, event, sub, adv):
        # Well-formed text is read by the production scan alone.
        with mock.patch.object(semroute.model, "_Parser", side_effect=AssertionError):
            assert parse_event(render(event)) == event
            assert parse_subscription(render(sub)) == sub
            assert parse_advertisement(render(adv)) == adv


ENTITIES = {
    "value": lambda: Value.string("Book"),
    "pair": lambda: Pair("a", Value.integer(3)),
    "predicate": lambda: Predicate("a", RelOp.LE, Value.integer(3)),
    "event": lambda: parse_event('{(a, 1), (b, "x"), (c, true)}'),
    "subscription": lambda: parse_subscription('(a = 1) AND (b != "x")'),
    "advertisement": lambda: parse_advertisement('(a >= 1) AND (b = "x")'),
}


class TestKeptHash:
    @pytest.mark.parametrize("make", ENTITIES.values(), ids=list(ENTITIES))
    def test_equal_entities_built_apart_hash_equal(self, make):
        first, second = make(), make()
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert hash(first) == hash(first)
        assert hash(second) == hash(second)

    @pytest.mark.parametrize("kind", [Subscription, Advertisement])
    def test_id_stays_out_of_the_hash(self, kind):
        preds = (Predicate("a", RelOp.EQ, Value.integer(1)),)
        first, second = kind(preds, id="one"), kind(preds, id="two")
        assert hash(first) == hash(first)
        assert hash(first) == hash(second)

    @settings(max_examples=50)
    @given(events(), subscriptions(), advertisements())
    def test_parsed_back_entities_hash_equal(self, event, sub, adv):
        for entity, parse in (
            (event, parse_event),
            (sub, parse_subscription),
            (adv, parse_advertisement),
        ):
            assert hash(parse(render(entity))) == hash(entity)

    def test_hash_is_not_carried_into_another_process(self):
        # String hashes depend on the interpreter's hash seed, so a hash kept
        # by one process would be wrong in another.  The entities are pickled
        # after the relations kept their summaries on them; those are keyed
        # by knowledge-base identity, so here they are rebuilt on first use.
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        src = str(Path(semroute.__file__).resolve().parent.parent)
        script = f"""
import pickle, sys
from semroute.knowledge import KnowledgeBase
from semroute.model import parse_advertisement, parse_event, parse_subscription
from semroute.semantic import match_event, sem_covers, sem_determines, sem_intersects, sem_match
from semroute.syntactic import covers, intersects
event = parse_event({EVENT!r})
sub = parse_subscription({SUB!r})
adv = parse_advertisement({ADV!r})
kb = KnowledgeBase(hierarchy=[("x", "y")])
assert match_event(event, sub) and covers(sub, sub) and intersects(adv, sub)
assert sem_match(event, sub, kb) and sem_covers(sub, sub, kb)
assert sem_intersects(adv, sub, kb) and sem_determines(adv, event, kb)
for entity in (event, sub, adv):
    hash(entity)
sys.stdout.buffer.write(pickle.dumps((event, sub, adv)))
"""
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True,
            check=True,
        )
        fresh = (parse_event(EVENT), parse_subscription(SUB), parse_advertisement(ADV))
        carried = pickle.loads(done.stdout)
        for entity, built_here in zip(carried, fresh):
            assert entity == built_here
            assert hash(entity) == hash(built_here)
        event, sub, adv = carried
        assert match_event(event, sub) and covers(sub, sub) and intersects(adv, sub)


class TestValuesHashInC:
    def test_hash_equality_and_lookup_make_no_python_call(self):
        # Routing looks values up in the kept summaries at every hop; a
        # Python-level `__hash__` or `__eq__` would cost a call on each.
        values = [Value.string("x"), Value.integer(1), Value.boolean(True)]
        others = [Value.string("X"), Value.integer(1), Value.boolean(True)]
        assert {v.kind for v in values} == set(ValueKind)
        pool = frozenset(others)
        pair = Pair("a", values[1])
        found, calls = [], []
        sys.setprofile(
            lambda frame, event, arg: event == "call" and calls.append(frame.f_code.co_name)
        )
        try:
            for v, w in zip(values, others):
                hash(v)
                found.append(v == w and v in pool)
            hash(pair)
        finally:
            sys.setprofile(None)
        assert calls == []
        assert found == [True, True, True]


EVENT = '{(a, "x"), (b, 2)}'
SUB = '(a = "x") AND (b > 1)'
ADV = '(a = "x") AND (b >= 0)'
