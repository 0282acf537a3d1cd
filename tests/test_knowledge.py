import json
import random

import pytest

from semroute.knowledge import (
    Const,
    KnowledgeBase,
    KnowledgeError,
    Linear,
    MappingEvaluationError,
    MappingFunction,
    Rename,
    SynonymGroup,
    apply_mapping,
    load_knowledge,
)
from semroute.model import (
    INT_MAX,
    Pair,
    Predicate,
    RelOp,
    Value,
    group_by_attribute,
    parse_event,
)

from .conftest import make_forest_kb


class TestExampleDocument:
    def test_synonyms_resolve_to_roots(self, example_kb):
        assert example_kb.root_term("automobile") == "vehicle"
        assert example_kb.root_term("car") == "vehicle"
        assert example_kb.root_term("vehicle") == "vehicle"
        assert example_kb.root_term("school") == "university"

    def test_unknown_terms_are_their_own_root(self, example_kb):
        assert example_kb.root_term("bicycle") == "bicycle"

    def test_ancestor_chain_nearest_first(self, example_kb):
        assert example_kb.ancestors("encyclopedia") == ("book", "printed material")
        assert example_kb.ancestors("book") == ("printed material",)
        assert example_kb.ancestors("printed material") == ()
        assert example_kb.ancestors("crocodiles") == ("reptiles",)

    def test_descendant_or_equal(self, example_kb):
        assert example_kb.is_descendant_or_equal("encyclopedia", "book")
        assert example_kb.is_descendant_or_equal("encyclopedia", "printed material")
        assert example_kb.is_descendant_or_equal("book", "book")
        assert not example_kb.is_descendant_or_equal("book", "encyclopedia")
        assert not example_kb.is_descendant_or_equal("reptiles", "book")

    def test_comparable_means_shared_line(self, example_kb):
        assert example_kb.comparable("encyclopedia", "printed material")
        assert example_kb.comparable("printed material", "encyclopedia")
        assert example_kb.comparable("book", "book")
        assert not example_kb.comparable("book", "reptiles")

    def test_has_relative(self, example_kb):
        assert example_kb.has_relative("book")
        assert example_kb.has_relative("printed material")
        assert example_kb.has_relative("crocodiles")
        assert not example_kb.has_relative("vehicle")

    def test_mapping_loaded(self, example_kb):
        (f1,) = example_kb.mappings
        assert f1.name == "f1"
        assert f1.inputs == ("work experience", "graduation date")
        assert f1.output == "professional experience"
        assert f1.body == Linear("graduation date", -1, 2003)
        assert example_kb.reference_year == 2003

    def test_without_mappings_keeps_everything_else(self, example_kb):
        stripped = example_kb.without_mappings()
        assert stripped.mappings == ()
        assert stripped.root_term("car") == "vehicle"
        assert stripped.ancestors("encyclopedia") == ("book", "printed material")


def doc(**overrides) -> dict:
    base = {
        "synonyms": [{"root": "vehicle", "members": ["car"]}],
        "hierarchy": [{"child": "book", "parent": "printed material"}],
        "mappings": [],
        "reference_year": 2003,
    }
    base.update(overrides)
    return base


# A mapping whose every key is read.
MAPPING = {
    "name": "f",
    "inputs": ["a", "b"],
    "guard": {"attribute": "b", "op": "=", "value": True},
    "output": "c",
    "body": {"kind": "rename", "input": "a"},
}


class TestLoaderValidation:
    def test_round_trips_through_bytes_and_str(self):
        text = json.dumps(doc())
        assert load_knowledge(text).root_term("car") == "vehicle"
        assert load_knowledge(text.encode()).root_term("car") == "vehicle"

    def test_invalid_json(self):
        with pytest.raises(KnowledgeError, match="invalid JSON"):
            load_knowledge(b"{nope")

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xff{}",
            b"[" * 200000 + b"]" * 200000,
            "[" * 200000 + "]" * 200000,
            b"[" + b"9" * 5000 + b"]",
        ],
        ids=["not-utf8", "too-deep", "too-deep-str", "integer-too-long"],
    )
    def test_undecodable_json(self, raw):
        with pytest.raises(KnowledgeError, match="invalid JSON"):
            load_knowledge(raw)

    def test_non_object_document(self):
        with pytest.raises(KnowledgeError, match="knowledge document must be a JSON object"):
            load_knowledge(b"[1, 2]")

    def test_unknown_keys_rejected(self):
        with pytest.raises(KnowledgeError, match="unknown keys"):
            load_knowledge(doc(extra=1))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"synonyms": [{"root": "v", "members": ["c"], "member": "d"}]},
                "synonyms[0]: unknown keys: ['member']",
            ),
            (
                {"hierarchy": [{"child": "b", "parent": "p", "parnet": "q"}]},
                "hierarchy[0]: unknown keys: ['parnet']",
            ),
            (
                {"mappings": [{**MAPPING, "gaurd": MAPPING["guard"]}]},
                "mappings[0]: unknown keys: ['gaurd']",
            ),
            (
                {"mappings": [{**MAPPING, "guard": {**MAPPING["guard"], "vlaue": 1}}]},
                "mappings[0].guard: unknown keys: ['vlaue']",
            ),
        ],
        ids=["synonym-group", "hierarchy-edge", "mapping", "guard"],
    )
    def test_nested_objects_reject_unknown_keys(self, overrides, message):
        assert load_knowledge(doc(mappings=[MAPPING])).mappings[0].guard is not None
        with pytest.raises(KnowledgeError) as err:
            load_knowledge(doc(**overrides))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "section, entry, key, message",
        [
            ("synonyms", {"root": "v", "members": ["c"]}, "members",
             "synonyms[0]: need root, members"),
            ("hierarchy", {"child": "b", "parent": "p"}, "child",
             "hierarchy[0]: need child, parent"),
            ("mappings", MAPPING, "body", "mappings[0]: need name, inputs, output, body"),
        ],
        ids=["synonym-group", "hierarchy-edge", "mapping"],
    )
    def test_nested_objects_need_their_keys(self, section, entry, key, message):
        missing = {k: v for k, v in entry.items() if k != key}
        for bad in (["not", "an", "object"], missing):
            with pytest.raises(KnowledgeError) as err:
                load_knowledge(doc(**{section: [bad]}))
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "guard", [7, {"attribute": "b", "value": True}], ids=["non-object", "no-op"]
    )
    def test_guard_needs_its_keys(self, guard):
        with pytest.raises(KnowledgeError) as err:
            load_knowledge(doc(mappings=[{**MAPPING, "guard": guard}]))
        assert str(err.value) == "mappings[0].guard: need attribute, op, value"

    @pytest.mark.parametrize("attribute", [5, ""], ids=["int", "empty"])
    def test_guard_attribute_must_be_a_name(self, attribute):
        guard = {**MAPPING["guard"], "attribute": attribute}
        with pytest.raises(KnowledgeError) as err:
            load_knowledge(doc(mappings=[{**MAPPING, "guard": guard}]))
        assert str(err.value) == (
            "mappings[0]: guard attribute must be a non-empty string"
        )

    def test_terms_are_case_folded(self):
        kb = load_knowledge(doc(synonyms=[{"root": "Vehicle", "members": ["Car"]}]))
        assert kb.root_term("car") == "vehicle"

    def test_members_differing_only_in_case_are_duplicates(self):
        with pytest.raises(KnowledgeError, match="duplicate member"):
            load_knowledge(doc(synonyms=[{"root": "v", "members": ["Car", "car"]}]))

    def test_root_listed_as_member(self):
        with pytest.raises(KnowledgeError, match="listed among its members"):
            load_knowledge(doc(synonyms=[{"root": "a", "members": ["a", "b"]}]))

    def test_term_in_two_groups(self):
        with pytest.raises(KnowledgeError, match="two synonym groups"):
            load_knowledge(
                doc(
                    synonyms=[
                        {"root": "a", "members": ["x"]},
                        {"root": "b", "members": ["x"]},
                    ]
                )
            )

    def test_hierarchy_term_must_be_root_form(self):
        with pytest.raises(KnowledgeError, match="root form"):
            load_knowledge(doc(hierarchy=[{"child": "car", "parent": "machine"}]))

    def test_multiple_parents(self):
        with pytest.raises(KnowledgeError, match="multiple parents"):
            load_knowledge(
                doc(
                    hierarchy=[
                        {"child": "book", "parent": "a"},
                        {"child": "book", "parent": "b"},
                    ]
                )
            )

    def test_self_edge(self):
        with pytest.raises(KnowledgeError, match="self-edge"):
            load_knowledge(doc(hierarchy=[{"child": "a", "parent": "a"}]))

    def test_cycle(self):
        with pytest.raises(KnowledgeError, match="cycle"):
            load_knowledge(
                doc(
                    hierarchy=[
                        {"child": "a", "parent": "b"},
                        {"child": "b", "parent": "c"},
                        {"child": "c", "parent": "a"},
                    ]
                )
            )

    def test_reference_year_must_be_integer(self):
        with pytest.raises(KnowledgeError, match="reference_year"):
            load_knowledge(doc(reference_year="recent"))
        with pytest.raises(KnowledgeError, match="reference_year"):
            load_knowledge(doc(reference_year=True))
        for year in (2**63, -(2**63) - 1):
            with pytest.raises(KnowledgeError, match="reference_year"):
                load_knowledge(doc(reference_year=year))
        for year in (2**63 - 1, -(2**63)):
            assert load_knowledge(doc(reference_year=year)).reference_year == year

    def test_unknown_body_kind(self):
        bad = {
            "name": "f",
            "inputs": ["a"],
            "output": "b",
            "body": {"kind": "quadratic", "input": "a"},
        }
        with pytest.raises(KnowledgeError):
            load_knowledge(doc(mappings=[bad]))

    def test_guard_attribute_must_be_an_input(self):
        bad = {
            "name": "f",
            "inputs": ["a"],
            "guard": {"attribute": "c", "op": "=", "value": 1},
            "output": "b",
            "body": {"kind": "rename", "input": "a"},
        }
        with pytest.raises(KnowledgeError, match="guard attribute"):
            load_knowledge(doc(mappings=[bad]))

    def test_output_cannot_be_an_input(self):
        bad = {
            "name": "f",
            "inputs": ["a"],
            "output": "a",
            "body": {"kind": "rename", "input": "a"},
        }
        with pytest.raises(KnowledgeError, match="output is also an input"):
            load_knowledge(doc(mappings=[bad]))

    def test_mapping_attributes_must_be_root_form(self):
        bad = {
            "name": "f",
            "inputs": ["car"],
            "output": "b",
            "body": {"kind": "rename", "input": "car"},
        }
        with pytest.raises(KnowledgeError, match="non-root term"):
            load_knowledge(doc(mappings=[bad]))

    def test_body_input_must_be_declared(self):
        bad = {
            "name": "f",
            "inputs": ["a"],
            "output": "b",
            "body": {"kind": "rename", "input": "other"},
        }
        with pytest.raises(KnowledgeError, match="not a declared input"):
            load_knowledge(doc(mappings=[bad]))

    @pytest.mark.parametrize("kind", ["rename", "years_since"])
    def test_body_without_input(self, kind):
        bad = {"name": "f", "inputs": ["a"], "output": "b", "body": {"kind": kind}}
        with pytest.raises(KnowledgeError, match="body: need kind, input"):
            load_knowledge(doc(mappings=[bad]))

    @pytest.mark.parametrize("key", ["synonyms", "hierarchy", "mappings"])
    @pytest.mark.parametrize("value", ["ab", 5, None, {}])
    def test_sections_must_be_lists(self, key, value):
        with pytest.raises(KnowledgeError, match=f"{key} must be a list"):
            load_knowledge(doc(**{key: value}))

    @pytest.mark.parametrize("bad", ["", 5, True, None, ["a"]])
    @pytest.mark.parametrize(
        "section, entry, key",
        [
            ("synonyms", {"root": "a", "members": ["b"]}, "root"),
            ("hierarchy", {"child": "a", "parent": "b"}, "child"),
            ("hierarchy", {"child": "a", "parent": "b"}, "parent"),
            (
                "mappings",
                {"name": "f", "inputs": ["a"], "output": "b",
                 "body": {"kind": "rename", "input": "a"}},
                "output",
            ),
        ],
    )
    def test_terms_must_be_non_empty_strings(self, section, entry, key, bad):
        with pytest.raises(KnowledgeError, match=f"{key} must be a non-empty string"):
            load_knowledge(doc(**{section: [{**entry, key: bad}]}))

    @pytest.mark.parametrize(
        "body",
        [
            {"kind": "rename"},
            {"kind": "linear", "scale": 1, "offset": 0},
            {"kind": "years_since"},
        ],
        ids=["rename", "linear", "years_since"],
    )
    def test_body_input_must_be_a_string(self, body):
        # "5" is a declared input, so only the coercion of 5 could load it.
        body = {**body, "input": 5}
        bad = {"name": "f", "inputs": ["5"], "output": "b", "body": body}
        with pytest.raises(KnowledgeError, match="input must be a non-empty string"):
            load_knowledge(doc(mappings=[bad]))

    @pytest.mark.parametrize(
        "scale, offset", [(1.5, 3), (1, "3"), (True, 0), (2, False), (None, 0)]
    )
    def test_linear_coefficients_must_be_integers(self, scale, offset):
        body = {"kind": "linear", "input": "a", "scale": scale, "offset": offset}
        bad = {"name": "f", "inputs": ["a"], "output": "b", "body": body}
        with pytest.raises(KnowledgeError, match="must be integers"):
            load_knowledge(doc(mappings=[bad]))

    @pytest.mark.parametrize(
        "place, message",
        [
            ({"body": {"kind": "const", "value": "DEEP"}}, "unsupported value"),
            (
                {"body": {"kind": "const", "value": 1},
                 "guard": {"attribute": "a", "op": "DEEP", "value": 1}},
                "unknown guard operator",
            ),
            ({"body": {"kind": "DEEP", "input": "a"}}, "unknown mapping body kind"),
        ],
        ids=["value", "guard-operator", "body-kind"],
    )
    def test_rejected_value_is_quoted_short(self, place, message):
        # A value nested 900 deep once came back whole, about 1,800 characters.
        mapping = {"name": "f", "inputs": ["a"], "output": "b", **place}
        text = json.dumps(doc(mappings=[mapping])).replace('"DEEP"', "[" * 900 + "]" * 900)
        with pytest.raises(KnowledgeError, match=message) as err:
            load_knowledge(text)
        assert len(str(err.value)) < 120

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"LONG": 1}, "unknown keys"),
            ({"synonyms": [{"root": "LONG", "members": ["LONG"]}]}, "its members"),
            (
                {"synonyms": [{"root": "LONG", "members": ["a"]},
                              {"root": "LONG", "members": ["b"]}]},
                "two synonym groups",
            ),
            (
                {"synonyms": [{"root": "v", "members": ["LONG"]}],
                 "hierarchy": [{"child": "LONG", "parent": "a"}]},
                "not in root form",
            ),
            ({"hierarchy": [{"child": "LONG", "parent": "LONG"}]}, "self-edge"),
            (
                {"hierarchy": [{"child": "LONG", "parent": "a"},
                               {"child": "LONG", "parent": "b"}]},
                "multiple parents",
            ),
            (
                {"hierarchy": [{"child": "LONG", "parent": "a"},
                               {"child": "a", "parent": "LONG"}]},
                "cycle",
            ),
            (
                {"mappings": [{"name": "LONG", "inputs": [], "output": "b",
                               "body": {"kind": "const", "value": 1}}]},
                "has no inputs",
            ),
            (
                {"synonyms": [{"root": "v", "members": ["LONG"]}],
                 "mappings": [{"name": "LONG", "inputs": ["LONG"], "output": "b",
                               "body": {"kind": "const", "value": 1}}]},
                "non-root term",
            ),
        ],
        ids=["key", "root-member", "two-groups", "hierarchy-root-form", "self-edge",
             "parents", "cycle", "mapping-name", "mapping-term"],
    )
    def test_long_value_is_quoted_short(self, overrides, message):
        text = json.dumps(doc(**overrides)).replace("LONG", "x" * 5000)
        with pytest.raises(KnowledgeError, match=message) as err:
            load_knowledge(text)
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize(
        "name", [5, None, [1, 2], ""], ids=["int", "null", "list", "empty"]
    )
    def test_mapping_name_must_be_a_non_empty_string(self, name):
        mapping = {"name": name, "inputs": ["a"], "output": "b",
                   "body": {"kind": "rename", "input": "a"}}
        with pytest.raises(KnowledgeError, match="name must be a non-empty string"):
            load_knowledge(doc(mappings=[mapping]))


class TestRootAndAncestorProperties:
    def test_root_term_idempotent_on_random_kbs(self):
        for seed in range(30):
            rng = random.Random(seed)
            kb = make_forest_kb(rng, rng.randint(3, 15), with_synonyms=True)
            for term in [f"t{i}" for i in range(15)] + ["t0alias", "zzz"]:
                root = kb.root_term(term)
                assert kb.root_term(root) == root

    def test_descendant_or_equal_is_a_partial_order(self):
        for seed in range(20):
            rng = random.Random(seed + 100)
            n = rng.randint(3, 12)
            kb = make_forest_kb(rng, n)
            terms = [f"t{i}" for i in range(n)]
            for a in terms:
                assert kb.is_descendant_or_equal(a, a)
                for b in terms:
                    down = kb.is_descendant_or_equal(a, b)
                    up = kb.is_descendant_or_equal(b, a)
                    if down and up:
                        assert a == b
                    for c in terms:
                        if down and kb.is_descendant_or_equal(b, c):
                            assert kb.is_descendant_or_equal(a, c)

    def test_comparable_iff_ancestor_chains_meet(self):
        for seed in range(20):
            rng = random.Random(seed + 200)
            n = rng.randint(3, 12)
            kb = make_forest_kb(rng, n)
            terms = [f"t{i}" for i in range(n)]
            for a in terms:
                for b in terms:
                    expected = kb.is_descendant_or_equal(
                        a, b
                    ) or kb.is_descendant_or_equal(b, a)
                    assert kb.comparable(a, b) == expected


def years_since_f1(example_kb) -> MappingFunction:
    (f1,) = example_kb.mappings
    return f1


def _values(event):
    return group_by_attribute((p.attribute, p.value) for p in event.pairs)


class TestApplyMapping:
    def test_years_since(self, example_kb):
        event = parse_event(
            '{(university, "y"), ("work experience", true), ("graduation date", 1990)}'
        )
        out = apply_mapping(years_since_f1(example_kb), _values(event))
        assert out == [Pair("professional experience", Value.integer(13))]

    def test_missing_input_yields_nothing(self, example_kb):
        event = parse_event('{("work experience", true)}')
        assert apply_mapping(years_since_f1(example_kb), _values(event)) == []

    def test_failing_guard_yields_nothing(self, example_kb):
        event = parse_event(
            '{("work experience", false), ("graduation date", 1990)}'
        )
        assert apply_mapping(years_since_f1(example_kb), _values(event)) == []

    def test_non_integer_source_yields_nothing(self, example_kb):
        event = parse_event(
            '{("work experience", true), ("graduation date", "unknown")}'
        )
        assert apply_mapping(years_since_f1(example_kb), _values(event)) == []

    def test_every_value_is_bound_in_canonical_order(self, example_kb):
        dates = [Value.integer(2000), Value.integer(1990)]
        expected = [
            Pair("professional experience", Value.integer(13)),
            Pair("professional experience", Value.integer(3)),
        ]
        for held in (dates, dates[::-1]):
            values = {"work experience": [Value.boolean(True)], "graduation date": held}
            assert apply_mapping(years_since_f1(example_kb), values) == expected

    def test_guard_is_checked_per_combination(self, example_kb):
        flags = [Value.boolean(False), Value.boolean(True)]
        for held in (flags, flags[::-1]):
            values = {"work experience": held, "graduation date": [Value.integer(1990)]}
            out = apply_mapping(years_since_f1(example_kb), values)
            assert out == [Pair("professional experience", Value.integer(13))]

    def test_rename(self):
        f = MappingFunction("r", ("a",), None, "b", Rename("a"))
        out = apply_mapping(f, {"a": [Value.string("x")]})
        assert out == [Pair("b", Value.string("x"))]

    def test_const(self):
        f = MappingFunction("c", ("a",), None, "b", Const(Value.boolean(True)))
        out = apply_mapping(f, {"a": [Value.integer(1)]})
        assert out == [Pair("b", Value.boolean(True))]

    def test_linear(self):
        f = MappingFunction("l", ("a",), None, "b", Linear("a", scale=3, offset=-2))
        out = apply_mapping(f, {"a": [Value.integer(10)]})
        assert out == [Pair("b", Value.integer(28))]

    def test_overflow_is_an_error(self):
        f = MappingFunction("l", ("a",), None, "b", Linear("a", scale=2, offset=0))
        with pytest.raises(MappingEvaluationError) as info:
            apply_mapping(f, {"a": [Value.integer(INT_MAX)]})
        assert info.value.function_name == "l"

    def test_guard_with_ordering_operator(self):
        guard = Predicate("a", RelOp.GE, Value.integer(10))
        f = MappingFunction("g", ("a",), guard, "b", Rename("a"))
        assert apply_mapping(f, {"a": [Value.integer(9)]}) == []
        assert apply_mapping(f, {"a": [Value.integer(10)]}) == [
            Pair("b", Value.integer(10))
        ]


class TestIdentitySemantics:
    def test_equal_content_distinct_identity(self):
        kb1 = KnowledgeBase(hierarchy=[("a", "b")])
        kb2 = KnowledgeBase(hierarchy=[("a", "b")])
        assert kb1 != kb2
        assert len({kb1, kb2}) == 2

    def test_empty_is_fresh_each_call(self):
        assert KnowledgeBase.empty().hierarchy == ()

    def test_constructor_validates_too(self):
        with pytest.raises(KnowledgeError):
            KnowledgeBase(synonyms=[SynonymGroup("a", frozenset({"a"}))])
