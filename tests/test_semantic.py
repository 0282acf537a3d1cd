import gc
import itertools
import random
import weakref

import semroute.semantic as semantic
import semroute.syntactic as syntactic
from hypothesis import given, settings
from hypothesis import strategies as st

from semroute.knowledge import (
    KnowledgeBase,
    Linear,
    MappingFunction,
    Rename,
    apply_mapping,
    load_knowledge,
)
from semroute.model import (
    Advertisement,
    Event,
    Pair,
    Predicate,
    RelOp,
    Row,
    Subscription,
    Value,
    group_by_attribute,
    parse_advertisement,
    parse_event,
    parse_subscription,
    render,
)
from semroute.semantic import (
    Provenance,
    attribute_reach,
    augment,
    event_implied,
    match_event,
    normalize_advertisement,
    normalize_event,
    normalize_subscription,
    sem_admits,
    sem_covers,
    sem_determines,
    sem_intersects,
    sem_match,
    subscription_attributes,
)
from semroute.sim import load_scenario, oracle_deliveries, run
from semroute.syntactic import Implied, covers, intersects

from .bruteforce import (
    covering_counterexample,
    implies,
    match_pair,
    sem_determines_oracle,
    sem_match_oracle,
    universe,
    witness_exists,
)
from .conftest import (
    events_from,
    make_forest_kb,
    random_advertisement,
    random_subscription,
    random_value,
    predicates_from,
    relation_case,
    subscriptions_from,
    values_from,
)

ENCYCLOPEDIA_EVENT = parse_event('{(encyclopedia, "Stone Age"), (subject, "crocodiles")}')
BOOK_EVENT = parse_event('{(book, "Stone Age"), (subject, "crocodiles")}')
BOOK_SUB = parse_subscription('(book = "Stone Age") AND (subject = "reptiles")')
ENCYCLOPEDIA_SUB = parse_subscription('(encyclopedia = "Stone Age") AND (subject = "reptiles")')
STUDENT_EVENT = parse_event(
    '{(school, "y"), (degree, "phd"), ("work experience", true), ("graduation date", 1990)}'
)
PROFESSOR_SUB = parse_subscription(
    '(university = "y") AND (degree = "phd") AND ("professional experience" > 4)'
)


def _two_attribute_event(rng: random.Random, k: int) -> Event:
    return Event(
        tuple(
            Pair(rng.choice(["a", "b"]), random_value(rng, ["x", "y"]))
            for _ in range(k)
        )
    )


class TestNormalization:
    def test_event_attributes_and_values(self, example_kb):
        assert normalize_event(parse_event('{(automobile, "red")}'), example_kb) == parse_event(
            '{(vehicle, "red")}'
        )
        assert normalize_event(parse_event('{(car, "automobile")}'), example_kb) == parse_event(
            '{(vehicle, "vehicle")}'
        )

    def test_unknown_terms_unchanged(self, example_kb):
        event = parse_event('{(price, 10), (color, "red"), (used, false)}')
        assert normalize_event(event, example_kb) == event

    def test_subscription_both_positions(self, example_kb):
        assert normalize_subscription(
            parse_subscription('(car = "something")'), example_kb
        ) == parse_subscription('(vehicle = "something")')
        assert normalize_subscription(
            parse_subscription('(automobile = "car")'), example_kb
        ) == parse_subscription('(vehicle = "vehicle")')
        assert normalize_subscription(
            parse_subscription("(price <= 1600)"), example_kb
        ) == parse_subscription("(price <= 1600)")

    def test_integers_and_booleans_survive(self, example_kb):
        event = parse_event('{(car, 5), (school, true)}')
        normalized = normalize_event(event, example_kb)
        assert normalized == parse_event('{(vehicle, 5), (university, true)}')


class TestAugment:
    def test_hierarchy_pairs_in_order(self, example_kb):
        augmented = augment(normalize_event(ENCYCLOPEDIA_EVENT, example_kb), example_kb)
        assert augmented.base == ENCYCLOPEDIA_EVENT
        assert [
            (a.pair, a.provenance) for a in augmented.added
        ] == [
            (Pair("book", Value.string("stone age")), Provenance.HIERARCHY),
            (Pair("printed material", Value.string("stone age")), Provenance.HIERARCHY),
            (Pair("subject", Value.string("reptiles")), Provenance.HIERARCHY),
        ]

    def test_no_knowledge_adds_nothing(self, example_kb):
        event = parse_event('{(price, 10), (color, "red")}')
        assert augment(event, example_kb).added == ()

    def test_attribute_and_value_chains_cross(self):
        kb = load_knowledge(
            {
                "hierarchy": [
                    {"child": "a", "parent": "b"},
                    {"child": "v", "parent": "w"},
                ]
            }
        )
        augmented = augment(parse_event('{(a, "v")}'), kb)
        assert [a.pair for a in augmented.added] == [
            Pair("a", Value.string("w")),
            Pair("b", Value.string("v")),
            Pair("b", Value.string("w")),
        ]

    def test_duplicates_collapse(self):
        kb = load_knowledge(
            {
                "hierarchy": [
                    {"child": "a", "parent": "c"},
                    {"child": "b", "parent": "c"},
                ]
            }
        )
        augmented = augment(parse_event('{(a, 1), (b, 1)}'), kb)
        assert [a.pair for a in augmented.added] == [Pair("c", Value.integer(1))]

    def test_generalizations_already_present_are_not_added(self):
        kb = load_knowledge({"hierarchy": [{"child": "a", "parent": "b"}]})
        augmented = augment(parse_event('{(a, 1), (b, 1)}'), kb)
        assert augmented.added == ()

    def test_mapping_pair_appended(self, example_kb):
        event = normalize_event(STUDENT_EVENT, example_kb)
        augmented = augment(event, example_kb)
        assert [(a.pair, a.provenance) for a in augmented.added] == [
            (
                Pair("professional experience", Value.integer(13)),
                Provenance.MAPPING,
            )
        ]

    def test_mappings_do_not_chain(self):
        kb = KnowledgeBase(
            mappings=[
                MappingFunction("xy", ("x",), None, "y", Rename("x")),
                MappingFunction("yz", ("y",), None, "z", Rename("y")),
            ]
        )
        augmented = augment(parse_event('{(x, 1)}'), kb)
        assert [a.pair for a in augmented.added] == [Pair("y", Value.integer(1))]

    def test_mappings_see_hierarchy_added_pairs(self):
        kb = KnowledgeBase(
            hierarchy=[("a", "b")],
            mappings=[MappingFunction("f", ("b",), None, "c", Rename("b"))],
        )
        augmented = augment(parse_event('{(a, 7)}'), kb)
        assert [a.pair for a in augmented.added] == [
            Pair("b", Value.integer(7)),
            Pair("c", Value.integer(7)),
        ]

    def test_numeric_values_never_climb(self):
        kb = load_knowledge({"hierarchy": [{"child": "1", "parent": "2"}]})
        assert augment(parse_event("{(price, 1)}"), kb).added == ()

    def test_values_are_base_then_added(self, example_kb):
        """At each attribute the base values come first, in event order, then
        the added ones: the order `--explain` picks its witness in."""
        event = normalize_event(
            parse_event('{(encyclopedia, "Stone Age"), (book, "crocodiles")}'), example_kb
        )
        augmented = augment(event, example_kb)
        assert list(augmented.values["book"]) == [
            Value.string("crocodiles"),
            Value.string("stone age"),
            Value.string("reptiles"),
        ]
        base_values = group_by_attribute((p.attribute, p.value) for p in event.pairs)
        for attribute, held in augmented.values.items():
            base = list(dict.fromkeys(base_values.get(attribute, ())))
            provenances = list(held.values())
            assert list(held)[: len(base)] == base
            assert provenances[: len(base)] == [None] * len(base)
            assert None not in provenances[len(base) :]

    def test_deterministic(self, example_kb):
        event = normalize_event(STUDENT_EVENT, example_kb)
        assert augment(event, example_kb) == augment(event, example_kb)


class TestSemMatch:
    def test_specialized_event_matches_general_subscription(self, example_kb):
        assert sem_match(ENCYCLOPEDIA_EVENT, BOOK_SUB, example_kb)

    def test_general_event_never_matches_specialized_subscription(self, example_kb):
        assert not sem_match(BOOK_EVENT, ENCYCLOPEDIA_SUB, example_kb)

    def test_professor_example(self, example_kb):
        assert sem_match(STUDENT_EVENT, PROFESSOR_SUB, example_kb)

    def test_mapping_is_load_bearing(self, example_kb):
        assert not sem_match(STUDENT_EVENT, PROFESSOR_SUB, example_kb.without_mappings())

    def test_generalization_applies_to_attributes_too(self, example_kb):
        event = parse_event('{("printed material", "x")}')
        sub = parse_subscription('(book = "x")')
        assert not sem_match(event, sub, example_kb)
        assert sem_match(parse_event('{(book, "x")}'), parse_subscription('("printed material" = "x")'), example_kb)

    def test_synonyms_alone_suffice(self, example_kb):
        assert sem_match(
            parse_event('{(automobile, "red")}'),
            parse_subscription('(car = "red")'),
            example_kb,
        )

    def test_inequality_against_ancestor_value(self, example_kb):
        event = parse_event('{(product, "encyclopedia")}')
        assert sem_match(event, parse_subscription('(product != "magazine")'), example_kb)
        assert not sem_match(
            parse_event('{(product, "widget")}'),
            parse_subscription('(product != "widget")'),
            example_kb,
        )
        assert sem_match(event, parse_subscription('(product != "encyclopedia")'), example_kb)

    def test_ordering_predicates_untouched_by_hierarchy(self, example_kb):
        event = parse_event('{(price, 15)}')
        assert sem_match(event, parse_subscription("(price >= 10)"), example_kb)
        assert not sem_match(event, parse_subscription("(price >= 16)"), example_kb)


def _synonym_case(seed: int):
    """A random forest with synonym groups and one rename mapping, plus
    attribute and term pools that include the synonym spellings."""
    rng = random.Random(seed)
    forest = make_forest_kb(rng, rng.randint(4, 12), with_synonyms=True)
    kb = KnowledgeBase(
        forest.synonyms,
        forest.hierarchy,
        (MappingFunction("f", ("price",), None, "cost", Rename("price")),),
        forest.reference_year,
    )
    roots = sorted({t for edge in kb.hierarchy for t in edge} | {g.root for g in kb.synonyms})
    terms = roots + sorted(m for g in kb.synonyms for m in g.members)
    attrs = rng.sample(terms, k=min(3, len(terms))) + ["price", "cost"]
    return rng, kb, attrs, terms


def _random_event(rng: random.Random, attrs: list[str], terms: list[str]) -> Event:
    return Event(
        tuple(
            Pair(rng.choice(attrs), random_value(rng, terms))
            for _ in range(rng.randint(1, 4))
        )
    )


class TestSemMatchProperties:
    def test_equals_syntactic_match_of_augmented_event(self):
        for seed in range(300):
            rng, kb, attrs, terms = _synonym_case(seed + 15000)
            sub = random_subscription(rng, attrs, terms)
            event = _random_event(rng, attrs, terms)
            augmented = Event(_visible_pairs(augment(normalize_event(event, kb), kb)))
            assert sem_match(event, sub, kb) == match_event(
                augmented, normalize_subscription(sub, kb)
            ), (seed, event, sub)

    def test_syntactic_match_implies_semantic(self):
        for seed in range(150):
            rng, kb, attrs, terms = relation_case(seed)
            sub = random_subscription(rng, attrs, terms)
            pool = universe(kb, sub)
            for k in (1, 2, 3):
                event_pairs = tuple(rng.choice(pool) for _ in range(k))
                event = Event(event_pairs)
                if match_event(event, sub):
                    assert sem_match(event, sub, kb)

    def test_oracle_agreement_mapping_free(self):
        for seed in range(150):
            rng, kb, attrs, terms = relation_case(seed + 5000)
            sub = random_subscription(rng, attrs, terms)
            pool = universe(kb, sub)
            for k in (1, 2):
                event_pairs = tuple(rng.choice(pool) for _ in range(k))
                event = Event(event_pairs)
                assert sem_match(event, sub, kb) == sem_match_oracle(kb, event, sub), (
                    seed,
                    event,
                    sub,
                )

    def test_augmentation_bound(self):
        for seed in range(50):
            rng, kb, attrs, terms = relation_case(seed + 6000)
            pool = universe(kb)
            pairs = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            event = normalize_event(Event(pairs), kb)
            bound = sum(
                (len(kb.ancestors(p.attribute)) + 1)
                * (len(kb.ancestors(p.value.data)) + 1 if p.value.is_string else 1)
                - 1
                for p in event.pairs
            ) + len(kb.mappings)
            assert len(augment(event, kb).added) <= bound

    def test_empty_kb_degenerates_to_syntactic(self):
        kb = KnowledgeBase.empty()
        for seed in range(100):
            rng = random.Random(seed)
            sub = random_subscription(rng, ["a", "b"], ["x", "y"])
            for k in (1, 2, 3):
                event = _two_attribute_event(rng, k)
                assert sem_match(event, sub, kb) == match_event(event, sub)


def _visible_pairs(augmented) -> tuple[Pair, ...]:
    """The base pairs, then the added ones in the order they were added."""
    return augmented.base.pairs + tuple(a.pair for a in augmented.added)


def _scan(pairs, sub: Subscription) -> bool:
    """The reference match: each predicate meets some pair (`match_pair`)."""
    return all(any(match_pair(p, pred) for p in pairs) for pred in sub.predicates)


# Values that collide under Python's own equality (0 == False, 1 == True)
# but not as `Value`s, and a string.
COLLIDING = [
    Value.integer(0),
    Value.integer(1),
    Value.integer(2),
    Value.boolean(False),
    Value.boolean(True),
    Value.string("x"),
]


@st.composite
def _multi_valued_case(draw):
    """An event carrying one or several values at each attribute, and a
    subscription whose `=` and `!=` name those values and whose half-lines
    bound the integers among them."""
    values = st.sampled_from(COLLIDING)
    held = draw(
        st.dictionaries(st.sampled_from(["a", "b"]), st.lists(values, min_size=1, max_size=4), min_size=1)
    )
    event = Event(tuple(Pair(a, v) for a, vs in held.items() for v in vs))
    pred = st.one_of(
        st.builds(Predicate, st.sampled_from(["a", "b"]), st.sampled_from([RelOp.EQ, RelOp.NE]), values),
        st.builds(
            Predicate,
            st.sampled_from(["a", "b"]),
            st.sampled_from([RelOp.LT, RelOp.LE, RelOp.GT, RelOp.GE]),
            st.integers(-1, 3).map(Value.integer),
        ),
    )
    sub = Subscription(tuple(draw(st.lists(pred, min_size=1, max_size=3))))
    return event, sub


def _mapped_forest(seed: int) -> tuple[KnowledgeBase, list[str], list[str]]:
    """A random forest with synonyms and two rename mappings: `f` copies a
    hierarchy term, often carried at once by the event and by a
    generalization, to `cost`; `g` copies `cost` to `fee`, so it fires only
    when the event itself carries `cost`.  Returns the knowledge base, its
    root terms and every spelling of them."""
    rng = random.Random(seed)
    forest = make_forest_kb(rng, rng.randint(3, 8), with_synonyms=True)
    roots = sorted({t for edge in forest.hierarchy for t in edge} | {g.root for g in forest.synonyms})
    parents = sorted({parent for _, parent in forest.hierarchy}) or roots
    source = rng.choice(parents)
    kb = KnowledgeBase(
        forest.synonyms,
        forest.hierarchy,
        (
            MappingFunction("f", (source,), None, "cost", Rename(source)),
            MappingFunction("g", ("cost",), None, "fee", Rename("cost")),
        ),
        forest.reference_year,
    )
    return kb, roots, roots + sorted(m for g in kb.synonyms for m in g.members)


@st.composite
def _augmentation_case(draw):
    """A `_mapped_forest` and an event over its spellings, `cost` and `fee`;
    the event often repeats one of its pairs in another spelling, so that
    two base pairs normalize to one."""
    kb, _, spellings = _mapped_forest(draw(st.integers(0, 2**32)))
    attrs = st.sampled_from(spellings + ["cost", "fee"])
    pairs = draw(st.lists(st.builds(Pair, attrs, values_from(spellings)), min_size=1, max_size=4))

    def respelled(term: str) -> str:
        root = kb.root_term(term)
        return draw(st.sampled_from([root, *sorted(m for g in kb.synonyms if g.root == root for m in g.members)]))

    if draw(st.booleans()):
        pair = draw(st.sampled_from(pairs))
        value = pair.value
        if value.is_string:
            value = Value.string(respelled(value.data))
        pairs.append(Pair(respelled(pair.attribute), value))
    return kb, Event(tuple(pairs))


def _reference_augment(event: Event, kb: KnowledgeBase) -> list[tuple[Pair, Provenance]]:
    """Augmentation pair by pair: each base pair's attribute and value chains
    crossed, skipping pairs seen before (the base pairs among them), then
    each mapping over the base and hierarchy-added pairs, once per
    combination of its inputs' values there, each input's values sorted."""
    seen = set(event.pairs)
    added: list[tuple[Pair, Provenance]] = []
    for pair in event.pairs:
        chain = [pair.value]
        if pair.value.is_string:
            chain += [Value.string(t) for t in kb.ancestors(pair.value.data)]
        for attribute in (pair.attribute, *kb.ancestors(pair.attribute)):
            for value in chain:
                candidate = Pair(attribute, value)
                if candidate not in seen:
                    seen.add(candidate)
                    added.append((candidate, Provenance.HIERARCHY))
    visible = group_by_attribute((p.attribute, p.value) for p in [*event.pairs, *(p for p, _ in added)])
    for f in kb.mappings:
        columns = [sorted(visible.get(a, []), key=lambda v: (v.kind.value, v.data)) for a in f.inputs]
        for combination in itertools.product(*columns):
            for output in apply_mapping(f, {a: [v] for a, v in zip(f.inputs, combination)}):
                if output not in seen:
                    seen.add(output)
                    added.append((output, Provenance.MAPPING))
    return added


PROPERTY = settings(derandomize=True, max_examples=400, deadline=None)


class TestMatchByImplication:
    """`match_event`, `sem_match` and the oracle ask a per-attribute summary
    of the event's values; each equals the `match_pair` scan."""

    @PROPERTY
    @given(_multi_valued_case())
    def test_summary_equals_the_pair_scan(self, case):
        event, sub = case
        expected = _scan(event.pairs, sub)
        assert match_event(event, sub) == expected
        assert sem_match.__wrapped__(event, sub, KnowledgeBase.empty()) == expected

    def test_match_event_leaves_the_memo_alone(self):
        event = parse_event('{(a, 1), (b, "x")}')
        texts = ("(a = 1)", "(a != 1)", '(b = "x") AND (a >= 0)')
        subs = [parse_subscription(text) for text in texts]
        before = sem_match.cache_info()
        results = [match_event(event, sub) for sub in subs + subs]
        assert results == [True, False, True] * 2
        assert sem_match.cache_info() == before

    def test_inequality_against_one_and_several_values(self):
        one = parse_event("{(a, 1)}")
        several = Event((Pair("a", Value.integer(1)), Pair("a", Value.boolean(True))))
        ne = parse_subscription("(a != 1)")
        assert not match_event(one, ne)
        assert match_event(several, ne)  # true differs from 1
        assert match_event(one, parse_subscription("(a != true)"))
        assert not match_event(one, parse_subscription("(a = true)"))

    @PROPERTY
    @given(_augmentation_case(), subscriptions_from(["t0", "t1", "t2", "cost", "fee"], ["t0", "t1", "t2"]))
    def test_sem_match_equals_the_scan_of_the_augmented_event(self, case, sub):
        kb, event = case
        pairs = _visible_pairs(augment(normalize_event(event, kb), kb))
        expected = _scan(pairs, normalize_subscription(sub, kb))
        assert sem_match.__wrapped__(event, sub, kb) == expected


class TestAugmentOnce:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(_augmentation_case())
    def test_equals_the_pair_by_pair_loop(self, case):
        kb, event = case
        base = normalize_event(event, kb)
        augmented = augment(base, kb)
        reference = _reference_augment(base, kb)
        assert [(a.pair, a.provenance) for a in augmented.added] == reference
        visible = dict.fromkeys((p.attribute, p.value) for p in _visible_pairs(augmented))
        assert {a: list(held) for a, held in augmented.values.items()} == group_by_attribute(visible)

    @PROPERTY
    @given(
        _augmentation_case(),
        st.data(),
        subscriptions_from(["t0", "t1", "t2", "cost", "fee", "total"], ["t0", "t1", "t2"]),
    )
    def test_the_order_of_the_pairs_changes_nothing(self, case, data, sub):
        kb, event = case
        # A linear mapping beside the renames, on the same hierarchy term.
        (source,) = kb.mappings[0].inputs
        h = MappingFunction("h", (source,), None, "total", Linear(source, 1, 1))
        kb = KnowledgeBase(kb.synonyms, kb.hierarchy, (*kb.mappings, h), kb.reference_year)
        permuted = Event(tuple(data.draw(st.permutations(event.pairs))))

        def summary(e: Event) -> dict:
            implied = semantic.augmented_implied(e, kb)
            return {a: [getattr(i, s) for s in Implied.__slots__] for a, i in implied.items()}

        assert summary(permuted) == summary(event)
        assert sem_match.__wrapped__(permuted, sub, kb) == sem_match.__wrapped__(event, sub, kb)

    def test_two_spellings_of_one_pair_add_it_once(self, example_kb):
        event = normalize_event(parse_event('{(car, "automobile"), (vehicle, "car")}'), example_kb)
        assert event.pairs[0] == event.pairs[1]
        augmented = augment(event, example_kb)
        assert augmented.added == ()
        assert augmented.values == {"vehicle": {Value.string("vehicle"): None}}

    def test_mapping_runs_on_every_value_of_its_inputs(self):
        kb = KnowledgeBase(
            hierarchy=[("a", "b")],
            mappings=[MappingFunction("f", ("b",), None, "c", Rename("b"))],
        )
        for text in ("{(a, 7), (b, 1)}", "{(b, 1), (a, 7)}"):
            added = augment(parse_event(text), kb).added
            assert [a.pair for a in added] == [
                Pair("b", Value.integer(7)),
                Pair("c", Value.integer(1)),
                Pair("c", Value.integer(7)),
            ]
        added = augment(parse_event("{(a, 7)}"), kb).added
        assert [a.pair for a in added] == [Pair("b", Value.integer(7)), Pair("c", Value.integer(7))]


class TestKeptForms:
    """Routing keeps each entity's normal form, augmentation and summaries on
    it under the last knowledge base asked; asked under another, each
    answers for that one."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(0, 2**32),
        events_from(["t0", "t1", "t2", "cost"], ["t0", "t1", "t2"]),
        subscriptions_from(["t0", "t1", "t2", "cost"], ["t0", "t1", "t2"]),
        st.lists(predicates_from(["t0", "t1", "t2"], ["t0", "t1", "t2"]), min_size=1, max_size=4),
    )
    def test_a_second_knowledge_base_gets_its_own_answers(self, seed1, seed2, event, sub, preds):
        adv, s1 = Advertisement(tuple(preds)), Subscription(tuple(preds))
        kbs = (_mapped_forest(seed1)[0], _mapped_forest(seed2)[0], KnowledgeBase.empty())
        for kb in (*kbs, kbs[0]):
            fresh_event, fresh_sub = Event(event.pairs), Subscription(sub.predicates)
            fresh_adv, fresh_s1 = Advertisement(adv.predicates), Subscription(s1.predicates)
            assert sem_match.__wrapped__(event, sub, kb) == sem_match.__wrapped__(fresh_event, fresh_sub, kb)
            assert event_implied(event, kb).keys() == event_implied(fresh_event, kb).keys()
            assert sem_covers(s1, sub, kb) == sem_covers(fresh_s1, fresh_sub, kb)
            assert sem_covers(sub, s1, kb) == sem_covers(fresh_sub, fresh_s1, kb)
            assert sem_intersects(adv, sub, kb) == sem_intersects(fresh_adv, fresh_sub, kb)
            assert sem_determines(adv, event, kb) == sem_determines(fresh_adv, fresh_event, kb)

    def test_root_form_entities_keep_the_kernels_summaries_per_knowledge_base(self):
        # Under a hierarchy-only knowledge base these entities are their own
        # normal forms, so the relations of both modes keep their summaries
        # on the same objects, each under its own knowledge base in turn.
        kb = KnowledgeBase(hierarchy=[("book", "item")])
        stored = parse_subscription("(item >= 5)")
        later = parse_subscription("(book >= 7)")
        adv = parse_advertisement("(item >= 0)")
        assert normalize_subscription(stored, kb) is stored
        assert normalize_subscription(later, kb) is later
        assert normalize_advertisement(adv, kb) is adv
        for lifted in (True, False, True, False):
            if lifted:
                assert sem_covers(stored, later, kb)
                assert not sem_covers(later, stored, kb)
                assert sem_intersects(adv, later, kb)
            else:
                assert not covers(stored, later)
                assert not covers(later, stored)
                assert not intersects(adv, later)
            key = kb if lifted else syntactic._EMPTY
            assert later._implied[0] is key
            assert stored._implied[0] is key
            assert adv._gates[0] is key

    def test_a_root_form_entity_does_not_hold_itself(self):
        # Kept as its own normal form, an entity would be a reference cycle
        # that only the cycle collector frees.
        kb = KnowledgeBase(hierarchy=[("book", "item")])
        stored = parse_subscription("(item >= 5)")
        sub = parse_subscription("(book >= 7)")
        adv = parse_advertisement("(item >= 0)")
        refs = [weakref.ref(sub), weakref.ref(adv)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert sem_covers(stored, sub, kb)
            assert not sem_covers(sub, stored, kb)
            assert sem_intersects(adv, sub, kb)
            del sub, adv
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()


def test_no_module_level_cache_but_sem_match():
    memos = [name for name, obj in vars(semantic).items() if hasattr(obj, "cache_info")]
    assert memos == ["sem_match"]
    containers = [
        name
        for name, obj in vars(semantic).items()
        if isinstance(obj, (dict, list, set)) and not name.startswith("__")
    ]
    assert containers == []


def test_sem_match_memo_is_bounded():
    size = sem_match.cache_info().maxsize
    assert size is not None
    sub = parse_subscription("(x = 0)")
    sem_match.cache_clear()
    try:
        for i in range(size + 1):
            sem_match(Event((Pair("x", Value.integer(i)),)), sub, KnowledgeBase.empty())
        assert sem_match.cache_info().currsize == size
    finally:
        sem_match.cache_clear()


class TestSemCovers:
    def test_printed_material_covers_book(self, example_kb):
        s1 = parse_subscription('(product = "printed material") AND (topic = "semantic web")')
        s2 = parse_subscription('(product = "book") AND (topic = "semantic web")')
        assert not covers(s1, s2)
        assert sem_covers(s1, s2, example_kb)
        assert not sem_covers(s2, s1, example_kb)

    def test_value_direction_is_specific_under_general(self, example_kb):
        s1 = parse_subscription('(product = "book")')
        s2 = parse_subscription('(product = "printed material")')
        assert not sem_covers(s1, s2, example_kb)

    def test_attribute_direction(self, example_kb):
        general_attr = parse_subscription('("printed material" = "x")')
        specific_attr = parse_subscription('(book = "x")')
        assert sem_covers(general_attr, specific_attr, example_kb)
        assert not sem_covers(specific_attr, general_attr, example_kb)

    def test_syntactic_covering_carries_over(self):
        for seed in range(100):
            rng, kb, attrs, terms = relation_case(seed + 7000)
            s1 = random_subscription(rng, attrs, terms)
            s2 = random_subscription(rng, attrs, terms)
            if covers(s1, s2):
                assert sem_covers(s1, s2, kb)

    def test_soundness_against_counterexample_search(self):
        for seed in range(200):
            rng, kb, attrs, terms = relation_case(seed + 8000)
            s1 = normalize_subscription(random_subscription(rng, attrs, terms), kb)
            s2 = normalize_subscription(random_subscription(rng, attrs, terms), kb)
            if sem_covers(s1, s2, kb):
                pool = universe(kb, s1, s2)
                assert covering_counterexample(s1, s2, pool, kb=kb) is None, (
                    seed,
                    s1,
                    s2,
                )

    def test_empty_kb_degenerates_to_syntactic(self):
        kb = KnowledgeBase.empty()
        for seed in range(100):
            rng = random.Random(seed)
            s1 = random_subscription(rng, ["a", "b"], ["x", "y"])
            s2 = random_subscription(rng, ["a", "b"], ["x", "y"])
            assert sem_covers(s1, s2, kb) == covers(s1, s2)


def _sem_implies(p2: Predicate, p1: Predicate, kb: KnowledgeBase) -> bool:
    """The predicate-wise rule `sem_covers` replaced by a summary: any event
    pair semantically satisfying p2 also satisfies p1 (normalized inputs)."""
    if not kb.is_descendant_or_equal(p2.attribute, p1.attribute):
        return False
    if p2.op is RelOp.EQ and p1.op is RelOp.EQ:
        v, w = p2.value, p1.value
        return v == w or (
            v.is_string and w.is_string and kb.is_descendant_or_equal(v.data, w.data)
        )
    return implies(p2, p1)


def _pairwise_sem_covers(s1: Subscription, s2: Subscription, kb: KnowledgeBase) -> bool:
    n1 = normalize_subscription(s1, kb)
    n2 = normalize_subscription(s2, kb)
    return all(
        any(_sem_implies(p2, p1, kb) for p2 in n2.predicates) for p1 in n1.predicates
    )


@st.composite
def _forest_covering_case(draw):
    """A random forest with synonyms, and two subscriptions over its terms
    and their synonym spellings, in both attribute and value position.

    Each predicate of the covering side is drawn afresh or generalizes one
    of the covered side's: its attribute and string value climb to the
    root form or an ancestor, `=` and `!=` may swap, and a bound moves by a
    little, so that coverings through the hierarchy are common.
    """
    kb = make_forest_kb(
        random.Random(draw(st.integers(0, 2**32))),
        draw(st.integers(3, 8)),
        with_synonyms=True,
    )
    terms = sorted({t for edge in kb.hierarchy for t in edge} | {g.root for g in kb.synonyms})
    spellings = terms + sorted(m for g in kb.synonyms for m in g.members)
    attrs = draw(st.lists(st.sampled_from(spellings), min_size=1, max_size=3, unique=True))
    s2 = draw(subscriptions_from(attrs, spellings, max_preds=4))

    def climbed(term: str) -> str:
        root = kb.root_term(term)
        return draw(st.sampled_from([term, root, *kb.ancestors(root)]))

    def generalized(p: Predicate) -> Predicate:
        if p.op.is_ordering:
            return Predicate(climbed(p.attribute), p.op, Value.integer(p.value.data + draw(st.integers(-2, 2))))
        value = Value.string(climbed(p.value.data)) if p.value.is_string else p.value
        return Predicate(climbed(p.attribute), draw(st.sampled_from([RelOp.EQ, RelOp.NE])), value)

    fresh = predicates_from(attrs, spellings)
    s1 = Subscription(
        tuple(
            generalized(draw(st.sampled_from(s2.predicates))) if draw(st.booleans()) else draw(fresh)
            for _ in range(draw(st.integers(1, 3)))
        )
    )
    return kb, s1, s2


class TestSemCoversSummary:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(_forest_covering_case())
    def test_equals_the_predicate_wise_rule(self, case):
        kb, s1, s2 = case
        expected = _pairwise_sem_covers(s1, s2, kb)
        assert sem_covers(s1, s2, kb) == expected
        assert sem_covers(s1, s2, kb) == expected  # the kept summary answers alike

    def test_the_summary_follows_the_knowledge_base(self, example_kb):
        s1 = parse_subscription('(product = "printed material")')
        s2 = parse_subscription('(product = "book")')
        empty = KnowledgeBase.empty()
        for kb, expected in ((example_kb, True), (empty, False), (example_kb, True)):
            assert sem_covers(s1, s2, kb) == expected


ROW_ATTRS = ["t0", "t1"]
ROW_TERMS = ["t0", "t1", "t2", "t3"]


class TestRequirementRows:
    """`requirement_met` asks a subscription's per-attribute rows of a
    summary; it equals asking the summary predicate by predicate and the
    per-pair rule, however the subscription repeats an attribute."""

    @PROPERTY
    @given(
        st.integers(0, 2**32),
        subscriptions_from(ROW_ATTRS, ROW_TERMS, max_preds=6),
        st.lists(predicates_from(ROW_ATTRS, ROW_TERMS), max_size=6),
    )
    def test_rows_equal_the_predicates_against_a_forest_summary(self, forest, sub, held):
        kb = make_forest_kb(random.Random(forest), len(ROW_TERMS))
        implied = syntactic.implied_by_attribute(held, kb)
        expected = all(
            any(_sem_implies(q, p, kb) for q in held) for p in sub.predicates
        )
        assert syntactic.all_implied(sub.predicates, implied) == expected
        assert syntactic.requirement_met(sub.requirement, implied) == expected

    @PROPERTY
    @given(
        events_from(ROW_ATTRS, ROW_TERMS),
        subscriptions_from(ROW_ATTRS, ROW_TERMS, max_preds=6),
    )
    def test_rows_equal_the_predicates_against_an_events_values(self, event, sub):
        implied = syntactic.implied_by_values(
            group_by_attribute((p.attribute, p.value) for p in event.pairs)
        )
        expected = all(
            any(
                implies(Predicate(pair.attribute, RelOp.EQ, pair.value), p)
                for pair in event.pairs
                if pair.attribute == p.attribute
            )
            for p in sub.predicates
        )
        assert syntactic.all_implied(sub.predicates, implied) == expected
        assert syntactic.requirement_met(sub.requirement, implied) == expected

    def test_each_bound_is_met_by_its_own_value(self):
        # `cost` is a synonym of `price`, so the event carries 3 and 9 at
        # `price`: 9 meets the lower bound and 3 the upper one, although no
        # one value lies in both.
        knowledge = {"synonyms": [{"root": "price", "members": ["cost"]}]}
        kb = load_knowledge(knowledge)
        sub = parse_subscription("(price > 5) AND (price < 4)")
        event = parse_event("{(price, 3), (cost, 9)}")
        implied = event_implied(event, kb)
        normal = normalize_subscription(sub, kb)
        assert normal.requirement == (Row("price", (), (), 6, 3),)
        assert syntactic.requirement_met(normal.requirement, implied)
        assert syntactic.all_implied(normal.predicates, implied)
        assert sem_match_oracle(kb, event, sub)
        scenario = load_scenario(
            {
                "brokers": ["b1", "b2"],
                "edges": [["b1", "b2"]],
                "clients": [{"id": "pub", "broker": "b1"}, {"id": "s", "broker": "b2"}],
                "knowledge": knowledge,
                "mode": "semantic",
                "script": [
                    {"action": "advertise", "client": "pub", "payload": "(price >= 0)"},
                    {"action": "subscribe", "client": "s", "payload": render(sub)},
                    {"action": "publish", "client": "pub", "payload": render(event)},
                    {"action": "publish", "client": "pub", "payload": "{(price, 3)}"},
                ],
            }
        )
        assert oracle_deliveries(scenario) == {("s", 0)}
        assert run(scenario).deliveries == (("s", 0),)


class TestCoveringAttributeReach:
    """Covering needs every attribute of the covering side to be one of the
    covered side's, or a hierarchy ancestor of one, in root form; routing
    tests for covering only the stored subscriptions that pass this."""

    def test_attribute_reach_is_necessary_for_covering(self):
        empty = KnowledgeBase.empty()
        covering = 0
        for seed in range(2000):
            rng = random.Random(seed + 11000)
            kb = make_forest_kb(rng, rng.randint(3, 8), with_synonyms=True)
            terms = sorted({t for edge in kb.hierarchy for t in edge} | {g.root for g in kb.synonyms})
            spellings = terms + sorted(m for g in kb.synonyms for m in g.members)
            attrs = rng.sample(spellings, k=min(4, len(spellings)))
            s1 = random_subscription(rng, attrs, spellings, max_preds=2)
            s2 = random_subscription(rng, attrs, spellings, max_preds=4)
            reach = attribute_reach(subscription_attributes(s2, kb), kb)
            inside = subscription_attributes(s1, kb) <= reach
            for holds in (sem_covers(s1, s2, kb), covers(s1, s2)):
                covering += holds
                assert inside or not holds, (seed, s1, s2)
            if covers(s1, s2):
                bare = attribute_reach(subscription_attributes(s2, empty), empty)
                assert subscription_attributes(s1, empty) <= bare, (seed, s1, s2)
        assert covering > 200

    def test_helpers(self, example_kb):
        sub = parse_subscription('(book = "x") AND (subject = "reptiles")')
        attributes = subscription_attributes(sub, example_kb)
        assert attributes == {"book", "subject"}
        reach = attribute_reach(attributes, example_kb)
        assert reach == {"subject"} | {"book", *example_kb.ancestors("book")}


def _gate_case(seed: int):
    """A deep random forest, a long advertisement over one to three
    hierarchy attributes, and a subscription over those attributes, their
    ancestors and children, and one random term.

    The advertisement mixes string `=` at every depth, integer and boolean
    `=`, `!=` and half-lines bounded either way.  Most of its predicates go
    to the first attribute, so the others keep short gates, where a single
    predicate can decide.  Most subscription predicates mirror an advertised
    one, preferably on a short gate, at a comparable attribute: an `=` or
    `!=` by the same value under the other operator, which is where the
    hierarchy decides the verdict, and a half-line by one facing the other
    way near its bound.
    """
    rng = random.Random(seed)
    n_terms = rng.randint(10, 16)
    kb = make_forest_kb(rng, n_terms)
    terms = [f"t{i}" for i in range(n_terms)]
    advertised = rng.sample(terms, k=rng.randint(1, 3))

    def related(attr: str) -> list[str]:
        children = [child for child, parent in kb.hierarchy if parent == attr]
        return [attr, *kb.ancestors(attr), *children]

    def predicate(attr: str) -> Predicate:
        roll = rng.random()
        if roll < 0.25:
            return Predicate(attr, RelOp.EQ, Value.string(rng.choice(terms)))
        if roll < 0.6:
            op = RelOp.EQ if roll < 0.4 else RelOp.NE
            return Predicate(attr, op, random_value(rng, terms))
        op = rng.choice([RelOp.LT, RelOp.LE, RelOp.GT, RelOp.GE])
        return Predicate(attr, op, Value.integer(rng.randint(-5, 15)))

    adv = Advertisement(
        tuple(
            predicate(rng.choices(advertised, [8, 1, 1][: len(advertised)])[0])
            for _ in range(rng.randint(6, 15))
        )
    )
    near = sorted({rng.choice(terms)}.union(*(related(a) for a in advertised)))

    def sub_predicate() -> Predicate:
        attr = rng.choices(advertised, [1, 3, 3][: len(advertised)])[0]
        mirrored = [p for p in adv.predicates if p.attribute == attr]
        if not mirrored or rng.random() < 0.4:
            return predicate(rng.choice(near))
        ap = rng.choice(mirrored)
        attr = rng.choice(related(attr))
        if not ap.op.is_ordering:
            return Predicate(attr, RelOp.NE if ap.op is RelOp.EQ else RelOp.EQ, ap.value)
        if ap.op in (RelOp.GT, RelOp.GE):
            op = rng.choice([RelOp.LT, RelOp.LE])
        else:
            op = rng.choice([RelOp.GT, RelOp.GE])
        return Predicate(attr, op, Value.integer(ap.value.data + rng.randint(-2, 2)))

    sub = Subscription(tuple(sub_predicate() for _ in range(rng.randint(1, 3))))
    return kb, adv, sub


class TestSemIntersects:
    def test_gap_example(self, example_kb):
        adv = parse_advertisement('(product = "printed material") AND (price >= 10)')
        sub = parse_subscription('(product = "book") AND (price <= 20)')
        assert not intersects(adv, sub)
        assert sem_intersects(adv, sub, example_kb)

    def test_syntactic_intersections_carry_over(self, example_kb):
        a1 = parse_advertisement('(product = "computer") AND (brand = "IBM") AND (price <= 1500)')
        s1 = parse_subscription('(product = "computer") AND (brand = "IBM") AND (price <= 1600)')
        a2 = parse_advertisement('(product = "computer") AND (brand = "IBM") AND (price <= 1600)')
        s2 = parse_subscription('(product = "computer") AND (price <= 1600)')
        assert sem_intersects(a1, s1, example_kb)
        assert sem_intersects(a2, s2, example_kb)

    def test_unrelated_terms_do_not_intersect(self, example_kb):
        adv = parse_advertisement('(product = "computer")')
        sub = parse_subscription('(product = "book")')
        assert not sem_intersects(adv, sub, example_kb)

    def test_incomparable_attributes_do_not_intersect(self, example_kb):
        adv = parse_advertisement('(crocodiles = "x")')
        sub = parse_subscription('(book = "x")')
        assert not sem_intersects(adv, sub, example_kb)

    def test_predicate_below_an_advertised_attribute_opens_the_gate(self, example_kb):
        # Neither "encyclopedia" nor its parent "book" is advertised.
        adv = parse_advertisement('("printed material" = "x")')
        sub = parse_subscription('(encyclopedia = "x")')
        assert sem_intersects(adv, sub, example_kb)

    def test_an_advertised_sibling_attribute_does_not_open_the_gate(self):
        kb = KnowledgeBase(hierarchy=[("hardcover", "book"), ("paperback", "book")])
        sub = parse_subscription('(paperback = "x")')
        adv = parse_advertisement('(hardcover = "x") AND (book >= 3)')
        assert not sem_intersects(adv, sub, kb)
        assert sem_intersects(parse_advertisement('(book = "x")'), sub, kb)

    def test_empty_kb_degenerates_to_syntactic(self):
        kb = KnowledgeBase.empty()
        for seed in range(100):
            rng = random.Random(seed)
            adv = random_advertisement(rng, ["a", "b"], ["x", "y"])
            sub = random_subscription(rng, ["a", "b"], ["x", "y"])
            assert sem_intersects(adv, sub, kb) == intersects(adv, sub)

    def test_oracle_agreement_both_directions(self):
        for seed in range(200):
            rng, kb, attrs, terms = relation_case(seed + 9000)
            adv = normalize_advertisement(random_advertisement(rng, attrs, terms), kb)
            sub = normalize_subscription(random_subscription(rng, attrs, terms), kb)
            pool = universe(kb, adv, sub)
            assert sem_intersects(adv, sub, kb) == witness_exists(
                adv, sub, pool, kb=kb
            ), (seed, adv, sub)

    def test_gates_over_long_advertisements_equal_the_witness_search(self):
        verdicts = []
        for seed in range(120):
            kb, adv, sub = _gate_case(seed + 17000)
            verdict = sem_intersects(adv, sub, kb)
            assert verdict == witness_exists(adv, sub, universe(kb, adv, sub), kb=kb), (
                seed, adv, sub
            )
            verdicts.append(verdict)
        assert 30 < sum(verdicts) < 90


class TestAdvertisementSpelling:
    def test_synonyms_in_the_advertisement_change_no_verdict(self):
        respelled = 0
        for seed in range(300):
            rng, kb, attrs, terms = _synonym_case(seed + 16000)
            adv = random_advertisement(rng, attrs, terms)
            normal = normalize_advertisement(adv, kb)
            respelled += normal != adv
            sub = random_subscription(rng, attrs, terms)
            event = _random_event(rng, attrs, terms)
            case = (seed, adv, sub, event)
            assert sem_intersects(adv, sub, kb) == sem_intersects(normal, sub, kb), case
            assert sem_determines(adv, event, kb) == sem_determines(normal, event, kb), case
        assert respelled > 50


class TestSemDetermines:
    def test_hierarchy_lifted_admission(self, example_kb):
        adv = parse_advertisement('(product = "printed material") AND (price >= 10)')
        assert sem_determines(adv, parse_event('{(product, "book"), (price, 15)}'), example_kb)

    def test_child_attribute_pair_admitted_by_parent_attribute_predicate(self, example_kb):
        adv = parse_advertisement('(book = "x")')
        assert sem_determines(adv, parse_event('{(encyclopedia, "x")}'), example_kb)
        adv = parse_advertisement('(encyclopedia = "x")')
        assert not sem_determines(adv, parse_event('{(book, "x")}'), example_kb)

    def test_generalized_pair_not_admitted(self, example_kb):
        adv = parse_advertisement('(product = "book")')
        assert not sem_determines(adv, parse_event('{(product, "printed material")}'), example_kb)

    def test_syntactic_determines_carries_over(self):
        from .bruteforce import determines

        for seed in range(100):
            rng, kb, attrs, terms = relation_case(seed + 11000)
            adv = random_advertisement(rng, attrs, terms)
            pool = universe(kb, adv)
            pairs = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            event = Event(pairs)
            if determines(adv, event):
                assert sem_determines(adv, event, kb)

    def test_empty_kb_degenerates_to_syntactic(self):
        from .bruteforce import determines

        kb = KnowledgeBase.empty()
        for seed in range(100):
            rng = random.Random(seed)
            adv = random_advertisement(rng, ["a", "b"], ["x", "y"])
            for k in (1, 2, 3):
                event = _two_attribute_event(rng, k)
                assert sem_determines(adv, event, kb) == determines(adv, event)

    def test_oracle_agreement(self):
        for seed in range(200):
            rng, kb, attrs, terms = relation_case(seed + 13000)
            adv = random_advertisement(rng, attrs, terms)
            pool = universe(kb, adv)
            for k in (1, 2):
                event = Event(tuple(rng.choice(pool) for _ in range(k)))
                assert sem_determines(adv, event, kb) == sem_determines_oracle(
                    kb, event, adv
                ), (seed, adv, event)

    def test_admits_when_some_advertisement_determines(self):
        # Each pair is normalized once and asked of every advertisement's
        # gates.  Synonym cases spell advertisements and events with members
        # as well as roots, so pairs reach the gates of ancestor attributes
        # and the `!=` cases through normalization.
        admitted = 0
        for seed in range(600):
            case = relation_case if seed % 2 else _synonym_case
            rng, kb, attrs, terms = case(seed + 14000)
            members = {g.root: sorted(g.members) for g in kb.synonyms}

            def spelled(term: str) -> str:
                return rng.choice([term, *members.get(term, ())])

            advs = [random_advertisement(rng, attrs, terms) for _ in range(rng.randint(1, 3))]
            pool = universe(kb, *advs)
            event = Event(
                tuple(
                    Pair(
                        spelled(p.attribute),
                        Value.string(spelled(p.value.data)) if p.value.is_string else p.value,
                    )
                    for p in (rng.choice(pool) for _ in range(rng.randint(1, 3)))
                )
            )
            expected = any(sem_determines_oracle(kb, event, adv) for adv in advs)
            assert sem_admits(advs, event, kb) == expected, (seed, advs, event)
            admitted += expected
        assert 40 < admitted < 300


class TestCoveringForwardingSafety:
    def test_syntactic_covering_preserves_semantic_audiences(self):
        for seed in range(120):
            rng, kb, attrs, terms = relation_case(seed + 12000)
            s1 = random_subscription(rng, attrs, terms)
            s2 = random_subscription(rng, attrs, terms)
            if not covers(s1, s2):
                continue
            n1 = normalize_subscription(s1, kb)
            n2 = normalize_subscription(s2, kb)
            pool = universe(kb, n1, n2)
            counterexample = covering_counterexample(n1, n2, pool, kb=kb)
            assert counterexample is None, (seed, s1, s2, counterexample)
