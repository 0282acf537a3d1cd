import random

from semroute.knowledge import (
    KnowledgeBase,
    MappingFunction,
    Rename,
    load_knowledge,
)
from semroute.model import (
    Event,
    Pair,
    Value,
    parse_advertisement,
    parse_event,
    parse_subscription,
)
from semroute.semantic import (
    Provenance,
    attribute_reach,
    augment,
    normalize_advertisement,
    normalize_event,
    normalize_subscription,
    sem_covers,
    sem_determines,
    sem_intersects,
    sem_match,
    subscription_attributes,
)
from semroute.syntactic import covers, intersects, match_event

from .bruteforce import (
    covering_counterexample,
    sem_determines_oracle,
    sem_match_oracle,
    universe,
    witness_exists,
)
from .conftest import (
    make_forest_kb,
    random_advertisement,
    random_subscription,
    random_value,
    relation_case,
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

    def test_all_pairs_is_base_then_added(self, example_kb):
        event = normalize_event(ENCYCLOPEDIA_EVENT, example_kb)
        augmented = augment(event, example_kb)
        assert augmented.all_pairs()[: len(event.pairs)] == event.pairs

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
            augmented = Event(augment(normalize_event(event, kb), kb).all_pairs())
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

    def test_generalized_pair_not_admitted(self, example_kb):
        adv = parse_advertisement('(product = "book")')
        assert not sem_determines(adv, parse_event('{(product, "printed material")}'), example_kb)

    def test_syntactic_determines_carries_over(self):
        from semroute.syntactic import determines

        for seed in range(100):
            rng, kb, attrs, terms = relation_case(seed + 11000)
            adv = random_advertisement(rng, attrs, terms)
            pool = universe(kb, adv)
            pairs = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            event = Event(pairs)
            if determines(adv, event):
                assert sem_determines(adv, event, kb)

    def test_empty_kb_degenerates_to_syntactic(self):
        from semroute.syntactic import determines

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
