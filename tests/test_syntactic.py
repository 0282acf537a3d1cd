import random

import pytest
from hypothesis import given, settings

from semroute.model import (
    Pair,
    Predicate,
    RelOp,
    Subscription,
    Value,
    parse_advertisement,
    parse_event,
    parse_subscription,
)
from semroute.semantic import match_event
from semroute.syntactic import covers, intersects

from .bruteforce import (
    covering_counterexample,
    determines,
    exhaustive_covering_holds,
    exhaustive_witness,
    implies,
    jointly_satisfiable,
    match_pair,
    universe,
    witness_exists,
)
from .conftest import (
    advertisements_from,
    events_from,
    random_advertisement,
    random_subscription,
    subscriptions_from,
)

S1 = parse_subscription('(product = "computer") AND (brand = "IBM") AND (price <= 1600)')
S1_NARROW = parse_subscription('(product = "computer") AND (brand = "IBM") AND (price <= 1500)')
S1_WIDE = parse_subscription('(product = "computer") AND (price <= 1600)')
S1_DELL = parse_subscription('(product = "computer") AND (brand = "Dell") AND (price <= 1500)')

A1 = parse_advertisement('(product = "computer") AND (brand = "IBM") AND (price <= 1500)')
A2 = parse_advertisement('(product = "computer") AND (brand = "IBM") AND (price <= 1600)')
A3 = parse_advertisement('(product = "computer") AND (brand = "Dell") AND (price <= 1500)')
S3 = parse_subscription('(product = "computer") AND (brand = "IBM") AND (price >= 1000)')


class TestMatchPair:
    def test_in_range(self):
        assert match_pair(Pair("price", Value.integer(1500)), Predicate("price", RelOp.LE, Value.integer(1600)))

    def test_attribute_names_must_be_identical(self):
        assert not match_pair(Pair("price", Value.integer(1500)), Predicate("value", RelOp.LE, Value.integer(1600)))

    def test_unequal_strings(self):
        assert not match_pair(Pair("brand", Value.string("IBM")), Predicate("brand", RelOp.EQ, Value.string("Dell")))

    def test_ordering_against_non_integer_is_false(self):
        assert not match_pair(Pair("price", Value.string("high")), Predicate("price", RelOp.LE, Value.integer(1600)))
        assert not match_pair(Pair("price", Value.boolean(True)), Predicate("price", RelOp.GT, Value.integer(0)))


class TestMatchEvent:
    def test_all_predicates_matched(self):
        event = parse_event('{(product, "computer"), (brand, "IBM"), (price, 1500)}')
        assert match_event(event, S1)

    def test_related_terms_do_not_match_here(self):
        event = parse_event('{(book, "Stone Age"), (subject, "crocodiles")}')
        sub = parse_subscription('(encyclopedia = "Stone Age") AND (subject = "reptiles")')
        assert not match_event(event, sub)

    def test_identity_subscription(self):
        event = parse_event('{(a, 1), (b, "x"), (c, true)}')
        sub = Subscription(tuple(Predicate(p.attribute, RelOp.EQ, p.value) for p in event.pairs))
        assert match_event(event, sub)

    def test_one_pair_may_satisfy_many_predicates(self):
        event = parse_event("{(price, 10)}")
        sub = parse_subscription("(price >= 5) AND (price <= 15) AND (price != 11)")
        assert match_event(event, sub)


class TestCovers:
    def test_narrower_range_is_covered(self):
        assert covers(S1, S1_NARROW)
        assert not covers(S1_NARROW, S1)

    def test_fewer_predicates_cover_more(self):
        assert covers(S1_WIDE, S1)
        assert not covers(S1, S1_WIDE)

    def test_disjoint_brands_cover_neither_way(self):
        assert not covers(S1, S1_DELL)
        assert not covers(S1_DELL, S1)

    def test_reflexive(self):
        for sub in (S1, S1_NARROW, S1_WIDE, S1_DELL):
            assert covers(sub, sub)

    @pytest.mark.parametrize(
        "s1, expected",
        [("(a >= 0) AND (a <= 100)", True), ("(a >= 0) AND (a <= 15)", False)],
    )
    def test_repeated_attribute_is_covered_by_its_tightest_bounds(self, s1, expected):
        s1 = parse_subscription(s1)
        s2 = parse_subscription("(a >= 10) AND (a <= 20) AND (a >= 12)")
        assert covers(s1, s2) == expected
        pool = universe(empty_kb(), s1, s2)
        assert (covering_counterexample(s1, s2, pool) is None) == expected


class TestDetermines:
    def test_every_pair_admitted(self):
        adv = parse_advertisement('(product = "computer") AND (price <= 1500)')
        assert determines(adv, parse_event('{(product, "computer"), (price, 1200)}'))

    def test_unconstrained_attribute_blocks(self):
        adv = parse_advertisement('(product = "computer") AND (price <= 1500)')
        assert not determines(adv, parse_event('{(product, "computer"), (brand, "IBM")}'))

    def test_failing_pair_blocks(self):
        assert not determines(A3, parse_event('{(product, "computer"), (brand, "IBM"), (price, 1400)}'))


class TestIntersects:
    def test_overlapping_ranges(self):
        assert intersects(A1, S1)

    def test_subscription_predicates_drive_the_check(self):
        assert intersects(A2, S1_WIDE)

    def test_contradictory_equalities(self):
        assert not intersects(A3, S1)

    def test_bounded_ranges_must_overlap(self):
        assert intersects(A1, S3)
        tight = parse_subscription('(product = "computer") AND (brand = "IBM") AND (price >= 1501)')
        assert not intersects(A1, tight)


def pred(text: str) -> Predicate:
    return parse_subscription(text).predicates[0]


class TestImplicationTable:
    def test_equality_implies_any_relation_it_satisfies(self):
        assert implies(pred("(a = 5)"), pred("(a <= 5)"))
        assert implies(pred("(a = 5)"), pred("(a >= 5)"))
        assert implies(pred("(a = 5)"), pred("(a != 6)"))
        assert implies(pred('(a = "x")'), pred('(a != "y")'))
        assert not implies(pred("(a = 5)"), pred("(a < 5)"))

    def test_integer_interval_inclusion(self):
        assert implies(pred("(a <= 4)"), pred("(a <= 5)"))
        assert implies(pred("(a < 5)"), pred("(a <= 4)"))
        assert implies(pred("(a <= 4)"), pred("(a < 5)"))
        assert implies(pred("(a > 3)"), pred("(a >= 4)"))
        assert not implies(pred("(a <= 5)"), pred("(a <= 4)"))

    def test_inequality_implied_only_by_equality_or_itself(self):
        assert implies(pred("(a = 6)"), pred("(a != 5)"))
        assert implies(pred("(a != 5)"), pred("(a != 5)"))
        assert not implies(pred("(a <= 5)"), pred("(a != 7)"))
        assert not implies(pred("(a != 5)"), pred("(a != 6)"))

    def test_inequality_implies_nothing_else(self):
        assert not implies(pred("(a != 5)"), pred("(a <= 9)"))
        assert not implies(pred("(a != 5)"), pred("(a = 4)"))

    def test_covers_pairs_predicates_by_attribute(self):
        assert not covers(
            parse_subscription("(a = 5)"), parse_subscription("(b = 5)")
        )


class TestJointSatisfiability:
    def test_equalities(self):
        assert jointly_satisfiable(pred('(a = "x")'), pred('(a = "x")'))
        assert not jointly_satisfiable(pred('(a = "x")'), pred('(a = "y")'))

    def test_equality_vs_inequality(self):
        assert jointly_satisfiable(pred("(a = 5)"), pred("(a != 6)"))
        assert not jointly_satisfiable(pred("(a = 5)"), pred("(a != 5)"))

    def test_equality_vs_range(self):
        assert jointly_satisfiable(pred("(a = 5)"), pred("(a <= 5)"))
        assert not jointly_satisfiable(pred("(a = 6)"), pred("(a < 6)"))
        assert not jointly_satisfiable(pred('(a = "x")'), pred("(a <= 5)"))

    def test_inequality_vs_anything_loose(self):
        assert jointly_satisfiable(pred("(a != 5)"), pred("(a != 5)"))
        assert jointly_satisfiable(pred("(a != 5)"), pred("(a <= 5)"))

    def test_range_overlap(self):
        assert jointly_satisfiable(pred("(a >= 3)"), pred("(a <= 3)"))
        assert not jointly_satisfiable(pred("(a >= 4)"), pred("(a <= 3)"))
        assert not jointly_satisfiable(pred("(a > 3)"), pred("(a <= 3)"))


ATTRS = ["p", "q"]
TERMS = ["x", "y", "z"]


def empty_kb():
    from semroute.knowledge import KnowledgeBase

    return KnowledgeBase.empty()


class TestBruteForceAgreement:
    """The analytic rules against enumeration over a pair universe."""

    def test_covering_sound_and_counterexamples_real(self):
        mismatches = []
        for seed in range(300):
            rng = random.Random(seed)
            s1 = random_subscription(rng, ATTRS, TERMS, max_preds=3)
            s2 = random_subscription(rng, ATTRS, TERMS, max_preds=3)
            pool = universe(empty_kb(), s1, s2)
            witness = covering_counterexample(s1, s2, pool)
            if covers(s1, s2):
                if witness is not None:
                    mismatches.append((seed, s1, s2, witness))
            elif witness is not None:
                assert match_event(witness, s2) and not match_event(witness, s1)
        assert mismatches == []

    def test_intersection_sound_and_complete(self):
        for seed in range(300):
            rng = random.Random(seed + 1000)
            adv = random_advertisement(rng, ATTRS, TERMS, max_preds=3)
            sub = random_subscription(rng, ATTRS, TERMS, max_preds=3)
            pool = universe(empty_kb(), adv, sub)
            assert intersects(adv, sub) == witness_exists(adv, sub, pool), (
                seed,
                adv,
                sub,
            )

    def test_decomposed_oracles_agree_with_event_enumeration(self):
        for seed in range(40):
            rng = random.Random(seed + 2000)
            s1 = random_subscription(rng, ATTRS[:1], TERMS[:2], max_preds=3)
            s2 = random_subscription(rng, ATTRS[:1], TERMS[:2], max_preds=3)
            adv = random_advertisement(rng, ATTRS[:1], TERMS[:2], max_preds=3)
            pool = universe(empty_kb(), s1, s2, adv)
            assert (covering_counterexample(s1, s2, pool) is None) == (
                exhaustive_covering_holds(s1, s2, pool, max_pairs=3)
            )
            assert witness_exists(adv, s2, pool) == exhaustive_witness(
                adv, s2, pool, max_pairs=3
            )

    def test_covers_transitive_on_constructed_chains(self):
        rng = random.Random(7)
        for _ in range(100):
            attr = rng.choice(ATTRS)
            lo = rng.randint(-5, 5)
            s3 = Subscription((Predicate(attr, RelOp.LE, Value.integer(lo)),))
            s2 = Subscription((Predicate(attr, RelOp.LE, Value.integer(lo + rng.randint(0, 4))),))
            s1 = Subscription(
                (Predicate(attr, RelOp.LE, Value.integer(lo + 4 + rng.randint(0, 4))),)
            )
            assert covers(s2, s3) and covers(s1, s2)
            assert covers(s1, s3)

    def test_intersects_monotone_under_range_widening(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(400):
            adv = random_advertisement(rng, ATTRS, TERMS, max_preds=3)
            sub = random_subscription(rng, ATTRS, TERMS, max_preds=3)
            if not intersects(adv, sub):
                continue
            widened = []
            for p in adv.predicates:
                if p.op in (RelOp.LE, RelOp.LT):
                    p = Predicate(p.attribute, p.op, Value.integer(p.value.data + rng.randint(0, 5)))
                elif p.op in (RelOp.GE, RelOp.GT):
                    p = Predicate(p.attribute, p.op, Value.integer(p.value.data - rng.randint(0, 5)))
                widened.append(p)
            checked += 1
            assert intersects(type(adv)(tuple(widened)), sub)
        assert checked > 50


SUMMARY_ATTRS = ["a", "b"]
SUMMARY_TERMS = ["x", "y"]
PROPERTY = settings(derandomize=True, max_examples=400, deadline=None)


class TestSummariesEqualThePairRules:
    """`covers`, `intersects` and `match_event` ask per-attribute summaries
    kept on the entity they quantify over; each equals the scan of the
    per-predicate rule it replaces."""

    @PROPERTY
    @given(
        subscriptions_from(SUMMARY_ATTRS, SUMMARY_TERMS),
        subscriptions_from(SUMMARY_ATTRS, SUMMARY_TERMS),
    )
    def test_covers_equals_predicate_wise_implication(self, s1, s2):
        expected = all(
            any(p2.attribute == p1.attribute and implies(p2, p1) for p2 in s2.predicates)
            for p1 in s1.predicates
        )
        assert covers(s1, s2) == expected
        assert covers(s1, s2) == expected  # the kept summary answers alike

    @PROPERTY
    @given(
        advertisements_from(SUMMARY_ATTRS, SUMMARY_TERMS),
        subscriptions_from(SUMMARY_ATTRS, SUMMARY_TERMS),
    )
    def test_intersects_equals_predicate_wise_joint_satisfiability(self, adv, sub):
        expected = all(
            any(
                a.attribute == s.attribute and jointly_satisfiable(s, a)
                for a in adv.predicates
            )
            for s in sub.predicates
        )
        assert intersects(adv, sub) == expected
        assert intersects(adv, sub) == expected

    @PROPERTY
    @given(
        events_from(SUMMARY_ATTRS, SUMMARY_TERMS),
        subscriptions_from(SUMMARY_ATTRS, SUMMARY_TERMS),
    )
    def test_match_event_equals_pair_wise_matching(self, event, sub):
        expected = all(
            any(match_pair(pair, pred) for pair in event.pairs)
            for pred in sub.predicates
        )
        assert match_event(event, sub) == expected
        assert match_event(event, sub) == expected
