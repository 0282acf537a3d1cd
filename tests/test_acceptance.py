"""End-to-end acceptance checks.

One test per criterion; `pytest -v` therefore prints one pass/fail line for
each.  Every stated runtime budget is asserted inside the test that owns it,
and measured with a monotonic clock around the criterion's own work only.
"""

import random
import time
from contextlib import contextmanager

from semroute.cli import main
from semroute.knowledge import KnowledgeBase
from semroute.model import parse_event, parse_subscription
from semroute.sim import RoutingMode
from semroute.semantic import (
    normalize_advertisement,
    normalize_subscription,
    sem_covers,
    sem_intersects,
    sem_match,
)
from semroute.sim import Verdict, generate_scenario, load_scenario, run, verify
from semroute.syntactic import covers, intersects

from .bruteforce import (
    covering_counterexample,
    exhaustive_covering_holds,
    exhaustive_witness,
    universe,
    witness_exists,
)
from .conftest import (
    SCENARIOS,
    make_forest_kb,
    random_advertisement,
    random_subscription,
    relation_case,
)

KB_PATH = str(SCENARIOS / "knowledge_base.json")


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_01_covering_rows_via_cli(capsys):
    s1 = '(product = "computer") AND (brand = "IBM") AND (price <= 1600)'
    s2 = '(product = "computer") AND (brand = "IBM") AND (price <= 1500)'
    s_two_pred = '(product = "computer") AND (price <= 1600)'
    s_dell = '(product = "computer") AND (brand = "Dell") AND (price <= 1500)'
    with budget(1.0):
        # Row 1: the wider price range covers the narrower one.
        assert cli(capsys, "covers", s1, s2) == (0, "covers\n")
        assert cli(capsys, "covers", s2, s1) == (1, "not-covers\n")
        # Row 2: fewer predicates cover more; the reverse fails.
        assert cli(capsys, "covers", s_two_pred, s1) == (0, "covers\n")
        assert cli(capsys, "covers", s1, s_two_pred) == (1, "not-covers\n")
        # Row 3: contradictory brands, no covering either way.
        assert cli(capsys, "covers", s1, s_dell) == (1, "not-covers\n")
        assert cli(capsys, "covers", s_dell, s1) == (1, "not-covers\n")


def test_criterion_02_intersection_rows_via_cli(capsys):
    s1 = '(product = "computer") AND (brand = "IBM") AND (price <= 1600)'
    a1 = '(product = "computer") AND (brand = "IBM") AND (price <= 1500)'
    s2 = '(product = "computer") AND (price <= 1600)'
    a2 = '(product = "computer") AND (brand = "IBM") AND (price <= 1600)'
    s3 = '(product = "computer") AND (brand = "IBM") AND (price >= 1000)'
    a3 = '(product = "computer") AND (brand = "Dell") AND (price <= 1500)'
    with budget(1.0):
        assert cli(capsys, "intersects", a1, s1) == (0, "intersects\n")
        assert cli(capsys, "intersects", a2, s2) == (0, "intersects\n")
        assert cli(capsys, "intersects", a3, s3) == (1, "not-intersects\n")


def test_criterion_03_hierarchy_match_examples(example_kb):
    encyclopedia = parse_event('{(encyclopedia, "Stone Age"), (subject, "crocodiles")}')
    book = parse_event('{(book, "Stone Age"), (subject, "crocodiles")}')
    book_sub = parse_subscription('(book = "Stone Age") AND (subject = "reptiles")')
    encyclopedia_sub = parse_subscription(
        '(encyclopedia = "Stone Age") AND (subject = "reptiles")'
    )
    with budget(1.0):
        assert sem_match(encyclopedia, book_sub, example_kb)
        assert not sem_match(book, encyclopedia_sub, example_kb)


def test_criterion_04_mapping_match_example(example_kb):
    student = parse_event(
        '{(school, "y"), (degree, "phd"), ("work experience", true),'
        ' ("graduation date", 1990)}'
    )
    professor = parse_subscription(
        '(university = "y") AND (degree = "phd") AND ("professional experience" > 4)'
    )
    with budget(1.0):
        assert example_kb.reference_year == 2003
        assert sem_match(student, professor, example_kb)
        assert not sem_match(student, professor, example_kb.without_mappings())


def test_criterion_05_semantic_covering_example(example_kb):
    s1 = parse_subscription('(product = "printed material") AND (topic = "semantic web")')
    s2 = parse_subscription('(product = "book") AND (topic = "semantic web")')
    with budget(1.0):
        assert not covers(s1, s2)
        assert sem_covers(s1, s2, example_kb)


def test_criterion_06_advertisement_gap_end_to_end():
    gap = load_scenario((SCENARIOS / "gap.json").read_bytes(), base_dir=SCENARIOS)
    with budget(1.0):
        syntactic = run(gap.with_mode(RoutingMode.SYNTACTIC))
        assert syntactic.deliveries == ()
        # The subscription never leaves the reader's broker.
        assert syntactic.counts["SUBSCRIBE"] == {"reader->b2": 1}

        semantic = run(gap)
        assert semantic.deliveries == (("reader", 0),)
        # The reader sits on b2; its subscription must cross to the
        # publisher's broker b1 for the delivery to happen.
        assert semantic.counts["SUBSCRIBE"] == {"b2->b1": 1, "reader->b2": 1}


def test_criterion_07_oracle_equivalence_on_100_scenarios():
    with budget(60.0):
        for seed in range(1, 101):
            scenario = generate_scenario(seed)
            assert not scenario.kb.mappings
            assert len(scenario.brokers) <= 10
            report = verify(scenario)
            assert report.verdict == Verdict.PASS.value, (seed, report.missing, report.spurious)


def test_criterion_08_covering_suppression_safety():
    suppressed_somewhere = 0
    with budget(60.0):
        for seed in range(1, 101):
            scenario = generate_scenario(seed)
            on = run(scenario)
            off = run(scenario, covering_suppression=False)
            assert on.deliveries == off.deliveries, seed
            on_counts = on.counts.get("SUBSCRIBE", {})
            off_counts = off.counts.get("SUBSCRIBE", {})
            for link, n in on_counts.items():
                assert off_counts.get(link, 0) >= n, (seed, link)
            suppressed_somewhere += on.suppressed_subscriptions
    # The property is vacuous unless suppression actually fires.
    assert suppressed_somewhere > 0


def _synonym_case(seed: int):
    rng = random.Random(seed)
    n_terms = rng.randint(4, 12)
    kb = make_forest_kb(rng, n_terms, with_synonyms=True)
    terms = [f"t{i}" for i in range(n_terms)]
    aliased = sorted(g.root for g in kb.synonyms)
    pool = terms + [f"{t}alias" for t in aliased]
    attrs = rng.sample(pool, k=rng.randint(1, 3)) + ["price", "kind"]
    return rng, kb, attrs, pool


def _small_case(seed: int):
    # A two-predicate case needs at most two event pairs for any witness or
    # counterexample, so whole-event enumeration with max_pairs=2 is exact.
    rng = random.Random(seed)
    kb = make_forest_kb(rng, 3)
    terms = ["t0", "t1", "t2"]
    attrs = [rng.choice(terms), "price"]
    return rng, kb, attrs, terms


def test_criterion_09_relation_soundness_brute_force():
    """500 covering and 500 intersection pairs against enumeration oracles.

    The oracles construct candidate events of at most 4 pairs (one pair per
    predicate) over a finite pair universe.  Every 25th iteration also runs
    a small independent case whose oracle answer is cross-checked against
    enumeration of whole events, guarding the construction itself.
    """
    empty = KnowledgeBase.empty()
    with budget(120.0):
        for i in range(500):
            rng, kb, attrs, terms = _synonym_case(i) if i % 2 else relation_case(i)
            s1 = random_subscription(rng, attrs, terms)
            s2 = random_subscription(rng, attrs, terms)

            raw_pool = universe(empty, s1, s2)
            if covers(s1, s2):
                assert covering_counterexample(s1, s2, raw_pool) is None, i

            n1 = normalize_subscription(s1, kb)
            n2 = normalize_subscription(s2, kb)
            pool = universe(kb, n1, n2)
            if sem_covers(s1, s2, kb):
                assert covering_counterexample(n1, n2, pool, kb=kb) is None, i

            if i % 25 == 0:
                srng, skb, sattrs, sterms = _small_case(i)
                m1 = normalize_subscription(
                    random_subscription(srng, sattrs, sterms, max_preds=2), skb
                )
                m2 = normalize_subscription(
                    random_subscription(srng, sattrs, sterms, max_preds=2), skb
                )
                spool = universe(skb, m1, m2)
                assert (
                    covering_counterexample(m1, m2, spool, kb=skb) is None
                ) == exhaustive_covering_holds(m1, m2, spool, max_pairs=2, kb=skb), i

        for i in range(500):
            seed = 10_000 + i
            rng, kb, attrs, terms = _synonym_case(seed) if i % 2 else relation_case(seed)
            adv = random_advertisement(rng, attrs, terms)
            sub = random_subscription(rng, attrs, terms)

            raw_pool = universe(empty, adv, sub)
            assert intersects(adv, sub) == witness_exists(adv, sub, raw_pool), i

            n_adv = normalize_advertisement(adv, kb)
            n_sub = normalize_subscription(sub, kb)
            pool = universe(kb, n_adv, n_sub)
            # Complete as well as sound for mapping-free knowledge bases.
            assert sem_intersects(adv, sub, kb) == witness_exists(
                n_adv, n_sub, pool, kb=kb
            ), i

            if i % 25 == 0:
                srng, skb, sattrs, sterms = _small_case(seed)
                m_adv = normalize_advertisement(
                    random_advertisement(srng, sattrs, sterms, max_preds=2), skb
                )
                m_sub = normalize_subscription(
                    random_subscription(srng, sattrs, sterms, max_preds=2), skb
                )
                spool = universe(skb, m_adv, m_sub)
                assert witness_exists(m_adv, m_sub, spool, kb=skb) == exhaustive_witness(
                    m_adv, m_sub, spool, max_pairs=2, kb=skb
                ), i


def test_criterion_10_byte_identical_reports():
    fixtures = [
        load_scenario((SCENARIOS / name).read_bytes(), base_dir=SCENARIOS)
        for name in ("gap.json", "professor_local.json", "professor_remote.json")
    ]
    generated = [generate_scenario(seed) for seed in range(1, 21)]
    for scenario in fixtures + generated:
        assert run(scenario).to_json() == run(scenario).to_json()
        assert verify(scenario).to_json() == verify(scenario).to_json()
