import json
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from semroute.knowledge import KnowledgeBase, SynonymGroup, load_knowledge
from semroute.model import (
    Advertisement,
    Event,
    Pair,
    Predicate,
    RelOp,
    Subscription,
    Value,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


@pytest.fixture(scope="session")
def example_kb() -> KnowledgeBase:
    return load_knowledge((SCENARIOS / "knowledge_base.json").read_bytes())


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIOS


def read_scenario_bytes(name: str) -> bytes:
    return (SCENARIOS / name).read_bytes()


def make_forest_kb(rng: random.Random, n_terms: int, with_synonyms: bool = False) -> KnowledgeBase:
    """Random single-parent hierarchy (optionally with synonym groups)."""
    terms = [f"t{i}" for i in range(n_terms)]
    edges = []
    for i in range(1, n_terms):
        if rng.random() < 0.7:
            edges.append((terms[i], terms[rng.randrange(i)]))
    groups = []
    if with_synonyms:
        for term in rng.sample(terms, k=max(1, n_terms // 5)):
            groups.append(SynonymGroup(term, frozenset({f"{term}alias"})))
    return KnowledgeBase(synonyms=groups, hierarchy=edges, reference_year=2003)


def random_value(rng: random.Random, terms: list[str]) -> Value:
    roll = rng.random()
    if roll < 0.45:
        return Value.string(rng.choice(terms))
    if roll < 0.85:
        return Value.integer(rng.randint(-5, 15))
    return Value.boolean(rng.random() < 0.5)


def random_predicate(rng: random.Random, attrs: list[str], terms: list[str]) -> Predicate:
    attr = rng.choice(attrs)
    op = rng.choice(list(RelOp))
    if op.is_ordering:
        value = Value.integer(rng.randint(-5, 15))
    else:
        value = random_value(rng, terms)
    return Predicate(attr, op, value)


def random_subscription(
    rng: random.Random, attrs: list[str], terms: list[str], max_preds: int = 4
) -> Subscription:
    preds = tuple(
        random_predicate(rng, attrs, terms)
        for _ in range(rng.randint(1, max_preds))
    )
    return Subscription(preds)


def random_advertisement(
    rng: random.Random, attrs: list[str], terms: list[str], max_preds: int = 4
) -> Advertisement:
    preds = tuple(
        random_predicate(rng, attrs, terms)
        for _ in range(rng.randint(1, max_preds))
    )
    return Advertisement(preds)


def relation_case(seed: int):
    """A random knowledge base plus attribute/term pools, ≤20 terms total."""
    rng = random.Random(seed)
    n_terms = rng.randint(4, 12)
    kb = make_forest_kb(rng, n_terms)
    terms = [f"t{i}" for i in range(n_terms)]
    attrs = rng.sample(terms, k=rng.randint(1, 3)) + ["price", "kind"]
    return rng, kb, attrs, terms


# Hypothesis strategies over small pools, so that attributes repeat and values
# collide: strings, integers near zero and booleans.
SMALL_INTS = st.integers(-3, 3)


def values_from(terms: list[str]) -> st.SearchStrategy[Value]:
    return st.one_of(
        st.sampled_from(terms).map(Value.string),
        SMALL_INTS.map(Value.integer),
        st.booleans().map(Value.boolean),
    )


def predicates_from(attrs: list[str], terms: list[str]) -> st.SearchStrategy[Predicate]:
    """`=` and `!=` over every value kind, ordering operators over integers."""
    attr = st.sampled_from(attrs)
    return st.one_of(
        st.builds(Predicate, attr, st.sampled_from([RelOp.EQ, RelOp.NE]), values_from(terms)),
        st.builds(
            Predicate,
            attr,
            st.sampled_from([RelOp.LT, RelOp.LE, RelOp.GT, RelOp.GE]),
            SMALL_INTS.map(Value.integer),
        ),
    )


def subscriptions_from(
    attrs: list[str], terms: list[str], max_preds: int = 5
) -> st.SearchStrategy[Subscription]:
    preds = st.lists(predicates_from(attrs, terms), min_size=1, max_size=max_preds)
    return preds.map(lambda ps: Subscription(tuple(ps)))


def advertisements_from(
    attrs: list[str], terms: list[str], max_preds: int = 5
) -> st.SearchStrategy[Advertisement]:
    preds = st.lists(predicates_from(attrs, terms), min_size=1, max_size=max_preds)
    return preds.map(lambda ps: Advertisement(tuple(ps)))


def events_from(attrs: list[str], terms: list[str]) -> st.SearchStrategy[Event]:
    """Events that may carry several values per attribute."""
    pair = st.builds(Pair, st.sampled_from(attrs), values_from(terms))
    return st.lists(pair, min_size=1, max_size=6).map(lambda ps: Event(tuple(ps)))
