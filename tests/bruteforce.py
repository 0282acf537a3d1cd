"""Enumeration-based reference oracles for the relation tests.

Everything here decides relations from first principles: hierarchy closures
are expanded explicitly via `KnowledgeBase.ancestors`, matching uses only
`RelOp.holds`, and satisfiability questions are answered by enumerating a
finite pair universe.  None of the analytic implication or satisfiability
rules under test are consulted.

Events may repeat attribute names (augmentation produces such events, and
nothing in matching forbids them), which makes event-level questions
decompose pair-wise:

- an advertisement/subscription witness event exists iff each subscription
  predicate has a universe pair that satisfies it while being admitted by
  the advertisement (one pair per predicate, unioned);
- a covering counterexample exists iff some s1 predicate can be starved:
  each s2 predicate gets a pair that satisfies it but not the chosen s1
  predicate.

`exhaustive_*` variants enumerate whole events instead; they are slower and
exist to validate the decomposition on small universes.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from semroute.knowledge import KnowledgeBase
from semroute.model import (
    Advertisement,
    Event,
    Pair,
    Predicate,
    RelOp,
    Subscription,
    Value,
)


def norm_value(kb: KnowledgeBase, value: Value) -> Value:
    if value.is_string:
        return Value.string(kb.root_term(value.data))
    return value


def norm_pair(kb: KnowledgeBase, pair: Pair) -> Pair:
    return Pair(kb.root_term(pair.attribute), norm_value(kb, pair.value))


def norm_pred(kb: KnowledgeBase, pred: Predicate) -> Predicate:
    return Predicate(kb.root_term(pred.attribute), pred.op, norm_value(kb, pred.value))


def value_chain(kb: KnowledgeBase, value: Value) -> tuple[Value, ...]:
    if not value.is_string:
        return (value,)
    return (value,) + tuple(Value.string(t) for t in kb.ancestors(value.data))


def closure(kb: KnowledgeBase, pair: Pair) -> tuple[Pair, ...]:
    """All pairs hierarchy augmentation derives from one normalized pair."""
    attrs = (pair.attribute,) + kb.ancestors(pair.attribute)
    return tuple(
        Pair(a, v) for a in attrs for v in value_chain(kb, pair.value)
    )


def plain_match(pair: Pair, pred: Predicate) -> bool:
    return pair.attribute == pred.attribute and pred.op.holds(pair.value, pred.value)


def closure_match(kb: KnowledgeBase, pair: Pair, pred: Predicate) -> bool:
    return any(plain_match(c, pred) for c in closure(kb, pair))


def sem_match_oracle(kb: KnowledgeBase, event: Event, sub: Subscription) -> bool:
    """Mapping-free semantic match decided by explicit closure expansion."""
    pairs = [norm_pair(kb, p) for p in event.pairs]
    preds = [norm_pred(kb, p) for p in sub.predicates]
    return all(
        any(closure_match(kb, pair, pred) for pair in pairs) for pred in preds
    )


def sem_determines_oracle(
    kb: KnowledgeBase, event: Event, adv: Advertisement
) -> bool:
    pairs = [norm_pair(kb, p) for p in event.pairs]
    preds = [norm_pred(kb, p) for p in adv.predicates]
    return all(
        any(closure_match(kb, pair, pred) for pred in preds) for pair in pairs
    )


def all_terms(kb: KnowledgeBase) -> set[str]:
    terms = set()
    for child, parent in kb.hierarchy:
        terms.add(child)
        terms.add(parent)
    return terms


def universe(kb: KnowledgeBase, *entities) -> list[Pair]:
    """Finite pair universe rich enough to witness every satisfiable case.

    Attributes: every attribute mentioned, plus every hierarchy term.
    Values: every string mentioned, every hierarchy term, both booleans,
    and each integer constant with its two neighbors.
    """
    attrs: set[str] = set(all_terms(kb))
    strings: set[str] = set(all_terms(kb))
    # Inequality predicates need off-value witnesses even when no integer
    # constant is mentioned anywhere, so a few integers are always present.
    ints: set[int] = {-1, 0, 1}

    def note(attr: str, value: Value) -> None:
        attrs.add(kb.root_term(attr))
        value = norm_value(kb, value)
        if value.is_string:
            strings.add(value.data)
        elif value.is_int:
            ints.update((value.data - 1, value.data, value.data + 1))

    for entity in entities:
        if isinstance(entity, Event):
            for pair in entity.pairs:
                note(pair.attribute, pair.value)
        else:
            for pred in entity.predicates:
                note(pred.attribute, pred.value)

    values = (
        [Value.string(s) for s in sorted(strings)]
        + [Value.integer(n) for n in sorted(ints)]
        + [Value.boolean(False), Value.boolean(True)]
    )
    return [Pair(a, v) for a in sorted(attrs) for v in values]


def _matcher(kb: Optional[KnowledgeBase]):
    if kb is None:
        return plain_match
    closures: dict[Pair, tuple[Pair, ...]] = {}

    def match(pair: Pair, pred: Predicate) -> bool:
        # `closure_match`, with each pair's closure expanded once per search.
        if pair not in closures:
            closures[pair] = closure(kb, pair)
        return any(plain_match(c, pred) for c in closures[pair])

    return match


def witness_exists(
    adv: Advertisement,
    sub: Subscription,
    pairs: Iterable[Pair],
    kb: Optional[KnowledgeBase] = None,
) -> bool:
    """Whether some event over `pairs` is admitted by adv and matches sub.

    Pass kb=None for the syntactic reading; otherwise predicates and pairs
    must already be normalized.
    """
    match = _matcher(kb)
    admitted = [
        p for p in pairs if any(match(p, ap) for ap in adv.predicates)
    ]
    return all(
        any(match(p, sp) for p in admitted) for sp in sub.predicates
    )


def covering_counterexample(
    s1: Subscription,
    s2: Subscription,
    pairs: Iterable[Pair],
    kb: Optional[KnowledgeBase] = None,
) -> Optional[Event]:
    """An event over `pairs` matching s2 but not s1, if one exists."""
    match = _matcher(kb)
    pool = list(pairs)
    for p1 in s1.predicates:
        chosen = []
        for p2 in s2.predicates:
            q = next(
                (p for p in pool if match(p, p2) and not match(p, p1)), None
            )
            if q is None:
                break
            chosen.append(q)
        else:
            if all(not match(q, p1) for q in chosen):
                return Event(tuple(chosen))
    return None


def exhaustive_witness(
    adv: Advertisement,
    sub: Subscription,
    pairs: list[Pair],
    max_pairs: int,
    kb: Optional[KnowledgeBase] = None,
) -> bool:
    """Event-by-event version of `witness_exists` for small universes."""
    match = _matcher(kb)
    sub_masks = []
    admitted = []
    for p in pairs:
        mask = 0
        for i, sp in enumerate(sub.predicates):
            if match(p, sp):
                mask |= 1 << i
        sub_masks.append(mask)
        admitted.append(any(match(p, ap) for ap in adv.predicates))
    full = (1 << len(sub.predicates)) - 1
    indices = range(len(pairs))
    for size in range(1, max_pairs + 1):
        for combo in combinations(indices, size):
            if not all(admitted[i] for i in combo):
                continue
            mask = 0
            for i in combo:
                mask |= sub_masks[i]
            if mask == full:
                return True
    return False


def exhaustive_covering_holds(
    s1: Subscription,
    s2: Subscription,
    pairs: list[Pair],
    max_pairs: int,
    kb: Optional[KnowledgeBase] = None,
) -> bool:
    """Whether every event over `pairs` (up to max_pairs) matching s2 matches s1."""
    match = _matcher(kb)
    masks1 = []
    masks2 = []
    for p in pairs:
        m1 = 0
        for i, pred in enumerate(s1.predicates):
            if match(p, pred):
                m1 |= 1 << i
        m2 = 0
        for i, pred in enumerate(s2.predicates):
            if match(p, pred):
                m2 |= 1 << i
        masks1.append(m1)
        masks2.append(m2)
    full1 = (1 << len(s1.predicates)) - 1
    full2 = (1 << len(s2.predicates)) - 1
    for size in range(1, max_pairs + 1):
        for combo in combinations(range(len(pairs)), size):
            acc1 = acc2 = 0
            for i in combo:
                acc1 |= masks1[i]
                acc2 |= masks2[i]
            if acc2 == full2 and acc1 != full1:
                return False
    return True
