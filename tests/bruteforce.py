"""Reference deciders for the relation tests.

Everything here decides relations from first principles: hierarchy closures
are expanded explicitly via `KnowledgeBase.ancestors`, matching uses only
`RelOp.holds` (`match_pair`), and satisfiability questions are answered by
enumerating a finite pair universe.  The enumeration oracles consult none
of the analytic implication or satisfiability rules, neither the library's
summaries nor the per-pair references in the last section.

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

The last section holds the analytic per-pair references: `implies` and
`jointly_satisfiable` decide one pair of predicates, and `determines` one
event against an advertisement, by rule rather than by enumeration.  The
library's `Implied` and `Gate` answer the same questions against a summary
of many predicates, and the property tests compare the two.
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


def match_pair(pair: Pair, pred: Predicate) -> bool:
    """True iff the attribute names are equal and `pair.value op pred.value`.

    A kind mismatch under an ordering operator is a non-match, not an error.
    """
    return pair.attribute == pred.attribute and pred.op.holds(pair.value, pred.value)


def closure_match(kb: KnowledgeBase, pair: Pair, pred: Predicate) -> bool:
    return any(match_pair(c, pred) for c in closure(kb, pair))


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
        return match_pair
    closures: dict[Pair, tuple[Pair, ...]] = {}

    def match(pair: Pair, pred: Predicate) -> bool:
        # `closure_match`, with each pair's closure expanded once per search.
        if pair not in closures:
            closures[pair] = closure(kb, pair)
        return any(match_pair(c, pred) for c in closures[pair])

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


# Analytic per-pair references.  No oracle above calls these.


def determines(adv: Advertisement, event: Event) -> bool:
    """True iff every pair of the event matches at least one adv predicate."""
    return all(
        any(match_pair(pair, pred) for pred in adv.predicates)
        for pair in event.pairs
    )


def _interval_subset(
    inner: tuple[Optional[int], Optional[int]],
    outer: tuple[Optional[int], Optional[int]],
) -> bool:
    lo_i, hi_i = inner
    lo_o, hi_o = outer
    if lo_o is not None and (lo_i is None or lo_i < lo_o):
        return False
    if hi_o is not None and (hi_i is None or hi_i > hi_o):
        return False
    return True


def _intervals_overlap(
    a: tuple[Optional[int], Optional[int]],
    b: tuple[Optional[int], Optional[int]],
) -> bool:
    lo = max((x for x in (a[0], b[0]) if x is not None), default=None)
    hi = min((x for x in (a[1], b[1]) if x is not None), default=None)
    return lo is None or hi is None or lo <= hi


def implies(stronger: Predicate, weaker: Predicate) -> bool:
    """True iff every pair matching `stronger` also matches `weaker`.

    Assumes both predicates name the same attribute; callers pair them up.
    Rules:
      - (= v) implies (op w) exactly when `v op w` holds.
      - (!= v) is implied only by (!= v) itself or by (= w) with w != v.
      - ordering predicates imply by interval inclusion, with strict bounds
        normalized to closed ones over the integers.
    Ordering predicates never imply = or != (their satisfying sets are
    infinite half-lines).
    """
    if stronger.op is RelOp.EQ:
        return weaker.op.holds(stronger.value, weaker.value)
    if stronger.op is RelOp.NE:
        return weaker.op is RelOp.NE and weaker.value == stronger.value
    if not weaker.op.is_ordering:
        return False
    return _interval_subset(stronger.interval, weaker.interval)


def jointly_satisfiable(p: Predicate, q: Predicate) -> bool:
    """True iff some single value satisfies both predicates.

    Attribute names are not consulted; callers pair same-attribute
    predicates.  Exact for =, and for ordering operators via interval
    overlap; != against != or an ordering operator is always satisfiable
    because the excluded set is finite while the allowed set is not.
    """
    if q.op is RelOp.EQ and p.op is not RelOp.EQ:
        p, q = q, p
    if p.op is RelOp.EQ:
        if q.op is RelOp.EQ:
            return p.value == q.value
        if q.op is RelOp.NE:
            return p.value != q.value
        return p.value.is_int and q.op.holds(p.value, q.value)
    if p.op is RelOp.NE or q.op is RelOp.NE:
        return True
    return _intervals_overlap(p.interval, q.interval)
