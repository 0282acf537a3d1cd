"""Syntax-level matching relations over events, subscriptions, advertisements.

All relations here compare attribute names literally.  The operator rules
(`implies`, `jointly_satisfiable`) live here: the semantic layer lifts the
attributes through the hierarchy, calls `implies` and adds only the cases
the hierarchy creates.  `semantic.sem_intersects` answers joint
satisfiability from a per-attribute summary of the advertisement instead,
whose case table restates `jointly_satisfiable` with those added cases.

`covers` and `intersects` are decided predicate-by-predicate:

- one predicate implies another when every pair matching the first matches
  the second (exact over integer intervals, equality, and inequality);
- two predicates are jointly satisfiable when a single pair can match both.

Both checks are exact for predicates on integer values because ordering
operators are restricted to integers, so satisfying sets are intervals.
"""

from __future__ import annotations

from typing import Optional

from .model import Advertisement, Event, Pair, Predicate, RelOp, Subscription


def match_pair(pair: Pair, pred: Predicate) -> bool:
    """True iff the attribute names are equal and `pair.value op pred.value`.

    A kind mismatch under an ordering operator is a non-match, not an error.
    """
    return pair.attribute == pred.attribute and pred.op.holds(pair.value, pred.value)


def match_event(event: Event, sub: Subscription) -> bool:
    """True iff every predicate of sub is matched by some pair of event."""
    for pred in sub.predicates:
        for pair in event.pairs:
            if match_pair(pair, pred):
                break
        else:
            return False
    return True


def determines(adv: Advertisement, event: Event) -> bool:
    """True iff every pair of the event matches at least one adv predicate."""
    return all(
        any(match_pair(pair, pred) for pred in adv.predicates)
        for pair in event.pairs
    )


def interval(pred: Predicate) -> tuple[Optional[int], Optional[int]]:
    """Closed integer interval satisfying an ordering predicate.

    Returns (lo, hi) with None for an unbounded side.  Only meaningful for
    ordering operators, whose values are integers by construction.
    """
    v = pred.value.data
    if pred.op is RelOp.LE:
        return (None, v)
    if pred.op is RelOp.LT:
        return (None, v - 1)
    if pred.op is RelOp.GE:
        return (v, None)
    if pred.op is RelOp.GT:
        return (v + 1, None)
    raise ValueError(f"no interval for operator {pred.op.value!r}")


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
    return _interval_subset(interval(stronger), interval(weaker))


def covers(s1: Subscription, s2: Subscription) -> bool:
    """True iff every event matching s2 is guaranteed to match s1.

    Decided predicate-wise: each s1 predicate must be implied by some s2
    predicate on the same attribute.  This is sound even when an event
    carries several pairs for one attribute, because implication is
    quantified over single pairs.
    """
    return all(
        any(p2.attribute == p1.attribute and implies(p2, p1) for p2 in s2.predicates)
        for p1 in s1.predicates
    )


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
    return _intervals_overlap(interval(p), interval(q))


def intersects(adv: Advertisement, sub: Subscription) -> bool:
    """True iff some event could be determined by adv and match sub.

    Each subscription predicate needs an advertisement predicate on the
    same attribute that it is jointly satisfiable with.  The false verdict
    is exact: any event pair matching a subscription predicate while the
    event is determined by adv must match some same-attribute adv predicate,
    witnessing joint satisfiability.
    """
    return all(
        any(
            a.attribute == s.attribute and jointly_satisfiable(s, a)
            for a in adv.predicates
        )
        for s in sub.predicates
    )
