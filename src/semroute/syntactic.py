"""Syntax-level matching relations over events, subscriptions, advertisements.

All relations here compare attribute names literally.  The operator rules
live here, in two forms.  `implies` and `jointly_satisfiable` decide one
pair of predicates; they are the reference.  `Implied` and `Gate` answer
the same questions against a per-attribute summary of many predicates, and
the relations use those: the semantic layer builds them over its hierarchy,
where the syntactic relations build them over a flat one.

- One predicate implies another when every pair matching the first matches
  the second (exact over integer intervals, equality, and inequality).
- Two predicates are jointly satisfiable when a single pair can match both.

Both are exact for predicates on integer values because ordering operators
are restricted to integers, so satisfying sets are intervals.

Each relation keeps a summary of the side it quantifies over on that
entity (`model.kept`), built on first use, so a test makes a few lookups
per predicate instead of a scan of the other side: `covers` keeps an
`Implied` per attribute of the covered subscription, `intersects` a `Gate`
per attribute of the advertisement, and `match_event` an `Implied` per
attribute of the event over one `(a = v)` predicate per value, since a
predicate holds for some value there iff one of those implies it.
`match_pair` stays as the reference for matching.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Protocol

from .model import (
    Advertisement,
    Event,
    Pair,
    Predicate,
    RelOp,
    Subscription,
    Value,
    ValueKind,
    group_by_attribute,
    kept,
)


class Hierarchy(Protocol):
    """The hierarchy lookups the summaries use; a `KnowledgeBase` has them."""

    def ancestors(self, term: str) -> tuple[str, ...]: ...

    def has_relative(self, term: str) -> bool: ...


class _Flat:
    """A hierarchy without edges, under which the syntactic relations build
    their summaries."""

    def ancestors(self, term: str) -> tuple[str, ...]:
        return ()

    def has_relative(self, term: str) -> bool:
        return False


_FLAT = _Flat()
_NONE: frozenset = frozenset()


def match_pair(pair: Pair, pred: Predicate) -> bool:
    """True iff the attribute names are equal and `pair.value op pred.value`.

    A kind mismatch under an ordering operator is a non-match, not an error.
    """
    return pair.attribute == pred.attribute and pred.op.holds(pair.value, pred.value)


def _event_implied(event: Event, hierarchy: Hierarchy) -> dict[str, Implied]:
    return implied_by_values(event.by_attribute)


def match_event(event: Event, sub: Subscription) -> bool:
    """True iff every predicate of sub is matched by some pair of event.

    The event's values are summarised per attribute once (`Implied`), so
    each predicate costs a lookup.
    """
    return all_implied(sub.predicates, kept(event, "_implied", _FLAT, _event_implied))


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


def _holds_other(values: frozenset[Value], v: Value) -> bool:
    """True iff `values` holds a value other than v."""
    return len(values) > 1 or (bool(values) and v not in values)


class Implied:
    """What a set of predicates implies, in the form covering asks about it.

    `implies(p)` is true iff some summarised predicate q implies p: every
    pair matching q matches p.  The semantic layer summarises the predicates
    on an attribute and on all its descendants, and lifts `=` values to
    their ancestor chains, which is where the hierarchy adds implications:
    (= v) implies (= w) when v descends from w.  With q's value v and p's
    value w:

      - p is (= w): q is (= v) with w == v, or w a string that is an
        ancestor of v: w in `values`, or w's term in `above`, the strict
        ancestors of the string `=` values;
      - p is (!= w): q is (!= w), or (= v) with v != w: w in `excluded`, or
        `values` holds another value than w;
      - p is a lower-bounded half-line, from w once closed as `interval`
        closes it: q is a lower-bounded half-line from w or above, or
        (= v) with v an integer, v >= w, so `floor`, the largest such
        bound or value, is at least w;
      - p is upper-bounded up to w: `ceil`, the smallest upper bound or
        integer `=` value, is at most w.

    Each case asks whether some q exists, so a summary over merged
    predicate sets stays exact.
    """

    __slots__ = ("values", "above", "excluded", "floor", "ceil")

    def __init__(self, preds: Iterable[Predicate], hierarchy: Hierarchy):
        values: set[Value] = set()
        excluded: set[Value] = set()
        lows: list[int] = []
        highs: list[int] = []
        for p in preds:
            if p.op is RelOp.EQ:
                values.add(p.value)
                if p.value.is_int:
                    lows.append(p.value.data)
                    highs.append(p.value.data)
            elif p.op is RelOp.NE:
                excluded.add(p.value)
            else:
                lo, hi = interval(p)
                if hi is None:
                    lows.append(lo)
                else:
                    highs.append(hi)
        self.values = frozenset(values) if values else _NONE
        above = [hierarchy.ancestors(v.data) for v in values if v.is_string]
        self.above = frozenset().union(*above) if any(above) else _NONE
        self.excluded = frozenset(excluded) if excluded else _NONE
        self.floor: Optional[int] = max(lows, default=None)
        self.ceil: Optional[int] = min(highs, default=None)

    @classmethod
    def of_values(cls, values: Iterable[Value]) -> "Implied":
        """The summary of one `(a = v)` predicate per value v, under a flat
        hierarchy: some value satisfies p iff this implies p."""
        summary = cls.__new__(cls)
        summary.values = frozenset(values)
        ints = [v.data for v in summary.values if v.kind is ValueKind.INT]
        summary.above = summary.excluded = _NONE
        summary.floor = max(ints, default=None)
        summary.ceil = min(ints, default=None)
        return summary

    def implies(self, p: Predicate) -> bool:
        v = p.value
        if p.op is RelOp.EQ:
            # `above` holds only terms, so only a string's data can be in it.
            return v in self.values or v.data in self.above
        if p.op is RelOp.NE:
            return v in self.excluded or _holds_other(self.values, v)
        lo, hi = interval(p)
        if hi is None:
            return self.floor is not None and lo <= self.floor
        return self.ceil is not None and self.ceil <= hi


def implied_by_attribute(
    preds: Iterable[Predicate], hierarchy: Hierarchy
) -> dict[str, Implied]:
    """An `Implied` for each attribute over its own predicates and those of
    its descendants: the keys are the predicates' attributes and their
    ancestors."""
    grouped = group_by_attribute(
        (attribute, p)
        for p in preds
        for attribute in (p.attribute, *hierarchy.ancestors(p.attribute))
    )
    return {a: Implied(group, hierarchy) for a, group in grouped.items()}


def implied_by_values(values: Mapping[str, Iterable[Value]]) -> dict[str, Implied]:
    """An `Implied` for each attribute over its values, keyed as given."""
    return {a: Implied.of_values(vs) for a, vs in values.items()}


def all_implied(preds: Iterable[Predicate], implied: dict[str, Implied]) -> bool:
    """True iff the summary at each predicate's attribute implies it."""
    for p in preds:
        summary = implied.get(p.attribute)
        if summary is None or not summary.implies(p):
            return False
    return True


def _implied(sub: Subscription, hierarchy: Hierarchy) -> dict[str, Implied]:
    return implied_by_attribute(sub.predicates, hierarchy)


def covers(s1: Subscription, s2: Subscription) -> bool:
    """True iff every event matching s2 is guaranteed to match s1.

    Decided predicate-wise: each s1 predicate must be implied by some s2
    predicate on the same attribute.  This is sound even when an event
    carries several pairs for one attribute, because implication is
    quantified over single pairs.  s2's predicates are summarised per
    attribute once (`Implied`), so each s1 predicate costs a lookup.
    """
    return all_implied(s1.predicates, kept(s2, "_implied", _FLAT, _implied))


class Gate:
    """What a set of advertisement predicates admits, in the form
    intersection asks about it.

    A subscription predicate sp meets the gate iff one event pair can
    satisfy sp and some gate predicate ap; the semantic layer passes only
    gates over attributes comparable with sp's, the deeper one being the
    witness pair's attribute, and satisfaction there is hierarchy-lifted.
    Every syntactic witness value counts, and the hierarchy adds witnesses
    only for string equality.  By operator of sp (rows) and ap (columns),
    with sp's value v and ap's value w:

      sp, ap    | = w                       | != w                   | half-line
      = v       | v == w, or strings on one | v != w, or v == w a    | v an integer
                | hierarchy path            | string with a relative | inside it
      != v      | w != v, or v == w a       | always                 | always
                | string with a relative    |                        |
      half-line | w an integer inside it    | always                 | overlap

    A "relative" is a strict ancestor (the witness is v itself, which also
    carries a differing generalization) or a strict descendant (the
    witness, whose chain holds v while it differs from v).  Under a flat
    hierarchy the table is `jointly_satisfiable`'s.  Each entry asks whether
    some ap exists, so gates over merged predicate sets stay exact.  The
    summary answers each in a few lookups:

      - `values`: the `=` values; `terms`: the string ones; `up`: the terms
        and all their ancestors, so v lies on a path with some term iff v is
        in `up` or one of v's ancestors is in `terms`;
      - `excluded`: the `!=` values;
      - `lo`: the smallest bound of the `>`, `>=` half-lines and `hi` the
        largest of the `<`, `<=` ones, closed as `interval` gives them;
      - `bottom`: the least integer a `>`, `>=` or integer `=` predicate
        admits, and `top` the greatest a `<`, `<=` or integer `=` one
        admits.  A half-line sp meets every half-line facing its own way;
        past those, a lower-bounded sp needs `top` at or above its bound,
        an upper-bounded one `bottom` at or below it.
    """

    __slots__ = ("values", "terms", "up", "excluded", "lo", "hi", "bottom", "top")

    def __init__(self, preds: Iterable[Predicate], hierarchy: Hierarchy):
        self.values: set[Value] = set()
        self.excluded: set[Value] = set()
        lows: list[int] = []
        highs: list[int] = []
        for p in preds:
            if p.op is RelOp.EQ:
                self.values.add(p.value)
            elif p.op is RelOp.NE:
                self.excluded.add(p.value)
            else:
                lo, hi = interval(p)
                if hi is None:
                    lows.append(lo)
                else:
                    highs.append(hi)
        self.terms = {v.data for v in self.values if v.is_string}
        self.up = self.terms.union(*(hierarchy.ancestors(t) for t in self.terms))
        ints = [v.data for v in self.values if v.is_int]
        self.lo: Optional[int] = min(lows, default=None)
        self.hi: Optional[int] = max(highs, default=None)
        self.bottom: Optional[int] = min(lows + ints, default=None)
        self.top: Optional[int] = max(highs + ints, default=None)

    def meets(self, sp: Predicate, hierarchy: Hierarchy) -> bool:
        v = sp.value
        if sp.op is RelOp.EQ:
            if _holds_other(self.excluded, v):
                return True
            if v.is_string:
                return (
                    v.data in self.up
                    or not self.terms.isdisjoint(hierarchy.ancestors(v.data))
                    or (v in self.excluded and hierarchy.has_relative(v.data))
                )
            if v in self.values:
                return True
            return v.is_int and (
                (self.lo is not None and self.lo <= v.data)
                or (self.hi is not None and v.data <= self.hi)
            )
        if sp.op is RelOp.NE:
            if self.excluded or self.lo is not None or self.hi is not None:
                return True
            return _holds_other(self.values, v) or (
                v.is_string and v.data in self.terms and hierarchy.has_relative(v.data)
            )
        if self.excluded:
            return True
        lo, hi = interval(sp)
        if hi is None:
            return self.lo is not None or (self.top is not None and lo <= self.top)
        return self.hi is not None or (self.bottom is not None and self.bottom <= hi)


def _gates(adv: Advertisement, hierarchy: Hierarchy) -> dict[str, Gate]:
    grouped = group_by_attribute((p.attribute, p) for p in adv.predicates)
    return {a: Gate(preds, hierarchy) for a, preds in grouped.items()}


def intersects(adv: Advertisement, sub: Subscription) -> bool:
    """True iff some event could be determined by adv and match sub.

    Each subscription predicate needs an advertisement predicate on the
    same attribute that it is jointly satisfiable with.  The false verdict
    is exact: any event pair matching a subscription predicate while the
    event is determined by adv must match some same-attribute adv predicate,
    witnessing joint satisfiability.  adv's predicates are summarised per
    attribute once (`Gate`), so each subscription predicate costs a lookup.
    """
    gates = kept(adv, "_gates", _FLAT, _gates)
    for sp in sub.predicates:
        gate = gates.get(sp.attribute)
        if gate is None or not gate.meets(sp, _FLAT):
            return False
    return True
