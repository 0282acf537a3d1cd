"""Semantic matching: normalization, event augmentation, lifted relations.

Matching an event against a subscription semantically proceeds in stages:

1. Synonym normalization rewrites every attribute name and string value of
   both sides to its root term.
2. Hierarchy augmentation adds, for each event pair, all generalizations
   reachable by climbing the concept hierarchy at the attribute and (for
   string values) the value position.
3. Mapping augmentation evaluates each knowledge-base mapping function once
   against the pairs visible after stage 2 and appends any outputs.

The augmented event then matches the subscription at plain syntax level.
Generalization is one-way: a subscription mentioning a specialized term is
never satisfied by an event carrying only a more general one.

`sem_covers` and `sem_intersects` lift the syntactic covering and
intersection tests through the hierarchy.  They deliberately ignore mapping
functions, whose outputs are not predictable relation-side; routing built on
them can therefore under-forward mapping-dependent subscriptions (surfaced
by the simulator as a distinct verdict).  Both relations are conservative:
a true `sem_covers` always means event-set inclusion, and a false
`sem_intersects` always means no event can satisfy both sides.

Each event is augmented once and each advertisement normalized once per
knowledge base.  Both are kept keyed by attribute, so a subscription
predicate meets only the event values of its own attribute.  On its first
`sem_intersects`, an advertisement also gets a `_Gate` per attribute: a
summary of what the predicates there admit, merged once over the attribute
alone and once over it and all its descendants (one gate serves both when
no descendant is advertised).  A subscription predicate then meets only the
merged gate at its own attribute and the plain gates at its ancestors, each
with a few set lookups, instead of a scan of the advertisement's predicates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional, TypeVar

from .knowledge import KnowledgeBase, apply_mapping
from .model import (
    Advertisement,
    Event,
    Pair,
    Predicate,
    RelOp,
    Subscription,
    Value,
)
from .syntactic import implies, interval


class Provenance(enum.Enum):
    HIERARCHY = "hierarchy"
    MAPPING = "mapping"


@dataclass(frozen=True)
class AddedPair:
    pair: Pair
    provenance: Provenance


@dataclass(frozen=True)
class AugmentedEvent:
    """A normalized event plus the pairs contributed by augmentation."""

    base: Event
    added: tuple[AddedPair, ...]

    def all_pairs(self) -> tuple[Pair, ...]:
        return self.base.pairs + tuple(ap.pair for ap in self.added)


def normalize_value(value: Value, kb: KnowledgeBase) -> Value:
    if value.is_string:
        root = kb.root_term(value.data)
        if root != value.data:
            return Value.string(root)
    return value


def normalize_pair(pair: Pair, kb: KnowledgeBase) -> Pair:
    return Pair(kb.root_term(pair.attribute), normalize_value(pair.value, kb))


def normalize_predicate(pred: Predicate, kb: KnowledgeBase) -> Predicate:
    return Predicate(
        kb.root_term(pred.attribute), pred.op, normalize_value(pred.value, kb)
    )


def normalize_event(event: Event, kb: KnowledgeBase) -> Event:
    return Event(tuple(normalize_pair(p, kb) for p in event.pairs))


def normalize_subscription(sub: Subscription, kb: KnowledgeBase) -> Subscription:
    """The subscription over root terms; `sub` itself when it already is."""
    predicates = tuple(normalize_predicate(p, kb) for p in sub.predicates)
    if predicates == sub.predicates:
        return sub
    return Subscription(predicates, id=sub.id)


def normalize_advertisement(adv: Advertisement, kb: KnowledgeBase) -> Advertisement:
    return Advertisement(
        tuple(normalize_predicate(p, kb) for p in adv.predicates), id=adv.id
    )


def _value_chain(value: Value, kb: KnowledgeBase) -> tuple[Value, ...]:
    if not value.is_string:
        return (value,)
    return (value,) + tuple(Value.string(t) for t in kb.ancestors(value.data))


def augment(event: Event, kb: KnowledgeBase) -> AugmentedEvent:
    """Add hierarchy generalizations, then mapping outputs, to an event.

    The event must already be synonym-normalized.  For each base pair the
    full cross product of the attribute's ancestor chain and the value's
    ancestor chain is added (minus the pair itself and any duplicates).
    Mapping functions each run at most once, in document order, over the
    base and hierarchy-added pairs only; their outputs do not feed later
    functions.
    """
    seen = set(event.pairs)
    added: list[AddedPair] = []
    for pair in event.pairs:
        attr_chain = (pair.attribute,) + kb.ancestors(pair.attribute)
        value_chain = _value_chain(pair.value, kb)
        for attr in attr_chain:
            for value in value_chain:
                candidate = Pair(attr, value)
                if candidate in seen:
                    continue
                seen.add(candidate)
                added.append(AddedPair(candidate, Provenance.HIERARCHY))

    visible = list(event.pairs) + [ap.pair for ap in added]
    for f in kb.mappings:
        output = apply_mapping(f, visible, kb.reference_year)
        if output is not None and output not in seen:
            seen.add(output)
            added.append(AddedPair(output, Provenance.MAPPING))
    return AugmentedEvent(event, tuple(added))


_T = TypeVar("_T")


def _by_attribute(items: Iterable[tuple[str, _T]]) -> dict[str, list[_T]]:
    grouped: dict[str, list[_T]] = {}
    for attribute, item in items:
        grouped.setdefault(attribute, []).append(item)
    return grouped


def augmented_values(event: Event, kb: KnowledgeBase) -> dict[str, list[Value]]:
    """The augmented event's values, keyed by attribute.

    Its keys are the attributes the event carries a value at: the root forms
    of its own attributes, their ancestors, and the mapping outputs.
    """
    pairs = augment(normalize_event(event, kb), kb).all_pairs()
    return _by_attribute((p.attribute, p.value) for p in pairs)


_augmented = lru_cache(maxsize=None)(augmented_values)


class _Advertised:
    """A normalized advertisement: its predicates keyed by attribute, and the
    gates `sem_intersects` looks subscription predicates up in."""

    def __init__(self, adv: Advertisement, kb: KnowledgeBase):
        self.kb = kb
        preds = normalize_advertisement(adv, kb).predicates
        self.predicates = _by_attribute((p.attribute, p) for p in preds)

    @cached_property
    def gates(self) -> tuple[dict[str, "_Gate"], dict[str, "_Gate"]]:
        """Gates over each attribute's own predicates, and over the
        predicates of each attribute and all its descendants.

        Built on first use, because publish admission, which only needs
        `predicates`, normalizes every advertisement while a scenario loads.
        """
        kb = self.kb
        own = {a: _Gate(preds, kb) for a, preds in self.predicates.items()}
        descendants: dict[str, list[Predicate]] = {}
        for attribute, preds in self.predicates.items():
            for term in kb.ancestors(attribute):
                descendants.setdefault(term, []).extend(preds)
        # An attribute with no advertised descendant shares its own gate.
        merged = dict(own)
        for a, preds in descendants.items():
            merged[a] = _Gate(preds + self.predicates.get(a, []), kb)
        return own, merged


_advertised = lru_cache(maxsize=None)(_Advertised)


@lru_cache(maxsize=None)
def _normalized_sub(sub: Subscription, kb: KnowledgeBase) -> Subscription:
    return normalize_subscription(sub, kb)


def carried_attributes(event: Event, kb: KnowledgeBase) -> frozenset[str]:
    """The attributes of `augmented_values(event, kb)`.

    `sem_match` needs a value at every normalized predicate attribute, so it
    can hold only if `subscription_attributes(sub, kb)` lies within these.
    """
    return frozenset(_augmented(event, kb))


def values_satisfy(values: dict[str, list[Value]], sub: Subscription) -> bool:
    """True iff each predicate holds for some value at its attribute.

    `values` is keyed by attribute, as `augmented_values` returns it, and
    `sub` is normalized.
    """
    for pred in sub.predicates:
        for value in values.get(pred.attribute, ()):
            if pred.op.holds(value, pred.value):
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def sem_match(event: Event, sub: Subscription, kb: KnowledgeBase) -> bool:
    """True iff the augmented event matches the normalized subscription."""
    return values_satisfy(_augmented(event, kb), _normalized_sub(sub, kb))


def pair_sem_matches(pair: Pair, pred: Predicate, kb: KnowledgeBase) -> bool:
    """Hierarchy-lifted single-pair match over normalized inputs.

    Equivalent to: some pair in the hierarchy closure of `pair` matches
    `pred` syntactically.  The attribute must be a descendant of (or equal
    to) the predicate attribute.  Beyond the syntactic test on the value
    itself, only a string value climbs:

      - equality holds for an ancestor, so the pair value may be a
        descendant of the predicate value;
      - inequality holds for any strict ancestor, which differs from the
        value the predicate excludes.
    """
    if not kb.is_descendant_or_equal(pair.attribute, pred.attribute):
        return False
    value = pair.value
    if pred.op.holds(value, pred.value):
        return True
    if pred.op is RelOp.EQ:
        return _value_descends(value, pred.value, kb)
    return pred.op is RelOp.NE and value.is_string and bool(kb.ancestors(value.data))


def _value_descends(v: Value, target: Value, kb: KnowledgeBase) -> bool:
    if v == target:
        return True
    return (
        v.is_string
        and target.is_string
        and kb.is_descendant_or_equal(v.data, target.data)
    )


def sem_determines(adv: Advertisement, event: Event, kb: KnowledgeBase) -> bool:
    """True iff every normalized event pair is admitted by some adv predicate
    under hierarchy-lifted matching."""
    advertised = _advertised(adv, kb).predicates
    return all(
        any(
            pair_sem_matches(pair, pred, kb)
            for attribute in (pair.attribute, *kb.ancestors(pair.attribute))
            for pred in advertised.get(attribute, ())
        )
        for pair in normalize_event(event, kb).pairs
    )


def _sem_implies(p2: Predicate, p1: Predicate, kb: KnowledgeBase) -> bool:
    """True iff any event pair semantically satisfying p2 also semantically
    satisfies p1 (p2 the more specific side).

    The hierarchy adds one case to syntactic implication: (= v) implies
    (= w) when v descends from w.  Against (!= w), a pair satisfying (= v)
    still carries v itself, so the syntactic rule (v differs from w) stays
    exact.
    """
    if not kb.is_descendant_or_equal(p2.attribute, p1.attribute):
        return False
    if p2.op is RelOp.EQ and p1.op is RelOp.EQ:
        return _value_descends(p2.value, p1.value, kb)
    return implies(p2, p1)


def subscription_attributes(sub: Subscription, kb: KnowledgeBase) -> frozenset[str]:
    """The root forms of the subscription's predicate attributes."""
    return frozenset(kb.root_term(p.attribute) for p in sub.predicates)


def attribute_reach(attributes: frozenset[str], kb: KnowledgeBase) -> frozenset[str]:
    """The root-form attributes together with all their hierarchy ancestors."""
    return attributes.union(*(kb.ancestors(a) for a in attributes))


def sem_covers(s1: Subscription, s2: Subscription, kb: KnowledgeBase) -> bool:
    """True iff every event semantically matching s2 semantically matches s1.

    Hierarchy-only and sound; mapping functions are not consulted, so a
    subscription satisfiable only through a mapping output may defeat the
    inclusion this relation promises (see module docstring).

    An s1 predicate is implied only by an s2 predicate on a descendant of
    (or the same) attribute, so s1 can cover s2 only if
    `subscription_attributes(s1, kb)` lies within
    `attribute_reach(subscription_attributes(s2, kb), kb)`.
    """
    n1 = _normalized_sub(s1, kb)
    n2 = _normalized_sub(s2, kb)
    return all(
        any(_sem_implies(p2, p1, kb) for p2 in n2.predicates)
        for p1 in n1.predicates
    )


class _Gate:
    """What a set of normalized advertisement predicates admits, in the form
    `sem_intersects` asks about it.

    A subscription predicate sp meets the gate iff one event pair can
    semantically satisfy sp and some gate predicate ap; the caller passes
    only gates over attributes comparable with sp's, the deeper one being
    the witness pair's attribute.  Every syntactic witness value counts, and
    the hierarchy adds witnesses only for string equality.  By operator of
    sp (rows) and ap (columns), with sp's value v and ap's value w:

      sp, ap    | = w                       | != w                   | half-line
      = v       | v == w, or strings on one | v != w, or v == w a    | v an integer
                | hierarchy path            | string with a relative | inside it
      != v      | w != v, or v == w a       | always                 | always
                | string with a relative    |                        |
      half-line | w an integer inside it    | always                 | overlap

    A "relative" is a strict ancestor (the witness is v itself, which also
    carries a differing generalization) or a strict descendant (the
    witness, whose chain holds v while it differs from v).  Each entry asks
    whether some ap exists, so gates over merged predicate sets stay exact.
    The summary answers each in a few lookups:

      - `values`: the `=` values; `terms`: the string ones; `up`: the terms
        and all their ancestors, so v lies on a path with some term iff v is
        in `up` or one of v's ancestors is in `terms`;
      - `excluded`: the `!=` values;
      - `lo`: the smallest bound of the `>`, `>=` half-lines and `hi` the
        largest of the `<`, `<=` ones, closed as `syntactic.interval` gives
        them;
      - `bottom`: the least integer a `>`, `>=` or integer `=` predicate
        admits, and `top` the greatest a `<`, `<=` or integer `=` one
        admits.  A half-line sp meets every half-line facing its own way;
        past those, a lower-bounded sp needs `top` at or above its bound,
        an upper-bounded one `bottom` at or below it.
    """

    __slots__ = ("values", "terms", "up", "excluded", "lo", "hi", "bottom", "top")

    def __init__(self, preds: Iterable[Predicate], kb: KnowledgeBase):
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
        self.up = self.terms.union(*(kb.ancestors(t) for t in self.terms))
        ints = [v.data for v in self.values if v.is_int]
        self.lo: Optional[int] = min(lows, default=None)
        self.hi: Optional[int] = max(highs, default=None)
        self.bottom: Optional[int] = min(lows + ints, default=None)
        self.top: Optional[int] = max(highs + ints, default=None)

    def meets(self, sp: Predicate, kb: KnowledgeBase) -> bool:
        v = sp.value
        if sp.op is RelOp.EQ:
            if _holds_other(self.excluded, v):
                return True
            if v.is_string:
                return (
                    v.data in self.up
                    or not self.terms.isdisjoint(kb.ancestors(v.data))
                    or (v in self.excluded and kb.has_relative(v.data))
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
                v.is_string and v.data in self.terms and kb.has_relative(v.data)
            )
        if self.excluded:
            return True
        lo, hi = interval(sp)
        if hi is None:
            return self.lo is not None or (self.top is not None and lo <= self.top)
        return self.hi is not None or (self.bottom is not None and self.bottom <= hi)


def _holds_other(values: set[Value], v: Value) -> bool:
    """True iff `values` holds a value other than v."""
    return len(values) > 1 or (bool(values) and v not in values)


def _meets_some(
    sp: Predicate, own: dict[str, _Gate], below: dict[str, _Gate], kb: KnowledgeBase
) -> bool:
    """True iff a gate over an attribute comparable with sp's meets sp: the
    merged gate at sp's attribute, or the own gate at one of its ancestors."""
    gate = below.get(sp.attribute)
    if gate is not None and gate.meets(sp, kb):
        return True
    for attribute in kb.ancestors(sp.attribute):
        gate = own.get(attribute)
        if gate is not None and gate.meets(sp, kb):
            return True
    return False


def sem_intersects(adv: Advertisement, sub: Subscription, kb: KnowledgeBase) -> bool:
    """True iff some event could be semantically determined by adv while
    semantically matching sub.

    Exact for mapping-free knowledge bases over a value space containing
    the hierarchy terms and integers adjacent to the predicate constants:
    events may repeat attributes, so satisfiability decomposes into one
    witness pair per subscription predicate, each of which must also be
    admitted by some advertisement predicate on a comparable attribute
    (see `_Gate`).
    """
    own, below = _advertised(adv, kb).gates
    return all(
        _meets_some(sp, own, below, kb) for sp in _normalized_sub(sub, kb).predicates
    )
