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
predicate meets only the event values of its own attribute, and an
advertisement is searched only at the attributes the hierarchy relates to
the other side's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, TypeVar

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
from .syntactic import implies, jointly_satisfiable


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


@lru_cache(maxsize=None)
def _advertised(adv: Advertisement, kb: KnowledgeBase) -> dict[str, list[Predicate]]:
    """The normalized advertisement's predicates, keyed by attribute."""
    preds = normalize_advertisement(adv, kb).predicates
    return _by_attribute((p.attribute, p) for p in preds)


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
    advertised = _advertised(adv, kb)
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


def _sem_jointly_satisfiable(sp: Predicate, ap: Predicate, kb: KnowledgeBase) -> bool:
    """True iff one event pair can semantically satisfy both predicates.

    The pair's attribute must descend to both predicate attributes, which in
    a forest means the attributes are comparable, with the deeper term the
    witness attribute; the caller pairs only such predicates, as callers of
    `jointly_satisfiable` pair same-attribute ones.  Every syntactic witness
    value is a semantic one;
    the hierarchy adds witnesses only for string equality:

      - = against =: the values may also be hierarchy-comparable (the
        deeper one is the witness);
      - = against != on the same value: satisfiable when the value has a
        strict ancestor (the witness is the value itself, which then also
        carries a differing generalization) or a strict descendant (the
        witness, whose chain contains the value and itself differs from it).
    """
    if jointly_satisfiable(sp, ap):
        return True
    p, q = (sp, ap) if sp.op is RelOp.EQ else (ap, sp)
    if p.op is not RelOp.EQ or not p.value.is_string:
        return False
    if q.op is RelOp.EQ:
        return q.value.is_string and kb.comparable(p.value.data, q.value.data)
    return q.op is RelOp.NE and p.value == q.value and kb.has_relative(p.value.data)


def sem_intersects(adv: Advertisement, sub: Subscription, kb: KnowledgeBase) -> bool:
    """True iff some event could be semantically determined by adv while
    semantically matching sub.

    Exact for mapping-free knowledge bases over a value space containing
    the hierarchy terms and integers adjacent to the predicate constants:
    events may repeat attributes, so satisfiability decomposes into one
    witness pair per subscription predicate, each of which must also be
    admitted by some advertisement predicate.
    """
    advertised = _advertised(adv, kb)
    return all(
        any(
            _sem_jointly_satisfiable(sp, ap, kb)
            for attribute, preds in advertised.items()
            if kb.comparable(sp.attribute, attribute)
            for ap in preds
        )
        for sp in _normalized_sub(sub, kb).predicates
    )
