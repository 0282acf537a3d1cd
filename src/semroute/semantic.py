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
predicate meets only the event values of its own attribute, through the
same `syntactic.values_satisfy` loop `match_event` runs.  Both lifted
relations ask the summaries `syntactic` defines, built over the knowledge
base's hierarchy, instead of scanning the side they quantify over:

- `sem_covers` keeps on the covered subscription, for the last knowledge
  base it was asked under, an `Implied` per attribute over the predicates
  there and at its descendants, with `=` values lifted to their ancestor
  chains;
- on its first `sem_intersects`, an advertisement's memo entry gets a
  `Gate` per attribute, merged once over the attribute alone and once over
  it and all its descendants (one gate serves both when no descendant is
  advertised).  A subscription predicate meets only the merged gate at its
  own attribute and the plain gates at its ancestors.

Each test is then a few set lookups per predicate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .knowledge import KnowledgeBase, apply_mapping
from .model import (
    Advertisement,
    Event,
    Pair,
    Predicate,
    RelOp,
    Subscription,
    Value,
    group_by_attribute,
    kept,
)
from .syntactic import (
    Gate,
    Implied,
    all_implied,
    implied_by_attribute,
    values_satisfy,
)


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


def augmented_values(event: Event, kb: KnowledgeBase) -> dict[str, list[Value]]:
    """The augmented event's values, keyed by attribute.

    Its keys are the attributes the event carries a value at: the root forms
    of its own attributes, their ancestors, and the mapping outputs.
    """
    pairs = augment(normalize_event(event, kb), kb).all_pairs()
    return group_by_attribute((p.attribute, p.value) for p in pairs)


_augmented = lru_cache(maxsize=None)(augmented_values)


class _Advertised:
    """A normalized advertisement: its predicates keyed by attribute, and the
    gates `sem_intersects` looks subscription predicates up in."""

    def __init__(self, adv: Advertisement, kb: KnowledgeBase):
        self.kb = kb
        preds = normalize_advertisement(adv, kb).predicates
        self.predicates = group_by_attribute((p.attribute, p) for p in preds)

    @cached_property
    def gates(self) -> tuple[dict[str, Gate], dict[str, Gate]]:
        """Gates over each attribute's own predicates, and over the
        predicates of each attribute and all its descendants.

        Built on first use, because publish admission, which only needs
        `predicates`, normalizes every advertisement while a scenario loads.
        """
        kb = self.kb
        own = {a: Gate(preds, kb) for a, preds in self.predicates.items()}
        descendants: dict[str, list[Predicate]] = {}
        for attribute, preds in self.predicates.items():
            for term in kb.ancestors(attribute):
                descendants.setdefault(term, []).extend(preds)
        # An attribute with no advertised descendant shares its own gate.
        merged = dict(own)
        for a, preds in descendants.items():
            merged[a] = Gate(preds + self.predicates.get(a, []), kb)
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


def subscription_attributes(sub: Subscription, kb: KnowledgeBase) -> frozenset[str]:
    """The root forms of the subscription's predicate attributes."""
    return frozenset(kb.root_term(p.attribute) for p in sub.predicates)


def attribute_reach(attributes: frozenset[str], kb: KnowledgeBase) -> frozenset[str]:
    """The root-form attributes together with all their hierarchy ancestors."""
    return attributes.union(*(kb.ancestors(a) for a in attributes))


def _lifted_implied(sub: Subscription, kb: KnowledgeBase) -> dict[str, Implied]:
    return implied_by_attribute(_normalized_sub(sub, kb).predicates, kb)


def sem_covers(s1: Subscription, s2: Subscription, kb: KnowledgeBase) -> bool:
    """True iff every event semantically matching s2 semantically matches s1.

    Hierarchy-only and sound; mapping functions are not consulted, so a
    subscription satisfiable only through a mapping output may defeat the
    inclusion this relation promises (see module docstring).

    Each normalized s1 predicate must be implied by some normalized s2
    predicate on a descendant of (or the same) attribute.  The hierarchy
    adds one case to syntactic implication: (= v) implies (= w) when v
    descends from w.  Against (!= w), a pair satisfying (= v) still carries
    v itself, so the syntactic rule (v differs from w) stays exact.

    s2 is summarised on first use and kept on it with the knowledge base
    (only the last one asked under): an `Implied` at each of its attributes
    and their ancestors, over the predicates there and at the descendants,
    with `=` values lifted to their ancestor chains.  An s1 predicate
    elsewhere is implied by nothing, so s1 can cover s2 only if
    `subscription_attributes(s1, kb)` lies within
    `attribute_reach(subscription_attributes(s2, kb), kb)`.
    """
    implied = kept(s2, "_sem_implied", kb, _lifted_implied)
    return all_implied(_normalized_sub(s1, kb).predicates, implied)


def _meets_some(
    sp: Predicate, own: dict[str, Gate], below: dict[str, Gate], kb: KnowledgeBase
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
    (see `syntactic.Gate`).
    """
    own, below = _advertised(adv, kb).gates
    return all(
        _meets_some(sp, own, below, kb) for sp in _normalized_sub(sub, kb).predicates
    )
