"""Semantic matching: normalization, event augmentation, publish admission.

Matching an event against a subscription semantically proceeds in stages:

1. Synonym normalization rewrites every attribute name and string value of
   both sides to its root term.
2. Hierarchy augmentation adds, for each event pair, all generalizations
   reachable by climbing the concept hierarchy at the attribute and (for
   string values) the value position.
3. Mapping augmentation evaluates each knowledge-base mapping function on
   every combination of its inputs' values visible after stage 2 and
   appends any outputs.

The augmented event then matches the subscription at plain syntax level.
Generalization is one-way: a subscription mentioning a specialized term is
never satisfied by an event carrying only a more general one.

`sem_covers` and `sem_intersects` ask the relation kernel,
`syntactic.covers` and `syntactic.intersects`, about the normal forms under
the knowledge base.  They deliberately ignore mapping functions, whose
outputs are not predictable relation-side; routing built on them can
therefore under-forward mapping-dependent subscriptions (surfaced by the
simulator as a distinct verdict).  Both relations are conservative: a true
`sem_covers` always means event-set inclusion, and a false `sem_intersects`
always means no event can satisfy both sides.

This module builds no covering or gating summary; it normalizes, augments
and admits.  Routing keeps on each entity, with `model.kept`, what it
derives from it under the last knowledge base asked: a subscription's or an
advertisement's normal form (`normalized`; None when that is the entity
itself, so no entity holds itself), on which the kernel keeps its
summaries, and an event's augmented values summarised as one
`syntactic.Implied` per attribute over a `(a = v)` predicate per value
(`event_implied`).  Under an empty knowledge base every entity is its own
normal form and augmentation adds nothing, so neither is computed: the
event's own values are summarised.  `augment` builds the values by
attribute in one pass, with the provenance of each added value;
`--explain` prints the added values and takes each predicate's witness from
the values at its attribute.  A predicate holds for some value at its
attribute iff some `(a = v)` implies it, so `sem_match` asks `all_implied`,
the covering kernel; `match_event` is `sem_match` over the empty knowledge
base, asked past the memo.  Routing asks the same of each table entry's
normal form against the event's kept summary, through the normal form's
requirement rows (`syntactic.requirement_met`) and without `sem_match`, so
`sem_match`'s memo, the only module-level cache, is off routing's path, as
it is off the oracle's and the mapping-gap check's in `sim`: only the CLI
and the tests fill it, and it keeps at most 1,024 entries.
Publish admission (`sem_admits`, and `sem_determines` for one
advertisement) normalizes each event pair once per publish, however many
advertisements are asked, and asks the kernel, `syntactic.determines`,
once per advertisement's normal form whether it admits every pair; the
kernel keeps the gates that decide this on the normal form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, TypeVar

from .knowledge import KnowledgeBase, apply_mapping
from .model import (
    Advertisement,
    Event,
    Pair,
    Predicate,
    Subscription,
    Value,
    group_by_attribute,
    kept,
)
from .syntactic import (
    Implied,
    all_implied,
    covers,
    determines,
    implied_by_values,
    intersects,
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
    # Each attribute's values, each once, in the order they became visible:
    # the base event's first, mapped to None, then the added ones, mapped to
    # their provenance.
    values: dict[str, dict[Value, Optional[Provenance]]]
    # The (attribute, value) of each added pair, in the order they were added.
    order: tuple[tuple[str, Value], ...]

    @property
    def added(self) -> tuple[AddedPair, ...]:
        """The added pairs, in the order they were added."""
        return tuple(AddedPair(Pair(a, v), self.values[a][v]) for a, v in self.order)


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


_Predicated = TypeVar("_Predicated", Subscription, Advertisement)


def _over_root_terms(entity: _Predicated, kb: KnowledgeBase) -> _Predicated:
    """The entity over root terms; `entity` itself when it already is."""
    predicates = tuple(normalize_predicate(p, kb) for p in entity.predicates)
    if predicates == entity.predicates:
        return entity
    return type(entity)(predicates, id=entity.id)


def normalize_subscription(sub: Subscription, kb: KnowledgeBase) -> Subscription:
    """The subscription over root terms; `sub` itself when it already is."""
    return _over_root_terms(sub, kb)


def normalize_advertisement(adv: Advertisement, kb: KnowledgeBase) -> Advertisement:
    """The advertisement over root terms; `adv` itself when it already is."""
    return _over_root_terms(adv, kb)


def value_chain(value: Value, kb: KnowledgeBase) -> tuple[Value, ...]:
    """The value and, for a string, its ancestor term values, nearest first:
    the values hierarchy augmentation lifts it to."""
    return (value, *kb.ancestor_values(value.data)) if value.is_string else (value,)


def augment(event: Event, kb: KnowledgeBase) -> AugmentedEvent:
    """Add hierarchy generalizations, then mapping outputs, to an event.

    The event must already be synonym-normalized.  For each base pair the
    full cross product of the attribute's ancestor chain and the value's
    ancestor chain is added (minus the pair itself and any duplicates).
    Mapping functions run in document order over the base and
    hierarchy-added pairs only, on every combination of their inputs'
    values (`apply_mapping`); their outputs do not feed later functions.

    The pass fills the values by attribute (`AugmentedEvent.values`) and
    records each added pair in the order it was added.
    """
    values: dict[str, dict[Value, Optional[Provenance]]] = {}
    for pair in event.pairs:
        values.setdefault(pair.attribute, {})[pair.value] = None
    order: list[tuple[str, Value]] = []
    for pair in event.pairs:
        chain = value_chain(pair.value, kb)
        for attribute in (pair.attribute, *kb.ancestors(pair.attribute)):
            held = values.setdefault(attribute, {})
            for v in chain:
                if v not in held:
                    held[v] = Provenance.HIERARCHY
                    order.append((attribute, v))

    # Every mapping reads the values before any output joins them.
    outputs = [pair for f in kb.mappings for pair in apply_mapping(f, values)]
    for output in outputs:
        held = values.setdefault(output.attribute, {})
        if output.value not in held:
            held[output.value] = Provenance.MAPPING
            order.append(output)
    return AugmentedEvent(event, values, tuple(order))


def augmented_implied(event: Event, kb: KnowledgeBase) -> dict[str, Implied]:
    """What the augmented event implies, per attribute it carries a value at:
    the root forms of its own attributes, their ancestors, and the mapping
    outputs (`syntactic.implied_by_values`).

    Under an empty knowledge base the event is its own normal form and
    augmentation adds nothing, so its own values are summarised directly.
    """
    if kb.is_empty:
        values = group_by_attribute((p.attribute, p.value) for p in event.pairs)
        return implied_by_values(values)
    return implied_by_values(augment(normalize_event(event, kb), kb).values)


def _other_normal_form(
    entity: _Predicated, kb: KnowledgeBase
) -> Optional[_Predicated]:
    """The entity's normal form, or None when that is the entity itself,
    which kept on the entity would be a reference cycle."""
    normal = _over_root_terms(entity, kb)
    return None if normal is entity else normal


def normalized(entity: _Predicated, kb: KnowledgeBase) -> _Predicated:
    """The subscription's or advertisement's normal form, kept on it; the
    entity itself under an empty knowledge base, which has no synonyms."""
    if kb.is_empty:
        return entity
    normal = kept(entity, "_normalized", kb, _other_normal_form)
    return entity if normal is None else normal


def event_implied(event: Event, kb: KnowledgeBase) -> dict[str, Implied]:
    """`augmented_implied(event, kb)`, kept on the event: what routing asks
    of a publication at every broker on its path.  Its keys are the
    attributes the event carries, at which a subscription can match."""
    return kept(event, "_augmented", kb, augmented_implied)


@lru_cache(maxsize=1024)
def sem_match(event: Event, sub: Subscription, kb: KnowledgeBase) -> bool:
    """True iff the augmented event matches the normalized subscription."""
    return all_implied(normalized(sub, kb).predicates, event_implied(event, kb))


def match_event(event: Event, sub: Subscription) -> bool:
    """`sem_match` over the empty knowledge base, past its memo: every
    predicate of sub is matched by some pair of event, names literal."""
    return sem_match.__wrapped__(event, sub, KnowledgeBase.empty())


def sem_admits(
    advertisements: Iterable[Advertisement], event: Event, kb: KnowledgeBase
) -> bool:
    """True iff some advertisement `sem_determines` the event; each pair is
    normalized once, however many advertisements are asked."""
    pairs = [
        (kb.root_term(pair.attribute), normalize_value(pair.value, kb))
        for pair in event.pairs
    ]
    return any(determines(normalized(adv, kb), pairs, kb) for adv in advertisements)


def sem_determines(adv: Advertisement, event: Event, kb: KnowledgeBase) -> bool:
    """True iff every normalized event pair is admitted by some adv predicate
    under hierarchy-lifted matching: one at the pair's attribute or an
    ancestor of it that some value on the pair's value chain satisfies."""
    return sem_admits((adv,), event, kb)


def subscription_attributes(sub: Subscription, kb: KnowledgeBase) -> frozenset[str]:
    """The root forms of the subscription's predicate attributes."""
    return frozenset(kb.root_term(p.attribute) for p in sub.predicates)


def attribute_reach(attributes: frozenset[str], kb: KnowledgeBase) -> frozenset[str]:
    """The root-form attributes together with all their hierarchy ancestors;
    `attributes` itself when none has an ancestor."""
    above = [chain for chain in map(kb.ancestors, attributes) if chain]
    return attributes.union(*above) if above else attributes


def sem_covers(s1: Subscription, s2: Subscription, kb: KnowledgeBase) -> bool:
    """True iff every event semantically matching s2 semantically matches s1.

    Hierarchy-only and sound; mapping functions are not consulted, so a
    subscription satisfiable only through a mapping output may defeat the
    inclusion this relation promises (see module docstring).  Decided by
    `syntactic.covers` over the normal forms, so s1 can cover s2 only if
    `subscription_attributes(s1, kb)` lies within
    `attribute_reach(subscription_attributes(s2, kb), kb)`.
    """
    return covers(normalized(s1, kb), normalized(s2, kb), kb)


def sem_intersects(adv: Advertisement, sub: Subscription, kb: KnowledgeBase) -> bool:
    """True iff some event could be semantically determined by adv while
    semantically matching sub.

    Exact for mapping-free knowledge bases over a value space containing
    the hierarchy terms and integers adjacent to the predicate constants:
    events may repeat attributes, so satisfiability decomposes into one
    witness pair per subscription predicate, each of which must also be
    admitted by some advertisement predicate on a comparable attribute.
    Decided by `syntactic.intersects` over the normal forms (see
    `syntactic.Gate`).
    """
    return intersects(normalized(adv, kb), normalized(sub, kb), kb)
