"""Broker state machine for an acyclic publish/subscribe overlay.

Each broker knows its neighbor brokers and locally attached clients, both
addressed by link id.  Advertisements flood the tree.  Subscriptions are
forwarded toward advertisers only: a subscription travels over a link when
some advertisement that arrived on that link intersects it, and no
previously forwarded subscription on that link already covers it.  Events
travel the reverse subscription paths and reach clients as NOTIFY messages.

Each broker keeps one table of advertisements and one of subscriptions,
both keyed by (id, arrival link), so a repeated arrival is found by one
lookup and ignored.  Brokers update their tables in place; each handler
returns the broker it was given with the outgoing messages.  Publish walks
the subscription table once, in insertion order, so a run replays
deterministically.  The subscriptions are also grouped by attribute set
(root forms), and a subscribe tests for covering only the groups whose
attributes it can reach: a stored subscription naming an attribute that is
neither one of the new subscription's nor an ancestor of one cannot cover
it.  The relation set (syntactic or semantic) is fixed per broker by
`RoutingMode`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union

from .knowledge import KnowledgeBase
from .model import Advertisement, Event, Subscription
from .semantic import (
    attribute_reach,
    sem_covers,
    sem_intersects,
    sem_match,
    subscription_attributes,
)
from .syntactic import covers, intersects, match_event


class RoutingError(ValueError):
    """Raised for messages that violate the broker's link topology."""


class RoutingMode(enum.Enum):
    SYNTACTIC = "syntactic"
    SEMANTIC = "semantic"


class MessageKind(enum.Enum):
    ADVERTISE = "ADVERTISE"
    SUBSCRIBE = "SUBSCRIBE"
    PUBLISH = "PUBLISH"
    NOTIFY = "NOTIFY"


Payload = Union[Advertisement, Subscription, Event]
# A broker table key: (payload id, arrival link).
Key = tuple[str, str]


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    payload: Payload
    frm: str
    to: str
    # Publication sequence number, carried by PUBLISH and NOTIFY so that
    # deliveries of equal events remain distinguishable.
    index: int | None = None


@dataclass(frozen=True)
class SubscriptionEntry:
    sub: Subscription
    forwarded_to: frozenset[str]


@dataclass
class BrokerState:
    id: str
    neighbors: tuple[str, ...]
    clients: tuple[str, ...]
    kb: KnowledgeBase
    mode: RoutingMode
    subscriptions: dict[Key, SubscriptionEntry] = field(default_factory=dict)
    # The same entries grouped by `subscription_attributes`, for covering.
    by_attributes: dict[frozenset[str], list[SubscriptionEntry]] = field(
        default_factory=dict
    )
    advertisements: dict[Key, Advertisement] = field(default_factory=dict)
    suppressed: int = 0
    gated: int = 0
    # Optimization switches; disabling either must never change deliveries,
    # only traffic. Kept on the state so a whole run is self-describing.
    covering_suppression: bool = True
    advertisement_gating: bool = True

    def _check_link(self, link: str) -> None:
        if link not in self.neighbors and link not in self.clients:
            raise RoutingError(f"broker {self.id!r} has no link {link!r}")

    def _covers(self, s1: Subscription, s2: Subscription) -> bool:
        if self.mode is RoutingMode.SEMANTIC:
            return sem_covers(s1, s2, self.kb)
        return covers(s1, s2)

    def _intersects(self, adv: Advertisement, sub: Subscription) -> bool:
        if self.mode is RoutingMode.SEMANTIC:
            return sem_intersects(adv, sub, self.kb)
        return intersects(adv, sub)

    def _matches(self, event: Event, sub: Subscription) -> bool:
        if self.mode is RoutingMode.SEMANTIC:
            return sem_match(event, sub, self.kb)
        return match_event(event, sub)


def handle_advertise(
    state: BrokerState, adv: Advertisement, frm: str
) -> tuple[BrokerState, list[Message]]:
    """Record the advertisement and flood it to the other neighbors."""
    state._check_link(frm)
    if (adv.id, frm) in state.advertisements:
        return state, []
    state.advertisements[adv.id, frm] = adv
    out = [
        Message(MessageKind.ADVERTISE, adv, frm=state.id, to=n)
        for n in state.neighbors
        if n != frm
    ]
    return state, out


def handle_subscribe(
    state: BrokerState, sub: Subscription, frm: str
) -> tuple[BrokerState, list[Message]]:
    """Record the subscription and forward it toward intersecting advertisers.

    A neighbor other than the sender receives the subscription only when an
    advertisement that arrived from that neighbor intersects it (gating) and
    no subscription previously forwarded to that neighbor covers it
    (suppression).  One walk over the advertisements opens each link at its
    first intersecting entry.  One walk over the subscription groups whose
    attributes the new subscription reaches then tests an entry only while
    it was forwarded to a link still open, and a covering entry suppresses
    all of those links; the walk ends once a group leaves no link open.
    Which links end up suppressed does not depend on the order of the walk.
    """
    state._check_link(frm)
    if (sub.id, frm) in state.subscriptions:
        return state, []
    live = {n for n in state.neighbors if n != frm}
    if state.advertisement_gating:
        closed, live = live, set()
        for (_, origin), adv in state.advertisements.items():
            if origin in closed and state._intersects(adv, sub):
                closed.discard(origin)
                live.add(origin)
        state.gated += len(closed)
    attributes = subscription_attributes(sub, state.kb)
    if state.covering_suppression and live:
        reach = attribute_reach(attributes, state.kb)
        for key, group in state.by_attributes.items():
            if not key <= reach:
                continue
            for e in group:
                if not live.isdisjoint(e.forwarded_to) and state._covers(e.sub, sub):
                    state.suppressed += len(live & e.forwarded_to)
                    live -= e.forwarded_to
            if not live:
                break
    forwarded = [n for n in state.neighbors if n in live]
    entry = SubscriptionEntry(sub, frozenset(forwarded))
    state.subscriptions[sub.id, frm] = entry
    state.by_attributes.setdefault(attributes, []).append(entry)
    out = [
        Message(MessageKind.SUBSCRIBE, sub, frm=state.id, to=n)
        for n in forwarded
    ]
    return state, out


def handle_publish(
    state: BrokerState, event: Event, frm: str, index: int | None = None
) -> tuple[BrokerState, list[Message]]:
    """Notify interested local clients and forward to interested neighbors.

    At most one copy leaves per link however many subscriptions match there.
    One walk over the table marks each link at its first matching entry, so
    the entries of a link are tested in table order until one matches.
    Every client is a candidate, the publisher too; every neighbor except
    the sender is.
    """
    state._check_link(frm)
    pending = {*state.clients, *(n for n in state.neighbors if n != frm)}
    matched = set()
    for (_, origin), e in state.subscriptions.items():
        if origin in pending and state._matches(event, e.sub):
            pending.discard(origin)
            matched.add(origin)
    out = [
        Message(MessageKind.NOTIFY, event, frm=state.id, to=c, index=index)
        for c in state.clients
        if c in matched
    ]
    out += [
        Message(MessageKind.PUBLISH, event, frm=state.id, to=n, index=index)
        for n in state.neighbors
        if n in matched
    ]
    return state, out


def handle_message(
    state: BrokerState, msg: Message
) -> tuple[BrokerState, list[Message]]:
    if msg.kind is MessageKind.ADVERTISE:
        return handle_advertise(state, msg.payload, msg.frm)
    if msg.kind is MessageKind.SUBSCRIBE:
        return handle_subscribe(state, msg.payload, msg.frm)
    if msg.kind is MessageKind.PUBLISH:
        return handle_publish(state, msg.payload, msg.frm, msg.index)
    raise RoutingError(f"broker {state.id!r} cannot handle {msg.kind.value}")
