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
returns the broker it was given with the outgoing messages.

The subscriptions are also listed per arrival link, in arrival order, the
way a content-based forwarding table keeps one predicate per interface.
Both walks over the table go link by link and skip the list of the neighbor
broker that sent the message.  A publish never goes back the way it came,
and a subscribe need not test for covering the entries from that neighbor,
which tested them against it moments earlier, in the same cascade, and
found none covering (see `handle_subscribe`).  Each entry carries its
attribute set (root forms), so a walk tests only the entries that could
pass.  A subscribe tests for covering only the entries within its reach: a
stored subscription naming an attribute that is neither one of the new
subscription's nor an ancestor of one cannot cover it.  A publish tests
only the entries whose attributes the event carries: a subscription naming
an attribute at which the (augmented) event has no value cannot match it.
A subscription keeps its attribute sets (`model.kept`, under the knowledge
base), so the brokers on its path compute them once, and each table entry
carries the requirement rows of its normal form
(`Subscription.requirement`, built once however many brokers store it).
The event side is summarised and the subscription side compiled: a publish
fetches the event's summary (`semantic.event_implied`, kept on the event)
once per handling and asks each candidate entry's rows of it with
`requirement_met`, one check per attribute, so routing calls neither
`sem_match` nor `match_event`; they stay imported only because the
benchmark's tracer patches them here by name.  Outgoing messages follow the
order of the broker's clients and neighbors, not the walk, so a handler
returns the same list whatever the walk's order; the simulator's reports do
not depend on that order at all (see `sim`).  Normal forms and event
summaries take one path under every knowledge base.  Only covering and
gating still dispatch: an empty knowledge base (no synonyms, hierarchy or
mappings) selects the syntactic relations, which equal the semantic ones
over it, and any other the semantic ones; the dispatch stays because the
benchmark's tracer counts each relation set by name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union

from .knowledge import KnowledgeBase
from .model import Advertisement, Event, Row, Subscription, kept
from .semantic import (
    attribute_reach,
    event_implied,
    normalized,
    sem_covers,
    sem_intersects,
    subscription_attributes,
)
from .syntactic import covers, intersects, requirement_met
# Nothing here calls `sem_match` or `match_event`; `bench/tracing.py`
# patches them by name.
from .semantic import match_event, sem_match  # noqa: F401


class RoutingError(ValueError):
    """Raised for messages that violate the broker's link topology."""


class MessageKind(enum.Enum):
    ADVERTISE = "ADVERTISE"
    SUBSCRIBE = "SUBSCRIBE"
    PUBLISH = "PUBLISH"
    NOTIFY = "NOTIFY"

    # Members are singletons, so identity is their equality; `sim.run` keys
    # its traffic counts on them, and `Enum.__hash__` is a Python-level call
    # where this one is C.
    __hash__ = object.__hash__


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


@dataclass(frozen=True, slots=True)
class SubscriptionEntry:
    sub: Subscription
    forwarded_to: frozenset[str]
    # The requirement rows of the subscription's normal form under the
    # broker's knowledge base, which a publication is tested against.
    requirement: tuple[Row, ...]
    # The root forms of its attributes, `subscription_attributes`.
    attributes: frozenset[str]


@dataclass
class BrokerState:
    id: str
    neighbors: tuple[str, ...]
    clients: tuple[str, ...]
    # The relations' knowledge base; an empty one selects the syntactic ones.
    kb: KnowledgeBase
    subscriptions: dict[Key, SubscriptionEntry] = field(default_factory=dict)
    # The same entries listed by arrival link, each list in arrival order;
    # the covering and publish walks read these.
    arrived: dict[str, list[SubscriptionEntry]] = field(default_factory=dict)
    advertisements: dict[Key, Advertisement] = field(default_factory=dict)
    suppressed: int = 0
    gated: int = 0
    # Subscriptions a publication was tested against, and the links they
    # matched, over every publish handled.
    publish_tests: int = 0
    matched_links: int = 0
    # Optimization switches; disabling either must never change deliveries,
    # only traffic. Kept on the state so a whole run is self-describing.
    covering_suppression: bool = True
    advertisement_gating: bool = True
    # Every client and neighbor.
    links: frozenset[str] = field(init=False, repr=False)
    # Every link with the kind of message a publication leaves by on it,
    # clients first, in the order outgoing messages follow.
    outlets: tuple[tuple[str, MessageKind], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.links = frozenset((*self.clients, *self.neighbors))
        self.outlets = (
            *((c, MessageKind.NOTIFY) for c in self.clients),
            *((n, MessageKind.PUBLISH) for n in self.neighbors),
        )

    def _check_link(self, link: str) -> None:
        if link not in self.links:
            raise RoutingError(f"broker {self.id!r} has no link {link!r}")

    def _covers(self, s1: Subscription, s2: Subscription) -> bool:
        if self.kb.is_empty:
            return covers(s1, s2)
        return sem_covers(s1, s2, self.kb)

    def _intersects(self, adv: Advertisement, sub: Subscription) -> bool:
        if self.kb.is_empty:
            return intersects(adv, sub)
        return sem_intersects(adv, sub, self.kb)


def _attribute_sets(
    sub: Subscription, kb: KnowledgeBase
) -> tuple[frozenset[str], frozenset[str]]:
    """The subscription's attributes, `subscription_attributes`, and the
    attributes it reaches, which a subscription covering it must lie
    within."""
    attributes = subscription_attributes(sub, kb)
    return attributes, attribute_reach(attributes, kb)


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
    first intersecting entry.  One walk over the per-link lists then tests
    an entry within the new subscription's reach only while it was
    forwarded to a link still open, and a covering entry suppresses all of
    those links; the walk ends once a list leaves no link open.  Which links
    end up suppressed does not depend on the order of the walk.

    The walk skips the list of the sender when it is a neighbor broker,
    never when it is a client, whose other subscriptions can cover this
    one.  Every entry held from a neighbor was forwarded here by it, and
    that neighbor tested each one against this subscription before
    forwarding it here, with this broker's link open, and found none
    covering.  That rests on two facts: each SUBSCRIBE cascade finishes
    before the next action starts, so no entry reaches this broker between
    that test and this walk, and entries are never removed; an unsubscribe
    must revisit the skip.
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
    attributes, reach = kept(sub, "_attribute_sets", state.kb, _attribute_sets)
    if state.covering_suppression and live:
        # A neighbor sender has tested its entries against sub already.
        skipped = frm if frm in state.neighbors else None
        for origin, entries in state.arrived.items():
            if origin == skipped:
                continue
            for e in entries:
                if (
                    e.attributes <= reach
                    and not live.isdisjoint(e.forwarded_to)
                    and state._covers(e.sub, sub)
                ):
                    state.suppressed += len(live & e.forwarded_to)
                    live -= e.forwarded_to
            if not live:
                break
    forwarded = [n for n in state.neighbors if n in live]
    requirement = normalized(sub, state.kb).requirement
    entry = SubscriptionEntry(sub, frozenset(forwarded), requirement, attributes)
    state.subscriptions[sub.id, frm] = entry
    state.arrived.setdefault(frm, []).append(entry)
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
    Every client is a candidate, the publisher too; every neighbor except
    the sender is, since a publication never goes back the way it came.  The
    event's summary is fetched once, and one walk over the other links'
    lists tests the normal form of each entry whose attributes the event
    carries, and marks the link at its first match, leaving the rest of
    that list untested.  Which links are marked does not depend on the
    order of the walk.
    """
    state._check_link(frm)
    if not state.arrived:
        return state, []
    skipped = frm if frm in state.neighbors else None
    implied = event_implied(event, state.kb)
    carried = frozenset(implied)
    matched = set()
    tests = 0
    for link, entries in state.arrived.items():
        if link == skipped:
            continue
        for e in entries:
            if e.attributes <= carried:
                tests += 1
                if requirement_met(e.requirement, implied):
                    matched.add(link)
                    break
    state.publish_tests += tests
    if not matched:
        return state, []
    state.matched_links += len(matched)
    out = [
        Message(kind, event, frm=state.id, to=link, index=index)
        for link, kind in state.outlets
        if link in matched
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
