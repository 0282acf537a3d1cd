import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semroute.routing
import semroute.sim
from semroute.knowledge import KnowledgeBase, SynonymGroup, load_knowledge
from semroute.model import (
    Subscription,
    parse_advertisement,
    parse_event,
    parse_subscription,
)
from semroute.routing import (
    BrokerState,
    Message,
    MessageKind,
    RoutingError,
    handle_advertise,
    handle_message,
    handle_publish,
    handle_subscribe,
)
from semroute.semantic import normalized, sem_covers, sem_match
from semroute.sim import load_scenario, random_scenario_document, run

from .conftest import events_from, make_forest_kb, subscriptions_from

ADV = parse_advertisement('(product = "computer") AND (brand = "IBM") AND (price <= 1500)')
SUB_WIDE = parse_subscription('(product = "computer") AND (brand = "IBM") AND (price <= 1600)')
SUB_NARROW = parse_subscription('(product = "computer") AND (brand = "IBM") AND (price <= 1500)')
EVENT = parse_event('{(product, "computer"), (brand, "IBM"), (price, 1400)}')


def broker(
    broker_id="b2",
    neighbors=("b1", "b3"),
    clients=("c1",),
    kb=None,
    **flags,
) -> BrokerState:
    """A broker whose relations use `kb`; the default, empty knowledge base
    selects the syntactic relations."""
    return BrokerState(
        id=broker_id,
        neighbors=tuple(neighbors),
        clients=tuple(clients),
        kb=kb if kb is not None else KnowledgeBase.empty(),
        **flags,
    )


class TestAdvertise:
    def test_flooded_to_other_neighbors_only(self):
        state, out = handle_advertise(broker(), ADV, frm="b1")
        assert [(m.kind, m.to, m.frm) for m in out] == [
            (MessageKind.ADVERTISE, "b3", "b2")
        ]
        assert list(state.advertisements) == [(ADV.id, "b1")]

    def test_client_advertisement_floods_to_all_neighbors(self):
        state, out = handle_advertise(broker(), ADV, frm="c1")
        assert sorted(m.to for m in out) == ["b1", "b3"]

    def test_duplicate_from_same_origin_ignored(self):
        state, _ = handle_advertise(broker(), ADV, frm="b1")
        state2, out = handle_advertise(state, ADV, frm="b1")
        assert state2 is state
        assert out == []

    def test_same_advertisement_different_origin_kept(self):
        state, _ = handle_advertise(broker(), ADV, frm="b1")
        state2, out = handle_advertise(state, ADV, frm="c1")
        assert len(state2.advertisements) == 2
        assert [m.to for m in out] == ["b1", "b3"]

    def test_unknown_link_rejected(self):
        with pytest.raises(RoutingError, match="no link"):
            handle_advertise(broker(), ADV, frm="nowhere")


class TestSubscribeGating:
    def test_blocked_without_intersecting_advertisement(self):
        state, out = handle_subscribe(broker(), SUB_WIDE, frm="c1")
        assert out == []
        assert state.gated == 2
        assert state.subscriptions[SUB_WIDE.id, "c1"].forwarded_to == frozenset()

    def test_forwarded_only_toward_the_advertiser(self):
        state, _ = handle_advertise(broker(), ADV, frm="b1")
        state, out = handle_subscribe(state, SUB_WIDE, frm="c1")
        assert [(m.kind, m.to) for m in out] == [(MessageKind.SUBSCRIBE, "b1")]
        assert state.gated == 1

    def test_non_intersecting_advertisement_does_not_open_the_gate(self):
        other = parse_advertisement('(product = "book")')
        state, _ = handle_advertise(broker(), other, frm="b1")
        state, out = handle_subscribe(state, SUB_WIDE, frm="c1")
        assert out == []

    def test_gate_disabled_floods(self):
        state, out = handle_subscribe(
            broker(advertisement_gating=False), SUB_WIDE, frm="c1"
        )
        assert sorted(m.to for m in out) == ["b1", "b3"]
        assert state.gated == 0

    def test_never_forwarded_back_to_its_origin(self):
        state, _ = handle_advertise(broker(), ADV, frm="b1")
        state, out = handle_subscribe(state, SUB_WIDE, frm="b1")
        assert out == []


class TestSubscribeSuppression:
    def advertised(self, **flags):
        state, _ = handle_advertise(broker(**flags), ADV, frm="b1")
        return state

    def test_covered_subscription_not_reforwarded(self):
        state = self.advertised()
        state, first = handle_subscribe(state, SUB_WIDE, frm="c1")
        assert [m.to for m in first] == ["b1"]
        state, second = handle_subscribe(state, SUB_NARROW, frm="c1")
        assert second == []
        assert state.suppressed == 1
        assert state.subscriptions[SUB_NARROW.id, "c1"].forwarded_to == frozenset()

    def test_wider_subscription_still_forwarded(self):
        state = self.advertised()
        state, _ = handle_subscribe(state, SUB_NARROW, frm="c1")
        state, out = handle_subscribe(state, SUB_WIDE, frm="c1")
        assert [m.to for m in out] == ["b1"]
        assert state.suppressed == 0

    def test_suppression_scoped_to_the_link_actually_used(self):
        # The covering subscription was gated off b1, so it must not
        # suppress a later subscription on that link.
        state, _ = handle_advertise(broker(), ADV, frm="b1")
        gated_wide = parse_subscription('(product = "book")')
        state, _ = handle_subscribe(state, gated_wide, frm="c1")
        book_adv = parse_advertisement('(product = "book") AND (price <= 100)')
        state, _ = handle_advertise(state, book_adv, frm="b1")
        narrow = parse_subscription('(product = "book") AND (price <= 5)')
        state, out = handle_subscribe(state, narrow, frm="c1")
        assert [m.to for m in out] == ["b1"]

    def test_suppression_disabled_forwards_everything(self):
        state = self.advertised(covering_suppression=False)
        state, _ = handle_subscribe(state, SUB_WIDE, frm="c1")
        state, out = handle_subscribe(state, SUB_NARROW, frm="c1")
        assert [m.to for m in out] == ["b1"]
        assert state.suppressed == 0

    def test_semantic_covering_suppresses(self, example_kb):
        adv = parse_advertisement('(product = "printed material") AND (price >= 0)')
        state, _ = handle_advertise(
            broker(kb=example_kb), adv, frm="b1"
        )
        general = parse_subscription('(product = "printed material")')
        specific = parse_subscription('(product = "book")')
        state, first = handle_subscribe(state, general, frm="c1")
        assert [m.to for m in first] == ["b1"]
        state, second = handle_subscribe(state, specific, frm="c1")
        assert second == []
        assert state.suppressed == 1

    def test_duplicate_subscription_ignored(self):
        state = self.advertised()
        state, _ = handle_subscribe(state, SUB_WIDE, frm="c1")
        state2, out = handle_subscribe(state, SUB_WIDE, frm="c1")
        assert state2 is state
        assert out == []

    def test_same_subscription_different_origin_kept(self):
        state = self.advertised(covering_suppression=False)
        state, _ = handle_subscribe(state, SUB_WIDE, frm="c1")
        state2, out = handle_subscribe(state, SUB_WIDE, frm="b3")
        assert list(state2.subscriptions) == [
            (SUB_WIDE.id, "c1"),
            (SUB_WIDE.id, "b3"),
        ]
        assert [m.to for m in out] == ["b1"]


class TestSubscribeOneWalk:
    """Each stored entry is tested for covering at most once per subscribe,
    and a covering entry suppresses every open link it was forwarded to."""

    def two_advertisers(self):
        state, _ = handle_advertise(broker(), ADV, frm="b1")
        state, _ = handle_advertise(state, ADV, frm="b3")
        return state

    def test_covering_entry_suppresses_both_links(self):
        state = self.two_advertisers()
        state, first = handle_subscribe(state, SUB_WIDE, frm="c1")
        assert [m.to for m in first] == ["b1", "b3"]
        state, second = handle_subscribe(state, SUB_NARROW, frm="c1")
        assert second == []
        assert state.suppressed == 2
        assert state.gated == 0
        assert state.subscriptions[SUB_NARROW.id, "c1"].forwarded_to == frozenset()

    def test_gated_and_covered_links_counted_apart(self):
        state, _ = handle_advertise(broker(), ADV, frm="b1")
        state, first = handle_subscribe(state, SUB_WIDE, frm="b3")
        assert [m.to for m in first] == ["b1"]
        state, second = handle_subscribe(state, SUB_NARROW, frm="c1")
        assert second == []
        assert state.gated == 1
        assert state.suppressed == 1

    def covers_calls(self, monkeypatch):
        calls = []
        real_covers = semroute.routing.covers

        def counting(s1, s2):
            calls.append((s1, s2))
            return real_covers(s1, s2)

        monkeypatch.setattr(semroute.routing, "covers", counting)
        return calls

    @pytest.mark.parametrize(
        "later",
        [
            SUB_NARROW,
            parse_subscription(
                '(product = "computer") AND (brand = "IBM") AND (price <= 1700)'
            ),
        ],
        ids=["covered", "not-covered"],
    )
    def test_entry_on_two_links_tested_once(self, monkeypatch, later):
        state = self.two_advertisers()
        state, _ = handle_subscribe(state, SUB_WIDE, frm="c1")
        calls = self.covers_calls(monkeypatch)
        handle_subscribe(state, later, frm="c1")
        assert calls == [(SUB_WIDE, later)]

    def test_entry_with_unreachable_attributes_is_not_tested(self, monkeypatch):
        # SUB_WIDE names brand and price, which the later subscription lacks.
        state = self.two_advertisers()
        state, _ = handle_subscribe(state, SUB_WIDE, frm="c1")
        calls = self.covers_calls(monkeypatch)
        later = parse_subscription('(product = "computer")')
        state, out = handle_subscribe(state, later, frm="c1")
        assert calls == []
        assert [m.to for m in out] == ["b1", "b3"]


class TestEntriesFromOneNeighbor:
    """Why `handle_subscribe` skips the entries from a neighbor sender:
    among the entries a broker holds from one neighbor broker, no earlier
    one covers a later one, because the neighbor tested each later one
    against the earlier ones it had forwarded here, and would have
    suppressed the link."""

    def test_no_earlier_entry_covers_a_later_one(self, monkeypatch):
        states = []

        class Recorded(BrokerState):
            def __post_init__(self):
                super().__post_init__()
                states.append(self)

        monkeypatch.setattr(semroute.sim, "BrokerState", Recorded)
        pairs = 0
        for seed in range(60):
            for mode in ("syntactic", "semantic"):
                states.clear()
                run(load_scenario(dict(random_scenario_document(seed), mode=mode)))
                assert states, (seed, mode)
                for state in states:
                    for link, entries in state.arrived.items():
                        if link not in state.neighbors:
                            continue
                        subs = [e.sub for e in entries]
                        for i, later in enumerate(subs):
                            for earlier in subs[:i]:
                                pairs += 1
                                assert not sem_covers(earlier, later, state.kb), (
                                    seed, mode, state.id, earlier, later
                                )
        assert pairs > 1000


class TestSubscribeAttributeGroups:
    """In semantic mode a stored subscription on an ancestor or a synonym of
    the new one's attribute is still tested, and still suppresses it."""

    KB = KnowledgeBase(
        synonyms=[
            SynonymGroup("item", frozenset({"article"})),
            SynonymGroup("book", frozenset({"volume"})),
        ],
        hierarchy=[("book", "item")],
    )

    @pytest.mark.parametrize(
        "stored",
        ["(item >= 5)", "(article >= 5)", "(volume >= 5)"],
        ids=["ancestor", "synonym-of-ancestor", "synonym"],
    )
    def test_related_attribute_suppresses(self, stored):
        adv = parse_advertisement("(book >= 0) AND (price >= 0)")
        state, _ = handle_advertise(
            broker(kb=self.KB), adv, frm="b1"
        )
        state, first = handle_subscribe(state, parse_subscription(stored), frm="c1")
        assert [m.to for m in first] == ["b1"]
        later = parse_subscription("(book >= 7) AND (price <= 10)")
        state, second = handle_subscribe(state, later, frm="c1")
        assert second == []
        assert state.suppressed == 1

    def test_kept_attribute_sets_follow_the_brokers_knowledge_base(self):
        # The subscription keeps its attribute set and reach; a broker under
        # another knowledge base gets its own.
        adv = parse_advertisement("(volume >= 0) AND (item >= 0)")
        stored = parse_subscription("(item >= 5)")
        later = parse_subscription("(volume >= 7)")
        empty = KnowledgeBase.empty()
        for kb, key, suppressed in (
            (self.KB, "book", 1),
            (empty, "volume", 0),
            (self.KB, "book", 1),
        ):
            state, _ = handle_advertise(broker(kb=kb), adv, frm="b1")
            state, _ = handle_subscribe(state, stored, frm="c1")
            state, _ = handle_subscribe(state, later, frm="c1")
            assert state.subscriptions[later.id, "c1"].attributes == frozenset({key})
            assert state.suppressed == suppressed


class TestPublish:
    def routed(self):
        state = broker(clients=("c1", "c2"))
        state, _ = handle_advertise(state, ADV, frm="b1")
        return state

    def test_notify_every_matching_client(self):
        state = self.routed()
        state, _ = handle_subscribe(state, SUB_WIDE, frm="c1")
        state, _ = handle_subscribe(state, SUB_NARROW, frm="c2")
        _, out = handle_publish(state, EVENT, frm="b1", index=3)
        assert [(m.kind, m.to, m.index) for m in out] == [
            (MessageKind.NOTIFY, "c1", 3),
            (MessageKind.NOTIFY, "c2", 3),
        ]

    def test_one_publish_per_link_despite_many_subscriptions(self):
        state = self.routed()
        state, _ = handle_subscribe(state, SUB_WIDE, frm="b3")
        state, _ = handle_subscribe(
            state, parse_subscription('(product = "computer")'), frm="b3"
        )
        _, out = handle_publish(state, EVENT, frm="b1")
        assert [(m.kind, m.to) for m in out] == [(MessageKind.PUBLISH, "b3")]

    def test_not_forwarded_back_to_sender(self):
        state = self.routed()
        state, _ = handle_subscribe(state, SUB_WIDE, frm="b1")
        _, out = handle_publish(state, EVENT, frm="b1")
        assert out == []

    def test_publishing_client_is_not_excluded_from_notification(self):
        # A client whose own subscription matches its publication hears it.
        state = self.routed()
        state, _ = handle_subscribe(state, SUB_WIDE, frm="c1")
        _, out = handle_publish(state, EVENT, frm="c1")
        assert [(m.kind, m.to) for m in out] == [(MessageKind.NOTIFY, "c1")]

    def test_semantic_mode_notifies_through_the_hierarchy(self, example_kb):
        state = broker(kb=example_kb)
        adv = parse_advertisement('(product = "printed material") AND (price >= 10)')
        state, _ = handle_advertise(state, adv, frm="b1")
        sub = parse_subscription('(product = "book") AND (price <= 20)')
        state, _ = handle_subscribe(state, sub, frm="c1")
        event = parse_event('{(product, "book"), (price, 15)}')
        _, out = handle_publish(state, event, frm="b1", index=0)
        assert [(m.kind, m.to) for m in out] == [(MessageKind.NOTIFY, "c1")]

    def test_publish_state_unchanged(self):
        state = self.routed()
        state2, _ = handle_publish(state, EVENT, frm="b1")
        assert state2 is state


class TestPublishAttributeGroups:
    """A publish tests only stored entries whose attributes the event carries:
    under an empty knowledge base its own attributes, and otherwise their
    root forms and ancestors and the mapping outputs."""

    KNOWLEDGE = {
        "synonyms": [
            {"root": "item", "members": ["article"]},
            {"root": "book", "members": ["volume"]},
        ],
        "hierarchy": [{"child": "book", "parent": "item"}],
        "mappings": [
            {"name": "cost", "inputs": ["price"], "output": "cost",
             "body": {"kind": "rename", "input": "price"}}
        ],
    }
    KB = load_knowledge(KNOWLEDGE)
    UNRELATED = parse_subscription('(colour = "red")')

    def match_calls(self, monkeypatch, kb, subs):
        """The subscriptions among `subs` whose normal forms under `kb` a
        publish tests, in call order."""
        by_requirement = {normalized(sub, kb).requirement: sub for sub in subs}
        calls = []
        real = semroute.routing.requirement_met

        def counting(requirement, implied):
            calls.append(by_requirement[requirement])
            return real(requirement, implied)

        monkeypatch.setattr(semroute.routing, "requirement_met", counting)
        return calls

    def publish(self, monkeypatch, kb, stored, event):
        state = broker(clients=("c1", "c2"), kb=kb)
        state, _ = handle_subscribe(state, self.UNRELATED, frm="c2")
        state, _ = handle_subscribe(state, stored, frm="c1")
        calls = self.match_calls(monkeypatch, state.kb, [self.UNRELATED, stored])
        _, out = handle_publish(state, event, frm="b1")
        return calls, [(m.kind, m.to) for m in out]

    @pytest.mark.parametrize(
        "stored",
        ["(book >= 5)", "(item >= 5)", "(article >= 5)", "(cost >= 5)"],
        ids=["synonym", "ancestor", "synonym-of-ancestor", "mapping-output"],
    )
    def test_semantic_entry_on_a_carried_attribute_is_tested(self, monkeypatch, stored):
        sub = parse_subscription(stored)
        event = parse_event("{(volume, 7), (price, 9)}")
        calls, out = self.publish(monkeypatch, self.KB, sub, event)
        assert calls == [sub]
        assert out == [(MessageKind.NOTIFY, "c1")]

    def test_syntactic_run_consults_no_synonyms(self, monkeypatch):
        # The scenario's knowledge makes `volume` a synonym of `book`, but a
        # syntactic run routes over the empty knowledge base: `(book >= 5)`
        # names `book`, which a `volume` event does not carry, so it is
        # never tested against one, while `(volume >= 5)` is.
        scenario = load_scenario(
            {
                "brokers": ["b1"],
                "clients": [
                    {"id": "pub", "broker": "b1"},
                    {"id": "s1", "broker": "b1"},
                    {"id": "s2", "broker": "b1"},
                ],
                "knowledge": self.KNOWLEDGE,
                "mode": "syntactic",
                "script": [
                    {"action": "advertise", "client": "pub", "payload": "(volume >= 0)"},
                    {"action": "subscribe", "client": "s1", "payload": "(book >= 5)"},
                    {"action": "subscribe", "client": "s2", "payload": "(volume >= 5)"},
                    {"action": "publish", "client": "pub", "payload": "{(volume, 7)}"},
                ],
            }
        )
        subs = [action.payload for action in scenario.script[1:3]]
        calls = self.match_calls(monkeypatch, KnowledgeBase.empty(), subs)
        assert run(scenario).deliveries == (("s2", 0),)
        assert calls == [scenario.script[2].payload]

    @pytest.mark.parametrize("kb", [None, KB], ids=["syntactic", "semantic"])
    def test_entry_on_an_absent_attribute_is_not_tested(self, monkeypatch, kb):
        sub = parse_subscription("(volume >= 5) AND (weight <= 3)")
        event = parse_event("{(volume, 7), (price, 9)}")
        calls, out = self.publish(monkeypatch, kb, sub, event)
        assert calls == []
        assert out == []


class TestPublishWalk:
    """The links a publish marks are those of the candidate entries that
    `sem_match` accepts, whatever the table and the knowledge base: the
    empty one, a forest with synonyms, or one with a mapping."""

    OUTLETS = (
        ("c1", MessageKind.NOTIFY),
        ("c2", MessageKind.NOTIFY),
        ("b1", MessageKind.PUBLISH),
        ("b3", MessageKind.PUBLISH),
    )

    @staticmethod
    def pools(data, which):
        """The knowledge base and the attribute and term pools to draw from."""
        if which == "mapped":
            names = ["book", "volume", "item", "article", "price", "cost"]
            return TestPublishAttributeGroups.KB, names, names
        forest = make_forest_kb(random.Random(data.draw(st.integers(0, 2**32))), 6, with_synonyms=True)
        names = [f"t{i}" for i in range(6)]
        names += sorted(m for g in forest.synonyms for m in g.members)
        kb = KnowledgeBase.empty() if which == "empty" else forest
        return kb, names + ["price"], names

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(["empty", "forest", "mapped"]))
    def test_marked_links_equal_a_scan_of_sem_match(self, data, which):
        kb, attrs, terms = self.pools(data, which)
        links = [link for link, _ in self.OUTLETS]
        stored = data.draw(
            st.lists(
                st.tuples(st.sampled_from(links), subscriptions_from(attrs, terms, max_preds=3)),
                max_size=12,
            )
        )
        state = broker(clients=("c1", "c2"), kb=kb, advertisement_gating=False)
        for i, (link, sub) in enumerate(stored):
            state, _ = handle_subscribe(state, Subscription(sub.predicates, id=f"s{i}"), frm=link)
        event = data.draw(events_from(attrs, terms))
        frm = data.draw(st.sampled_from(links))
        candidates = set(links) - {frm} if frm in state.neighbors else set(links)
        expected = {
            link
            for (_, link), e in state.subscriptions.items()
            if link in candidates and sem_match.__wrapped__(event, e.sub, kb)
        }
        _, out = handle_publish(state, event, frm=frm, index=0)
        assert [(m.to, m.kind) for m in out] == [o for o in self.OUTLETS if o[0] in expected]
        assert state.matched_links == len(expected)
        assert len(expected) <= state.publish_tests <= len(state.subscriptions)

    def test_entry_naming_no_attribute_is_tested(self):
        # A subscription built with no predicate has the empty attribute
        # set, which every event carries; it matches every event.
        state = broker(clients=("c1", "c2"))
        state, _ = handle_subscribe(state, Subscription((), id="all"), frm="c2")
        _, out = handle_publish(state, EVENT, frm="b1")
        assert [(m.kind, m.to) for m in out] == [(MessageKind.NOTIFY, "c2")]


class TestCoveringWalk:
    """The links a subscribe forwards to are the live neighbors that no
    covering stored entry was forwarded to, leaving out the entries from a
    neighbor sender, whatever the table and the knowledge base."""

    LINKS = [link for link, _ in TestPublishWalk.OUTLETS]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(["empty", "forest", "mapped"]))
    def test_forwarded_links_equal_a_scan_of_sem_covers(self, data, which):
        kb, attrs, terms = TestPublishWalk.pools(data, which)
        stored = data.draw(
            st.lists(
                st.tuples(st.sampled_from(self.LINKS), subscriptions_from(attrs, terms, max_preds=3)),
                max_size=12,
            )
        )
        state = broker(clients=("c1", "c2"), kb=kb, advertisement_gating=False)
        for i, (link, sub) in enumerate(stored):
            state, _ = handle_subscribe(state, Subscription(sub.predicates, id=f"s{i}"), frm=link)
        sub = Subscription(data.draw(subscriptions_from(attrs, terms, max_preds=3)).predicates, id="new")
        frm = data.draw(st.sampled_from(self.LINKS))
        skipped = frm if frm in state.neighbors else None
        live = {n for n in state.neighbors if n != frm}
        covered = set()
        for (_, link), e in state.subscriptions.items():
            if link != skipped and sem_covers(e.sub, sub, kb):
                covered |= e.forwarded_to
        expected = live - covered
        suppressed = state.suppressed
        _, out = handle_subscribe(state, sub, frm=frm)
        assert [m.to for m in out] == [n for n in state.neighbors if n in expected]
        assert state.suppressed - suppressed == len(live) - len(expected)


class TestHandleMessage:
    def test_dispatch(self):
        state = broker()
        state, _ = handle_message(
            state, Message(MessageKind.ADVERTISE, ADV, frm="b1", to="b2")
        )
        state, _ = handle_message(
            state, Message(MessageKind.SUBSCRIBE, SUB_WIDE, frm="c1", to="b2")
        )
        _, out = handle_message(
            state, Message(MessageKind.PUBLISH, EVENT, frm="b1", to="b2", index=0)
        )
        assert [m.kind for m in out] == [MessageKind.NOTIFY]

    def test_notify_is_not_a_broker_input(self):
        with pytest.raises(RoutingError, match="NOTIFY"):
            handle_message(
                broker(), Message(MessageKind.NOTIFY, EVENT, frm="b1", to="b2")
            )


class TestThreeBrokerChain:
    """Advertisements flow outward; subscriptions retrace them hop by hop."""

    def setup_chain(self, subscribers=("sub",), **flags):
        return {
            "b1": broker("b1", neighbors=("b2",), clients=("pub",), **flags),
            "b2": broker("b2", neighbors=("b1", "b3"), clients=(), **flags),
            "b3": broker("b3", neighbors=("b2",), clients=subscribers, **flags),
        }

    def run_wave(self, states, messages):
        while messages:
            msg = messages.pop(0)
            if msg.to not in states:
                continue
            states[msg.to], out = handle_message(states[msg.to], msg)
            messages.extend(out)
        return states

    def test_subscription_retraces_advertisement_path(self):
        states = self.setup_chain()
        states = self.run_wave(
            states, [Message(MessageKind.ADVERTISE, ADV, frm="pub", to="b1")]
        )
        assert list(states["b2"].advertisements) == [(ADV.id, "b1")]
        assert list(states["b3"].advertisements) == [(ADV.id, "b2")]

        states = self.run_wave(
            states, [Message(MessageKind.SUBSCRIBE, SUB_WIDE, frm="sub", to="b3")]
        )
        entry = states["b3"].subscriptions[SUB_WIDE.id, "sub"]
        assert entry.forwarded_to == frozenset({"b2"})
        assert list(states["b2"].subscriptions) == [(SUB_WIDE.id, "b3")]
        assert list(states["b1"].subscriptions) == [(SUB_WIDE.id, "b2")]

        notified = []
        messages = [Message(MessageKind.PUBLISH, EVENT, frm="pub", to="b1", index=0)]
        while messages:
            msg = messages.pop(0)
            if msg.kind is MessageKind.NOTIFY:
                notified.append((msg.to, msg.frm))
                continue
            states[msg.to], out = handle_message(states[msg.to], msg)
            messages.extend(out)
        assert notified == [("sub", "b3")]

    def test_repeated_arrival_on_one_link_kept_once(self):
        # Two clients behind b3 subscribe the same text.  With covering
        # suppression off b3 forwards both, so b2 sees one key twice.
        states = self.setup_chain(
            subscribers=("s1", "s2"), covering_suppression=False
        )
        states = self.run_wave(
            states, [Message(MessageKind.ADVERTISE, ADV, frm="pub", to="b1")]
        )
        _, first = handle_subscribe(states["b3"], SUB_WIDE, frm="s1")
        _, second = handle_subscribe(states["b3"], SUB_WIDE, frm="s2")
        assert [m.to for m in first + second] == ["b2", "b2"]
        state, out = handle_message(states["b2"], first[0])
        assert [m.to for m in out] == ["b1"]
        state, out = handle_message(state, second[0])
        assert out == []
        assert list(state.subscriptions) == [(SUB_WIDE.id, "b3")]
