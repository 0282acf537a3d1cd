import dataclasses
import json
import random

import pytest

import semroute.routing
import semroute.sim
from semroute.knowledge import KnowledgeBase
from semroute.model import (
    Event,
    Pair,
    Predicate,
    Value,
    parse_advertisement,
    parse_event,
    parse_subscription,
    render,
)
from semroute.routing import MessageKind
from semroute.semantic import sem_match
from semroute.sim import (
    RoutingMode,
    Scenario,
    ScenarioError,
    Verdict,
    generate_scenario,
    load_scenario,
    oracle_deliveries,
    random_scenario_document,
    run,
    verify,
)

from .conftest import SCENARIOS
from .test_golden_reports import cases as golden_cases
from .test_golden_reports import load_case as load_golden_case


def minimal_doc(**overrides) -> dict:
    base = {
        "brokers": ["b1", "b2"],
        "edges": [["b1", "b2"]],
        "clients": [
            {"id": "pub", "broker": "b1"},
            {"id": "r1", "broker": "b2"},
            {"id": "r2", "broker": "b2"},
        ],
        "mode": "syntactic",
        "script": [
            {"action": "advertise", "client": "pub", "payload": "(x >= 0)"},
            {"action": "subscribe", "client": "r1", "payload": "(x >= 1)"},
            {"action": "subscribe", "client": "r2", "payload": "(x >= 1)"},
            {"action": "publish", "client": "pub", "payload": "{(x, 5)}"},
        ],
    }
    base.update(overrides)
    return base


STALE_SUBSCRIPTION_DOC = {
    # The subscription arrives before any advertisement, so it is never
    # forwarded off its home broker; the later advertisement does not
    # re-forward stored subscriptions, leaving a genuinely missed delivery.
    "brokers": ["b1", "b2"],
    "edges": [["b1", "b2"]],
    "clients": [
        {"id": "w", "broker": "b1"},
        {"id": "p", "broker": "b2"},
    ],
    "mode": "syntactic",
    "script": [
        {"action": "subscribe", "client": "w", "payload": "(x = 1)"},
        {"action": "advertise", "client": "p", "payload": "(x >= 0)"},
        {"action": "publish", "client": "p", "payload": "{(x, 1)}"},
    ],
}


class TestLoadValidation:
    def test_minimal_document_loads(self):
        scenario = load_scenario(minimal_doc())
        assert scenario.brokers == ("b1", "b2")
        assert scenario.clients["r1"] == "b2"
        assert len(scenario.script) == 4

    def test_bytes_and_str_accepted(self):
        text = json.dumps(minimal_doc())
        assert load_scenario(text).brokers == ("b1", "b2")
        assert load_scenario(text.encode()).brokers == ("b1", "b2")

    def test_invalid_json(self):
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(b"{")

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xff{}",
            b"[" * 200000 + b"]" * 200000,
            "[" * 200000 + "]" * 200000,
            b"[" + b"9" * 5000 + b"]",
        ],
        ids=["not-utf8", "too-deep", "too-deep-str", "integer-too-long"],
    )
    def test_undecodable_json(self, raw):
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(raw)

    @pytest.mark.parametrize(
        "raw", [b"\xff{}", b"[" * 200000 + b"]" * 200000], ids=["not-utf8", "too-deep"]
    )
    def test_undecodable_knowledge_file(self, tmp_path, raw):
        (tmp_path / "kb.json").write_bytes(raw)
        doc = minimal_doc(knowledge="kb.json")
        with pytest.raises(ScenarioError, match="bad knowledge document: invalid JSON"):
            load_scenario(doc, base_dir=tmp_path)

    def test_non_object_document(self):
        with pytest.raises(ScenarioError, match="scenario must be a JSON object"):
            load_scenario(b"[1, 2]")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(minimal_doc(moed="semantic"))

    @pytest.mark.parametrize(
        "where, typo",
        [("clients", {"brokr": "b1"}), ("script", {"paylaod": "(x >= 1)"})],
    )
    def test_nested_objects_reject_unknown_keys(self, where, typo):
        doc = minimal_doc()
        doc[where][1].update(typo)
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert str(err.value) == f"{where}[1]: unknown keys: {sorted(typo)}"

    @pytest.mark.parametrize(
        "where, key, message",
        [
            ("clients", "broker", "clients[1]: need id, broker"),
            ("script", "client", "script[1]: need action, client, payload"),
        ],
    )
    def test_nested_objects_need_their_keys(self, where, key, message):
        entry = minimal_doc()[where][1]
        for bad in ("not an object", {k: v for k, v in entry.items() if k != key}):
            doc = minimal_doc()
            doc[where][1] = bad
            with pytest.raises(ScenarioError) as err:
                load_scenario(doc)
            assert str(err.value) == message

    def test_cycle_rejected(self):
        doc = minimal_doc(
            brokers=["b1", "b2", "b3"],
            edges=[["b1", "b2"], ["b2", "b3"], ["b3", "b1"]],
        )
        with pytest.raises(ScenarioError, match="tree"):
            load_scenario(doc)

    def test_disconnection_rejected(self):
        doc = minimal_doc(
            brokers=["b1", "b2", "b3"],
            edges=[["b1", "b2"], ["b1", "b2"]],
        )
        with pytest.raises(ScenarioError, match="not connected"):
            load_scenario(doc)

    def test_edge_off_broker_set_rejected(self):
        doc = minimal_doc(edges=[["b1", "b9"]])
        with pytest.raises(ScenarioError, match="off the broker set"):
            load_scenario(doc)

    def test_client_on_unknown_broker(self):
        doc = minimal_doc(clients=[{"id": "c", "broker": "b9"}], script=[])
        with pytest.raises(ScenarioError, match="unknown broker"):
            load_scenario(doc)

    def test_client_id_collides_with_broker(self):
        doc = minimal_doc(clients=[{"id": "b1", "broker": "b1"}], script=[])
        with pytest.raises(ScenarioError, match="collides"):
            load_scenario(doc)

    def test_duplicate_client_id(self):
        doc = minimal_doc(
            clients=[
                {"id": "c", "broker": "b1"},
                {"id": "c", "broker": "b2"},
            ],
            script=[],
        )
        with pytest.raises(ScenarioError, match="duplicate client"):
            load_scenario(doc)

    def test_unknown_script_client(self):
        doc = minimal_doc()
        doc["script"][0]["client"] = "ghost"
        with pytest.raises(ScenarioError, match="unknown client"):
            load_scenario(doc)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(edges=[[1, "b2"]]),
            lambda d: d.update(edges=[[True, "b2"]]),
            lambda d: d["clients"][0].update(id=5),
            lambda d: d["clients"][0].update(broker=True),
            lambda d: d["script"][0].update(client=5),
            lambda d: d["script"][0].update(payload=5),
        ],
        ids=["edge-int", "edge-bool", "id", "broker", "script-client", "payload"],
    )
    def test_ids_must_be_strings(self, edit):
        doc = minimal_doc()
        edit(doc)
        with pytest.raises(ScenarioError, match="must be a non-empty string"):
            load_scenario(doc)

    def test_unknown_action(self):
        doc = minimal_doc()
        doc["script"][0]["action"] = "shout"
        with pytest.raises(ScenarioError, match="unknown action"):
            load_scenario(doc)

    @pytest.mark.parametrize("action", [["subscribe"], {"a": 1}, 5, None])
    def test_action_must_be_a_string(self, action):
        doc = minimal_doc()
        doc["script"][0]["action"] = action
        with pytest.raises(ScenarioError, match="unknown action"):
            load_scenario(doc)

    def test_malformed_payload_carries_position(self):
        doc = minimal_doc()
        doc["script"][0]["payload"] = "(x >= )"
        with pytest.raises(ScenarioError, match=r"script\[0\]"):
            load_scenario(doc)

    def test_publish_requires_prior_advertisement(self):
        doc = minimal_doc()
        doc["script"] = [doc["script"][-1]]
        with pytest.raises(ScenarioError, match="not admitted"):
            load_scenario(doc)

    def test_publish_admission_is_per_client(self):
        doc = minimal_doc()
        doc["script"][3]["client"] = "r1"
        with pytest.raises(ScenarioError, match="not admitted"):
            load_scenario(doc)

    def test_publish_admission_follows_mode(self, scenario_dir):
        doc = json.loads((scenario_dir / "gap.json").read_text())
        doc["knowledge"] = json.loads(
            (scenario_dir / "knowledge_base.json").read_text()
        )
        load_scenario(doc)
        doc["mode"] = "syntactic"
        with pytest.raises(ScenarioError, match="not admitted"):
            load_scenario(doc)

    @pytest.mark.parametrize("key", ["brokers", "edges", "clients", "script"])
    @pytest.mark.parametrize("value", ["ab", 5, None, {}])
    def test_sections_must_be_lists(self, key, value):
        with pytest.raises(ScenarioError, match=f"{key} must be a list"):
            load_scenario(minimal_doc(**{key: value}))

    def test_unknown_mode(self):
        with pytest.raises(ScenarioError, match="unknown mode"):
            load_scenario(minimal_doc(mode="clairvoyant"))

    def test_rejected_action_is_quoted_short(self):
        # The CLI test of a deep `mode` checks the other value quoted.
        doc = minimal_doc()
        doc["script"][0]["action"] = "DEEP"
        text = json.dumps(doc).replace('"DEEP"', "[" * 900 + "]" * 900)
        with pytest.raises(ScenarioError, match=r"unknown action \[\[") as err:
            load_scenario(text)
        assert len(str(err.value)) < 100

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d, v: d.update({v: 1}), "unknown keys"),
            (lambda d, v: d.update(edges=[["b1", v]]), "off the broker set"),
            (lambda d, v: d.update(brokers=[v, "b2"], edges=[[v, v]]), "self-edge"),
            (lambda d, v: d["clients"][0].update(id=v, broker=v), "unknown broker"),
            (lambda d, v: d["clients"][0].update(id=v, broker=5), "broker must be"),
            (
                lambda d, v: d.update(brokers=[v, "b2"], edges=[[v, "b2"]],
                                      clients=[{"id": v, "broker": "b2"}]),
                "collides",
            ),
            (lambda d, v: d["script"][0].update(client=v), "unknown client"),
            (
                lambda d, v: (d["clients"].append({"id": v, "broker": "b1"}),
                              d["script"][3].update(client=v)),
                "not admitted",
            ),
            (lambda d, v: d.update(mode=v), "unknown mode"),
            (lambda d, v: d["script"][0].update(action=v), "unknown action"),
        ],
        ids=["key", "edge", "self-edge", "client-broker", "client-id",
             "collision", "script-client", "publisher", "mode", "action"],
    )
    def test_long_value_is_quoted_short(self, edit, message):
        doc = minimal_doc()
        edit(doc, "x" * 5000)
        with pytest.raises(ScenarioError, match=message) as err:
            load_scenario(doc)
        assert len(str(err.value)) < 200

    def test_bad_seed(self):
        with pytest.raises(ScenarioError, match="seed"):
            load_scenario(minimal_doc(seed="lucky"))

    def test_missing_knowledge_file(self, tmp_path):
        doc = minimal_doc(knowledge="nowhere.json")
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(doc, base_dir=tmp_path)

    def test_knowledge_path_with_nul_byte(self):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(minimal_doc(knowledge="kb\x00.json"))

    def test_inline_knowledge_validated(self):
        doc = minimal_doc(knowledge={"hierarchy": [{"child": "a", "parent": "a"}]})
        with pytest.raises(ScenarioError, match="bad knowledge"):
            load_scenario(doc)

    def test_knowledge_wrong_type(self):
        with pytest.raises(ScenarioError, match="path or an object"):
            load_scenario(minimal_doc(knowledge=7))


@pytest.fixture(scope="module")
def gap(scenario_dir) -> Scenario:
    raw = (scenario_dir / "gap.json").read_bytes()
    return load_scenario(raw, base_dir=scenario_dir)


class TestGapScenario:
    def test_semantic_delivers_once(self, gap):
        report = verify(gap)
        assert report.verdict == Verdict.PASS.value
        assert report.deliveries == (("reader", 0),)

    def test_subscription_travels_toward_the_publisher(self, gap):
        report = run(gap)
        assert report.counts["SUBSCRIBE"].get("b2->b1") == 1

    def test_syntactic_mode_delivers_nothing(self, gap):
        report = run(gap.with_mode(RoutingMode.SYNTACTIC))
        assert report.deliveries == ()
        assert "b2->b1" not in report.counts.get("SUBSCRIBE", {})
        assert report.gated_subscriptions == 1

    def test_oracle_sets(self, gap):
        assert oracle_deliveries(gap) == {("reader", 0)}
        # The event matches the subscription even syntactically; what fails
        # syntactically is the advertisement intersection, so the run loses
        # a delivery the oracle still expects.
        assert oracle_deliveries(gap.with_mode(RoutingMode.SYNTACTIC)) == {
            ("reader", 0)
        }
        syntactic = verify(gap.with_mode(RoutingMode.SYNTACTIC))
        assert syntactic.verdict == Verdict.FAIL.value
        assert syntactic.missing == (("reader", 0),)


class TestProfessorScenarios:
    def test_local_delivery_passes(self, scenario_dir):
        scenario = load_scenario(
            (scenario_dir / "professor_local.json").read_bytes(),
            base_dir=scenario_dir,
        )
        report = verify(scenario)
        assert report.verdict == Verdict.PASS.value
        assert report.deliveries == (("profx", 0),)

    def test_remote_delivery_is_a_mapping_gap(self, scenario_dir):
        scenario = load_scenario(
            (scenario_dir / "professor_remote.json").read_bytes(),
            base_dir=scenario_dir,
        )
        report = verify(scenario)
        assert report.verdict == Verdict.MAPPING_GAP.value
        assert report.missing == (("profx", 0),)
        assert report.spurious == ()
        assert report.deliveries == ()

    def test_verify_neither_reads_nor_fills_the_match_memo(self, scenario_dir):
        # Grading the gap needs matching with and without the mappings; the
        # memo holds the with-mappings answer beforehand, so a verify that
        # asked `sem_match` would count a hit.
        scenario = load_scenario(
            (scenario_dir / "professor_remote.json").read_bytes(),
            base_dir=scenario_dir,
        )
        _, sub, event = (action.payload for action in scenario.script)
        assert sem_match(event, sub, scenario.kb)
        before = sem_match.cache_info()
        for _ in range(2):
            assert verify(scenario).verdict == Verdict.MAPPING_GAP.value
            assert sem_match.cache_info() == before

    def test_a_local_miss_is_a_failure(self, scenario_dir, monkeypatch):
        # Only the mapping gives the subscriber the event, but it is on the
        # publisher's broker, where a delivery needs no forwarding decision.
        scenario = load_scenario(
            (scenario_dir / "professor_local.json").read_bytes(),
            base_dir=scenario_dir,
        )
        real = semroute.sim.run
        monkeypatch.setattr(
            semroute.sim, "run", lambda s: dataclasses.replace(real(s), deliveries=())
        )
        report = verify(scenario)
        assert report.missing == (("profx", 0),)
        assert report.verdict == Verdict.FAIL.value

    @pytest.mark.parametrize(
        "position, payload, verdict",
        [
            # Made before the advertisement, so never forwarded: a stale
            # subscription, which matches without mappings.
            (0, '(degree = "phd")', Verdict.FAIL),
            # Also stale, but it matches nothing, so only the mapping-
            # dependent subscription was due the event.
            (0, '(degree = "msc")', Verdict.MAPPING_GAP),
            # Made after the publication, so it was due nothing.
            (3, '(degree = "phd")', Verdict.MAPPING_GAP),
        ],
    )
    def test_another_subscription_of_the_client_decides_the_gap(
        self, scenario_dir, position, payload, verdict
    ):
        doc = json.loads((scenario_dir / "professor_remote.json").read_text())
        doc["knowledge"] = json.loads(
            (scenario_dir / "knowledge_base.json").read_text()
        )
        doc["script"].insert(
            position, {"action": "subscribe", "client": "profx", "payload": payload}
        )
        report = verify(load_scenario(doc))
        assert report.verdict == verdict.value
        assert report.missing == (("profx", 0),)
        assert report.deliveries == ()

    @pytest.mark.parametrize(
        "position, payload, verdict",
        [
            # Made before the advertisement and matching without mappings: a
            # stale subscription, which a mapping cannot explain.
            (0, '(degree = "phd")', Verdict.FAIL),
            # Made after it, and due the event only through the mapping.
            (1, '("professional experience" > 2)', Verdict.MAPPING_GAP),
        ],
    )
    def test_a_gap_needs_every_miss_to_hinge_on_the_mapping(
        self, scenario_dir, position, payload, verdict
    ):
        doc = json.loads((scenario_dir / "professor_remote.json").read_text())
        doc["knowledge"] = json.loads(
            (scenario_dir / "knowledge_base.json").read_text()
        )
        doc["clients"].append({"id": "w", "broker": "b2"})
        doc["script"].insert(
            position, {"action": "subscribe", "client": "w", "payload": payload}
        )
        report = verify(load_scenario(doc))
        assert report.missing == (("profx", 0), ("w", 0))
        assert report.verdict == verdict.value


class TestDeliverySemantics:
    def test_equal_subscriptions_notify_each_client(self):
        report = run(load_scenario(minimal_doc()))
        assert report.deliveries == (("r1", 0), ("r2", 0))
        assert report.counts["PUBLISH"] == {"b1->b2": 1, "pub->b1": 1}
        assert report.counts["NOTIFY"] == {"b2->r1": 1, "b2->r2": 1}

    def test_publisher_hears_its_own_matching_publication(self):
        doc = minimal_doc()
        doc["script"].insert(1, {"action": "subscribe", "client": "pub", "payload": "(x >= 0)"})
        report = run(load_scenario(doc))
        assert ("pub", 0) in report.deliveries

    def test_stale_subscription_is_a_real_failure(self):
        report = verify(load_scenario(STALE_SUBSCRIPTION_DOC))
        assert report.verdict == Verdict.FAIL.value
        assert report.missing == (("w", 0),)

    def test_fail_beats_mapping_gap_when_both_present(self, scenario_dir):
        doc = json.loads((scenario_dir / "professor_remote.json").read_text())
        doc["knowledge"] = json.loads(
            (scenario_dir / "knowledge_base.json").read_text()
        )
        doc["clients"].append({"id": "w", "broker": "b2"})
        doc["script"].insert(0, {"action": "subscribe", "client": "w", "payload": '(degree = "phd")'})
        report = verify(load_scenario(doc))
        assert report.verdict == Verdict.FAIL.value

    def test_spurious_delivery_would_fail(self):
        # No constructible scenario produces spurious deliveries, so graft
        # an impossible oracle by checking the grading logic directly.
        scenario = load_scenario(minimal_doc())
        report = verify(scenario)
        assert report.spurious == ()
        assert report.verdict == Verdict.PASS.value


class TestGeneratedScenarios:
    def test_sampled_seeds_pass(self):
        for seed in (0, 1, 7, 42, 99):
            report = verify(generate_scenario(seed))
            assert report.verdict == Verdict.PASS.value, seed

    def test_seed_is_echoed(self):
        assert generate_scenario(5).seed == 5
        assert random_scenario_document(5)["seed"] == 5

    def test_documents_are_reproducible(self):
        assert random_scenario_document(11) == random_scenario_document(11)

    def test_syntactic_deliveries_contained_in_semantic(self):
        checked = 0
        for seed in range(12):
            scenario = generate_scenario(seed)
            syn = run(scenario.with_mode(RoutingMode.SYNTACTIC))
            sem = run(scenario.with_mode(RoutingMode.SEMANTIC))
            checked += len(syn.deliveries)
            assert set(syn.deliveries) <= set(sem.deliveries), seed
        assert checked > 0

    def test_oracle_containment_matches(self):
        for seed in range(12):
            scenario = generate_scenario(seed)
            syn = oracle_deliveries(scenario.with_mode(RoutingMode.SYNTACTIC))
            sem = oracle_deliveries(scenario.with_mode(RoutingMode.SEMANTIC))
            assert syn <= sem, seed


def _respelled(doc: dict) -> dict:
    """The document with every attribute name and string value in its
    payloads respelled by a cyclic permutation of each synonym group's
    spellings, the root and then the members sorted."""
    turn: dict[str, str] = {}
    for group in doc["knowledge"]["synonyms"]:
        spellings = [group["root"], *sorted(group["members"])]
        turn.update(zip(spellings, spellings[1:] + spellings[:1]))

    def term(text: str) -> str:
        return turn.get(text, text)

    def value(v: Value) -> Value:
        return Value.string(term(v.data)) if v.is_string else v

    parsers = {
        "advertise": parse_advertisement,
        "subscribe": parse_subscription,
        "publish": parse_event,
    }
    script = []
    for action in doc["script"]:
        entity = parsers[action["action"]](action["payload"])
        if isinstance(entity, Event):
            pairs = tuple(Pair(term(p.attribute), value(p.value)) for p in entity.pairs)
            entity = Event(pairs)
        else:
            entity = type(entity)(
                tuple(
                    Predicate(term(p.attribute), p.op, value(p.value))
                    for p in entity.predicates
                )
            )
        script.append({**action, "payload": render(entity)})
    return {**doc, "script": script}


class TestRespelling:
    """Metamorphic: semantic routing reads through synonyms, so respelling
    every payload's names and string values changes no part of the verified
    report.  The respelling is a permutation, so no two distinct texts become
    one, which would give them one canonical id and drop the second as a
    duplicate."""

    def test_respelled_payloads_give_the_same_report(self):
        respelled_payloads = 0
        for seed in range(60):
            doc = dict(random_scenario_document(seed), mode="semantic")
            other = _respelled(doc)
            respelled_payloads += sum(
                a != b for a, b in zip(doc["script"], other["script"])
            )
            first = verify(load_scenario(doc))
            second = verify(load_scenario(other))
            assert second.to_json() == first.to_json(), seed
        assert respelled_payloads > 0


def _pairs_reversed(doc: dict) -> dict:
    """The document with each publication's pairs in reverse order."""
    script = []
    for action in doc["script"]:
        if action["action"] == "publish":
            pairs = parse_event(action["payload"]).pairs
            action = {**action, "payload": render(Event(pairs[::-1]))}
        script.append(action)
    return {**doc, "script": script}


def _hop_inserted(doc: dict) -> dict:
    """The document with a client-less broker `bx` inserted on its first
    edge."""
    (a, b), *rest = doc["edges"]
    edges = [[a, "bx"], ["bx", b], *rest]
    return {**doc, "brokers": [*doc["brokers"], "bx"], "edges": edges}


class TestOverlayInvariance:
    """Metamorphic: mapping outputs do not depend on the order of an event's
    pairs, so that order changes no verified report, of a generated document
    or of a bundled one, whose knowledge base has a mapping; a broker with
    no clients only relays, so inserting one on an edge changes the message
    counts by the extra hop but not the deliveries, the misses or the
    verdict; and syntactic mode is semantic mode over an empty knowledge
    base.
    Generated documents give every broker a client, so nothing else here
    routes through a client-less broker."""

    def test_syntactic_mode_is_semantic_over_no_knowledge(self):
        for seed in range(100):
            doc = random_scenario_document(seed)
            syntactic, semantic = (
                json.loads(verify(load_scenario(other)).to_json())
                for other in (
                    dict(doc, mode="syntactic"),
                    dict(doc, mode="semantic", knowledge={}),
                )
            )
            assert (syntactic.pop("mode"), semantic.pop("mode")) == (
                "syntactic",
                "semantic",
            ), seed
            assert semantic == syntactic, seed

    def test_reversed_pairs_give_the_same_report(self):
        # The bundled documents in their own mode: a syntactic broker admits
        # no publication that only a hierarchy relates to its advertisement.
        documents = {
            path.name: json.loads(path.read_text())
            for path in sorted(SCENARIOS.glob("*.json"))
            if path.name != "knowledge_base.json"
        }
        for seed in range(60):
            for mode in ("syntactic", "semantic"):
                documents[seed, mode] = dict(random_scenario_document(seed), mode=mode)
        reversed_payloads = 0
        for case, doc in documents.items():
            other = _pairs_reversed(doc)
            reversed_payloads += sum(
                a != b for a, b in zip(doc["script"], other["script"])
            )
            first = verify(load_scenario(doc, base_dir=SCENARIOS))
            second = verify(load_scenario(other, base_dir=SCENARIOS))
            assert second.to_json() == first.to_json(), case
        assert reversed_payloads > 0

    def test_a_relay_broker_changes_no_delivery(self):
        delivered = 0
        for seed in range(60):
            for mode in ("syntactic", "semantic"):
                doc = dict(random_scenario_document(seed), mode=mode)
                first = verify(load_scenario(doc))
                second = verify(load_scenario(_hop_inserted(doc)))
                case = (seed, mode)
                assert second.deliveries == first.deliveries, case
                assert second.verdict == first.verdict, case
                assert second.missing == first.missing, case
                assert second.spurious == first.spurious, case
                delivered += len(first.deliveries)
        assert delivered > 0


def _with_new_edge(doc: dict, rng: random.Random) -> dict | None:
    """The document with one more hierarchy edge `child -> parent` between
    root terms of its knowledge base, where `child` has no parent and
    `parent` does not lie below `child`; None when no such edge exists."""
    knowledge = doc["knowledge"]
    parent_of = {e["child"]: e["parent"] for e in knowledge["hierarchy"]}
    terms = sorted(
        {s["root"] for s in knowledge["synonyms"]}
        | set(parent_of)
        | set(parent_of.values())
    )

    def below(term: str, ancestor: str) -> bool:
        while term != ancestor and term in parent_of:
            term = parent_of[term]
        return term == ancestor

    edges = [
        (child, parent)
        for child in terms
        if child not in parent_of
        for parent in terms
        if not below(parent, child)
    ]
    if not edges:
        return None
    child, parent = rng.choice(edges)
    hierarchy = [*knowledge["hierarchy"], {"child": child, "parent": parent}]
    return dict(doc, knowledge=dict(knowledge, hierarchy=hierarchy))


class TestHierarchyGrowth:
    """Metamorphic: a hierarchy edge only adds generalizations to augmented
    events, so adding one never removes a delivery, and routing still
    delivers every one the oracle expects."""

    def test_a_new_edge_removes_no_delivery(self):
        gained = 0
        for seed in range(100):
            doc = dict(random_scenario_document(seed), mode="semantic")
            other = _with_new_edge(doc, random.Random(seed))
            if other is None:
                continue
            before = oracle_deliveries(load_scenario(doc))
            scenario = load_scenario(other)
            after = oracle_deliveries(scenario)
            assert after >= before, seed
            assert verify(scenario).verdict == Verdict.PASS.value, seed
            gained += after != before
        assert gained > 0


def _reversed_order(ids) -> dict[str, str]:
    """The bijection that maps the i-th smallest id to the i-th largest."""
    ordered = sorted(ids)
    return dict(zip(ordered, reversed(ordered)))


def _relabeled(doc: dict, name: dict[str, str]) -> dict:
    """The document with every broker and client id renamed by `name`."""
    return {
        **doc,
        "brokers": [name[b] for b in doc["brokers"]],
        "edges": [[name[a], name[b]] for a, b in doc["edges"]],
        "clients": [{"id": name[c["id"]], "broker": name[c["broker"]]} for c in doc["clients"]],
        "script": [{**action, "client": name[action["client"]]} for action in doc["script"]],
    }


class TestRelabeling:
    """Metamorphic: routing reads broker and client ids only as link names,
    so renaming them, in an order that reverses every neighbor and client
    order, renames the verified report and changes nothing else."""

    def test_relabeled_overlay_gives_the_renamed_report(self):
        for seed in range(40):
            for mode in ("syntactic", "semantic"):
                doc = dict(random_scenario_document(seed), mode=mode)
                name = _reversed_order(doc["brokers"])
                name.update(_reversed_order(c["id"] for c in doc["clients"]))
                first = verify(load_scenario(doc))
                second = verify(load_scenario(_relabeled(doc, name)))

                def renamed(deliveries):
                    return tuple(sorted((name[c], i) for c, i in deliveries))

                def link(key: str) -> str:
                    frm, to = key.split("->")
                    return f"{name[frm]}->{name[to]}"

                case = (seed, mode)
                assert second.deliveries == renamed(first.deliveries), case
                assert second.missing == renamed(first.missing), case
                assert second.spurious == renamed(first.spurious), case
                assert second.verdict == first.verdict, case
                assert second.suppressed_subscriptions == first.suppressed_subscriptions, case
                assert second.gated_subscriptions == first.gated_subscriptions, case
                assert second.counts == {
                    kind: {link(k): n for k, n in links.items()}
                    for kind, links in first.counts.items()
                }, case


class TestEmptyKnowledge:
    """A knowledge base with no synonyms, hierarchy or mappings selects the
    syntactic relations, in semantic mode too."""

    def relation_calls(self, monkeypatch):
        calls = []
        for name in ("sem_covers", "sem_intersects", "sem_match"):
            real = getattr(semroute.routing, name)

            def counting(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(semroute.routing, name, counting)
        return calls

    @pytest.mark.parametrize(
        "knowledge", [{}, {"reference_year": 2003}], ids=["empty", "year-only"]
    )
    def test_semantic_run_makes_no_semantic_calls(self, monkeypatch, knowledge):
        calls = self.relation_calls(monkeypatch)
        delivered = 0
        for seed in range(20):
            doc = dict(random_scenario_document(seed), knowledge=knowledge)
            semantic = load_scenario(dict(doc, mode="semantic"))
            got = run(semantic)
            want = run(semantic.with_mode(RoutingMode.SYNTACTIC))
            assert calls == [], seed
            assert got.deliveries == want.deliveries, seed
            assert got.counts == want.counts, seed
            assert got.suppressed_subscriptions == want.suppressed_subscriptions, seed
            assert got.gated_subscriptions == want.gated_subscriptions, seed
            delivered += len(got.deliveries)
        assert delivered > 0


class TestKeptAcrossRuns:
    def test_a_second_syntactic_run_builds_no_attribute_sets(self, monkeypatch):
        # Every syntactic run relates under the one empty knowledge base, so
        # what the first run kept on a subscription serves the next.
        built = []
        build = semroute.routing._attribute_sets

        def counting(sub, kb):
            built.append(sub)
            return build(sub, kb)

        monkeypatch.setattr(semroute.routing, "_attribute_sets", counting)
        for seed in range(5):
            scenario = generate_scenario(seed).with_mode(RoutingMode.SYNTACTIC)
            built.clear()
            first = run(scenario)
            assert built, seed
            assert len({id(sub) for sub in built}) == len(built), seed
            once = len(built)
            assert run(scenario) == first, seed
            assert len(built) == once, seed


def _per_pair_deliveries(scenario: Scenario) -> set[tuple[str, int]]:
    """Every (subscriber, event) pair tested with one `sem_match` call over
    the mode's knowledge base."""
    kb = scenario.kb if scenario.mode is RoutingMode.SEMANTIC else KnowledgeBase.empty()
    subscribed = []
    expected = set()
    for action in scenario.script:
        if action.kind is MessageKind.SUBSCRIBE:
            subscribed.append(action)
        elif action.kind is MessageKind.PUBLISH:
            expected |= {
                (s.frm, action.index)
                for s in subscribed
                if sem_match(action.payload, s.payload, kb)
            }
    return expected


def _referee_cases(scenario_dir):
    for name in ("gap.json", "professor_local.json", "professor_remote.json"):
        raw = (scenario_dir / name).read_bytes()
        yield name, load_scenario(raw, base_dir=scenario_dir)
    for seed in range(100):
        yield f"seed {seed}", generate_scenario(seed)


class TestOracleReferee:
    """The oracle equals a per-pair `sem_match` in both modes, and it
    neither reads nor fills `sem_match`'s memo."""

    @pytest.mark.parametrize("mode", list(RoutingMode), ids=lambda m: m.value)
    def test_oracle_equals_per_pair_sem_match_with_the_memo_empty(
        self, scenario_dir, mode
    ):
        delivered = 0
        for name, scenario in _referee_cases(scenario_dir):
            scenario = scenario.with_mode(mode)
            expected = _per_pair_deliveries(scenario)
            sem_match.cache_clear()
            assert oracle_deliveries(scenario) == expected, name
            assert sem_match.cache_info().currsize == 0, name
            delivered += len(expected)
        assert delivered > 0


class TestOracleKeepsNothing:
    """The oracle builds its own forms and summaries: it gives the same set,
    and adds or replaces no attribute on any entity, whether or not `run`
    kept its own on them first."""

    @staticmethod
    def attributes(scenario: Scenario) -> list[dict[str, int]]:
        return [
            {name: id(value) for name, value in vars(action.payload).items()}
            for action in scenario.script
        ]

    @pytest.mark.parametrize("mode", list(RoutingMode), ids=lambda m: m.value)
    def test_same_set_and_no_kept_attribute(self, scenario_dir, mode):
        kept_by_run = 0
        for name, scenario in _referee_cases(scenario_dir):
            scenario = scenario.with_mode(mode)
            before = self.attributes(scenario)
            expected = oracle_deliveries(scenario)
            assert self.attributes(scenario) == before, name
            run(scenario)
            after_run = self.attributes(scenario)
            kept_by_run += after_run != before
            assert oracle_deliveries(scenario) == expected, name
            assert self.attributes(scenario) == after_run, name
        assert kept_by_run > 0


class TestTrafficKnobs:
    def test_suppression_off_changes_traffic_not_deliveries(self):
        for seed in (0, 3, 8):
            scenario = generate_scenario(seed)
            on = run(scenario)
            off = run(scenario, covering_suppression=False)
            assert on.deliveries == off.deliveries, seed
            assert off.suppressed_subscriptions == 0
            on_subs = sum(on.counts.get("SUBSCRIBE", {}).values())
            off_subs = sum(off.counts.get("SUBSCRIBE", {}).values())
            assert on_subs <= off_subs, seed

    def test_gating_off_changes_traffic_not_deliveries(self):
        for seed in (0, 3, 8):
            scenario = generate_scenario(seed)
            on = run(scenario)
            off = run(scenario, advertisement_gating=False)
            assert on.deliveries == off.deliveries, seed
            assert off.gated_subscriptions == 0
            on_subs = sum(on.counts.get("SUBSCRIBE", {}).values())
            off_subs = sum(off.counts.get("SUBSCRIBE", {}).values())
            assert on_subs <= off_subs, seed


class TestDeterminism:
    def test_reports_do_not_depend_on_the_order_within_a_cascade(
        self, monkeypatch
    ):
        # Every golden case again, with each broker's outgoing messages
        # shuffled before `run` queues them.
        expected = {case: verify(load_golden_case(case)) for case in golden_cases()}
        rng = random.Random(0)
        handle_message = semroute.sim.handle_message

        def shuffled(state, msg):
            state, out = handle_message(state, msg)
            out = list(out)
            rng.shuffle(out)
            return state, out

        monkeypatch.setattr(semroute.sim, "handle_message", shuffled)
        for case, report in expected.items():
            again = verify(load_golden_case(case))
            assert again.to_json() == report.to_json(), case
            assert again.publish_tests == report.publish_tests, case
            assert again.matched_links == report.matched_links, case

    def test_reports_are_byte_identical(self):
        for seed in (2, 13):
            scenario = generate_scenario(seed)
            assert run(scenario).to_json() == run(scenario).to_json()
            assert verify(scenario).to_json() == verify(scenario).to_json()

    def test_report_shape(self):
        report = verify(load_scenario(minimal_doc(seed=9)))
        doc = json.loads(report.to_json())
        assert doc["mode"] == "syntactic"
        assert doc["seed"] == 9
        assert doc["verdict"] == "PASS"
        assert doc["deliveries"] == [["r1", 0], ["r2", 0]]
        assert doc["diffs"] == {"missing": [], "spurious": []}
        assert report.to_json().endswith("\n")

    def test_table_lists_deliveries(self):
        report = verify(load_scenario(minimal_doc()))
        table = report.to_table()
        assert "verdict     PASS" in table
        assert "notify      r1 event 0" in table
