import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import semroute
from semroute.cli import main

from .conftest import ROOT, SCENARIOS

KB = str(SCENARIOS / "knowledge_base.json")

ENCYCLOPEDIA_EVENT = '{(encyclopedia, "Stone Age"), (subject, "crocodiles")}'
BOOK_SUB = '(book = "Stone Age") AND (subject = "reptiles")'
# JSON files the decoder cannot read: bytes that are not UTF-8, nesting
# deeper than it can recurse, an integer longer than `int()` converts.
UNDECODABLE = [b"\xff{}", b"[" * 200000 + b"]" * 200000, b"[" + b"9" * 5000 + b"]"]
UNDECODABLE_IDS = ["not-utf8", "too-deep", "integer-too-long"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatchCommand:
    def test_semantic_match(self, capsys):
        code, out, _ = run_cli(
            capsys, "match", ENCYCLOPEDIA_EVENT, BOOK_SUB,
            "--mode", "semantic", "--knowledge", KB,
        )
        assert (code, out) == (0, "match\n")

    def test_syntactic_no_match(self, capsys):
        code, out, _ = run_cli(capsys, "match", ENCYCLOPEDIA_EVENT, BOOK_SUB)
        assert (code, out) == (1, "no-match\n")

    def test_malformed_event(self, capsys):
        code, _, err = run_cli(capsys, "match", "{(", BOOK_SUB)
        assert code == 2
        assert err.startswith("error:")

    def test_semantic_requires_knowledge(self, capsys):
        code, _, err = run_cli(
            capsys, "match", ENCYCLOPEDIA_EVENT, BOOK_SUB, "--mode", "semantic"
        )
        assert code == 2
        assert "requires --knowledge" in err

    def test_missing_knowledge_file(self, capsys):
        code, _, err = run_cli(
            capsys, "match", ENCYCLOPEDIA_EVENT, BOOK_SUB,
            "--mode", "semantic", "--knowledge", "missing.json",
        )
        assert code == 2
        assert "cannot read" in err

    def test_explain_is_deterministic_and_complete(self, capsys):
        args = (
            "match", ENCYCLOPEDIA_EVENT, BOOK_SUB,
            "--mode", "semantic", "--knowledge", KB, "--explain",
        )
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        code, second, _ = run_cli(capsys, *args)
        assert first == second
        assert 'normalized event: {(encyclopedia, "stone age"), (subject, "crocodiles")}' in first
        assert '(book, "stone age")  [hierarchy]' in first
        assert '(book = "stone age")  <-  (book, "stone age")' in first
        assert first.rstrip().endswith("match")

    def test_explain_shows_missing_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "match", "{(price, 9)}", "(price >= 10)", "--explain"
        )
        assert code == 1
        assert "(price >= 10)  <-  no matching pair" in out

    def test_mapping_body_without_input_exits_two(self, capsys, tmp_path):
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps({"mappings": [
            {"name": "f", "inputs": ["a"], "output": "b", "body": {"kind": "rename"}}
        ]}))
        code, out, err = run_cli(
            capsys, "match", "{(a, 1)}", "(b = 1)",
            "--mode", "semantic", "--knowledge", str(kb),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "needs an input" in err

    def test_mapping_overflow_exits_two(self, capsys, tmp_path):
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps({"mappings": [
            {"name": "f", "inputs": ["a"], "output": "b",
             "body": {"kind": "linear", "input": "a", "scale": 2**63 - 1, "offset": 0}}
        ]}))
        code, out, err = run_cli(
            capsys, "match", "{(a, 2)}", "(b > 0)",
            "--mode", "semantic", "--knowledge", str(kb),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: mapping 'f'") and "64-bit range" in err

    @pytest.mark.parametrize("raw", UNDECODABLE, ids=UNDECODABLE_IDS)
    def test_undecodable_knowledge_exits_two(self, capsys, tmp_path, raw):
        kb_path = tmp_path / "kb.json"
        kb_path.write_bytes(raw)
        code, out, err = run_cli(
            capsys, "match", ENCYCLOPEDIA_EVENT, BOOK_SUB,
            "--mode", "semantic", "--knowledge", str(kb_path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON")

    @pytest.mark.parametrize("key", ["synonyms", "hierarchy", "mappings"])
    def test_knowledge_section_not_a_list_exits_two(self, capsys, tmp_path, key):
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps({key: 5}))
        code, out, err = run_cli(
            capsys, "match", ENCYCLOPEDIA_EVENT, BOOK_SUB,
            "--mode", "semantic", "--knowledge", str(kb_path),
        )
        assert (code, out) == (2, "")
        assert err == f"error: {key} must be a list\n"

    @pytest.mark.parametrize(
        "document",
        [
            {"synonyms": [{"root": "", "members": ["a"]}]},
            {"hierarchy": [{"child": "b", "parent": ""}]},
            {"mappings": [{"name": "f", "inputs": ["a"], "output": "b",
                           "body": {"kind": "linear", "input": "a",
                                    "scale": 1.5, "offset": "3"}}]},
        ],
        ids=["empty-root", "empty-parent", "linear-not-integers"],
    )
    def test_malformed_knowledge_terms_exit_two(self, capsys, tmp_path, document):
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps(document))
        code, out, err = run_cli(
            capsys, "match", '{(x, "a"), (a, 10)}', '(x = "b")',
            "--mode", "semantic", "--knowledge", str(kb_path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestCoversCommand:
    def test_syntactic_rows(self, capsys):
        s_wide = '(product = "computer") AND (brand = "IBM") AND (price <= 1600)'
        s_narrow = '(product = "computer") AND (brand = "IBM") AND (price <= 1500)'
        code, out, _ = run_cli(capsys, "covers", s_wide, s_narrow)
        assert (code, out) == (0, "covers\n")
        code, out, _ = run_cli(capsys, "covers", s_narrow, s_wide)
        assert (code, out) == (1, "not-covers\n")

    def test_semantic_mode_flips_hierarchy_case(self, capsys):
        s1 = '(product = "printed material") AND (topic = "semantic web")'
        s2 = '(product = "book") AND (topic = "semantic web")'
        code, out, _ = run_cli(capsys, "covers", s1, s2)
        assert (code, out) == (1, "not-covers\n")
        code, out, _ = run_cli(
            capsys, "covers", s1, s2, "--mode", "semantic", "--knowledge", KB
        )
        assert (code, out) == (0, "covers\n")

    def test_bad_subscription(self, capsys):
        code, _, err = run_cli(capsys, "covers", "(a = 1)", "(a <")
        assert code == 2
        assert "error:" in err


class TestIntersectsCommand:
    def test_disjoint_equalities(self, capsys):
        adv = '(product = "computer") AND (brand = "Dell") AND (price <= 1500)'
        sub = '(product = "computer") AND (brand = "IBM") AND (price <= 1600)'
        code, out, _ = run_cli(capsys, "intersects", adv, sub)
        assert (code, out) == (1, "not-intersects\n")

    def test_gap_pair_flips_semantically(self, capsys):
        adv = '(product = "printed material") AND (price >= 10)'
        sub = '(product = "book") AND (price <= 20)'
        code, out, _ = run_cli(capsys, "intersects", adv, sub)
        assert (code, out) == (1, "not-intersects\n")
        code, out, _ = run_cli(
            capsys, "intersects", adv, sub, "--mode", "semantic", "--knowledge", KB
        )
        assert (code, out) == (0, "intersects\n")

    def test_self_intersection(self, capsys):
        text = '(product = "computer") AND (price <= 1500)'
        code, out, _ = run_cli(capsys, "intersects", text, text)
        assert (code, out) == (0, "intersects\n")


class TestSimulateCommand:
    def test_gap_verify_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", str(SCENARIOS / "gap.json"), "--verify"
        )
        assert code == 0
        assert "verdict     PASS" in out
        assert "notify      reader event 0" in out

    def test_gap_syntactic_override_fails_verification(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", str(SCENARIOS / "gap.json"),
            "--mode", "syntactic", "--verify",
        )
        assert code == 3
        assert "verdict     FAIL" in out
        assert "deliveries  0" in out

    def test_gap_syntactic_run_without_verify_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", str(SCENARIOS / "gap.json"), "--mode", "syntactic"
        )
        assert code == 0
        assert "verdict     UNVERIFIED" in out

    def test_professor_remote_is_a_mapping_gap(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", str(SCENARIOS / "professor_remote.json"), "--verify"
        )
        assert code == 4
        assert "verdict     MAPPING_GAP" in out

    def test_professor_local_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", str(SCENARIOS / "professor_local.json"), "--verify"
        )
        assert code == 0

    def test_stale_subscription_fixture_fails(self, capsys, tmp_path):
        doc = {
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
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "simulate", str(path), "--verify")
        assert code == 3

    def test_cyclic_topology_exits_two(self, capsys, tmp_path):
        doc = {
            "brokers": ["b1", "b2", "b3"],
            "edges": [["b1", "b2"], ["b2", "b3"], ["b3", "b1"]],
            "clients": [],
            "script": [],
        }
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", str(path), "--verify")
        assert code == 2
        assert "tree" in err

    def test_non_string_action_exits_two(self, capsys, tmp_path):
        doc = {
            "brokers": ["b1"],
            "clients": [{"id": "c", "broker": "b1"}],
            "script": [{"action": ["x"], "client": "c", "payload": "(x = 1)"}],
        }
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 2
        assert err.startswith("error: ") and "unknown action" in err

    def test_non_string_client_id_exits_two(self, capsys, tmp_path):
        doc = {
            "brokers": ["b1"],
            "clients": [{"id": 5, "broker": "b1"}],
            "script": [],
        }
        path = tmp_path / "client.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 2
        assert err.startswith("error: ") and "client id must be" in err

    @pytest.mark.parametrize("raw", UNDECODABLE, ids=UNDECODABLE_IDS)
    def test_undecodable_scenario_exits_two(self, capsys, tmp_path, raw):
        path = tmp_path / "scenario.json"
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON")

    @pytest.mark.parametrize("raw", UNDECODABLE, ids=UNDECODABLE_IDS)
    def test_undecodable_knowledge_file_exits_two(self, capsys, tmp_path, raw):
        (tmp_path / "kb.json").write_bytes(raw)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(
            {"brokers": ["b1"], "knowledge": "kb.json", "script": []}
        ))
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad knowledge document: invalid JSON")

    def test_missing_scenario_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "missing.json")
        assert code == 2
        assert "cannot read" in err

    def test_no_scenario_and_no_random(self, capsys):
        code, _, err = run_cli(capsys, "simulate")
        assert code == 2
        assert "scenario file" in err

    def test_random_seeded_run(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--random", "--seed", "6", "--verify")
        assert code == 0
        assert "verdict     PASS" in out

    def test_report_written_and_stable(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            code, _, _ = run_cli(
                capsys, "simulate", "--random", "--seed", "17",
                "--verify", "--report", str(path),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert doc["verdict"] == "PASS"
        assert doc["seed"] == 17

    def test_report_for_file_scenario(self, capsys, tmp_path):
        target = tmp_path / "gap_report.json"
        code, _, _ = run_cli(
            capsys, "simulate", str(SCENARIOS / "gap.json"),
            "--verify", "--report", str(target),
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["deliveries"] == [["reader", 0]]
        assert doc["mode"] == "semantic"

    def test_report_into_missing_directory_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(
            capsys, "simulate", str(SCENARIOS / "gap.json"), "--report", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write report:")
        assert not target.parent.exists()


class TestArgumentHandling:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_no_arguments_exits_two(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "simulate" in out

    def test_entry_point_installed(self):
        # Run what the console script generated from [project.scripts] runs,
        # so the declared target and main()'s use of the process argv are
        # checked without an installed package.
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
        module, _, func = pyproject["project"]["scripts"]["semroute"].partition(":")
        script = f"import sys; from {module} import {func}; sys.exit({func}())"
        # The child imports the same semroute as this process, whether it
        # came from an install or from the source tree.
        source = str(Path(semroute.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join(filter(None, (source, inherited)))
        )

        result = subprocess.run(
            [sys.executable, "-c", script, "covers", "(a = 1)", "(a = 1)"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert result.stdout == "covers\n"

    @pytest.mark.skipif(
        shutil.which("semroute") is None, reason="semroute script not on PATH"
    )
    def test_entry_point_on_path(self):
        result = subprocess.run(
            ["semroute", "covers", "(a = 1)", "(a = 1)"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "covers\n"
