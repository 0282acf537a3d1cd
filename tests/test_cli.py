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


def _child_env() -> dict[str, str]:
    """The environment for a child process that imports the same semroute
    as this process, whether it came from an install or from the source
    tree."""
    source = str(Path(semroute.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (source, inherited))))


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


# Two operands for each relation subcommand, for which the relation holds.
RELATION_OPERANDS = {
    "match": ("{(a, 1)}", "(a = 1)"),
    "covers": ("(a = 1)", "(a = 1)"),
    "intersects": ("(a = 1)", "(a = 1)"),
}
# Two operands for each relation subcommand, for which the relation holds
# over the bundled knowledge base but not syntactically, and the token
# printed when it does not hold.
SEMANTIC_OPERANDS = {
    "match": ("{(car, 1)}", "(vehicle = 1)", "no-match"),
    "covers": ("(book = 1)", "(encyclopedia = 1)", "not-covers"),
    "intersects": (
        '(product = "printed material")', '(product = "book")', "not-intersects"
    ),
}
# One run of each subcommand that exits 0, with the first line it prints.
ENTRY_POINT_RUNS = [
    *(([c, *operands], c) for c, operands in RELATION_OPERANDS.items()),
    (["simulate", "scenarios/gap.json", "--verify"], "mode        semantic"),
]
ENTRY_POINT_IDS = [*RELATION_OPERANDS, "simulate"]


class TestRelationCommands:
    @pytest.mark.parametrize("command", RELATION_OPERANDS)
    def test_missing_operand_exits_two(self, capsys, command):
        first, _ = RELATION_OPERANDS[command]
        code, out, err = run_cli(capsys, command, first)
        assert (code, out) == (2, "")
        assert "the following arguments are required" in err

    @pytest.mark.parametrize("command", RELATION_OPERANDS)
    def test_semantic_mode_requires_knowledge(self, capsys, command):
        code, out, err = run_cli(
            capsys, command, *RELATION_OPERANDS[command], "--mode", "semantic"
        )
        assert (code, out) == (2, "")
        assert err == "error: semantic mode requires --knowledge\n"

    @pytest.mark.parametrize("command", RELATION_OPERANDS)
    def test_missing_knowledge_file_exits_two_in_any_mode(
        self, capsys, tmp_path, command
    ):
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(
            capsys, command, *RELATION_OPERANDS[command], "--knowledge", missing
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read knowledge file")

    @pytest.mark.parametrize("command", RELATION_OPERANDS)
    def test_knowledge_path_with_nul_byte_exits_two(self, capsys, command):
        code, out, err = run_cli(
            capsys, command, *RELATION_OPERANDS[command], "--knowledge", "a\x00b"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read knowledge file:")

    @pytest.mark.parametrize("command", RELATION_OPERANDS)
    def test_malformed_knowledge_exits_two_in_any_mode(
        self, capsys, tmp_path, command
    ):
        kb_path = tmp_path / "kb.json"
        kb_path.write_text(json.dumps({"synonyms": 5}))
        code, out, err = run_cli(
            capsys, command, *RELATION_OPERANDS[command], "--knowledge", str(kb_path)
        )
        assert (code, out, err) == (2, "", "error: synonyms must be a list\n")

    @pytest.mark.parametrize("command", SEMANTIC_OPERANDS)
    def test_knowledge_is_used_only_in_semantic_mode(self, capsys, command):
        *operands, fails = SEMANTIC_OPERANDS[command]
        code, out, _ = run_cli(capsys, command, *operands, "--knowledge", KB)
        assert (code, out) == (1, f"{fails}\n")
        code, out, _ = run_cli(
            capsys, command, *operands, "--knowledge", KB, "--mode", "semantic"
        )
        assert (code, out) == (0, f"{command}\n")

    @pytest.mark.parametrize("command", ["covers", "intersects"])
    def test_explain_is_match_only(self, capsys, command):
        code, out, err = run_cli(capsys, command, *RELATION_OPERANDS[command], "--explain")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --explain" in err


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

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                (ENCYCLOPEDIA_EVENT, BOOK_SUB, "--mode", "semantic", "--knowledge", KB),
                (0, """\
normalized event: {(encyclopedia, "stone age"), (subject, "crocodiles")}
normalized subscription: (book = "stone age") AND (subject = "reptiles")
added pairs:
  (book, "stone age")  [hierarchy]
  ("printed material", "stone age")  [hierarchy]
  (subject, "reptiles")  [hierarchy]
predicates:
  (book = "stone age")  <-  (book, "stone age")
  (subject = "reptiles")  <-  (subject, "reptiles")
match
"""),
            ),
            (
                (
                    '{(school, "y"), (degree, "phd"), ("work experience", true), '
                    '("graduation date", 1990)}',
                    '(university = "y") AND ("professional experience" > 10) '
                    'AND ("work experience" = true)',
                    "--mode", "semantic", "--knowledge", KB,
                ),
                (0, """\
normalized event: {(university, "y"), (degree, "phd"), ("work experience", true), ("graduation date", 1990)}
normalized subscription: (university = "y") AND ("professional experience" > 10) AND ("work experience" = true)
added pairs:
  ("professional experience", 13)  [mapping]
predicates:
  (university = "y")  <-  (university, "y")
  ("professional experience" > 10)  <-  ("professional experience", 13)
  ("work experience" = true)  <-  ("work experience", true)
match
"""),
            ),
            (
                # Several values could witness each predicate: the first
                # shown is the base value, then the added ones in order.
                (
                    '{(encyclopedia, "Stone Age"), (book, "crocodiles")}',
                    '(book != "zzz") AND ("printed material" != "crocodiles")',
                    "--mode", "semantic", "--knowledge", KB,
                ),
                (0, """\
normalized event: {(encyclopedia, "stone age"), (book, "crocodiles")}
normalized subscription: (book != "zzz") AND ("printed material" != "crocodiles")
added pairs:
  (book, "stone age")  [hierarchy]
  ("printed material", "stone age")  [hierarchy]
  (book, "reptiles")  [hierarchy]
  ("printed material", "crocodiles")  [hierarchy]
  ("printed material", "reptiles")  [hierarchy]
predicates:
  (book != "zzz")  <-  (book, "crocodiles")
  ("printed material" != "crocodiles")  <-  ("printed material", "stone age")
match
"""),
            ),
            (
                (ENCYCLOPEDIA_EVENT, BOOK_SUB),
                (1, """\
predicates:
  (book = "stone age")  <-  no matching pair
  (subject = "reptiles")  <-  no matching pair
no-match
"""),
            ),
            (
                ("{(price, 9)}", "(price >= 5)", "--mode", "semantic", "--knowledge", KB),
                (0, """\
normalized event: {(price, 9)}
normalized subscription: (price >= 5)
added pairs:
  (none)
predicates:
  (price >= 5)  <-  (price, 9)
match
"""),
            ),
        ],
        ids=["hierarchy", "mapping-output", "first-of-several", "syntactic-no-pair",
             "nothing-added"],
    )
    def test_explain_output_is_pinned(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, "match", *argv, "--explain")
        assert (code, out) == expected

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
        assert err.startswith("error:") and "mappings[0].body: need kind, input" in err

    @pytest.mark.parametrize(
        "body, year, event, result",
        [
            ({"kind": "linear", "input": "a", "scale": 2**63 - 1, "offset": 0},
             0, "{(a, 2)}", 2**64 - 2),
            # years_since is read as linear, and keeps its range check.
            ({"kind": "years_since", "input": "a"},
             2003, "{(a, -9223372036854775808)}", 2**63 + 2003),
        ],
        ids=["linear", "years_since"],
    )
    def test_mapping_overflow_exits_two(self, capsys, tmp_path, body, year, event, result):
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps({"mappings": [
            {"name": "f", "inputs": ["a"], "output": "b", "body": body}
        ], "reference_year": year}))
        code, out, err = run_cli(
            capsys, "match", event, "(b > 0)",
            "--mode", "semantic", "--knowledge", str(kb),
        )
        assert (code, out) == (2, "")
        assert err == f"error: mapping 'f': result {result} exceeds the 64-bit range\n"

    def test_too_deep_hierarchy_exits_two(self, capsys, tmp_path):
        kb_path = tmp_path / "kb.json"
        edges = [{"child": f"t{i}", "parent": f"t{i + 1}"} for i in range(65)]
        kb_path.write_text(json.dumps({"hierarchy": edges}))
        code, out, err = run_cli(
            capsys, "match", "{(t0, 1)}", "(t65 = 1)",
            "--mode", "semantic", "--knowledge", str(kb_path),
        )
        assert (code, out) == (2, "")
        assert err == "error: hierarchy deeper than 64 levels above 't0'\n"

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
            {"mappings": [{"name": 5, "inputs": ["a"], "output": "b",
                           "body": {"kind": "rename", "input": "a"}}]},
        ],
        ids=["empty-root", "empty-parent", "linear-not-integers", "mapping-name"],
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

    def test_deep_mode_exits_two_with_a_short_message(self, capsys, tmp_path):
        path = tmp_path / "mode.json"
        path.write_bytes(b'{"brokers": ["b1"], "mode": ' + b"[" * 900 + b"]" * 900 + b"}")
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown mode [[")
        assert len(err) < 100

    @pytest.mark.parametrize(
        "action, payload, message",
        [
            ("subscribe", "(x = 1) " + "y" * 5000, "unexpected trailing input"),
            ("publish", "{(" + "a" * 5000 + ", 1), (" + "a" * 5000 + ", 2)}",
             "duplicate attribute"),
        ],
        ids=["trailing", "duplicate"],
    )
    def test_long_payload_exits_two_with_a_short_message(
        self, capsys, tmp_path, action, payload, message
    ):
        doc = {
            "brokers": ["b1"],
            "clients": [{"id": "c", "broker": "b1"}],
            "script": [{"action": action, "client": "c", "payload": payload}],
        }
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: script[0]: {message} ")
        assert len(err) < 100

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

    def test_scenario_path_with_nul_byte(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "a\x00b")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read scenario:")

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

    @pytest.mark.parametrize("argv, first_line", ENTRY_POINT_RUNS, ids=ENTRY_POINT_IDS)
    def test_entry_point_installed(self, argv, first_line):
        # Run what the console script generated from [project.scripts] runs,
        # so the declared target and main()'s use of the process argv are
        # checked without an installed package.
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
        module, _, func = pyproject["project"]["scripts"]["semroute"].partition(":")
        script = f"import sys; from {module} import {func}; sys.exit({func}())"
        result = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            env=_child_env(),
            cwd=ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == first_line

    def test_module_runs_the_cli(self):
        result = subprocess.run(
            [sys.executable, "-m", "semroute", "simulate", "scenarios/gap.json", "--verify"],
            capture_output=True,
            text=True,
            env=_child_env(),
            cwd=ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert "PASS" in result.stdout

    @pytest.mark.skipif(
        shutil.which("semroute") is None, reason="semroute script not on PATH"
    )
    @pytest.mark.parametrize("argv, first_line", ENTRY_POINT_RUNS, ids=ENTRY_POINT_IDS)
    def test_entry_point_on_path(self, argv, first_line):
        result = subprocess.run(
            ["semroute", *argv],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == first_line
