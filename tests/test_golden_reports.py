"""Golden digests of verified simulation reports.

Every scenario file, in its declared mode and in the other one, and the
generated scenarios of seeds 0-20 in both modes, must give a report whose
JSON text hashes to the digest recorded in `golden_reports.json`.  Beside
each digest the file keeps a summary of the report (verdict, delivery
count, message count per kind, suppressed and gated counts), so a moved
digest names what moved with it.  A change that only makes routing cheaper
leaves every digest as it is.  A deliberate change to deliveries, traffic
or verdicts records the new digests with

    PYTHONPATH=src python -m tests.test_golden_reports > tests/golden_reports.json

and says in its description which reports changed and why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from semroute.sim import RoutingMode
from semroute.sim import Scenario, SimReport, generate_scenario, load_scenario, verify

from .conftest import SCENARIOS

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
SEEDS = range(21)


def _scenario_files() -> list[Path]:
    return sorted(
        path
        for path in SCENARIOS.glob("*.json")
        if "script" in json.loads(path.read_text())
    )


def load_case(case: str) -> Scenario:
    source, mode = case.split(":")
    if source.startswith("seed-"):
        scenario = generate_scenario(int(source[len("seed-"):]))
    else:
        path = SCENARIOS / source
        scenario = load_scenario(path.read_bytes(), base_dir=path.parent)
    return scenario.with_mode(RoutingMode(mode))


def cases() -> list[str]:
    sources = [p.name for p in _scenario_files()] + [f"seed-{s}" for s in SEEDS]
    return [f"{src}:{mode.value}" for src in sources for mode in RoutingMode]


def summary(report: SimReport) -> dict:
    """The report's digest and the figures a moved digest is explained by."""
    return {
        "digest": hashlib.sha256(report.to_json().encode()).hexdigest(),
        "verdict": report.verdict,
        "deliveries": len(report.deliveries),
        "messages": {kind: sum(n.values()) for kind, n in sorted(report.counts.items())},
        "suppressed": report.suppressed_subscriptions,
        "gated": report.gated_subscriptions,
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", cases())
def test_report_digest_is_unchanged(golden, case):
    got, want = summary(verify(load_case(case))), golden[case]
    moved = [field for field in want if got[field] != want[field]]
    assert not moved, f"{case}: {', '.join(moved)} moved: {got} != {want}"


if __name__ == "__main__":
    reports = {case: summary(verify(load_case(case))) for case in cases()}
    print(json.dumps(reports, indent=2, sort_keys=True))
