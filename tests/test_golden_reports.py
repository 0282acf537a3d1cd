"""Golden digests of verified simulation reports.

Every scenario file, in its declared mode and in the other one, and the
generated scenarios of seeds 0-20 in both modes, must give a report whose
JSON text hashes to the digest recorded in `golden_reports.json`.  A change
that only makes routing cheaper leaves every digest as it is.  A deliberate
change to deliveries, traffic or verdicts records the new digests with

    PYTHONPATH=src python -m tests.test_golden_reports > tests/golden_reports.json

and says in its description which reports changed and why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from semroute.sim import RoutingMode
from semroute.sim import Scenario, generate_scenario, load_scenario, verify

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


def digest(case: str) -> str:
    return hashlib.sha256(verify(load_case(case)).to_json().encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", cases())
def test_report_digest_is_unchanged(golden, case):
    assert digest(case) == golden[case]


if __name__ == "__main__":
    print(json.dumps({case: digest(case) for case in cases()}, indent=2, sort_keys=True))
