"""The bounded referee's scopes at four actions.

The scopes, the alphabets and every invariant are `test_bounded.py`'s; only
the script bound grows, from three actions to four.  The three scopes take
under a minute together, so the file is named outside `test_*.py`:
the default suite never collects it, and CI runs it as its own step:

    python -X dev -m pytest -q tests/bounded_four_actions.py
"""

import pytest

from .test_bounded import SCOPES, check_scope

# Documents that load, and their verdicts, at four actions.
FOUR_ACTIONS = {
    "syntactic": (13140, {"PASS": 10348, "FAIL": 2792}),
    "semantic": (9279, {"PASS": 5051, "MAPPING_GAP": 3048, "FAIL": 1180}),
    "hierarchy": (12444, {"PASS": 9380, "FAIL": 3064}),
}


@pytest.mark.parametrize("scope", SCOPES)
def test_every_four_action_scenario(scope):
    mode, knowledge, alphabet, _, _ = SCOPES[scope]
    check_scope(mode, knowledge, alphabet, *FOUR_ACTIONS[scope], 4)
