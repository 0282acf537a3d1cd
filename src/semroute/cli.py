"""Command-line interface.

Subcommands: `match`, `covers`, `intersects`, `simulate`.  Relation
subcommands print a single verdict token and exit 0 when the relation holds,
1 when it does not, 2 on usage or input errors.  `simulate --verify` exits 0
on PASS, 3 on FAIL, 4 on MAPPING_GAP; load errors exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .knowledge import (
    KnowledgeBase,
    KnowledgeError,
    MappingEvaluationError,
    load_knowledge,
)
from .model import (
    Pair,
    ParseError,
    parse_advertisement,
    parse_event,
    parse_subscription,
    read_file,
    render,
    render_pair,
)
from .semantic import (
    augment,
    normalize_event,
    normalize_subscription,
    sem_covers,
    sem_intersects,
    sem_match,
)
from .sim import (
    RoutingMode,
    ScenarioError,
    Verdict,
    load_scenario,
    random_scenario_document,
    relation_knowledge,
    run,
    verify,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_FAIL = 3
EXIT_MAPPING_GAP = 4


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _load_kb(args) -> KnowledgeBase:
    """`--knowledge`, read and validated whenever it is given, as the mode's
    relations see it."""
    if args.mode == "semantic" and not args.knowledge:
        raise CliError("semantic mode requires --knowledge")
    kb = KnowledgeBase.empty()
    if args.knowledge:
        kb = load_knowledge(read_file(Path(args.knowledge), CliError, "knowledge file"))
    return relation_knowledge(RoutingMode(args.mode), kb)


def _explain_match(event, sub, kb, semantic: bool) -> None:
    augmented = augment(normalize_event(event, kb), kb)
    n_sub = normalize_subscription(sub, kb)
    if semantic:
        print(f"normalized event: {render(augmented.base)}")
        print(f"normalized subscription: {render(n_sub)}")
        print("added pairs:")
        if not augmented.added:
            print("  (none)")
        for ap in augmented.added:
            print(f"  {render_pair(ap.pair)}  [{ap.provenance.value}]")
    print("predicates:")
    for pred in n_sub.predicates:
        # The first value at the attribute that satisfies pred: the base
        # event's come before the added ones (`AugmentedEvent.values`).
        held = augmented.values.get(pred.attribute, ())
        witness = next((v for v in held if pred.op.holds(v, pred.value)), None)
        shown = "no matching pair"
        if witness is not None:
            shown = render_pair(Pair(pred.attribute, witness))
        text = render(type(sub)((pred,)))
        print(f"  {text}  <-  {shown}")


# Per relation subcommand: help, operands as (argparse name, parser), relation,
# tokens printed when it holds and when not, `--explain` printer or None.
_RELATIONS = {
    "match": (
        "match an event against a subscription",
        (("event", parse_event), ("subscription", parse_subscription)),
        sem_match,
        ("match", "no-match"),
        _explain_match,
    ),
    "covers": (
        "test whether one subscription covers another",
        (("sub1", parse_subscription), ("sub2", parse_subscription)),
        sem_covers,
        ("covers", "not-covers"),
        None,
    ),
    "intersects": (
        "test whether an advertisement intersects a subscription",
        (("advertisement", parse_advertisement), ("subscription", parse_subscription)),
        sem_intersects,
        ("intersects", "not-intersects"),
        None,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semroute",
        description="Content-based publish/subscribe matching and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (help_text, operands, _, _, explain) in _RELATIONS.items():
        p = sub.add_parser(command, help=help_text)
        for name, _ in operands:
            p.add_argument(name)
        p.add_argument("--knowledge", metavar="PATH", help="knowledge JSON file")
        p.add_argument(
            "--mode",
            choices=["syntactic", "semantic"],
            default="syntactic",
            help="relation set to apply (default: syntactic)",
        )
        if explain is not None:
            p.add_argument(
                "--explain",
                action="store_true",
                help="show normalized forms, added pairs, and witnesses",
            )

    p = sub.add_parser("simulate", help="run a scenario through the broker overlay")
    p.add_argument("scenario", nargs="?", help="scenario JSON file")
    p.add_argument("--random", action="store_true", help="generate a scenario instead")
    p.add_argument("--seed", type=int, default=0, help="seed for --random")
    p.add_argument(
        "--mode",
        choices=["syntactic", "semantic"],
        help="override the scenario's declared mode",
    )
    p.add_argument("--verify", action="store_true", help="grade against the oracle")
    p.add_argument("--report", metavar="PATH", help="write the JSON report here")
    return parser


def _cmd_relation(args) -> int:
    _, operands, relation, (holds, fails), explain = _RELATIONS[args.command]
    kb = _load_kb(args)
    left, right = (parse(getattr(args, name)) for name, parse in operands)
    result = relation(left, right, kb)
    if explain is not None and args.explain:
        explain(left, right, kb, args.mode == "semantic")
    print(holds if result else fails)
    return EXIT_TRUE if result else EXIT_FALSE


def _cmd_simulate(args) -> int:
    if args.random:
        scenario = load_scenario(random_scenario_document(args.seed))
    else:
        if not args.scenario:
            raise CliError("a scenario file (or --random) is required")
        path = Path(args.scenario)
        raw = read_file(path, CliError, "scenario")
        scenario = load_scenario(raw, base_dir=path.parent)
    if args.mode:
        scenario = scenario.with_mode(RoutingMode(args.mode))

    report = verify(scenario) if args.verify else run(scenario)
    if args.report:
        try:
            Path(args.report).write_text(report.to_json())
        except OSError as err:
            raise CliError(f"cannot write report: {err}") from None
    sys.stdout.write(report.to_table())
    if not args.verify:
        return EXIT_TRUE
    if report.verdict == Verdict.PASS.value:
        return EXIT_TRUE
    if report.verdict == Verdict.MAPPING_GAP.value:
        return EXIT_MAPPING_GAP
    return EXIT_FAIL


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(err.code or 0)
    handler = _cmd_simulate if args.command == "simulate" else _cmd_relation
    try:
        return handler(args)
    except (
        CliError,
        ParseError,
        KnowledgeError,
        MappingEvaluationError,
        ScenarioError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR

