"""Command-line front end.

Exit codes follow one contract everywhere: 0 for success / an affirmative
verdict, 1 for a negative verdict or a found mismatch, 2 for usage or
input errors.  Verdicts go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .constructions import BUILDERS, make_machine
from .experiments import (
    budget_sweep,
    fooling_z,
    hierarchy_report,
    splice_counterexample,
)
from .grid import (
    enumerate_pictures,
    format_picture_stream,
    parse_picture_stream,
)
from .languages import natural_rows, parse_language_id
from .machine import INF, Automaton, Budget, parse_machine, serialize_machine
from .simulator import (
    RunOutcome,
    accepting_trace,
    accepts,
    format_trace,
    run_deterministic,
)


class CliError(ValueError):
    """Input problem reported on stderr with exit code 2."""


def _load_machine(path: str) -> Automaton:
    try:
        return parse_machine(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read machine file {path}: {exc}")
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _load_pictures(path: str, machine: Automaton):
    try:
        return parse_picture_stream(Path(path).read_text(), machine.alphabet)
    except OSError as exc:
        raise CliError(f"cannot read picture file {path}: {exc}")
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _budget_override(args: argparse.Namespace, machine: Automaton) -> Budget | None:
    up = getattr(args, "budget_up", None)
    left = getattr(args, "budget_left", None)
    if up is None and left is None:
        return None
    return Budget(
        machine.budget.up if up is None else up,
        machine.budget.left if left is None else left,
    )


def _parse_budget_value(text: str) -> int | float:
    if text == "inf":
        return INF
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("budget must be an integer or 'inf'")
    if value < 0:
        raise argparse.ArgumentTypeError("budget must be nonnegative")
    return value


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget-up",
        type=_parse_budget_value,
        default=None,
        help="run-time up budget (may only lower the declared one)",
    )
    parser.add_argument(
        "--budget-left",
        type=_parse_budget_value,
        default=None,
        help="run-time left budget (may only lower the declared one)",
    )


def cmd_accept(args: argparse.Namespace) -> int:
    machine = _load_machine(args.machine)
    pictures = _load_pictures(args.pictures, machine)
    override = _budget_override(args, machine)
    all_accepted = True
    for p in pictures:
        verdict = accepts(machine, p, override)
        print("ACCEPT" if verdict else "REJECT")
        all_accepted &= verdict
    return 0 if all_accepted else 1


def cmd_run(args: argparse.Namespace) -> int:
    machine = _load_machine(args.machine)
    pictures = _load_pictures(args.pictures, machine)
    override = _budget_override(args, machine)
    all_accepted = True
    for p in pictures:
        if machine.mode == "det":
            outcome, _ = run_deterministic(machine, p, override)
        else:
            outcome = (
                RunOutcome.ACCEPT
                if accepts(machine, p, override)
                else RunOutcome.REJECT_HALT
            )
        print(outcome.value)
        all_accepted &= outcome is RunOutcome.ACCEPT
    return 0 if all_accepted else 1


def cmd_trace(args: argparse.Namespace) -> int:
    machine = _load_machine(args.machine)
    pictures = _load_pictures(args.pictures, machine)
    override = _budget_override(args, machine)
    code = 0
    for p in pictures:
        if machine.mode == "det":
            outcome, trace = run_deterministic(machine, p, override)
            print(format_trace(trace))
            if outcome is not RunOutcome.ACCEPT:
                code = 1
        else:
            trace = accepting_trace(machine, p, override)
            if trace is None:
                print("NO ACCEPTING RUN")
                code = 1
            else:
                print(format_trace(trace))
    return code


def cmd_build(args: argparse.Namespace) -> int:
    machine = make_machine(args.builder, args.param)
    text = serialize_machine(machine)
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.rows < 1 or args.cols < 1:
        raise CliError("rows and cols must be >= 1")
    alphabet = tuple(args.alphabet)
    if not alphabet:
        raise CliError("alphabet must not be empty")
    if len(set(alphabet)) != len(alphabet) or "#" in alphabet:
        raise CliError("alphabet must be distinct symbols without '#'")
    pictures = list(enumerate_pictures(alphabet, args.rows, args.cols))
    print(format_picture_stream(pictures), end="")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``sweep``, and ``check``: the sweep at the declared budget."""
    if args.cols_max < 1:
        raise CliError("--cols-max must be >= 1")
    # A bad language id is reported before a bad builder.
    parse_language_id(args.language)
    machine = make_machine(args.builder, args.param)
    rows = args.rows if args.rows is not None else natural_rows(args.language)
    ups = args.budget_up if args.budget_up else [machine.budget.up]
    left = machine.budget.left if args.budget_left is None else args.budget_left
    budgets = [Budget(u, left) for u in ups]
    report = budget_sweep(machine, args.language, rows, args.cols_max, budgets)
    print(report.format_table())
    print(report.format_records())
    return 0 if report.ok else 1


def cmd_splice(args: argparse.Namespace) -> int:
    machine = make_machine(args.builder, args.param)
    z = args.z if args.z is not None else fooling_z(len(machine.states), 0)
    if z < 2:
        raise CliError("--z must be at least 2")
    report = splice_counterexample(machine, z)
    print(report.format())
    return 0 if report.demonstrates else 1


def cmd_hierarchy(args: argparse.Namespace) -> int:
    if args.cols_max < 1:
        raise CliError("--cols-max must be >= 1")
    report = hierarchy_report(args.i_max, args.cols_max)
    print(report.format_table())
    print()
    print(report.format_records())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfa",
        description=(
            "Workbench for two-dimensional automata whose heads pay a bounded "
            "budget for restricted-direction moves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("accept", help="print ACCEPT/REJECT per picture in a stream")
    p.add_argument("machine")
    p.add_argument("pictures")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_accept)

    p = sub.add_parser("run", help="print the run outcome per picture (det: may LOOP)")
    p.add_argument("machine")
    p.add_argument("pictures")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="print the canonical trace per picture")
    p.add_argument("machine")
    p.add_argument("pictures")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_trace)

    builders = ", ".join(sorted(BUILDERS))
    p = sub.add_parser("build", help=f"emit a built-in machine ({builders})")
    p.add_argument("builder")
    p.add_argument("--param", type=int, default=None, help="index for parametric builders")
    p.add_argument("-o", "--output", default=None, help="write machine file here")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("enumerate", help="emit every picture of a given shape")
    p.add_argument("--alphabet", default="01")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check", help="oracle equivalence sweep for a builder")
    p.add_argument("builder")
    p.add_argument("language")
    p.add_argument("--param", type=int, default=None)
    p.add_argument("--rows", type=int, default=None, help="default: the language's row count")
    p.add_argument("--cols-max", type=int, default=4)
    p.set_defaults(func=cmd_sweep, budget_up=None, budget_left=None)

    p = sub.add_parser("sweep", help="budget sweep for a builder against an oracle")
    p.add_argument("builder")
    p.add_argument("language")
    p.add_argument("--param", type=int, default=None)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols-max", type=int, default=4)
    p.add_argument(
        "--budget-up",
        type=_parse_budget_value,
        action="append",
        default=None,
        help="repeatable: one sweep entry per value",
    )
    p.add_argument("--budget-left", type=_parse_budget_value, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("splice", help="crossing-match splice counterexample")
    p.add_argument("builder")
    p.add_argument("--param", type=int, default=None)
    p.add_argument("--z", type=int, default=None, help="default: fooling bound for the builder")
    p.set_defaults(func=cmd_splice)

    p = sub.add_parser("hierarchy", help="budget hierarchy evidence table")
    p.add_argument("--i-max", type=int, default=2)
    p.add_argument("--cols-max", type=int, default=4)
    p.set_defaults(func=cmd_hierarchy)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
