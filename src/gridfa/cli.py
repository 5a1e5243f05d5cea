"""Command-line front end.

``accept``, ``run`` and ``trace`` are one per-picture loop, ``cmd_decide``:
it reads the machine and the picture stream, resolves the budget the
flags ask for, and prints what the command's decider gives for each picture.

Exit codes follow one contract everywhere: 0 for success / an affirmative
verdict, 1 for a negative verdict or a found mismatch, 2 for usage or
input errors.  Verdicts go to stdout, diagnostics to stderr.  Input is
refused with a ``ValueError`` (the library's typed errors subclass it),
which ``main`` prints as ``error: ...`` with exit 2.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from typing import Sequence

from .constructions import BUILDERS, make_machine
from .experiments import (
    budget_sweep,
    fooling_parameters,
    hierarchy_report,
    splice_counterexample,
)
from .grid import (
    STREAM_SEPARATOR,
    Picture,
    _separator_row,
    _shape_rows,
    enumerate_pictures,
    parse_picture_stream,
)
from .languages import natural_rows, parse_language_id
from .machine import Automaton, Budget, parse_budget, parse_machine, serialize_machine
from .simulator import (
    RunOutcome,
    accepting_trace,
    accepts,
    format_trace,
    run_deterministic,
)


def _read(path: str, what: str, parse):
    """``parse`` applied to the text of the ``what`` file at ``path``."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def _asked_budget(machine: Automaton, up: int | float | None, left: int | float | None) -> Budget:
    """The budget a command asks for: the declared one in each direction
    whose flag is missing."""
    return Budget(
        machine.budget.up if up is None else up,
        machine.budget.left if left is None else left,
    )


def _budget(text: str) -> int | float:
    try:
        return parse_budget(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# The per-picture deciders behind ``accept``, ``run`` and ``trace``: each
# returns the text printed for the picture and whether it was accepted.


def _accept(machine: Automaton, p: Picture, budget: Budget) -> tuple[str, bool]:
    verdict = accepts(machine, p, budget)
    return ("ACCEPT" if verdict else "REJECT"), verdict


def _run(machine: Automaton, p: Picture, budget: Budget) -> tuple[str, bool]:
    if machine.mode != "det":  # a rejection prints as RunOutcome.REJECT_HALT does
        return _accept(machine, p, budget)
    outcome, _ = run_deterministic(machine, p, budget)
    return outcome.value, outcome is RunOutcome.ACCEPT


def _trace(machine: Automaton, p: Picture, budget: Budget) -> tuple[str, bool]:
    if machine.mode == "det":
        trace = run_deterministic(machine, p, budget)[1]
    else:
        trace = accepting_trace(machine, p, budget)
        if trace is None:
            return "NO ACCEPTING RUN", False
    return format_trace(trace), trace.outcome is RunOutcome.ACCEPT


def cmd_decide(args: argparse.Namespace) -> int:
    """``accept``, ``run`` and ``trace``: what ``args.decide`` prints for
    each picture of the stream; exit 0 iff every picture was accepted."""
    machine = _read(args.machine, "machine", parse_machine)
    pictures = _read(
        args.pictures, "picture", partial(parse_picture_stream, alphabet=machine.alphabet)
    )
    budget = _asked_budget(machine, args.budget_up, args.budget_left)
    all_accepted = True
    for p in pictures:
        text, accepted = args.decide(machine, p, budget)
        print(text)
        all_accepted &= accepted
    return 0 if all_accepted else 1


def cmd_build(args: argparse.Namespace) -> int:
    machine = make_machine(args.builder, args.param)
    text = serialize_machine(machine)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write machine file {args.output}: {exc}")
    else:
        print(text, end="")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    """Write the pictures as they are enumerated.  A picture with a row
    that reads as the stream separator is refused before anything is
    written; the alphabet and the shape tell whether there is one."""
    pictures = enumerate_pictures(args.alphabet, args.rows, args.cols)
    first = next(pictures, None)
    if first is None:  # only an empty alphabet has no pictures of a valid shape
        raise ValueError("alphabet must not be empty")
    if args.cols == len(STREAM_SEPARATOR) and set(STREAM_SEPARATOR) <= set(args.alphabet):
        # The separator is row n of the shape's rows, so picture n (from 0)
        # is the first to hold it: as its last row, or as every row if n is 0.
        n = _shape_rows(args.alphabet, 1, args.cols).index(STREAM_SEPARATOR)
        raise _separator_row(n + 1, args.rows if n else 1)
    write = sys.stdout.write
    write(f"{first.to_text()}\n")
    for p in pictures:
        write(f"{STREAM_SEPARATOR}\n{p.to_text()}\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``sweep``, and ``check``: the sweep at the declared budget."""
    if args.cols_max < 1:
        raise ValueError("--cols-max must be >= 1")
    # A bad language id is reported before a bad builder.
    parse_language_id(args.language)
    machine = make_machine(args.builder, args.param)
    rows = args.rows if args.rows is not None else natural_rows(args.language)
    budgets = [_asked_budget(machine, up, args.budget_left) for up in args.budget_up or [None]]
    report = budget_sweep(machine, args.language, rows, args.cols_max, budgets)
    print(report.format_table())
    print(report.format_records())
    return 0 if report.ok else 1


def cmd_splice(args: argparse.Namespace) -> int:
    machine = make_machine(args.builder, args.param)
    z = args.z if args.z is not None else fooling_parameters(machine).z
    if z < 2:
        raise ValueError("--z must be at least 2")
    report = splice_counterexample(machine, z)
    print(report.format())
    return 0 if report.demonstrates else 1


def cmd_hierarchy(args: argparse.Namespace) -> int:
    if args.cols_max < 1:
        raise ValueError("--cols-max must be >= 1")
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

    for name, summary, decide in (
        ("accept", "print ACCEPT/REJECT per picture in a stream", _accept),
        ("run", "print the run outcome per picture (det: may LOOP)", _run),
        ("trace", "print the canonical trace per picture", _trace),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("machine")
        p.add_argument("pictures")
        for direction in ("up", "left"):
            p.add_argument(
                f"--budget-{direction}",
                type=_budget,
                help=f"run-time {direction} budget (may only lower the declared one)",
            )
        p.set_defaults(func=cmd_decide, decide=decide)

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

    for name, summary in (
        ("check", "oracle equivalence sweep for a builder"),
        ("sweep", "budget sweep for a builder against an oracle"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("builder")
        p.add_argument("language")
        p.add_argument("--param", type=int, default=None)
        p.add_argument("--rows", type=int, default=None, help="default: the language's row count")
        p.add_argument("--cols-max", type=int, default=4)
        if name == "sweep":
            p.add_argument(
                "--budget-up",
                type=_budget,
                action="append",
                help="repeatable: one sweep entry per value",
            )
            p.add_argument("--budget-left", type=_budget)
        p.set_defaults(func=cmd_sweep, budget_up=None, budget_left=None)

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
