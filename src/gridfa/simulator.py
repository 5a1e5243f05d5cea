"""Decidable execution of machines on pictures.

The run state of a machine is a :class:`Configuration`: control state,
head position in frame coordinates, and the remaining budgets.  The
configuration space is finite (an infinite budget is represented as a
single non-decrementing layer), so one breadth-first search of the
configuration graph terminates and decides everything here.  It is read
three ways:

* acceptance: whether the search reaches the accepting state,
* canonical shortest accepting traces, with ties broken by transition
  declaration order, so repeated calls return bit-identical traces, and
* deterministic runs, whose run graph is a path, so the search ends on
  the accepting state, a stuck configuration or a repeated one.

All functions are pure in (machine, picture, budget override) and safe to
call concurrently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .grid import AlphabetError, Picture, cell_at, enumerate_pictures
from .machine import (
    DELTAS,
    INF,
    Automaton,
    Budget,
    Direction,
    ensure_valid,
    fmt_budget,
)


class ModeError(ValueError):
    """Deterministic-only operation applied to a nondeterministic machine."""


class BudgetOverrideError(ValueError):
    """A run-time budget override exceeded the machine's declared budget."""


class Configuration(NamedTuple):
    """One node of the run graph: state, head position, remaining budgets."""

    state: str
    row: int
    col: int
    up_left: int | float
    left_left: int | float


class RunOutcome(Enum):
    ACCEPT = "ACCEPT"
    REJECT_HALT = "REJECT"
    LOOP = "LOOP"


class TraceStep(NamedTuple):
    config: Configuration
    direction: Direction


@dataclass(frozen=True)
class Trace:
    """A run: the steps taken (configuration, direction) and where it ended."""

    steps: tuple[TraceStep, ...]
    final: Configuration
    outcome: RunOutcome

    def directions(self) -> tuple[Direction, ...]:
        return tuple(step.direction for step in self.steps)

    def configurations(self) -> tuple[Configuration, ...]:
        return tuple(step.config for step in self.steps) + (self.final,)


def _resolve_budget(a: Automaton, override: Budget | None) -> Budget:
    if override is None:
        return a.budget
    up = Budget.check(override.up, "up")
    left = Budget.check(override.left, "left")
    if up > a.budget.up or left > a.budget.left:
        raise BudgetOverrideError(
            f"override ({fmt_budget(up)},{fmt_budget(left)}) exceeds declared "
            f"({fmt_budget(a.budget.up)},{fmt_budget(a.budget.left)}); "
            "overrides may only lower budgets"
        )
    return Budget(up, left)


def initial_configuration(
    a: Automaton, p: Picture, budget: Budget | None = None
) -> Configuration:
    """Start of every run: initial state, head on interior cell (1,1)."""
    missing = p.symbols() - set(a.alphabet)
    if missing:
        raise AlphabetError(
            f"picture uses symbols {sorted(missing)} outside machine alphabet"
        )
    up, left = _resolve_budget(a, budget)
    return Configuration(a.initial, 1, 1, up, left)


def _successors(
    a: Automaton, p: Picture, c: Configuration
) -> list[tuple[Direction, Configuration]]:
    """Enabled moves in declaration order.

    A transition is disabled if it would carry the head off the frame, or
    if it moves U (resp. L) with no remaining up (resp. left) budget.
    Budgets decrement on U/L moves; an infinite budget stays infinite.
    """
    if c.state == a.accepting:
        return []
    symbol = cell_at(p, c.row, c.col)
    out = []
    for target, direction in a.transitions_from(c.state, symbol):
        drow, dcol = DELTAS[direction]
        row, col = c.row + drow, c.col + dcol
        if not (0 <= row <= p.rows + 1 and 0 <= col <= p.cols + 1):
            continue
        up, left = c.up_left, c.left_left
        if direction is Direction.U:
            if up == 0:
                continue
            up = up if up == INF else up - 1
        elif direction is Direction.L:
            if left == 0:
                continue
            left = left if left == INF else left - 1
        out.append((direction, Configuration(target, row, col, up, left)))
    return out


def step(a: Automaton, p: Picture, c: Configuration) -> tuple[Configuration, ...]:
    """Successor configurations of ``c``; empty means stuck (halt-reject)."""
    return tuple(cfg for _, cfg in _successors(a, p, c))


def config_space_bound(a: Automaton, p: Picture, budget: Budget | None = None) -> int:
    """Size bound of the configuration space: |Q| * (rows+2) * (cols+2) *
    (up+1) * (left+1), with an infinite budget counting as one layer."""
    up, left = _resolve_budget(a, budget)
    up_layers = 1 if up == INF else int(up) + 1
    left_layers = 1 if left == INF else int(left) + 1
    return len(a.states) * (p.rows + 2) * (p.cols + 2) * up_layers * left_layers


#: Inverse of DELTAS: the direction of a move, read off its row/col delta.
_DIRECTION_OF = {delta: direction for direction, delta in DELTAS.items()}


def _search(
    a: Automaton, p: Picture, budget: Budget | None
) -> tuple[dict[Configuration, Configuration | None], Configuration | None]:
    """Breadth-first search from the initial configuration, expanding
    successors in declaration order and stopping at the first accepting
    configuration.

    Returns the discovery map (each configuration reached, mapped to the
    one that first reached it, the start to None, in discovery order) and
    that accepting configuration, or None.
    """
    ensure_valid(a)
    start = initial_configuration(a, p, budget)
    parents: dict[Configuration, Configuration | None] = {start: None}
    if start.state == a.accepting:
        return parents, start
    frontier = deque([start])
    while frontier:
        c = frontier.popleft()
        for _, nxt in _successors(a, p, c):
            if nxt in parents:
                continue
            parents[nxt] = c
            if nxt.state == a.accepting:
                return parents, nxt
            frontier.append(nxt)
    return parents, None


def _move(c: Configuration, nxt: Configuration) -> TraceStep:
    return TraceStep(c, _DIRECTION_OF[nxt.row - c.row, nxt.col - c.col])


def _steps_to(
    parents: dict[Configuration, Configuration | None], end: Configuration
) -> tuple[TraceStep, ...]:
    """The steps of the discovery path from the start to ``end``."""
    steps = []
    prev = parents[end]
    while prev is not None:
        steps.append(_move(prev, end))
        end, prev = prev, parents[prev]
    steps.reverse()
    return tuple(steps)


def run_deterministic(
    a: Automaton, p: Picture, budget: Budget | None = None
) -> tuple[RunOutcome, Trace]:
    """Run a deterministic machine to its unique outcome.

    Accept on entering the accepting state, halt-reject on a stuck
    configuration, and loop as soon as a configuration repeats.  The run
    graph of a deterministic machine is a path, so the search discovers
    exactly the run; when it finds no accepting configuration, the last
    one discovered either has no successor (halt-reject) or re-enters one
    seen before (loop).  The trace records the path up to the outcome (for
    a loop, up to and including the first re-entry).
    """
    ensure_valid(a)
    if a.mode != "det":
        raise ModeError(f"machine {a.name!r} is nondeterministic")
    parents, goal = _search(a, p, budget)
    if goal is not None:
        return RunOutcome.ACCEPT, Trace(_steps_to(parents, goal), goal, RunOutcome.ACCEPT)
    last = next(reversed(parents))
    steps = _steps_to(parents, last)
    successors = _successors(a, p, last)
    if not successors:
        return RunOutcome.REJECT_HALT, Trace(steps, last, RunOutcome.REJECT_HALT)
    _, again = successors[0]
    return RunOutcome.LOOP, Trace(steps + (_move(last, again),), again, RunOutcome.LOOP)


def accepts(a: Automaton, p: Picture, budget: Budget | None = None) -> bool:
    """True iff some run reaches the accepting state.

    Breadth-first reachability over the finite configuration graph; exact
    and terminating for deterministic and nondeterministic machines alike,
    looping runs included.
    """
    return _search(a, p, budget)[1] is not None


def accepting_trace(
    a: Automaton, p: Picture, budget: Budget | None = None
) -> Trace | None:
    """Canonical accepting trace, or None if the picture is rejected.

    Shortest under breadth-first order; among equal-length runs the one
    whose moves come first in transition declaration order wins, so the
    result is stable across calls.
    """
    parents, goal = _search(a, p, budget)
    if goal is None:
        return None
    return Trace(_steps_to(parents, goal), goal, RunOutcome.ACCEPT)


def decide_complement(a: Automaton, p: Picture, budget: Budget | None = None) -> bool:
    """True iff the deterministic run does not accept (halts stuck or loops).

    This is the semantic side of complementation: runs of the complement
    language are decided without building a complement machine.
    """
    outcome, _ = run_deterministic(a, p, budget)
    return outcome is not RunOutcome.ACCEPT


def language_sample(a: Automaton, rows_max: int, cols_max: int) -> list[Picture]:
    """All accepted pictures with rows <= rows_max and cols <= cols_max,
    in enumeration order (rows, then cols, then cell order)."""
    ensure_valid(a)
    sample = []
    for rows in range(1, rows_max + 1):
        for cols in range(1, cols_max + 1):
            for p in enumerate_pictures(a.alphabet, rows, cols):
                if accepts(a, p):
                    sample.append(p)
    return sample


def format_trace(trace: Trace) -> str:
    """Text form: one line per step, final line tagged ACCEPT/REJECT/LOOP."""
    lines = []
    for config, direction in trace.steps:
        lines.append(
            f"{config.state} ({config.row},{config.col}) "
            f"up={fmt_budget(config.up_left)} left={fmt_budget(config.left_left)} "
            f"--{direction.value}-->"
        )
    final = trace.final
    lines.append(
        f"{final.state} ({final.row},{final.col}) "
        f"up={fmt_budget(final.up_left)} left={fmt_budget(final.left_left)} "
        f"{trace.outcome.value}"
    )
    return "\n".join(lines)
