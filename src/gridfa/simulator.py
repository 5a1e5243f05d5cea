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

The search runs over the machine's compiled integer tables (see
``machine._compile``), not over :class:`Configuration` values.  The
picture is laid out once per search as one flat frame, and each
configuration is one int packing the frame index of the head with the
state and the budget layers of the resolved budget.  Only the
configurations a caller gets back are decoded.

All functions are pure in (machine, picture, budget override) and safe to
call concurrently: the tables they cache on a machine are filled
idempotently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import NamedTuple

from .grid import BOUNDARY, AlphabetError, Picture, cell_at, enumerate_pictures
from .machine import (
    DIRECTION_CODES,
    INF,
    LEFT_BUDGET,
    UP_BUDGET,
    Automaton,
    Budget,
    Direction,
    _Compiled,
    _Lazy,
    _compile,
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


def _alphabet_error(missing: set[str]) -> AlphabetError:
    return AlphabetError(
        f"picture uses symbols {sorted(missing)} outside machine alphabet"
    )


def initial_configuration(
    a: Automaton, p: Picture, budget: Budget | None = None
) -> Configuration:
    """Start of every run: initial state, head on interior cell (1,1)."""
    missing = p.symbols() - set(a.alphabet)
    if missing:
        raise _alphabet_error(missing)
    up, left = _resolve_budget(a, budget)
    return Configuration(a.initial, 1, 1, up, left)


def config_space_bound(a: Automaton, p: Picture, budget: Budget | None = None) -> int:
    """Size bound of the configuration space: |Q| * (rows+2) * (cols+2) *
    (up+1) * (left+1), with an infinite budget counting as one layer."""
    up, left = _resolve_budget(a, budget)
    up_layers = 1 if up == INF else int(up) + 1
    left_layers = 1 if left == INF else int(left) + 1
    return len(a.states) * (p.rows + 2) * (p.cols + 2) * up_layers * left_layers


#: Ring cells of the frame are laid out under ``#`` plus the sides they lie
#: on, each mapped to the codes of the moves that would leave the frame
#: from it.  The move tables leave those moves out, so the search never
#: checks frame bounds.
_RING: dict[str, frozenset[int]] = {
    BOUNDARY + vertical + horizontal: frozenset(
        DIRECTION_CODES[Direction(side)] for side in vertical + horizontal
    )
    for vertical in ("U", "", "D")
    for horizontal in ("L", "", "R")
    if vertical or horizontal
}


def _cell_key(p: Picture, row: int, col: int) -> str:
    """Frame key of one cell: its symbol, or on the ring ``#`` plus the
    sides it lies on.  Raises FrameError off the frame."""
    symbol = cell_at(p, row, col)
    if symbol != BOUNDARY:
        return symbol
    vertical = "U" if row == 0 else "D" if row == p.rows + 1 else ""
    horizontal = "L" if col == 0 else "R" if col == p.cols + 1 else ""
    return BOUNDARY + vertical + horizontal


def _ring_moves(cell: str, boundary: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The ``#`` moves that stay in the frame from ring cell ``cell``; none
    if ``cell`` is not a ring key (a symbol the state has no moves on)."""
    leaving = _RING.get(cell)
    if leaving is None:
        return ()
    return tuple([move for move in boundary if move[1] not in leaving])


def _layout(p: Picture) -> list[str]:
    """The frame of ``p`` as one flat row-major list of its (rows+2) *
    (cols+2) cell keys (as ``_cell_key`` gives them)."""
    frame = [BOUNDARY + "UL", *[BOUNDARY + "U"] * p.cols, BOUNDARY + "UR"]
    left, right = BOUNDARY + "L", BOUNDARY + "R"
    for row in p.cells:
        frame += [left, *row, right]
    frame += [BOUNDARY + "DL", *[BOUNDARY + "D"] * p.cols, BOUNDARY + "DR"]
    return frame


class _Layers:
    """A compiled machine under one resolved budget.

    A configuration is the int ``pos << shift | low``: ``pos`` is the
    row-major frame index of the head and ``low = (state * up_layers + up)
    * left_layers + left``.  Layer counts come from the resolved budget: a
    finite budget ``b`` (0 included) has ``b + 1`` layers counting what is
    left of it, an infinite one a single layer that never decrements.  The
    accepting state has the last id, so a configuration accepts iff ``low
    >= accepting``.  ``rows[low]`` maps a cell key to the enabled moves as
    ``(low delta, direction code)`` pairs in declaration order, and
    ``fields[low]`` gives the state name and the up and left budget left.
    All fill in as searches first reach them.
    """

    def __init__(self, compiled: _Compiled, up: int | float, left: int | float) -> None:
        states = compiled.states
        self.up_inf = up_inf = up == INF
        self.left_inf = left_inf = left == INF
        self.left_layers = left_layers = 1 if left_inf else left + 1
        self.per_state = per_state = (1 if up_inf else up + 1) * left_layers
        self.shift = (len(states) * per_state - 1).bit_length()
        self.mask = (1 << self.shift) - 1
        self.accepting = (len(states) - 1) * per_state
        moves = compiled.moves

        # The builders close over locals, not ``self``: the tables then hold
        # no reference cycle and die with their machine by reference counting.
        def row(low: int) -> _Lazy:
            """Moves enabled per cell key in the configurations with this
            low part.  A U (resp. L) move needs up (resp. left) budget and
            steps down one layer of a finite one.  A ring key gets the
            ``#`` moves minus those leaving the frame, worked out on first
            use; any other key without moves gets none."""
            state, rest = divmod(low, per_state)
            up, left = divmod(rest, left_layers)
            up_ok, left_ok = up_inf or up > 0, left_inf or left > 0
            enabled_on = _Lazy(lambda cell: _ring_moves(cell, boundary))
            boundary = ()
            for symbol, edges in moves[state].items():
                enabled = []
                for target, direction, kind in edges:
                    delta = (target - state) * per_state
                    if kind == UP_BUDGET:
                        if not up_ok:
                            continue
                        if not up_inf:
                            delta -= left_layers
                    elif kind == LEFT_BUDGET:
                        if not left_ok:
                            continue
                        if not left_inf:
                            delta -= 1
                    enabled.append((delta, direction))
                if symbol == BOUNDARY:
                    boundary = enabled
                else:
                    enabled_on[symbol] = tuple(enabled)
            return enabled_on

        self.rows = _Lazy(row)

        def fields(low: int) -> tuple[str, int | float, int | float]:
            state, rest = divmod(low, per_state)
            up, left = divmod(rest, left_layers)
            return states[state], INF if up_inf else up, INF if left_inf else left

        self.fields = _Lazy(fields)

    def low(self, state: int, up: int | float, left: int | float) -> int:
        return (
            state * self.per_state
            + (0 if self.up_inf else up) * self.left_layers
            + (0 if self.left_inf else left)
        )


def _layers(compiled: _Compiled, up: int | float, left: int | float) -> _Layers:
    layers = compiled.layers.get((up, left))
    if layers is None:
        layers = compiled.layers[up, left] = _Layers(compiled, up, left)
    return layers


#: Builds a NamedTuple from a tuple of its fields as ``_make`` does, minus
#: a Python-level call per item: decoding long paths is a hot loop.
_new = tuple.__new__


class _Run:
    """One machine on one picture under one budget.

    ``frame`` maps frame indexes to cell keys: the whole layout for a
    search, or just the cells a single step reads.
    """

    __slots__ = ("layers", "frame", "width", "step")

    def __init__(self, layers: _Layers, frame, width: int) -> None:
        self.layers = layers
        self.frame = frame
        self.width = width
        shift = layers.shift
        # A move adds its low delta and the frame-index delta of its direction.
        self.step = (-width << shift, width << shift, -1 << shift, 1 << shift)

    def encode(self, state: int, row: int, col: int, up, left) -> int:
        return (row * self.width + col) << self.layers.shift | self.layers.low(state, up, left)

    def explore(
        self, start: int, limit: int | None = None
    ) -> tuple[dict[int, int | None], int | None]:
        """Breadth-first search from ``start``, expanding moves in
        declaration order, over at most ``limit`` configurations (all when
        None), until an accepting configuration is dequeued.

        Returns the discovery map (each configuration reached, mapped to
        the one that first reached it, the start to None, in discovery
        order) and that accepting configuration, or None.  Discovery order
        is FIFO order, so the accepting configuration dequeued first is the
        one discovered first.
        """
        layers, frame, step = self.layers, self.frame, self.step
        rows, mask, shift, accepting = layers.rows, layers.mask, layers.shift, layers.accepting
        parents: dict[int, int | None] = {start: None}
        queue = [start]
        for c in islice(queue, limit):  # the queue grows while it is read
            low = c & mask
            if low >= accepting:
                return parents, c
            for delta, direction in rows[low][frame[c >> shift]]:
                nxt = c + delta + step[direction]
                if nxt not in parents:
                    parents[nxt] = c
                    queue.append(nxt)
        return parents, None

    def successors(self, c: int) -> list[int]:
        """Successor codes of ``c`` in declaration order."""
        return list(self.explore(c, 1)[0])[1:]

    def decode(self, codes: list[int]) -> list[Configuration]:
        layers, width = self.layers, self.width
        shift, mask, fields = layers.shift, layers.mask, layers.fields
        out = []
        for c in codes:
            state, up, left = fields[c & mask]
            row, col = divmod(c >> shift, width)
            out.append(_new(Configuration, (state, row, col, up, left)))
        return out

    def trace(self, path: list[int], outcome: RunOutcome) -> Trace:
        """The trace along a path of codes; each step's direction is read
        off the frame-index delta to the next code."""
        configs = self.decode(path)
        shift, width = self.layers.shift, self.width
        direction_of = {-width: Direction.U, width: Direction.D, -1: Direction.L, 1: Direction.R}
        steps = tuple(
            _new(TraceStep, (config, direction_of[(after >> shift) - (before >> shift)]))
            for config, before, after in zip(configs, path, islice(path, 1, None))
        )
        return Trace(steps, configs[-1], outcome)


def _search(
    a: Automaton, p: Picture, budget: Budget | None
) -> tuple[_Run, dict[int, int | None], int | None]:
    """The one search behind every decision: validate and compile the
    machine, lay out the picture, check its symbols and the budget, and
    explore from the initial configuration (see ``_Run.explore``)."""
    compiled = _compile(a)
    frame = _layout(p)
    missing = set(frame).difference(a.alphabet, _RING)
    if missing:
        raise _alphabet_error(missing)
    up, left = _resolve_budget(a, budget)
    run = _Run(_layers(compiled, up, left), frame, p.cols + 2)
    parents, goal = run.explore(run.encode(compiled.initial, 1, 1, up, left))
    return run, parents, goal


def _path_to(parents: dict[int, int | None], end: int | None) -> list[int]:
    """The discovery path from the start to ``end``."""
    path = []
    while end is not None:
        path.append(end)
        end = parents[end]
    path.reverse()
    return path


def step(a: Automaton, p: Picture, c: Configuration) -> tuple[Configuration, ...]:
    """Successor configurations of ``c`` in transition declaration order;
    empty means stuck (halt-reject).  The machine must be well-formed
    (MachineInvalidError otherwise), and ``c`` inside the frame."""
    key = _cell_key(p, c.row, c.col)
    compiled = _compile(a)
    state = compiled.ids.get(c.state)
    if state is None:
        return ()
    up = Budget.check(c.up_left, "up")
    left = Budget.check(c.left_left, "left")
    width = p.cols + 2
    run = _Run(_layers(compiled, up, left), {c.row * width + c.col: key}, width)
    return tuple(run.decode(run.successors(run.encode(state, c.row, c.col, up, left))))


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
    run, parents, goal = _search(a, p, budget)
    path = _path_to(parents, next(reversed(parents)) if goal is None else goal)
    del parents  # decode the path without the discovery map alive
    if goal is not None:
        return RunOutcome.ACCEPT, run.trace(path, RunOutcome.ACCEPT)
    successors = run.successors(path[-1])
    if not successors:
        return RunOutcome.REJECT_HALT, run.trace(path, RunOutcome.REJECT_HALT)
    path.append(successors[0])
    return RunOutcome.LOOP, run.trace(path, RunOutcome.LOOP)


def accepts(a: Automaton, p: Picture, budget: Budget | None = None) -> bool:
    """True iff some run reaches the accepting state.

    Breadth-first reachability over the finite configuration graph; exact
    and terminating for deterministic and nondeterministic machines alike,
    looping runs included.
    """
    return _search(a, p, budget)[2] is not None


def accepting_trace(
    a: Automaton, p: Picture, budget: Budget | None = None
) -> Trace | None:
    """Canonical accepting trace, or None if the picture is rejected.

    Shortest under breadth-first order; among equal-length runs the one
    whose moves come first in transition declaration order wins, so the
    result is stable across calls.
    """
    run, parents, goal = _search(a, p, budget)
    if goal is None:
        return None
    path = _path_to(parents, goal)
    del parents  # decode the path without the discovery map alive
    return run.trace(path, RunOutcome.ACCEPT)


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
