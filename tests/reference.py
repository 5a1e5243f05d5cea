"""Reference simulator: the pure breadth-first search over named
configurations that the compiled kernel in ``gridfa.simulator`` must
reproduce bit for bit.

It reads the machine's transition table and the picture's cells directly
(no integer tables, no frame layout), so it shares no logic with the code
under test beyond the public value types.  Tests compare verdicts,
canonical traces, deterministic outcomes and single steps against it.
"""

from __future__ import annotations

from collections import deque

import gridfa as g
from gridfa.machine import DELTAS

_DIRECTION_OF = {delta: direction for direction, delta in DELTAS.items()}


def _check_valid(a: g.Automaton) -> None:
    problems = g.validate(a)
    if problems:
        raise g.MachineInvalidError(
            f"machine {a.name!r} is not well-formed: " + "; ".join(problems)
        )


def resolve_budget(a: g.Automaton, override: g.Budget | None) -> g.Budget:
    if override is None:
        return a.budget
    up = g.Budget.check(override.up, "up")
    left = g.Budget.check(override.left, "left")
    if up > a.budget.up or left > a.budget.left:
        raise g.BudgetOverrideError("override exceeds declared budget")
    return g.Budget(up, left)


def initial_configuration(
    a: g.Automaton, p: g.Picture, budget: g.Budget | None = None
) -> g.Configuration:
    missing = p.symbols() - set(a.alphabet)
    if missing:
        raise g.AlphabetError(
            f"picture uses symbols {sorted(missing)} outside machine alphabet"
        )
    up, left = resolve_budget(a, budget)
    return g.Configuration(a.initial, 1, 1, up, left)


def successors(
    a: g.Automaton, p: g.Picture, c: g.Configuration
) -> list[tuple[g.Direction, g.Configuration]]:
    """Enabled moves in declaration order: off-frame moves and U (resp. L)
    moves with no up (resp. left) budget left are disabled; a finite
    budget decrements on its move, an infinite one stays infinite."""
    if c.state == a.accepting:
        return []
    symbol = g.cell_at(p, c.row, c.col)
    out = []
    for target, direction in a.transitions_from(c.state, symbol):
        drow, dcol = DELTAS[direction]
        row, col = c.row + drow, c.col + dcol
        if not (0 <= row <= p.rows + 1 and 0 <= col <= p.cols + 1):
            continue
        up, left = c.up_left, c.left_left
        if direction is g.Direction.U:
            if up == 0:
                continue
            up = up if up == g.INF else up - 1
        elif direction is g.Direction.L:
            if left == 0:
                continue
            left = left if left == g.INF else left - 1
        out.append((direction, g.Configuration(target, row, col, up, left)))
    return out


def step(a: g.Automaton, p: g.Picture, c: g.Configuration) -> tuple[g.Configuration, ...]:
    return tuple(cfg for _, cfg in successors(a, p, c))


def search(a, p, budget):
    """Discovery map (in discovery order) and the first accepting
    configuration, or None."""
    _check_valid(a)
    start = initial_configuration(a, p, budget)
    parents = {start: None}
    if start.state == a.accepting:
        return parents, start
    frontier = deque([start])
    while frontier:
        c = frontier.popleft()
        for _, nxt in successors(a, p, c):
            if nxt in parents:
                continue
            parents[nxt] = c
            if nxt.state == a.accepting:
                return parents, nxt
            frontier.append(nxt)
    return parents, None


def _move(c, nxt) -> g.TraceStep:
    return g.TraceStep(c, _DIRECTION_OF[nxt.row - c.row, nxt.col - c.col])


def _steps_to(parents, end) -> tuple[g.TraceStep, ...]:
    steps = []
    prev = parents[end]
    while prev is not None:
        steps.append(_move(prev, end))
        end, prev = prev, parents[prev]
    steps.reverse()
    return tuple(steps)


def accepts(a, p, budget=None) -> bool:
    return search(a, p, budget)[1] is not None


def accepting_trace(a, p, budget=None) -> g.Trace | None:
    parents, goal = search(a, p, budget)
    if goal is None:
        return None
    return g.Trace(_steps_to(parents, goal), goal, g.RunOutcome.ACCEPT)


def run_deterministic(a, p, budget=None) -> tuple[g.RunOutcome, g.Trace]:
    _check_valid(a)
    if a.mode != "det":
        raise g.ModeError(f"machine {a.name!r} is nondeterministic")
    parents, goal = search(a, p, budget)
    if goal is not None:
        return g.RunOutcome.ACCEPT, g.Trace(_steps_to(parents, goal), goal, g.RunOutcome.ACCEPT)
    last = next(reversed(parents))
    steps = _steps_to(parents, last)
    moves = successors(a, p, last)
    if not moves:
        return g.RunOutcome.REJECT_HALT, g.Trace(steps, last, g.RunOutcome.REJECT_HALT)
    _, again = moves[0]
    return g.RunOutcome.LOOP, g.Trace(
        steps + (_move(last, again),), again, g.RunOutcome.LOOP
    )
