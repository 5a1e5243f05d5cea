"""Reference simulator and reference oracles.

The simulator is the pure breadth-first search over named configurations
that the compiled kernel in ``gridfa.simulator`` must reproduce bit for
bit.  It reads the machine's transition table and the picture's cells
directly (no integer tables, no frame layout), so it shares no logic with
the code under test beyond the public value types.  Tests compare
verdicts, canonical traces, deterministic outcomes and single steps
against it.

``table_row`` is a white-box piece: the row of a compiled table, built
by a plain loop over each move, against which the rows
``gridfa.simulator._Tables`` builds are checked.  ``column_step`` is the
other: a witness language's column step, by a plain loop over its row
pairs.

The oracles are one hand-written scan per witness language, with no
shared pair form, against which ``gridfa.languages`` (its oracles and
its member counts) is checked.

``find_crossing_match`` is the splice matcher written for any number of
downward crossings per run, with a key set per pair, over the reference
traces.  The matcher of ``gridfa.experiments``, which keeps one crossing
per run, must return the same pair and event, or raise the same error.
"""

from __future__ import annotations

from collections import deque

import gridfa as g
from gridfa.experiments import CrossingEvent, crossing_events
from gridfa.machine import DELTAS, Direction
from gridfa.simulator import _CODES, _RING

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


def find_crossing_match(
    machine: Automaton,
    words: Sequence[Picture],
    boundary: int,
) -> tuple[Picture, Picture, CrossingEvent] | None:
    """First pair of distinct words whose canonical traces cross ``boundary``
    downward in the same column and state.

    A trace that ever crosses the boundary upward is left out of the
    matching, which is the stronger condition the multi-pair splice
    argument needs.

    Pairs are tried first-major, and a word is traced when the first pair
    that holds it is tried.  So the first word is always traced, a match
    with it traces the words up to its partner and no more, and a later
    match, or none, traces them all.  The words must be accepted: the
    first rejected word traced, which is the first in list order, raises
    ValueError.  A rejected word after the match is never traced.
    """
    signatures: dict[int, list[CrossingEvent]] = {}

    def signature(index: int) -> list[CrossingEvent]:
        if index not in signatures:
            trace = accepting_trace(machine, words[index])
            if trace is None:
                raise ValueError(
                    f"machine {machine.name!r} rejects a supplied word:\n{words[index]}"
                )
            events = [e for e in crossing_events(trace) if e.boundary == boundary]
            if any(e.direction is Direction.U for e in events):
                signatures[index] = []
            else:
                signatures[index] = [e for e in events if e.direction is Direction.D]
        return signatures[index]

    for first in range(len(words)):
        events = signature(first)
        for second in range(first + 1, len(words)):
            if words[first] == words[second]:
                continue
            keys = {(e.col, e.state) for e in signature(second)}
            for event in events:
                if (event.col, event.state) in keys:
                    return words[first], words[second], event
    return None


def table_row(tables, low: int) -> dict:
    """The row of low part ``low`` of ``tables`` (a ``_Tables``), move by
    move: each symbol, and each ring key, mapped to its enabled moves as
    ``(low delta, direction code)`` pairs in declaration order."""
    per_state, left_layers = tables.per_state, tables.left_layers
    state, rest = divmod(low, per_state)
    up, left = divmod(rest, left_layers)
    up_ok, left_ok = tables.up_inf or up > 0, tables.left_inf or left > 0
    name, ids, row = tables.states[state], tables.ids, {}
    for symbol in tables.symbols:
        moves = []
        for target, direction in tables.transitions.get((name, symbol), ()):
            code = _CODES.index(direction)
            delta = (ids[target] - state) * per_state
            if direction is g.Direction.U:
                if not up_ok:
                    continue
                if not tables.up_inf:
                    delta -= left_layers
            elif direction is g.Direction.L:
                if not left_ok:
                    continue
                if not tables.left_inf:
                    delta -= 1
            moves.append((delta, code))
        row[symbol] = tuple(moves)
    boundary = row.pop("#")
    for key, leaving in _RING.items():
        row[key] = tuple(move for move in boundary if move[1] not in leaving)
    return row


def column_step(lang_id: str, state: tuple[int, ...], column: str) -> tuple[int, ...]:
    """The state after ``column`` (its cells' text, top to bottom) of a
    witness language's automaton over columns, row pair by row pair: the
    other white-box piece, against which the steps that
    ``gridfa.languages._Language`` keeps are checked.  A pair's count is
    of its stacked columns, capped at the number its language counts to;
    M's and S's go one past that, and stay there, once membership ends: a
    lone 1 or a third stacked column for M, and for S a column that is not
    stacked or one past its width."""
    kind, index = lang_id[0], int(lang_id[1:])
    need = {"L": 2, "M": 2, "N": 1, "K": 2 * index, "S": index}[kind]
    counts = []
    for pair, count in enumerate(state):
        upper, lower = column[2 * pair] == "1", column[2 * pair + 1] == "1"
        if kind == "M" and upper != lower:
            count = need + 1
        elif kind == "M" and upper:
            count = min(count + 1, need + 1)
        elif kind == "S":
            count = count + 1 if upper and lower and count < need else need + 1
        elif kind != "M" and upper and lower:
            count = min(count + 1, need)
        counts.append(count)
    return tuple(counts)


def _stacked(upper, lower) -> int:
    return sum(1 for a, b in zip(upper, lower) if a == "1" and b == "1")


def _exact_pair(upper, lower) -> bool:
    if upper.count("1") != 2 or lower.count("1") != 2:
        return False
    first = upper.index("1")
    return lower[first] == "1" == lower[upper.index("1", first + 1)]


def in_L(i: int, p: g.Picture) -> bool:
    cells = p.cells
    if len(cells) != 2 * i:
        return False
    for r in range(0, 2 * i, 2):
        if _stacked(cells[r], cells[r + 1]) < 2:
            return False
    return True


def in_M(i: int, p: g.Picture) -> bool:
    cells = p.cells
    if len(cells) != 2 * i:
        return False
    for r in range(0, 2 * i, 2):
        if not _exact_pair(cells[r], cells[r + 1]):
            return False
    return True


def in_N1(p: g.Picture) -> bool:
    return p.rows == 2 and _stacked(*p.cells) >= 1


def in_N2(p: g.Picture) -> bool:
    cells = p.cells
    return len(cells) == 4 and _stacked(*cells[:2]) >= 1 and _stacked(*cells[2:]) >= 1


def in_K(i: int, p: g.Picture) -> bool:
    return p.rows == 2 and _stacked(*p.cells) >= 2 * i


def in_S(i: int, p: g.Picture) -> bool:
    return p.rows == 2 and p.cols == i and all(sym == "1" for row in p.cells for sym in row)


def oracle(lang_id: str):
    """The reference membership predicate of a language id."""
    kind, index = lang_id[0], int(lang_id[1:])
    if kind == "N":
        return in_N1 if index == 1 else in_N2
    member = {"L": in_L, "M": in_M, "K": in_K, "S": in_S}[kind]
    return lambda p: member(index, p)
