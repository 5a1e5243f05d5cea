"""Decidable execution of machines on pictures.

The run state of a machine is a :class:`Configuration`: control state,
head position in frame coordinates, and the remaining budgets.  The
configuration space is finite (an infinite budget is represented as a
single non-decrementing layer), so its reachability terminates.  Whether
a machine accepts a picture is one decision (``_decide``), made by one
of two engines:

* bitsets (``_Tables.bitsets``), for a picture whose long side reaches
  ``_BITSET_MIN``: one int per low part and frame line holds every
  position along the long side where the head can stand, so one move
  applies to all of them at once.  They also tell whether some reached
  configuration has no move.  A cycle that gains one cell per round makes
  them give up;
* otherwise one breadth-first search of the configuration graph
  (``_Tables.explore``), which leaves its discovery map.

``accepts``, ``run_deterministic`` and ``accepting_trace`` read that
decision three ways:

* acceptance: whether the accepting state is reached,
* canonical shortest accepting traces, with ties broken by transition
  declaration order, so repeated calls return bit-identical traces, and
* deterministic runs, whose run graph is a path, so the search ends on
  the accepting state, a stuck configuration or a repeated one.  A run
  that does not accept halts iff it reaches a cell with no move, and
  ``_decide`` tells that on both engines.

Every trace is one walk back along a search's discovery map (``_walk``).
A picture the bitsets decided is searched for its trace with the bitsets
skipped, so ``accepting_trace`` searches a wide picture only if the
bitsets accept it.

The search also runs for a whole shape at once: ``_decide_shape`` decides
every picture of one shape under a list of budgets, for the sweeps and
``language_sample``, in one ``explore`` call per distinct budget, and
returns only the runs of enumeration indices each budget accepts: it
makes no picture, and a caller decodes those it reads from the shape's
rows.  That search starts with every cell of the frame unread and forks,
once per symbol, where it first reads one.  It walks the fork tree within
the call, undoing each branch before the next, so the pictures that agree
on the cells a branch read share it, and reports each branch's end to its
caller.  It forks only where some filling of the unread cells may still
accept (``_Tables.viable``), so a budget whose start is not such a
configuration rejects the whole shape with no search.  The tables of a
budget keep each shape's accepted runs (up to ``_KEPT_RUNS``), so a later
call for the same shape and budget makes no search.  A machine that takes
no L move crosses the columns left to right, and ``_Tables.across`` steps
it over one column at a time, for sweeps that count whole widths by
columns.  Each column step is one ``explore`` call too, from the set that
enters the column, so ``explore`` is the one search of configurations:
traces, small pictures, whole shapes and column steps all run on it, and
only the bitsets search otherwise.

The search runs over the compiled form of the machine under the
resolved budget (``_Tables``), not over :class:`Configuration` values.
That one object holds the integer tables, the start of every run and the
searches themselves, and it is cached on the machine, so a sweep sets it
up once per budget for all its pictures.  The picture is laid out once per
search as one flat frame, and each configuration is one int packing the
frame index of the head with the state and the budget layers.  One move
is no search: ``step``, and ``_decide`` telling a halt from a loop after
a search, read it off one table row.  Only what a caller reads is decoded:
the trace of ``run_deterministic`` holds its search, or on a wide picture
nothing, until the first read of its steps or final configuration, since
many callers read only the outcome.

All functions are pure in (machine, picture, budget override) and safe to
call concurrently: the tables they cache on a machine, and what those
keep per budget, shape and row count, are filled idempotently (two
threads that fill one entry store equal values).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache, partial
from itertools import islice
from typing import Callable, NamedTuple, Sequence

from .grid import BOUNDARY, AlphabetError, Picture, _picture_at, _shape_rows, cell_at
from .machine import INF, Automaton, Budget, Direction, ensure_valid, fmt_budget


class ModeError(ValueError):
    """Deterministic-only operation applied to a nondeterministic machine."""


class BudgetOverrideError(ValueError):
    """A run-time budget override is not an (up, left) pair or exceeds the
    machine's declared budget."""


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
    """A run: the steps taken (configuration, direction) and where it ended.

    A trace from ``run_deterministic`` holds only how to decode its path
    (or, on a wide picture, to search it) until ``steps`` or ``final`` is
    first read, and then decodes both.  It equals, hashes like and prints
    like the trace built from the decoded fields.
    """

    steps: tuple[TraceStep, ...]
    final: Configuration
    outcome: RunOutcome

    @classmethod
    def _lazy(
        cls, decode: Callable[[], tuple[tuple[TraceStep, ...], Configuration]], outcome: RunOutcome
    ) -> Trace:
        """The trace whose steps and final configuration ``decode()``
        gives, called on the first read of either."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "outcome", outcome)
        object.__setattr__(trace, "_pending", decode)
        return trace

    def __getattr__(self, name: str):
        # Called only for an attribute the instance lacks: on a lazy trace,
        # ``steps`` and ``final`` until the first read of either sets both.
        if name in ("steps", "final") and (decode := self.__dict__.get("_pending")):
            steps, final = decode()
            object.__setattr__(self, "steps", steps)
            object.__setattr__(self, "final", final)
            self.__dict__.pop("_pending", None)  # another thread may have decoded too
        if name not in self.__dict__:  # or set by a thread that decoded since the lookup
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__[name]

    def directions(self) -> tuple[Direction, ...]:
        return tuple(step.direction for step in self.steps)

    def configurations(self) -> tuple[Configuration, ...]:
        return tuple(step.config for step in self.steps) + (self.final,)


def _resolve_budget(a: Automaton, override: Budget | None) -> Budget:
    """The budget a run of ``a`` spends: the override if one is given,
    else the declared one.  An override is an (up, left) pair that may
    only lower the declared budget (BudgetOverrideError otherwise), and it
    may budget a direction the policy leaves free: ``Budget(INF, 0)`` runs
    a machine with L free as if L were budgeted at 0, so no L move is
    taken.  That starves a free direction, which is itself a restriction
    experiment."""
    if override is None:
        return a.budget
    try:
        up, left = override
    except (TypeError, ValueError):
        raise BudgetOverrideError(
            f"budget override must be an (up, left) pair, got {override!r}"
        ) from None
    up = Budget.check(up, "up")
    left = Budget.check(left, "left")
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
    """Start of every run: initial state, head on interior cell (1,1).
    Checks the machine, the picture and the budget in that order, as every
    search does."""
    ensure_valid(a)
    _layout(a, p)
    up, left = _resolve_budget(a, budget)
    return Configuration(a.initial, 1, 1, up, left)


def config_space_bound(a: Automaton, p: Picture, budget: Budget | None = None) -> int:
    """Size bound of the configuration space: |Q| * (rows+2) * (cols+2) *
    the budget layers of one state (``_Tables.per_state``).  The machine
    must be well-formed (MachineInvalidError otherwise)."""
    ensure_valid(a)
    per_state = _tables(a, *_resolve_budget(a, budget)).per_state
    return len(a.states) * (p.rows + 2) * (p.cols + 2) * per_state


#: Direction codes of the move rows: a direction's index here (a
#: Direction is a str, and ``str.index`` is cheaper than hashing an enum).
_CODES = "UDLR"

#: Ring cells of the frame are laid out under ``#`` plus the sides they lie
#: on, each mapped to the codes of the moves that would leave the frame
#: from it.  The move rows leave those moves out, so the search never
#: checks frame bounds.
_RING: dict[str, frozenset[int]] = {
    BOUNDARY + vertical + horizontal: frozenset(
        _CODES.index(side) for side in vertical + horizontal
    )
    for vertical in ("U", "", "D")
    for horizontal in ("L", "", "R")
    if vertical or horizontal
}
_UL, _U, _UR, _L, _R, _DL, _D, _DR = _RING  # in the order built above

#: The ring part of a row whose state has no move on ``#``.
_NO_RING_MOVES: dict[str, tuple] = dict.fromkeys(_RING, ())


def _cell_key(p: Picture, row: int, col: int) -> str:
    """Frame key of one cell: its symbol, or on the ring ``#`` plus the
    sides it lies on.  Raises FrameError off the frame."""
    symbol = cell_at(p, row, col)
    if symbol != BOUNDARY:
        return symbol
    vertical = "U" if row == 0 else "D" if row == p.rows + 1 else ""
    horizontal = "L" if col == 0 else "R" if col == p.cols + 1 else ""
    return BOUNDARY + vertical + horizontal


@lru_cache(maxsize=64)
def _frame_keys(alphabet: tuple[str, ...]) -> frozenset[str]:
    """The cell keys a frame over ``alphabet`` may hold: its symbols and
    the ring keys.  Every search checks its frame against this set, and
    fresh machines share a few alphabets, so it is built once for each."""
    return frozenset(alphabet).union(_RING)


def _layout(a: Automaton, p: Picture) -> list[str]:
    """The frame of ``p`` as one flat row-major list of its (rows+2) *
    (cols+2) cell keys (as ``_cell_key`` gives them).  Raises
    AlphabetError if ``p`` uses a symbol outside the alphabet of ``a``."""
    cells = p.cells
    cols = len(cells[0])
    frame = [_UL, *[_U] * cols, _UR]
    for row in cells:
        frame.append(_L)
        frame += row
        frame.append(_R)
    frame.append(_DL)
    frame += [_D] * cols
    frame.append(_DR)
    if not _frame_keys(a.alphabet).issuperset(frame):
        missing = set(frame).difference(a.alphabet, _RING)
        raise AlphabetError(
            f"picture uses symbols {sorted(missing)} outside machine alphabet"
        )
    return frame


class _Ones(dict):
    """``str.translate`` table of one symbol of an alphabet: it writes that
    symbol as "1", the alphabet's others as "0" and any other character
    as "x", which ``int`` refuses."""

    def __missing__(self, key: int) -> str:
        return "x"


@lru_cache(maxsize=64)
def _ones(alphabet: tuple[str, ...]) -> tuple[tuple[str, _Ones], ...]:
    """The ``_Ones`` table of each symbol of ``alphabet``."""
    return tuple((s, _Ones({ord(x): "1" if x == s else "0" for x in alphabet})) for s in alphabet)


def _lines(a: Automaton, p: Picture) -> tuple[list[dict[str, int]], bool]:
    """The frame of ``p`` as lines along its long side (its columns if it
    is tall, else its rows), ring lines included, each as a mask per cell
    key present: bit k is set where position k of the line holds that key.
    An inner line is read from text: a row as the picture holds it, a
    column as a stride slice of all rows joined.  Also whether ``p`` is
    tall.  Raises AlphabetError as ``_layout`` does."""
    tall = p.rows > p.cols
    # The ring keys of the first line, of the inner lines' ends, and of the last line.
    wide = ((_UL, _U, _UR), (_L, _R), (_DL, _D, _DR))
    first, ends, last = ((_UL, _L, _DL), (_U, _D), (_UR, _R, _DR)) if tall else wide
    ones = _ones(a.alphabet)
    if not ones:
        _layout(a, p)  # raises: no symbol is in an empty alphabet
    top = 1 << max(p.rows, p.cols) + 1
    lines = [dict(zip(first, (1, top - 2, top)))]
    joined = "".join(p.cells) if tall else ""
    for text in (joined[c :: p.cols] for c in range(p.cols)) if tall else p.cells:
        text = text[::-1]
        line, rest = {ends[0]: 1, ends[1]: top}, top - 2
        try:  # the last symbol holds the cells no other one does
            for symbol, table in ones[:-1] or ones:
                line[symbol] = mask = int(text.translate(table), 2) << 1
                rest ^= mask
        except ValueError:
            _layout(a, p)  # raises, naming the symbols outside the alphabet
        if len(ones) > 1:
            line[ones[-1][0]] = rest
        lines.append(line)
    lines.append(dict(zip(last, (1, top - 2, top))))
    return lines, tall


#: Builds a NamedTuple from a tuple of its fields as ``_make`` does, minus
#: a Python-level call per item: decoding long paths is a hot loop.
_new = tuple.__new__


class _Tables(dict):
    """A valid machine under one resolved budget, as integer tables, and
    the searches over them: ``explore``, the one search of configurations
    (a whole shape's fork tree and an ``across`` column step are each one
    call of it), and the ``bitsets`` of wide pictures.

    State ids follow declaration order, except that the accepting state
    takes the last id.  A configuration is the int ``pos << shift | low``:
    ``pos`` is the row-major frame index of the head and ``low = (state *
    up_layers + up) * left_layers + left``.  Layer counts come from the
    resolved budget: a finite budget ``b`` (0 included) has ``b + 1``
    layers counting what is left of it, an infinite one a single layer
    that never decrements.  ``low`` encodes that layout and ``fields``
    decodes it; nothing else does.  A configuration accepts iff ``low >=
    accepting``; ``start`` is the low part of the initial configuration.

    The dict maps a low part to its row: every cell key (each symbol and
    each ring key) to the enabled moves as ``(low delta, direction code)``
    pairs in declaration order.  Each low part's row is built on first
    use, since a search over a small picture reaches few.

    Besides the rows it keeps what depends only on the machine, the
    budget and a shape or a row count, each built on first use: the runs
    of each shape's pictures it accepts (``shapes``, filled by
    ``_decide_shape`` for a shape of at most ``_KEPT_RUNS`` runs), the
    column steps of each row count (``columns``, filled by
    ``experiments._column_counts``) and whether the machine has an L move
    (``moves_left``).  It keeps nothing that depends on one picture's
    cells, so one instance serves every picture searched under its
    budget.  The picture comes in per call as its laid-out frame and its
    width in frame columns.
    """

    def __init__(self, a: Automaton, up: int | float, left: int | float) -> None:
        super().__init__()
        self.states = states = tuple(s for s in a.states if s != a.accepting) + (a.accepting,)
        self.ids = {state: index for index, state in enumerate(states)}
        # The tables keep the transitions, not ``a``: cached on the machine,
        # they form no reference cycle and die with it by reference counting.
        self.transitions = a.transitions
        self.symbols = a.alphabet + (BOUNDARY,)
        self.up_inf = up == INF
        self.left_inf = left == INF
        self.left_layers = 1 if self.left_inf else left + 1
        self.per_state = (1 if self.up_inf else up + 1) * self.left_layers
        self.shift = (len(states) * self.per_state - 1).bit_length()
        self.mask = (1 << self.shift) - 1
        self.accepting = (len(states) - 1) * self.per_state
        self.start = self.low(self.ids[a.initial], up, left)
        self.shapes: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self.columns: dict[int, dict[frozenset[int] | None, tuple[bool, list]]] = {}

    def __missing__(self, low: int) -> dict[str, tuple[tuple[int, int], ...]]:
        """Build the row of ``low``, whose state and budget left ``fields``
        reads: a U (resp. L) move needs up (resp. left) budget and steps
        down one layer of a finite one; a ring key gets the ``#`` moves
        minus those that leave the frame.  A move's low delta is its
        target's low part with no budget left (``ids[target] * per_state``)
        less that of ``low``'s state, plus its cost."""
        name, up, left = self.fields(low)
        # Per direction code (U, D, L, R as in ``_CODES``), the low delta of
        # a move besides its change of state, or None where the budget left
        # cannot pay for it.
        cost = (
            0 if self.up_inf else -self.left_layers if up else None,
            0,
            0 if self.left_inf else -1 if left else None,
            0,
        )
        get, index, ids, per_state = self.transitions.get, _CODES.index, self.ids, self.per_state
        offset, row = low - low % per_state, {}
        for symbol in self.symbols:
            moves = []
            for target, direction in get((name, symbol), ()):
                code = index(direction)
                if cost[code] is not None:
                    moves.append((ids[target] * per_state - offset + cost[code], code))
            row[symbol] = tuple(moves)
        boundary = row.pop(BOUNDARY)
        if not boundary:
            row.update(_NO_RING_MOVES)
        else:
            codes = {code for _, code in boundary}
            for key, leaving in _RING.items():
                row[key] = boundary if leaving.isdisjoint(codes) else tuple(
                    [move for move in boundary if move[1] not in leaving]
                )
        self[low] = row
        return row

    def low(self, state: int, up: int | float, left: int | float) -> int:
        """The low part of state id ``state`` with that budget left."""
        low = state * self.per_state + (0 if self.up_inf else up) * self.left_layers
        return low + (0 if self.left_inf else left)

    def fields(self, low: int) -> tuple[str, int | float, int | float]:
        """The state name and the up and left budget left of ``low``."""
        state, rest = divmod(low, self.per_state)
        up, left = divmod(rest, self.left_layers)
        return self.states[state], INF if self.up_inf else up, INF if self.left_inf else left

    @cached_property
    def moves_left(self) -> bool:
        """Whether some transition moves L, read once per machine and budget."""
        return any(d == Direction.L for moves in self.transitions.values() for _, d in moves)

    def explore(
        self, frame: list[str | None], width: int, queue: list[int] | None = None,
        viable: dict[int, int] | None = None, weights: list[int] | None = None,
        report: Callable[[int | None, int, list[list[int]]], object] | None = None,
    ) -> tuple[dict[int, int | None], int | None]:
        """Breadth-first search over the laid-out ``frame``, ``width``
        columns wide, from the initial configuration on cell (1,1), or from
        ``queue`` if given, in move declaration order, until an accepting
        configuration is dequeued.

        Returns the discovery map (each configuration reached, mapped to
        the one that first reached it, the first ones to None, in discovery
        order) and that accepting configuration, or None.  Discovery order
        is FIFO order, so the accepting configuration dequeued first is the
        one discovered first.

        The frame may hold unread cells (None).  With no ``report``, a
        configuration dequeued on one goes no further: that is where each R
        move of an ``across`` step stops.  With one, the search is a fork
        tree over one shape: dequeuing a configuration on an unread cell
        whose ``viable`` bit is set (some filling lets it accept) forks the
        search there, reading the cell as each symbol of the alphabet in
        turn; one whose bit is clear goes no further.  A branch ends where
        an accepting configuration is dequeued or the queue runs out, and
        ``report(goal, base, forks)`` gets that configuration or None, the
        enumeration index of the branch's first picture (the sum of each
        read cell's symbol index times its ``weights`` entry) and the forks
        open, each ``[frame index, symbol index, queue length, queue
        index]``.  Then the search undoes what the branch discovered and
        goes on with the next symbol of the last fork that has one.  A
        symbol on which the forking configuration has no move, with nothing
        queued behind it, ends a branch that accepts nothing, so it is
        skipped unreported.  Once every fork is done, every cell it read is
        unread again, and it returns None; the discovery map it returns with
        it still holds the last branch's configurations and means nothing.
        """
        mask, shift, accepting = self.mask, self.shift, self.accepting
        if queue is None:
            start = (width + 1) << shift | self.start
            parents, queue, index = {start: None}, [start], 0
        else:
            parents, index = dict.fromkeys(queue), 0
        if report is not None:
            symbols, forks, base = self.symbols[:-1], [], 0
        # A move adds its low delta and the frame-index delta of its direction.
        step = (-width << shift, width << shift, -1 << shift, 1 << shift)
        while True:
            try:  # outside the loop, so that the loop pays nothing for forks
                for c in islice(queue, index, None):  # the queue grows while it is read
                    low = c & mask
                    if low >= accepting:
                        break
                    for delta, direction in self[low][frame[c >> shift]]:
                        nxt = c + delta + step[direction]
                        if nxt not in parents:
                            parents[nxt] = c
                            queue.append(nxt)
                else:
                    c = None
            except KeyError:
                if frame[c >> shift] is not None:
                    raise
                index = queue.index(c, index)  # dequeue ``c`` again, reading the symbol
                if report is not None and viable[c & mask] >> (c >> shift) & 1:
                    forks.append([c >> shift, 0, len(queue), index])
                    frame[c >> shift] = symbols[0]
                else:  # or go on past it, leaving the cell unread
                    index += 1
                continue
            if report is None:
                return parents, c
            report(c, base, forks)
            # Undo the branch and go on with the next symbol of the last fork that has one.
            while forks:
                pos, old, length, index = fork = forks[-1]
                value = old + 1
                if index + 1 == length:  # nothing queued behind the forking configuration
                    moves = self[queue[index] & mask]
                    while value < len(symbols) and not moves[symbols[value]]:
                        value += 1
                if value < len(symbols):
                    break
                base -= old * weights[pos]
                frame[pos] = None
                forks.pop()
            else:
                return parents, None
            for c in islice(queue, length, None):
                del parents[c]
            del queue[length:]
            base += (value - old) * weights[pos]
            fork[1], frame[pos] = value, symbols[value]

    def viable(self, frame: list[str | None], width: int) -> dict[int, int]:
        """Per low part below ``accepting`` that the start reaches over the
        cell keys of ``frame``, one int with bit k set where the
        configuration at frame index k can still reach an accepting one,
        closed backwards over the move rows with an unread cell (None) read
        as every symbol.  That over-approximates each filling, so a
        configuration whose bit is clear accepts on none.

        A walk forward over the move rows finds those low parts; then
        sweeps over them, in reverse order of discovery, recompute each
        one's bits from its targets' (and its own, again while they grow)
        until a sweep changes none.  The bits only grow, so that is the
        least fixed point."""
        masks: dict[str, int] = {}
        for pos, cell in enumerate(frame):
            for key in self.symbols[:-1] if cell is None else (cell,):
                masks[key] = masks.get(key, 0) | 1 << pos
        step, accepting = (-width, width, -1, 1), self.accepting
        # Per low part reached, in discovery order, the cells of its moves by
        # (target, frame-index delta).
        moves: dict[int, dict[tuple[int, int], int]] = {}
        todo = [self.start]
        for low in todo:  # the list grows while it is read
            if low not in moves:
                out = moves[low] = {}
                row = self[low]
                for key, mask in masks.items():
                    for delta, code in row[key]:
                        edge = (low + delta, step[code])
                        out[edge] = out.get(edge, 0) | mask
                        if edge[0] < accepting:
                            todo.append(edge[0])
        viable = dict.fromkeys(moves, 0)
        grew = True
        while grew:
            grew = False
            for low in reversed(moves):  # the low parts found late lie nearer acceptance
                while True:  # again while it grows, so a self-loop closes in one sweep
                    bits = 0
                    for (target, move), mask in moves[low].items():
                        # An accepting target holds every cell: no move leaves the frame.
                        landed = viable.get(target, -1)
                        bits |= mask & (landed >> move if move > 0 else landed << -move)
                    if bits == viable[low]:
                        break
                    viable[low], grew = bits, True
        return viable

    def bitsets(self, lines: list[dict[str, int]], tall: bool) -> tuple[bool, bool] | None:
        """Reachability from the initial configuration over the frame lines
        of ``_lines``, on bitsets.  A node ``line << shift | low`` holds one
        int with bit k set where configurations of that low part stand at
        position k of that line.  A move along the line shifts the bits of
        the cells it is enabled on; a move across goes to the next or the
        previous line's node.  Each expansion closes the self-loops along
        the line once: up by one carry through the run, down by a
        Kogge-Stone fill.  A cell that one pass misses (one the down fill
        reached that leads further up) is added by the self-loop moves
        themselves, which queue the node again.

        Returns whether an accepting configuration is reached and whether
        some reached configuration has no move, or None once the node
        expansions pass 8 per node reached plus 64: a cycle through several
        nodes gains a cell per round, which ``explore`` pays once per cell."""
        shift, low_mask, accepting = self.shift, self.mask, self.accepting
        hop = 1 << shift
        # Per direction code (U, D, L, R as in ``_CODES``), the change of
        # node and the shift of the bits: +1 up the line, -1 down it.
        across, along = ((-hop, 0), (hop, 0)), ((0, -1), (0, 1))
        moves = along + across if tall else across + along
        if self.start >= accepting:
            return True, False
        node = hop | self.start  # on position 1 of line 1: cell (1,1)
        reach, done, queue = {node: 2}, {}, [node]
        halts, expansions = False, 0
        for node in queue:  # the queue grows while it is read
            bits = reach[node]
            if bits == done.get(node):
                continue
            row, masks = self[node & low_mask], lines[node >> shift]
            loops = [0, 0, 0]  # by shift: the cells of the self-loops along the line
            for key, mask in masks.items():
                for delta, code in row[key]:
                    if not delta and not moves[code][0]:
                        loops[moves[code][1]] |= mask
            up, down = loops[1], loops[-1]
            expansions += 1
            bits |= (up + (bits & up)) ^ up
            fill, run, span = bits & down, down, 1
            while run and fill:
                fill |= run & (fill >> span)
                run &= run >> span
                span <<= 1
            bits |= fill >> 1
            front = bits ^ done.get(node, 0)
            reach[node] = done[node] = bits
            for key, mask in masks.items():
                here = front & mask
                if not here:
                    continue
                halts |= not row[key]
                for delta, code in row[key]:
                    step, shifted = moves[code]
                    target = node + delta + step
                    if target & low_mask >= accepting:
                        return True, halts
                    old = reach.get(target, 0)
                    new = old | (here << 1 if shifted > 0 else here >> 1 if shifted else here)
                    if new != old:
                        reach[target] = new
                        queue.append(target)
            if expansions > 8 * len(reach) + 64:
                return None
        return False, halts

    def across(
        self, entering: frozenset[int], rows: int, column: str | None
    ) -> frozenset[int] | None:
        """One frame column of a ``rows``-row picture, for a machine that
        takes no L move: the inner column whose cells, top to bottom,
        ``column`` holds, or the right ring column if it is None.  Closes
        the configurations ``entering`` it (ints ``row << shift | low``)
        under the U and D moves, and returns the targets of the R moves,
        which enter the next column, or None once an accepting
        configuration is reached.

        The closure is one ``explore`` call with no fork tree, whose queue
        starts as ``entering``, over a frame three columns wide: this column
        in the middle and unread cells (None) on both sides.  No move goes
        left, and each R move stops on the unread right-hand column, since
        with no fork tree nothing forks."""
        keys = (_UR, *[_R] * rows, _DR) if column is None else (_U, *column, _D)
        frame = [cell for key in keys for cell in (None, key, None)]
        shift, mask = self.shift, self.mask
        codes = [(c >> shift) * 3 + 1 << shift | c & mask for c in entering]
        parents, goal = self.explore(frame, 3, codes)
        if goal is not None:
            return None
        # The R moves stopped on the unread right column; one column back, they enter the next.
        return frozenset(
            (c >> shift) // 3 << shift | c & mask for c in parents if (c >> shift) % 3 == 2
        )

    def successors(self, code: int, key: str, width: int) -> list[int]:
        """The codes one move from configuration ``code`` on a cell keyed
        ``key``, in declaration order, read off its row as ``explore``
        reads them (``[]`` for a key with no entry)."""
        step, moves = (-width, width, -1, 1), self[code & self.mask].get(key, ())
        return [code + delta + (step[direction] << self.shift) for delta, direction in moves]

    def decode(self, codes: list[int], width: int) -> list[Configuration]:
        shift, mask = self.shift, self.mask
        fields: dict[int, tuple[str, int | float, int | float]] = {}
        out = []
        for c in codes:
            low = c & mask
            known = fields.get(low)
            if known is None:
                known = fields[low] = self.fields(low)
            state, up, left = known
            row, col = divmod(c >> shift, width)
            out.append(_new(Configuration, (state, row, col, up, left)))
        return out

    def steps(self, path: list[int], width: int) -> tuple[tuple[TraceStep, ...], Configuration]:
        """The steps and the final configuration of a trace along a path
        of codes; each step's direction is read off the frame-index delta
        to the next code."""
        configs = self.decode(path, width)
        shift = self.shift
        direction_of = {-width: Direction.U, width: Direction.D, -1: Direction.L, 1: Direction.R}
        steps = tuple(
            _new(TraceStep, (config, direction_of[(after >> shift) - (before >> shift)]))
            for config, before, after in zip(configs, path, islice(path, 1, None))
        )
        return steps, configs[-1]


def _tables(a: Automaton, up: int | float, left: int | float) -> _Tables:
    """The tables of the valid machine ``a`` under the resolved budget,
    built once and cached on the machine, so that they die with it.  They
    and ``validate``'s record are all that a machine carries."""
    by_budget = a.__dict__.get("_tables") or a.__dict__.setdefault("_tables", {})
    tables = by_budget.get((up, left))
    if tables is None:
        tables = by_budget[up, left] = _Tables(a, up, left)
    return tables


#: Pictures whose long side has at least this many cells are decided on
#: bitsets first; on smaller ones ``explore`` is as fast or faster.
_BITSET_MIN = 64


def _decide(
    a: Automaton, p: Picture, budget: Budget | None, search: bool = False
) -> tuple[bool, bool, tuple | None]:
    """Whether ``a`` accepts ``p``: the one decision that ``accepts``,
    ``run_deterministic`` and ``accepting_trace`` read.  Checks the
    machine, the picture's symbols and the budget, in that order.  A
    picture whose long side reaches ``_BITSET_MIN`` is decided on bitsets
    (``_Tables.bitsets``), unless ``search`` is set or they give up, and
    that gives ``(accepted, halts, None)``: ``halts`` tells whether some
    reached configuration has no move.  Any other is searched
    (``_Tables.explore``), and that gives ``(accepted, halts, found)``:
    ``halts`` tells whether the last configuration discovered has no move
    (False if the search accepts), and ``found`` is the tables, the frame
    and its width, and what ``explore`` returns, which ``_walk`` reads.
    For a deterministic machine, whose run is a path, both engines' ``halts``
    say whether a run that does not accept halts rather than loops."""
    ensure_valid(a)
    wide = not search and (len(p.cells) >= _BITSET_MIN or len(p.cells[0]) >= _BITSET_MIN)
    # The picture as the engine reads it, its lines or its frame, which checks
    # its symbols: a bad picture is reported before a bad budget.
    frame = _lines(a, p) if wide else _layout(a, p)
    tables, width = _tables(a, *_resolve_budget(a, budget)), p.cols + 2
    if wide:
        decided = tables.bitsets(*frame)
        if decided is not None:
            return (*decided, None)
        frame = _layout(a, p)
    parents, goal = tables.explore(frame, width)
    last = next(reversed(parents)) if goal is None else goal
    halts = goal is None and not tables[last & tables.mask][frame[last >> tables.shift]]
    return goal is not None, halts, (tables, frame, width, parents, goal)


def _walk(
    a: Automaton, p: Picture, budget: Budget | None, found: tuple | None
) -> tuple[tuple[TraceStep, ...], Configuration]:
    """The steps and the final configuration of a searched run: ``found``,
    what ``_decide`` searched, or else a search of ``p`` made now with the
    bitsets skipped.  Its path goes back along the discovery map from the
    accepting configuration, or where there is none from the last one
    discovered and then on to that one's successors.  So it is the
    canonical accepting trace, and a deterministic run, whose run graph is
    a path, in discovery order up to where it accepts, halts (no
    successor) or loops (the one it re-enters).  It is a module-level
    function, not a lambda, so that the ``partial`` of it an unread
    deterministic trace holds pickles and deep-copies."""
    tables, frame, width, parents, goal = found or _decide(a, p, budget, True)[2]
    last = next(reversed(parents)) if goal is None else goal
    path = [last]
    while (last := parents[last]) is not None:
        path.append(last)
    del parents  # decode the path without the discovery map alive
    path.reverse()
    if goal is None:
        path += tables.successors(path[-1], frame[path[-1] >> tables.shift], width)
    return tables.steps(path, width)


def step(a: Automaton, p: Picture, c: Configuration) -> tuple[Configuration, ...]:
    """Successor configurations of ``c`` in transition declaration order;
    empty means stuck (halt-reject).  The machine must be well-formed
    (MachineInvalidError otherwise), and ``c`` inside the frame.  They are
    read off one table row with no search (``_Tables.successors``); a
    symbol outside the alphabet has no moves."""
    key = _cell_key(p, c.row, c.col)
    ensure_valid(a)
    if c.state not in a.states:
        return ()
    up, left = Budget.check(c.up_left, "up"), Budget.check(c.left_left, "left")
    tables, width = _tables(a, up, left), p.cols + 2
    code = (c.row * width + c.col) << tables.shift | tables.low(tables.ids[c.state], up, left)
    return tuple(tables.decode(tables.successors(code, key, width), width))


def run_deterministic(
    a: Automaton, p: Picture, budget: Budget | None = None
) -> tuple[RunOutcome, Trace]:
    """Run a deterministic machine to its unique outcome.

    Accept on entering the accepting state, halt-reject on a stuck
    configuration, and loop as soon as a configuration repeats.  The trace
    records the path up to the outcome (for a loop, up to and including
    the first re-entry).  It is decoded on the first read of its steps or
    final configuration, so a caller that reads only the outcome pays for
    no decoding.  Whether a run that does not accept halts is read off
    ``_decide``, on either engine; on a wide picture, decided on bitsets,
    the trace searches on its first read.
    """
    ensure_valid(a)
    if a.mode != "det":
        raise ModeError(f"machine {a.name!r} is nondeterministic")
    accepted, halts, found = _decide(a, p, budget)
    outcome = (
        RunOutcome.ACCEPT if accepted else RunOutcome.REJECT_HALT if halts else RunOutcome.LOOP
    )
    return outcome, Trace._lazy(partial(_walk, a, p, budget, found), outcome)


def accepts(a: Automaton, p: Picture, budget: Budget | None = None) -> bool:
    """True iff some run reaches the accepting state.

    Reachability over the finite configuration graph, on bitsets for a
    wide picture and by breadth-first search otherwise; exact and
    terminating for deterministic and nondeterministic machines alike,
    looping runs included.
    """
    return _decide(a, p, budget)[0]


def accepting_trace(
    a: Automaton, p: Picture, budget: Budget | None = None
) -> Trace | None:
    """Canonical accepting trace, or None if the picture is rejected.

    Shortest under breadth-first order; among equal-length runs the one
    whose moves come first in transition declaration order wins, so the
    result is stable across calls.  A wide picture is searched only if
    the bitsets do not reject it.
    """
    accepted, _, found = _decide(a, p, budget)
    return Trace(*_walk(a, p, budget, found), RunOutcome.ACCEPT) if accepted else None


def decide_complement(a: Automaton, p: Picture, budget: Budget | None = None) -> bool:
    """True iff the deterministic run does not accept (halts stuck or loops).

    This is the semantic side of complementation: runs of the complement
    language are decided without building a complement machine.
    """
    outcome, _ = run_deterministic(a, p, budget)
    return outcome is not RunOutcome.ACCEPT


#: The tables keep a shape's accepted runs only if there are at most this
#: many, so that what they keep stays small: after the L1 check of
#: ``B_L(1)`` at 2 x 9 they hold about 0.4 MB, where keeping every shape's
#: runs held 4.3 MB (Python allocations under tracemalloc).  A shape with
#: more runs is searched again on every call.
_KEPT_RUNS = 4096


def _decide_shape(
    a: Automaton, rows: int, cols: int, budgets: Sequence[Budget]
) -> list[tuple[tuple[int, int], ...]]:
    """Per budget (resolved, in list order), the pictures of the ``rows x
    cols`` shape that ``accepts`` accepts, as runs ``(begin, end)`` of the
    enumeration indices ``begin <= n < end``: sorted and maximal (no two
    touch), within the shape's ``len(a.alphabet) ** (rows * cols)``
    pictures, every index outside them rejected.  The machine must be
    valid and the shape at least 1 x 1; no picture is made, so a caller
    that reads one decodes it from the shape's rows (``_shape_rows``,
    ``_picture_at``).

    Each distinct budget's tables keep the shape's runs (``shapes``)
    when there are at most ``_KEPT_RUNS`` of them, and a later call
    returns them with no search.  Otherwise the budget takes one
    fork-tree search (``_Tables.explore``) over a frame whose cells start
    unread, which forks only where some filling lets the forking
    configuration accept (``viable``, computed for that search): a start
    that no filling lets accept rejects, and an accepting start accepts,
    the whole shape with no search.  A budget listed twice is searched
    once.  Each branch that ends accepting decides the pictures that agree
    on the cells it read: for each value of the unread cells before its
    last read one, an aligned run of indices from the branch's first
    picture (cells count in row-major order, the last fastest; ``weights``
    holds the run one value of each cell spans).  ``join``, the search's
    report, joins each such run as it is found to a run found before it
    that ends where it begins or begins where it ends, so the search holds
    the maximal runs of the pictures accepted so far, not one run per
    accepting branch.  Those, sorted, are the budget's runs.
    """
    total = len(a.alphabet) ** (rows * cols)
    if not total:
        return [() for _ in budgets]
    symbols, width = a.alphabet, cols + 2
    searched = dict.fromkeys(budgets)  # each distinct budget's runs
    for up, left in searched:
        tables = _tables(a, up, left)
        runs = searched[up, left] = tables.shapes.get((rows, cols))
        if runs is not None:
            continue
        frame = [_UL, *[_U] * cols, _UR, *[_L, *[None] * cols, _R] * rows, _DL, *[_D] * cols, _DR]
        # Per frame position, the run of pictures one value of its cell spans.
        weights = [
            len(symbols) ** (rows * cols - (pos // width - 1) * cols - pos % width)
            if cell is None else 0
            for pos, cell in enumerate(frame)
        ]
        # The maximal runs of the pictures accepted so far: each one's end
        # by its begin, and its begin by its end.
        ends: dict[int, int] = {}
        begins: dict[int, int] = {}
        if tables.start >= tables.accepting:
            ends[0] = total  # the start accepts, whatever the cells hold
        elif (viable := tables.viable(frame, width))[tables.start] >> width + 1 & 1:
            def join(goal: int | None, base: int, forks: list[list[int]]) -> None:
                if goal is not None:  # a branch that rejects decides no run
                    # Every branch read (1,1) first, where the start stands.
                    last = max(forks)[0]
                    starts = [base]
                    for weight, cell in zip(weights, frame[:last]):
                        if cell is None:  # unread before the last cell read
                            starts = [n + v * weight for n in starts for v in range(len(symbols))]
                    span = weights[last]
                    for n in starts:
                        # Branches decide disjoint runs, so [n, n + span) joins at
                        # most a run that ends at n and one that begins at n + span.
                        begin, end = begins.pop(n, n), ends.pop(n + span, n + span)
                        ends[begin], begins[end] = end, begin

            tables.explore(frame, width, viable=viable, weights=weights, report=join)
        runs = searched[up, left] = tuple(sorted(ends.items()))
        if len(runs) <= _KEPT_RUNS:
            tables.shapes[rows, cols] = runs
    return [searched[budget] for budget in budgets]


def language_sample(a: Automaton, rows_max: int, cols_max: int) -> list[Picture]:
    """All accepted pictures with rows <= rows_max and cols <= cols_max,
    in enumeration order (rows, then cols, then cell order).  Each shape's
    rows are made once, and only its accepted runs are decoded."""
    ensure_valid(a)
    sample: list[Picture] = []
    for rows in range(1, rows_max + 1):
        for cols in range(1, cols_max + 1):
            (runs,) = _decide_shape(a, rows, cols, [a.budget])
            shape_rows = _shape_rows(a.alphabet, rows, cols)
            for begin, end in runs:
                sample += (_picture_at(shape_rows, rows, n) for n in range(begin, end))
    return sample


def format_trace(trace: Trace) -> str:
    """Text form: one line per step, final line tagged ACCEPT/REJECT/LOOP."""
    tags = [f"--{direction.value}-->" for direction in trace.directions()]
    return "\n".join(
        f"{c.state} ({c.row},{c.col}) "
        f"up={fmt_budget(c.up_left)} left={fmt_budget(c.left_left)} {tag}"
        for c, tag in zip(trace.configurations(), tags + [trace.outcome.value])
    )
