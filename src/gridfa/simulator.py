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
  that does not accept halts iff it reaches a cell with no move.

Every trace is one walk back along a search's discovery map (``_walk``).
A picture the bitsets decided is searched for its trace with the bitsets
skipped, so ``accepting_trace`` searches a wide picture only if the
bitsets accept it.

The search also runs for a whole shape at once: ``_decide_shape`` decides
every picture of one shape under a list of budgets, for the sweeps and
``language_sample``, in one search per distinct budget.  That search
starts with every cell of the frame unread and forks, once per symbol,
where it first reads one, so the pictures that agree on the cells a
branch read share it.
It forks only where some filling of the unread cells may still accept
(``_Tables.viable``), so a budget whose start is not such a configuration
rejects the whole shape with no search, and one whose start reaches no
accepting low part over any cells (``_Tables.can_accept``) rejects every shape
with no frame analysis either.  A machine that takes no L move
crosses the columns left to right, and ``_Tables.across`` steps it over
one column at a time, for sweeps that count whole widths by columns.

The search runs over the compiled form of the machine under the
resolved budget (``_Tables``), not over :class:`Configuration` values.
That one object holds the integer tables, the start of every run and the
searches themselves, and it is cached on the machine, so a sweep sets it
up once per budget for all its pictures.  The picture is laid out once per
search as one flat frame, and each configuration is one int packing the
frame index of the head with the state and the budget layers.  One move
is no search: ``step``, and ``run_deterministic`` telling a halt from a
loop, read it off one table row.  Only what a caller reads is decoded:
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
        decode = self.__dict__.get("_pending") if name in ("steps", "final") else None
        if decode is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        steps, final = decode()
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "final", final)
        self.__dict__.pop("_pending", None)  # another thread may have decoded too
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
    the search over them.

    State ids follow declaration order, except that the accepting state
    takes the last id.  A configuration is the int ``pos << shift | low``:
    ``pos`` is the row-major frame index of the head and ``low = (state *
    up_layers + up) * left_layers + left``.  Layer counts come from the
    resolved budget: a finite budget ``b`` (0 included) has ``b + 1``
    layers counting what is left of it, an infinite one a single layer
    that never decrements.  A configuration accepts iff ``low >=
    accepting``; ``start`` is the low part of the initial configuration.

    The dict maps a low part to its row: every cell key (each symbol and
    each ring key) to the enabled moves as ``(low delta, direction code)``
    pairs in declaration order.  Each low part's row is built on first
    use, since a search over a small picture reaches few.

    Besides the rows it keeps what depends only on the machine, the
    budget and at most a shape or a row count, each built on first use:
    the low-part graph (``graph``, ``can_accept``), the ``viable`` bits
    of each shape's all-unread frame (``shapes``, read by
    ``_decide_shape``) and the column steps of each row count
    (``columns``, filled by ``experiments._column_counts``).  It keeps
    nothing that depends on a picture's cells, so one instance serves
    every picture searched under its budget.  The picture comes in per
    call as its laid-out frame and its width in frame columns.
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
        self.offsets = {state: index * self.per_state for state, index in self.ids.items()}
        self.shift = (len(states) * self.per_state - 1).bit_length()
        self.mask = (1 << self.shift) - 1
        self.accepting = (len(states) - 1) * self.per_state
        self.start = self.low(self.ids[a.initial], up, left)
        self.shapes: dict[tuple[int, int], dict[int, int]] = {}
        self.columns: dict[int, dict[frozenset[int] | None, tuple[bool, list]]] = {}

    def __missing__(self, low: int) -> dict[str, tuple[tuple[int, int], ...]]:
        """Build the row of ``low``: a U (resp. L) move needs up (resp.
        left) budget and steps down one layer of a finite one; a ring key
        gets the ``#`` moves minus those that leave the frame."""
        left_layers = self.left_layers
        state, rest = divmod(low, self.per_state)
        up, left = divmod(rest, left_layers)
        # Per direction code (U, D, L, R as in ``_CODES``), the low delta of
        # a move besides its change of state, or None where the budget left
        # cannot pay for it.
        cost = (
            0 if self.up_inf else -left_layers if up else None,
            0,
            0 if self.left_inf else -1 if left else None,
            0,
        )
        name, get, index = self.states[state], self.transitions.get, _CODES.index
        offsets, offset, row = self.offsets, low - rest, {}
        for symbol in self.symbols:
            moves = []
            for target, direction in get((name, symbol), ()):
                code = index(direction)
                if cost[code] is not None:
                    moves.append((offsets[target] - offset + cost[code], code))
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

    def explore(
        self, frame: list[str | None], width: int,
        resume: tuple[dict[int, int | None], list[int], int, list[list[int]], dict[int, int]]
        | None = None,
    ) -> tuple[dict[int, int | None], int | None]:
        """Breadth-first search over the laid-out ``frame``, ``width``
        columns wide, from the initial configuration on cell (1,1), in move
        declaration order, until an accepting configuration is dequeued.

        Returns the discovery map (each configuration reached, mapped to
        the one that first reached it, the start to None, in discovery
        order) and that accepting configuration, or None.  Discovery order
        is FIFO order, so the accepting configuration dequeued first is the
        one discovered first.

        ``resume`` goes on with a search whose frame may hold unread cells
        (None): its discovery map and queue, which grow in place, the queue
        index to dequeue next, its list of forks and the frame's ``viable``
        bitsets.  Without it the search starts afresh, with no forks and no
        bitsets, on a frame whose every cell is read.  Dequeuing a
        configuration on an unread cell forks the search there: it appends
        ``[frame index, 0, queue length, queue index]`` to the forks and
        reads the cell as the first symbol of the alphabet, unless its
        ``viable`` bit is clear: no filling lets it accept, so it is skipped
        and the cell stays unread.
        """
        mask, shift, accepting = self.mask, self.shift, self.accepting
        start = (width + 1) << shift | self.start
        parents, queue, index, forks, viable = resume or ({start: None}, [start], 0, None, None)
        # A move adds its low delta and the frame-index delta of its direction.
        step = (-width << shift, width << shift, -1 << shift, 1 << shift)
        while True:
            try:  # outside the loop, so that the loop pays nothing for forks
                for c in islice(queue, index, None):  # the queue grows while it is read
                    low = c & mask
                    if low >= accepting:
                        return parents, c
                    for delta, direction in self[low][frame[c >> shift]]:
                        nxt = c + delta + step[direction]
                        if nxt not in parents:
                            parents[nxt] = c
                            queue.append(nxt)
                return parents, None
            except KeyError:
                if frame[c >> shift] is not None:
                    raise
                index = queue.index(c, index)  # dequeue ``c`` again, reading the symbol
                if viable[c & mask] >> (c >> shift) & 1:
                    forks.append([c >> shift, 0, len(queue), index])
                    frame[c >> shift] = self.symbols[0]
                else:  # or go on past it, leaving the cell unread
                    index += 1

    @cached_property
    def graph(self) -> dict[int, dict[tuple[int, int], tuple[str, ...]]]:
        """The low-part graph: per low part below ``accepting`` that the
        start reaches over every cell key, in discovery order, the keys of
        its moves by (target, direction code)."""
        keys, accepting = (*self.symbols[:-1], *_RING), self.accepting
        moves: dict[int, dict[tuple[int, int], tuple[str, ...]]] = {}
        todo = [self.start]
        for low in todo:  # the list grows while it is read
            if low not in moves:
                out = moves[low] = {}
                row = self[low]
                for key in keys:
                    for delta, code in row[key]:
                        edge = (low + delta, code)
                        out[edge] = out.get(edge, ()) + (key,)
                        if edge[0] < accepting:
                            todo.append(edge[0])
        return moves

    @cached_property
    def can_accept(self) -> bool:
        """Whether the start, or a move of ``graph``, is accepting.  If
        not, no picture is accepted under this budget."""
        return self.start >= self.accepting or any(
            target >= self.accepting for out in self.graph.values() for target, _ in out
        )

    def viable(self, frame: list[str | None], width: int) -> dict[int, int]:
        """Per low part of ``graph``, one int with bit k set where the
        configuration at frame index k can still reach an accepting one,
        closed backwards over the move rows with an unread cell (None) read
        as every symbol.  That over-approximates each filling, so a
        configuration whose bit is clear accepts on none.

        Sweeps over the low parts, in reverse order of discovery, recompute
        each one's bits from its targets' (and its own, again while they
        grow) until a sweep changes none.  The bits only grow, so that is
        the least fixed point."""
        masks: dict[str, int] = {}
        for pos, cell in enumerate(frame):
            for key in self.symbols[:-1] if cell is None else (cell,):
                masks[key] = masks.get(key, 0) | 1 << pos
        step = (-width, width, -1, 1)
        # Per low part, the cells of its moves by (target, frame-index delta).
        moves: dict[int, dict[tuple[int, int], int]] = {}
        for low, out in self.graph.items():
            edges = moves[low] = {}
            for (target, code), keys in out.items():
                mask = 0
                for key in keys:
                    mask |= masks.get(key, 0)
                edges[target, step[code]] = mask
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

    def unread(self, frame: list[str | None], rows: int, cols: int) -> dict[int, int]:
        """``viable`` of ``frame``, the all-unread frame of the ``rows x
        cols`` shape, computed once per shape."""
        viable = self.shapes.get((rows, cols))
        if viable is None:
            viable = self.shapes[rows, cols] = self.viable(frame, cols + 2)
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
        configuration is reached."""
        keys = (_UR, *[_R] * rows, _DR) if column is None else (_U, *column, _D)
        mask, shift, accepting = self.mask, self.shift, self.accepting
        step = (-1 << shift, 1 << shift)
        reached, queue, right = set(entering), list(entering), set()
        for c in queue:  # the queue grows while it is read
            low = c & mask
            if low >= accepting:
                return None
            for delta, direction in self[low][keys[c >> shift]]:
                if direction == 3:  # R
                    right.add(c + delta)
                elif (nxt := c + delta + step[direction]) not in reached:
                    reached.add(nxt)
                    queue.append(nxt)
        return frozenset(right)

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
    built once and cached on the machine, so that they die with it."""
    by_budget = a.__dict__.get("_tables")
    if by_budget is None:
        by_budget = {}
        object.__setattr__(a, "_tables", by_budget)
    tables = by_budget.get((up, left))
    if tables is None:
        tables = by_budget[up, left] = _Tables(a, up, left)
    return tables


#: Pictures whose long side has at least this many cells are decided on
#: bitsets first; on smaller ones ``explore`` is as fast or faster.
_BITSET_MIN = 64


def _decide(
    a: Automaton, p: Picture, budget: Budget | None, search: bool = False
) -> tuple[bool, bool | None, tuple | None]:
    """Whether ``a`` accepts ``p``: the one decision that ``accepts``,
    ``run_deterministic`` and ``accepting_trace`` read.  Checks the
    machine, the picture's symbols and the budget, in that order.  A
    picture whose long side reaches ``_BITSET_MIN`` is decided on bitsets
    (``_Tables.bitsets``), unless ``search`` is set or they give up, and
    that gives ``(accepted, halts, None)``: ``halts`` tells whether some
    reached configuration has no move.  Any other is searched
    (``_Tables.explore``), and that gives ``(accepted, None, found)``:
    ``found`` is the tables, the frame and its width, and what ``explore``
    returns, which ``_walk`` reads."""
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
    return goal is not None, None, (tables, frame, width, parents, goal)


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
    no decoding.  A searched run halts iff the row of the last
    configuration it discovers has no move there.  On a wide picture the
    outcome is read off the bitsets: the run is a path, so it halts iff
    some configuration it reaches has no move, and the trace searches on
    its first read.
    """
    ensure_valid(a)
    if a.mode != "det":
        raise ModeError(f"machine {a.name!r} is nondeterministic")
    accepted, halts, found = _decide(a, p, budget)
    if found is not None and not accepted:
        tables, frame, _, parents, _ = found
        last = next(reversed(parents))
        halts = not tables[last & tables.mask][frame[last >> tables.shift]]
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


def _decide_shape(
    a: Automaton, rows: int, cols: int, budgets: Sequence[Budget]
) -> tuple[list[str], list[list[tuple[int, bool]]]]:
    """The rows of the ``rows x cols`` shape (``_shape_rows``) and, per
    budget (resolved, in list order), the verdicts of one ``accepts`` call
    per picture as runs ``(end, verdict)`` of enumeration indices, each
    starting where the one before it ends, the first at 0, and no two
    neighbours alike.  The machine must be valid.

    Each distinct budget takes one search over a frame whose cells start
    unread, which forks where it first dequeues a configuration on an
    unread cell (``_Tables.explore``): it goes on from there once per
    symbol, and deletes what one branch discovered before the next.  It skips, leaving
    the cell unread, a configuration no filling lets accept (``viable``,
    kept per shape): a start that is one rejects, and an accepting start
    accepts, the whole shape with no search, and a budget whose start
    reaches no accepting low part (``can_accept``) rejects it with no
    ``viable`` either.  A budget listed twice is searched once, and
    both places hold the same list of runs.  A branch ends at an
    accepting configuration or an empty queue and decides the pictures
    that agree on the cells it read: for each value of the unread cells
    before its last read one, an aligned run of indices (cells count in
    row-major order, the last fastest).  Each accepted run is joined, as it
    is found, to a run found before it that ends where it begins or begins
    where it ends, so the search holds the maximal runs of the pictures
    accepted so far, not one run per accepting branch.  Those, sorted,
    give the verdicts.
    """
    shape_rows = _shape_rows(a.alphabet, rows, cols)
    total = len(shape_rows) ** rows
    if not total:
        return shape_rows, [[] for _ in budgets]
    symbols, width = a.alphabet, cols + 2
    frame = [_UL, *[_U] * cols, _UR, *[_L, *[None] * cols, _R] * rows, _DL, *[_D] * cols, _DR]
    # Per frame position, the run of pictures one value of its cell spans.
    weights = [
        len(symbols) ** (rows * cols - (pos // width - 1) * cols - pos % width)
        if cell is None else 0
        for pos, cell in enumerate(frame)
    ]
    searched: dict[tuple[int | float, int | float], list[tuple[int, bool]]] = {}
    for up, left in dict.fromkeys(budgets):
        tables = _tables(a, up, left)
        # The maximal runs of the pictures accepted so far: each one's end
        # by its begin, and its begin by its end.
        ends: dict[int, int] = {}
        begins: dict[int, int] = {}
        if tables.start >= tables.accepting:
            ends[0] = total  # the start accepts, whatever the cells hold
        elif tables.can_accept and (
            (viable := tables.unread(frame, rows, cols))[tables.start] >> width + 1 & 1
        ):
            start = (width + 1) << tables.shift | tables.start
            parents, queue, index, forks = {start: None}, [start], 0, []
            base = 0  # the index of the branch's first picture
            while True:
                resume = (parents, queue, index, forks, viable)
                if tables.explore(frame, width, resume=resume)[1] is not None:
                    last = max(forks)[0] if forks else 0
                    starts = [base]
                    for weight, cell in zip(weights, frame[:last]):
                        if cell is None:  # unread before the last cell read
                            starts = [n + v * weight for n in starts for v in range(len(symbols))]
                    span = weights[last] if forks else total
                    for n in starts:
                        # Branches decide disjoint runs, so [n, n + span) joins at
                        # most a run that ends at n and one that begins at n + span.
                        begin, end = begins.pop(n, n), ends.pop(n + span, n + span)
                        ends[begin], begins[end] = end, begin
                # Undo the branch and go on with the next symbol of the last fork
                # that has one.  A symbol on which the forking configuration has
                # no move, with nothing queued behind it, rejects without a search.
                while forks:
                    pos, old, length, index = fork = forks[-1]
                    value = old + 1
                    if index + 1 == length:
                        moves = tables[queue[index] & tables.mask]
                        while value < len(symbols) and not moves[symbols[value]]:
                            value += 1
                    if value < len(symbols):
                        break
                    base -= old * weights[pos]
                    frame[pos] = None
                    forks.pop()
                else:
                    break
                for c in islice(queue, length, None):
                    del parents[c]
                del queue[length:]
                base += (value - old) * weights[pos]
                fork[1], frame[pos] = value, symbols[value]
        column: list[tuple[int, bool]] = []
        n = 0
        for begin, end in sorted(ends.items()):
            if begin > n:
                column.append((begin, False))
            column.append((end, True))
            n = end
        if n < total:
            column.append((total, False))
        searched[up, left] = column
    return shape_rows, [searched[budget] for budget in budgets]


def language_sample(a: Automaton, rows_max: int, cols_max: int) -> list[Picture]:
    """All accepted pictures with rows <= rows_max and cols <= cols_max,
    in enumeration order (rows, then cols, then cell order)."""
    ensure_valid(a)
    sample: list[Picture] = []
    for rows in range(1, rows_max + 1):
        for cols in range(1, cols_max + 1):
            shape_rows, (runs,) = _decide_shape(a, rows, cols, [a.budget])
            start = 0
            for end, verdict in runs:
                if verdict:
                    sample += (_picture_at(shape_rows, rows, n) for n in range(start, end))
                start = end
    return sample


def format_trace(trace: Trace) -> str:
    """Text form: one line per step, final line tagged ACCEPT/REJECT/LOOP."""
    tags = [f"--{direction.value}-->" for direction in trace.directions()]
    return "\n".join(
        f"{c.state} ({c.row},{c.col}) "
        f"up={fmt_budget(c.up_left)} left={fmt_budget(c.left_left)} {tag}"
        for c, tag in zip(trace.configurations(), tags + [trace.outcome.value])
    )
