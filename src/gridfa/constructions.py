"""Builders for the concrete recognizers, as explicit transition tables.

Each builder turns a scanning procedure into named state gadgets rather
than interpreting the procedure at run time, so every machine can be
validated, serialized, classified and traced.  Naming scheme used
throughout:

* ``scan*`` / ``seek*`` -- move right through a row looking for a 1 (the
  nondeterministic builders split "pass it" / "take it" on the same 1),
* ``count*_n`` -- finite counting of 1s in a row (0, 1, 2; a third 1 gets
  no transition and strands the run),
* ``verify_down`` / ``verify_up`` / ``check*`` -- one vertical move onto a
  cell that must hold a 1,
* ``return*`` -- walk left to the border (free in three-way policies),
* ``desc*`` / ``down*`` -- descend along the border column to the next
  row pair,
* ``end*`` / ``wcheck`` -- probe one cell past the word to pin its size.

Recognizers promise their language among pictures of that language's
natural row count (their nondeterministic scans never look below the rows
they check, mirroring how the scanning procedures are stated); the
exhaustive checks in :mod:`gridfa.experiments` therefore sweep at fixed
row counts.  ``build_flawed_L1_3W0`` is deliberately *not* a recognizer
of L_1: it is the fixture the splice experiment breaks.

Each builder returns one shared immutable machine per parameter, kept
for the process, so ``build_M_Mi(2) is make_machine("M_Mi", 2)``.  The
simulator caches its compiled tables on a machine, so a sweep repeated
in one process (a second ``hierarchy_report``, or checks of one held
machine against several languages) finds the tables, the per-shape
analyses and the column steps of the first one built.  A one-shot
``gridfa`` call builds and sweeps each machine once and gains nothing
from this.
"""

from __future__ import annotations

from functools import lru_cache

from .languages import ALPHABET_01
from .machine import (
    INF,
    Automaton,
    Budget,
    Direction,
    DirectionPolicy,
    THREE_WAY,
    THREE_WAY_NO_UP,
    TWO_WAY,
    Transition,
)

U, D, L, R = Direction.U, Direction.D, Direction.L, Direction.R


class _Sketch:
    """Accumulates states and edges, then freezes into an Automaton."""

    def __init__(
        self,
        name: str,
        mode: str,
        policy: DirectionPolicy,
        budget: Budget,
    ) -> None:
        self.name = name
        self.mode = mode
        self.policy = policy
        self.budget = budget
        self.states: dict[str, None] = {}  # in order of first mention
        self.table: dict[tuple[str, str], list[Transition]] = {}

    def state(self, *names: str) -> None:
        self.states.update(dict.fromkeys(names))

    def edge(self, source: str, symbols: str, target: str, direction: Direction) -> None:
        """One edge per symbol; '01' fans out over both word symbols."""
        self.state(source, target)
        for symbol in symbols:
            self.table.setdefault((source, symbol), []).append((target, direction))

    def build(self, initial: str, accepting: str) -> Automaton:
        self.state(initial, accepting)
        return Automaton(
            self.name,
            ALPHABET_01,
            tuple(self.states),
            initial,
            accepting,
            self.mode,
            self.policy,
            self.budget,
            {key: tuple(edges) for key, edges in self.table.items()},
        )


#: Keeps the machines a builder made, one per parameter, up to a bound.
_shared = lru_cache(maxsize=32)


def _stacked_pair_gadget(m: _Sketch, prefix: str, done: str, done_dir: Direction) -> str:
    """Nondeterministic check that a row pair has >= 2 stacked columns.

    Enters at the pair's top-left cell, guesses a first 1, verifies the
    cell below, guesses a later second 1 in the lower row, verifies the
    cell above (the single budgeted U move), then hands control to
    ``done`` via ``done_dir``.  Returns the entry state name.
    """
    scan1, vdown, scan2, vup = (
        f"{prefix}scan1",
        f"{prefix}verify_down",
        f"{prefix}scan2",
        f"{prefix}verify_up",
    )
    m.edge(scan1, "01", scan1, R)
    m.edge(scan1, "1", vdown, D)
    m.edge(vdown, "1", scan2, R)
    m.edge(scan2, "01", scan2, R)
    m.edge(scan2, "1", vup, U)
    m.edge(vup, "1", done, done_dir)
    return scan1


@_shared
def build_A_L1() -> Automaton:
    """Nondeterministic three-way recognizer of L_1, one upward move.

    Scans the first row and guesses a stacked column, drops to confirm it,
    scans on through the second row and guesses a second, strictly later
    column, and climbs once to confirm that.  Every accepting run spends
    exactly one unit of up budget; the accept entry moves right so the
    only vertical moves are the two confirmations.
    """
    m = _Sketch("A_L1", "nondet", THREE_WAY, Budget(1, INF))
    entry = _stacked_pair_gadget(m, "", "acc", R)
    return m.build(entry, "acc")


def _chain(
    m: _Sketch, i: int, gadget, entry: str, descend: str, last: str, last_dir: Direction
) -> str:
    """Joins ``i`` copies of ``gadget``, one per row pair, prefixed ``p1_``,
    ``p2_``, ...: after each copy but the last the head walks back to the
    left border (``p<k>_return``), descends two rows along it
    (``p<k>_<descend>1``, ``p<k>_<descend>2``) and enters the next copy at
    its ``entry`` state.  The last copy hands off to ``last`` via
    ``last_dir``.  Returns the first copy's entry state."""
    for k in range(1, i):
        back, step1, step2 = f"p{k}_return", f"p{k}_{descend}1", f"p{k}_{descend}2"
        gadget(m, f"p{k}_", back, L)
        m.edge(back, "01", back, L)
        m.edge(back, "#", step1, D)
        m.edge(step1, "#", step2, D)
        m.edge(step2, "#", f"p{k + 1}_{entry}", R)
    gadget(m, f"p{i}_", last, last_dir)
    return f"p1_{entry}"


@_shared
def build_B_L(i: int) -> Automaton:
    """Nondeterministic three-way recognizer of L_i, ``i`` upward moves.

    Chains the L_1 gadget once per row pair with ``_chain``: after each
    confirmed pair the head walks back to the left border (leftward moves
    are free here), descends two rows along the border, and re-enters the
    gadget.  After the last pair it descends through the pair's lower row
    and accepts only on seeing the bottom frame, so words with extra rows
    are rejected.
    """
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    m = _Sketch(f"B_L{i}", "nondet", THREE_WAY, Budget(i, INF))
    entry = _chain(m, i, _stacked_pair_gadget, "scan1", "desc", "end_probe", D)
    m.edge("end_probe", "01", "end_check", D)
    m.edge("end_check", "#", "acc", L)
    return m.build(entry, "acc")


def _exact_pair_gadget(m: _Sketch, prefix: str, done: str, done_dir: Direction) -> str:
    """Deterministic check that a row pair is an exact two-column pair.

    Counts the upper row's 1s (exactly two), returns to its leftmost 1 and
    verifies the cell below, confirms nothing sits left of that column in
    the lower row, counts the lower row's 1s (exactly two), returns to its
    rightmost 1 and verifies the cell above with the single budgeted U
    move.  Accepting the pair therefore forces both rows to carry 1s in
    the same two columns.
    """
    c10, c11, c12 = f"{prefix}count1_0", f"{prefix}count1_1", f"{prefix}count1_2"
    ret1, seek = f"{prefix}return1", f"{prefix}seek_first"
    vdown, chkl = f"{prefix}verify_down", f"{prefix}check_left"
    c20, c21, c22 = f"{prefix}count2_0", f"{prefix}count2_1", f"{prefix}count2_2"
    ret2, vup = f"{prefix}return2", f"{prefix}verify_up"
    m.edge(c10, "0", c10, R)
    m.edge(c10, "1", c11, R)
    m.edge(c11, "0", c11, R)
    m.edge(c11, "1", c12, R)
    m.edge(c12, "0", c12, R)
    m.edge(c12, "#", ret1, L)
    m.edge(ret1, "01", ret1, L)
    m.edge(ret1, "#", seek, R)
    m.edge(seek, "0", seek, R)
    m.edge(seek, "1", vdown, D)
    m.edge(vdown, "1", chkl, L)
    m.edge(chkl, "0", chkl, L)
    m.edge(chkl, "#", c20, R)
    m.edge(c20, "0", c20, R)
    m.edge(c20, "1", c21, R)
    m.edge(c21, "0", c21, R)
    m.edge(c21, "1", c22, R)
    m.edge(c22, "0", c22, R)
    m.edge(c22, "#", ret2, L)
    m.edge(ret2, "0", ret2, L)
    m.edge(ret2, "1", vup, U)
    m.edge(vup, "1", done, done_dir)
    return c10


@_shared
def build_M_M1() -> Automaton:
    """Deterministic three-way recognizer of M_1, one upward move."""
    m = _Sketch("M_M1", "det", THREE_WAY, Budget(1, INF))
    entry = _exact_pair_gadget(m, "", "acc", R)
    return m.build(entry, "acc")


@_shared
def build_M_Mi(i: int) -> Automaton:
    """Deterministic three-way recognizer of M_i, ``i`` upward moves.

    One exact-pair gadget per row pair, joined by ``_chain``, the same
    walk-left and descend-two-rows step the nondeterministic ``build_B_L``
    uses.
    """
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    m = _Sketch(f"M_M{i}", "det", THREE_WAY, Budget(i, INF))
    entry = _chain(m, i, _exact_pair_gadget, "count1_0", "down", "acc", R)
    return m.build(entry, "acc")


@_shared
def build_P_N2() -> Automaton:
    """Nondeterministic three-way recognizer of N_2 with no upward moves.

    Guesses a stacked column in the first row pair, confirms it downward,
    walks back to the border, descends into the third row, and repeats the
    guess-and-confirm for the second pair.
    """
    m = _Sketch("P_N2", "nondet", THREE_WAY_NO_UP, Budget(0, INF))
    m.edge("scan1", "01", "scan1", R)
    m.edge("scan1", "1", "verify2", D)
    m.edge("verify2", "1", "return_left", L)
    m.edge("return_left", "01", "return_left", L)
    m.edge("return_left", "#", "down3", D)
    m.edge("down3", "#", "scan3", R)
    m.edge("scan3", "01", "scan3", R)
    m.edge("scan3", "1", "verify4", D)
    m.edge("verify4", "1", "acc", R)
    return m.build("scan1", "acc")


@_shared
def build_C_L1_2W() -> Automaton:
    """Nondeterministic two-way recognizer of L_1: one up move, no left moves.

    Identical scan structure to ``build_A_L1``; the gadget never moves
    left, so it fits the stricter two-way policy with budgets (1, 0).
    """
    m = _Sketch("C_L1_2W", "nondet", TWO_WAY, Budget(1, 0))
    entry = _stacked_pair_gadget(m, "", "acc", R)
    return m.build(entry, "acc")


@_shared
def build_D_K(i: int) -> Automaton:
    """Nondeterministic two-way recognizer of K_i with budgets (i, 0).

    Zig-zag gadget: guess a stacked column from the upper row and confirm
    downward, guess a strictly later one from the lower row and confirm
    upward, and repeat ``i`` times in total, consuming one up move per
    repetition; 2i distinct stacked columns get confirmed.  The up budget
    equals the number of zig-zag alternations, which is what the
    exhaustive oracle checks pin down.
    """
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    m = _Sketch(f"D_K{i}", "nondet", TWO_WAY, Budget(i, 0))
    for k in range(1, i + 1):
        pick_down, check_down = f"z{k}_pick_down", f"z{k}_check_down"
        pick_up, check_up = f"z{k}_pick_up", f"z{k}_check_up"
        m.edge(pick_down, "01", pick_down, R)
        m.edge(pick_down, "1", check_down, D)
        m.edge(check_down, "1", pick_up, R)
        m.edge(pick_up, "01", pick_up, R)
        m.edge(pick_up, "1", check_up, U)
        if k < i:
            m.edge(check_up, "1", f"z{k + 1}_pick_down", R)
        else:
            m.edge(check_up, "1", "acc", R)
    return m.build("z1_pick_down", "acc")


@_shared
def build_S_rec(i: int) -> Automaton:
    """Deterministic two-way recognizer of S_{2i+2} with budgets (i+1, 0).

    Boustrophedon sweep over the 2 x (2i+2) all-ones word: down the first
    column, right along the bottom, up the second column, right along the
    top, and so on, visiting every cell and climbing once per even column.
    After the last column it steps right expecting the frame, which pins
    the width exactly.
    """
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    width = 2 * i + 2
    m = _Sketch(f"S_rec{i}", "det", TWO_WAY, Budget(i + 1, 0))
    for c in range(1, width + 1):
        top, bot = f"c{c}_top", f"c{c}_bot"
        if c % 2 == 1:
            m.edge(top, "1", bot, D)
            m.edge(bot, "1", f"c{c + 1}_bot", R)
        else:
            m.edge(bot, "1", top, U)
            nxt = f"c{c + 1}_top" if c < width else "wcheck"
            m.edge(top, "1", nxt, R)
    m.edge("wcheck", "#", "acc", D)
    return m.build("c1_top", "acc")


@_shared
def build_flawed_L1_3W0() -> Automaton:
    """Fixture, not a recognizer: a zero-up-budget attempt at L_1.

    Checks that the first row holds at least two 1s, walks left a guessed
    distance, descends, and checks that the second row holds at least two
    1s from there on.  It accepts every two-row word whose rows each carry
    two 1s in matching columns, but nothing ties the two rows' columns
    together, which is exactly the gap the splice experiment exhibits.
    """
    m = _Sketch("FLAWED_L1_3W0", "nondet", THREE_WAY_NO_UP, Budget(0, INF))
    m.edge("seek1", "0", "seek1", R)
    m.edge("seek1", "1", "seek2", R)
    m.edge("seek2", "0", "seek2", R)
    m.edge("seek2", "1", "walk", R)
    m.edge("walk", "01#", "walk", L)
    m.edge("walk", "01#", "row2_seek1", D)
    m.edge("row2_seek1", "#", "row2_seek1", R)
    m.edge("row2_seek1", "0", "row2_seek1", R)
    m.edge("row2_seek1", "1", "row2_seek2", R)
    m.edge("row2_seek2", "0", "row2_seek2", R)
    m.edge("row2_seek2", "1", "acc", D)
    return m.build("seek1", "acc")


#: Builder registry for the CLI and the experiment harness.  Values are
#: (factory, takes_index_parameter).
BUILDERS: dict[str, tuple[object, bool]] = {
    "A_L1": (build_A_L1, False),
    "B_L": (build_B_L, True),
    "M_M1": (build_M_M1, False),
    "M_Mi": (build_M_Mi, True),
    "P_N2": (build_P_N2, False),
    "C_L1_2W": (build_C_L1_2W, False),
    "D_K": (build_D_K, True),
    "S_rec": (build_S_rec, True),
    "FLAWED_L1_3W0": (build_flawed_L1_3W0, False),
}


def make_machine(builder_id: str, param: int | None = None) -> Automaton:
    """The machine of a builder by id, the one the builder shares;
    parametric builders require ``param``."""
    if builder_id not in BUILDERS:
        known = ", ".join(sorted(BUILDERS))
        raise ValueError(f"unknown builder {builder_id!r}; known: {known}")
    factory, parametric = BUILDERS[builder_id]
    if parametric:
        if param is None:
            raise ValueError(f"builder {builder_id!r} needs a --param index")
        return factory(param)  # type: ignore[operator]
    if param is not None:
        raise ValueError(f"builder {builder_id!r} takes no parameter")
    return factory()  # type: ignore[operator]
