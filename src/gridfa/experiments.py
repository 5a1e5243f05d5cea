"""Desk-scale experiment harness: oracle sweeps, budget starvation, and
the crossing-point splice counterexample.

Everything here composes the simulator with the oracles (for a machine
that never moves left, with the languages' compiled column automata) and
reports results both as aligned text tables and as ``key=value`` record
lines.
All outputs are reproducible bit for bit: enumeration order is fixed and
traces are canonical.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .grid import Picture, PictureFormatError, _picture_at, _shape_rows
from .languages import (
    _compiled, _member_rank, in_L, make_w, natural_rows, parse_language_id, splice_words,
)
from .machine import Automaton, Budget, Direction, classify, ensure_valid, fmt_budget
from .simulator import Trace, _decide_shape, _resolve_budget, _tables, accepting_trace, accepts
from .constructions import build_M_Mi, build_S_rec


class CrossingEvent(NamedTuple):
    """A vertical head move: crossing of the boundary between two rows.

    ``boundary`` is the index b of the boundary between rows b-1 and b;
    a D event raised the row from b-1 to b, a U event lowered it from b
    to b-1.  ``state`` is the state the machine lands in after the move,
    which is what determines the rest of a deterministic run.
    """

    boundary: int
    col: int
    state: str
    direction: Direction


class BudgetCount(NamedTuple):
    budget: Budget
    accepted: int
    accepted_members: int


class Mismatch(NamedTuple):
    picture: Picture
    machine_accepts: bool
    oracle_accepts: bool


class FoolingParameters(NamedTuple):
    """Machine size m, budget parameter i, and the column count z that
    forces two runs to share a crossing signature."""

    m: int
    i: int
    z: int


@dataclass(frozen=True)
class SweepReport:
    """Result of sweeping a machine against an oracle over all pictures of
    a fixed row count and bounded column count."""

    machine: str
    language: str
    rows: int
    cols_max: int
    per_budget: tuple[BudgetCount, ...]
    member_total: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def format_records(self) -> str:
        lines = []
        for entry in self.per_budget:
            lines.append(
                f"record=sweep machine={self.machine} language={self.language} "
                f"rows={self.rows} cols_max={self.cols_max} "
                f"budget_up={fmt_budget(entry.budget.up)} "
                f"budget_left={fmt_budget(entry.budget.left)} "
                f"accepted={entry.accepted} "
                f"accepted_members={entry.accepted_members} "
                f"member_total={self.member_total} "
                f"mismatches={len(self.mismatches)}"
            )
        return "\n".join(lines)

    def format_table(self) -> str:
        head = (
            f"machine {self.machine} vs {self.language} on "
            f"{self.rows}x(1..{self.cols_max}): "
            f"{self.member_total} members, {len(self.mismatches)} mismatches"
        )
        rows = [head]
        for entry in self.per_budget:
            rows.append(
                f"  budget ({fmt_budget(entry.budget.up)},"
                f"{fmt_budget(entry.budget.left)}): "
                f"accepted {entry.accepted}, members accepted {entry.accepted_members}"
            )
        for miss in self.mismatches[:10]:
            word = miss.picture.to_text().replace("\n", "/")
            rows.append(
                f"  MISMATCH {word}: machine={miss.machine_accepts} "
                f"oracle={miss.oracle_accepts}"
            )
        if len(self.mismatches) > 10:
            rows.append(f"  ... and {len(self.mismatches) - 10} more mismatches")
        return "\n".join(rows)


def oracle_equivalence(a: Automaton, lang_id: str, rows: int, cols_max: int) -> SweepReport:
    """Compare the machine with the language oracle on every picture of the
    given row count with cols <= cols_max, at the declared budget; the
    mismatch list is the whole result."""
    return budget_sweep(a, lang_id, rows, cols_max, [a.budget])


#: A sweep counts by columns only where a column has at most this many
#: fillings (|alphabet| ** rows).  The counts step every pair of states
#: through every filling, and a width they find mismatching is enumerated
#: anyway.  At 16 fillings, counting every width a sweep can enumerate
#: (2 x 1..4 over four symbols, 4 x 1..4 over two) took 0.5-1.8 ms against
#: 45-300 ms of enumeration; at 64 fillings (6 x 1..2) 3-8 ms against 5 ms.
_COLUMNS_MAX = 16


def _column_counts(
    a: Automaton, lang_id: str, rows: int, cols_max: int, budgets: Sequence[Budget]
) -> list[tuple[tuple[int, int, int], ...]] | None:
    """Per width 1..cols_max and per resolved budget in list order, the
    member total and the pictures and members accepted, counted without
    making a picture.  None unless ``rows`` is the language's natural row
    count, the machine never moves left (it has no L transition, or no
    budget leaves it L moves) and a column has at most ``_COLUMNS_MAX``
    fillings.

    Such a machine crosses the frame's columns left to right, so the
    configurations that enter a column and that column's cells decide
    those that enter the next (``_Tables.across``): its verdicts form a
    subset construction over columns (Rabin & Scott, 1959).  Run as a
    product with the language's column automaton (its compiled form,
    ``_Language``), counting on a plain dict the pictures that reach
    each pair of states, it gives every width's counts in one pass.  Each
    entering set is closed once per column filling and once on the right
    ring column, whatever the width, and the closures are kept on the
    tables per row count, for the next sweep of the machine against any
    language; the language's steps are kept on its form, for the next
    sweep of any machine over the alphabet.  A call joins the two once
    per pair of states it reaches, into that pair's list of successors.
    It asks whether the machine has an L transition only under a budget
    that leaves L moves (those of ``S_rec`` and ``D_K`` leave none), and
    the tables read that once (``moves_left``).  It keeps nothing on the
    machine besides its tables.  So a warm call makes no closure, no
    language step and no scan of the transitions, only the sums."""
    form = _compiled(lang_id, a.alphabet, rows)
    if form is None or (fillings := len(a.alphabet) ** rows) > _COLUMNS_MAX:
        return None
    by_budget: dict[Budget, list[tuple[int, int, int]]] = {}
    for budget in dict.fromkeys(budgets):
        tables = _tables(a, *budget)
        if budget.left and tables.moves_left:  # only then can an L transition be taken
            return None
        # Per entering set: whether the ring column after it accepts, and
        # the set entering the next column after each filling.  None stands
        # for an accepted picture, whatever columns follow.  They depend on
        # no language, so the tables keep them per row count.
        after = tables.columns.setdefault(rows, {None: (True, [None] * fillings)})
        # Per product state (entering set, language state), for this call:
        # whether the ring column accepts, whether a member ends there, and
        # the product state after each filling.
        follow: dict[tuple, tuple[bool, bool, list[tuple]]] = {}

        def successors(key: tuple) -> tuple[bool, bool, list[tuple]]:
            entering, state = key
            if entering not in after:
                after[entering] = (
                    tables.across(entering, rows, None) is None,
                    [tables.across(entering, rows, c) for c in _shape_rows(a.alphabet, 1, rows)],
                )
            accepts, crossed = after[entering]
            member, stepped = form[state]
            return follow.setdefault(key, (accepts, member, list(zip(crossed, stepped))))

        paths = {(frozenset([1 << tables.shift | tables.start]), form.start): 1}
        widths = by_budget[budget] = []
        for _ in range(cols_max):
            ahead: dict[tuple, int] = {}
            for key, n in paths.items():
                for pair in (follow.get(key) or successors(key))[2]:
                    ahead[pair] = ahead.get(pair, 0) + n
            paths, total, accepted, members = ahead, 0, 0, 0
            for key, n in paths.items():
                accepts, member, _ = follow.get(key) or successors(key)
                total += n * member
                if accepts:
                    accepted += n
                    members += n * member
            widths.append((total, accepted, members))
    return list(zip(*(by_budget[budget] for budget in budgets)))


def budget_sweep(
    a: Automaton,
    lang_id: str,
    rows: int,
    cols_max: int,
    budgets: Sequence[Budget],
) -> SweepReport:
    """Acceptance counts per budget override, against the same oracle.

    Budgets must not exceed the declared ones (overrides only lower); they
    are resolved in list order before any picture is decided, so the first
    bad one raises BudgetOverrideError.  An override may budget a
    direction the machine's policy leaves free: ``Budget(INF, 0)`` runs a
    machine with L free as if L were budgeted at 0, which starves it of
    every L move (its class, read off the declaration, is unchanged).
    ``cols_max`` below 1 raises ValueError before anything else is
    checked, and then ``cols_max`` above 4096 and ``rows`` above 4096,
    before any table or language form is built: a sweep steps through
    every width, a language's column automaton holds a count per row
    pair, and a shape has ``|alphabet| ** (rows * cols)`` pictures.
    ``rows`` below 1 raises PictureFormatError once the budgets and the
    language id are checked, before any table is built.
    Mismatches are recorded against the last budget in the list,
    told by its position: a budget listed twice shares its runs.

    A machine that never moves left (no L transition, or left budget 0 in
    every listed budget) is counted by columns at the language's natural
    row count, where a column has at most ``_COLUMNS_MAX`` fillings
    (``_column_counts``; 16, so 2 rows over up to four symbols or 4 rows
    over two): every width's counts come without making or searching a
    picture, so the checks of ``A_L1``, ``C_L1_2W`` and ``D_K(3)`` at
    2 x 40 take 1-2 ms, and a warm check at 2 x 7 30-45 us: the machine's
    column closures and the language's column steps are kept, so it only
    sums.  Counts say how many pictures disagree but not which, so a
    width where the last budget's counts disagree is decided picture by
    picture as below, and its mismatches are listed in enumeration order.
    Every other machine and shape takes that path for every width.

    The simulator decides each shape as the runs of enumeration indices
    each budget accepts (``_decide_shape``, which joins each accepted run
    to its neighbours as it finds it, so it holds the maximal runs, not
    one per accepting branch); every index between two runs is rejected.
    The sweep walks each rejected gap and then the accepted run after it,
    and counts the members of each from the language's row-pair table
    (``_member_rank``): one ``rank`` call per run boundary, and one per
    width.  The machine's tables keep each shape's accepted runs per
    budget, up to ``_KEPT_RUNS`` of them, so a repeated sweep searches
    only the shapes with more, and the language's compiled form keeps
    each width's table of up to ``_KEPT_PAIRS`` (4,096) row pairs, so it
    builds only the wider ones again (2 x 7 and up over two symbols).  In
    a gap or a run whose member count disagrees with its verdict, each
    disagreeing picture is found by bisecting that count over it (``miss``),
    so a report costs O(mismatches * log run) counts, not one per picture.
    The first such gap or run of a width makes the shape's rows, to decode
    its mismatches, and the width's later ones reuse them.
    """
    if cols_max < 1:
        raise ValueError(f"need cols_max >= 1, got {cols_max}")
    if cols_max > 4096:  # a sweep steps through every width up to it
        raise ValueError(f"need cols_max <= 4096, got {cols_max}")
    if rows > 4096:  # the language forms and the shapes are sized by the row count
        raise ValueError(f"need rows <= 4096, got {rows}")
    ensure_valid(a)
    if not budgets:
        raise ValueError("budget_sweep needs at least one budget")
    parse_language_id(lang_id)
    resolved = [_resolve_budget(a, budget) for budget in budgets]
    if rows < 1:
        raise PictureFormatError("enumeration needs rows >= 1 and cols >= 1")
    counts = [[0, 0] for _ in resolved]  # accepted, accepted members
    member_total, mismatches = 0, list[Mismatch]()

    def miss(start: int, end: int, verdict: bool, below: int, above: int) -> None:
        # Lists the pictures of [start, end) that the oracle places against
        # ``verdict``.  wrong(n): the pictures below index n that it places
        # so, ``below`` of them below ``start`` and ``above`` below ``end``.
        # Each k in (below, above] is a miss, at n - 1 for the least n with
        # wrong(n) = k.  The width's first call makes the shape's rows, and
        # its later calls reuse them.
        nonlocal shape_rows
        wrong = (lambda n: n - rank(n)) if verdict else rank
        ends, at = range(start + 1, end + 1), 0
        shape_rows = shape_rows or _shape_rows(a.alphabet, rows, cols)
        for k in range(below + 1, above + 1):
            at = bisect_left(ends, k, at, key=wrong)
            picture = _picture_at(shape_rows, rows, start + at)
            mismatches.append(Mismatch(picture, verdict, not verdict))

    counted = _column_counts(a, lang_id, rows, cols_max, resolved)
    for cols in range(1, cols_max + 1):
        if counted:
            total, accepted, members = counted[cols - 1][-1]
            if accepted == members == total:  # the last budget has no mismatch here
                member_total += total
                for count, (_, accepted, members) in zip(counts, counted[cols - 1]):
                    count[0] += accepted
                    count[1] += members
                continue
        verdicts, shape_rows = _decide_shape(a, rows, cols, resolved), None
        rank = _member_rank(lang_id, a.alphabet, rows, cols)
        total = len(a.alphabet) ** (rows * cols)
        member_total += (members := rank(total))
        for count, runs in zip(counts, verdicts):
            start = before = 0  # ``before`` is rank(start)
            # Each rejected gap [start, begin), then the accepted run [begin,
            # end) after it; the empty run at ``total`` ends the last gap.
            for begin, end in (*runs, (total, total)):
                low = before if begin == start else members if begin == total else rank(begin)
                high = low if end == begin else members if end == total else rank(end)
                count[0] += end - begin
                count[1] += high - low
                if count is counts[-1]:  # only the last budget's mismatches are listed
                    if low > before:
                        miss(start, begin, False, before, low)
                    if end - high > begin - low:
                        miss(begin, end, True, begin - low, end - high)
                start, before = end, high
    per_budget = tuple(BudgetCount(budget, *count) for budget, count in zip(resolved, counts))
    return SweepReport(
        a.name, lang_id, rows, cols_max, per_budget, member_total, tuple(mismatches)
    )


def crossing_events(trace: Trace) -> list[CrossingEvent]:
    """All vertical moves of a trace, in trace order."""
    events = []
    configs = trace.configurations()
    for index, step in enumerate(trace.steps):
        if step.direction not in (Direction.U, Direction.D):
            continue
        after = configs[index + 1]
        boundary = max(step.config.row, after.row)
        events.append(
            CrossingEvent(boundary, step.config.col, after.state, step.direction)
        )
    return events


def find_crossing_match(
    machine: Automaton,
    words: Iterable[Picture],
    boundary: int,
) -> tuple[Picture, Picture, CrossingEvent] | None:
    """First pair of distinct words whose canonical traces cross ``boundary``
    downward in the same column and state.

    Rows change by one per move, so a run's crossings of one boundary
    alternate in direction, and a run that never crosses upward crosses
    at most once, downward.  That one crossing is a word's signature; a
    run that crosses upward has none, which is the stronger condition the
    multi-pair splice argument needs.  Two signatures at one boundary,
    both downward, are equal exactly when column and state agree.

    Each word is traced as it is read from ``words``, a word equal to the
    first included, and the first one rejected raises ValueError.  A word
    whose signature matches the first word's (and that differs from it)
    ends the search at once, so no word past it is read or traced.
    Failing that, every word is read and traced, and the pairs of later
    words are tried first-major on their signatures, traced once each.
    """
    made: list[tuple[Picture, CrossingEvent | None]] = []  # each word read, with its signature
    for word in words:
        trace = accepting_trace(machine, word)
        if trace is None:
            raise ValueError(f"machine {machine.name!r} rejects a supplied word:\n{word}")
        crossings = [e for e in crossing_events(trace) if e.boundary == boundary]
        one_down = len(crossings) == 1 and crossings[0].direction is Direction.D
        event = crossings[0] if one_down else None
        if made and word != made[0][0] and event == made[0][1] is not None:
            return made[0][0], word, event
        made.append((word, event))
    for first, (top, event) in enumerate(made[1:], 1):
        for bottom, other in made[first + 1 :]:
            if top != bottom and other == event is not None:
                return top, bottom, event
    return None


def fooling_z(m: int, i: int) -> int:
    """Least column count z with (z - 1) / 2 > m * (i + 1).

    With that many columns there are more two-column words than there are
    (state, column) signatures available for their boundary crossings, so
    two different words must share one; z works out to 2m(i+1) + 2.
    """
    if m < 1 or i < 0:
        raise ValueError(f"need m >= 1 and i >= 0, got m={m}, i={i}")
    return 2 * m * (i + 1) + 2


def fooling_parameters(machine: Automaton, i: int = 0) -> FoolingParameters:
    m = len(machine.states)
    return FoolingParameters(m, i, fooling_z(m, i))


@dataclass(frozen=True)
class SpliceReport:
    """Outcome of the splice experiment.

    ``conclusive`` is False when no crossing match exists at this column
    count (legitimate for small z).  A successful demonstration has
    ``accepted=True`` and ``in_language=False``: the machine under test
    accepts a word outside L_1.
    """

    machine: str
    z: int
    conclusive: bool
    top: Picture | None = None
    bottom: Picture | None = None
    event: CrossingEvent | None = None
    word: Picture | None = None
    accepted: bool = False
    in_language: bool = False

    @property
    def demonstrates(self) -> bool:
        return self.conclusive and self.accepted and not self.in_language

    def format(self) -> str:
        if not self.conclusive:
            return (
                f"splice machine={self.machine} z={self.z}: INCONCLUSIVE "
                "(no crossing match among the generated words)"
            )
        assert self.word is not None and self.event is not None
        verdict = "ACCEPTED" if self.accepted else "REJECTED"
        membership = "IN L1" if self.in_language else "NOT IN L1"
        lines = [
            f"splice machine={self.machine} z={self.z} "
            f"match col={self.event.col} state={self.event.state} "
            f"boundary={self.event.boundary}",
            self.word.to_text(),
            f"{verdict}, {membership}",
        ]
        return "\n".join(lines)


def splice_counterexample(machine: Automaton, z: int) -> SpliceReport:
    """Run the crossing-argument splice against ``machine``.

    Generates every two-row word with matching 1s at two of z columns,
    finds two whose canonical accepting runs enter the second row in the
    same column and state, splices the first word's top row onto the
    second word's bottom row, and reports whether the machine accepts the
    splice and whether the splice is still in L_1.
    """
    ensure_valid(machine)
    words = (make_w(i, j, z) for i in range(1, z + 1) for j in range(i + 1, z + 1))
    match = find_crossing_match(machine, words, boundary=2)
    if match is None:
        return SpliceReport(machine.name, z, conclusive=False)
    top, bottom, event = match
    word = splice_words(top, bottom, event.boundary)
    return SpliceReport(
        machine.name,
        z,
        conclusive=True,
        top=top,
        bottom=bottom,
        event=event,
        word=word,
        accepted=accepts(machine, word),
        in_language=in_L(1, word),
    )


@dataclass(frozen=True)
class HierarchyRow:
    index: int
    class_tag: str
    language: str
    members: int
    starvation: str
    mismatches: int


@dataclass(frozen=True)
class HierarchyReport:
    """Hierarchy evidence: one row per (i, machine) pair of the chains."""

    rows: tuple[HierarchyRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.starvation != "FAILED" for r in self.rows)

    def format_table(self) -> str:
        header = ("i", "class", "language", "members", "starvation", "mismatches")
        table = [header] + [
            (str(r.index), r.class_tag, r.language, str(r.members), r.starvation, str(r.mismatches))
            for r in self.rows
        ]
        widths = [max(len(row[c]) for row in table) for c in range(len(header))]
        return "\n".join(
            "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
            for row in table
        )

    def format_records(self) -> str:
        return "\n".join(
            f"record=hierarchy i={r.index} class={r.class_tag.replace(' ', '-')} "
            f"language={r.language} members={r.members} "
            f"starvation={r.starvation} mismatches={r.mismatches}"
            for r in self.rows
        )


def hierarchy_report(i_max: int, cols_max: int) -> HierarchyReport:
    """Hierarchy evidence table for the deterministic chains.

    For each i up to ``i_max``: the exact-pair chain machine against M_i
    (three-way side) and the boustrophedon machine against S_{2i}
    (two-way side), each checked for oracle equivalence at full budget and
    starved at one unit less.  A starvation cell is ``confirmed`` when the
    language is non-empty in range, every member is accepted at the full
    budget, and none is accepted one unit below it.  ``cols_max`` below 1
    raises the ValueError of ``budget_sweep``.
    """
    if i_max < 1:
        raise ValueError(f"need i_max >= 1, got {i_max}")
    rows: list[HierarchyRow] = []
    for i in range(1, i_max + 1):
        for machine, lang_id in (
            (build_M_Mi(i), f"M{i}"),
            (build_S_rec(i - 1), f"S{2 * i}"),
        ):
            full = machine.budget
            starved = Budget(full.up - 1, full.left)
            report = budget_sweep(
                machine, lang_id, natural_rows(lang_id), cols_max, [starved, full]
            )
            low, high = report.per_budget
            if report.member_total == 0:
                starvation = "vacuous"
            elif (
                low.accepted_members == 0
                and high.accepted_members == report.member_total
            ):
                starvation = "confirmed"
            else:
                starvation = "FAILED"
            rows.append(
                HierarchyRow(
                    i,
                    str(classify(machine)),
                    lang_id,
                    report.member_total,
                    starvation,
                    len(report.mismatches),
                )
            )
    return HierarchyReport(tuple(rows))
