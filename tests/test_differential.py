"""The compiled simulator against the pure reference simulator.

Verdicts, canonical traces (compared as values and as text), deterministic
outcomes and single steps must agree exactly.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import gridfa as g
from gridfa.languages import natural_rows
from gridfa.simulator import _BITSET_MIN, _decide, _lines, _resolve_budget, _tables
import reference
from conftest import all_pictures, count_calls, count_searches, random_machines

BUILDER_MACHINES = {
    f"{builder}({param})" if parametric else builder: factory(param) if parametric else factory()
    for builder, (factory, parametric) in sorted(g.BUILDERS.items())
    for param in ((1, 2) if parametric else (None,))
}

#: Every picture in 2x(1..5) and 4x(1..3).
PICTURES = [*all_pictures(2, 5), *all_pictures(4, 3)]


def assert_matches_reference(machine, p, budget=None):
    traces = []
    if machine.mode == "det":
        expected_outcome, expected_det = reference.run_deterministic(machine, p, budget)
        outcome, det_trace = g.run_deterministic(machine, p, budget)
        assert outcome is expected_outcome
        assert det_trace == expected_det
        assert g.format_trace(det_trace) == g.format_trace(expected_det)
        traces.append(expected_det)
        # A deterministic machine's canonical trace is its accepting run.
        expected = expected_det if outcome is g.RunOutcome.ACCEPT else None
    else:
        expected = reference.accepting_trace(machine, p, budget)
    trace = g.accepting_trace(machine, p, budget)
    assert g.accepts(machine, p, budget) == (expected is not None)
    assert trace == expected
    if expected is not None:
        assert g.format_trace(trace) == g.format_trace(expected)
        traces.append(expected)
    # Where runs start and end: the start, accepting, stuck and looping ends.
    configs = {reference.initial_configuration(machine, p, budget)}
    configs.update(t.final for t in traces)
    for c in configs:
        assert g.step(machine, p, c) == reference.step(machine, p, c)


@pytest.mark.parametrize("builder", BUILDER_MACHINES)
def test_builders_match_reference_on_small_pictures(builder):
    machine = BUILDER_MACHINES[builder]
    for p in PICTURES:
        assert_matches_reference(machine, p)


@st.composite
def budgets_within(draw, declared: g.Budget):
    """None, or an override at or below ``declared``: 0 included, and an
    infinite budget may come down to a finite one."""
    if draw(st.booleans()):
        return None

    def component(value):
        if value == g.INF:
            return draw(st.sampled_from([g.INF, 0, 1, 2]))
        return draw(st.integers(0, value))

    return g.Budget(component(declared.up), component(declared.left))


@st.composite
def pictures(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.sampled_from("01"), min_size=rows * cols, max_size=rows * cols))
    return g.Picture.from_rows(["".join(cells[r * cols : (r + 1) * cols]) for r in range(rows)])


@st.composite
def configurations(draw, machine, p, budget):
    """Any configuration in the frame with budgets at most the resolved ones."""
    up, left = reference.resolve_budget(machine, budget)

    def remaining(value):
        return value if value == g.INF else draw(st.integers(0, value))

    return g.Configuration(
        draw(st.sampled_from(machine.states)),
        draw(st.integers(0, p.rows + 1)),
        draw(st.integers(0, p.cols + 1)),
        remaining(up),
        remaining(left),
    )


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_random_machines_match_reference(data):
    machine = data.draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
    p = data.draw(pictures())
    budget = data.draw(budgets_within(machine.budget))
    assert_matches_reference(machine, p, budget)
    c = data.draw(configurations(machine, p, budget))
    assert g.step(machine, p, c) == reference.step(machine, p, c)


#: The ``_Tables`` methods counted by the tests that ``accepts`` builds no trace.
TRACE_WORK = ("explore", "successors", "steps", "decode")


def test_accepts_on_small_pictures_builds_no_trace(monkeypatch):
    # One search per picture, and nothing of a run's end or path: no
    # successors looked up, no path decoded.
    pictures = [*all_pictures(2, 4), *all_pictures(4, 2)]
    seen = set()
    for machine in BUILDER_MACHINES.values():
        verdicts = []
        decide = lambda: verdicts.extend(g.accepts(machine, p) for p in pictures)
        calls = count_calls(monkeypatch, decide, *TRACE_WORK)
        assert dict(calls) == {"explore": len(pictures), "successors": 0, "steps": 0, "decode": 0}
        seen.update((machine.mode, verdict) for verdict in verdicts)
    assert seen == {(mode, verdict) for mode in ("det", "nondet") for verdict in (True, False)}


@given(st.data())
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_accepts_on_small_pictures_builds_no_trace_for_random_machines(monkeypatch, data):
    machine = data.draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
    p = data.draw(pictures())
    budget = data.draw(budgets_within(machine.budget))
    verdicts = []
    calls = count_calls(
        monkeypatch, lambda: verdicts.append(g.accepts(machine, p, budget)), *TRACE_WORK
    )
    assert dict(calls) == {"explore": 1, "successors": 0, "steps": 0, "decode": 0}
    assert verdicts == [reference.accepts(machine, p, budget)]


def test_zero_budget_is_finite_not_infinite():
    # Budget 0 and an infinite budget both have one layer; only the
    # infinite one lets U moves through.
    climber = g.Automaton(
        "climber", ("0", "1"), ("s", "t", "acc"), "s", "acc", "det",
        g.THREE_WAY, g.Budget(g.INF, g.INF),
        {("s", "0"): (("t", g.Direction.D),), ("t", "0"): (("acc", g.Direction.U),)},
    )
    p = g.Picture.from_rows(["0", "0"])
    for budget in (None, g.Budget(0, g.INF), g.Budget(1, 0)):
        assert_matches_reference(climber, p, budget)
    assert g.accepts(climber, p)
    assert not g.accepts(climber, p, g.Budget(0, g.INF))


def test_errors_match_reference():
    a = g.build_A_L1()
    stray = g.Picture.from_rows(["012"])
    with pytest.raises(g.AlphabetError) as expected:
        reference.accepts(a, stray)
    for decide in (g.accepts, g.accepting_trace):
        with pytest.raises(g.AlphabetError) as err:
            decide(a, stray)
        assert str(err.value) == str(expected.value)
    with pytest.raises(g.BudgetOverrideError):
        g.accepts(a, g.Picture.from_rows(["1"]), g.Budget(2, g.INF))
    with pytest.raises(g.FrameError):
        g.step(a, stray, g.Configuration("scan1", 0, 5, 1, g.INF))
    # No moves: an interior symbol outside the alphabet, an undeclared state.
    for state, col in (("scan1", 3), ("ghost", 1)):
        c = g.Configuration(state, 1, col, 1, g.INF)
        assert g.step(a, stray, c) == reference.step(a, stray, c) == ()


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_bitsets_decide_as_the_search_does(data):
    # Called below the threshold, on small pictures of both orientations.
    machine = data.draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
    p = data.draw(pictures())
    if data.draw(st.booleans()):
        p = g.transpose(p)
    budget = data.draw(budgets_within(machine.budget))
    decided = _tables(machine, *_resolve_budget(machine, budget)).bitsets(*_lines(machine, p))
    assume(decided is not None)  # the bitsets gave up; ``explore`` decides
    assert decided[0] == _decide(machine, p, budget, True)[0]
    if machine.mode == "det":
        outcome = g.run_deterministic(machine, p, budget)[0]  # searched: p is small
        accepted, halts = decided
        assert (outcome is g.RunOutcome.ACCEPT) == accepted
        if not accepted:
            assert (outcome is g.RunOutcome.REJECT_HALT) == halts


@st.composite
def wide_pictures(draw):
    """1-3 rows by ``_BITSET_MIN``-100 columns over {0, 1}, or the
    transpose: pictures every decision but a trace takes to the bitsets."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(_BITSET_MIN, 100))
    p = g.Picture.from_rows(
        [format(draw(st.integers(0, 2**cols - 1)), f"0{cols}b") for _ in range(rows)]
    )
    return g.transpose(p) if draw(st.booleans()) else p


@st.composite
def looping_machines(draw, tall):
    """``random_machines()`` of either mode, and half of them with one state
    that loops along the long side of a picture (tall or not) both ways
    where its policy allows: forward on one symbol, back on the other."""
    machine = draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
    if draw(st.booleans()):
        return machine
    back, forward = (g.Direction.U, g.Direction.D) if tall else (g.Direction.L, g.Direction.R)
    state, table = draw(st.sampled_from(machine.states[:-1])), dict(machine.transitions)
    for symbol, direction in zip(draw(st.permutations("01")), (forward, back)):
        if direction in machine.policy.allowed:
            edges = () if machine.mode == "det" else table.get((state, symbol), ())
            loop = (state, direction)
            table[state, symbol] = (loop, *[edge for edge in edges if edge != loop])
    return dataclasses.replace(machine, transitions=table)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_random_machines_match_reference_at_bitset_widths(data):
    # Self-loops along a line both ways, which the bitsets close once per
    # expansion and repair by the loop moves themselves.
    p = data.draw(wide_pictures())
    machine = data.draw(looping_machines(p.rows > p.cols))
    budget = data.draw(budgets_within(machine.budget))
    assert_matches_reference(machine, p, budget)


def test_a_loop_back_along_the_row_stops_at_the_first_cell_without_it():
    # Right on every symbol to the ring, then left over 1s to the other
    # ring, which accepts: only a row of 1s is accepted.  The walk back is
    # a self-loop on 1 that the bitsets close by a fill, which must stop
    # at the last 0 and not reach the ring past it.
    R, L, D = g.Direction.R, g.Direction.L, g.Direction.D
    machine = g.Automaton(
        "all_ones", ("0", "1"), ("s", "t", "acc"), "s", "acc", "det",
        g.THREE_WAY_NO_UP, g.Budget(0, g.INF),
        {
            ("s", "0"): (("s", R),), ("s", "1"): (("s", R),), ("s", "#"): (("t", L),),
            ("t", "1"): (("t", L),), ("t", "#"): (("acc", D),),
        },
    )
    transposed = g.transpose_machine(machine)
    cols = _BITSET_MIN + 16
    for zero in (None, 0, 1, 2, 3, 5, 8, 40, cols - 2, cols - 1):
        row = "".join("0" if c == zero else "1" for c in range(cols))
        p = g.Picture.from_rows([row])
        for a, q in ((machine, p), (transposed, g.transpose(p))):
            assert g.accepts(a, q) == (zero is None) == reference.accepts(a, q)
            assert g.run_deterministic(a, q)[0] is reference.run_deterministic(a, q)[0]


#: The language each builder recognizes (None for the splice fixture).
LANGUAGES = {
    "A_L1": "L1", "B_L(1)": "L1", "B_L(2)": "L2", "C_L1_2W": "L1", "D_K(1)": "K1",
    "D_K(2)": "K2", "FLAWED_L1_3W0": None, "M_M1": "M1", "M_Mi(1)": "M1", "M_Mi(2)": "M2",
    "P_N2": "N2", "S_rec(1)": "S4", "S_rec(2)": "S6",
}


def planted(rng, lang, cols, member):
    """A picture of ``lang``'s natural row count, ``cols`` wide: per row
    pair, the stacked columns a member needs (planted 1 above 1) over
    single 1s that stack with nothing, or for M none.  A near miss has one
    planted cell of its last pair flipped back to 0.  S has no wide
    member: its all-ones picture stands in."""
    kind, index = lang[0], int(lang[1:])
    if kind == "S":
        rows = [["1"] * cols, ["1"] * cols]
        if not member:
            rows[1][rng.randrange(cols)] = "0"
        return g.Picture.from_rows(["".join(row) for row in rows])
    plant = {"L": 2, "M": 2, "N": 1, "K": 2 * index}[kind]
    rows = []
    for pair in range(natural_rows(lang) // 2):
        top, bottom = ["0"] * cols, ["0"] * cols
        if kind != "M":
            for c in range(cols):
                if rng.random() < 0.3:
                    (top if rng.random() < 0.5 else bottom)[c] = "1"
        columns = rng.sample(range(cols), plant)
        for c in columns:
            top[c] = bottom[c] = "1"
        if not member and 2 * pair + 2 == natural_rows(lang):
            (top if rng.random() < 0.5 else bottom)[rng.choice(columns)] = "0"
        rows += ["".join(top), "".join(bottom)]
    return g.Picture.from_rows(rows)


@pytest.mark.parametrize("builder", BUILDER_MACHINES)
def test_builders_match_reference_on_wide_pictures_and_their_transposes(builder):
    # Above the threshold every decision but the traces is made on bitsets,
    # along the rows of a wide picture and the columns of a tall one.
    machine, lang = BUILDER_MACHINES[builder], LANGUAGES[builder] or "L1"
    transposed = g.transpose_machine(machine)
    rng = random.Random(builder)
    for member in (True, False):
        p = planted(rng, lang, _BITSET_MIN + rng.randrange(16), member)
        expected = g.oracle_for(lang)(p) if LANGUAGES[builder] else reference.accepts(machine, p)
        assert reference.oracle(lang)(p) == (member and lang[0] != "S")
        for a, q in ((machine, p), (transposed, g.transpose(p))):
            assert g.accepts(a, q) == expected
            assert_matches_reference(a, q)


@pytest.mark.parametrize("builder", BUILDER_MACHINES)
def test_builders_decide_8192_wide_pictures_on_bitsets_alone(builder, monkeypatch):
    # Scans along the row are self-loops, which close in one step: the
    # bitsets stay within their bound on rounds and never hand over to the
    # search, even across 8192 columns.
    machine, lang = BUILDER_MACHINES[builder], LANGUAGES[builder] or "L1"
    transposed = g.transpose_machine(machine)
    rng = random.Random(builder)
    for member in (True, False):
        p = planted(rng, lang, 8192, member)
        searched = _decide(machine, p, None, True)[0]
        assert searched == g.oracle_for(lang)(p) or not LANGUAGES[builder]
        for a, q in ((machine, p), (transposed, g.transpose(p))):
            verdicts = []
            assert count_searches(monkeypatch, lambda: verdicts.append(g.accepts(a, q))) == 0
            assert verdicts == [searched]
