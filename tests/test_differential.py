"""The compiled simulator against the pure reference simulator.

Verdicts, canonical traces (compared as values and as text), deterministic
outcomes and single steps must agree exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfa as g
import reference
from conftest import all_pictures, random_machines

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
