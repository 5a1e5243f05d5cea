import pytest
from hypothesis import strategies as st

import gridfa as g


@pytest.fixture(scope="session")
def fig1_word() -> g.Picture:
    """Concrete two-row word with two stacked-1 columns (4 and 8) plus
    stray unstacked 1s, the shape the L_1 recognizers are built for."""
    return g.Picture.from_rows(["01010001000", "00010101000"])


@pytest.fixture(scope="session")
def looper() -> g.Automaton:
    """Deterministic fixture that ping-pongs between two cells forever."""
    return g.Automaton(
        "looper",
        ("0", "1"),
        ("ping", "pong", "acc"),
        "ping",
        "acc",
        "det",
        g.THREE_WAY_NO_UP,
        g.Budget(0, g.INF),
        {
            ("ping", "0"): (("pong", g.Direction.R),),
            ("ping", "1"): (("pong", g.Direction.R),),
            ("ping", "#"): (("pong", g.Direction.R),),
            ("pong", "0"): (("ping", g.Direction.L),),
            ("pong", "1"): (("ping", g.Direction.L),),
            ("pong", "#"): (("ping", g.Direction.L),),
        },
    )


@pytest.fixture(scope="session")
def reject_all() -> g.Automaton:
    """Machine with no transitions out of its initial state."""
    return g.Automaton(
        "reject_all",
        ("0", "1"),
        ("s", "t"),
        "s",
        "t",
        "nondet",
        g.THREE_WAY,
        g.Budget(0, g.INF),
        {},
    )


def all_pictures(rows: int, cols_max: int, alphabet=("0", "1")):
    """Every picture with the given row count and 1..cols_max columns."""
    for cols in range(1, cols_max + 1):
        yield from g.enumerate_pictures(alphabet, rows, cols)


@st.composite
def random_machines(draw, mode="nondet"):
    """Small valid machines over {0, 1} under every policy, budgets 0-2
    on budgeted directions; the last state accepts."""
    U, L = g.Direction.U, g.Direction.L
    n_states = draw(st.integers(2, 4))
    states = tuple(f"s{i}" for i in range(n_states))
    policy = draw(
        st.sampled_from(
            [g.THREE_WAY, g.TWO_WAY, g.FOUR_WAY, g.THREE_WAY_NO_UP, g.THREE_WAY_ROTATED]
        )
    )
    budget = g.Budget(
        g.INF if U in policy.free else draw(st.integers(0, 2)),
        g.INF if L in policy.free else (draw(st.integers(0, 2)) if L in policy.budgeted else 0),
    )
    directions = sorted(policy.allowed, key=lambda d: d.value)
    n_edges = draw(st.integers(0, 6))
    table: dict = {}
    for _ in range(n_edges):
        source = draw(st.sampled_from(states[:-1]))  # last state is accepting
        symbol = draw(st.sampled_from(["0", "1", "#"]))
        target = draw(st.sampled_from(states))
        direction = draw(st.sampled_from(directions))
        edges = table.setdefault((source, symbol), [])
        if (target, direction) not in edges and not (mode == "det" and edges):
            edges.append((target, direction))
    return g.Automaton(
        "fuzz", ("0", "1"), states, states[0], states[-1], mode,
        policy, budget, {k: tuple(v) for k, v in table.items()},
    )
