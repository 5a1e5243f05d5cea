import dataclasses
from collections import Counter

import pytest
from hypothesis import strategies as st

import gridfa as g
from gridfa.simulator import _Tables


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


def count_calls(monkeypatch, call, *names) -> Counter:
    """The number of calls ``call()`` makes to each named ``_Tables``
    method (``__init__`` counts the tables built), by name."""
    calls = Counter(dict.fromkeys(names, 0))
    with monkeypatch.context() as patch:
        for name in names:

            def counting(self, *args, name=name, method=getattr(_Tables, name), **kwargs):
                calls[name] += 1
                return method(self, *args, **kwargs)

            patch.setattr(_Tables, name, counting)
        call()
    return calls


def count_searches(monkeypatch, call) -> int:
    """The number of searches ``call()`` makes: one per ``_Tables.explore``
    call that runs no fork tree, less its column steps (each
    ``_Tables.across`` call is one such call), and one per branch end that
    a fork tree reports, counted by wrapping its ``report``."""
    searched = 0
    explore = _Tables.explore

    def counting(self, frame, width, queue=None, viable=None, weights=None, report=None):
        nonlocal searched
        if report is None:
            searched += 1
            return explore(self, frame, width, queue)

        def counted(*branch):
            nonlocal searched
            searched += 1
            return report(*branch)

        return explore(self, frame, width, queue, viable, weights, counted)

    with monkeypatch.context() as patch:
        patch.setattr(_Tables, "explore", counting)
        steps = count_calls(patch, call, "across")["across"]
    return searched - steps


def starve_the_chain(monkeypatch) -> None:
    """Make ``hierarchy_report`` build the exact-pair chain machines with no
    transitions: recognizers that accept no member, so that every row of
    theirs fails starvation."""
    build = g.build_M_Mi
    monkeypatch.setattr(
        g.experiments, "build_M_Mi", lambda i: dataclasses.replace(build(i), transitions={})
    )


def all_pictures(rows: int, cols_max: int, alphabet=("0", "1")):
    """Every picture with the given row count and 1..cols_max columns."""
    for cols in range(1, cols_max + 1):
        yield from g.enumerate_pictures(alphabet, rows, cols)


@st.composite
def random_machines(draw, mode="nondet", alphabet=("0", "1")):
    """Small valid machines over ``alphabet`` ({0, 1} unless given) under
    every policy, budgets 0-2 on budgeted directions; the last state
    accepts."""
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
        symbol = draw(st.sampled_from([*alphabet, "#"]))
        target = draw(st.sampled_from(states))
        direction = draw(st.sampled_from(directions))
        edges = table.setdefault((source, symbol), [])
        if (target, direction) not in edges and not (mode == "det" and edges):
            edges.append((target, direction))
    return g.Automaton(
        "fuzz", tuple(alphabet), states, states[0], states[-1], mode,
        policy, budget, {k: tuple(v) for k, v in table.items()},
    )
