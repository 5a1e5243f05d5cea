import dataclasses
import random
import time
import tracemalloc
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import gridfa as g
import reference
from gridfa.experiments import _column_counts
from gridfa.languages import _member_rank, natural_rows
from gridfa.machine import _ReadOnlyTable
from gridfa.simulator import (
    _KEPT_RUNS, _decide_shape, _layout, _resolve_budget, _Tables, _tables,
)
from conftest import all_pictures, count_calls, count_searches, random_machines, starve_the_chain

U, D, L, R = g.Direction.U, g.Direction.D, g.Direction.L, g.Direction.R


class TestFoolingZ:
    @pytest.mark.parametrize("m,i,z", [(6, 0, 14), (1, 0, 4), (2, 1, 10), (10, 0, 22)])
    def test_values(self, m, i, z):
        assert g.fooling_z(m, i) == z
        # least z with (z - 1) / 2 > m * (i + 1); one less must fail
        assert (z - 1) / 2 > m * (i + 1)
        assert not ((z - 2) / 2 > m * (i + 1))

    def test_parameters_helper(self):
        flawed = g.build_flawed_L1_3W0()
        params = g.fooling_parameters(flawed)
        assert params == g.FoolingParameters(len(flawed.states), 0, 14)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            g.fooling_z(0, 0)


class TestCrossingEvents:
    def test_a_l1_fig1_one_down_then_one_up(self, fig1_word):
        trace = g.accepting_trace(g.build_A_L1(), fig1_word)
        vertical = [e for e in g.crossing_events(trace) if e.boundary == 2]
        assert [e.direction for e in vertical] == [D, U]

    def test_horizontal_trace_has_no_events(self):
        walker = g.Automaton(
            "walker", ("0", "1"), ("s", "t"), "s", "t", "nondet",
            g.THREE_WAY_NO_UP, g.Budget(0, g.INF),
            {("s", "1"): (("t", g.Direction.R),)},
        )
        trace = g.accepting_trace(walker, g.Picture.from_rows(["11"]))
        assert g.crossing_events(trace) == []

    def test_events_in_trace_order_and_state_entered(self):
        m = g.build_M_M1()
        trace = g.accepting_trace(m, g.Picture.from_rows(["101", "101"]))
        events = g.crossing_events(trace)
        # the recorded state is the one the move lands in
        assert [e.state for e in events] == ["verify_down", "verify_up"]
        assert [e.direction for e in events] == [D, U]
        assert [e.col for e in events] == [1, 3]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_crossings_of_a_boundary_alternate_in_direction(self, data):
        # Rows change by one per move, so a run that never crosses a
        # boundary upward crosses it at most once: the matcher's premise.
        # Steered toward runs that cross one boundary many times.
        machine = data.draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
        rows = data.draw(st.integers(1, 3))
        most = 0
        for p in all_pictures(rows, 3 if rows < 3 else 2):
            trace = g.accepting_trace(machine, p)
            if trace is None:
                continue
            events = g.crossing_events(trace)
            for boundary in {e.boundary for e in events}:
                directions = [e.direction for e in events if e.boundary == boundary]
                assert all(a != b for a, b in zip(directions, directions[1:]))
                most = max(most, len(directions))
        target(float(most))


def match_outcome(find, machine, words, boundary):
    """The pair and event ``find`` returns, or the text it raises."""
    try:
        return find(machine, words, boundary)
    except ValueError as exc:
        return str(exc)


SPLICE_MACHINES = [
    ("A_L1", None), ("B_L", 1), ("B_L", 2), ("M_M1", None), ("M_Mi", 1), ("M_Mi", 2),
    ("P_N2", None), ("C_L1_2W", None), ("D_K", 1), ("D_K", 2), ("S_rec", 1), ("S_rec", 2),
    ("FLAWED_L1_3W0", None),
]


def lookback() -> g.Automaton:
    """Steps right and back, then goes down column 1 in ``dp`` if it read
    ``10`` and in ``dq`` if it read ``11``; a first 0 accepts at once,
    with no crossing, and ``dq`` on a 1 is stuck."""
    return g.Automaton(
        "lookback", ("0", "1"), ("s", "r", "p", "q", "dp", "dq", "t"), "s", "t", "det",
        g.THREE_WAY_NO_UP, g.Budget(0, g.INF),
        {
            ("s", "0"): (("t", R),), ("s", "1"): (("r", R),),
            ("r", "0"): (("p", L),), ("r", "1"): (("q", L),),
            ("p", "1"): (("dp", D),), ("q", "1"): (("dq", D),),
            ("dp", "0"): (("t", R),), ("dp", "1"): (("t", R),), ("dq", "0"): (("t", R),),
        },
    )


class TestFindCrossingMatch:
    def test_flawed_fixture_has_guaranteed_match(self):
        flawed = g.build_flawed_L1_3W0()
        z = 2 * len(flawed.states) + 3
        words = [g.make_w(i, j, z) for i in range(1, z + 1) for j in range(i + 1, z + 1)]
        match = g.find_crossing_match(flawed, words, boundary=2)
        assert match is not None
        first, second, event = match
        assert first != second
        assert event.direction is D

    def test_single_word_has_no_match(self):
        flawed = g.build_flawed_L1_3W0()
        assert g.find_crossing_match(flawed, [g.make_w(1, 2, 2)], 2) is None

    def test_duplicate_words_excluded(self):
        flawed = g.build_flawed_L1_3W0()
        w = g.make_w(1, 2, 4)
        assert g.find_crossing_match(flawed, [w, w], 2) is None

    def test_rejected_word_is_an_error(self):
        a = g.build_A_L1()
        with pytest.raises(ValueError):
            g.find_crossing_match(a, [g.Picture.from_rows(["00", "00"])], 2)

    def test_a_match_needs_the_same_state(self):
        dp, dq, dp_again = (
            g.Picture.from_rows(r) for r in (["10", "00"], ["11", "00"], ["10", "11"])
        )
        assert g.find_crossing_match(lookback(), [dp, dq], 2) is None
        assert g.find_crossing_match(lookback(), [dp, dq, dp_again], 2) == (
            dp, dp_again, g.CrossingEvent(2, 1, "dp", D)
        )

    def test_a_run_crossing_upward_has_no_signature(self):
        # Both runs leave row 1 upward in column 1 and stop there: one
        # crossing each, but not downward.
        up = g.Automaton(
            "up", ("0", "1"), ("s", "t"), "s", "t", "det", g.FOUR_WAY, g.Budget(g.INF, g.INF),
            {("s", "1"): (("t", U),)},
        )
        words = [g.Picture.from_rows(["10"]), g.Picture.from_rows(["11"])]
        assert g.find_crossing_match(up, words, 1) is None

    def test_a_first_word_without_a_crossing_still_traces_the_rest(self):
        # Its pairs trace words 1-3 before words 1 and 2 are compared, so
        # the stuck word 3 raises.
        no_crossing, dp, dp_again, stuck = (
            g.Picture.from_rows(r) for r in (["01", "11"], ["10", "00"], ["10", "11"], ["11", "10"])
        )
        with pytest.raises(ValueError, match="rejects a supplied word:\n11\n10$"):
            g.find_crossing_match(lookback(), [no_crossing, dp, dp_again, stuck], 2)

    def test_a_rejected_word_after_the_match_is_not_traced(self):
        flawed = g.build_flawed_L1_3W0()
        zeros = g.Picture.from_rows(["00000", "00000"])
        assert not g.accepts(flawed, zeros)
        words = [g.make_w(1, 2, 5), g.make_w(1, 3, 5), zeros]
        first, second, _ = g.find_crossing_match(flawed, words, 2)
        assert (first, second) == (words[0], words[1])
        # Before the match it is traced, and named.
        with pytest.raises(ValueError, match="rejects a supplied word:\n00000\n00000$"):
            g.find_crossing_match(flawed, [words[0], zeros, words[1]], 2)

    def test_the_splice_traces_only_the_words_it_compares(self, monkeypatch):
        # Words 0 and 1 of the 435 at z=30 match: two traces, and the
        # splice's own ``accepts``.
        flawed = g.build_flawed_L1_3W0()
        reports = []
        searched = count_searches(
            monkeypatch, lambda: reports.append(g.splice_counterexample(flawed, 30))
        )
        assert searched == 3
        assert (reports[0].top, reports[0].bottom) == (g.make_w(1, 2, 30), g.make_w(1, 3, 30))

    def test_words_are_read_as_the_pairs_reach_them(self, monkeypatch):
        # The splice at z=30 makes words 0 and 1 of the 435 and no more; a
        # one-shot iterator serves a match that is not with the first word.
        made = []
        make_w = g.experiments.make_w
        monkeypatch.setattr(g.experiments, "make_w", lambda *a: made.append(a) or make_w(*a))
        assert g.splice_counterexample(g.build_flawed_L1_3W0(), 30).demonstrates
        assert made == [(1, 2, 30), (1, 3, 30)]
        dq, dp, dp_again = (
            g.Picture.from_rows(r) for r in (["11", "00"], ["10", "00"], ["10", "11"])
        )
        assert g.find_crossing_match(lookback(), iter([dq, dp, dp_again]), 2) == (
            dp, dp_again, g.CrossingEvent(2, 1, "dp", D)
        )

    def test_with_no_match_each_word_is_traced_once(self, monkeypatch):
        # No two of the 435 runs of A_L1 at z=30 match: one trace per word,
        # and no spliced word to decide.
        reports = []
        searched = count_searches(
            monkeypatch, lambda: reports.append(g.splice_counterexample(g.build_A_L1(), 30))
        )
        assert not reports[0].conclusive
        assert searched == comb(30, 2) == 435

    @pytest.mark.parametrize("builder, param", SPLICE_MACHINES)
    def test_builder_words_match_as_the_reference_matcher(self, builder, param):
        # Every make_w list at z = 2..10, in order and as two shuffled prefixes,
        # at boundaries 1-3; the machines that reject the words raise.
        machine = g.make_machine(builder, param)
        rng = random.Random(f"{builder}-{param}")
        for z in range(2, 11):
            words = [g.make_w(i, j, z) for i in range(1, z + 1) for j in range(i + 1, z + 1)]
            prefixes = [rng.sample(words, rng.randint(1, len(words))) for _ in range(2)]
            for boundary in (1, 2, 3):
                for listed in (words, *prefixes):
                    assert match_outcome(
                        g.find_crossing_match, machine, listed, boundary
                    ) == match_outcome(reference.find_crossing_match, machine, listed, boundary)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_machines_match_as_the_reference_matcher(self, data):
        # A shape's accepted pictures in a drawn order, or a short list of
        # any pictures, repeats included, so that some raise.  Steered
        # toward lists that match.
        machine = data.draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
        rows = data.draw(st.integers(1, 3))
        pictures = list(g.enumerate_pictures(machine.alphabet, rows, data.draw(st.integers(1, 3))))
        accepted = [p for p in pictures if g.accepts(machine, p)]
        if accepted and data.draw(st.booleans()):
            words = data.draw(st.permutations(accepted))
        else:
            words = data.draw(st.lists(st.sampled_from(pictures), max_size=8))
        boundary = data.draw(st.integers(1, rows + 1))
        found = match_outcome(g.find_crossing_match, machine, words, boundary)
        assert found == match_outcome(reference.find_crossing_match, machine, words, boundary)
        target(float(isinstance(found, tuple)))


class TestSpliceCounterexample:
    def test_flawed_fixture_demonstration(self):
        flawed = g.build_flawed_L1_3W0()
        report = g.splice_counterexample(flawed, g.fooling_z(len(flawed.states), 0))
        assert report.conclusive and report.demonstrates
        assert report.accepted and not report.in_language
        assert g.stacked_count(report.word, 1) <= 1
        # re-checkable: the reported word really is accepted by a fresh run
        assert g.accepts(flawed, report.word)

    def test_small_z_inconclusive(self):
        flawed = g.build_flawed_L1_3W0()
        report = g.splice_counterexample(flawed, 2)
        assert not report.conclusive
        assert report.word is None
        assert "INCONCLUSIVE" in report.format()

    def test_report_text_shape(self):
        flawed = g.build_flawed_L1_3W0()
        text = g.splice_counterexample(flawed, 14).format()
        assert "ACCEPTED, NOT IN L1" in text


class TestSweeps:
    def test_oracle_equivalence_clean_report(self):
        report = g.oracle_equivalence(g.build_A_L1(), "L1", 2, 4)
        assert report.ok
        assert report.member_total == 78
        assert "mismatches=0" in report.format_records()

    def test_budget_sweep_strict_starvation(self):
        report = g.budget_sweep(
            g.build_M_Mi(2), "M2", 4, 4,
            [g.Budget(k, g.INF) for k in (0, 1, 2)],
        )
        counts = [entry.accepted_members for entry in report.per_budget]
        assert counts == [0, 0, report.member_total]
        assert report.member_total == 46

    def test_budget_sweep_monotone(self):
        report = g.budget_sweep(
            g.build_B_L(2), "L2", 4, 3,
            [g.Budget(k, g.INF) for k in (0, 1, 2)],
        )
        accepted = [entry.accepted for entry in report.per_budget]
        assert accepted == sorted(accepted)

    def test_s_rec_sweep_counts(self):
        report = g.budget_sweep(
            g.build_S_rec(0), "S2", 2, 2, [g.Budget(0, 0), g.Budget(1, 0)]
        )
        assert [e.accepted for e in report.per_budget] == [0, 1]

    def test_override_above_declared_is_error(self):
        with pytest.raises(ValueError):
            g.budget_sweep(g.build_A_L1(), "L1", 2, 2, [g.Budget(2, g.INF)])

    def test_empty_budget_list_is_error(self):
        with pytest.raises(ValueError):
            g.budget_sweep(g.build_A_L1(), "L1", 2, 2, [])

    @pytest.mark.parametrize("cols_max", [0, -1])
    def test_empty_sweep_is_error(self, cols_max):
        with pytest.raises(ValueError, match=r"^need cols_max >= 1"):
            g.budget_sweep(g.build_A_L1(), "L1", 2, cols_max, [g.Budget(1, g.INF)])
        # refused before the budgets are looked at
        with pytest.raises(ValueError, match=r"^need cols_max >= 1"):
            g.budget_sweep(g.build_A_L1(), "L1", 2, cols_max, [])
        with pytest.raises(ValueError, match=r"^need cols_max >= 1"):
            g.oracle_equivalence(g.build_A_L1(), "L1", 2, cols_max)

    @pytest.mark.parametrize("lang_id", ["L2049", "L99999999999999999999"])
    def test_more_than_4096_rows_is_error(self, lang_id, monkeypatch):
        # Refused before any table or column form is built: the form alone
        # would hold rows // 2 counts.  A fresh copy caches no tables.
        machine = dataclasses.replace(g.build_A_L1())

        def sweep():
            with pytest.raises(ValueError, match=r"^need rows <= 4096, got "):
                g.budget_sweep(machine, lang_id, natural_rows(lang_id), 2, [machine.budget])

        assert count_calls(monkeypatch, sweep, "__init__") == {"__init__": 0}

    @pytest.mark.parametrize("cols_max", [4097, 10**20])
    def test_more_than_4096_columns_is_error(self, cols_max, monkeypatch):
        # Refused before any table is built, as more than 4096 rows are.
        machine = dataclasses.replace(g.build_A_L1())

        def sweep():
            with pytest.raises(ValueError, match=rf"^need cols_max <= 4096, got {cols_max}$"):
                g.budget_sweep(machine, "L1", 2, cols_max, [machine.budget])

        assert count_calls(monkeypatch, sweep, "__init__") == {"__init__": 0}

    @pytest.mark.parametrize("rows", [0, -1])
    def test_rows_below_one_is_error(self, rows, monkeypatch):
        # Refused after the budgets and the language id are checked, and
        # before any width: no table is built.  A fresh copy caches none.
        machine = dataclasses.replace(g.build_B_L(1))

        def sweep():
            with pytest.raises(g.BudgetOverrideError):
                g.budget_sweep(machine, "L1", rows, 2, [g.Budget(2, 0)])
            with pytest.raises(ValueError, match=r"^unknown language id 'Q9'$"):
                g.budget_sweep(machine, "Q9", rows, 2, [machine.budget])
            with pytest.raises(
                g.PictureFormatError, match=r"^enumeration needs rows >= 1 and cols >= 1$"
            ):
                g.budget_sweep(machine, "L1", rows, 2, [g.Budget(0, 0), machine.budget])

        assert count_calls(monkeypatch, sweep, "__init__") == {"__init__": 0}

    @pytest.mark.parametrize("budget", [(1.5, 0), ("inf", 0), (-1, 0)])
    def test_a_bad_budget_value_is_a_machine_error(self, budget):
        # A pair is read as (up, left), and each value is checked as a
        # declared budget is: not a BudgetOverrideError, which is for what
        # is no pair or exceeds the declared budget.
        with pytest.raises(g.MachineError, match=r"^up budget must be a nonnegative") as err:
            g.budget_sweep(g.build_A_L1(), "L1", 2, 2, [budget])
        assert not isinstance(err.value, g.BudgetOverrideError)

    def test_budget_errors_in_list_order(self):
        budgets = [g.Budget(2, g.INF), g.Budget(3, g.INF)]
        with pytest.raises(g.BudgetOverrideError, match=r"^override \(2,inf\) exceeds"):
            g.budget_sweep(g.build_A_L1(), "L1", 2, 2, budgets)

    def test_incomparable_budgets_match_per_budget_decisions(self):
        # "11" needs the left budget, "10" the up budget (down onto the
        # frame and back up), so (1,0) and (0,1) accept different pictures.
        machine = g.Automaton(
            "either", ("0", "1"), ("s", "t", "u", "acc"), "s", "acc", "nondet",
            g.TWO_WAY, g.Budget(1, 1),
            {
                ("s", "1"): (("t", g.Direction.R),),
                ("t", "1"): (("acc", g.Direction.L),),
                ("t", "0"): (("u", g.Direction.D),),
                ("u", "#"): (("acc", g.Direction.U),),
            },
        )
        budgets = [g.Budget(*b) for b in ((0, 1), (1, 1), (1, 0), (0, 0), (1, 0), (0, 1))]
        report = assert_sweep_matches_decisions(machine, 1, 3, budgets)
        # (1,1) accepts the six pictures that start 10 or 11, (1,0) and
        # (0,1) three each.
        assert [e.accepted for e in report.per_budget] == [3, 6, 3, 0, 3, 3]

    @pytest.mark.parametrize(
        "machine, lang_id, rows, cols_max, budget",
        [
            # A starved budget: the rejected runs hold every member of M_2.
            (g.build_M_Mi(2), "M2", 4, 5, g.Budget(1, g.INF)),
            # A flawed recognizer: its accepted runs hold non-members of L_1.
            (g.build_flawed_L1_3W0(), "L1", 2, 6, g.Budget(0, g.INF)),
        ],
    )
    def test_mismatches_cost_rank_calls_per_mismatch(
        self, machine, lang_id, rows, cols_max, budget, monkeypatch
    ):
        # Each mismatch is found by bisecting ``rank`` over its accepted run
        # or rejected gap, which holds at most 2**(rows * cols_max) pictures;
        # beyond that a sweep calls it once per run boundary (other than the
        # shape's first and last index) and once per shape.  Walking every
        # picture of the runs that disagree took 2,236,938 calls on M_2.
        calls = []
        member_rank = g.experiments._member_rank

        def counting(*args):
            rank = member_rank(*args)
            return lambda n: calls.append(n) or rank(n)

        monkeypatch.setattr(g.experiments, "_member_rank", counting)
        report = g.budget_sweep(machine, lang_id, rows, cols_max, [budget])
        boundaries = sum(
            len({n for run in _decide_shape(machine, rows, cols, [budget])[0] for n in run}
                - {0, 2 ** (rows * cols)})
            for cols in range(1, cols_max + 1)
        )
        assert len(calls) <= len(report.mismatches) * (rows * cols_max + 1) + boundaries + cols_max
        oracle = reference.oracle(lang_id)
        pictures = [m.picture for m in report.mismatches]
        assert len(pictures) == len(set(pictures)) > 100
        for miss in report.mismatches:
            assert miss.oracle_accepts == oracle(miss.picture) != miss.machine_accepts
            assert miss.machine_accepts == g.accepts(machine, miss.picture, budget)
        if lang_id == "M2":
            assert len(report.mismatches) == report.member_total == 146

    @pytest.mark.parametrize("rows, cols_max", [(1, 4), (2, 3), (3, 2)])
    def test_three_symbol_sweep_matches_per_budget_decisions(self, rows, cols_max):
        # Over three symbols a shape has up to 3**cols distinct rows, so the
        # rows a sweep assigns into the shape's one frame vary widely.
        U, D, L, R = g.Direction.U, g.Direction.D, g.Direction.L, g.Direction.R
        machine = g.Automaton(
            "tri", ("0", "1", "2"), ("s", "t", "u", "acc"), "s", "acc", "nondet",
            g.TWO_WAY, g.Budget(2, 1),
            {
                ("s", "0"): (("s", R),),
                ("s", "1"): (("s", R), ("t", D)),
                ("s", "2"): (("t", D),),
                ("s", "#"): (("t", D),),
                ("t", "1"): (("s", R), ("u", L)),
                ("t", "2"): (("u", U),),
                ("t", "#"): (("u", U),),
                ("u", "0"): (("t", D),),
                ("u", "1"): (("acc", R),),
                ("u", "2"): (("t", D), ("s", R)),
            },
        )
        budgets = [g.Budget(*b) for b in ((0, 1), (0, 0), (1, 1), (2, 0), (1, 0), (2, 1))]
        report = assert_sweep_matches_decisions(machine, rows, cols_max, budgets)
        assert len({e.accepted for e in report.per_budget}) > 2
        assert report.mismatches


def assert_sweep_matches_decisions(machine, rows, cols_max, budgets, lang_id="L1"):
    """``budget_sweep`` against one ``accepts`` call per picture and budget
    and one reference oracle call per picture (so the counts it takes from
    the language's row-pair tables, and the order of its mismatches)."""
    oracle = reference.oracle(lang_id)
    pictures = list(all_pictures(rows, cols_max, machine.alphabet))
    members = [oracle(p) for p in pictures]
    report = g.budget_sweep(machine, lang_id, rows, cols_max, budgets)
    verdicts = []
    for budget, entry in zip(budgets, report.per_budget):
        verdicts = [g.accepts(machine, p, budget) for p in pictures]
        accepted_members = sum(v and m for v, m in zip(verdicts, members))
        assert entry == (budget, sum(verdicts), accepted_members)
    assert len(report.per_budget) == len(budgets)
    assert report.member_total == sum(members)
    assert report.mismatches == tuple(
        (p, v, m) for p, v, m in zip(pictures, verdicts, members) if v != m
    )
    return report


@st.composite
def budget_lists(draw, declared: g.Budget):
    """1-6 budgets at or below ``declared`` in any order, repeats allowed:
    finite values below INF, and INF itself where it is declared."""

    def values(limit):
        return st.sampled_from([0, 1, 2, g.INF]) if limit == g.INF else st.integers(0, limit)

    budget = st.builds(g.Budget, values(declared.up), values(declared.left))
    return draw(st.lists(budget, min_size=1, max_size=6))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_budget_sweep_matches_per_budget_decisions(data):
    machine = data.draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
    budgets = data.draw(budget_lists(machine.budget))
    rows = data.draw(st.integers(1, 2))
    assert_sweep_matches_decisions(machine, rows, 4 - rows, budgets)


@pytest.mark.parametrize(
    "lang_id, rows, cols_max",
    [
        *[(lang_id, 2, 4) for lang_id in ("L1", "M1", "N1", "K2", "S2")],
        *[(lang_id, 4, 2) for lang_id in ("L2", "M2", "N2")],
        ("M1", 3, 2),  # a row count outside the language
    ],
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_budget_sweep_counts_each_language_as_per_picture_decisions(
    lang_id, rows, cols_max, data
):
    machine = data.draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
    budgets = data.draw(budget_lists(machine.budget))
    assert_sweep_matches_decisions(machine, rows, cols_max, budgets, lang_id)


@pytest.mark.parametrize(
    "builder, param, lang_id, rows, cols_max",
    [
        ("M_Mi", 2, "M2", 4, 3),
        ("M_Mi", 2, "L2", 4, 3),
        ("P_N2", None, "N2", 4, 2),
        ("M_Mi", 1, "N1", 2, 5),
        ("B_L", 1, "K2", 2, 5),
        ("D_K", 2, "L1", 2, 5),
        ("S_rec", 1, "S4", 2, 5),
        ("S_rec", 1, "S3", 2, 5),
    ],
)
def test_builder_sweeps_match_per_picture_decisions(builder, param, lang_id, rows, cols_max):
    # Recognizers against their own language and against others: long
    # accepted and rejected runs, and runs holding mismatches.
    machine = g.make_machine(builder, param)
    budgets = [machine.budget, g.Budget(0, 0)]
    report = assert_sweep_matches_decisions(machine, rows, cols_max, budgets, lang_id)
    assert report.member_total > 0


def shape_counts(machine, lang_id, rows, cols, budgets):
    """Per budget, the member total of the ``rows x cols`` shape and the
    pictures and members accepted, from ``_decide_shape``'s accepted runs
    and the language's row-pair table."""
    verdicts = _decide_shape(machine, rows, cols, budgets)
    rank = _member_rank(lang_id, machine.alphabet, rows, cols)
    total = rank(len(machine.alphabet) ** (rows * cols))
    return tuple(
        (
            total,
            sum(end - begin for begin, end in runs),
            sum(rank(end) - rank(begin) for begin, end in runs),
        )
        for runs in verdicts
    )


def assert_column_counts_match_shapes(machine, lang_id, rows, cols_max, budgets):
    counted = _column_counts(machine, lang_id, rows, cols_max, budgets)
    assert counted == [
        shape_counts(machine, lang_id, rows, cols, budgets) for cols in range(1, cols_max + 1)
    ]
    return counted


def column_edges():
    """Never moves left, and accepts a 2-row picture two ways, both in the
    right ring column.  The start walks the upper row's 0s and may drop to
    the lower row.  Dropped onto a 1, it walks right to the next 1 of that
    row and moves R off it into the accepting state.  Dropped onto a 0, it
    climbs the next column if both its cells hold 1, up to the top ring
    row, walks R along that row and down the right ring column into the
    accepting state; that spends two U moves.  On a column whose top cell
    is 1 the start has no move."""
    return g.Automaton(
        "edges", ("0", "1"), ("a", "b", "d", "e", "c", "top", "v", "acc"), "a", "acc", "nondet",
        g.TWO_WAY, g.Budget(2, 0),
        {
            ("a", "0"): (("a", R), ("b", D)),
            ("b", "1"): (("d", R),),
            ("d", "0"): (("d", R),),
            ("d", "1"): (("acc", R),),
            ("b", "0"): (("e", R),),
            ("e", "1"): (("c", U),),
            ("c", "1"): (("top", U),),
            ("top", "#"): (("top", R), ("v", D)),
            ("v", "#"): (("acc", D),),
        },
    )


def closed_form_members(stacked, cols):
    """The 2 x ``cols`` pictures over {0, 1} with at least ``stacked``
    stacked columns: 4^c - sum_{s<t} C(c,s) 3^(c-s)."""
    return 4**cols - sum(comb(cols, s) * 3 ** (cols - s) for s in range(min(stacked, cols + 1)))


class TestColumnCounts:
    @pytest.mark.parametrize(
        "lang_id", ["L1", "L2", "M1", "M2", "N1", "N2", "K1", "K2", "S2", "S4"]
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_machines_starved_of_left_moves_count_as_their_shapes(self, lang_id, data):
        # Left budget 0 leaves any machine no L move.  Shapes hold at most
        # 2**16 pictures; over three symbols "2" reads as 0 to the language.
        # The bound on column fillings is raised to let 4 rows over three
        # symbols be counted; off the natural row count nothing is.
        alphabet = data.draw(st.sampled_from([("0", "1"), ("0", "1", "2")]))
        mode = data.draw(st.sampled_from(["det", "nondet"]))
        machine = data.draw(random_machines(mode, alphabet))
        ups = st.sampled_from([0, 1, 2, g.INF]) if machine.budget.up == g.INF else st.integers(
            0, machine.budget.up
        )
        budgets = data.draw(st.lists(st.builds(g.Budget, ups, st.just(0)), min_size=1, max_size=3))
        rows = data.draw(st.one_of(st.just(natural_rows(lang_id)), st.integers(1, 4)))
        cols_max = max(c for c in range(1, 6) if len(alphabet) ** (rows * c) <= 2**16)
        with mock.patch.object(g.experiments, "_COLUMNS_MAX", len(alphabet) ** 4):
            if rows == natural_rows(lang_id):
                assert_column_counts_match_shapes(machine, lang_id, rows, cols_max, budgets)
            else:
                assert _column_counts(machine, lang_id, rows, cols_max, budgets) is None

    @pytest.mark.parametrize(
        "builder, param, lang_id",
        [
            ("A_L1", None, "L1"),
            ("C_L1_2W", None, "L1"),
            *[("D_K", i, f"K{i}") for i in (1, 2, 3)],
            *[("S_rec", i, f"S{2 * i + 2}") for i in (0, 1, 2)],
        ],
    )
    def test_builder_sweeps_count_as_their_shapes(self, builder, param, lang_id):
        machine = g.make_machine(builder, param)
        full = machine.budget
        budgets = [g.Budget(full.up - 1, full.left), full]
        counted = assert_column_counts_match_shapes(machine, lang_id, 2, 8, budgets)
        for starved, declared in counted:
            assert starved[1] == 0 and declared[0] == declared[1] == declared[2]
        assert sum(declared[0] for _, declared in counted) > 0

    @pytest.mark.parametrize("machine, lang_id, stacked", [
        (g.build_A_L1(), "L1", 2),
        (g.build_D_K(3), "K3", 6),
    ])
    def test_widths_past_brute_force(self, machine, lang_id, stacked):
        # 2 x 40 holds about 1.6e24 pictures: only the counts can reach it.
        # They are checked first: a sweep enumerates any width they get wrong.
        per_width = [closed_form_members(stacked, cols) for cols in range(1, 41)]
        counted = _column_counts(machine, lang_id, 2, 40, [machine.budget])
        assert counted == [((n, n, n),) for n in per_width]
        began = time.perf_counter()
        report = g.oracle_equivalence(machine, lang_id, 2, 40)
        assert time.perf_counter() - began < 1
        members = sum(per_width)
        assert report.member_total == members
        assert report.per_budget == ((machine.budget, members, members),)
        assert report.mismatches == ()

    @pytest.mark.parametrize("lang_id, budgets", [
        ("K1", [g.Budget(2, 0)]),  # D_K2 needs four stacked columns, K1 two
        ("K2", [g.Budget(2, 0), g.Budget(1, 0)]),  # starved last
    ])
    def test_mismatching_widths_are_decided_picture_by_picture(
        self, lang_id, budgets, monkeypatch
    ):
        machine = g.build_D_K(2)
        report = assert_sweep_matches_decisions(machine, 2, 6, budgets, lang_id)
        assert report.mismatches
        monkeypatch.setattr(g.experiments, "_COLUMNS_MAX", 0)  # every width by its shape
        assert g.budget_sweep(machine, lang_id, 2, 6, budgets) == report

    def test_column_steps_are_shared_across_languages(self, monkeypatch):
        # The steps depend on the machine and the row count, not the language.
        a = dataclasses.replace(g.build_A_L1())
        first = count_calls(monkeypatch, lambda: g.oracle_equivalence(a, "L1", 2, 7), "across")
        reports = []
        second = count_calls(
            monkeypatch, lambda: reports.append(g.budget_sweep(a, "K2", 2, 7, [a.budget])), "across"
        )
        assert first["across"] > 0 and second["across"] == 0
        uncached = g.parse_machine(g.serialize_machine(a))
        assert reports[0] == g.budget_sweep(uncached, "K2", 2, 7, [a.budget])

    def test_a_warm_check_makes_no_scan_of_the_transitions(self, monkeypatch):
        # A_L1's budget leaves L moves, so the sweep asks whether the machine
        # has an L transition: the tables read that once, and a warm check
        # reads no transition.
        machine = dataclasses.replace(g.build_A_L1())
        report = g.oracle_equivalence(machine, "L1", 2, 7)
        scans = []
        values = _ReadOnlyTable.values
        monkeypatch.setattr(_ReadOnlyTable, "values", lambda self: scans.append(1) or values(self))
        assert g.oracle_equivalence(machine, "L1", 2, 7) == report
        assert scans == []

    def test_column_steps_accept_in_the_ring_column_and_die_on_a_filling(self):
        machine = column_edges()
        budgets = [g.Budget(0, 0), g.Budget(1, 0), g.Budget(2, 0)]
        oracle = reference.oracle("L1")
        by_pictures = []
        for cols in range(1, 7):
            pictures = list(g.enumerate_pictures(machine.alphabet, 2, cols))
            members = [oracle(p) for p in pictures]
            per_budget = []
            for budget in budgets:
                verdicts = [g.accepts(machine, p, budget) for p in pictures]
                accepted_members = sum(v and m for v, m in zip(verdicts, members))
                per_budget.append((sum(members), sum(verdicts), accepted_members))
            by_pictures.append(tuple(per_budget))
        assert _column_counts(machine, "L1", 2, 6, budgets) == by_pictures
        # Each way of accepting is the only one on one picture.  An R move
        # from the last inner column into the accepting state:
        lower = g.accepting_trace(machine, g.Picture.from_rows(["00", "11"]))
        assert lower.directions() == (D, R, R)
        assert lower.final == ("acc", 2, 3, 2, 0)
        # An R walk along the top ring row, then down the right ring column:
        ring = g.Picture.from_rows(["011", "010"])
        assert g.accepting_trace(machine, ring).directions() == (D, R, U, U, R, R, D, D)
        assert not g.accepts(machine, ring, g.Budget(1, 0))
        # A column whose top cell is 1 ends every configuration entering it.
        tables = _tables(machine, 2, 0)
        start = frozenset([1 << tables.shift | tables.start])
        assert tables.across(start, 2, "10") == tables.across(start, 2, "11") == frozenset()
        assert tables.across(start, 2, "01") != frozenset()

    def test_which_sweeps_are_counted_by_columns(self):
        machine = g.build_M_Mi(1)
        assert _column_counts(machine, "M1", 2, 3, [machine.budget]) is None
        assert _column_counts(machine, "M1", 2, 3, [g.Budget(1, 0)]) is not None
        assert _column_counts(machine, "M1", 3, 3, [g.Budget(1, 0)]) is None  # no member
        # At most 16 fillings of a column: 4 rows over {0, 1}, not over
        # {0, 1, 2} (81), whose 2 rows have 9.
        wide = dataclasses.replace(g.build_A_L1(), alphabet=("0", "1", "2"), transitions={})
        assert _column_counts(g.build_A_L1(), "L2", 4, 1, [wide.budget]) is not None
        assert _column_counts(wide, "L2", 4, 1, [wide.budget]) is None
        assert _column_counts(wide, "L1", 2, 1, [wide.budget]) is not None


def run_verdicts(runs, total):
    """The verdicts of ``_decide_shape``'s accepted runs, one per picture
    of a shape of ``total`` pictures, after checking that the runs are a
    tuple of ``(begin, end)`` pairs, sorted, disjoint, non-empty and
    maximal (no run ends where the next begins), within [0, total)."""
    assert isinstance(runs, tuple) and all(len(run) == 2 for run in runs)
    bounds = [n for run in runs for n in run]  # strictly increasing
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    assert all(0 <= n <= total for n in bounds)
    verdicts = [False] * total
    for begin, end in runs:
        verdicts[begin:end] = [True] * (end - begin)
    return verdicts


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_decide_shape_matches_per_picture_decisions(data):
    # One call decides every budget, in one search each: the declared one,
    # 0, the incomparable (1,0) and (0,1) where declared allows, and drawn
    # ones (INF lowered to a finite value among them).
    machine = data.draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
    up, left = machine.budget
    budgets = [
        machine.budget, g.Budget(0, 0), g.Budget(min(up, 1), 0), g.Budget(0, min(left, 1)),
        *data.draw(budget_lists(machine.budget))[:2],
    ]
    rows = data.draw(st.integers(1, 3))
    cols = data.draw(st.integers(1, 5 if rows < 3 else 4))
    pictures = list(g.enumerate_pictures(machine.alphabet, rows, cols))
    decided = _decide_shape(machine, rows, cols, budgets)
    for budget, runs in zip(budgets, decided, strict=True):
        assert run_verdicts(runs, len(pictures)) == [
            g.accepts(machine, p, budget) for p in pictures
        ]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_every_accepting_run_stays_on_viable_configurations(data):
    # The viable bitsets of a shape's unread frame hold every configuration
    # of every accepting run, under the declared, the empty and drawn
    # budgets, so a shape whose start is not viable accepts no picture.
    machine = data.draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
    rows = data.draw(st.integers(1, 3))
    cols = data.draw(st.integers(1, 4))
    pictures = list(g.enumerate_pictures(machine.alphabet, rows, cols))
    width = cols + 2
    frame = _layout(machine, pictures[0])
    for row in range(1, rows + 1):
        frame[row * width + 1 : row * width + cols + 1] = [None] * cols
    for budget in [machine.budget, g.Budget(0, 0), *data.draw(budget_lists(machine.budget))]:
        tables = _tables(machine, *_resolve_budget(machine, budget))
        viable = tables.viable(frame, width)
        accepted = [t for t in (g.accepting_trace(machine, p, budget) for p in pictures) if t]
        for trace in accepted:
            for c in trace.configurations()[:-1]:
                low = tables.low(tables.ids[c.state], c.up_left, c.left_left)
                assert viable[low] >> c.row * width + c.col & 1
        if not viable[tables.start] >> width + 1 & 1:
            assert not accepted


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_warm_shape_decisions_match_a_fresh_machine(data):
    # Two passes over the shapes, in drawn orders, on one machine: the
    # second reads the per-shape runs the first kept.  Both match the runs
    # of a fresh copy, which keeps nothing.
    machine = data.draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
    budgets = [
        _resolve_budget(machine, b) for b in data.draw(budget_lists(machine.budget))
    ]
    shapes = [(rows, cols) for rows in range(1, 4) for cols in range(1, 5)]
    expected = {
        (rows, cols): _decide_shape(dataclasses.replace(machine), rows, cols, budgets)
        for rows, cols in shapes
    }
    for _ in range(2):
        for rows, cols in data.draw(st.permutations(shapes)):
            assert _decide_shape(machine, rows, cols, budgets) == expected[rows, cols]


#: Each builder's machine, the parametric ones at 1 and 2, and its language.
BUILDER_LANGUAGES = [
    ("A_L1", None, "L1"), ("B_L", 1, "L1"), ("B_L", 2, "L2"), ("C_L1_2W", None, "L1"),
    ("D_K", 1, "K1"), ("D_K", 2, "K2"), ("FLAWED_L1_3W0", None, "L1"), ("M_M1", None, "M1"),
    ("M_Mi", 1, "M1"), ("M_Mi", 2, "M2"), ("P_N2", None, "N2"), ("S_rec", 1, "S4"),
    ("S_rec", 2, "S6"),
]


def assert_kept_runs_match_a_fresh_search(machine, shapes, budgets, monkeypatch):
    """Decide each shape under the resolved ``budgets`` on a fresh copy of
    ``machine``, and check that the copy's tables keep each budget's
    accepted runs (sorted and maximal), unless there are more than
    ``_KEPT_RUNS``, as another fresh copy searches them for that budget
    alone, and that a second call returns the same runs with no search
    unless some budget's were not kept."""
    kept = dataclasses.replace(machine)
    for rows, cols in shapes:
        decided = _decide_shape(kept, rows, cols, budgets)
        for budget, runs in zip(budgets, decided):
            (searched,) = _decide_shape(dataclasses.replace(machine), rows, cols, [budget])
            run_verdicts(runs, len(machine.alphabet) ** (rows * cols))
            assert runs == searched
            held = _tables(kept, *budget).shapes.get((rows, cols))
            assert held == (runs if len(runs) <= _KEPT_RUNS else None)
        again = []
        warm = count_searches(
            monkeypatch, lambda: again.append(_decide_shape(kept, rows, cols, budgets))
        )
        assert again[0] == decided
        assert (warm == 0) == all(len(runs) <= _KEPT_RUNS for runs in decided)


@pytest.mark.parametrize("builder, param, lang_id", BUILDER_LANGUAGES)
def test_every_builder_keeps_the_runs_a_fresh_search_finds(builder, param, lang_id, monkeypatch):
    # At the language's row count and 1-4 columns, under the declared
    # budget, one unit less of up budget (none less where it is 0) and
    # none at all.  P_N2 alone has more than ``_KEPT_RUNS`` accepted runs,
    # at 4 x 4 under the declared and the one-less budget (7,000 each);
    # B_L(2) has 2,278 there, and the tables keep them.
    machine = g.make_machine(builder, param)
    up, left = machine.budget
    budgets = [machine.budget, g.Budget(max(up - 1, 0), left), g.Budget(0, 0)]
    rows = natural_rows(lang_id)
    shapes = [(rows, cols) for cols in range(1, 5)]
    assert_kept_runs_match_a_fresh_search(machine, shapes, budgets, monkeypatch)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_machines_keep_the_runs_a_fresh_search_finds(data):
    # Shapes of at most 12 cells have at most ``_KEPT_RUNS`` runs, so every
    # one is kept, under the declared, the empty and drawn budgets.
    machine = data.draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
    budgets = [
        _resolve_budget(machine, b)
        for b in [machine.budget, g.Budget(0, 0), *data.draw(budget_lists(machine.budget))]
    ]
    rows = data.draw(st.integers(1, 3))
    cols = data.draw(st.integers(1, 4))
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_kept_runs_match_a_fresh_search(machine, [(rows, cols)], budgets, monkeypatch)


def farthest(machine, p):
    """The farthest (row, col) of the deterministic run on ``p``: the
    farthest position its search discovers."""
    _, trace = g.run_deterministic(machine, p)
    return max((c.row, c.col) for c in trace.configurations())


def early_halting():
    """Halts on reading 0 at (1,1); on 1 it reads (2,1) and accepts by
    moving up if that is a 1 too and the up budget allows it."""
    return g.Automaton(
        "early", ("0", "1"), ("s", "t", "acc"), "s", "acc", "det",
        g.THREE_WAY, g.Budget(1, g.INF),
        {("s", "1"): (("t", D),), ("t", "1"): (("acc", U),)},
    )


class TestSharedSearches:
    def test_early_halting_machine_is_searched_once_per_run(self, monkeypatch):
        machine = early_halting()
        budgets = [g.Budget(0, g.INF), g.Budget(1, g.INF)]
        searched = count_searches(
            monkeypatch, lambda: g.budget_sweep(machine, "L1", 2, 4, budgets)
        )
        decided = 2 * sum(4**cols for cols in range(1, 5))
        # Each search counted is one branch end of the shape's search.  At the
        # full budget a 2 x c shape takes one for the pictures starting 0
        # (read at (1,1), where s has no move), one for those starting 1
        # with a 0 at (2,1), and one that accepts those starting 1 with a 1
        # at (2,1).  No other cell is read, whatever c is: 3 per shape.
        # Starved, t's only move is an unaffordable U, so no filling of the
        # shape accepts, its start is not viable, and it takes no search.
        assert searched == 4 * (3 + 0) == 12
        assert searched * 10 < decided
        assert_sweep_matches_decisions(machine, 2, 4, budgets)

    @pytest.mark.parametrize("machine, budget", [
        (early_halting(), g.Budget(0, g.INF)),  # t's only move is an unaffordable U
        (dataclasses.replace(g.build_M_Mi(2)), g.Budget(1, g.INF)),  # one U for two pairs
    ])
    def test_a_budget_that_can_never_accept_takes_no_work(self, machine, budget, monkeypatch):
        # Fresh machines, so no other test's tables are in play.  Their start
        # reaches no accepting low part over any cells, so no shape's start
        # is viable: every shape is one rejecting run, with one frame
        # analysis and no search.  A second pass reads the run each shape
        # kept and does neither.
        decided = []

        def decide():
            for rows in range(1, 5):
                for cols in range(1, 5):
                    decided.append(_decide_shape(machine, rows, cols, [budget]))

        for analyses in (16, 0):
            decided.clear()
            calls = count_calls(monkeypatch, decide, "viable", "explore")
            assert calls == {"viable": analyses, "explore": 0}
            assert decided == [[()] for rows in range(1, 5) for cols in range(1, 5)]

    def test_an_accepting_start_decides_the_shape_with_no_search(self, monkeypatch):
        # The initial state accepts: every picture is accepted on cell (1,1).
        machine = g.Automaton(
            "at_once", ("0", "1"), ("acc",), "acc", "acc", "det",
            g.THREE_WAY, g.Budget(1, g.INF), {},
        )
        budgets = [machine.budget, g.Budget(0, 0)]
        decided = []
        searched = count_searches(
            monkeypatch, lambda: decided.append(_decide_shape(machine, 2, 3, budgets))
        )
        assert searched == 0
        assert decided[0] == [((0, 64),), ((0, 64),)]
        assert_sweep_matches_decisions(machine, 2, 3, budgets)

    def test_a_run_searched_mid_way_ends_at_its_aligned_boundary(self):
        # On a 0 at (1,1) it needs the up budget at once; on a 1 it accepts.
        # At the full budget 01 alone is accepted of the pictures starting
        # 0, so starved, 01 is searched though 00 was not: that search
        # reads only (1,1), and its verdict covers 01 but not 10.
        machine = g.Automaton(
            "mid_run", ("0", "1"), ("s", "t", "u", "v", "acc"), "s", "acc", "det",
            g.THREE_WAY, g.Budget(1, g.INF),
            {
                ("s", "0"): (("t", U),),
                ("s", "1"): (("acc", R),),
                ("t", "#"): (("u", D),),
                ("u", "0"): (("v", R),),
                ("v", "1"): (("acc", R),),
            },
        )
        report = assert_sweep_matches_decisions(
            machine, 1, 2, [g.Budget(0, g.INF), machine.budget]
        )
        assert [e.accepted for e in report.per_budget] == [3, 4]

    @pytest.mark.parametrize("builder, param", [("M_Mi", 1), ("D_K", 1), ("B_L", 1)])
    def test_verdict_runs_cover_the_shape_and_alternate(self, builder, param):
        machine = g.make_machine(builder, param)
        budgets = [machine.budget, g.Budget(0, 0), machine.budget]
        pictures = list(g.enumerate_pictures(machine.alphabet, 2, 4))
        decided = _decide_shape(machine, 2, 4, budgets)
        for budget, runs in zip(budgets, decided):
            verdicts = run_verdicts(runs, len(pictures))
            assert verdicts == [g.accepts(machine, p, budget) for p in pictures]

    def test_a_branch_forgets_what_the_branches_before_it_discovered(self):
        # Both values of (1,1) move to the same configuration on (1,2), so
        # the branch for a 1 reaches it again only if the branch for a 0
        # took back its discoveries.
        machine = g.Automaton(
            "same_move", ("0", "1"), ("s", "t", "acc"), "s", "acc", "det",
            g.THREE_WAY, g.Budget(0, g.INF),
            {("s", "0"): (("t", R),), ("s", "1"): (("t", R),), ("t", "1"): (("acc", R),)},
        )
        for rows, cols in ((1, 2), (2, 3)):
            pictures = list(g.enumerate_pictures(machine.alphabet, rows, cols))
            (runs,) = _decide_shape(machine, rows, cols, [machine.budget])
            verdicts = run_verdicts(runs, len(pictures))
            assert verdicts == [p.cells[0][1] == "1" for p in pictures]

    @pytest.mark.parametrize("builder, param, rows, cols", [
        ("M_Mi", 1, 2, 4), ("M_Mi", 2, 4, 2), ("B_L", 1, 2, 4),
    ])
    def test_a_shape_search_leaves_every_cell_it_forked_on_unread(
        self, builder, param, rows, cols
    ):
        # At each branch end the frame holds a symbol exactly on the cells
        # the open forks read, with their symbols; once the search returns,
        # every inner cell is unread again.
        machine = g.make_machine(builder, param)
        tables, width = _tables(machine, *machine.budget), cols + 2
        frame = _layout(machine, g.Picture.from_rows(["0" * cols] * rows))
        for row in range(1, rows + 1):
            frame[row * width + 1 : row * width + cols + 1] = [None] * cols
        unread = list(frame)
        read = []

        def report(goal, base, forks):
            held = {pos: cell for pos, cell in enumerate(frame) if cell != unread[pos]}
            assert held == {pos: machine.alphabet[value] for pos, value, *_ in forks}
            read.append(len(held))

        viable = tables.viable(frame, width)
        tables.explore(frame, width, viable=viable, weights=[0] * len(frame), report=report)
        assert frame == unread
        assert len(read) > 2 and max(read) > 1

    @pytest.mark.parametrize("builder, param, rows, cols", [
        ("M_Mi", 2, 4, 3), ("B_L", 1, 2, 5), ("P_N2", None, 4, 2),
    ])
    def test_deciding_a_shape_twice_gives_the_same_runs(
        self, builder, param, rows, cols, monkeypatch
    ):
        # A fresh machine, so that the first call builds its tables and
        # searches each shape, and the second reads the runs they kept and
        # makes no search: both decide the same runs, as per-picture
        # decisions do.
        machine = dataclasses.replace(g.make_machine(builder, param))
        budgets = [machine.budget, g.Budget(0, 0)]
        decided = []
        searched = [
            count_searches(
                monkeypatch, lambda: decided.append(_decide_shape(machine, rows, cols, budgets))
            )
            for _ in range(2)
        ]
        assert decided[0] == decided[1] and searched[0] > 0 and searched[1] == 0
        pictures = list(g.enumerate_pictures(machine.alphabet, rows, cols))
        for budget, runs in zip(budgets, decided[0]):
            assert run_verdicts(runs, len(pictures)) == [
                g.accepts(machine, p, budget) for p in pictures
            ]

    def test_a_symbol_with_no_move_is_searched_only_behind_another_configuration(
        self, monkeypatch
    ):
        # s reads (1,1) and moves right as t; on a 1 it also moves down as u,
        # onto the lower ring, from where u accepts.  t accepts on a 0 at
        # (1,2) and has no move on a 1.  After a 0 at (1,1), t is the last
        # configuration queued when it forks on (1,2), so a 1 there ends a
        # branch that accepts nothing: it takes no branch and is not
        # reported.  After a 1, u is queued behind t, so a 1 at (1,2) is
        # searched, and u accepts it.
        machine = g.Automaton(
            "no_move", ("0", "1"), ("s", "t", "u", "acc"), "s", "acc", "nondet",
            g.THREE_WAY, g.Budget(0, g.INF),
            {
                ("s", "0"): (("t", R),),
                ("s", "1"): (("t", R), ("u", D)),
                ("t", "0"): (("acc", R),),
                ("u", "#"): (("acc", R),),
            },
        )
        branches = []
        explore = _Tables.explore

        def recording(self, frame, width, queue=None, viable=None, weights=None, report=None):
            def reporting(goal, base, forks):
                branches.append((goal is not None, [(pos, value) for pos, value, *_ in forks]))
                return report(goal, base, forks)

            return explore(self, frame, width, queue, viable, weights, report and reporting)

        monkeypatch.setattr(_Tables, "explore", recording)
        (runs,) = _decide_shape(machine, 1, 2, [machine.budget])
        # Frame index 5 is (1,1), and 6 is (1,2); every branch accepts.
        assert branches == [
            (True, [(5, 0), (6, 0)]), (True, [(5, 1), (6, 0)]), (True, [(5, 1), (6, 1)]),
        ]
        assert runs == ((0, 1), (2, 4))
        monkeypatch.undo()
        for rows, cols_max in ((1, 4), (2, 3)):
            assert_sweep_matches_decisions(machine, rows, cols_max, [machine.budget])

    def test_a_shape_with_more_runs_than_are_kept_is_searched_again(self, monkeypatch):
        # Reads row 1 rightwards and, back from the right ring, accepts iff
        # the last cell holds a 1.  The last cell counts fastest in
        # enumeration order, so the verdicts alternate: a 1 x c shape has
        # one accepted run per odd index.  At 1 x 13 that is ``_KEPT_RUNS``
        # runs, which the tables keep; at 1 x 14 twice as many, searched on
        # every call.
        machine = g.Automaton(
            "last_cell", ("0", "1"), ("s", "t", "acc"), "s", "acc", "det",
            g.FOUR_WAY, g.Budget(g.INF, g.INF),
            {("s", "0"): (("s", R),), ("s", "1"): (("s", R),), ("s", "#"): (("t", L),),
             ("t", "1"): (("acc", R),)},
        )
        for cols, kept in ((13, True), (14, False)):
            decided, searched = [], []
            for _ in range(2):
                searched.append(count_searches(monkeypatch, lambda: decided.append(
                    _decide_shape(machine, 1, cols, [machine.budget])[0]
                )))
            assert decided[0] == decided[1] == tuple((n, n + 1) for n in range(1, 2**cols, 2))
            assert (len(decided[0]) <= _KEPT_RUNS) == kept
            assert searched == [2**cols, 0 if kept else 2**cols]
            assert ((1, cols) in _tables(machine, *machine.budget).shapes) == kept

    def test_a_warm_check_of_b_l2_at_4_by_4_makes_no_search(self, monkeypatch):
        # Its 4 x 4 shape has 2,278 accepted runs, fewer than ``_KEPT_RUNS``,
        # so the tables keep them.  A fresh copy, so that the first call
        # searches.
        machine = dataclasses.replace(g.build_B_L(2))
        reports = []
        check = lambda: reports.append(g.oracle_equivalence(machine, "L2", 4, 4))
        assert count_calls(monkeypatch, check, "explore")["explore"] > 0
        assert count_calls(monkeypatch, check, "explore") == {"explore": 0}
        assert reports[0] == reports[1] and reports[0].ok

    def test_the_run_list_stays_small_when_every_branch_accepts(self):
        # Reads row 1 rightwards, then row 2 leftwards, and accepts: at 2 x 8
        # each of its 65,536 branches accepts one picture, out of index order.
        machine = g.Automaton(
            "scanner", ("0", "1"), ("r", "d", "l", "acc"), "r", "acc", "det",
            g.FOUR_WAY, g.Budget(g.INF, g.INF),
            {
                **{("r", s): (("r", R),) for s in "01"},
                **{("l", s): (("l", L),) for s in "01"},
                ("r", "#"): (("d", D),),
                ("d", "#"): (("l", L),),
                ("l", "#"): (("acc", R),),
            },
        )
        tracemalloc.start()
        try:
            (runs,) = _decide_shape(machine, 2, 8, [machine.budget])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert runs == ((0, 65536),)
        assert peak < 2**20

    def test_a_repeated_budget_takes_the_earlier_budgets_runs(self, monkeypatch):
        # Starved, every member is a mismatch, recorded once for the last
        # budget even when an earlier one repeats it.  At the full budget
        # the 2 x (1..5) shapes take 2, 6, 15, 31 and 56 branches, less
        # what viability skips: at 2 x 1 the start cannot see two 1s in its
        # row, so the shape takes no search, and at 2 x (2..5) count1_0 on
        # the last cell of row 1, with no 1 read, is skipped: the search
        # that reaches it ends there, where its two branches took two.
        # 110 - 2 - 4 = 104.  Each list is swept on a fresh machine, so that
        # its tables keep no runs yet, and then again on the same machine,
        # which reads the runs they kept and makes no search.
        for budget, searches in ((g.build_M_Mi(1).budget, 104), (g.Budget(0, g.INF), None)):
            reports, counts = [], []
            for budgets in ([budget], [budget, budget], [budget, g.Budget(1, 0), budget]):
                machine = dataclasses.replace(g.build_M_Mi(1))
                sweep = lambda: reports.append(g.budget_sweep(machine, "M1", 2, 5, budgets))
                counts.append(count_searches(monkeypatch, sweep))
                assert count_searches(monkeypatch, sweep) == 0
                assert reports.pop() == reports[-1]
            once, twice, around = reports
            assert counts[0] == counts[1] == (searches or counts[0])
            assert twice.per_budget == once.per_budget * 2
            assert around.per_budget[::2] == once.per_budget * 2
            assert twice.mismatches == around.mismatches == once.mismatches

    def test_language_sample_shares_searches(self, monkeypatch):
        # (1..4)x(1..4) is 74,954 pictures; M_M2 halts early on most of them.
        # A fresh copy, whose tables keep no shape's runs yet.
        machine = dataclasses.replace(g.build_M_Mi(2))
        sample = []
        searched = count_searches(
            monkeypatch, lambda: sample.extend(g.language_sample(machine, 4, 4))
        )
        assert searched < 1000
        assert len(sample) == 46 and all(g.in_M(2, p) for p in sample)

    def test_empty_alphabet_decides_no_picture(self):
        # Valid, and accepts on the frame alone, but has no picture to read.
        machine = g.Automaton(
            "empty", (), ("s", "acc"), "s", "acc", "det", g.FOUR_WAY,
            g.Budget(g.INF, g.INF), {("s", "#"): (("acc", R),)},
        )
        assert g.language_sample(machine, 2, 3) == []
        report = g.budget_sweep(machine, "L1", 2, 3, [machine.budget, g.Budget(0, 0)])
        assert report.per_budget == (
            (machine.budget, 0, 0), (g.Budget(0, 0), 0, 0),
        )
        assert report.member_total == 0 and report.mismatches == ()

    def four_way(self, name, transitions):
        return g.Automaton(
            name, ("0", "1", "2"), ("s", "t", "u", "acc"), "s", "acc", "det",
            g.FOUR_WAY, g.Budget(g.INF, g.INF), transitions,
        )

    def test_farthest_on_the_left_ring(self, monkeypatch):
        # On a 1 at (1,1): left onto the ring, down it, and back up to
        # accept.  On a 2 it accepts at once, on a 0 it halts.
        machine = self.four_way("left_ring", {
            ("s", "1"): (("t", L),),
            ("s", "2"): (("acc", L),),
            ("t", "#"): (("u", D),),
            ("u", "#"): (("acc", U),),
        })
        p = g.Picture.from_rows(["12", "00"])
        assert farthest(machine, p) == (2, 0) and g.accepts(machine, p)
        for rows, cols_max in ((2, 3), (3, 2)):
            assert_sweep_matches_decisions(machine, rows, cols_max, [machine.budget])
        # Ring cells are never unread, so the walk down the left ring and
        # back reads no cell: a 2 x c shape's search takes one branch per
        # value of (1,1), each deciding every picture that starts with it.
        # A fresh copy, whose tables keep none of the runs the sweeps above
        # searched.
        fresh = dataclasses.replace(machine)
        searched = count_searches(
            monkeypatch, lambda: g.oracle_equivalence(fresh, "L1", 2, 2)
        )
        assert searched == 2 * 3 == 6

    def test_farthest_on_the_right_ring(self):
        # Walks row 1 while it reads 1s and accepts from its right ring.
        machine = self.four_way("right_ring", {
            ("s", "1"): (("s", R),),
            ("s", "#"): (("acc", L),),
            ("s", "2"): (("t", D),),
            ("t", "2"): (("acc", R),),
        })
        p = g.Picture.from_rows(["111", "000"])
        assert farthest(machine, p) == (1, 4) and g.accepts(machine, p)
        for rows, cols_max in ((2, 3), (3, 2), (1, 4)):
            assert_sweep_matches_decisions(machine, rows, cols_max, [machine.budget])

    def test_farthest_on_the_bottom_ring(self):
        # Walks column 1 down while it reads 1s and accepts from the bottom ring.
        machine = self.four_way("bottom_ring", {
            ("s", "1"): (("s", D),),
            ("s", "#"): (("acc", U),),
            ("s", "2"): (("t", L),),
            ("t", "#"): (("acc", D),),
        })
        p = g.Picture.from_rows(["10", "12"])
        assert farthest(machine, p) == (3, 1) and g.accepts(machine, p)
        for rows, cols_max in ((2, 3), (3, 2), (4, 1)):
            assert_sweep_matches_decisions(machine, rows, cols_max, [machine.budget])


def clear_builders():
    """Clear the caches of the builders ``hierarchy_report`` calls, so that
    its next call builds machines whose tables keep no shape's runs."""
    for build in (g.build_M_Mi, g.build_S_rec):
        build.cache_clear()


class TestHierarchyReport:
    def test_example_table(self):
        text = g.hierarchy_report(2, 4).format_records()
        assert text.count("starvation=confirmed") == 4
        assert "FAILED" not in text and "vacuous" not in text
        # two three-way rows and two two-way rows in the record section
        records = [line for line in text.split("\n") if line.startswith("record=")]
        assert sum("class=3W[" in line for line in records) == 2
        assert sum("class=2W[" in line for line in records) == 2

    def test_deterministic_across_runs(self):
        assert g.hierarchy_report(1, 3).format_table() == g.hierarchy_report(1, 3).format_table()

    def test_parameter_error(self):
        with pytest.raises(ValueError):
            g.hierarchy_report(0, 3)

    @pytest.mark.parametrize("cols_max", [0, -1])
    def test_empty_sweep_is_error(self, cols_max):
        with pytest.raises(ValueError, match=r"^need cols_max >= 1"):
            g.hierarchy_report(1, cols_max)

    def test_vacuous_when_no_members_in_range(self):
        assert "vacuous" in g.hierarchy_report(2, 3).format_table()

    @pytest.mark.parametrize("i_max, cols_max", [(2, 6), (3, 4)])
    def test_members_follow_the_closed_forms(self, i_max, cols_max):
        # 4 x 6 and 6 x 4 shapes hold 2**24 pictures each: the sweeps count
        # them in runs and never make them.  M_i has C(c, 2)**i members of
        # c columns (each of its i row pairs picks its two stacked columns
        # on its own), and S_2i one, at 2i columns.
        report = g.hierarchy_report(i_max, cols_max)
        expected = []
        for i in range(1, i_max + 1):
            expected.append((f"M{i}", sum(comb(c, 2) ** i for c in range(1, cols_max + 1))))
            expected.append((f"S{2 * i}", int(2 * i <= cols_max)))
        assert [(r.language, r.members) for r in report.rows] == expected
        for r in report.rows:
            assert r.starvation == ("confirmed" if r.members else "vacuous")
            assert r.mismatches == 0

    def test_peak_memory_stays_small(self):
        # The 4 x 5 shape holds 2**20 pictures; none of them is held at once.
        tracemalloc.start()
        try:
            g.hierarchy_report(2, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_a_recognizer_that_accepts_no_member_fails_starvation(self, monkeypatch):
        starve_the_chain(monkeypatch)
        report = g.hierarchy_report(1, 3)
        assert not report.ok
        assert report.format_records().split("\n") == [
            "record=hierarchy i=1 class=3W[1]-det language=M1 members=4 "
            "starvation=FAILED mismatches=4",
            "record=hierarchy i=1 class=2W[1,0]-det language=S2 members=1 "
            "starvation=confirmed mismatches=0",
        ]

    def test_searches_far_fewer_pictures_than_it_decides(self, monkeypatch):
        # The chains' recognizers are deterministic and most pictures stop
        # them after a few cells: about 71,000 decisions, under 1,000 searches.
        clear_builders()  # so that the call is cold
        assert count_searches(monkeypatch, lambda: g.hierarchy_report(2, 4)) < 1000

    def test_a_warm_call_matches_a_cold_one(self, monkeypatch):
        # The builders share one machine per parameter, and the tables cached
        # on it keep what no picture's cells enter, each shape's runs among
        # them: a second call builds no tables and makes no search.  Once the
        # builders' caches are cleared, a third call is cold again.
        names = ("__init__", "viable", "across")
        reports, calls, searched = [], [], []
        for clear in (True, False, True):
            if clear:
                clear_builders()
            searched.append(count_searches(monkeypatch, lambda: calls.append(count_calls(
                monkeypatch, lambda: reports.append(g.hierarchy_report(2, 4)), *names
            ))))
        cold, warm, again = calls
        assert reports[0] == reports[1] == reports[2]
        assert cold["__init__"] == 8 and cold["viable"] > 0 and cold["across"] > 0
        assert searched == [315, 0, 315]
        assert warm == {"__init__": 0, "viable": 0, "across": 0}
        assert again == cold
        assert g.make_machine("M_Mi", 2) is g.build_M_Mi(2)

    def test_a_warm_call_makes_no_shape_rows(self, monkeypatch):
        # A warm call reads each shape's kept runs and the languages' kept
        # steps and tables, and no sweep of it lists a mismatch, so it
        # decodes no picture and makes no shape's rows.
        g.hierarchy_report(2, 4)
        made = []
        row_stream = g.grid._row_stream
        monkeypatch.setattr(
            g.grid, "_row_stream", lambda *args: made.append(args) or row_stream(*args)
        )
        g.hierarchy_report(2, 4)
        assert made == []

    def test_starved_budgets_take_no_search_at_2_by_4(self, monkeypatch):
        # Searching every budget in full takes 746 branches, 369 of them
        # under the starved budgets.  No shape under those has a viable
        # start, and the full budgets skip the configurations that no
        # filling lets accept: 329 branches.  The S_rec sweeps never move
        # left and are counted by columns with no search: 315 branches, all
        # M_Mi's.
        clear_builders()  # so that no earlier call's tables keep a shape's runs
        assert count_searches(monkeypatch, lambda: g.hierarchy_report(2, 4)) == 315

    def test_no_starved_chain_budget_is_searched(self, monkeypatch):
        # At one unit below the full budget, no filling of any shape up to
        # 6 columns lets a chain machine accept, and its viable bitsets
        # show it at the start: only the full budgets' tables are searched.
        # S_rec never moves left, so its sweeps count by columns and search
        # neither budget.
        clear_builders()  # so that no earlier call's tables keep a shape's runs
        built, searched = [], []
        for name in ("build_M_Mi", "build_S_rec"):
            build = getattr(g.experiments, name)
            monkeypatch.setattr(
                g.experiments, name, lambda i, build=build: built.append(build(i)) or built[-1]
            )
        explore = _Tables.explore

        def recording(self, frame, *args, **kwargs):
            if frame[0] is not None:  # not a column step, whose side columns are unread
                searched.append(id(self))
            return explore(self, frame, *args, **kwargs)

        monkeypatch.setattr(_Tables, "explore", recording)
        assert g.hierarchy_report(3, 6).ok
        assert len(built) == 6
        for machine in built:
            full, tables = machine.budget, machine.__dict__["_tables"]
            assert id(tables[full.up - 1, full.left]) not in searched
            assert (id(tables[full]) in searched) == machine.name.startswith("M_M")
