import dataclasses
import gc
import random
import sys
import threading
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfa as g
from gridfa.machine import DELTAS
from gridfa.simulator import _BITSET_MIN, _Tables, _decide, _decide_shape, _layout, _tables

import reference
from conftest import all_pictures, count_searches, random_machines

D, U, L, R = g.Direction.D, g.Direction.U, g.Direction.L, g.Direction.R


class TestInitialConfiguration:
    def test_starts_top_left_full_budgets(self):
        a = g.build_A_L1()
        p = g.Picture.from_rows(["010", "010"])
        assert g.initial_configuration(a, p) == g.Configuration("scan1", 1, 1, 1, g.INF)

    def test_budget_fields_follow_declaration(self):
        c = g.build_C_L1_2W()
        p = g.Picture.from_rows(["11", "11"])
        cfg = g.initial_configuration(c, p)
        assert (cfg.up_left, cfg.left_left) == (1, 0)

    def test_alphabet_mismatch(self):
        a = g.Automaton(
            "zeros", ("0",), ("s", "t"), "s", "t", "det",
            g.THREE_WAY_NO_UP, g.Budget(0, g.INF), {},
        )
        with pytest.raises(g.AlphabetError):
            g.initial_configuration(a, g.Picture.from_rows(["1"]))

    def test_override_only_lowers(self):
        a = g.build_A_L1()
        p = g.Picture.from_rows(["11", "11"])
        assert g.initial_configuration(a, p, g.Budget(0, 0)).up_left == 0
        with pytest.raises(g.BudgetOverrideError):
            g.initial_configuration(a, p, g.Budget(2, g.INF))

    @pytest.mark.parametrize("override", [3, 1.5, "inf", (1,), (1, 0, 0)])
    def test_override_that_is_not_a_pair_is_a_typed_error(self, override):
        a = g.build_A_L1()
        p = g.Picture.from_rows(["11", "11"])
        message = r"^budget override must be an \(up, left\) pair, got "
        for call in (
            lambda: g.accepts(a, p, override),
            lambda: g.initial_configuration(a, p, override),
            lambda: g.config_space_bound(a, p, override),
            lambda: g.budget_sweep(a, "L1", 2, 2, [override]),
        ):
            with pytest.raises(g.BudgetOverrideError, match=message):
                call()

    def test_override_may_be_a_plain_pair(self):
        a = g.build_A_L1()
        p = g.Picture.from_rows(["11", "11"])
        assert g.accepts(a, p, (1, g.INF)) == g.accepts(a, p, g.Budget(1, g.INF)) is True
        assert g.accepts(a, p, (0, g.INF)) is False
        assert g.initial_configuration(a, p, (0, g.INF)).up_left == 0
        assert g.config_space_bound(a, p, (1, g.INF)) == g.config_space_bound(a, p)
        sweep = g.budget_sweep(a, "L1", 2, 2, [(0, g.INF), (1, g.INF)])
        assert sweep == g.budget_sweep(a, "L1", 2, 2, [g.Budget(0, g.INF), g.Budget(1, g.INF)])

    def test_errors_come_in_search_order(self):
        # machine, then picture, then budget, as accepts reports them
        a = g.build_A_L1()
        invalid = g.Automaton(
            "bad", a.alphabet, a.states, "nope", a.accepting, a.mode,
            a.policy, a.budget, a.transitions,
        )
        fine, stray = g.Picture.from_rows(["11", "11"]), g.Picture.from_rows(["012"])
        above = g.Budget(2, g.INF)
        for ask in (g.accepts, g.initial_configuration, g.config_space_bound):
            with pytest.raises(g.MachineInvalidError):
                ask(invalid, fine)
        for ask in (g.accepts, g.initial_configuration):
            with pytest.raises(g.MachineInvalidError):
                ask(invalid, stray, above)
            with pytest.raises(g.AlphabetError):
                ask(a, stray, above)
        # Above the threshold the bitsets check the same, in the same order
        # and with the same text, wide or tall, for every decision.
        stray = g.Picture.from_rows(["0" * _BITSET_MIN + "2x", "1" * (_BITSET_MIN + 2)])
        with pytest.raises(g.AlphabetError) as searched:
            _layout(a, stray)
        fine = g.Picture.from_rows(["1" * _BITSET_MIN] * 2)
        det = g.build_M_M1()
        for machine, ask in (
            (a, g.accepts), (a, g.accepting_trace), (det, g.run_deterministic),
        ):
            for p in (stray, g.transpose(stray)):
                with pytest.raises(g.MachineInvalidError):
                    ask(dataclasses.replace(machine, initial="nope"), p, above)
                with pytest.raises(g.AlphabetError) as err:
                    ask(machine, p, above)
                assert str(err.value) == str(searched.value)
            with pytest.raises(g.BudgetOverrideError):
                ask(machine, fine, above)


class TestLayout:
    # A 3x4 picture over {0, 1}: corner cells, cells on the frame edge
    # (next to the ring) and interior cells, 0-based.
    @pytest.mark.parametrize(
        "cells",
        [
            [(0, 0)], [(0, 3)], [(2, 0)], [(2, 3)],
            [(0, 1)], [(1, 0)], [(1, 3)], [(2, 2)],
            [(1, 1)], [(1, 2)],
            [(1, 2), (0, 0)], [(2, 3), (1, 1), (0, 2)],
        ],
    )
    def test_foreign_symbols_name_themselves_sorted(self, cells):
        a = g.build_A_L1()
        foreign = ["x", "2", "a"][: len(cells)]
        rows = [list("0101"), list("1100"), list("0011")]
        for (r, c), symbol in zip(cells, foreign):
            rows[r][c] = symbol
        p = g.Picture.from_rows(["".join(row) for row in rows])
        message = f"picture uses symbols {sorted(foreign)} outside machine alphabet"
        for ask in (g.accepts, g.initial_configuration, g.accepting_trace):
            with pytest.raises(g.AlphabetError) as err:
                ask(a, p)
            assert str(err.value) == message
        with pytest.raises(g.AlphabetError) as err:
            g.run_deterministic(g.build_M_M1(), p)
        assert str(err.value) == message

    def test_the_frame_holds_ring_keys_around_the_cells(self):
        frame = _layout(g.build_A_L1(), g.Picture.from_rows(["01", "10"]))
        assert frame == [
            "#UL", "#U", "#U", "#UR",
            "#L", "0", "1", "#R",
            "#L", "1", "0", "#R",
            "#DL", "#D", "#D", "#DR",
        ]

    def test_a_search_raises_on_a_key_that_no_row_has(self):
        # ``_layout`` refuses a foreign symbol before any search, so only a
        # frame built by hand holds one: the search raises on reading it,
        # where an unread cell (None) would fork.
        a = g.build_A_L1()
        frame = _layout(a, g.Picture.from_rows(["01", "10"]))
        frame[5] = "x"  # cell (1,1), where the search starts
        with pytest.raises(KeyError) as err:
            _tables(a, *a.budget).explore(frame, 4)
        assert err.value.args == ("x",)


@given(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
@settings(max_examples=100, deadline=None)
def test_table_rows_match_the_move_by_move_reference(machine):
    for up in (0, 1, 2, g.INF):
        for left in (0, 1, 2, g.INF):
            tables = _Tables(machine, up, left)
            for low in range(len(tables.states) * tables.per_state):
                assert tables[low] == reference.table_row(tables, low)


class TestStep:
    def test_u_with_zero_budget_excluded(self):
        a = g.build_A_L1()
        p = g.Picture.from_rows(["11", "11"])
        starved = g.Configuration("scan2", 2, 2, 0, g.INF)
        assert g.step(a, p, starved) == (g.Configuration("scan2", 2, 3, 0, g.INF),)

    def test_frame_exit_excluded(self):
        up_at_top = g.Automaton(
            "top", ("0", "1"), ("s", "t"), "s", "t", "nondet",
            g.FOUR_WAY, g.Budget(g.INF, g.INF),
            {("s", "#"): (("t", U),)},
        )
        p = g.Picture.from_rows(["1"])
        at_frame_top = g.Configuration("s", 0, 1, g.INF, g.INF)
        assert g.step(up_at_top, p, at_frame_top) == ()

    def test_deterministic_successor_at_most_one(self):
        m = g.build_M_M1()
        for p in all_pictures(2, 3):
            cfg = g.initial_configuration(m, p)
            assert len(g.step(m, p, cfg)) <= 1

    def test_budget_decrements_on_u(self):
        a = g.build_A_L1()
        p = g.Picture.from_rows(["11", "11"])
        cfg = g.Configuration("scan2", 2, 2, 1, g.INF)
        successors = g.step(a, p, cfg)
        ups = [c for c in successors if c.state == "verify_up"]
        assert ups == [g.Configuration("verify_up", 1, 2, 0, g.INF)]

    def test_accepting_state_has_no_successors(self):
        a = g.build_A_L1()
        p = g.Picture.from_rows(["11", "11"])
        assert g.step(a, p, g.Configuration("acc", 2, 2, 0, g.INF)) == ()


class TestRunDeterministic:
    def test_walks_off_bottom_and_halts(self):
        diver = g.Automaton(
            "diver", ("0", "1"), ("s", "t"), "s", "t", "det",
            g.THREE_WAY_NO_UP, g.Budget(0, g.INF),
            {("s", "0"): (("s", D),), ("s", "1"): (("s", D),)},
        )
        p = g.Picture.from_rows(["1", "1", "1"])
        outcome, trace = g.run_deterministic(diver, p)
        assert outcome is g.RunOutcome.REJECT_HALT
        assert trace.final.row == p.rows + 1  # stuck on the bottom frame

    def test_loop_detected_within_bound(self, looper):
        p = g.Picture.from_rows(["10"])
        outcome, trace = g.run_deterministic(looper, p)
        assert outcome is g.RunOutcome.LOOP
        assert len(trace.steps) <= g.config_space_bound(looper, p)

    def test_deterministic_checker_accepts_member(self):
        m = g.build_M_M1()
        member = g.Picture.from_rows(["101", "101"])
        outcome, trace = g.run_deterministic(m, member)
        assert outcome is g.RunOutcome.ACCEPT
        assert trace.final.state == "acc"

    def test_mode_error_on_nondeterministic(self):
        with pytest.raises(g.ModeError):
            g.run_deterministic(g.build_A_L1(), g.Picture.from_rows(["1", "1"]))

    def test_agrees_with_accepts(self, looper):
        for machine in (g.build_M_M1(), looper):
            for p in all_pictures(2, 3):
                outcome, _ = g.run_deterministic(machine, p)
                assert (outcome is g.RunOutcome.ACCEPT) == g.accepts(machine, p)


def _brancher() -> g.Automaton:
    """A fresh deterministic machine that loops on a 0 in cell (1,1) and
    goes down on a 1: it accepts from the bottom ring and halts on a 0."""
    return g.Automaton(
        "brancher", ("0", "1"), ("ping", "pong", "down", "acc"), "ping", "acc", "det",
        g.THREE_WAY_NO_UP, g.Budget(0, g.INF),
        {
            ("ping", "0"): (("pong", R),),
            ("pong", "0"): (("ping", L),),
            ("pong", "#"): (("ping", L),),
            ("ping", "1"): (("down", D),),
            ("down", "#"): (("acc", R),),
        },
    )


#: The width of the wide runs: their outcomes are read off bitsets.
WIDE = _BITSET_MIN + 6

#: One run per outcome, on a small picture and on a wide one: (machine
#: builder, picture rows, outcome).
RUNS = [
    (g.build_M_M1, ["0110", "0110"], g.RunOutcome.ACCEPT),
    (g.build_M_M1, ["101", "100"], g.RunOutcome.REJECT_HALT),
    (_brancher, ["0"], g.RunOutcome.LOOP),
    pytest.param(
        lambda: g.build_M_Mi(2), [f"{'0' * 60}1001{'0' * (WIDE - 64)}"] * 4, g.RunOutcome.ACCEPT,
        id="wide-M_M2-ACCEPT",
    ),
    pytest.param(
        lambda: g.build_M_Mi(2),
        [f"{'0' * 60}1001{'0' * (WIDE - 64)}"] * 3 + [f"{'0' * 60}1000{'0' * (WIDE - 64)}"],
        g.RunOutcome.REJECT_HALT,
        id="wide-M_M2-REJECT_HALT",
    ),
    pytest.param(_brancher, ["0" * WIDE], g.RunOutcome.LOOP, id="wide-brancher-LOOP"),
]


@pytest.mark.parametrize("build, rows, outcome", RUNS)
class TestDeterministicTraceOnFirstRead:
    """A trace from ``run_deterministic`` is decoded on its first read and
    is then the same value as the eagerly built trace of the run."""

    def test_equals_and_hashes_like_the_trace_of_its_fields(self, build, rows, outcome):
        machine, p = build(), g.Picture.from_rows(rows)
        read = g.run_deterministic(machine, p)[1]
        eager = g.Trace(read.steps, read.final, read.outcome)
        assert read.outcome is outcome
        assert eager == reference.run_deterministic(machine, p)[1]
        # Each comparison starts from a trace nothing has read yet.
        assert g.run_deterministic(machine, p)[1] == eager
        assert eager == g.run_deterministic(machine, p)[1]
        assert hash(g.run_deterministic(machine, p)[1]) == hash(eager)
        assert repr(g.run_deterministic(machine, p)[1]) == repr(eager)
        assert g.run_deterministic(machine, p)[1].configurations() == eager.configurations()
        assert g.run_deterministic(machine, p)[1].directions() == eager.directions()

    def test_formats_like_the_trace_of_its_fields(self, build, rows, outcome):
        machine, p = build(), g.Picture.from_rows(rows)
        read = g.run_deterministic(machine, p)[1]
        eager = g.Trace(read.steps, read.final, read.outcome)
        text = g.format_trace(g.run_deterministic(machine, p)[1])
        assert text == g.format_trace(eager)
        assert text.split("\n")[-1].endswith(outcome.value)

    def test_refuses_attribute_assignment(self, build, rows, outcome):
        machine, p = build(), g.Picture.from_rows(rows)
        expected = reference.run_deterministic(machine, p)[1]
        trace = g.run_deterministic(machine, p)[1]
        for field in ("steps", "final", "outcome", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trace, field, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(trace, field)
        with pytest.raises(AttributeError):
            trace.extra
        assert trace == expected  # the first read, after the refusals
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.final = None


@pytest.mark.parametrize("build, rows, outcome", RUNS)
def test_a_deterministic_run_is_one_search_and_a_step_none(build, rows, outcome, monkeypatch):
    # The last configuration's row tells a halt from a loop, and ``step``
    # reads one row: neither searches again.  A wide run's outcome is read
    # off bitsets, and its trace searches on its first read.
    machine, p = build(), g.Picture.from_rows(rows)
    runs = []
    searched = count_searches(monkeypatch, lambda: runs.append(g.run_deterministic(machine, p)))
    (run, trace), = runs
    read = count_searches(monkeypatch, lambda: trace.final)
    assert (searched, read) == ((0, 1) if p.cols >= _BITSET_MIN else (1, 0))
    assert run is outcome and trace == reference.run_deterministic(machine, p)[1]
    configs = trace.configurations()
    steps = []
    assert count_searches(
        monkeypatch, lambda: steps.extend(g.step(machine, p, c) for c in configs)
    ) == 0
    assert steps == [reference.step(machine, p, c) for c in configs]
    if outcome is g.RunOutcome.LOOP:  # the final configuration was met before
        assert steps[-1] == (configs[configs.index(configs[-1]) + 1],)
    else:
        assert steps[-1] == ()


def test_a_same_row_cycle_gives_up_the_bitsets_for_one_search(monkeypatch):
    # p and q pass the head right in turn, so the bitsets gain one cell per
    # expansion: past their bound they give up, and ``explore`` decides at
    # about its own cost.
    machine = g.Automaton(
        "cycle", ("0", "1"), ("p", "q", "acc"), "p", "acc", "det", g.THREE_WAY,
        g.Budget(1, g.INF),
        {("p", "0"): (("q", R),), ("q", "0"): (("p", R),), ("p", "#"): (("acc", L),)},
    )
    p = g.Picture.from_rows(["0" * 8192] * 2)
    assert _decide(machine, p, None)[2] is not None  # the bitsets gave up for the search
    verdicts = []
    assert count_searches(monkeypatch, lambda: verdicts.append(g.accepts(machine, p))) == 1
    assert verdicts == [True] and g.run_deterministic(machine, p)[0] is g.RunOutcome.ACCEPT

    def best(call):
        times = []
        for _ in range(3):
            started = time.perf_counter()
            call()
            times.append(time.perf_counter() - started)
        return min(times)

    assert best(lambda: g.accepts(machine, p)) < 2 * best(lambda: _decide(machine, p, None, True))


@pytest.mark.parametrize("rows", [["0" * _BITSET_MIN] * 2, ["00"] * _BITSET_MIN, ["000"] * 2])
def test_a_start_state_that_accepts_accepts_before_any_move(rows):
    # The run accepts where it starts, on bitsets as in the search: no step,
    # and the final configuration is the initial one on cell (1,1).
    machine = g.Automaton(
        "done", ("0", "1"), ("s",), "s", "s", "det", g.THREE_WAY_NO_UP, g.Budget(0, g.INF), {},
    )
    p = g.Picture.from_rows(rows)
    assert g.accepts(machine, p) is True
    outcome, trace = g.run_deterministic(machine, p)
    assert outcome is g.RunOutcome.ACCEPT
    assert trace.steps == () and trace.final == g.Configuration("s", 1, 1, 0, g.INF)
    assert g.accepting_trace(machine, p).steps == ()


@pytest.mark.parametrize("rows", [["000"] * 2, ["0" * 70] * 2, ["00"] * 70])
def test_an_empty_alphabet_refuses_every_picture(rows):
    # No symbol is in an empty alphabet, so every decision names the
    # picture's symbols, on bitsets as in the search.
    machine = g.Automaton(
        "blank", (), ("s", "t"), "s", "t", "det", g.THREE_WAY_NO_UP, g.Budget(0, g.INF), {},
    )
    p = g.Picture.from_rows(rows)
    for ask in (g.accepts, g.run_deterministic, g.accepting_trace):
        with pytest.raises(g.AlphabetError) as err:
            ask(machine, p)
        assert str(err.value) == "picture uses symbols ['0'] outside machine alphabet"


@pytest.mark.parametrize(
    "rows, outcome",
    [(["1"], g.RunOutcome.ACCEPT), (["1", "0"], g.RunOutcome.REJECT_HALT), (["0"], g.RunOutcome.LOOP)],
)
def test_trace_decodes_after_later_searches_grow_the_tables(rows, outcome):
    machine, p = _brancher(), g.Picture.from_rows(rows)
    run, trace = g.run_deterministic(machine, p)
    assert run is outcome
    tables = _tables(machine, *machine.budget)
    built = len(tables)
    for other in all_pictures(2, 3):
        g.run_deterministic(machine, other)
    assert len(tables) > built  # the later runs reached states this one did not
    assert trace == reference.run_deterministic(machine, p)[1]


class TestAcceptingTrace:
    def test_rejected_picture_has_no_trace(self):
        assert g.accepting_trace(g.build_A_L1(), g.Picture.from_rows(["00", "00"])) is None

    def test_first_configuration_is_initial(self, fig1_word):
        a = g.build_A_L1()
        trace = g.accepting_trace(a, fig1_word)
        assert trace.steps[0].config == g.initial_configuration(a, fig1_word)

    def test_exactly_one_up_step_on_fig1(self, fig1_word):
        trace = g.accepting_trace(g.build_A_L1(), fig1_word)
        assert trace.directions().count(U) == 1

    def test_deterministic_run_traces_equal_accepting_traces(self):
        for machine in (g.build_M_M1(), g.build_M_Mi(2)):
            for p in all_pictures(machine.budget.up * 2, 4):
                outcome, trace = g.run_deterministic(machine, p)
                if outcome is g.RunOutcome.ACCEPT:
                    assert trace == g.accepting_trace(machine, p)
                    assert g.format_trace(trace) == g.format_trace(g.accepting_trace(machine, p))

    def test_stable_across_calls(self, fig1_word):
        a = g.build_A_L1()
        assert g.accepting_trace(a, fig1_word) == g.accepting_trace(a, fig1_word)

    def test_consecutive_configurations_linked_by_one_move(self, fig1_word):
        a = g.build_A_L1()
        trace = g.accepting_trace(a, fig1_word)
        configs = trace.configurations()
        for before, step, after in zip(configs, trace.steps, configs[1:]):
            drow, dcol = DELTAS[step.direction]
            assert (after.row, after.col) == (before.row + drow, before.col + dcol)

    def test_budget_monotone_and_decrements_by_one(self, fig1_word):
        for machine in (g.build_A_L1(), g.build_B_L(2), g.build_M_Mi(2)):
            words = [fig1_word, g.row_concat(fig1_word, fig1_word)]
            for word in words:
                trace = g.accepting_trace(machine, word)
                if trace is None:
                    continue
                configs = trace.configurations()
                for before, step, after in zip(configs, trace.steps, configs[1:]):
                    spent = 1 if step.direction is U else 0
                    assert after.up_left == before.up_left - spent
                    assert after.left_left == before.left_left  # L free here
                    assert before.up_left > 0 or step.direction is not U

    def test_frame_closure_along_trace(self, fig1_word):
        trace = g.accepting_trace(g.build_A_L1(), fig1_word)
        for cfg in trace.configurations():
            assert 0 <= cfg.row <= fig1_word.rows + 1
            assert 0 <= cfg.col <= fig1_word.cols + 1

    def test_trace_replays_through_enabled_moves(self):
        jobs = [
            (g.build_A_L1(), g.make_w(2, 4, 5)),
            (g.build_M_M1(), g.Picture.from_rows(["101", "101"])),
            (g.build_P_N2(), g.Picture.from_rows(["10", "10", "01", "01"])),
            (g.build_D_K(2), g.Picture.from_rows(["11110", "11110"])),
            (g.build_S_rec(1), g.Picture.from_rows(["1111", "1111"])),
        ]
        for machine, word in jobs:
            trace = g.accepting_trace(machine, word)
            assert trace is not None
            configs = trace.configurations()
            for before, step, after in zip(configs, trace.steps, configs[1:]):
                assert (step.direction, after) in reference.successors(machine, word, before)
            assert configs[-1].state == machine.accepting


class TestAcceptsAndComplement:
    def test_accepts_fig1(self, fig1_word):
        assert g.accepts(g.build_A_L1(), fig1_word)

    def test_budget_monotone_acceptance(self):
        m = g.build_M_Mi(2)
        budgets = [g.Budget(k, g.INF) for k in (0, 1, 2)]
        accepted = [
            {p for p in all_pictures(4, 3) if g.accepts(m, p, b)} for b in budgets
        ]
        assert accepted[0] <= accepted[1] <= accepted[2]

    def test_bad_picture_reported_before_bad_budget(self):
        a, stray, above = g.build_A_L1(), g.Picture.from_rows(["012"]), g.Budget(2, g.INF)
        for decide in (g.accepts, g.accepting_trace):
            with pytest.raises(g.AlphabetError):
                decide(a, stray, above)
        with pytest.raises(g.AlphabetError):
            g.run_deterministic(g.build_M_M1(), stray, above)

    def test_complement_is_exact_negation(self, looper):
        for machine in (g.build_M_M1(), looper):
            for p in all_pictures(2, 3):
                assert g.decide_complement(machine, p) != g.accepts(machine, p)

    def test_complement_mode_error(self):
        with pytest.raises(g.ModeError):
            g.decide_complement(g.build_A_L1(), g.Picture.from_rows(["1", "1"]))

    def test_loop_means_complement_true(self, looper):
        assert g.decide_complement(looper, g.Picture.from_rows(["01"]))


class TestLanguageSample:
    def test_no_transitions_empty_sample(self, reject_all):
        assert g.language_sample(reject_all, 2, 3) == []

    def test_l1_sample_counts(self):
        # Independent oracle count first: 2x3 pictures with >= 2 stacked
        # columns, out of all 64.
        oracle_2x3 = [p for p in g.enumerate_pictures("01", 2, 3) if g.in_L(1, p)]
        assert len(oracle_2x3) == 10
        sample = g.language_sample(g.build_A_L1(), 2, 3)
        assert [p for p in sample if (p.rows, p.cols) == (2, 3)] == oracle_2x3

    def test_sample_equals_oracle_filtered_enumeration(self):
        sample = g.language_sample(g.build_P_N2(), 4, 2)
        oracle = [
            p
            for rows in (1, 2, 3, 4)
            for cols in (1, 2)
            for p in g.enumerate_pictures("01", rows, cols)
            if g.in_N2(p)
        ]
        assert sample == oracle


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_language_sample_matches_per_picture_decisions(data):
    machine = data.draw(st.sampled_from(["det", "nondet"]).flatmap(random_machines))
    rows_max, cols_max = data.draw(st.sampled_from([(3, 2), (2, 3)]))
    expected = [
        p
        for rows in range(1, rows_max + 1)
        for cols in range(1, cols_max + 1)
        for p in g.enumerate_pictures(machine.alphabet, rows, cols)
        if g.accepts(machine, p)
    ]
    assert g.language_sample(machine, rows_max, cols_max) == expected


class TestTraceFormat:
    def test_accept_trace_text(self, fig1_word):
        text = g.format_trace(g.accepting_trace(g.build_A_L1(), fig1_word))
        lines = text.split("\n")
        assert lines[0].startswith("scan1 (1,1) up=1 left=inf --R-->")
        assert lines[-1].endswith("ACCEPT")
        assert sum(1 for line in lines if "--U-->" in line) == 1

    def test_loop_trace_text(self, looper):
        _, trace = g.run_deterministic(looper, g.Picture.from_rows(["10"]))
        assert g.format_trace(trace).split("\n")[-1].endswith("LOOP")


@given(st.integers(0, 2 ** 8 - 1))
@settings(max_examples=64)
def test_termination_bound_exhaustive_2x4(bits):
    """Every deterministic run halts within |Q|(r+2)(c+2)(up+1)(left+1)."""
    m = g.build_M_M1()
    cells = format(bits, "08b")
    p = g.Picture.from_rows([cells[:4], cells[4:]])
    _, trace = g.run_deterministic(m, p)
    assert len(trace.steps) <= g.config_space_bound(m, p)


@given(random_machines())
@settings(max_examples=20, deadline=None)
def test_threads_that_share_machines_see_what_a_serial_run_sees(drawn):
    # The tables cached on a machine, the rows and per-shape bits they
    # keep, and an unread trace's decoding are filled by whichever thread
    # gets there first.  Four threads share fresh copies of M_M2 and of a
    # drawn machine, each deciding every shape under a starved and the
    # declared budget and reading shared traces, in its own order.  Every
    # thread gets what a serial run on other fresh copies gets.
    chain = g.build_M_Mi(2)
    budgets = [
        (chain, g.Budget(1, g.INF)), (chain, chain.budget),
        (drawn, g.Budget(0, 0)), (drawn, drawn.budget),
    ]
    shapes = [(rows, cols) for rows in range(1, 4) for cols in range(1, 5)]

    def reads():
        # Per key, a call that reads fresh copies of the two machines.
        copies = {machine.name: dataclasses.replace(machine) for machine in (chain, drawn)}
        calls = {
            (machine.name, rows, cols, budget): partial(
                _decide_shape, copies[machine.name], rows, cols, [budget]
            )
            for machine, budget in budgets
            for rows, cols in shapes
        }
        for n, p in enumerate(g.enumerate_pictures(chain.alphabet, 3, 2)):
            trace = g.run_deterministic(copies[chain.name], p)[1]  # unread
            calls[n] = partial(getattr, trace, "steps")
        return list(calls.items())

    expected = {key: read() for key, read in reads()}
    shared, seen = reads(), []
    barrier = threading.Barrier(4, timeout=30)

    def work(seed):
        order = random.Random(seed).sample(shared, len(shared))
        barrier.wait()
        seen.append({key: read() for key, read in order})

    # Switch threads often, so that the fills interleave.  The collector is
    # off meanwhile: CPython 3.11 has crashed (SIGSEGV) in a collection run
    # by one of these threads under Hypothesis, which the caches do not
    # depend on.
    interval, collecting = sys.getswitchinterval(), gc.isenabled()
    sys.setswitchinterval(1e-5)
    gc.disable()
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
        if collecting:
            gc.enable()
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [expected] * 4
