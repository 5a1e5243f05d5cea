import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfa as g
from gridfa.machine import DELTAS

import reference
from conftest import all_pictures

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
