import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfa as g
from gridfa.machine import DELTAS, fmt_budget

from conftest import all_pictures, random_machines

D, U, L, R = g.Direction.D, g.Direction.U, g.Direction.L, g.Direction.R


def mk(
    transitions,
    mode="det",
    policy=g.THREE_WAY,
    budget=g.Budget(1, g.INF),
    states=None,
    initial="q0",
    accepting="qa",
    name="m",
):
    if states is None:
        states = sorted({initial, accepting} | {s for s, _ in transitions} | {t for v in transitions.values() for t, _ in v})
    return g.Automaton(
        name, ("0", "1"), tuple(states), initial, accepting, mode, policy, budget,
        {k: tuple(v) for k, v in transitions.items()},
    )


class TestValidate:
    def test_clean_machine(self):
        a = mk({("q0", "1"): [("qa", D)]})
        assert g.validate(a) == []

    def test_duplicate_deterministic_key(self):
        a = mk({("q0", "1"): [("qa", D), ("q0", R)]}, mode="det")
        assert any("deterministic" in p for p in g.validate(a))

    def test_l_move_is_fine_in_three_way(self):
        a = mk({("q0", "1"): [("qa", L)]})
        assert g.validate(a) == []

    def test_u_move_in_plain_two_way_flagged(self):
        plain_2w = g.DirectionPolicy(frozenset({D, R}))
        a = mk({("q0", "1"): [("qa", U)]}, policy=plain_2w, budget=g.Budget(0, 0))
        assert any("forbidden by the policy" in p for p in g.validate(a))

    def test_transition_out_of_accepting_flagged(self):
        a = mk({("qa", "1"): [("q0", D)], ("q0", "1"): [("qa", D)]})
        assert any("accepting state" in p for p in g.validate(a))

    def test_dangling_states_flagged(self):
        a = mk({("q0", "1"): [("ghost", D)]}, states=("q0", "qa"))
        assert any("ghost" in p for p in g.validate(a))

    def test_ensure_valid_raises(self):
        a = mk({("q0", "1"): [("ghost", D)]}, states=("q0", "qa"))
        with pytest.raises(g.MachineInvalidError):
            g.classify(a)


class TestPolicy:
    def test_partition_enforced(self):
        with pytest.raises(g.MachineError):
            g.DirectionPolicy(frozenset({D, R}), frozenset({D}))

    def test_only_u_l_budgeted(self):
        with pytest.raises(g.MachineError):
            g.DirectionPolicy(frozenset({U}), frozenset({R}))

    def test_forbidden_is_the_rest(self):
        assert g.THREE_WAY.forbidden == frozenset()
        assert g.THREE_WAY_NO_UP.forbidden == frozenset({U})
        assert g.DirectionPolicy(frozenset({D, R})).forbidden == frozenset({U, L})


class TestClassify:
    def test_three_way_with_budget(self):
        a = mk({("q0", "1"): [("qa", D)]}, budget=g.Budget(1, g.INF))
        assert g.classify(a) == g.ClassTag("3W", 1, g.INF, "det")
        assert str(g.classify(a)) == "3W[1] det"

    def test_plain_two_way(self):
        a = mk(
            {("q0", "1"): [("qa", D)]},
            policy=g.DirectionPolicy(frozenset({D, R})),
            budget=g.Budget(0, 0),
        )
        assert str(g.classify(a)) == "2W[0,0] det"

    def test_four_way(self):
        a = mk(
            {("q0", "1"): [("qa", U)]},
            policy=g.FOUR_WAY,
            budget=g.Budget(g.INF, g.INF),
        )
        assert str(g.classify(a)) == "4W det"

    def test_budget_zero_equals_no_budget(self):
        budgeted = mk({("q0", "1"): [("qa", D)]}, budget=g.Budget(0, g.INF))
        forbidden = mk(
            {("q0", "1"): [("qa", D)]}, policy=g.THREE_WAY_NO_UP, budget=g.Budget(0, g.INF)
        )
        assert g.classify(budgeted) == g.classify(forbidden)

    def test_monotone_in_budget(self):
        low = mk({("q0", "1"): [("qa", D)]}, budget=g.Budget(1, g.INF))
        high = mk({("q0", "1"): [("qa", D)]}, budget=g.Budget(2, g.INF))
        assert g.classify(high).up >= g.classify(low).up

    def test_dropping_unused_directions_never_grows_the_class(self):
        rank = {"2W": 0, "3W": 1, "3W-rot": 1, "4W": 2}
        table = {("q0", "1"): [("qa", D)]}  # uses D only
        tags = [
            g.classify(mk(table, policy=policy, budget=budget))
            for policy, budget in (
                (g.FOUR_WAY, g.Budget(g.INF, g.INF)),
                (g.THREE_WAY, g.Budget(0, g.INF)),
                (g.DirectionPolicy(frozenset({D, R})), g.Budget(0, 0)),
            )
        ]
        families = [rank[tag.family] for tag in tags]
        assert families == sorted(families, reverse=True)


class TestUnion:
    def test_branch_may_not_run_under_budget_it_did_not_declare(self):
        # Up budget 0 makes the U edge dead, so L(a) is empty; under the
        # joined up budget 1 of A_L1 the branch would accept e.g. 1/1.
        a = g.Automaton(
            "dead_up", ("0", "1"), ("s", "t", "acc"), "s", "acc", "nondet",
            g.THREE_WAY, g.Budget(0, g.INF),
            {("s", "1"): (("t", D),), ("t", "1"): (("acc", U),)},
        )
        assert not any(g.accepts(a, p) for p in all_pictures(2, 3))
        with pytest.raises(g.CompositionError):
            g.union_machine(a, g.build_A_L1())
        with pytest.raises(g.CompositionError):
            g.union_machine(g.build_A_L1(), a)

    def test_union_with_self_preserves_language(self):
        a = g.build_A_L1()
        u = g.union_machine(a, a)
        for rows, cols_max in ((2, 4), (1, 3)):
            for p in all_pictures(rows, cols_max):
                assert g.accepts(u, p) == g.accepts(a, p)

    def test_union_with_reject_all(self, reject_all):
        a = g.build_A_L1()
        u = g.union_machine(a, reject_all)
        for p in all_pictures(2, 5):
            assert g.accepts(u, p) == g.in_L(1, p)

    def test_union_of_shared_edge_into_accepting_states(self):
        a = g.Automaton(
            "one", ("0", "1"), ("s", "t"), "s", "t", "nondet",
            g.THREE_WAY, g.Budget(0, g.INF), {("s", "1"): (("t", R),)},
        )
        u = g.union_machine(a, a)
        assert g.validate(u) == []
        assert u.transitions_from(u.initial, "1") == (("accept", R),)

    def test_union_classifies_like_inputs(self):
        u = g.union_machine(g.build_A_L1(), g.build_B_L(1))
        assert str(g.classify(u)) == "3W[1] nondet"

    def test_alphabet_mismatch(self):
        a = g.build_A_L1()
        b = g.Automaton(
            "other", ("a", "b"), ("s", "t"), "s", "t", "nondet",
            g.THREE_WAY, g.Budget(0, g.INF), {},
        )
        with pytest.raises(g.CompositionError):
            g.union_machine(a, b)

    def test_union_is_validatable_and_round_trips(self):
        u = g.union_machine(g.build_A_L1(), g.build_P_N2())
        assert g.validate(u) == []
        assert g.parse_machine(g.serialize_machine(u)) == u

    def test_union_with_accept_everything_machine(self):
        # a machine whose initial state accepts recognizes every picture
        accept_all = g.Automaton(
            "yes", ("0", "1"), ("q",), "q", "q", "nondet",
            g.THREE_WAY, g.Budget(0, g.INF), {},
        )
        assert g.accepts(accept_all, g.Picture.from_rows(["0"]))
        u = g.union_machine(g.build_A_L1(), accept_all)
        assert g.validate(u) == []
        for p in all_pictures(1, 3):
            assert g.accepts(u, p)


class TestTransposeMachine:
    def test_involution(self):
        c = g.build_C_L1_2W()
        assert g.transpose_machine(g.transpose_machine(c)) == c

    def test_budget_and_class_swap(self):
        c = g.build_C_L1_2W()
        assert str(g.classify(c)) == "2W[1,0] nondet"
        assert str(g.classify(g.transpose_machine(c))) == "2W[0,1] nondet"

    def test_accepts_transposed_words(self):
        a = g.build_A_L1()
        at = g.transpose_machine(a)
        assert g.accepts(at, g.transpose(g.Picture.from_rows(["11", "11"])))
        for p in all_pictures(2, 3):
            assert g.accepts(at, g.transpose(p)) == g.accepts(a, p)


class TestRotateMachine:
    def test_rotated_three_way_becomes_three_way(self):
        sample = g.transpose_machine(g.build_A_L1())
        assert str(g.classify(sample)) == "3W-rot[1] nondet"
        rotated = g.rotate_machine(sample)
        assert g.classify(rotated).family == "3W"
        assert g.validate(rotated) == []

    def test_rotation_identity_per_picture(self):
        sample = g.transpose_machine(g.build_A_L1())
        rotated = g.rotate_machine(sample)
        for rows, cols in ((3, 2), (2, 2), (1, 3), (4, 1)):
            for p in g.enumerate_pictures("01", rows, cols):
                assert g.accepts(rotated, g.rotate90_cw(p)) == g.accepts(sample, p)

    def test_four_way_stays_four_way(self):
        four = mk(
            {("q0", "1"): [("qa", U)]},
            policy=g.FOUR_WAY,
            budget=g.Budget(g.INF, g.INF),
        )
        assert g.classify(g.rotate_machine(four)).family == "4W"

    def test_two_way_rotation_unsupported(self):
        with pytest.raises(g.RotationError):
            g.rotate_machine(g.build_C_L1_2W())


class TestSerialization:
    def test_round_trip_every_builder(self):
        for builder_id, (factory, parametric) in g.BUILDERS.items():
            machine = factory(2) if parametric else factory()
            assert g.parse_machine(g.serialize_machine(machine)) == machine, builder_id

    def test_transition_line(self):
        a = g.parse_machine(
            "machine t\nalphabet 0 1\nstates q0 q1\ninitial q0\naccept q1\n"
            "mode det\nfree D L R\nbudgeted U\nbudget up 1\nbudget left inf\n"
            "trans q0 1 -> q1 D\n"
        )
        assert a.transitions == {("q0", "1"): (("q1", D),)}

    def test_budget_inf_token(self):
        a = g.parse_machine(
            "machine t\nalphabet 0\nstates q0 q1\ninitial q0\naccept q1\n"
            "mode det\nfree D L R\nbudgeted U\nbudget up inf\nbudget left inf\n"
        )
        assert a.budget.up == g.INF
        assert fmt_budget(a.budget.up) == "inf"

    def test_comments_and_blank_lines_ignored(self):
        a = g.parse_machine(
            "# top comment\n\nmachine t\nalphabet 0\nstates q0 q1\n"
            "initial q0\naccept q1\nmode det\nfree D R\nbudgeted\n"
        )
        assert a.name == "t"
        # defaults: forbidden directions get budget 0
        assert a.budget == g.Budget(0, 0)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("machina t\n", "unknown directive"),
            ("machine t\nalphabet 0\nstates q0\ninitial q0\naccept q0\nmode det\n"
             "free D\nbudgeted\ntrans q9 0 -> q0 D\n", "undeclared state"),
            ("machine t\nalphabet 0\nstates q0 q1\ninitial q0\naccept q1\nmode det\n"
             "free D\nbudgeted\ntrans q0 5 -> q1 D\n", "undeclared symbol"),
            ("machine t\nalphabet 0\nstates q0 q1 q2\ninitial q0\naccept q1\nmode det\n"
             "free D\nbudgeted\ntrans q0 0 -> q1 D\ntrans q0 0 -> q2 D\n", "deterministic"),
            ("machine t\nalphabet 0\nstates q0 q1 q2\ninitial q0\naccept q1 q2\n", "one accepting"),
            ("machine t\nmachine u\n", "duplicate"),
        ],
    )
    def test_parse_errors_carry_context(self, text, fragment):
        with pytest.raises(g.MachineParseError) as err:
            g.parse_machine(text)
        assert fragment in str(err.value)

    def test_parse_error_reports_line_number(self):
        with pytest.raises(g.MachineParseError) as err:
            g.parse_machine("machine t\nbogus directive\n")
        assert "line 2" in str(err.value)


class TestRandomMachines:
    @given(
        st.sampled_from(["det", "nondet"]).flatmap(random_machines),
        st.sampled_from(["det", "nondet"]).flatmap(random_machines),
    )
    @settings(max_examples=150, deadline=None)
    def test_union_law_or_refusal(self, a, b):
        try:
            u = g.union_machine(a, b)
        except g.CompositionError:
            return
        for rows in (1, 2):
            for p in all_pictures(rows, 3):
                assert g.accepts(u, p) == (g.accepts(a, p) or g.accepts(b, p))

    @given(random_machines())
    @settings(max_examples=60)
    def test_serialize_parse_round_trip(self, machine):
        assert g.validate(machine) == []
        assert g.parse_machine(g.serialize_machine(machine)) == machine

    @given(random_machines(), st.integers(0, 255))
    @settings(max_examples=60)
    def test_simulation_always_terminates(self, machine, seed):
        cells = format(seed, "08b")
        p = g.Picture.from_rows([cells[:4], cells[4:]])
        assert g.accepts(machine, p) in (True, False)

    @given(random_machines(), st.integers(0, 255))
    @settings(max_examples=60)
    def test_transpose_identity_for_any_machine(self, machine, seed):
        cells = format(seed, "08b")
        p = g.Picture.from_rows([cells[:4], cells[4:]])
        transposed = g.transpose_machine(machine)
        assert g.accepts(transposed, g.transpose(p)) == g.accepts(machine, p)

    @given(random_machines(), st.integers(0, 255))
    @settings(max_examples=60)
    def test_rotation_identity_whenever_rotation_is_supported(self, machine, seed):
        cells = format(seed, "08b")
        p = g.Picture.from_rows([cells[:4], cells[4:]])
        try:
            rotated = g.rotate_machine(machine)
        except g.RotationError:
            assert U in machine.policy.budgeted
            return
        assert g.accepts(rotated, g.rotate90_cw(p)) == g.accepts(machine, p)

    # About 2% of draws loop, so 300 examples reach the LOOP branch several times.
    @given(random_machines("det"), st.integers(0, 255))
    @settings(max_examples=300)
    def test_deterministic_run_agrees_with_search(self, machine, seed):
        cells = format(seed, "08b")
        p = g.Picture.from_rows([cells[:4], cells[4:]])
        outcome, trace = g.run_deterministic(machine, p)
        configs = trace.configurations()
        assert configs[0] == g.initial_configuration(machine, p)
        for before, taken, after in zip(configs, trace.steps, configs[1:]):
            assert g.step(machine, p, before) == (after,)
            assert DELTAS[taken.direction] == (after.row - before.row, after.col - before.col)
        assert (outcome is g.RunOutcome.ACCEPT) == g.accepts(machine, p)
        if outcome is g.RunOutcome.ACCEPT:
            assert trace == g.accepting_trace(machine, p)
        elif outcome is g.RunOutcome.LOOP:
            assert configs[-1] in configs[:-1]
        else:
            assert g.step(machine, p, configs[-1]) == ()
