import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfa as g
from gridfa.machine import DELTAS, ensure_valid, fmt_budget, parse_budget

import reference
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


def lines(*rows: str) -> str:
    return "\n".join(rows) + "\n"


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

    def test_finite_budget_on_free_direction_flagged(self):
        # classify reads a free U as unbounded; the simulator would spend
        # the declared budget of 0 and reject 1/1.
        text = (
            "machine m\nalphabet 0 1\nstates s t acc\ninitial s\naccept acc\n"
            "mode nondet\nfree U D L R\nbudget up 0\n"
            "trans s 1 -> t D\ntrans t # -> acc U\n"
        )
        a = g.parse_machine(text)
        assert g.validate(a) == ["free direction U has budget 0"]
        with pytest.raises(g.MachineInvalidError):
            g.classify(a)
        with pytest.raises(g.MachineInvalidError):
            g.accepts(a, g.Picture.from_rows(["1"]))
        both = mk({("q0", "1"): [("qa", D)]}, policy=g.FOUR_WAY, budget=g.Budget(2, 0))
        assert g.validate(both) == [
            "free direction U has budget 2", "free direction L has budget 0"
        ]
        fixed = g.parse_machine(text.replace("budget up 0\n", ""))
        assert g.validate(fixed) == [] and g.accepts(fixed, g.Picture.from_rows(["1"]))

    def test_alphabet_symbols_the_machine_format_cannot_carry_flagged(self):
        base = mk({("q0", "1"): [("qa", D)]})
        for alphabet, problem in [
            (("0", "1", " "), "alphabet symbol ' ' is whitespace"),
            (("\n", "1"), "alphabet symbol '\\n' is whitespace"),
            (("0", "1", "\x85"), "alphabet symbol '\\x85' is whitespace"),
            (("01", "1"), "alphabet symbol '01' is not a single character"),
            (("", "1"), "alphabet symbol '' is not a single character"),
        ]:
            assert g.validate(dataclasses.replace(base, alphabet=alphabet)) == [problem]

    def test_names_the_machine_format_cannot_carry_flagged(self):
        problem = "machine or state names empty or holding whitespace: "
        for name, states, bad in [
            ("a b", ("q0", "qa"), ["a b"]),
            ("", ("q0", "qa"), [""]),
            ("m", ("q0", "qa", "a b"), ["a b"]),
            ("m", ("q0", "qa", ""), [""]),
            ("m", ("q0", "qa", "x\x85"), ["x\x85"]),
            ("a\tb", ("", "q0", "qa"), ["a\tb", ""]),
        ]:
            a = mk({("q0", "1"): [("qa", D)]}, states=states, name=name)
            assert g.validate(a) == [problem + repr(bad)]
        # The accepting state the machine file could not carry, and the
        # raise that used to follow serializing a machine that validated.
        a = mk({("q0", "1"): [("a b", D)]}, initial="q0", accepting="a b")
        assert g.validate(a) == [problem + "['a b']"]
        with pytest.raises(g.MachineParseError):
            g.parse_machine(g.serialize_machine(a))

    def test_ensure_valid_raises(self):
        a = mk({("q0", "1"): [("ghost", D)]}, states=("q0", "qa"))
        with pytest.raises(g.MachineInvalidError):
            g.classify(a)

    @pytest.mark.parametrize("field, value, bad", [
        ("states", ("q0", "qa", ["qb"]), "['qb']"),
        ("initial", ["q0"], "['q0']"),
        ("alphabet", ("0", ["1"]), "['1']"),
    ])
    def test_a_list_where_a_name_or_symbol_belongs_is_a_problem(self, field, value, bad):
        # A list cannot be hashed: it is listed as a problem, not raised as
        # a bare TypeError.
        a = dataclasses.replace(mk({("q0", "1"): [("qa", D)]}), **{field: value})
        problems = g.validate(a)
        assert problems and any(bad in problem for problem in problems)
        with pytest.raises(g.MachineInvalidError):
            g.accepts(a, g.Picture.from_rows(["1"]))


#: A clean machine, changed one field at a time below.
BASE = mk({("q0", "1"): [("qa", D)]})

#: The head of a machine file for ``BASE``, for one line to change or add.
BASE_TEXT = lines(
    "machine m", "alphabet 0 1", "states q0 qa", "initial q0", "accept qa", "mode det"
)


@pytest.mark.parametrize(
    "subject, message",
    [
        (dataclasses.replace(BASE, mode="both"), "unknown mode 'both'"),
        (dataclasses.replace(BASE, alphabet=("0", "1", "0")), "alphabet declares a symbol twice"),
        (dataclasses.replace(BASE, states=("q0", "qa", "q0")), "state list declares a state twice"),
        (dataclasses.replace(BASE, accepting="qz"), "accepting state 'qz' not declared"),
        (
            dataclasses.replace(BASE, budget=g.Budget(-1, g.INF)),
            "up budget must be a nonnegative integer or INF",
        ),
        (
            dataclasses.replace(BASE, policy=g.TWO_WAY, budget=g.Budget(1, 1.5)),
            "left budget must be a nonnegative integer or INF",
        ),
        (
            mk({("q0", "1"): [("qa", D)], ("ghost", "0"): [("qa", D)]}, states=("q0", "qa")),
            "transition ('ghost', '0'): source state not declared",
        ),
        (mk({("q0", "5"): [("qa", D)]}), "transition ('q0', '5'): symbol not in alphabet or '#'"),
        (
            mk({("q0", "1"): [("qa", D), ("qa", D)]}, mode="nondet"),
            "transition ('q0', '1'): duplicate edge to ('qa', D)",
        ),
        (
            BASE_TEXT.replace("alphabet 0 1", "alphabet 0 10"),
            "line 2: symbols are single characters, got '10'",
        ),
        (BASE_TEXT.replace("alphabet 0 1", "alphabet 0 #"), "line 2: '#' is reserved"),
        (
            BASE_TEXT + lines("free U D", "budgeted U"),
            "bad direction policy: free and budgeted direction sets overlap",
        ),
        (
            BASE_TEXT + lines("free U", "budgeted D"),
            "bad direction policy: only U and L moves can carry a budget",
        ),
    ],
)
def test_refusals_name_their_cause(subject, message):
    # A machine is refused by ``validate``, a machine file by ``parse_machine``.
    if isinstance(subject, str):
        with pytest.raises(g.MachineParseError) as err:
            g.parse_machine(subject)
        assert str(err.value) == message
    else:
        assert g.validate(subject) == [message]


class TestMachinesAreValues:
    """A machine is a value: its transition table cannot change after it is
    built, and copies of it (pickled or deep-copied) equal it."""

    def test_the_transition_table_is_read_only(self):
        key = ("q0", "1")
        table = {key: (("qa", D),)}
        a = dataclasses.replace(BASE, transitions=table)
        table[("q0", "0")] = (("qa", D),)  # the machine keeps its own copy
        assert a.transitions == {key: (("qa", D),)}
        assert g.accepts(a, g.Picture.from_rows(["1"]))
        assert not g.accepts(a, g.Picture.from_rows(["0"]))
        edits = [
            lambda t: t.__setitem__(key, (("ghost", D),)),
            lambda t: t.__delitem__(key),
            lambda t: t.clear(),
            lambda t: t.pop(key),
            lambda t: t.popitem(),
            lambda t: t.setdefault(("q0", "0"), ()),
            lambda t: t.update({("q0", "0"): ()}),
        ]
        for edit in edits:
            for held in (a.transitions, pickle.loads(pickle.dumps(a)).transitions):
                with pytest.raises(TypeError, match="^a machine's transition table is read-only$"):
                    edit(held)
        with pytest.raises(TypeError):
            a.transitions |= {}
        assert a.transitions == {key: (("qa", D),)} and g.validate(a) == []

    @pytest.mark.parametrize(
        "make",
        [
            g.build_A_L1,
            lambda: g.transpose_machine(g.build_A_L1()),
            lambda: g.union_machine(g.build_A_L1(), g.build_A_L1()),
            lambda: g.rotate_machine(g.transpose_machine(g.build_A_L1())),
        ],
    )
    def test_machines_pickle_and_deep_copy(self, make):
        a = make()
        pictures = list(all_pictures(2, 3))
        verdicts = [g.accepts(a, p) for p in pictures]  # with its caches set
        for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert twin == a and twin.transitions == a.transitions
            assert g.serialize_machine(twin) == g.serialize_machine(a)
            assert [g.accepts(twin, p) for p in pictures] == verdicts

    def test_an_unread_deterministic_trace_pickles_and_deep_copies(self):
        # On 80 columns the outcome is read off bitsets and the trace is
        # searched on its first read.
        machine = g.build_M_M1()
        for cols in (4, 80):
            p = g.Picture.from_rows(["0110" + "0" * (cols - 4)] * 2)
            expected = reference.run_deterministic(machine, p)[1]
            for duplicate in (lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy):
                trace = g.run_deterministic(machine, p)[1]
                assert "_pending" in trace.__dict__  # nothing has read the steps
                twin = duplicate(trace)
                assert twin == expected and trace == expected

    def test_a_machine_built_from_lists_equals_one_built_from_tuples(self):
        # Its alphabet and states are kept as tuples, so it runs, serializes
        # and sweeps as the tuple-built machine does, and no list held
        # outside can change it under its validity record.
        a = g.build_A_L1()
        alphabet, states = list(a.alphabet), list(a.states)
        listed = dataclasses.replace(a, alphabet=alphabet, states=states)
        states.append("ghost")
        alphabet.append("2")
        assert listed == a and g.validate(listed) == []
        pictures = list(all_pictures(2, 3))
        assert [g.accepts(listed, p) for p in pictures] == [g.accepts(a, p) for p in pictures]
        assert g.serialize_machine(listed) == g.serialize_machine(a)
        sweep = g.budget_sweep(listed, "L1", 2, 3, [g.Budget(0, 0), a.budget])
        assert sweep == g.budget_sweep(a, "L1", 2, 3, [g.Budget(0, 0), a.budget])

    @pytest.mark.parametrize("direction", ["X", 3, "R"])
    def test_a_direction_that_is_not_a_direction_member_is_one_problem(self, direction):
        # The plain string "R" equals Direction.R, and the policy allows R,
        # but a machine file could not carry it.  None of them raises.
        a = mk({("q0", "1"): [("qa", direction)]})
        assert g.validate(a) == [
            f"transition ('q0', '1'): direction {direction!r} is not a Direction"
        ]
        with pytest.raises(g.MachineInvalidError, match="is not a Direction"):
            ensure_valid(a)

    @pytest.mark.parametrize(
        "edge, problem",
        [
            ((["qa"], R), "target state ['qa'] not declared"),
            (("qa", ["R"]), "direction ['R'] is not a Direction"),
        ],
    )
    def test_an_edge_holding_a_list_is_one_problem(self, edge, problem):
        # A list cannot be hashed: validate lists it rather than raising TypeError.
        a = mk({("q0", "1"): [edge]}, states=["q0", "qa"])
        assert g.validate(a) == [f"transition ('q0', '1'): {problem}"]
        with pytest.raises(g.MachineInvalidError, match="transition"):
            g.accepts(a, g.Picture.from_rows(["1"]))


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

    @pytest.mark.parametrize(
        "name, transposed",
        [("x", "x_T"), ("_T", "_T_T"), ("x_T_T", "x_T_T_T"), ("T", "T_T"), ("_T_T_T", "_T_T_T_T")],
    )
    def test_names_pair_up_and_are_never_emptied(self, name, transposed):
        c = dataclasses.replace(g.build_C_L1_2W(), name=name)
        t = g.transpose_machine(c)
        assert t.name == transposed and g.validate(t) == []
        assert g.parse_machine(g.serialize_machine(t)) == t
        assert g.transpose_machine(t) == c


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


class TestExactConstructions:
    """Declaration order breaks ties in canonical traces, so a reordered
    table keeps every language equation and still changes traces: these
    pin the exact text of each operation's result."""

    def test_transpose_text(self):
        assert g.serialize_machine(g.transpose_machine(g.build_A_L1())) == lines(
            "machine A_L1_T",
            "alphabet 0 1",
            "states scan1 verify_down scan2 verify_up acc",
            "initial scan1",
            "accept acc",
            "mode nondet",
            "free U D R",
            "budgeted L",
            "budget up inf",
            "budget left 1",
            "trans scan1 0 -> scan1 D",
            "trans scan1 1 -> scan1 D",
            "trans scan1 1 -> verify_down R",
            "trans verify_down 1 -> scan2 D",
            "trans scan2 0 -> scan2 D",
            "trans scan2 1 -> scan2 D",
            "trans scan2 1 -> verify_up L",
            "trans verify_up 1 -> acc D",
        )

    def test_rotate_text(self):
        rotated = g.rotate_machine(g.transpose_machine(g.build_M_M1()))
        assert g.serialize_machine(rotated) == lines(
            "machine M_M1_T_rot",
            "alphabet 0 1",
            "states rot_seek count1_0 count1_1 count1_2 return1 seek_first verify_down"
            " check_left count2_0 count2_1 count2_2 return2 verify_up acc",
            "initial rot_seek",
            "accept acc",
            "mode det",
            "free D L R",
            "budgeted U",
            "budget up 1",
            "budget left inf",
            "trans rot_seek 0 -> rot_seek R",
            "trans rot_seek 1 -> rot_seek R",
            "trans rot_seek # -> count1_0 L",
            "trans count1_0 0 -> count1_0 L",
            "trans count1_0 1 -> count1_1 L",
            "trans count1_1 0 -> count1_1 L",
            "trans count1_1 1 -> count1_2 L",
            "trans count1_2 0 -> count1_2 L",
            "trans count1_2 # -> return1 R",
            "trans return1 0 -> return1 R",
            "trans return1 1 -> return1 R",
            "trans return1 # -> seek_first L",
            "trans seek_first 0 -> seek_first L",
            "trans seek_first 1 -> verify_down D",
            "trans verify_down 1 -> check_left R",
            "trans check_left 0 -> check_left R",
            "trans check_left # -> count2_0 L",
            "trans count2_0 0 -> count2_0 L",
            "trans count2_0 1 -> count2_1 L",
            "trans count2_1 0 -> count2_1 L",
            "trans count2_1 1 -> count2_2 L",
            "trans count2_2 0 -> count2_2 L",
            "trans count2_2 # -> return2 R",
            "trans return2 0 -> return2 R",
            "trans return2 1 -> verify_up U",
            "trans verify_up 1 -> acc L",
        )

    def test_union_text_and_trace(self):
        u = g.union_machine(g.build_A_L1(), g.build_C_L1_2W())
        assert g.serialize_machine(u) == lines(
            "machine A_L1+C_L1_2W",
            "alphabet 0 1",
            "states init a:scan1 a:verify_down a:scan2 a:verify_up"
            " b:scan1 b:verify_down b:scan2 b:verify_up accept",
            "initial init",
            "accept accept",
            "mode nondet",
            "free D L R",
            "budgeted U",
            "budget up 1",
            "budget left inf",
            "trans init 0 -> a:scan1 R",
            "trans init 0 -> b:scan1 R",
            "trans init 1 -> a:scan1 R",
            "trans init 1 -> a:verify_down D",
            "trans init 1 -> b:scan1 R",
            "trans init 1 -> b:verify_down D",
            "trans a:scan1 0 -> a:scan1 R",
            "trans a:scan1 1 -> a:scan1 R",
            "trans a:scan1 1 -> a:verify_down D",
            "trans a:verify_down 1 -> a:scan2 R",
            "trans a:scan2 0 -> a:scan2 R",
            "trans a:scan2 1 -> a:scan2 R",
            "trans a:scan2 1 -> a:verify_up U",
            "trans a:verify_up 1 -> accept R",
            "trans b:scan1 0 -> b:scan1 R",
            "trans b:scan1 1 -> b:scan1 R",
            "trans b:scan1 1 -> b:verify_down D",
            "trans b:verify_down 1 -> b:scan2 R",
            "trans b:scan2 0 -> b:scan2 R",
            "trans b:scan2 1 -> b:scan2 R",
            "trans b:scan2 1 -> b:verify_up U",
            "trans b:verify_up 1 -> accept R",
        )
        trace = g.accepting_trace(u, g.Picture.from_rows(["1010", "1010"]))
        assert g.format_trace(trace) == (
            "init (1,1) up=1 left=inf --D-->\n"
            "a:verify_down (2,1) up=1 left=inf --R-->\n"
            "a:scan2 (2,2) up=1 left=inf --R-->\n"
            "a:scan2 (2,3) up=1 left=inf --U-->\n"
            "a:verify_up (1,3) up=0 left=inf --R-->\n"
            "accept (1,4) up=0 left=inf ACCEPT"
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("machine", "line 1: machine takes one name"),
            ("machine a b", "line 1: machine takes one name"),
            ("initial", "line 1: initial takes one state"),
            ("initial s t", "line 1: initial takes one state"),
            ("accept", "line 1: exactly one accepting state is required"),
            ("accept s t", "line 1: exactly one accepting state is required"),
            ("mode", "line 1: mode is 'det' or 'nondet'"),
            ("mode det nondet", "line 1: mode is 'det' or 'nondet'"),
            ("mode both", "line 1: mode is 'det' or 'nondet'"),
            ("budget up", "line 1: expected 'budget up|left <n|inf>'"),
            ("budget down 1", "line 1: expected 'budget up|left <n|inf>'"),
            ("budget up 1 2", "line 1: expected 'budget up|left <n|inf>'"),
            ("trans s 1 -> t", "line 1: expected 'trans <state> <sym> -> <state> <dir>'"),
            ("trans s 1 => t D", "line 1: expected 'trans <state> <sym> -> <state> <dir>'"),
        ],
    )
    def test_one_value_directive_usage_errors(self, line, message):
        with pytest.raises(g.MachineParseError) as err:
            g.parse_machine(line + "\n")
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "line, message",
        [
            ("machine m2", "line 11: duplicate 'name' directive"),
            ("initial t", "line 11: duplicate 'initial' directive"),
            ("accept s", "line 11: duplicate 'accepting' directive"),
            ("mode det", "line 11: duplicate 'mode' directive"),
            ("budget up 0", "line 11: duplicate up budget"),
            ("budget left inf", "line 11: duplicate left budget"),
        ],
    )
    def test_one_value_directive_duplicate_errors(self, line, message):
        text = lines(
            "machine m",
            "alphabet 0 1",
            "states s t",
            "initial s",
            "accept t",
            "mode nondet",
            "free D L R",
            "budgeted U",
            "budget up 1",
            "budget left inf",
            line,
        )
        with pytest.raises(g.MachineParseError) as err:
            g.parse_machine(text)
        assert str(err.value) == message


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

    @pytest.mark.parametrize("token, value", [("0", 0), ("7", 7), ("12", 12), ("inf", g.INF)])
    def test_canonical_budget_tokens(self, token, value):
        assert parse_budget(token) == value
        assert fmt_budget(value) == token

    @pytest.mark.parametrize(
        "token, message",
        [
            (" 2", "budget must be an integer or 'inf'"),
            ("2 ", "budget must be an integer or 'inf'"),
            ("+3", "budget must be an integer or 'inf'"),
            ("0002", "budget must be an integer or 'inf'"),
            ("00", "budget must be an integer or 'inf'"),
            ("1_0", "budget must be an integer or 'inf'"),
            ("\u0663", "budget must be an integer or 'inf'"),
            ("", "budget must be an integer or 'inf'"),
            ("Inf", "budget must be an integer or 'inf'"),
            ("-3", "budget must be nonnegative"),
            ("-0", "budget must be nonnegative"),
        ],
    )
    def test_non_canonical_budget_tokens_refused(self, token, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_budget(token)

    @pytest.mark.parametrize("token", ["\u0663", "+3", "03"])
    def test_machine_file_budget_token_refused_with_its_line(self, token):
        text = (
            "machine t\nalphabet 0\nstates q0 q1\ninitial q0\naccept q1\n"
            f"mode det\nfree D L R\nbudgeted U\nbudget up {token}\nbudget left inf\n"
        )
        with pytest.raises(
            g.MachineParseError, match="^line 9: budget must be an integer or 'inf'$"
        ):
            g.parse_machine(text)

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

    @given(
        st.sampled_from(["det", "nondet"]).flatmap(random_machines),
        st.lists(
            st.sampled_from(["0", "-", ">", "#", " ", "\t", "\r", "\x85", "01", ""])
            | st.characters(),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        st.lists(
            st.sampled_from(["q", "#", "->", "a b", "", " ", "\t", "x\ny", "x\x85", "\u2028"])
            | st.text(max_size=3),
            min_size=5,
            max_size=5,
            unique=True,
        ),
    )
    @settings(max_examples=200)
    def test_every_machine_that_validates_round_trips(self, machine, alphabet, names):
        # The machine's 0 and 1 are renamed to the drawn symbols; the
        # transitions on a symbol left without a name are dropped.  The
        # machine takes the first drawn name, and its states the next ones.
        rename = dict(zip(("0", "1"), alphabet), **{"#": "#"})
        state = dict(zip(machine.states, names[1:]))
        machine = dataclasses.replace(
            machine,
            name=names[0],
            alphabet=tuple(alphabet),
            states=tuple(state[s] for s in machine.states),
            initial=state[machine.initial],
            accepting=state[machine.accepting],
            transitions={
                (state[source], rename[symbol]): tuple(
                    (state[target], direction) for target, direction in moves
                )
                for (source, symbol), moves in machine.transitions.items()
                if symbol in rename
            },
        )
        odd = [s for s in alphabet if len(s) != 1 or s.isspace() or s == "#"]
        odd += [
            name
            for name in (machine.name, *machine.states)
            if not name or any(ch.isspace() for ch in name)
        ]
        assert bool(g.validate(machine)) == bool(odd)
        if not odd:
            assert g.parse_machine(g.serialize_machine(machine)) == machine

    @given(
        st.sampled_from(["det", "nondet"]).flatmap(random_machines),
        st.sampled_from(["det", "nondet"]).flatmap(random_machines),
        st.sampled_from(["_T", "x_T", "x_rot", "_T_T", "x_T_T", "x", "T"]),
        st.lists(
            st.sampled_from(["rot_seek", "rot_seek_", "init", "accept", "all", "s0", "s1", "a:s0"]),
            min_size=8,
            max_size=8,
            unique=True,
        ),
    )
    @settings(max_examples=200)
    def test_derived_machines_validate_cleanly(self, a, b, name, names):
        # ``a`` takes the drawn name and the first drawn state names, ``b``
        # the last ones; ``validate`` is called directly, since it never
        # reads the validity record the operations leave.
        def renamed(machine, name, names):
            state = dict(zip(machine.states, names))
            return dataclasses.replace(
                machine,
                name=name,
                states=tuple(state[s] for s in machine.states),
                initial=state[machine.initial],
                accepting=state[machine.accepting],
                transitions={
                    (state[source], symbol): tuple((state[t], d) for t, d in moves)
                    for (source, symbol), moves in machine.transitions.items()
                },
            )

        a, b = renamed(a, name, names[:4]), renamed(b, name + "b", names[::-1])
        derived = [g.transpose_machine(a)]
        assert g.transpose_machine(derived[0]) == a
        for operation, args, refusal in (
            (g.rotate_machine, (a,), g.RotationError),
            (g.union_machine, (a, b), g.CompositionError),
            (g.union_machine, (b, a), g.CompositionError),
        ):
            try:
                derived.append(operation(*args))
            except refusal:
                pass
        for machine in derived:
            assert "_valid" in machine.__dict__
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
