import hashlib

import pytest

import gridfa as g

from conftest import all_pictures

U = g.Direction.U


def members(oracle, rows, cols_max):
    return [p for p in all_pictures(rows, cols_max) if oracle(p)]


def canonical_up_count(machine, word):
    trace = g.accepting_trace(machine, word)
    assert trace is not None
    return trace.directions().count(U)


class TestClassTags:
    @pytest.mark.parametrize(
        "factory,param,expected",
        [
            (g.build_A_L1, None, "3W[1] nondet"),
            (g.build_B_L, 1, "3W[1] nondet"),
            (g.build_B_L, 3, "3W[3] nondet"),
            (g.build_M_M1, None, "3W[1] det"),
            (g.build_M_Mi, 2, "3W[2] det"),
            (g.build_P_N2, None, "3W[0] nondet"),
            (g.build_C_L1_2W, None, "2W[1,0] nondet"),
            (g.build_D_K, 1, "2W[1,0] nondet"),
            (g.build_D_K, 2, "2W[2,0] nondet"),
            (g.build_S_rec, 0, "2W[1,0] det"),
            (g.build_S_rec, 2, "2W[3,0] det"),
            (g.build_flawed_L1_3W0, None, "3W[0] nondet"),
        ],
    )
    def test_every_builder_classifies_as_asserted(self, factory, param, expected):
        machine = factory(param) if param is not None else factory()
        assert g.validate(machine) == []
        assert str(g.classify(machine)) == expected

    @pytest.mark.parametrize(
        "builder, param, digest",
        [
            ("A_L1", None, "53666ad45d62ba57"),
            ("C_L1_2W", None, "b57f87ed03c33c5f"),
            ("FLAWED_L1_3W0", None, "25a544e38c329daf"),
            ("M_M1", None, "0867d8f70448b80f"),
            ("P_N2", None, "586d670a159559ee"),
            ("B_L", 1, "70d3207f41d2ab58"),
            ("B_L", 2, "2b19e06575e098f5"),
            ("B_L", 3, "16344d72d499a19e"),
            ("D_K", 1, "3fac9964bf63b41b"),
            ("D_K", 2, "4d2b33673c03597d"),
            ("D_K", 3, "15d96d6881a032f6"),
            ("M_Mi", 1, "3f62501d9ddfc8e1"),
            ("M_Mi", 2, "add2cb80f3e3ae73"),
            ("M_Mi", 3, "04a4d3fe292414da"),
            ("S_rec", 0, "fb978257fb5a5857"),
            ("S_rec", 1, "a98482ccdd66b5c5"),
            ("S_rec", 2, "534242a4e8cc5106"),
            ("S_rec", 3, "f397cba966826abc"),
        ],
    )
    def test_serialized_text_is_pinned(self, builder, param, digest):
        """State names, state order and edge order show in traces and in
        machine files, so the builders' text stays byte for byte."""
        text = g.serialize_machine(g.make_machine(builder, param))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_bad_parameters_rejected(self):
        for factory in (g.build_B_L, g.build_M_Mi, g.build_D_K):
            with pytest.raises(ValueError):
                factory(0)
        with pytest.raises(ValueError):
            g.build_S_rec(-1)


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "factory,param,lang,rows,cols_max",
        [
            (g.build_A_L1, None, "L1", 2, 5),
            (g.build_B_L, 1, "L1", 2, 4),
            (g.build_B_L, 2, "L2", 4, 3),
            (g.build_M_M1, None, "M1", 2, 5),
            (g.build_M_Mi, 1, "M1", 2, 4),
            (g.build_M_Mi, 2, "M2", 4, 3),
            (g.build_P_N2, None, "N2", 4, 3),
            (g.build_C_L1_2W, None, "L1", 2, 4),
            (g.build_D_K, 1, "K1", 2, 4),
            (g.build_D_K, 2, "K2", 2, 5),
            (g.build_S_rec, 0, "S2", 2, 4),
            (g.build_S_rec, 1, "S4", 2, 5),
        ],
    )
    def test_builder_matches_oracle(self, factory, param, lang, rows, cols_max):
        machine = factory(param) if param is not None else factory()
        report = g.oracle_equivalence(machine, lang, rows, cols_max)
        assert report.mismatches == ()
        assert report.member_total > 0


class TestA_L1:
    def test_accepts_fig1(self, fig1_word):
        assert g.accepts(g.build_A_L1(), fig1_word)

    def test_rejects_all_zero_words(self):
        a = g.build_A_L1()
        for z in range(1, 6):
            assert not g.accepts(a, g.Picture.from_rows(["0" * z, "0" * z]))

    def test_exactly_one_up_in_every_accepted_word(self):
        a = g.build_A_L1()
        for p in members(lambda q: g.in_L(1, q), 2, 4):
            assert canonical_up_count(a, p) == 1


class TestB_L:
    def test_matches_a_l1_on_two_row_words(self):
        a, b = g.build_A_L1(), g.build_B_L(1)
        for p in all_pictures(2, 5):
            assert g.accepts(a, p) == g.accepts(b, p)

    def test_accepts_fig1_doubled(self, fig1_word):
        doubled = g.row_concat(fig1_word, fig1_word)
        assert g.accepts(g.build_B_L(2), doubled)

    def test_starved_budget_rejects_all_members(self):
        b = g.build_B_L(2)
        for p in members(lambda q: g.in_L(2, q), 4, 4):
            assert not g.accepts(b, p, g.Budget(1, g.INF))

    def test_up_count_matches_pair_count(self, fig1_word):
        assert canonical_up_count(g.build_B_L(1), fig1_word) == 1
        doubled = g.row_concat(fig1_word, fig1_word)
        assert canonical_up_count(g.build_B_L(2), doubled) == 2


class TestM_M1:
    def test_accepts_exact_pair(self):
        assert g.accepts(g.build_M_M1(), g.Picture.from_rows(["101", "101"]))

    def test_rejects_three_ones(self):
        assert not g.accepts(g.build_M_M1(), g.Picture.from_rows(["111", "111"]))

    def test_deterministic_run_agrees(self):
        m = g.build_M_M1()
        for p in all_pictures(2, 4):
            outcome, _ = g.run_deterministic(m, p)
            assert (outcome is g.RunOutcome.ACCEPT) == g.accepts(m, p)


class TestM_Mi:
    def test_two_pair_member(self):
        word = g.Picture.from_rows(["101", "101", "101", "101"])
        assert g.accepts(g.build_M_Mi(2), word)

    def test_matches_m_m1_on_two_rows(self):
        m1, chain = g.build_M_M1(), g.build_M_Mi(1)
        for p in all_pictures(2, 4):
            assert g.accepts(m1, p) == g.accepts(chain, p)

    def test_starved_budget_rejects_all_members(self):
        m = g.build_M_Mi(2)
        for p in members(lambda q: g.in_M(2, q), 4, 4):
            assert not g.accepts(m, p, g.Budget(1, g.INF))


class TestP_N2:
    def test_accepts_all_ones_4x2(self):
        assert g.accepts(g.build_P_N2(), g.Picture.from_rows(["11"] * 4))

    def test_rejects_zero_bottom_pair(self):
        word = g.Picture.from_rows(["11", "11", "00", "00"])
        assert not g.accepts(g.build_P_N2(), word)

    def test_no_up_steps_ever(self):
        p = g.build_P_N2()
        for word in members(g.in_N2, 4, 2):
            assert canonical_up_count(p, word) == 0


class TestC_L1_2W:
    def test_accepts_all_ones(self):
        assert g.accepts(g.build_C_L1_2W(), g.Picture.from_rows(["11", "11"]))

    def test_rejects_every_single_flip(self):
        c = g.build_C_L1_2W()
        for r in range(2):
            for col in range(2):
                rows = [["1", "1"], ["1", "1"]]
                rows[r][col] = "0"
                flipped = g.Picture.from_rows(["".join(x) for x in rows])
                assert not g.accepts(c, flipped)

    def test_same_language_as_a_l1(self):
        a, c = g.build_A_L1(), g.build_C_L1_2W()
        for p in all_pictures(2, 5):
            assert g.accepts(a, p) == g.accepts(c, p)


class TestD_K:
    def test_k1_matches_two_way_l1_machine(self):
        c, d = g.build_C_L1_2W(), g.build_D_K(1)
        for p in all_pictures(2, 5):
            assert g.accepts(c, p) == g.accepts(d, p)

    def test_accepts_2x4_all_ones(self):
        assert g.accepts(g.build_D_K(2), g.Picture.from_rows(["1111", "1111"]))

    def test_starved_rejects_2x4_all_ones(self):
        word = g.Picture.from_rows(["1111", "1111"])
        assert not g.accepts(g.build_D_K(2), word, g.Budget(0, 0))

    def test_up_count_equals_parameter(self):
        word = g.Picture.from_rows(["1111", "1111"])
        assert canonical_up_count(g.build_D_K(2), word) == 2


class TestS_rec:
    def test_exactly_one_word_at_its_shape(self):
        s = g.build_S_rec(0)
        accepted = [p for p in g.enumerate_pictures("01", 2, 2) if g.accepts(s, p)]
        assert accepted == [g.Picture.from_rows(["11", "11"])]

    def test_starved_budget_misses_cells(self):
        s = g.build_S_rec(1)
        word = g.Picture.from_rows(["1111", "1111"])
        assert g.accepts(s, word)
        assert not g.accepts(s, word, g.Budget(1, 0))

    def test_rejects_any_zero(self):
        s = g.build_S_rec(1)
        for r in range(2):
            for col in range(4):
                rows = [list("1111"), list("1111")]
                rows[r][col] = "0"
                assert not g.accepts(s, g.Picture.from_rows(["".join(x) for x in rows]))


class TestFlawedFixture:
    def test_accepts_every_two_column_word(self):
        flawed = g.build_flawed_L1_3W0()
        for z in range(2, 8):
            for i in range(1, z + 1):
                for j in range(i + 1, z + 1):
                    assert g.accepts(flawed, g.make_w(i, j, z))

    def test_accepts_a_crossing_splice_outside_l1(self):
        flawed = g.build_flawed_L1_3W0()
        spliced = g.splice_words(g.make_w(1, 2, 4), g.make_w(1, 3, 4), 2)
        assert not g.in_L(1, spliced)
        assert g.accepts(flawed, spliced)

    def test_over_accepts_against_oracle(self):
        report = g.oracle_equivalence(g.build_flawed_L1_3W0(), "L1", 2, 4)
        assert report.mismatches
        assert all(m.machine_accepts and not m.oracle_accepts for m in report.mismatches)

    def test_no_up_steps(self):
        flawed = g.build_flawed_L1_3W0()
        for z in (3, 4):
            for word in members(lambda q: g.in_L(1, q), 2, z):
                assert canonical_up_count(flawed, word) == 0


class TestRegistry:
    def test_make_machine_dispatch(self):
        assert g.make_machine("A_L1").name == "A_L1"
        assert g.make_machine("M_Mi", 3).name == "M_M3"

    def test_make_machine_errors(self):
        with pytest.raises(ValueError):
            g.make_machine("NOPE")
        with pytest.raises(ValueError):
            g.make_machine("B_L")  # missing param
        with pytest.raises(ValueError):
            g.make_machine("A_L1", 2)  # unexpected param
