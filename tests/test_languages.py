import dataclasses
import gc
import random
import sys
import threading
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfa as g
import reference
from gridfa.grid import _shape_rows
from gridfa.languages import (
    _compiled, _mask, _member_rank, _pair_form, natural_rows, parse_language_id,
)

from conftest import all_pictures


@st.composite
def u_indices(draw, z_max=7):
    z = draw(st.integers(2, z_max))
    i = draw(st.integers(1, z - 1))
    j = draw(st.integers(i + 1, z))
    return i, j, z


class TestStackedCount:
    def test_fig1_has_at_least_two(self, fig1_word):
        assert g.stacked_count(fig1_word, 1) >= 2

    def test_all_ones_2x2(self):
        assert g.stacked_count(g.Picture.from_rows(["11", "11"]), 1) == 2

    def test_all_zeros(self):
        assert g.stacked_count(g.Picture.from_rows(["000", "000"]), 1) == 0

    def test_row_pair_selection(self):
        p = g.Picture.from_rows(["11", "11", "00", "11"])
        assert g.stacked_count(p, 1) == 2
        assert g.stacked_count(p, 2) == 0
        assert g.stacked_count(p, 3) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            g.stacked_count(g.Picture.from_rows(["11", "11"]), 2)


class TestInL:
    def test_fig1_member(self, fig1_word):
        assert g.in_L(1, fig1_word)

    def test_single_shared_column_not_member(self):
        top = g.make_u(2, 5, 6).row_text(1)
        bottom = g.make_u(2, 4, 6).row_text(1)
        assert not g.in_L(1, g.Picture.from_rows([top, bottom]))

    def test_concat_of_members_in_l2(self):
        member = g.make_w(1, 3, 4)
        assert g.in_L(2, g.row_concat(member, member))

    def test_wrong_row_count_is_false_not_error(self):
        assert not g.in_L(1, g.Picture.from_rows(["11", "11", "11"]))
        assert not g.in_L(2, g.Picture.from_rows(["11", "11"]))


class TestInM:
    def test_exact_pair_member(self):
        assert g.in_M(1, g.Picture.from_rows(["101", "101"]))

    def test_three_stacked_not_member(self):
        assert not g.in_M(1, g.Picture.from_rows(["111", "111"]))

    def test_fig1_with_three_stacked_not_member(self):
        p = g.Picture.from_rows(["11010", "11010"])
        assert g.stacked_count(p, 1) == 3
        assert not g.in_M(1, p)

    def test_stray_one_not_member(self):
        # exactly two stacked columns, but an unmatched 1 disqualifies:
        # the pair's rows must agree.
        p = g.Picture.from_rows(["0111", "0110"])
        assert g.stacked_count(p, 1) == 2
        assert not g.in_M(1, p)

    def test_two_pairs(self):
        pair = ["101", "101"]
        assert g.in_M(2, g.Picture.from_rows(pair + pair))
        assert not g.in_M(2, g.Picture.from_rows(pair + ["111", "111"]))

    def test_member_implies_in_l(self):
        for p in all_pictures(2, 4):
            assert not g.in_M(1, p) or g.in_L(1, p)


class TestInN:
    def test_n1(self):
        assert g.in_N1(g.Picture.from_rows(["10", "10"]))
        assert not g.in_N1(g.Picture.from_rows(["10", "01"]))

    def test_n2_all_zero_rows(self):
        assert not g.in_N2(g.Picture.from_rows(["00", "00", "00", "00"]))

    def test_n2_one_good_pair_only(self):
        assert not g.in_N2(g.Picture.from_rows(["10", "10", "10", "01"]))
        assert g.in_N2(g.Picture.from_rows(["10", "10", "01", "01"]))


class TestInK:
    def test_k2_all_ones_2x4(self):
        assert g.in_K(2, g.Picture.from_rows(["1111", "1111"]))

    def test_k2_any_zero_breaks_it(self):
        base = g.Picture.from_rows(["1111", "1111"])
        for r in range(2):
            for c in range(4):
                rows = [list(base.row_text(1)), list(base.row_text(2))]
                rows[r][c] = "0"
                flipped = g.Picture.from_rows(["".join(x) for x in rows])
                assert not g.in_K(2, flipped)

    def test_k1_equals_l1_exhaustively(self):
        for p in all_pictures(2, 4):
            assert g.in_K(1, p) == g.in_L(1, p)

    def test_member_table_at_2x8_holds_8_bytes_per_row_pair(self):
        # 65,536 row pairs: about 0.5 MB as an int64 array, over 2 MB as a
        # list of ints.  The 2 x 8 pictures with at least 4 stacked columns
        # number 4^8 - sum_{s<4} C(8,s) 3^(8-s) = 7,459.
        tracemalloc.start()
        try:
            rank = _member_rank("K2", ("0", "1"), 2, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank(4**8) == 7459
        assert peak < 2**20


def _joined_stacked(p, top_row):
    """Stacked columns of a row pair, counted on the joined row strings."""
    upper, lower = p.row_text(top_row), p.row_text(top_row + 1)
    return sum(1 for a, b in zip(upper, lower) if a == "1" and b == "1")


def _joined_exact_pair(p, top_row):
    return (
        p.row_text(top_row).count("1") == 2
        and p.row_text(top_row + 1).count("1") == 2
        and _joined_stacked(p, top_row) == 2
    )


@st.composite
def pictures_012(draw):
    """Pictures over {0, 1, 2}.  A row below another is often that row
    with its 0s and 2s drawn again, so rows with their 1s in the same
    columns that differ elsewhere come up often."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    cells = [draw(st.text("012", min_size=cols, max_size=cols))]
    for _ in range(rows - 1):
        if draw(st.booleans()):
            cells.append("".join(
                "1" if sym == "1" else draw(st.sampled_from("02")) for sym in cells[-1]
            ))
        else:
            cells.append(draw(st.text("012", min_size=cols, max_size=cols)))
    return g.Picture.from_rows(cells)


@given(pictures_012(), st.integers(1, 2))
@settings(max_examples=300)
def test_oracles_match_the_row_string_formulation(p, i):
    """The oracles read row tuples; over {0, 1, 2} they still agree with
    the formulation on joined row strings, where two rows can have their
    1s in the same two columns and differ in a 2."""
    pairs = range(1, 2 * i, 2)
    assert g.in_M(i, p) == (
        p.rows == 2 * i and all(_joined_exact_pair(p, r) for r in pairs)
    )
    assert g.in_L(i, p) == (
        p.rows == 2 * i and all(_joined_stacked(p, r) >= 2 for r in pairs)
    )
    assert g.in_K(i, p) == (p.rows == 2 and _joined_stacked(p, 1) >= 2 * i)
    assert g.in_N1(p) == (p.rows == 2 and _joined_stacked(p, 1) >= 1)
    assert g.in_N2(p) == (
        p.rows == 4 and _joined_stacked(p, 1) >= 1 and _joined_stacked(p, 3) >= 1
    )
    for top_row in range(1, p.rows):
        assert g.stacked_count(p, top_row) == _joined_stacked(p, top_row)


def test_exact_pair_rows_may_differ_outside_their_ones():
    # Both rows carry 1s in exactly the same two columns, and differ in a 2.
    assert g.in_M(1, g.Picture.from_rows(["1210", "1012"]))
    assert not g.in_M(1, g.Picture.from_rows(["1210", "1011"]))
    assert g.in_M(1, g.Picture.from_rows(["1a1", "1b1"]))
    # Over {1, a, b} at 2 x 3, each of the 3 column pairs takes an a or b
    # in its third column, in each row: 3 * 2 * 2 members.
    assert _member_rank("M1", ("1", "a", "b"), 2, 3)(27**2) == 12


class TestInS:
    def test_members_and_near_misses(self):
        assert g.in_S(3, g.Picture.from_rows(["111", "111"]))
        assert not g.in_S(3, g.Picture.from_rows(["111", "101"]))
        assert not g.in_S(3, g.Picture.from_rows(["111", "111", "111"]))
        assert not g.in_S(2, g.Picture.from_rows(["111", "111"]))
        assert not g.in_S(4, g.Picture.from_rows(["111", "111"]))

    def test_member_counts_hold_one_word_at_width_i(self):
        for cols in range(1, 5):
            rank = _member_rank("S2", ("1", "a"), 2, cols)
            assert rank(4**cols) == (cols == 2)

    def test_s_implies_k_halved(self):
        for i in range(2, 7):
            word = g.Picture.from_rows(["1" * i, "1" * i])
            assert g.in_S(i, word)
            assert g.in_K(i // 2, word)


class TestConstructors:
    def test_make_u_examples(self):
        assert g.make_u(1, 2, 3).row_text(1) == "110"
        assert g.make_u(2, 5, 6).row_text(1) == "010010"

    def test_make_u_precondition(self):
        with pytest.raises(ValueError):
            g.make_u(3, 2, 5)
        with pytest.raises(ValueError):
            g.make_u(0, 2, 5)

    def test_make_w_examples(self):
        assert g.make_w(1, 2, 2) == g.Picture.from_rows(["11", "11"])
        assert g.stacked_count(g.make_w(2, 4, 5), 1) == 2

    @given(u_indices())
    def test_make_w_always_in_l1(self, idx):
        i, j, z = idx
        assert g.in_L(1, g.make_w(i, j, z))

    def test_make_v_examples(self):
        assert g.make_v(1, 2, 2, 0) == g.Picture.from_rows(["11", "11"])
        assert g.make_v(1, 3, 4, 1).rows == 4
        assert g.in_L(2, g.make_v(1, 3, 4, 1))

    @given(u_indices(z_max=5), st.integers(0, 2))
    def test_make_v_always_in_its_language(self, idx, i):
        j, k, z = idx
        assert g.in_L(i + 1, g.make_v(j, k, z, i))


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: g.in_L(0, g.Picture.from_rows(["1", "1"])), "language index must be >= 1, got 0"),
        (lambda: g.make_v(1, 2, 3, -1), "need i >= 0, got -1"),
        (lambda: g.make_v(2, 2, 3, 0), "need 1 <= j < k <= z, got j=2, k=2, z=3"),
        (lambda: g.make_v(0, 1, 3, 0), "need 1 <= j < k <= z, got j=0, k=1, z=3"),
        (lambda: g.make_v(1, 4, 3, 1), "need 1 <= j < k <= z, got j=1, k=4, z=3"),
    ],
)
def test_bad_arguments_are_refused(refused, message):
    with pytest.raises(ValueError) as err:
        refused()
    assert str(err.value) == message


class TestSplice:
    def test_degenerate_boundaries(self):
        a, b = g.make_w(1, 2, 3), g.make_w(1, 3, 3)
        assert g.splice_words(a, b, 1) == b
        assert g.splice_words(a, b, a.rows + 1) == a

    def test_crossing_shape_leaves_l1(self):
        spliced = g.splice_words(g.make_w(1, 2, 4), g.make_w(3, 4, 4), 2)
        assert g.stacked_count(spliced, 1) <= 1
        assert not g.in_L(1, spliced)

    def test_shape_mismatch(self):
        with pytest.raises(g.ShapeError):
            g.splice_words(g.make_w(1, 2, 3), g.make_w(1, 2, 4), 2)

    def test_boundary_out_of_range(self):
        with pytest.raises(ValueError):
            g.splice_words(g.make_w(1, 2, 3), g.make_w(1, 3, 3), 4)


class TestLanguageIds:
    def test_round_trip_ids(self):
        for text, rows in [("L1", 2), ("L2", 4), ("M1", 2), ("N1", 2), ("N2", 4), ("K2", 2), ("S4", 2)]:
            g.oracle_for(text)  # must not raise
            from gridfa.languages import natural_rows

            assert natural_rows(text) == rows

    def test_bad_ids(self):
        from gridfa.languages import parse_language_id

        for bad in ("Q9", "L0", "N3", "S", "l1", "", "L01", "L１", "S٣"):
            with pytest.raises(ValueError):
                parse_language_id(bad)

    def test_oracle_dispatch(self):
        assert g.oracle_for("K1")(g.make_w(1, 2, 4)) == g.in_L(1, g.make_w(1, 2, 4))


#: Every language whose pair form has something to check at up to 5 columns.
LANGUAGE_IDS = ["L1", "L2", "M1", "M2", "N1", "N2", "K1", "K2", "K3", "S1", "S2", "S3", "S5"]


@pytest.mark.parametrize(
    "rows, cols", [(r, c) for r in range(1, 5) for c in range(1, 4)] + [(2, 4), (2, 5)]
)
def test_pair_form_matches_the_reference_on_every_picture_over_012(rows, cols):
    """Each language's row count and pair rule against the hand-written
    reference scans, picture by picture: as the member counts the sweeps
    take (rank(n + 1) - rank(n) for picture n), and as the exported
    oracle.  At 4 x 3 (531,441 pictures) only the counts are checked, and
    at 4 rows only the 4-row languages; the others are empty there by
    their row count, as the shapes of fewer rows check."""
    _check_pair_forms("012", rows, cols)


@pytest.mark.parametrize(
    "alphabet, rows, cols",
    [(a, r, c) for a in ("1a0", "10", "ab") for r, c in [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)]]
    + [("1\u0661_ \u00e9", 2, 2), ("1\u0661_ \u00e9", 4, 1)],
)
def test_pair_form_matches_the_reference_over_other_alphabets(alphabet, rows, cols):
    """As over {0, 1, 2}, where "1" comes first or is missing and beside
    symbols that are not digits.  A mask reads every symbol but "1" as 0,
    also those ``int`` would read as a digit or skip: the Arabic-Indic
    one, "_" and a space."""
    _check_pair_forms(alphabet, rows, cols)


def _check_pair_forms(alphabet: str, rows: int, cols: int) -> None:
    langs = [lang for lang in LANGUAGE_IDS if rows < 4 or natural_rows(lang) == 4]
    oracles = [(reference.oracle(lang), g.oracle_for(lang)) for lang in langs]
    members: list[list[bool]] = [[] for _ in langs]
    for p in g.enumerate_pictures(alphabet, rows, cols):
        for (expected, oracle), found in zip(oracles, members):
            found.append(expected(p))
            assert rows * cols > 10 or oracle(p) == found[-1], p
    indices = range(len(alphabet) ** (rows * cols) + 1)
    for lang, found in zip(langs, members):
        rank = _member_rank(lang, tuple(alphabet), rows, cols)
        assert list(map(rank, indices)) == [0, *accumulate(found)], lang
    for lang in set(LANGUAGE_IDS) - set(langs):
        assert _member_rank(lang, tuple(alphabet), rows, cols)(indices[-1]) == 0


@pytest.mark.parametrize("lang", ["L1", "L2", "M1", "M2", "N1", "N2", "K1", "K2", "S2", "S3"])
def test_a_pair_count_ends_on_need_exactly_where_the_rule_holds(lang):
    """``_pair_form`` states each language's rule twice: as a test of a
    row pair's masks, and as a count folded over its columns from 0.  They
    agree on every row pair of widths 1..6 over two symbols and 1..4 over
    three."""
    _, need, rule, pair = _pair_form(*parse_language_id(lang))
    for alphabet, cols_max in (("01", 6), ("012", 4)):
        for cols in range(1, cols_max + 1):
            rows = _shape_rows(alphabet, 1, cols)
            masks = list(map(_mask, rows))
            for upper, u in zip(rows, masks):
                for lower, l in zip(rows, masks):
                    count = 0
                    for a, b in zip(upper, lower):
                        count = pair(count, a == "1", b == "1")
                    assert (count == need) == rule(u, l, cols), (upper, lower)


#: The witness languages a compiled form is checked for, and its alphabets:
#: "1" first, last, or beside symbols that are not digits.
COMPILED_IDS = ["L1", "L2", "M1", "M2", "N1", "N2", "K1", "K2", "S2", "S3"]
COMPILED_ALPHABETS = [("0", "1"), ("0", "1", "2"), ("1", "a", "b")]


@pytest.mark.parametrize("lang", COMPILED_IDS)
def test_compiled_member_tables_match_fresh_builds(lang):
    """The member table a compiled form keeps for each width up to 3, read
    again, against a fresh build from the reference oracle at every index:
    the running count of passing row pairs.  Over every alphabet in one
    process, so a form or table read for another alphabet or width shows.
    The rank is checked at every index of the shapes of at most 3^8
    pictures, against the running member count."""
    rows = natural_rows(lang)
    passes = reference.oracle(lang if rows == 2 else lang[0] + "1")
    for alphabet in COMPILED_ALPHABETS:
        for cols in range(1, 4):
            _member_rank(lang, alphabet, rows, cols)
            rank = _member_rank(lang, alphabet, rows, cols)
            fresh = [0, *accumulate(map(passes, g.enumerate_pictures(alphabet, 2, cols)))]
            assert list(_compiled(lang, alphabet, rows).tables[cols]) == fresh, (alphabet, cols)
            if len(alphabet) ** (rows * cols) <= 3**8:
                found = map(reference.oracle(lang), g.enumerate_pictures(alphabet, rows, cols))
                counts = [0, *accumulate(found)]
                assert list(map(rank, range(len(counts)))) == counts, (alphabet, cols)


@pytest.mark.parametrize("lang", COMPILED_IDS)
def test_compiled_column_steps_match_the_reference_step(lang):
    """Every state the compiled automaton reaches from its start, over
    every alphabet: its kept next states are the reference column step's,
    filling by filling, and its member flag says whether all of its counts
    reached the language's.  Walking each picture of up to 3 columns (2
    at 4 rows over three symbols) column by column ends on a state whose
    flag is the reference oracle's verdict."""
    rows, oracle = natural_rows(lang), reference.oracle(lang)
    need = {"L": 2, "M": 2, "N": 1, "K": 2 * int(lang[1:]), "S": int(lang[1:])}[lang[0]]
    for alphabet in COMPILED_ALPHABETS:
        form = _compiled(lang, alphabet, rows)
        columns = _shape_rows(alphabet, 1, rows)
        seen, todo = {form.start}, [form.start]
        while todo:
            state = todo.pop()
            member, stepped = form[state]
            assert member == all(c == need for c in state)
            assert stepped == [reference.column_step(lang, state, c) for c in columns]
            todo += set(stepped) - seen
            seen.update(stepped)
        assert form.keys() >= seen
        for cols in range(1, 3 if rows * len(alphabet) > 8 else 4):
            for p in g.enumerate_pictures(alphabet, rows, cols):
                state = form.start
                for col in range(cols):
                    column = "".join(row[col] for row in p.cells)
                    state = form[state][1][columns.index(column)]
                assert form[state][0] == oracle(p), p


def test_member_tables_are_kept_up_to_4096_row_pairs():
    # 2 x 6 over two symbols has 4^6 = 4,096 row pairs: kept.  2 x 7 has
    # 16,384: built on each call, and never kept.
    for cols in (6, 7, 7):
        _member_rank("K2", ("0", "1"), 2, cols)
    tables = _compiled("K2", ("0", "1"), 2).tables
    assert len(tables[6]) == 4**6 + 1
    assert 7 not in tables
    assert all(len(table) <= 4097 for table in tables.values())


def test_threads_that_share_language_forms_see_what_a_serial_run_sees():
    # A compiled form fills its steps and member tables on first use, in
    # whichever thread gets there first.  Four threads share fresh forms
    # and fresh machine copies, each running every check in its own order
    # with threads switching often: counted by columns (A_L1, D_K2), and
    # searched, reading member tables (M_M1, and B_L1 starved of its U).
    checks = [
        ("A_L1", None, "L1", 2, 6, None), ("A_L1", None, "K2", 2, 5, None),
        ("D_K", 2, "K2", 2, 6, None), ("M_M1", None, "M1", 2, 5, None),
        ("B_L", 1, "L1", 2, 4, g.Budget(0, g.INF)),
    ]

    def calls():
        machines = {}
        for builder, param, *_ in checks:
            machines[builder] = dataclasses.replace(g.make_machine(builder, param))
        return [
            (n, lambda m=machines[b], l=lang, r=rows, c=cols, bud=budget: g.budget_sweep(
                m, l, r, c, [bud or m.budget]
            ).format_records())
            for n, (b, _, lang, rows, cols, budget) in enumerate(checks)
        ]

    _compiled.cache_clear()
    expected = {n: call() for n, call in calls()}
    _compiled.cache_clear()
    shared, seen = calls(), []
    barrier = threading.Barrier(4, timeout=30)

    def work(seed):
        order = random.Random(seed).sample(shared, len(shared))
        barrier.wait()
        seen.append({n: call() for n, call in order})

    # The collector is off meanwhile, as in the machines' thread test.
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
