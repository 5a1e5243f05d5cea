import dataclasses
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gridfa as g
from gridfa.grid import _picture_at, _shape_rows, format_picture_stream

ALL_ONES_2X2 = g.Picture.from_rows(["11", "11"])


def small_pictures(max_rows=4, max_cols=4, alphabet="01"):
    return st.integers(1, max_rows).flatmap(
        lambda rows: st.integers(1, max_cols).flatmap(
            lambda cols: st.lists(
                st.text(alphabet=alphabet, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            ).map(g.Picture.from_rows)
        )
    )


class TestParsePicture:
    def test_two_by_two_ones(self):
        p = g.parse_picture("11\n11", {"0", "1"})
        assert (p.rows, p.cols) == (2, 2)
        assert p == ALL_ONES_2X2

    def test_minimal_single_cell(self):
        p = g.parse_picture("0", {"0", "1"})
        assert (p.rows, p.cols) == (1, 1)

    def test_ragged_lines_rejected(self):
        with pytest.raises(g.PictureFormatError):
            g.parse_picture("10\n1", {"0", "1"})

    def test_reserved_boundary_rejected(self):
        with pytest.raises(g.AlphabetError):
            g.parse_picture("1#", {"0", "1", "#"})
        with pytest.raises(g.AlphabetError):
            g.parse_picture("1#", {"0", "1"})

    def test_foreign_symbol_rejected(self):
        with pytest.raises(g.AlphabetError):
            g.parse_picture("12", {"0", "1"})

    def test_empty_input_rejected(self):
        with pytest.raises(g.PictureFormatError):
            g.parse_picture("", {"0", "1"})

    def test_trailing_newline_tolerated(self):
        assert g.parse_picture("10\n01\n", {"0", "1"}).rows == 2

    def test_stream_round_trip(self):
        pics = [ALL_ONES_2X2, g.Picture.from_rows(["0"]), g.Picture.from_rows(["10", "01"])]
        text = format_picture_stream(pics)
        assert g.parse_picture_stream(text, {"0", "1"}) == pics

    def test_stream_refuses_a_separator_row(self):
        pics = [g.Picture.from_rows(["0-"]), g.Picture.from_rows(["-0", "--"])]
        with pytest.raises(g.PictureFormatError) as err:
            format_picture_stream(pics)
        assert str(err.value) == (
            "picture 2 cannot be written to a stream: its row 2 is the stream separator '--'"
        )

    @given(st.lists(small_pictures(max_rows=3, max_cols=3, alphabet="0-"), min_size=1, max_size=4))
    def test_stream_round_trip_over_the_separator_symbol(self, pics):
        if any("".join(row) == "--" for p in pics for row in p.cells):
            with pytest.raises(g.PictureFormatError):
                format_picture_stream(pics)
        else:
            assert g.parse_picture_stream(format_picture_stream(pics), "0-") == pics

    def test_line_break_cells_are_refused(self):
        for rows in (["0\r"], ["0", "\n"], ["\r0"]):
            with pytest.raises(g.PictureFormatError, match="is a line break"):
                g.Picture.from_rows(rows)
        for alphabet in ("0\r", "\n"):
            with pytest.raises(g.PictureFormatError, match="alphabet symbol is a line break"):
                next(g.enumerate_pictures(alphabet, 1, 1))
            with pytest.raises(g.PictureFormatError, match="alphabet may not contain a line break"):
                g.parse_picture("0", alphabet)
        # A mid-line CR is not a line ending, and no alphabet admits it.
        with pytest.raises(g.AlphabetError, match=r"^line 1: symbol '\\r' not in alphabet$"):
            g.parse_picture_stream("0\r0\n", "0")

    @given(
        st.lists(
            st.integers(1, 3).flatmap(
                lambda cols: st.lists(
                    st.lists(
                        st.sampled_from(["0", "-", " ", "#", "\r", "\n", "\x0b", "\x85"])
                        | st.characters(),
                        min_size=cols,
                        max_size=cols,
                    ),
                    min_size=1,
                    max_size=3,
                )
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_every_picture_the_library_accepts_reads_back(self, grids):
        pictures = []
        for grid in grids:
            cells = tuple(tuple(row) for row in grid)
            if any(sym in "#\r\n" for row in cells for sym in row):
                with pytest.raises((g.AlphabetError, g.PictureFormatError)):
                    g.Picture(cells)
            else:
                pictures.append(g.Picture(cells))
        alphabet = {sym for p in pictures for sym in p.symbols()}
        if any("".join(row) == "--" for p in pictures for row in p.cells):
            with pytest.raises(g.PictureFormatError):
                format_picture_stream(pictures)
        elif pictures:
            assert g.parse_picture_stream(format_picture_stream(pictures), alphabet) == pictures

    def test_crlf_lines(self):
        pics = [g.Picture.from_rows(["01", "10"]), ALL_ONES_2X2]
        assert g.parse_picture("01\r\n10\r\n", {"0", "1"}) == pics[0]
        assert g.parse_picture_stream("01\r\n10\r\n--\r\n11\r\n11\r\n", {"0", "1"}) == pics
        crlf = format_picture_stream(pics).replace("\n", "\r\n")
        assert g.parse_picture_stream(crlf, {"0", "1"}) == pics

    def test_stream_errors_give_file_line_numbers(self):
        with pytest.raises(g.AlphabetError, match="^line 3: symbol 'x'"):
            g.parse_picture_stream("01\n--\n0x\n", "01")
        with pytest.raises(g.PictureFormatError, match="^line 6 has length 1"):
            g.parse_picture_stream("01\n--\n\n\n01\n0\n", "01")
        with pytest.raises(g.PictureFormatError, match="^line 4 is empty"):
            g.parse_picture_stream("11\n--\n01\n\n01\n", "01")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("01x0", "line 5: symbol 'x' not in alphabet"),
            ("01#0", "line 5: reserved boundary marker '#'"),
            ("0x#0", "line 5: symbol 'x' not in alphabet"),
            ("0#x0", "line 5: reserved boundary marker '#'"),
            ("011 ", "line 5: symbol ' ' not in alphabet"),
        ],
    )
    def test_bad_symbol_after_a_valid_prefix_names_the_first(self, line, message):
        text = "0101\n--\n1010\n0110\n" + line + "\n1111\n"
        for parse, numbered in ((g.parse_picture_stream, text), (g.parse_picture, text[8:])):
            with pytest.raises((g.AlphabetError, g.PictureFormatError)) as err:
                parse(numbered, "01")
            expected = message if parse is g.parse_picture_stream else message.replace("5", "3", 1)
            assert str(err.value) == expected

    def test_stream_reads_its_alphabet_once(self):
        pics = [g.Picture.from_rows(["01"]), g.Picture.from_rows(["10"])]
        assert g.parse_picture_stream("01\n--\n10\n", iter("01")) == pics
        # An empty first picture is still reported before a bad alphabet.
        with pytest.raises(g.PictureFormatError, match="^empty picture before"):
            g.parse_picture_stream("\n--\n01\n", "0#")
        with pytest.raises(g.AlphabetError, match="^alphabet may not contain"):
            g.parse_picture_stream("01\n--\n\n", "0#")

    def test_a_wide_picture_holds_its_rows_as_text(self):
        # 4 x 8192 cells: about 32 KB as four strings, 256 KB as tuples of
        # one-character strings (a pointer per cell).
        text = "\n".join(("0110", "1001", "0011", "1100")[r] * 2048 for r in range(4))
        tracemalloc.start()
        try:
            (p,) = g.parse_picture_stream(text, "01")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (p.rows, p.cols) == (4, 8192)
        assert held < 64 * 1024

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\n--\n01\n", "empty picture before the first stream separator, on line 2"),
            ("01\n--\n", "empty picture after the last stream separator, on line 2"),
            ("01\r\n--\r\n\r\n", "empty picture after the last stream separator, on line 2"),
            ("01\n--\n\n\n--\n10\n", "empty picture between the stream separators on lines 2 and 5"),
        ],
    )
    def test_empty_stream_picture_names_its_separator(self, text, message):
        with pytest.raises(g.PictureFormatError) as err:
            g.parse_picture_stream(text, "01")
        assert str(err.value) == message

    @given(st.lists(st.sampled_from(["01", "1", "", "0x", "--", "10\r"]), max_size=8))
    def test_stream_error_names_the_faulty_file_line(self, lines):
        text = "\n".join(lines)
        try:
            g.parse_picture_stream(text, "01")
        except (g.AlphabetError, g.PictureFormatError) as exc:
            message = str(exc)
            if message.startswith("line "):
                n = int(message.split()[1].rstrip(":"))
                line = text.split("\n")[n - 1].removesuffix("\r")
                if "symbol 'x'" in message:
                    assert "x" in line
                else:
                    assert f"length {len(line)}" in message or line == "" and "empty" in message

    def test_only_one_trailing_cr_per_line_stripped(self):
        for parse in (g.parse_picture, g.parse_picture_stream):
            with pytest.raises(g.AlphabetError):
                parse("01\r\r\n10\r\n", {"0", "1"})


class TestCellAt:
    def test_frame_corner(self):
        assert g.cell_at(ALL_ONES_2X2, 0, 0) == "#"

    def test_interior(self):
        assert g.cell_at(ALL_ONES_2X2, 1, 2) == "1"

    def test_beyond_frame(self):
        with pytest.raises(g.FrameError):
            g.cell_at(ALL_ONES_2X2, 4, 0)

    def test_frame_is_exactly_the_ring(self):
        p = g.Picture.from_rows(["10", "01", "11"])
        for row in range(0, p.rows + 2):
            for col in range(0, p.cols + 2):
                on_ring = row in (0, p.rows + 1) or col in (0, p.cols + 1)
                assert (g.cell_at(p, row, col) == "#") == on_ring


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: ALL_ONES_2X2.row_text(0), "row 0 outside interior 1..2"),
        (lambda: ALL_ONES_2X2.row_text(3), "row 3 outside interior 1..2"),
        (lambda: g.Picture.from_rows(["0"]).row_text(-1), "row -1 outside interior 1..1"),
    ],
)
def test_reads_off_the_interior_are_refused(refused, message):
    with pytest.raises(g.FrameError) as err:
        refused()
    assert str(err.value) == message


class TestRowConcat:
    def test_shape_arithmetic(self):
        a = g.Picture.from_rows(["101", "010"])
        stacked = g.row_concat(a, a)
        assert (stacked.rows, stacked.cols) == (4, 3)

    def test_fig1_self_concat_lands_in_l2(self, fig1_word):
        assert g.in_L(1, fig1_word)
        assert g.in_L(2, g.row_concat(fig1_word, fig1_word))

    def test_column_mismatch(self):
        with pytest.raises(g.ShapeError):
            g.row_concat(g.Picture.from_rows(["10", "01"]), g.Picture.from_rows(["101", "110"]))

    @given(small_pictures(2, 3), small_pictures(2, 3), small_pictures(2, 3))
    def test_associative_where_shapes_permit(self, a, b, c):
        if not (a.cols == b.cols == c.cols):
            return
        assert g.row_concat(g.row_concat(a, b), c) == g.row_concat(a, g.row_concat(b, c))


class TestTransposeRotate:
    def test_transpose_row_to_column(self):
        assert g.transpose(g.Picture.from_rows(["101"])) == g.Picture.from_rows(["1", "0", "1"])

    def test_transpose_symmetric_word(self):
        assert g.transpose(ALL_ONES_2X2) == ALL_ONES_2X2

    @given(small_pictures())
    def test_transpose_involution(self, p):
        assert g.transpose(g.transpose(p)) == p

    def test_rotate_row_to_column(self):
        assert g.rotate90_cw(g.Picture.from_rows(["10"])) == g.Picture.from_rows(["1", "0"])

    def test_rotate_hand_checked(self):
        p = g.Picture.from_rows(["10", "00"])
        assert g.rotate90_cw(p) == g.Picture.from_rows(["01", "00"])

    @given(small_pictures())
    def test_four_rotations_identity(self, p):
        q = p
        for _ in range(4):
            q = g.rotate90_cw(q)
        assert q == p

    @given(small_pictures())
    def test_rotation_position_map(self, p):
        q = g.rotate90_cw(p)
        assert (q.rows, q.cols) == (p.cols, p.rows)
        for r in range(1, q.rows + 1):
            for c in range(1, q.cols + 1):
                assert g.cell_at(q, r, c) == g.cell_at(p, p.rows + 1 - c, r)


class TestEnumerate:
    def test_counts(self):
        assert len(list(g.enumerate_pictures("01", 1, 2))) == 4
        assert len(list(g.enumerate_pictures("01", 2, 3))) == 64

    def test_all_distinct_and_contains_all_ones(self):
        pics = list(g.enumerate_pictures("01", 2, 2))
        assert len(pics) == len(set(pics)) == 16
        assert pics.count(ALL_ONES_2X2) == 1

    def test_documented_order_row_major_last_cell_fastest(self):
        pics = list(g.enumerate_pictures("01", 1, 2))
        assert [p.to_text() for p in pics] == ["00", "01", "10", "11"]

    def test_degenerate_rejected(self):
        with pytest.raises(g.PictureFormatError):
            list(g.enumerate_pictures("01", 0, 2))

    @pytest.mark.parametrize(
        "alphabet, error",
        [
            (("0", "ab"), g.PictureFormatError),
            (("0", "#"), g.AlphabetError),
            (("0", 1), g.PictureFormatError),
            ("00", g.AlphabetError),
        ],
    )
    def test_bad_alphabet_rejected_before_the_first_picture(self, alphabet, error):
        with pytest.raises(error):
            next(g.enumerate_pictures(alphabet, 1, 1))

    @pytest.mark.parametrize("alphabet", ["", "a", "01", "012", "10"])
    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 4), (2, 3), (3, 2), (4, 1)])
    def test_index_decoder_follows_the_enumeration(self, alphabet, rows, cols):
        pictures = list(g.enumerate_pictures(alphabet, rows, cols))
        shape_rows = _shape_rows(alphabet, rows, cols)
        assert len(pictures) == len(alphabet) ** (rows * cols) == len(shape_rows) ** rows
        decoded = [_picture_at(shape_rows, rows, n) for n in range(len(pictures))]
        assert decoded == pictures
        assert all(p.cells == q.cells for p, q in zip(decoded, pictures))
        for p in decoded:
            assert_checked(p)

    def test_shape_rows_check_as_the_enumeration_does(self):
        with pytest.raises(g.PictureFormatError, match="enumeration needs rows >= 1"):
            _shape_rows("01", 0, 2)
        with pytest.raises(g.AlphabetError, match="declares symbol '0' twice"):
            _shape_rows("00", 1, 1)


class TestCheckedConstruction:
    @pytest.mark.parametrize(
        "cells, error",
        [
            ((), g.PictureFormatError),
            (((),), g.PictureFormatError),
            ((("0",), ("0", "1")), g.PictureFormatError),
            ((("ab",),), g.PictureFormatError),
            (((1,),), g.PictureFormatError),
            ((("0", "#"),), g.AlphabetError),
        ],
    )
    def test_picture_checks_every_cell(self, cells, error):
        with pytest.raises(error):
            g.Picture(cells)

    @pytest.mark.parametrize(
        "rows, error",
        [([], g.PictureFormatError), ([""], g.PictureFormatError),
         (["01", "0"], g.PictureFormatError), (["0#"], g.AlphabetError)],
    )
    def test_from_rows_checks_every_cell(self, rows, error):
        with pytest.raises(error):
            g.Picture.from_rows(rows)

    @pytest.mark.parametrize(
        "cells",
        [[["0", "1"], ["1", "1"]], [("0", "1"), ("1", "1")], ("01", "11"), ["01", "11"]],
        ids=["list rows", "list of tuples", "string rows", "list of strings"],
    )
    def test_rows_are_stored_as_text(self, cells):
        p = g.Picture(cells)
        expected = g.Picture.from_rows(["01", "11"])
        assert p == expected and hash(p) == hash(expected)
        assert type(p.cells) is tuple and all(type(row) is str for row in p.cells)

    def test_a_checked_picture_does_not_share_the_given_rows(self):
        rows = [["0", "1"]]
        p = g.Picture(rows)
        rows[0][0] = "#"
        assert p.cells == ("01",)
        assert g.accepts(g.build_A_L1(), p) is False

    @pytest.mark.parametrize(
        "cells, error, message",
        [
            (None, g.PictureFormatError, "picture must have at least one row and one column"),
            ([], g.PictureFormatError, "picture must have at least one row and one column"),
            ([[]], g.PictureFormatError, "picture must have at least one row and one column"),
            ([["0"], ["0", "1"]], g.PictureFormatError, "row 2 has 2 cells, expected 1"),
            ([["0", "ab"]], g.PictureFormatError, "cell (1,2) is not a single character: 'ab'"),
            ([["0"], ["\n"]], g.PictureFormatError, "cell (2,1) is a line break: '\\n'"),
            (["0#"], g.AlphabetError, "cell (1,2) uses the reserved boundary marker '#'"),
        ],
    )
    def test_refusals_name_the_fault(self, cells, error, message):
        with pytest.raises(error) as info:
            g.Picture(cells)
        assert str(info.value) == message


def assert_checked(q: g.Picture) -> None:
    """``q`` equals, and hashes like, a picture rebuilt from its cells
    through the full check, and is as immutable as one."""
    fresh = g.Picture(tuple(tuple(row) for row in q.cells))
    assert q == fresh and hash(q) == hash(fresh)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.cells = fresh.cells


@given(small_pictures(alphabet="01a"), st.data())
def test_derived_pictures_are_checked_pictures(p, data):
    """Pictures the library builds without re-checking their cells."""
    turned = g.rotate90_cw(g.rotate90_cw(p))
    boundary = data.draw(st.integers(1, p.rows + 1))
    for q in (
        g.transpose(p),
        g.rotate90_cw(p),
        g.row_concat(p, turned),
        g.splice_words(p, turned, boundary),
        g.parse_picture(p.to_text(), "01a"),
        *g.parse_picture_stream(format_picture_stream([p, turned]), "01a"),
    ):
        assert_checked(q)


@given(st.sampled_from(["0", "01", "a1", "012"]), st.integers(1, 2), st.integers(1, 3))
def test_enumerated_pictures_are_checked_pictures(alphabet, rows, cols):
    pictures = list(g.enumerate_pictures(alphabet, rows, cols))
    assert len(pictures) == len(alphabet) ** (rows * cols)
    for q in pictures:
        assert_checked(q)


def test_language_words_are_checked_pictures():
    for q in (g.make_u(1, 3, 4), g.make_w(2, 3, 3), g.make_v(1, 2, 2, 1)):
        assert_checked(q)
