import pytest
from hypothesis import given
from hypothesis import strategies as st

import gridfa as g
from gridfa.grid import format_picture_stream

ALL_ONES_2X2 = g.Picture.from_rows(["11", "11"])


def small_pictures(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda rows: st.integers(1, max_cols).flatmap(
            lambda cols: st.lists(
                st.text(alphabet="01", min_size=cols, max_size=cols),
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

    def test_crlf_lines(self):
        pics = [g.Picture.from_rows(["01", "10"]), ALL_ONES_2X2]
        assert g.parse_picture("01\r\n10\r\n", {"0", "1"}) == pics[0]
        assert g.parse_picture_stream("01\r\n10\r\n--\r\n11\r\n11\r\n", {"0", "1"}) == pics
        crlf = format_picture_stream(pics).replace("\n", "\r\n")
        assert g.parse_picture_stream(crlf, {"0", "1"}) == pics

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
