"""Membership oracles and word constructors for the witness languages
over the alphabet {0, 1}.

Every language is built from the "stacked 1s" notion: a column whose two
cells in a designated row pair both hold 1.  Each is defined once, in
one branch of ``_pair_form``, as a row count, the number of stacked
columns it counts to, and a rule that every disjoint row pair (rows 1-2,
3-4, ...) must pass, stated twice over: as a test of the whole pair, and
as a count stepped one column at a time.  The test reads the pair's
upper and lower rows as 1-masks ``u`` and ``l`` (an int with bit k set
where column k holds "1"; every other symbol reads as 0) and the width
``w``, so the pair's stacked columns number ``(u & l).bit_count()``:

* ``L_i``  -- exactly 2i rows; each pair has >= 2 stacked columns.
* ``M_i``  -- exactly 2i rows; each pair has exactly two stacked columns
  and no other 1: ``u == l and u.bit_count() == 2``.
* ``N_1`` / ``N_2`` -- 2 rows (resp. 4 rows) with >= 1 stacked column per pair.
* ``K_i``  -- 2 rows with >= 2i stacked columns; ``K_1`` coincides with ``L_1``.
* ``S_i``  -- the single 2 x i all-ones word: ``w == i and u == l == (1 << w) - 1``.

The oracles are built from the test.  Each language's compiled form
(``_compiled``, one per language, alphabet and row count, built once and
kept) is built from both: its automaton over columns is a dict of the
count states it has reached, each with its steps, made on first use and
kept (``_Language``), and the member counts of ``_member_rank`` read
each row of a shape as a mask once and keep a width's table where it has
at most ``_KEPT_PAIRS`` (4,096) row pairs.  At most 64 forms are kept,
each with at most 44 KB of tables.

Oracles return False (never raise) on pictures of the wrong shape: a
language is a set of pictures and a non-member is simply a non-member.
"""

from __future__ import annotations

import re
from array import array
from functools import cache, lru_cache
from itertools import accumulate
from typing import Callable, Sequence

from .grid import Picture, ShapeError, _shape_rows

ALPHABET_01: tuple[str, ...] = ("0", "1")


#: ``bytes.translate`` table: "1" stays, every other byte becomes "0", so
#: ``int`` reads no other digit and skips no "_" or space.
_ONES = bytes(ord("1") if b == ord("1") else ord("0") for b in range(256))


def _mask(row: str) -> int:
    """The 1-mask of a row's text: bit k set where column k (from 0) holds
    "1".  A symbol outside ASCII encodes as one "?", so it reads 0 like the
    rest."""
    return int(row[::-1].encode("ascii", "replace").translate(_ONES), 2)


def stacked_count(p: Picture, top_row: int) -> int:
    """Number of columns carrying 1 in both ``top_row`` and ``top_row + 1``.

    ``top_row`` is 1-based; the picture must have at least ``top_row + 1``
    rows.
    """
    if not 1 <= top_row <= p.rows - 1:
        raise ValueError(
            f"top_row {top_row} needs rows {top_row + 1}, picture has {p.rows}"
        )
    return (_mask(p.cells[top_row - 1]) & _mask(p.cells[top_row])).bit_count()


def _pair_form(kind: str, index: int) -> tuple[int, int, Callable[..., bool], Callable[..., int]]:
    """The language of ``kind`` and ``index`` as its row count, the number
    ``need`` of stacked columns its rule counts to, the rule
    ``rule(u, l, w)`` each disjoint row pair must pass (``u`` and ``l`` the
    upper and lower row's 1-masks, ``w`` the width), and the same rule as
    a count over columns read left to right: ``pair(c, u, l)`` is a pair's
    count after a column whose upper and lower cells read ``u`` and ``l``
    (1 for "1", else 0), from the count ``c`` on the columns before it,
    and a row pair passes exactly when its count, from 0, ends on
    ``need``.

    M's rows carry the same two 1s; rows that agree on their 1s may still
    differ elsewhere, in symbols other than 1.  Its count goes one past
    ``need``, where a third stacked column or a lone 1 ends membership.
    Only S's rule reads the width: a row whose every column holds 1 has
    the mask ``(1 << w) - 1``.  S's count goes one past ``need`` at a
    column that is not stacked or lies past the ``need``-th, so a count
    that ends on ``need`` has counted the width, and ``pair`` needs no
    width."""
    if index < 1:
        raise ValueError(f"language index must be >= 1, got {index}")
    rows = 2 if kind in "KS" else 2 * index
    need = {"L": 2, "M": 2, "N": 1, "K": 2 * index, "S": index}[kind]
    if kind == "M":
        rule = lambda u, l, w: u == l and u.bit_count() == need
        pair = lambda c, u, l: need + 1 if u != l else min(c + u, need + 1)
    elif kind == "S":
        rule = lambda u, l, w: w == need and u == l == (1 << w) - 1
        pair = lambda c, u, l: c + 1 if u & l and c < need else need + 1
    else:
        rule = lambda u, l, w: (u & l).bit_count() >= need
        pair = lambda c, u, l: min(c + (u & l), need)
    return rows, need, rule, pair


_Counts = tuple[int, ...]  # a column automaton's state: one count per row pair


class _Language(dict):
    """A witness language compiled for one alphabet at its natural row
    count, as ``_compiled`` keeps it: an automaton over columns, read left
    to right, and the member tables of ``_member_rank``.

    ``start`` is the automaton's state on no column: one count per row
    pair, each stepped by ``_pair_form``'s ``pair``.  The form is a dict
    of the states it has reached: ``form[state]`` is whether ``state``
    ends a member and its next state per column filling (a column being
    the text of its cells, top to bottom, in ``_shape_rows(alphabet, 1,
    rows)`` order), made by ``__missing__`` on first use and kept.
    ``tables`` keeps the row-pair prefix counts of a width (``below``,
    built by ``_member_rank``) where they are small enough."""

    def __init__(self, lang_id: str, alphabet: tuple[str, ...]) -> None:
        self.rows, self.need, self.rule, self.pair = _pair_form(*parse_language_id(lang_id))
        self.alphabet, self.start = alphabet, (0,) * (self.rows // 2)
        self.tables: dict[int, array] = {}

    def __missing__(self, state: _Counts) -> tuple[bool, list[_Counts]]:
        columns = _shape_rows(self.alphabet, 1, self.rows)
        ones = [[symbol == "1" for symbol in column] for column in columns]
        found = self[state] = (
            all(c == self.need for c in state),
            [tuple(map(self.pair, state, flags[::2], flags[1::2])) for flags in ones],
        )
        return found


@lru_cache(maxsize=64)
def _compiled(lang_id: str, alphabet: tuple[str, ...], rows: int) -> _Language | None:
    """``lang_id`` compiled for ``alphabet`` at ``rows``, built once and
    kept for 64 such keys; None off the natural row count, where the
    language has no member.  A form keeps a step row per state a sweep
    reaches (a sweep steps columns of at most 16 fillings) and at most
    5,460 row pairs of member tables (``_KEPT_PAIRS``; widths 1..6 over
    two symbols), 44 KB as int64, so the forms hold at most about 2.8 MB
    of tables."""
    return _Language(lang_id, alphabet) if rows == natural_rows(lang_id) else None


@cache  # built once per language, so ``in_L`` and the rest pay one lookup
def _membership(kind: str, index: int) -> Callable[[Picture], bool]:
    rows, _, rule, _ = _pair_form(kind, index)
    return lambda p: len(p.cells) == rows and all(
        rule(_mask(upper), _mask(lower), len(upper))
        for upper, lower in zip(p.cells[::2], p.cells[1::2])
    )


def in_L(i: int, p: Picture) -> bool:
    """Member of L_i: 2i rows, every disjoint pair with >= 2 stacked columns."""
    return _membership("L", i)(p)


def in_M(i: int, p: Picture) -> bool:
    """Member of M_i: 2i rows, every disjoint pair an exact two-column pair:
    both rows carry exactly two 1s, in the same two columns."""
    return _membership("M", i)(p)


def in_N1(p: Picture) -> bool:
    """Member of N_1: two rows with at least one stacked column."""
    return _membership("N", 1)(p)


def in_N2(p: Picture) -> bool:
    """Member of N_2: four rows, both disjoint pairs with >= 1 stacked column."""
    return _membership("N", 2)(p)


def in_K(i: int, p: Picture) -> bool:
    """Member of K_i: two rows with at least 2i stacked columns."""
    return _membership("K", i)(p)


def in_S(i: int, p: Picture) -> bool:
    """Member of S_i: the unique 2 x i picture whose cells are all 1."""
    return _membership("S", i)(p)


#: A compiled language keeps a width's member table only where it has at
#: most this many row pairs, counted as if the alphabet had two symbols or
#: more: widths 1..6 over up to two symbols, 1..3 over three or four.
#: Wider tables are built per call: at 2 x 13 over two symbols one holds
#: 2^26 pairs.
_KEPT_PAIRS = 4096


def _member_rank(
    lang_id: str, alphabet: Sequence[str], rows: int, cols: int
) -> Callable[[int], int]:
    """``rank(x)``: the members of ``lang_id`` among the first ``x``
    pictures of the ``rows x cols`` shape over ``alphabet``, in
    ``enumerate_pictures`` order.  An index has the row pairs as digits,
    top pair first.  A member below ``x`` shares some passing leading
    pairs with it, then has a passing pair below ``x``'s next one
    (``below`` counts them), then any passing pairs.  ``below`` reads each
    of the shape's rows (``grid._shape_rows``) as a 1-mask once and sums
    the rule over every (upper, lower) pair of masks, in index order, into
    an int64 array: 8 bytes per row pair, where a list of ints took ~36.
    The compiled language keeps it up to ``_KEPT_PAIRS`` pairs."""
    form = _compiled(lang_id, tuple(alphabet), rows)
    if form is None:
        return lambda x: 0
    below = form.tables.get(cols)
    if below is None:
        masks, rule = list(map(_mask, _shape_rows(alphabet, 1, cols))), form.rule
        below = array("q", accumulate((rule(u, l, cols) for u in masks for l in masks), initial=0))
        if max(len(alphabet), 2) ** (2 * cols) <= _KEPT_PAIRS:
            form.tables[cols] = below
    size, passing, pairs = len(below) - 1, below[-1], rows // 2
    if pairs == 1:  # the index is the pair's value
        return below.__getitem__

    def rank(x: int) -> int:
        if x >= size**pairs:
            return passing**pairs
        count = 0
        for k in reversed(range(pairs)):
            digit, x = divmod(x, size**k)
            count += below[digit] * passing**k
            if below[digit + 1] == below[digit]:  # the pair fails
                break
        return count

    return rank


def make_u(i: int, j: int, z: int) -> Picture:
    """Single-row word of length z with 1s exactly at columns i < j."""
    if not 1 <= i < j <= z:
        raise ValueError(f"need 1 <= i < j <= z, got i={i}, j={j}, z={z}")
    row = ["0"] * z
    row[i - 1] = row[j - 1] = "1"
    return Picture._trusted(("".join(row),))


def make_w(i: int, j: int, z: int) -> Picture:
    """Two-row word whose rows are both ``make_u(i, j, z)``; always in L_1."""
    return Picture._trusted(make_u(i, j, z).cells * 2)


def make_v(j: int, k: int, z: int, i: int) -> Picture:
    """(2i+2) x z word whose columns j < k are all 1s; always in L_{i+1}."""
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    if not 1 <= j < k <= z:
        raise ValueError(f"need 1 <= j < k <= z, got j={j}, k={k}, z={z}")
    return Picture._trusted(make_u(j, k, z).cells * (2 * i + 2))


def splice_words(top_source: Picture, bottom_source: Picture, boundary_row: int) -> Picture:
    """Cut-and-paste: rows above ``boundary_row`` from the first word, the
    rest from the second.

    Both words must have equal dimensions.  ``boundary_row`` ranges over
    ``1 .. rows+1``; the extremes return the bottom (resp. top) source
    unchanged.
    """
    if (top_source.rows, top_source.cols) != (bottom_source.rows, bottom_source.cols):
        raise ShapeError(
            f"splice needs equal shapes, got {top_source.rows}x{top_source.cols} "
            f"and {bottom_source.rows}x{bottom_source.cols}"
        )
    if not 1 <= boundary_row <= top_source.rows + 1:
        raise ValueError(
            f"boundary_row {boundary_row} outside 1..{top_source.rows + 1}"
        )
    cut = boundary_row - 1
    return Picture._trusted(top_source.cells[:cut] + bottom_source.cells[cut:])


def parse_language_id(text: str) -> tuple[str, int]:
    """Split an id like ``L1``, ``M2``, ``N1``, ``K2`` or ``S4`` into
    (kind, index).  The index is written in ASCII digits without a leading
    zero, so each language has exactly one id."""
    if re.fullmatch("[KLMS][1-9][0-9]*|N[12]", text) is None:
        raise ValueError(f"unknown language id {text!r}")
    return text[0], int(text[1:])


def oracle_for(lang_id: str) -> Callable[[Picture], bool]:
    """Membership predicate ``Picture -> bool`` for a language id."""
    return _membership(*parse_language_id(lang_id))


def natural_rows(lang_id: str) -> int:
    """Row count outside of which the language is empty."""
    return _pair_form(*parse_language_id(lang_id))[0]
