"""Brute-force membership oracles and word constructors for the witness
languages over the alphabet {0, 1}.

Every language is built from the "stacked 1s" notion: a column whose two
cells in a designated row pair both hold 1.  The oracles are deliberately
naive (scan the whole picture) so they can stand as independent ground
truth against the machines that recognize the same languages:

* ``L_i``  -- exactly 2i rows; each disjoint row pair has >= 2 stacked columns.
* ``M_i``  -- exactly 2i rows; in each disjoint row pair both rows carry
  1s in exactly the same two columns (so the pair has exactly two stacked
  columns and nothing else in it is a 1).
* ``N_1`` / ``N_2`` -- 2 rows (resp. 4 rows) with >= 1 stacked column per pair.
* ``K_i``  -- 2 rows with >= 2i stacked columns; ``K_1`` coincides with ``L_1``.
* ``S_i``  -- the single 2 x i all-ones word.

Oracles return False (never raise) on pictures of the wrong shape: a
language is a set of pictures and a non-member is simply a non-member.
"""

from __future__ import annotations

import re

from .grid import Picture, ShapeError

ALPHABET_01: tuple[str, ...] = ("0", "1")


def _require_index(i: int) -> None:
    if i < 1:
        raise ValueError(f"language index must be >= 1, got {i}")


def _stacked(upper: tuple[str, ...], lower: tuple[str, ...]) -> int:
    """Number of columns carrying 1 in both rows."""
    return sum(1 for a, b in zip(upper, lower) if a == "1" and b == "1")


def stacked_count(p: Picture, top_row: int) -> int:
    """Number of columns carrying 1 in both ``top_row`` and ``top_row + 1``.

    ``top_row`` is 1-based; the picture must have at least ``top_row + 1``
    rows.
    """
    if not 1 <= top_row <= p.rows - 1:
        raise ValueError(
            f"top_row {top_row} needs rows {top_row + 1}, picture has {p.rows}"
        )
    return _stacked(p.cells[top_row - 1], p.cells[top_row])


def in_L(i: int, p: Picture) -> bool:
    """Member of L_i: 2i rows, every disjoint pair with >= 2 stacked columns."""
    _require_index(i)
    cells = p.cells
    if len(cells) != 2 * i:
        return False
    for r in range(0, 2 * i, 2):
        if _stacked(cells[r], cells[r + 1]) < 2:
            return False
    return True


def _exact_pair(upper: tuple[str, ...], lower: tuple[str, ...]) -> bool:
    # Both rows hold exactly two 1s, and the lower row holds 1s in the
    # upper row's two columns.  Rows that merely agree on their 1s may
    # still differ elsewhere, in symbols other than 0 and 1.
    if upper.count("1") != 2 or lower.count("1") != 2:
        return False
    first = upper.index("1")
    return lower[first] == "1" == lower[upper.index("1", first + 1)]


def in_M(i: int, p: Picture) -> bool:
    """Member of M_i: 2i rows, every disjoint pair an exact two-column pair.

    Exact means the pair's two rows carry exactly two 1s each, in the same
    two columns, i.e. exactly two stacked columns and no stray 1s (over
    {0, 1} the two rows agree); this is the language the deterministic
    recognizers in :mod:`gridfa.constructions` decide.
    """
    _require_index(i)
    cells = p.cells
    if len(cells) != 2 * i:
        return False
    for r in range(0, 2 * i, 2):
        if not _exact_pair(cells[r], cells[r + 1]):
            return False
    return True


def in_N1(p: Picture) -> bool:
    """Member of N_1: two rows with at least one stacked column."""
    return p.rows == 2 and _stacked(*p.cells) >= 1


def in_N2(p: Picture) -> bool:
    """Member of N_2: four rows, both disjoint pairs with >= 1 stacked column."""
    cells = p.cells
    return len(cells) == 4 and _stacked(*cells[:2]) >= 1 and _stacked(*cells[2:]) >= 1


def in_K(i: int, p: Picture) -> bool:
    """Member of K_i: two rows with at least 2i stacked columns."""
    _require_index(i)
    return p.rows == 2 and _stacked(*p.cells) >= 2 * i


def in_S(i: int, p: Picture) -> bool:
    """Member of S_i: the unique 2 x i picture whose cells are all 1."""
    _require_index(i)
    return (
        p.rows == 2
        and p.cols == i
        and all(sym == "1" for row in p.cells for sym in row)
    )


def make_u(i: int, j: int, z: int) -> Picture:
    """Single-row word of length z with 1s exactly at columns i < j."""
    if not 1 <= i < j <= z:
        raise ValueError(f"need 1 <= i < j <= z, got i={i}, j={j}, z={z}")
    row = tuple("1" if c in (i, j) else "0" for c in range(1, z + 1))
    return Picture._trusted((row,))


def make_w(i: int, j: int, z: int) -> Picture:
    """Two-row word whose rows are both ``make_u(i, j, z)``; always in L_1."""
    row = make_u(i, j, z).cells[0]
    return Picture._trusted((row, row))


def make_v(j: int, k: int, z: int, i: int) -> Picture:
    """(2i+2) x z word whose columns j < k are all 1s; always in L_{i+1}."""
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    if not 1 <= j < k <= z:
        raise ValueError(f"need 1 <= j < k <= z, got j={j}, k={k}, z={z}")
    row = tuple("1" if c in (j, k) else "0" for c in range(1, z + 1))
    return Picture._trusted((row,) * (2 * i + 2))


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


def oracle_for(lang_id: str):
    """Membership predicate ``Picture -> bool`` for a language id."""
    kind, index = parse_language_id(lang_id)
    if kind == "L":
        return lambda p: in_L(index, p)
    if kind == "M":
        return lambda p: in_M(index, p)
    if kind == "N":
        return in_N1 if index == 1 else in_N2
    if kind == "K":
        return lambda p: in_K(index, p)
    return lambda p: in_S(index, p)


def natural_rows(lang_id: str) -> int:
    """Row count outside of which the language is empty."""
    kind, index = parse_language_id(lang_id)
    if kind in ("L", "M", "N"):
        return 2 * index
    return 2
