"""Rectangular pictures and their boundary frame.

A picture is the two-dimensional analogue of a word: a ``rows x cols``
array of single-character symbols.  Machines never index the array
directly; they read cells through *frame coordinates*, where the interior
is 1-based and a ring of ``#`` boundary cells occupies row 0, row
``rows+1``, column 0 and column ``cols+1``.  This keeps "head standing on
a boundary marker" representable with nonnegative coordinates.

Pictures are immutable values: simulation, enumeration and tests share
them freely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

BOUNDARY = "#"

STREAM_SEPARATOR = "--"


class PictureFormatError(ValueError):
    """Ragged lines, empty input, or other malformed picture text."""


class AlphabetError(ValueError):
    """A symbol falls outside the declared alphabet (or is the reserved #)."""


class ShapeError(ValueError):
    """Two pictures cannot be combined because their dimensions disagree."""


class FrameError(IndexError):
    """Coordinates lie outside the boundary frame."""


@dataclass(frozen=True)
class Picture:
    """Immutable rectangular array of one-character symbols.

    ``cells`` is a tuple of rows, each a tuple of single characters.
    Degenerate (zero-row or zero-column) pictures are rejected, and the
    boundary marker ``#`` may never appear in a cell.
    """

    cells: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.cells or not self.cells[0]:
            raise PictureFormatError("picture must have at least one row and one column")
        width = len(self.cells[0])
        for r, row in enumerate(self.cells, start=1):
            if len(row) != width:
                raise PictureFormatError(
                    f"row {r} has {len(row)} cells, expected {width}"
                )
            for c, sym in enumerate(row, start=1):
                if not isinstance(sym, str) or len(sym) != 1:
                    raise PictureFormatError(
                        f"cell ({r},{c}) is not a single character: {sym!r}"
                    )
                if sym == BOUNDARY:
                    raise AlphabetError(
                        f"cell ({r},{c}) uses the reserved boundary marker {BOUNDARY!r}"
                    )

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "Picture":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])

    def row_text(self, r: int) -> str:
        """Row ``r`` (1-based) as a string."""
        if not 1 <= r <= self.rows:
            raise FrameError(f"row {r} outside interior 1..{self.rows}")
        return "".join(self.cells[r - 1])

    def symbols(self) -> frozenset[str]:
        """Set of symbols actually used in the cells."""
        return frozenset(sym for row in self.cells for sym in row)

    def to_text(self) -> str:
        return "\n".join("".join(row) for row in self.cells)

    def __str__(self) -> str:
        return self.to_text()


def _lines(text: str) -> list[str]:
    """Lines of ``text``, each stripped of one trailing CR (CRLF files)."""
    lines = text.split("\n")
    if "\r" not in text:
        return lines
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def parse_picture(text: str, alphabet: Iterable[str]) -> Picture:
    """Parse line-oriented picture text against a declared alphabet.

    Every line must be nonempty and of equal length; every character must
    belong to ``alphabet``; ``#`` is reserved for the frame.  A trailing
    newline is tolerated, and lines may end in CRLF.
    """
    return _parse_lines(_lines(text), alphabet)


def _parse_lines(lines: list[str], alphabet: Iterable[str]) -> Picture:
    """One picture from its lines; a last empty line is tolerated."""
    allowed = frozenset(alphabet)
    if BOUNDARY in allowed:
        raise AlphabetError(f"alphabet may not contain the boundary marker {BOUNDARY!r}")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise PictureFormatError("empty input: pictures need at least one row")
    width = len(lines[0])
    for n, line in enumerate(lines, start=1):
        if len(line) == 0:
            raise PictureFormatError(f"line {n} is empty")
        if len(line) != width:
            raise PictureFormatError(
                f"line {n} has length {len(line)}, expected {width} (ragged picture)"
            )
        for ch in line:
            if ch == BOUNDARY:
                raise AlphabetError(f"line {n}: reserved boundary marker {BOUNDARY!r}")
            if ch not in allowed:
                raise AlphabetError(f"line {n}: symbol {ch!r} not in alphabet")
    return Picture.from_rows(lines)


def parse_picture_stream(text: str, alphabet: Iterable[str]) -> list[Picture]:
    """Parse a file holding one or more pictures separated by ``--`` lines."""
    chunks: list[list[str]] = [[]]
    for line in _lines(text):
        if line == STREAM_SEPARATOR:
            chunks.append([])
        else:
            chunks[-1].append(line)
    pictures = []
    for chunk in chunks:
        body = "\n".join(chunk).strip("\n")
        if body == "" and len(chunks) > 1:
            raise PictureFormatError("empty picture between stream separators")
        pictures.append(_parse_lines(body.split("\n"), alphabet))
    return pictures


def format_picture_stream(pictures: Sequence[Picture]) -> str:
    return f"\n{STREAM_SEPARATOR}\n".join(p.to_text() for p in pictures) + "\n"


def cell_at(p: Picture, row: int, col: int) -> str:
    """Symbol under frame coordinates: interior cell, or ``#`` on the ring.

    Valid coordinates satisfy ``0 <= row <= rows+1`` and
    ``0 <= col <= cols+1``; anything beyond the one-cell frame ring is an
    error, since the head can never get there.
    """
    if not (0 <= row <= p.rows + 1 and 0 <= col <= p.cols + 1):
        raise FrameError(
            f"({row},{col}) outside frame 0..{p.rows + 1} x 0..{p.cols + 1}"
        )
    if row == 0 or row == p.rows + 1 or col == 0 or col == p.cols + 1:
        return BOUNDARY
    return p.cells[row - 1][col - 1]


def row_concat(top: Picture, bottom: Picture) -> Picture:
    """Stack two equal-width pictures, top rows first."""
    if top.cols != bottom.cols:
        raise ShapeError(
            f"cannot stack {top.rows}x{top.cols} over {bottom.rows}x{bottom.cols}: "
            "column counts differ"
        )
    return Picture(top.cells + bottom.cells)


def transpose(p: Picture) -> Picture:
    """Reflect about the main diagonal: output cell (r,c) = input cell (c,r)."""
    return Picture(tuple(zip(*p.cells)))


def rotate90_cw(p: Picture) -> Picture:
    """Rotate a quarter turn clockwise: output (r,c) = input (rows+1-c, r)."""
    rows, cols = p.rows, p.cols
    return Picture(
        tuple(
            tuple(p.cells[rows - c][r] for c in range(1, rows + 1))
            for r in range(cols)
        )
    )


def enumerate_pictures(alphabet: Sequence[str], rows: int, cols: int) -> Iterator[Picture]:
    """Yield all |alphabet|^(rows*cols) pictures of the given shape once each.

    Order is deterministic: cells vary in row-major order, the last cell
    fastest, symbols cycling in the order the alphabet sequence declares
    them.
    """
    if rows < 1 or cols < 1:
        raise PictureFormatError("enumeration needs rows >= 1 and cols >= 1")
    symbols = tuple(alphabet)
    for combo in itertools.product(symbols, repeat=rows * cols):
        yield Picture(
            tuple(combo[r * cols : (r + 1) * cols] for r in range(rows))
        )
