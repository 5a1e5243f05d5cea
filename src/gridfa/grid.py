"""Rectangular pictures and their boundary frame.

A picture is the two-dimensional analogue of a word: a ``rows x cols``
array of single-character symbols, held as one string per row.  Machines
never index the array directly; they read cells through *frame
coordinates*, where the interior is 1-based and a ring of ``#`` boundary
cells occupies row 0, row ``rows+1``, column 0 and column ``cols+1``.
This keeps "head standing on a boundary marker" representable with
nonnegative coordinates.

Pictures are immutable values: simulation, enumeration and tests share
them freely.

``Picture(...)`` and ``Picture.from_rows`` check every cell.  Pictures
the library derives from cells it has already checked skip that check:
those made by ``enumerate_pictures`` (which checks its alphabet once),
``transpose``, ``rotate90_cw``, ``row_concat``, the parsers (which check
each line against the alphabet) and, in :mod:`gridfa.languages`, the
``make_*`` words and ``splice_words``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

BOUNDARY = "#"

STREAM_SEPARATOR = "--"

#: Symbols that picture text cannot hold: it is split into rows at them.
_LINE_BREAKS = frozenset("\r\n")


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

    ``cells`` is a tuple of rows, each a string of one character per cell;
    rows given as lists or tuples of characters are joined into strings
    once every cell is checked, so pictures of the same cells are equal
    and hash alike whatever form the rows came in.
    Degenerate (zero-row or zero-column) pictures are rejected, and the
    boundary marker ``#`` may never appear in a cell, nor may ``\r`` or
    ``\n``, which picture text could not hold.
    """

    cells: tuple[str, ...]

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
                if sym in _LINE_BREAKS:
                    raise PictureFormatError(f"cell ({r},{c}) is a line break: {sym!r}")
                if sym == BOUNDARY:
                    raise AlphabetError(
                        f"cell ({r},{c}) uses the reserved boundary marker {BOUNDARY!r}"
                    )
        object.__setattr__(self, "cells", tuple(map("".join, self.cells)))

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "Picture":
        return cls(tuple(rows))

    @classmethod
    def _trusted(cls, cells: tuple[str, ...]) -> "Picture":
        """A picture of cells known to be valid, made without checking
        them again: equal and hash-equal to ``Picture(cells)``."""
        p = object.__new__(cls)
        object.__setattr__(p, "cells", cells)
        return p

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
        return self.cells[r - 1]

    def symbols(self) -> frozenset[str]:
        """Set of symbols actually used in the cells."""
        return frozenset().union(*self.cells)

    def to_text(self) -> str:
        return "\n".join(self.cells)

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
    return _parse_lines(_lines(text), _allowed(alphabet))


def _allowed(alphabet: Iterable[str]) -> frozenset[str]:
    """The symbols of a declared alphabet, which may hold neither ``#`` nor
    a line break."""
    allowed = frozenset(alphabet)
    if BOUNDARY in allowed:
        raise AlphabetError(f"alphabet may not contain the boundary marker {BOUNDARY!r}")
    if not allowed.isdisjoint(_LINE_BREAKS):
        raise PictureFormatError("alphabet may not contain a line break")
    return allowed


def _parse_lines(lines: list[str], allowed: frozenset[str], first: int = 1) -> Picture:
    """One picture from its lines, numbered from ``first`` in messages,
    over the symbols ``_allowed`` gave; a last empty line is tolerated."""
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise PictureFormatError("empty input: pictures need at least one row")
    width = len(lines[0])
    for n, line in enumerate(lines, start=first):
        if len(line) == 0:
            raise PictureFormatError(f"line {n} is empty")
        if len(line) != width:
            raise PictureFormatError(
                f"line {n} has length {len(line)}, expected {width} (ragged picture)"
            )
        if not allowed.issuperset(line):  # ``allowed`` holds no ``#``
            for ch in line:
                if ch == BOUNDARY:
                    raise AlphabetError(f"line {n}: reserved boundary marker {BOUNDARY!r}")
                if ch not in allowed:
                    raise AlphabetError(f"line {n}: symbol {ch!r} not in alphabet")
    return Picture._trusted(tuple(lines))


def parse_picture_stream(text: str, alphabet: Iterable[str]) -> list[Picture]:
    """Parse a file holding one or more pictures separated by ``--`` lines.

    Empty lines around a picture are dropped; messages give line numbers
    in the whole file."""
    chunks: list[tuple[int, list[str]]] = [(1, [])]
    for n, line in enumerate(_lines(text), start=1):
        if line == STREAM_SEPARATOR:
            chunks.append((n + 1, []))
        else:
            chunks[-1][1].append(line)
    pictures, allowed = [], None
    for index, (first, chunk) in enumerate(chunks):
        start, end = 0, len(chunk)
        while start < end and not chunk[start]:
            start += 1
        while end > start and not chunk[end - 1]:
            end -= 1
        if start == end and len(chunks) > 1:
            # The separators before and after the chunk are on these lines.
            before, after = first - 1, first + len(chunk)
            if index == 0:
                where = f"before the first stream separator, on line {after}"
            elif index == len(chunks) - 1:
                where = f"after the last stream separator, on line {before}"
            else:
                where = f"between the stream separators on lines {before} and {after}"
            raise PictureFormatError(f"empty picture {where}")
        if allowed is None:  # once, after any empty picture before it is reported
            allowed = _allowed(alphabet)
        pictures.append(_parse_lines(chunk[start:end], allowed, first + start))
    return pictures


def format_picture_stream(pictures: Sequence[Picture]) -> str:
    """The pictures as one stream, separated by ``--`` lines.  A picture
    with a row ``--`` would read back as two, so it raises
    PictureFormatError naming the picture (1-based) and the row."""
    for n, p in enumerate(pictures, start=1):
        if STREAM_SEPARATOR in p.cells:
            raise _separator_row(n, p.cells.index(STREAM_SEPARATOR) + 1)
    return f"\n{STREAM_SEPARATOR}\n".join(p.to_text() for p in pictures) + "\n"


def _separator_row(number: int, row: int) -> PictureFormatError:
    """The refusal of picture ``number`` (from 1), whose row ``row`` is the
    stream separator."""
    return PictureFormatError(
        f"picture {number} cannot be written to a stream: its row {row} "
        f"is the stream separator {STREAM_SEPARATOR!r}"
    )


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
    return Picture._trusted(top.cells + bottom.cells)


def transpose(p: Picture) -> Picture:
    """Reflect about the main diagonal: output cell (r,c) = input cell (c,r)."""
    return Picture._trusted(tuple(map("".join, zip(*p.cells))))


def rotate90_cw(p: Picture) -> Picture:
    """Rotate a quarter turn clockwise: output (r,c) = input (rows+1-c, r)."""
    return Picture._trusted(tuple(map("".join, zip(*reversed(p.cells)))))


def enumerate_pictures(alphabet: Sequence[str], rows: int, cols: int) -> Iterator[Picture]:
    """Yield all |alphabet|^(rows*cols) pictures of the given shape once each.

    Order is deterministic: cells vary in row-major order, the last cell
    fastest, symbols cycling in the order the alphabet sequence declares
    them.  The alphabet is checked before the first picture: a symbol that
    is not a single character, or is ``\r`` or ``\n``, raises
    PictureFormatError, and ``#`` or a symbol given twice raises
    AlphabetError.  Pictures of more than one row share the shape's
    |alphabet|^cols rows, made once before the first picture; one-row
    pictures are made one at a time, so a stream of them holds no more.

    So a picture's index is its rows read as digits in base |alphabet|^cols,
    the top row most significant, and the pictures that agree on their
    first k cells are |alphabet|^(rows*cols - k) consecutive ones.  Sweeps
    rely on this order: they decide a shape as runs of indices and decode
    (``_picture_at``) only the pictures a caller reads.
    """
    trusted = Picture._trusted
    shape_rows = _row_stream(alphabet, rows, cols)
    if rows == 1:
        for row in shape_rows:
            yield trusted((row,))
    else:
        for cells in itertools.product(shape_rows, repeat=rows):
            yield trusted(cells)


def _shape_rows(alphabet: Sequence[str], rows: int, cols: int) -> list[str]:
    """The rows of the ``rows x cols`` shape, as text, in enumeration order,
    after checking the shape and the alphabet as ``enumerate_pictures`` does."""
    return list(_row_stream(alphabet, rows, cols))


def _row_stream(alphabet: Sequence[str], rows: int, cols: int) -> Iterator[str]:
    """``_shape_rows``, made one row at a time (the checks come first)."""
    if rows < 1 or cols < 1:
        raise PictureFormatError("enumeration needs rows >= 1 and cols >= 1")
    symbols = tuple(alphabet)
    for n, sym in enumerate(symbols):
        if not isinstance(sym, str) or len(sym) != 1:
            raise PictureFormatError(f"alphabet symbol is not a single character: {sym!r}")
        if sym in _LINE_BREAKS:
            raise PictureFormatError(f"alphabet symbol is a line break: {sym!r}")
        if sym == BOUNDARY:
            raise AlphabetError(f"alphabet may not contain the boundary marker {BOUNDARY!r}")
        if sym in symbols[:n]:
            raise AlphabetError(f"alphabet declares symbol {sym!r} twice")
    return map("".join, itertools.product(symbols, repeat=cols))


def _picture_at(shape_rows: Sequence[str], rows: int, index: int) -> Picture:
    """Picture ``index`` (from 0) of the enumeration of the shape whose
    rows ``_shape_rows`` gave, for the rows the digits of ``index``."""
    base = len(shape_rows)
    cells = [shape_rows[index // base**k % base] for k in range(rows - 1, -1, -1)]
    return Picture._trusted(tuple(cells))
