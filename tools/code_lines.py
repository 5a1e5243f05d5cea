"""Count the code lines of the gridfa package: the lines that hold a token
other than a comment, a docstring or a line break, so blank lines, comment
lines and docstrings do not count.  A docstring is a string that stands
alone as a statement.  Prints one line per module and the total.

    python tools/code_lines.py [DIR]

DIR defaults to the ``src/gridfa`` next to this script's directory.
Stdlib only.
"""

import sys
import tokenize
from pathlib import Path

#: Tokens that end a statement or open a block: a string right after one
#: (or at the top of a file) starts a statement, so it is a docstring.
_BEFORE_STATEMENT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    lines: set[int] = set()
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    previous = tokenize.ENCODING
    for index, token in enumerate(tokens):
        if token.type not in _NOT_CODE:
            following = tokens[index + 1].type if index + 1 < len(tokens) else tokenize.ENDMARKER
            docstring = (
                token.type == tokenize.STRING
                and previous in _BEFORE_STATEMENT
                and following in (tokenize.NEWLINE, tokenize.ENDMARKER)
            )
            if not docstring:
                lines.update(range(token.start[0], token.end[0] + 1))
        if token.type not in (tokenize.COMMENT, tokenize.NL):
            previous = token.type
    return len(lines)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "gridfa"
    root = Path(argv[1]) if len(argv) > 1 else default
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name} {count:,}")
    print(f"total {total:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
