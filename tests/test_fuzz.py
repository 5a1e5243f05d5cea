"""Parser fuzzing: any text either parses or raises the parser's typed
errors, never anything else."""

from hypothesis import given, settings
from hypothesis import strategies as st

import gridfa as g

PICTURE_TEXT = st.one_of(st.text(), st.text(alphabet="01#-\r\n x"))

MACHINE_TOKENS = [
    "machine", "alphabet", "states", "initial", "accept", "mode", "free",
    "budgeted", "budget", "trans", "up", "left", "inf", "det", "nondet",
    "->", "#", "U", "D", "L", "R", "0", "1", "-1", "01", "s0", "s1", "\t", "\r",
]
MACHINE_LINES = st.lists(st.sampled_from(MACHINE_TOKENS), max_size=7).map(" ".join)


@st.composite
def near_miss_machine_text(draw):
    """A builder's machine file with one line replaced."""
    builder = draw(st.sampled_from(sorted(g.BUILDERS)))
    machine = g.make_machine(builder, 1 if g.BUILDERS[builder][1] else None)
    lines = g.serialize_machine(machine).split("\n")
    lines[draw(st.integers(0, len(lines) - 1))] = draw(MACHINE_LINES)
    return "\n".join(lines)


MACHINE_TEXT = st.one_of(
    st.text(), st.lists(MACHINE_LINES, max_size=14).map("\n".join), near_miss_machine_text()
)


@given(PICTURE_TEXT)
@settings(max_examples=300)
def test_picture_stream_parses_or_raises_typed(text):
    try:
        pictures = g.parse_picture_stream(text, ("0", "1"))
    except (g.PictureFormatError, g.AlphabetError):
        return
    assert pictures and all(p.symbols() <= {"0", "1"} for p in pictures)


@given(MACHINE_TEXT)
@settings(max_examples=300)
def test_machine_parses_or_raises_typed(text):
    try:
        machine = g.parse_machine(text)
    except g.MachineParseError:
        return
    assert isinstance(machine, g.Automaton)
