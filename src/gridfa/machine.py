"""Finite-control machines that walk pictures under a direction policy.

An :class:`Automaton` has a single initial and a single accepting state,
and a partial transition table over cell symbols plus the boundary marker
``#``.  Every transition moves the head one cell in one of the four
directions U, D, L, R.  A :class:`DirectionPolicy` splits the directions
into *free* moves (unconstrained), *budgeted* moves (each one consumes a
unit of the machine's :class:`Budget`), and forbidden moves.  Only U and L
are ever budgeted; D and R are either free or forbidden.

The machine value is immutable once built; the simulator layers run-time
state (head position, remaining budget) on top of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, NamedTuple

INF = float("inf")


class Direction(str, Enum):
    U = "U"
    D = "D"
    L = "L"
    R = "R"

    def __repr__(self) -> str:  # terse in trace dumps and test diffs
        return self.value


#: Row/column deltas in frame coordinates (row grows downward).
DELTAS: dict[Direction, tuple[int, int]] = {
    Direction.U: (-1, 0),
    Direction.D: (1, 0),
    Direction.L: (0, -1),
    Direction.R: (0, 1),
}

#: Direction swap induced by reflecting pictures about the main diagonal.
TRANSPOSE_MAP: dict[Direction, Direction] = {
    Direction.U: Direction.L,
    Direction.L: Direction.U,
    Direction.D: Direction.R,
    Direction.R: Direction.D,
}

#: Direction map induced by rotating pictures a quarter turn clockwise:
#: a machine move in the original picture corresponds to this move in the
#: rotated picture.
ROTATE_CW_MAP: dict[Direction, Direction] = {
    Direction.U: Direction.R,
    Direction.R: Direction.D,
    Direction.D: Direction.L,
    Direction.L: Direction.U,
}


class MachineError(ValueError):
    """Base class for machine-construction problems."""


class MachineInvalidError(MachineError):
    """An operation requires a well-formed machine and validation failed."""


class CompositionError(MachineError):
    """Two machines cannot be combined (e.g. alphabets differ)."""


class RotationError(MachineError):
    """Rotating the machine would need a budget on D or R, which no class has."""


class MachineParseError(MachineError):
    """Malformed machine file; message carries the offending line number."""


class Budget(NamedTuple):
    """Upper bounds on budgeted moves; ``INF`` means unbounded."""

    up: int | float
    left: int | float

    @staticmethod
    def check(value: int | float, label: str) -> int | float:
        if value == INF:
            return INF
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise MachineError(f"{label} budget must be a nonnegative integer or INF")
        return value


def fmt_budget(value: int | float) -> str:
    return "inf" if value == INF else str(value)


@dataclass(frozen=True)
class DirectionPolicy:
    """Partition of the four directions into free / budgeted / forbidden.

    ``free`` and ``budgeted`` must be disjoint, and only U and L may be
    budgeted; whatever is in neither set is forbidden.
    """

    free: frozenset[Direction]
    budgeted: frozenset[Direction] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "free", frozenset(self.free))
        object.__setattr__(self, "budgeted", frozenset(self.budgeted))
        if self.free & self.budgeted:
            raise MachineError("free and budgeted direction sets overlap")
        if not self.budgeted <= {Direction.U, Direction.L}:
            raise MachineError("only U and L moves can carry a budget")

    @property
    def forbidden(self) -> frozenset[Direction]:
        return frozenset(Direction) - self.free - self.budgeted

    @property
    def allowed(self) -> frozenset[Direction]:
        return self.free | self.budgeted


FOUR_WAY = DirectionPolicy(frozenset(Direction))
THREE_WAY = DirectionPolicy(
    frozenset({Direction.D, Direction.L, Direction.R}), frozenset({Direction.U})
)
THREE_WAY_NO_UP = DirectionPolicy(frozenset({Direction.D, Direction.L, Direction.R}))
THREE_WAY_ROTATED = DirectionPolicy(
    frozenset({Direction.U, Direction.D, Direction.R}), frozenset({Direction.L})
)
TWO_WAY = DirectionPolicy(
    frozenset({Direction.D, Direction.R}),
    frozenset({Direction.U, Direction.L}),
)

Transition = tuple[str, Direction]
TransitionTable = dict[tuple[str, str], tuple[Transition, ...]]


class _ReadOnlyTable(dict):
    """A transition table that refuses changes (TypeError).  It is still a
    dict, so reads cost what a dict's do, and it pickles and copies as one
    (``__reduce__``), which a ``types.MappingProxyType`` would not."""

    def _refuse(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("a machine's transition table is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self) -> tuple[type, tuple[dict]]:
        return type(self), (dict(self),)


@dataclass(frozen=True)
class Automaton:
    """Immutable machine definition.

    ``transitions`` maps ``(state, symbol)`` to an ordered tuple of
    ``(next_state, direction)`` pairs.  Declaration order matters: the
    simulator uses it as the tie-break for canonical traces.  ``mode`` is
    ``"det"`` or ``"nondet"``; deterministic machines allow at most one
    pair per key.  The machine keeps a read-only copy of the table it is
    given, so that what it caches on itself (the validity record and the
    simulator's compiled tables) cannot go stale.
    """

    name: str
    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    accepting: str
    mode: str
    policy: DirectionPolicy
    budget: Budget
    transitions: TransitionTable = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.__dict__.update(alphabet=tuple(self.alphabet), states=tuple(self.states))
        object.__setattr__(self, "transitions", _ReadOnlyTable(self.transitions))

    def transitions_from(self, state: str, symbol: str) -> tuple[Transition, ...]:
        return self.transitions.get((state, symbol), ())


def validate(a: Automaton) -> list[str]:
    """Report every violated well-formedness rule; empty list means clean.

    Checks: names (the machine's and each state's nonempty, without
    whitespace) and symbols (one character, not whitespace), which the
    machine file format must carry; state bookkeeping (initial/accepting/
    endpoints declared); no transition out of the accepting state;
    determinism when declared; and the direction policy (every transition
    direction free or budgeted, and a free direction's budget ``INF``, so
    that ``classify`` reads the budget the simulator enforces).
    """
    problems: list[str] = []
    # Only str names and symbols are hashed, so that one of another type (a
    # list, say) is listed as a problem below instead of raising here.
    named = [state for state in a.states if isinstance(state, str)]
    letters = [symbol for symbol in a.alphabet if isinstance(symbol, str)]
    declared, symbols = set(named), {*letters, "#"}
    if a.mode not in ("det", "nondet"):
        problems.append(f"unknown mode {a.mode!r}")
    if "#" in a.alphabet:
        problems.append("alphabet contains the reserved boundary marker '#'")
    if len(set(letters)) != len(letters):
        problems.append("alphabet declares a symbol twice")
    for symbol in a.alphabet:
        if not isinstance(symbol, str) or len(symbol) != 1:
            problems.append(f"alphabet symbol {symbol!r} is not a single character")
        elif symbol.isspace():
            problems.append(f"alphabet symbol {symbol!r} is whitespace")
    names = [a.name, *a.states]  # machine files split their lines at whitespace
    if " ".join(map(str, names)).split() != names:
        bad = [name for name in names if not isinstance(name, str) or name.split() != [name]]
        problems.append(f"machine or state names empty or holding whitespace: {bad!r}")
    if len(declared) != len(named):
        problems.append("state list declares a state twice")
    if a.initial not in a.states:  # compared, not hashed, as targets are below
        problems.append(f"initial state {a.initial!r} not declared")
    if a.accepting not in a.states:
        problems.append(f"accepting state {a.accepting!r} not declared")
    try:
        Budget.check(a.budget.up, "up")
        Budget.check(a.budget.left, "left")
    except MachineError as exc:
        problems.append(str(exc))
    for direction, value in ((Direction.U, a.budget.up), (Direction.L, a.budget.left)):
        if direction in a.policy.free and value != INF:
            problems.append(f"free direction {direction.value} has budget {fmt_budget(value)}")
    allowed = a.policy.allowed
    for (state, symbol), targets in a.transitions.items():
        found = []  # prefixed with the key below, only when there is a problem
        if state not in declared:
            found.append("source state not declared")
        if symbol not in symbols:
            found.append("symbol not in alphabet or '#'")
        if state == a.accepting and targets:
            found.append("accepting state must have no outgoing transitions")
        if a.mode == "det" and len(targets) > 1:
            found.append(f"{len(targets)} targets in deterministic mode")
        seen = []  # compared, not hashed: an edge may hold a list
        for target, direction in targets:
            if target not in a.states:
                found.append(f"target state {target!r} not declared")
            if not isinstance(direction, Direction):
                found.append(f"direction {direction!r} is not a Direction")
            elif direction not in allowed:
                found.append(f"direction {direction!r} is forbidden by the policy")
            if (target, direction) in seen:
                found.append(f"duplicate edge to ({target!r}, {direction!r})")
            seen.append((target, direction))
        if found:
            where = f"transition ({state!r}, {symbol!r})"
            problems += [f"{where}: {problem}" for problem in found]
    if not problems:  # recorded, so that ensure_valid does not check again
        object.__setattr__(a, "_valid", True)
    return problems


def ensure_valid(a: Automaton) -> None:
    """Raise MachineInvalidError unless ``a`` is well-formed.

    Machines are immutable, so ``validate`` records a passing check on the
    machine itself (it dies with it) and later calls are one lookup: sweeps
    call into the simulator per picture and should not re-pay validation.
    ``transpose_machine``, ``rotate_machine`` and ``union_machine`` check
    their inputs and set the same record on what they build, which is
    valid whenever they are.
    """
    if "_valid" in a.__dict__:
        return
    problems = validate(a)
    if problems:
        raise MachineInvalidError(
            f"machine {a.name!r} is not well-formed: " + "; ".join(problems)
        )


class ClassTag(NamedTuple):
    """Machine class: direction family plus declared budgets plus mode."""

    family: str  # "4W" | "3W" | "3W-rot" | "2W"
    up: int | float
    left: int | float
    mode: str

    def __str__(self) -> str:
        if self.family == "4W":
            core = "4W"
        elif self.family == "3W":
            core = f"3W[{fmt_budget(self.up)}]"
        elif self.family == "3W-rot":
            core = f"3W-rot[{fmt_budget(self.left)}]"
        else:
            core = f"2W[{fmt_budget(self.up)},{fmt_budget(self.left)}]"
        return f"{core} {self.mode}"


def classify(a: Automaton) -> ClassTag:
    """Minimal class tag for a machine, read off its declared policy.

    The family follows which of U/L the policy leaves free; a budgeted
    direction contributes its declared budget and a forbidden one
    contributes 0, so a machine with up-budget 0 and no U transitions tags
    identically to one whose policy forbids U outright.
    """
    ensure_valid(a)
    u_free = Direction.U in a.policy.free
    l_free = Direction.L in a.policy.free
    up = INF if u_free else (a.budget.up if Direction.U in a.policy.budgeted else 0)
    left = INF if l_free else (a.budget.left if Direction.L in a.policy.budgeted else 0)
    if u_free and l_free:
        family = "4W"
    elif l_free:
        family = "3W"
    elif u_free:
        family = "3W-rot"
    else:
        family = "2W"
    return ClassTag(family, up, left, a.mode)


def _map_table(table: TransitionTable, directions: dict[Direction, Direction]) -> TransitionTable:
    """``table`` with every move's direction sent through ``directions``,
    for transpose and rotate.  Keys and each key's edges keep their order,
    the tie-break of canonical traces."""
    return {key: tuple((t, directions[d]) for t, d in edges) for key, edges in table.items()}


def _map_policy(
    policy: DirectionPolicy, directions: dict[Direction, Direction]
) -> tuple[frozenset[Direction], frozenset[Direction]]:
    """The free and the budgeted directions of ``policy`` sent through
    ``directions``.  The caller builds the DirectionPolicy from them, so
    that it can first refuse a budget no policy carries."""
    return (
        frozenset(directions[d] for d in policy.free),
        frozenset(directions[d] for d in policy.budgeted),
    )


def union_machine(a: Automaton, b: Automaton) -> Automaton:
    """Nondeterministic machine accepting ``L(a) | L(b)``.

    A fresh initial state copies both initial states' outgoing transitions
    (the model has no epsilon moves, so the choice of branch happens on
    the first real move), and both accepting states are merged into one
    fresh accepting state by redirecting every edge that entered them.
    Policies join by union and budgets componentwise by maximum.  Each
    branch then runs under the joined budget, so the language equation
    holds only if no branch gains budget it did not declare:
    CompositionError is raised when a branch has a U (resp. L) transition
    and its own budget in that direction differs from the joined one.
    """
    ensure_valid(a)
    ensure_valid(b)
    if a.alphabet != b.alphabet:
        raise CompositionError(
            f"alphabet mismatch: {a.alphabet!r} vs {b.alphabet!r}"
        )
    name = f"{a.name}+{b.name}"
    policy = DirectionPolicy(
        a.policy.free | b.policy.free,
        (a.policy.budgeted | b.policy.budgeted) - (a.policy.free | b.policy.free),
    )
    budget = Budget(max(a.budget.up, b.budget.up), max(a.budget.left, b.budget.left))
    # A machine whose initial state already accepts recognizes everything,
    # and so does any union containing it.
    if a.initial == a.accepting or b.initial == b.accepting:
        return _derived(
            name, a.alphabet, ("all",), "all", "all", "nondet", policy, budget, {}
        )
    for machine in (a, b):
        used = {d for targets in machine.transitions.values() for _, d in targets}
        for direction, own, joined in (
            (Direction.U, machine.budget.up, budget.up),
            (Direction.L, machine.budget.left, budget.left),
        ):
            if direction in used and own != joined:
                raise CompositionError(
                    f"{machine.name!r} moves {direction.value} under budget "
                    f"{fmt_budget(own)}; its branch of the union would run under "
                    f"{fmt_budget(joined)}"
                )
    init, acc = "init", "accept"
    states = [init]
    starts = []
    transitions: TransitionTable = {}
    for prefix, machine in (("a", a), ("b", b)):
        rename = {state: f"{prefix}:{state}" for state in machine.states}
        rename[machine.accepting] = acc
        states += [rename[s] for s in machine.states if s != machine.accepting]
        starts.append(rename[machine.initial])
        # The prefixes keep the two halves' keys apart; keys and each key's
        # edges keep their order, the tie-break of canonical traces.
        transitions.update(
            ((rename[state], symbol), tuple((rename[t], d) for t, d in edges))
            for (state, symbol), edges in machine.transitions.items()
        )
    states.append(acc)
    for symbol in a.alphabet + ("#",):
        # Both accepting states become ``acc``, so the halves can share an edge.
        merged = dict.fromkeys(e for s in starts for e in transitions.get((s, symbol), ()))
        if merged:
            transitions[(init, symbol)] = tuple(merged)
    return _derived(
        name,
        a.alphabet,
        states,
        init,
        acc,
        "nondet",
        policy,
        budget,
        transitions,
    )


def _toggle_suffix(name: str, suffix: str) -> str:
    """``name`` with one ``suffix`` taken off or put on.  The suffix comes
    off ``name`` k times while more than the suffix is left; an odd k takes
    one off, an even k puts one on.  So ``x`` and ``x_T`` pair up, as do
    ``x_T_T`` and ``x_T_T_T``, and ``_T`` and ``_T_T``: toggling twice
    gives the name back, and no name is emptied."""
    base = name
    while base.endswith(suffix) and len(base) > len(suffix):
        base = base[: -len(suffix)]
    if (len(name) - len(base)) // len(suffix) % 2:
        return name[: -len(suffix)]
    return name + suffix


def _derived(*fields: Any) -> Automaton:
    """The machine of these fields, which an operation built from valid
    machines and which is valid because they are.  It carries the record a
    passing ``validate`` leaves, so its first search does not check it
    again."""
    a = Automaton(*fields)
    object.__setattr__(a, "_valid", True)
    return a


def transpose_machine(a: Automaton) -> Automaton:
    """Machine accepting exactly the transposes of ``a``'s words.

    Reflecting a picture about its diagonal swaps the roles of rows and
    columns, so the machine transforms by swapping D with R and U with L
    everywhere, including the budgets.  The start corner (1,1) is a fixed
    point of the reflection, so no start correction is needed and applying
    the operation twice restores the original machine.
    """
    ensure_valid(a)
    return _derived(
        _toggle_suffix(a.name, "_T"),
        a.alphabet,
        a.states,
        a.initial,
        a.accepting,
        a.mode,
        DirectionPolicy(*_map_policy(a.policy, TRANSPOSE_MAP)),
        Budget(up=a.budget.left, left=a.budget.up),
        _map_table(a.transitions, TRANSPOSE_MAP),
    )


def rotate_machine(a: Automaton) -> Automaton:
    """Machine accepting exactly the clockwise quarter-turns of ``a``'s words.

    Directions remap under the rotation (U->R, R->D, D->L, L->U) and an L
    budget becomes a U budget.  A U budget would have to become an R
    budget, which no machine class supports, so rotation is partial: it
    exists to carry machines whose policy frees U (the {U,D,R} family and
    full four-way machines) into the {D,L,R} family.

    Rotating moves the original start corner to the top-right of the
    rotated picture, so the result gets one extra state that first walks
    the head right along the top row to that corner before starting the
    simulation proper; the walk uses only moves that are free in the
    rotated policy.
    """
    ensure_valid(a)
    free, budgeted = _map_policy(a.policy, ROTATE_CW_MAP)
    if not budgeted <= {Direction.U, Direction.L}:
        bad = ", ".join(sorted(d.value for d in budgeted - {Direction.U, Direction.L}))
        raise RotationError(
            f"rotating {a.name!r} would budget direction(s) {bad}; "
            "only U and L budgets exist"
        )
    policy = DirectionPolicy((free | {Direction.L, Direction.R}) - budgeted, budgeted)
    seek = "rot_seek"
    while seek in a.states:
        seek += "_"
    transitions = _map_table(a.transitions, ROTATE_CW_MAP)
    for symbol in a.alphabet:
        transitions[(seek, symbol)] = ((seek, Direction.R),)
    transitions[(seek, "#")] = ((a.initial, Direction.L),)
    return _derived(
        a.name + "_rot",
        a.alphabet,
        (seek,) + a.states,
        seek,
        a.accepting,
        a.mode,
        policy,
        Budget(up=a.budget.left, left=INF),
        transitions,
    )


def _dirs_text(dirs: frozenset[Direction]) -> str:
    return " ".join(d.value for d in Direction if d in dirs)


def serialize_machine(a: Automaton) -> str:
    """Render the line-oriented machine file format; see parse_machine."""
    lines = [
        f"machine {a.name}",
        "alphabet " + " ".join(a.alphabet),
        "states " + " ".join(a.states),
        f"initial {a.initial}",
        f"accept {a.accepting}",
        f"mode {a.mode}",
        ("free " + _dirs_text(a.policy.free)).rstrip(),
        ("budgeted " + _dirs_text(a.policy.budgeted)).rstrip(),
        f"budget up {fmt_budget(a.budget.up)}",
        f"budget left {fmt_budget(a.budget.left)}",
    ]
    for state in a.states:
        for symbol in a.alphabet + ("#",):
            for target, direction in a.transitions_from(state, symbol):
                lines.append(f"trans {state} {symbol} -> {target} {direction.value}")
    return "\n".join(lines) + "\n"


#: The one token of each finite budget.
_NATURAL = re.compile("0|[1-9][0-9]*")


def parse_budget(token: str) -> int | float:
    """A budget as machine files and the CLI write it: ``inf`` or a
    nonnegative integer in ASCII digits without sign, separator or leading
    zero, so that each budget has exactly one token.  Raises ValueError
    otherwise."""
    if token == "inf":
        return INF
    if _NATURAL.fullmatch(token) is None:
        if token[:1] == "-" and _NATURAL.fullmatch(token[1:]) is not None:
            raise ValueError("budget must be nonnegative")
        raise ValueError("budget must be an integer or 'inf'")
    return int(token)


#: Each direction by its token (a plain dict: cheaper than Direction(token)).
_DIRECTIONS: dict[str, Direction] = {d.value: d for d in Direction}


def _parse_direction(token: str, line_no: int) -> Direction:
    direction = _DIRECTIONS.get(token)
    if direction is None:
        raise MachineParseError(f"line {line_no}: unknown direction {token!r}")
    return direction


#: The one-value directives: the field each sets and its usage error.
_ONE_VALUE: dict[str, tuple[str, str]] = {
    "machine": ("name", "machine takes one name"),
    "initial": ("initial", "initial takes one state"),
    "accept": ("accepting", "exactly one accepting state is required"),
    "mode": ("mode", "mode is 'det' or 'nondet'"),
}


def parse_machine(text: str) -> Automaton:
    """Parse the machine file format.

    Directives, one per line: ``machine`` ``alphabet`` ``states``
    ``initial`` ``accept`` ``mode`` ``free`` ``budgeted``
    ``budget up|left <n|inf>`` and repeated ``trans <state> <sym> ->
    <state> <dir>`` lines.  ``#`` at the start of a line is a comment; as
    the third token of a ``trans`` line it is the boundary symbol.  A
    deterministic machine declaring two transitions on one key is a parse
    error, as is more than one accepting state.
    """
    fields: dict[str, Any] = {}
    budgets: dict[str, int | float] = {}
    trans: dict[tuple[str, str], list[Transition]] = {}
    trans_lines: list[tuple[int, list[str]]] = []

    def set_once(key: str, value: Any, line_no: int) -> None:
        if key in fields:
            raise MachineParseError(f"line {line_no}: duplicate {key!r} directive")
        fields[key] = value

    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        directive = tokens[0]
        if directive == "trans":  # the most common line first
            if len(tokens) != 6 or tokens[3] != "->":
                raise MachineParseError(
                    f"line {line_no}: expected 'trans <state> <sym> -> <state> <dir>'"
                )
            trans_lines.append((line_no, tokens))
        elif directive in _ONE_VALUE:
            key, usage = _ONE_VALUE[directive]
            if len(tokens) != 2 or (key == "mode" and tokens[1] not in ("det", "nondet")):
                raise MachineParseError(f"line {line_no}: {usage}")
            set_once(key, tokens[1], line_no)
        elif directive == "alphabet":
            for sym in tokens[1:]:
                if len(sym) != 1:
                    raise MachineParseError(
                        f"line {line_no}: symbols are single characters, got {sym!r}"
                    )
                if sym == "#":
                    raise MachineParseError(f"line {line_no}: '#' is reserved")
            set_once("alphabet", tuple(tokens[1:]), line_no)
        elif directive == "states":
            set_once("states", tuple(tokens[1:]), line_no)
        elif directive in ("free", "budgeted"):
            dirs = frozenset(_parse_direction(token, line_no) for token in tokens[1:])
            set_once(directive, dirs, line_no)
        elif directive == "budget":
            if len(tokens) != 3 or tokens[1] not in ("up", "left"):
                raise MachineParseError(
                    f"line {line_no}: expected 'budget up|left <n|inf>'"
                )
            try:
                value = parse_budget(tokens[2])
            except ValueError as exc:
                raise MachineParseError(f"line {line_no}: {exc}")
            if tokens[1] in budgets:
                raise MachineParseError(f"line {line_no}: duplicate {tokens[1]} budget")
            budgets[tokens[1]] = value
        else:
            raise MachineParseError(f"line {line_no}: unknown directive {directive!r}")

    required = ("name", "alphabet", "states", "initial", "accepting", "mode")
    for key in required:
        if key not in fields:
            raise MachineParseError(f"missing {key!r} directive")
    name, alphabet, states, initial, accepting, mode = [fields[key] for key in required]
    try:
        policy = DirectionPolicy(fields.get("free", ()), fields.get("budgeted", ()))
    except MachineError as exc:
        raise MachineParseError(f"bad direction policy: {exc}")
    budget = Budget(
        budgets.get("up", INF if Direction.U in policy.free else 0),
        budgets.get("left", INF if Direction.L in policy.free else 0),
    )

    declared_states = set(states)
    declared_symbols = set(alphabet) | {"#"}
    for line_no, tokens in trans_lines:
        _, source, symbol, _, target, dir_token = tokens
        for state in (source, target):
            if state not in declared_states:
                raise MachineParseError(f"line {line_no}: undeclared state {state!r}")
        if symbol not in declared_symbols:
            raise MachineParseError(f"line {line_no}: undeclared symbol {symbol!r}")
        direction = _parse_direction(dir_token, line_no)
        key = (source, symbol)
        if mode == "det" and trans.get(key):
            raise MachineParseError(
                f"line {line_no}: second transition on {key!r} in a deterministic machine"
            )
        trans.setdefault(key, []).append((target, direction))

    return Automaton(
        name,
        alphabet,
        states,
        initial,
        accepting,
        mode,
        policy,
        budget,
        {k: tuple(v) for k, v in trans.items()},
    )
