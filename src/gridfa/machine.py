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

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

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


@dataclass(frozen=True)
class Automaton:
    """Immutable machine definition.

    ``transitions`` maps ``(state, symbol)`` to an ordered tuple of
    ``(next_state, direction)`` pairs.  Declaration order matters: the
    simulator uses it as the tie-break for canonical traces.  ``mode`` is
    ``"det"`` or ``"nondet"``; deterministic machines allow at most one
    pair per key.
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

    def transitions_from(self, state: str, symbol: str) -> tuple[Transition, ...]:
        return self.transitions.get((state, symbol), ())


def validate(a: Automaton) -> list[str]:
    """Report every violated well-formedness rule; empty list means clean.

    Checks: state bookkeeping (initial/accepting/endpoints declared),
    symbol bookkeeping, no transition out of the accepting state,
    determinism when declared, and the direction policy (every transition
    direction must be free or budgeted).
    """
    problems: list[str] = []
    declared = set(a.states)
    symbols = set(a.alphabet) | {"#"}
    if a.mode not in ("det", "nondet"):
        problems.append(f"unknown mode {a.mode!r}")
    if "#" in a.alphabet:
        problems.append("alphabet contains the reserved boundary marker '#'")
    if len(set(a.alphabet)) != len(a.alphabet):
        problems.append("alphabet declares a symbol twice")
    if len(declared) != len(a.states):
        problems.append("state list declares a state twice")
    if a.initial not in declared:
        problems.append(f"initial state {a.initial!r} not declared")
    if a.accepting not in declared:
        problems.append(f"accepting state {a.accepting!r} not declared")
    try:
        Budget.check(a.budget.up, "up")
        Budget.check(a.budget.left, "left")
    except MachineError as exc:
        problems.append(str(exc))
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
        seen = set()
        for target, direction in targets:
            if target not in declared:
                found.append(f"target state {target!r} not declared")
            if direction not in allowed:
                found.append(f"direction {direction.value} is forbidden by the policy")
            if (target, direction) in seen:
                found.append(f"duplicate edge to ({target!r}, {direction.value})")
            seen.add((target, direction))
        if found:
            where = f"transition ({state!r}, {symbol!r})"
            problems += [f"{where}: {problem}" for problem in found]
    return problems


#: Direction codes of the compiled tables, in the order U, D, L, R.
DIRECTION_CODES: dict[Direction, int] = {d: code for code, d in enumerate(DELTAS)}

#: Budget kinds of the compiled tables: which budget a move spends.
NO_BUDGET, UP_BUDGET, LEFT_BUDGET = 0, 1, 2

#: Per direction, its (direction code, budget kind) in the compiled tables.
_EDGE_CODES = {
    d: (code, UP_BUDGET if d is Direction.U else LEFT_BUDGET if d is Direction.L else NO_BUDGET)
    for d, code in DIRECTION_CODES.items()
}


class _Lazy(dict):
    """A dict that fills a missing key with ``build(key)`` on first use."""

    def __init__(self, build) -> None:
        self.build = build  # the dict itself starts empty

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _Compiled(NamedTuple):
    """A validated machine as integer tables.

    State ids follow declaration order, except that the accepting state
    takes the last id.  ``moves[state id]`` maps each symbol the state has
    transitions on (``#`` for the frame) to ``((target id, direction code,
    budget kind), ...)`` in declaration order.  It is filled in per state
    on first use, since a search over a small picture reaches few states.
    ``layers`` caches the simulator's per-budget tables, keyed by the
    resolved budget.
    """

    states: tuple[str, ...]
    ids: dict[str, int]
    initial: int
    moves: _Lazy
    layers: dict


def _compile(a: Automaton) -> _Compiled:
    """Validate ``a`` and compile it once; later calls return the cached form.

    Machines are immutable, so the compiled form stays valid; sweeps call
    into the simulator per picture and should not re-pay validation or
    compilation.  The cache lives on the machine itself and dies with it.
    """
    compiled = a.__dict__.get("_compiled")
    if compiled is not None:
        return compiled
    problems = validate(a)
    if problems:
        raise MachineInvalidError(
            f"machine {a.name!r} is not well-formed: " + "; ".join(problems)
        )
    states = tuple(s for s in a.states if s != a.accepting) + (a.accepting,)
    ids = {state: index for index, state in enumerate(states)}
    # The builder closes over these, not ``a``, so the cache holds no
    # reference cycle and dies with its machine by reference counting.
    transitions, symbols = a.transitions, a.alphabet + ("#",)

    def moves(state: int) -> dict[str, tuple[tuple[int, int, int], ...]]:
        out = {}
        for symbol in symbols:
            targets = transitions.get((states[state], symbol))
            if targets:
                out[symbol] = tuple([(ids[t], *_EDGE_CODES[d]) for t, d in targets])
        return out

    compiled = _Compiled(states, ids, ids[a.initial], _Lazy(moves), {})
    object.__setattr__(a, "_compiled", compiled)
    return compiled


def ensure_valid(a: Automaton) -> None:
    """Raise MachineInvalidError unless ``a`` is well-formed."""
    _compile(a)


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


def _relabel(
    table: Iterable[tuple[tuple[str, str], tuple[Transition, ...]]],
    rename,
) -> list[tuple[tuple[str, str], list[Transition]]]:
    out = []
    for (state, symbol), targets in table:
        out.append(
            (
                (rename(state), symbol),
                [(rename(t), d) for t, d in targets],
            )
        )
    return out


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
        return Automaton(
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

    def ren(prefix: str, machine: Automaton):
        def rename(state: str) -> str:
            return acc if state == machine.accepting else f"{prefix}:{state}"

        return rename

    ren_a, ren_b = ren("a", a), ren("b", b)
    states = [init]
    states += [ren_a(s) for s in a.states if s != a.accepting]
    states += [ren_b(s) for s in b.states if s != b.accepting]
    states.append(acc)
    transitions: dict[tuple[str, str], list[Transition]] = {}
    for key, targets in _relabel(a.transitions.items(), ren_a):
        transitions.setdefault(key, []).extend(targets)
    for key, targets in _relabel(b.transitions.items(), ren_b):
        transitions.setdefault(key, []).extend(targets)
    for symbol in a.alphabet + ("#",):
        merged = [
            (ren_a(t), d) for t, d in a.transitions_from(a.initial, symbol)
        ] + [
            (ren_b(t), d) for t, d in b.transitions_from(b.initial, symbol)
        ]
        if merged:
            # Both accepting states become ``acc``, so the halves can share an edge.
            transitions[(init, symbol)] = list(dict.fromkeys(merged))
    return Automaton(
        name,
        a.alphabet,
        tuple(states),
        init,
        acc,
        "nondet",
        policy,
        budget,
        {k: tuple(v) for k, v in transitions.items()},
    )


def _toggle_suffix(name: str, suffix: str) -> str:
    return name[: -len(suffix)] if name.endswith(suffix) else name + suffix


def transpose_machine(a: Automaton) -> Automaton:
    """Machine accepting exactly the transposes of ``a``'s words.

    Reflecting a picture about its diagonal swaps the roles of rows and
    columns, so the machine transforms by swapping D with R and U with L
    everywhere, including the budgets.  The start corner (1,1) is a fixed
    point of the reflection, so no start correction is needed and applying
    the operation twice restores the original machine.
    """
    ensure_valid(a)
    swap = TRANSPOSE_MAP
    policy = DirectionPolicy(
        frozenset(swap[d] for d in a.policy.free),
        frozenset(swap[d] for d in a.policy.budgeted),
    )
    transitions = {
        key: tuple((t, swap[d]) for t, d in targets)
        for key, targets in a.transitions.items()
    }
    return Automaton(
        _toggle_suffix(a.name, "_T"),
        a.alphabet,
        a.states,
        a.initial,
        a.accepting,
        a.mode,
        policy,
        Budget(up=a.budget.left, left=a.budget.up),
        transitions,
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
    rot = ROTATE_CW_MAP
    budgeted = frozenset(rot[d] for d in a.policy.budgeted)
    if not budgeted <= {Direction.U, Direction.L}:
        bad = ", ".join(sorted(d.value for d in budgeted - {Direction.U, Direction.L}))
        raise RotationError(
            f"rotating {a.name!r} would budget direction(s) {bad}; "
            "only U and L budgets exist"
        )
    free = frozenset(rot[d] for d in a.policy.free) | {Direction.L, Direction.R}
    policy = DirectionPolicy(free - budgeted, budgeted)
    seek = "rot_seek"
    while seek in a.states:
        seek += "_"
    transitions: dict[tuple[str, str], tuple[Transition, ...]] = {
        key: tuple((t, rot[d]) for t, d in targets)
        for key, targets in a.transitions.items()
    }
    for symbol in a.alphabet:
        transitions[(seek, symbol)] = ((seek, Direction.R),)
    transitions[(seek, "#")] = ((a.initial, Direction.L),)
    return Automaton(
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
    order = [Direction.U, Direction.D, Direction.L, Direction.R]
    return " ".join(d.value for d in order if d in dirs)


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


def _parse_budget_token(token: str, line_no: int) -> int | float:
    if token == "inf":
        return INF
    try:
        value = int(token)
    except ValueError:
        raise MachineParseError(f"line {line_no}: budget must be an integer or 'inf'")
    if value < 0:
        raise MachineParseError(f"line {line_no}: budget must be nonnegative")
    return value


def _parse_dirs(tokens: list[str], line_no: int) -> frozenset[Direction]:
    dirs = set()
    for token in tokens:
        try:
            dirs.add(Direction(token))
        except ValueError:
            raise MachineParseError(f"line {line_no}: unknown direction {token!r}")
    return frozenset(dirs)


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
    fields: dict[str, object] = {}
    budget_up: int | float | None = None
    budget_left: int | float | None = None
    trans: dict[tuple[str, str], list[Transition]] = {}
    trans_lines: list[tuple[int, list[str]]] = []

    def set_once(key: str, value: object, line_no: int) -> None:
        if key in fields:
            raise MachineParseError(f"line {line_no}: duplicate {key!r} directive")
        fields[key] = value

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == "machine":
            if len(tokens) != 2:
                raise MachineParseError(f"line {line_no}: machine takes one name")
            set_once("name", tokens[1], line_no)
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
        elif directive == "initial":
            if len(tokens) != 2:
                raise MachineParseError(f"line {line_no}: initial takes one state")
            set_once("initial", tokens[1], line_no)
        elif directive == "accept":
            if len(tokens) != 2:
                raise MachineParseError(
                    f"line {line_no}: exactly one accepting state is required"
                )
            set_once("accepting", tokens[1], line_no)
        elif directive == "mode":
            if len(tokens) != 2 or tokens[1] not in ("det", "nondet"):
                raise MachineParseError(f"line {line_no}: mode is 'det' or 'nondet'")
            set_once("mode", tokens[1], line_no)
        elif directive == "free":
            set_once("free", _parse_dirs(tokens[1:], line_no), line_no)
        elif directive == "budgeted":
            set_once("budgeted", _parse_dirs(tokens[1:], line_no), line_no)
        elif directive == "budget":
            if len(tokens) != 3 or tokens[1] not in ("up", "left"):
                raise MachineParseError(
                    f"line {line_no}: expected 'budget up|left <n|inf>'"
                )
            value = _parse_budget_token(tokens[2], line_no)
            if tokens[1] == "up":
                if budget_up is not None:
                    raise MachineParseError(f"line {line_no}: duplicate up budget")
                budget_up = value
            else:
                if budget_left is not None:
                    raise MachineParseError(f"line {line_no}: duplicate left budget")
                budget_left = value
        elif directive == "trans":
            if len(tokens) != 6 or tokens[3] != "->":
                raise MachineParseError(
                    f"line {line_no}: expected 'trans <state> <sym> -> <state> <dir>'"
                )
            trans_lines.append((line_no, tokens))
        else:
            raise MachineParseError(f"line {line_no}: unknown directive {directive!r}")

    for key in ("name", "alphabet", "states", "initial", "accepting", "mode"):
        if key not in fields:
            raise MachineParseError(f"missing {key!r} directive")
    name = fields["name"]
    alphabet: tuple[str, ...] = fields["alphabet"]  # type: ignore[assignment]
    states: tuple[str, ...] = fields["states"]  # type: ignore[assignment]
    mode = fields["mode"]
    free: frozenset[Direction] = fields.get("free", frozenset())  # type: ignore[assignment]
    budgeted: frozenset[Direction] = fields.get("budgeted", frozenset())  # type: ignore[assignment]
    try:
        policy = DirectionPolicy(free, budgeted)
    except MachineError as exc:
        raise MachineParseError(f"bad direction policy: {exc}")
    if budget_up is None:
        budget_up = INF if Direction.U in policy.free else 0
    if budget_left is None:
        budget_left = INF if Direction.L in policy.free else 0

    declared_states = set(states)
    declared_symbols = set(alphabet) | {"#"}
    for line_no, tokens in trans_lines:
        _, source, symbol, _, target, dir_token = tokens
        if source not in declared_states:
            raise MachineParseError(f"line {line_no}: undeclared state {source!r}")
        if target not in declared_states:
            raise MachineParseError(f"line {line_no}: undeclared state {target!r}")
        if symbol not in declared_symbols:
            raise MachineParseError(f"line {line_no}: undeclared symbol {symbol!r}")
        try:
            direction = Direction(dir_token)
        except ValueError:
            raise MachineParseError(f"line {line_no}: unknown direction {dir_token!r}")
        key = (source, symbol)
        if mode == "det" and trans.get(key):
            raise MachineParseError(
                f"line {line_no}: second transition on {key!r} in a deterministic machine"
            )
        trans.setdefault(key, []).append((target, direction))

    return Automaton(
        name,  # type: ignore[arg-type]
        alphabet,
        states,
        fields["initial"],  # type: ignore[arg-type]
        fields["accepting"],  # type: ignore[arg-type]
        mode,  # type: ignore[arg-type]
        policy,
        Budget(budget_up, budget_left),
        {k: tuple(v) for k, v in trans.items()},
    )
