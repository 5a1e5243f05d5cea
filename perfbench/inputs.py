"""Seeded input generators.

Everything here is plain text or plain Python data made from a
``random.Random``; gridfa only ever sees the results (picture text,
machine text, call parameters).  The same seed gives the same inputs.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

# Direction policies by the names gridfa exports, as (free, budgeted).
POLICIES = {
    "FOUR_WAY": ("UDLR", ""),
    "THREE_WAY": ("DLR", "U"),
    "THREE_WAY_NO_UP": ("DLR", ""),
    "THREE_WAY_ROTATED": ("UDR", "L"),
    "TWO_WAY": ("DR", "UL"),
}

INF_TEXT = "inf"


def strata(rng: random.Random, n: int) -> list[float]:
    """``n`` points in [0, 1), one per equal-width stratum, in random order.

    Stratified draws keep the total work of a generated set nearly the
    same from seed to seed, so run-to-run spread measures the program and
    not the luck of the draw.
    """
    points = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(points)
    return points


def log_uniform(u: float, lo: int, hi: int) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


# ---------------------------------------------------------------- pictures


def planted_rows(
    rng: random.Random,
    cols: int,
    pairs: int,
    plant: int,
    density: float,
    member: bool,
) -> list[str]:
    """Rows of a ``2*pairs`` x ``cols`` picture with planted stacked columns.

    Each row pair gets ``plant`` columns holding 1 in both rows.  The
    background puts a single 1 (upper or lower row, never both) in a
    column with probability ``density``, so the planted columns are the
    only stacked ones.  A near miss (``member=False``) flips one planted
    cell of one pair back to 0.
    """
    rows: list[str] = []
    for pair in range(pairs):
        top = ["0"] * cols
        bottom = ["0"] * cols
        if density > 0:
            for c in range(cols):
                if rng.random() < density:
                    (top if rng.random() < 0.5 else bottom)[c] = "1"
        planted = rng.sample(range(cols), plant)
        for c in planted:
            top[c] = bottom[c] = "1"
        if not member and pair == pairs - 1:
            c = rng.choice(planted)
            (top if rng.random() < 0.5 else bottom)[c] = "0"
        rows += ["".join(top), "".join(bottom)]
    return rows


def stream_text(pictures: list[list[str]]) -> str:
    """Picture-stream text: pictures separated by ``--`` lines."""
    return "\n--\n".join("\n".join(rows) for rows in pictures) + "\n"


def random_rows(rng: random.Random, rows: int, cols: int) -> list[str]:
    return ["".join(rng.choice("01") for _ in range(cols)) for _ in range(rows)]


# ---------------------------------------------------------------- machines


class MachineSpec(NamedTuple):
    """A generated machine: its file text plus what the generator knows
    about it independently of gridfa (its expected class tag and whether
    rotation must be refused)."""

    text: str
    family: str
    up: float
    left: float
    mode: str
    rotation_refused: bool


def _budget_token(rng: random.Random) -> str:
    return rng.choice(["0", "1", "2", INF_TEXT])


def random_machine(rng: random.Random, name: str, states_range=(3, 8)) -> MachineSpec:
    """Random well-formed machine over {0, 1} in the gridfa file format.

    3-8 states (the last accepting), up to 4*|Q| edges, one of the five
    policies, budgets 0-2 or inf on budgeted directions; about a third
    are deterministic (at most one edge per key).
    """
    n = rng.randint(*states_range)
    states = [f"s{i}" for i in range(n)]
    policy = rng.choice(sorted(POLICIES))
    free, budgeted = POLICIES[policy]
    allowed = sorted(free + budgeted)
    up = INF_TEXT if "U" in free else (_budget_token(rng) if "U" in budgeted else "0")
    left = INF_TEXT if "L" in free else (_budget_token(rng) if "L" in budgeted else "0")
    mode = "det" if rng.random() < 1 / 3 else "nondet"
    table: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for _ in range(rng.randint(n, 4 * n)):
        key = (rng.choice(states[:-1]), rng.choice("01#"))
        edge = (rng.choice(states), rng.choice(allowed))
        edges = table.setdefault(key, [])
        if edge in edges or (mode == "det" and edges):
            continue
        edges.append(edge)
    lines = [
        f"machine {name}",
        "# generated",
        "alphabet 0 1",
        "states " + " ".join(states),
        f"initial {states[0]}",
        f"accept {states[-1]}",
        f"mode {mode}",
        ("free " + " ".join(free)).rstrip(),
        ("budgeted " + " ".join(budgeted)).rstrip(),
        f"budget up {up}",
        f"budget left {left}",
    ]
    keys = list(table)
    rng.shuffle(keys)
    for source, symbol in keys:
        for target, direction in table[(source, symbol)]:
            lines.append(f"trans {source} {symbol} -> {target} {direction}")
    if "U" in free and "L" in free:
        family = "4W"
    elif "L" in free:
        family = "3W"
    elif "U" in free:
        family = "3W-rot"
    else:
        family = "2W"

    def value(token: str) -> float:
        return math.inf if token == INF_TEXT else int(token)

    return MachineSpec(
        "\n".join(lines) + "\n",
        family,
        value(up),
        value(left),
        mode,
        "U" in budgeted,
    )
