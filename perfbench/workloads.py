"""The three workloads: seeded inputs turned into ops.

Each setup returns ``(ops, warm_up, next_pass)``: the ops of one pass, a
call that warms up before timing, and ``None`` when every pass repeats
the same ops, or a function of the pass index that makes that pass's
ops, doing the same work on fresh inputs.

An op is one unit the timed loop runs: ``run(lib)`` makes the calls into
gridfa (``lib`` is the ``gridfa`` module, or a tracing stand-in for it),
``check(result)`` compares the result with an independent reference
without calling through ``lib``, ``weight`` is how many ops the
workload's definition counts it as, and ``extras(result, ctx)`` is extra
traced work over the op's inputs that only the traced run does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
from checks import frame_cells, record_lines, replays

GOLDEN = Path(__file__).with_name("golden.json")

#: Traced runs profile every ``SAMPLE_EVERY``-th decision of a sweep call.
SAMPLE_EVERY = 16


@dataclass
class Op:
    run: Callable
    check: Callable
    weight: int
    extras: Callable


@dataclass
class TraceContext:
    """What an op's traced extras record into."""

    g: object
    ops: object  # Tracer of the op spans
    inputs: object  # Tracer of per-input probes (cell reads, oracles)
    search: object  # SearchProfile
    root: int  # index of the op's span in ``ops``


def _cells_span(ctx: TraceContext, p) -> None:
    with ctx.inputs.span("grid.cell_at", (p.rows + 2) * (p.cols + 2)):
        frame_cells(ctx.g, p)


# ------------------------------------------------------------------ sweep


def _pictures(rows: int, cols_max: int) -> int:
    return sum(2 ** (rows * cols) for cols in range(1, cols_max + 1))


def _rerun_decisions(ctx, machine, lang, rows, cols_max, budgets) -> None:
    """Re-run the child calls one sweep call makes: enumeration, the
    oracle and one ``accepts`` per budget.  Initial configurations, which
    ``accepts`` already makes, are timed apart as a per-input probe."""
    g = ctx.g
    oracle = g.oracle_for(lang)
    for cols in range(1, cols_max + 1):
        with ctx.ops.span("grid.enumerate_pictures", 2 ** (rows * cols)):
            pics = list(g.enumerate_pictures(machine.alphabet, rows, cols))
        with ctx.ops.span("languages.oracle", len(pics)):
            for p in pics:
                oracle(p)
        with ctx.inputs.span("simulator.initial_configuration", len(pics)):
            for p in pics:
                g.initial_configuration(machine, p)
        for budget in budgets:
            with ctx.ops.span("simulator.accepts", len(pics)):
                verdicts = [g.accepts(machine, p, budget) for p in pics]
            for p, verdict in list(zip(pics, verdicts))[::SAMPLE_EVERY]:
                ctx.search.add(g, machine, p, budget, verdict)
        for p in pics[::SAMPLE_EVERY]:
            _cells_span(ctx, p)


def _check_op(golden, machine, lang: str, rows: int, cols_max: int) -> Op:
    expected = golden[f"check {machine.name} {lang} {rows} {cols_max}"]

    def run(lib):
        return lib.oracle_equivalence(machine, lang, rows, cols_max)

    def check(report) -> bool:
        return not report.mismatches and record_lines(report) == expected

    def extras(report, ctx: TraceContext) -> None:
        with ctx.ops.adopt(ctx.root + 1):
            _rerun_decisions(ctx, machine, lang, rows, cols_max, [None])

    return Op(run, check, _pictures(rows, cols_max), extras)


def _hierarchy_op(golden, i_max: int, cols_max: int) -> Op:
    expected = golden[f"hierarchy {i_max} {cols_max}"]

    def run(lib):
        return lib.hierarchy_report(i_max, cols_max)

    def check(report) -> bool:
        lines = record_lines(report)
        return lines == expected and all(
            "starvation=confirmed" in line and "mismatches=0" in line for line in lines
        )

    def extras(report, ctx: TraceContext) -> None:
        g = ctx.g
        with ctx.ops.adopt(ctx.root + 1):
            for i in range(1, i_max + 1):
                for builder, param, lang, rows in (
                    ("M_Mi", i, f"M{i}", 2 * i),
                    ("S_rec", i - 1, f"S{2 * i}", 2),
                ):
                    with ctx.ops.span("constructions.make_machine"):
                        machine = g.make_machine(builder, param)
                    full = machine.budget
                    starved = g.Budget(full.up - 1, full.left)
                    _rerun_decisions(ctx, machine, lang, rows, cols_max, [starved, full])

    weight = 2 * sum(_pictures(2 * i, cols_max) + _pictures(2, cols_max) for i in range(1, i_max + 1))
    return Op(run, check, weight, extras)


def pairs_of(z: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, z + 1) for j in range(i + 1, z + 1)]


def _splice_op(golden, machine, z: int) -> Op:
    expected = golden[f"splice {machine.name} {z}"]

    def run(lib):
        return lib.splice_counterexample(machine, z)

    def check(report) -> bool:
        return report.demonstrates and report.format() == expected

    def extras(report, ctx: TraceContext) -> None:
        g = ctx.g
        with ctx.ops.adopt(ctx.root + 1):
            pairs = pairs_of(z)
            with ctx.ops.span("languages.make_w", len(pairs)):
                words = [g.make_w(i, j, z) for i, j in pairs]
            with ctx.ops.span("simulator.accepting_trace", len(words)):
                traces = [g.accepting_trace(machine, w) for w in words]
            with ctx.ops.span("simulator.accepts"):
                verdict = g.accepts(machine, report.word)
            with ctx.ops.span("languages.oracle"):
                g.in_L(1, report.word)
        for w, t in list(zip(words, traces))[::SAMPLE_EVERY]:
            ctx.search.add(g, machine, w, None, t is not None)
            _cells_span(ctx, w)
        ctx.search.add(g, machine, report.word, None, verdict)

    return Op(run, check, len(pairs_of(z)) + 1, extras)


def setup_sweep(g, lib, rng: random.Random):
    """The paper's experiments as a user runs them: the hierarchy table,
    two oracle equivalence checks and the crossing splice.  The seed picks
    the splice width and the call order."""
    golden = json.loads(GOLDEN.read_text())
    a_l1 = lib.make_machine("A_L1")
    d_k2 = lib.make_machine("D_K", 2)
    flawed = lib.make_machine("FLAWED_L1_3W0")
    ops = [
        _hierarchy_op(golden, 2, 4),
        _check_op(golden, a_l1, "L1", 2, 7),
        _check_op(golden, d_k2, "K2", 2, 7),
        _splice_op(golden, flawed, rng.randint(28, 32)),
    ]
    rng.shuffle(ops)

    def warm_up(lib):
        lib.oracle_equivalence(a_l1, "L1", 2, 3)

    return ops, warm_up, None


# ------------------------------------------------------------------ wide

#: (recognizer builder, parameter, language, row pairs, planted columns
#: per pair, background 1-density applies).  M_2 pictures are all-zero
#: apart from the planted columns: any stray 1 leaves M_2.
WIDE_RECOGNIZERS = {
    "A_L1": ("A_L1", None, "L1", 1, 2, True),
    "B_L2": ("B_L", 2, "L2", 2, 2, True),
    "C_L1_2W": ("C_L1_2W", None, "L1", 1, 2, True),
    "D_K2": ("D_K", 2, "K2", 1, 4, True),
    "P_N2": ("P_N2", None, "N2", 2, 1, True),
    "M_M2": ("M_Mi", 2, "M2", 2, 2, False),
}
TRACE_RECOGNIZERS = ("A_L1", "B_L2", "C_L1_2W", "D_K2", "P_N2")
#: Op kinds, each with the same number of pictures.
WIDE_KINDS = ("A_L1", "B_L2", "C_L1_2W", "D_K2", "P_N2", "transposed", "det", "trace")
WIDE_PER_KIND = 32
WIDE_COLS = (512, 8192)
WIDE_DENSITY = (0.02, 0.9)


def _wide_op(g, kind, machine, picture, reference, oracle) -> Op:
    """One decision on one wide picture; ``reference`` is the picture the
    oracle judges (the untransposed one for the transposed kind)."""
    if kind == "det":

        def run(lib):
            return lib.run_deterministic(machine, picture)[0].value == "ACCEPT"

        def check(verdict) -> bool:
            return verdict == oracle(reference) == g.accepts(machine, picture)

    elif kind == "trace":

        def run(lib):
            return lib.accepting_trace(machine, picture)

        def check(trace) -> bool:
            if trace is None:
                return not oracle(reference)
            return oracle(reference) and replays(g, machine, picture, trace)

    else:

        def run(lib):
            return lib.accepts(machine, picture)

        def check(verdict) -> bool:
            return verdict == oracle(reference)

    def extras(result, ctx: TraceContext) -> None:
        with ctx.inputs.span("languages.oracle"):
            member = oracle(reference)
        _cells_span(ctx, picture)
        ctx.search.add(ctx.g, machine, picture, None, member)

    return Op(run, check, 1, extras)


def setup_wide(g, lib, rng: random.Random):
    """Seeded wide pictures, each at its recognizer's natural row count.

    Per op kind, widths are stratified log-uniform over WIDE_COLS and
    background densities stratified over WIDE_DENSITY; half the pictures
    are members built from planted columns, half near misses with one
    planted cell flipped.  All pictures reach gridfa as one picture
    stream; the tall ones are transposes of two-row pictures.
    """
    machines = {
        name: lib.make_machine(builder, param)
        for name, (builder, param, *_rest) in WIDE_RECOGNIZERS.items()
    }
    machines["transposed"] = lib.transpose_machine(machines["A_L1"])
    plan = []  # (kind, recognizer, rows)
    for kind in WIDE_KINDS:
        widths = inputs.strata(rng, WIDE_PER_KIND)
        densities = inputs.strata(rng, WIDE_PER_KIND)
        # Members and near misses alternate along the width order, so the
        # widest (slowest) pictures are always half of each.
        phase = rng.randrange(2)
        for k in range(WIDE_PER_KIND):
            member = (int(widths[k] * WIDE_PER_KIND) + phase) % 2 == 0
            if kind == "transposed":
                recognizer = "A_L1"
            elif kind == "det":
                recognizer = "M_M2"
            elif kind == "trace":
                recognizer = TRACE_RECOGNIZERS[k % len(TRACE_RECOGNIZERS)]
            else:
                recognizer = kind
            _builder, _param, _lang, pairs, plant, dense = WIDE_RECOGNIZERS[recognizer]
            cols = inputs.log_uniform(widths[k], *WIDE_COLS)
            lo, hi = WIDE_DENSITY
            density = lo + densities[k] * (hi - lo) if dense else 0.0
            rows = inputs.planted_rows(rng, cols, pairs, plant, density, member)
            plan.append((kind, recognizer, rows))
    pictures = lib.parse_picture_stream(
        inputs.stream_text([rows for _, _, rows in plan]), ("0", "1")
    )
    ops = []
    for (kind, recognizer, _rows), picture in zip(plan, pictures):
        lang = WIDE_RECOGNIZERS[recognizer][2]
        oracle = g.oracle_for(lang)
        if kind == "transposed":
            ops.append(
                _wide_op(g, kind, machines["transposed"], lib.transpose(picture), picture, oracle)
            )
        else:
            ops.append(_wide_op(g, kind, machines[recognizer], picture, picture, oracle))
    rng.shuffle(ops)
    small = lib.parse_picture_stream(inputs.stream_text([["0110", "0110"] * 2]), ("0", "1"))[0]

    def warm_up(lib):
        for name, machine in machines.items():
            target = lib.transpose(small) if name == "transposed" else small
            lib.accepts(machine, target)

    return ops, warm_up, None


# ------------------------------------------------------------------ machines

MACHINES_POOL = 5000
MACHINE_PICTURES = 8


def _machine_op(g, spec: inputs.MachineSpec, stream: str) -> Op:
    def run(lib):
        a = lib.parse_machine(spec.text)
        problems = lib.validate(a)
        tag = lib.classify(a)
        text = lib.serialize_machine(a)
        ta = lib.transpose_machine(a)
        try:
            ra = lib.rotate_machine(a)
        except g.RotationError:  # typed refusal, not a failure
            ra = None
        pics = lib.parse_picture_stream(stream, a.alphabet)
        decisions = []  # (machine, picture, verdict)
        for p in pics:
            decisions.append((a, p, lib.accepts(a, p)))
            tp = lib.transpose(p)
            decisions.append((ta, tp, lib.accepts(ta, tp)))
            if ra is not None:
                rp = lib.rotate90_cw(p)
                decisions.append((ra, rp, lib.accepts(ra, rp)))
        return a, problems, tag, text, ra, decisions

    def check(result) -> bool:
        a, problems, tag, text, ra, decisions = result
        if problems or tuple(tag) != (spec.family, spec.up, spec.left, spec.mode):
            return False
        if g.parse_machine(text) != a or (ra is None) != spec.rotation_refused:
            return False
        # Each picture's verdict on a, then on the transpose and rotation.
        step = 2 if ra is None else 3
        return all(
            all(v == decisions[k][2] for _, _, v in decisions[k + 1 : k + step])
            for k in range(0, len(decisions), step)
        )

    def extras(result, ctx: TraceContext) -> None:
        _a, _problems, _tag, _text, ra, decisions = result
        if ra is None:
            ctx.ops.counters["machine.rotate_refusals"] += 1
        for machine, picture, verdict in decisions:
            ctx.search.add(ctx.g, machine, picture, None, verdict)
        for _machine, picture, _verdict in decisions[:: 2 if ra is None else 3]:
            _cells_span(ctx, picture)

    return Op(run, check, 1, extras)


def machine_stream(rng: random.Random) -> str:
    pictures = [
        inputs.random_rows(rng, rng.randint(1, 3), rng.randint(1, 4))
        for _ in range(MACHINE_PICTURES)
    ]
    return inputs.stream_text(pictures)


def setup_machines(g, lib, rng: random.Random):
    """A pool of seeded random machines given to gridfa as text, each with
    its own small picture stream.  Every op parses its machine afresh; on
    each later pass the machine is renamed, so no machine text repeats."""
    pool = [(inputs.random_machine(rng, f"m{k}"), machine_stream(rng)) for k in range(MACHINES_POOL)]
    ops = [_machine_op(g, spec, stream) for spec, stream in pool]

    def next_pass(index: int) -> list[Op]:
        return [
            _machine_op(g, spec._replace(text=spec.text.replace("\n", f".{index}\n", 1)), stream)
            for spec, stream in pool
        ]

    def warm_up(lib):
        for op in ops[:20]:
            op.run(lib)

    return ops, warm_up, next_pass


WORKLOADS = {"sweep": setup_sweep, "wide": setup_wide, "machines": setup_machines}
