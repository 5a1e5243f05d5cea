"""Fixed probes that only the traced run makes, after the workload's ops.

* ``baseline``: the ROADMAP baseline numbers, measured the same way.
* ``layers``: one small call into every public function the per-layer
  metrics name, so a metric the workload's own ops never produce still
  has a value (taken from here, on small inputs).
* ``union``: ``union_machine`` on random pairs, reporting how often the
  union's language is not the union of the languages.
* ``cli``: in-process ``cli.main`` per subcommand, and the CLI as a
  subprocess.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import inputs
from checks import frame_cells, record_lines, replays
from tracing import TracedLib, Tracer

#: Baseline values recorded in ROADMAP.md (CPython 3.11, 2-core host).
ROADMAP_BASELINE = {
    "baseline.enumerate_us_per_picture_4x4": 7.4,
    "baseline.accepts_M_M2_us_per_picture": 30.0,
    "baseline.splice_z14_ms": 18.0,
}

SPLICE_REPEATS = 5
UNION_PAIRS = 150
CLI_REPEATS = 3
SUBPROCESS_REPEATS = 5


class Probes:
    def __init__(self, g, root: Path, work_dir: Path, rng: random.Random, search) -> None:
        self.g = g
        self.root = root
        self.work_dir = work_dir
        self.rng = rng
        self.search = search
        self.tracer = Tracer()
        self.lib = TracedLib(g, self.tracer)
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def run(self) -> None:
        for name in ("baseline", "layers", "union", "cli"):
            self.tracer.op = f"probe:{name}"
            getattr(self, name)()

    # -------------------------------------------------------------- baseline

    def baseline(self) -> None:
        g, tr = self.g, self.tracer
        count = sum(2 ** (4 * cols) for cols in range(1, 5))
        with tr.span("baseline.enumerate", count):
            pics = [p for cols in range(1, 5) for p in g.enumerate_pictures(("0", "1"), 4, cols)]
        m2 = g.make_machine("M_Mi", 2)
        with tr.span("baseline.accepts_M_M2", len(pics)):
            accepted = sum(g.accepts(m2, p) for p in pics)
        self.expect(accepted == sum(map(g.oracle_for("M2"), pics)), "baseline accepts(M_M2)")
        flawed = g.make_machine("FLAWED_L1_3W0")
        for _ in range(SPLICE_REPEATS):
            with tr.span("baseline.splice_z14"):
                report = g.splice_counterexample(flawed, 14)
            self.expect(report.demonstrates, "baseline splice z=14")

    # -------------------------------------------------------------- layers

    def layers(self) -> None:
        g, lib, tr = self.g, self.lib, self.tracer
        for builder, (_factory, parametric) in sorted(g.BUILDERS.items()):
            a = lib.make_machine(builder, 2 if parametric else None)
            self.expect(lib.parse_machine(lib.serialize_machine(a)) == a, f"round trip {builder}")
            self.expect(lib.validate(a) == [], f"validate {builder}")
            lib.classify(a)
            lib.transpose_machine(a)
            try:
                lib.rotate_machine(a)
            except g.RotationError:
                tr.counters["machine.rotate_refusals"] += 1
        rows = [inputs.random_rows(self.rng, r, 6) for r in (2, 4) for _ in range(8)]
        pics = lib.parse_picture_stream(inputs.stream_text(rows), ("0", "1"))
        with tr.span("grid.enumerate_pictures", 8 + 64 + 512):
            list(g.enumerate_pictures(("0", "1"), 3, 1))
            list(g.enumerate_pictures(("0", "1"), 3, 2))
            list(g.enumerate_pictures(("0", "1"), 3, 3))
        a_l1, m2 = g.make_machine("A_L1"), g.make_machine("M_Mi", 2)
        for p in pics:
            lib.transpose(p)
            lib.rotate90_cw(p)
            with tr.span("grid.cell_at", (p.rows + 2) * (p.cols + 2)):
                frame_cells(g, p)
            machine, lang = (a_l1, "L1") if p.rows == 2 else (m2, "M2")
            with tr.span("languages.oracle"):
                member = g.oracle_for(lang)(p)
            lib.initial_configuration(machine, p)
            if p.rows == 2:
                verdict = lib.accepts(machine, p)
                trace = lib.accepting_trace(machine, p)
                self.expect(
                    verdict == member == (trace is not None)
                    and (trace is None or replays(g, machine, p, trace)),
                    "layers A_L1",
                )
            else:
                verdict = lib.run_deterministic(machine, p)[0].value == "ACCEPT"
                self.expect(verdict == member, "layers M_M2")
            self.search.add(g, machine, p, None, verdict)
        report = lib.oracle_equivalence(a_l1, "L1", 2, 4)
        self.expect(not report.mismatches, "layers oracle_equivalence")
        lines = record_lines(lib.hierarchy_report(1, 3))
        self.expect(all("starvation=confirmed" in line for line in lines), "layers hierarchy")
        report = lib.splice_counterexample(g.make_machine("FLAWED_L1_3W0"), 14)
        self.expect(report.demonstrates, "layers splice")

    # -------------------------------------------------------------- union

    def union(self) -> None:
        """Random pairs, not filtered on budget or policy.  A violation is
        a (pair, picture) case where the union's verdict differs from
        ``accepts(a) or accepts(b)``.  A union that fails ``validate``
        (two merged edges becoming one duplicate edge) is counted apart,
        since no verdict exists for it.  Both are reported, not failed."""
        g, lib, tr = self.g, self.lib, self.tracer
        pics = [
            p
            for rows, cols in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
            for p in g.enumerate_pictures(("0", "1"), rows, cols)
        ]
        for k in range(UNION_PAIRS):
            a = g.parse_machine(inputs.random_machine(self.rng, f"a{k}", (3, 5)).text)
            b = g.parse_machine(inputs.random_machine(self.rng, f"b{k}", (3, 5)).text)
            try:
                u = lib.union_machine(a, b)
            except g.CompositionError:
                tr.counters["machine.union_refusals"] += 1
                continue
            if g.validate(u):
                tr.counters["machine.union_invalid"] += 1
                continue
            for p in pics:
                tr.counters["machine.union_cases"] += 1
                if g.accepts(u, p) != (g.accepts(a, p) or g.accepts(b, p)):
                    tr.counters["machine.union_law_violations"] += 1

    # -------------------------------------------------------------- cli

    def cli(self) -> None:
        g, tr = self.g, self.tracer
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            tmp = Path(tmp)
            (tmp / "a_l1.txt").write_text(g.serialize_machine(g.make_machine("A_L1")))
            (tmp / "m_m1.txt").write_text(g.serialize_machine(g.make_machine("M_M1")))
            (tmp / "pics.txt").write_text(inputs.stream_text([["0110", "0110"], ["1001", "1001"]]))
            m, d, pics = str(tmp / "a_l1.txt"), str(tmp / "m_m1.txt"), str(tmp / "pics.txt")
            commands = {
                "accept": ["accept", m, pics],
                "run": ["run", d, pics],
                "trace": ["trace", m, pics],
                "build": ["build", "A_L1"],
                "enumerate": ["enumerate", "--rows", "2", "--cols", "3"],
                "check": ["check", "A_L1", "L1", "--cols-max", "3"],
                "sweep": ["sweep", "D_K", "K2", "--param", "2", "--cols-max", "4",
                          "--budget-up", "1", "--budget-up", "2"],
                "splice": ["splice", "FLAWED_L1_3W0", "--z", "14"],
                "hierarchy": ["hierarchy", "--i-max", "1", "--cols-max", "3"],
            }
            for sub, argv in commands.items():
                for _ in range(CLI_REPEATS):
                    with contextlib.redirect_stdout(io.StringIO()):
                        with tr.span(f"cli.main.{sub}"):
                            code = g.cli.main(argv)
                    self.expect(code == 0, f"cli {sub} exit {code}")
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        expected = g.serialize_machine(g.make_machine("A_L1"))
        for _ in range(SUBPROCESS_REPEATS):
            with tr.span("cli.subprocess"):
                done = subprocess.run(
                    [sys.executable, "-m", "gridfa.cli", "build", "A_L1"],
                    cwd=self.root, env=env, capture_output=True, text=True, timeout=120,
                )
            self.expect(done.returncode == 0 and done.stdout == expected, "cli subprocess")
