"""Benchmark for gridfa: seeded workloads, checked results, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

One process, one caller, a closed loop: each op starts when the previous
one has returned.  The timed phase makes whole passes over the workload's
ops, at least three and until ``--seconds`` of op time is spent, and every
result is checked after its clock stops.  Op times are taken at nominal
host speed (see ``speed.py``): the raw times of two runs on a shared host
differ by up to a quarter, the normalized ones by a few percent.  An op's
latency is the median of its times over the passes; ``ops_per_s`` is one
pass's ops over the sum of those latencies.  On ``sweep`` an op of latency
is one experiment call, while ``ops_per_s`` counts verdicts (one picture
at one budget).  ``setup_s`` is the median of three set-ups, each a fresh
import of gridfa, building machines, generating inputs and warm-up, also
at nominal speed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced pass,
and the spans are written under ``.perfbench-out/``, each line
``[tracer, name, start, end, parent, op, count, nominal seconds]``.  The
metric names and units are the ones listed in ``BENCHMARK.json``.
gridfa is imported from ``src/`` of the checkout and nowhere else.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import SearchProfile
from probes import ROADMAP_BASELINE, Probes
from speed import SpeedProbe, calibration_ms
from tracing import NAME, TracedLib, Tracer
from workloads import WORKLOADS, TraceContext

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
MIN_PASSES = 3
LAYERS = ("grid", "languages", "constructions", "machine", "simulator", "experiments", "cli")

#: Per-layer metric -> (span names, scale): mean seconds per work unit
#: over those spans, times ``scale``.
PER_UNIT = {
    "grid.enumerate_us_per_picture": (("grid.enumerate_pictures",), 1e6),
    "grid.parse_stream_us_per_picture": (("grid.parse_picture_stream",), 1e6),
    "grid.cell_at_ns": (("grid.cell_at",), 1e9),
    "grid.transpose_us_per_picture": (("grid.transpose", "grid.rotate90_cw"), 1e6),
    "languages.oracle_us_per_picture": (("languages.oracle",), 1e6),
    "constructions.build_us": (("constructions.make_machine",), 1e6),
    "machine.parse_us": (("machine.parse_machine",), 1e6),
    "machine.serialize_us": (("machine.serialize_machine",), 1e6),
    "machine.validate_us": (("machine.validate",), 1e6),
    "machine.classify_us": (("machine.classify",), 1e6),
    "machine.transpose_us": (("machine.transpose_machine",), 1e6),
    "machine.rotate_us": (("machine.rotate_machine",), 1e6),
    "machine.union_us": (("machine.union_machine",), 1e6),
    "simulator.accepts_us_per_decision": (("simulator.accepts",), 1e6),
    "simulator.initial_configuration_us": (("simulator.initial_configuration",), 1e6),
    "simulator.run_det_us_per_decision": (("simulator.run_deterministic",), 1e6),
    "simulator.trace_us_per_decision": (("simulator.accepting_trace",), 1e6),
    "experiments.hierarchy_s": (("experiments.hierarchy_report",), 1.0),
    "experiments.check_s": (("experiments.oracle_equivalence",), 1.0),
    "experiments.splice_ms": (("experiments.splice_counterexample",), 1e3),
    "baseline.enumerate_us_per_picture_4x4": (("baseline.enumerate",), 1e6),
    "baseline.accepts_M_M2_us_per_picture": (("baseline.accepts_M_M2",), 1e6),
}
#: Per-layer metric -> span name whose median duration (ms) it reports.
MEDIAN_MS = {
    "baseline.splice_z14_ms": "baseline.splice_z14",
    "cli.subprocess_ms_p50": "cli.subprocess",
}
CLI_SUBCOMMANDS = ("accept", "run", "trace", "build", "enumerate", "check", "sweep", "splice", "hierarchy")
MEDIAN_MS.update({f"cli.main_ms_p50.{sub}": f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS})
COUNTERS = ("machine.rotate_refusals", "machine.union_refusals", "machine.union_invalid",
            "machine.union_cases", "machine.union_law_violations")


def import_gridfa():
    """Import gridfa afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "gridfa" or m.startswith("gridfa.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    g = importlib.import_module("gridfa")
    importlib.import_module("gridfa.cli")
    if Path(g.__file__).resolve().parent != SRC / "gridfa":
        raise SystemExit(f"gridfa imported from {g.__file__}, not from {SRC}")
    return g


def commit() -> str:
    """HEAD of the checkout, read from ``.git`` inside it, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Outcome:
    """Ops attempted and failed.  An op fails if it raises (typed refusals
    are caught inside the op and are not failures) or if its check rejects
    its result.  The first few tracebacks go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reports = 0

    def judge(self, op, run) -> tuple[bool, object, float, float]:
        """Run one op, timing only ``run``; check its result after the
        clock stops.  Returns (ran without raising, result, start, end)."""
        start = time.perf_counter()
        try:
            result = run()
            ran = True
        except Exception:
            result, ran = None, False
        end = time.perf_counter()
        if not ran:
            self.report()
        self.attempted += op.weight
        try:
            ok = ran and op.check(result)
        except Exception:
            ok = False
            self.report()
        if not ok:
            self.failed += op.weight
        return ran, result, start, end

    def report(self) -> None:
        if self.reports < 5:
            traceback.print_exc()
        self.reports += 1


def set_up(workload: str, seed: int, lib_for=lambda g: g):
    g = import_gridfa()
    ops, warm_up, next_pass = WORKLOADS[workload](g, lib_for(g), random.Random(seed))
    warm_up(g)
    return g, ops, next_pass


def untraced(workload: str, seed: int, seconds: float) -> tuple:
    outcome = Outcome()
    setups, raw_setups, pass_seconds = [], [], []
    with SpeedProbe() as speed:
        for _ in range(SETUP_REPEATS):
            ops = None
            gc.collect()
            start = time.perf_counter()
            g, ops, next_pass = set_up(workload, seed)
            end = time.perf_counter()
            setups.append(speed.normalize(start, end))
            raw_setups.append(end - start)
        times = [[] for _ in ops]
        while len(pass_seconds) < MIN_PASSES or sum(pass_seconds) < seconds:
            if pass_seconds and next_pass:
                ops = next_pass(len(pass_seconds))
            raw = 0.0
            for index, op in enumerate(ops):
                _ran, _result, start, end = outcome.judge(op, lambda: op.run(g))
                times[index].append(speed.normalize(start, end))
                raw += end - start
            pass_seconds.append(raw)
    latencies = [statistics.median(t) for t in times]
    return outcome, {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(op.weight for op in ops) / sum(latencies),
        "latency_ms_p50": percentile(latencies, 50) * 1e3,
        "latency_ms_p95": percentile(latencies, 95) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }, {
        "ops_per_pass": len(ops),
        "raw_setup_seconds": raw_setups,
        "raw_pass_seconds": pass_seconds,
        "reference_ms_median": speed.median_ms(),
    }


def traced(workload: str, seed: int) -> tuple:
    """Each op once untraced and once traced, in alternating order, with
    its traced extras; then the probes.  All times at nominal speed."""
    with SpeedProbe() as speed:
        op_tracer, input_tracer = Tracer(), Tracer()
        search = SearchProfile(speed.normalize)
        op_tracer.op = "setup"
        g, ops, _next_pass = set_up(workload, seed, lambda g: TracedLib(g, op_tracer))
        outcome, plain_outcome = Outcome(), Outcome()
        lib = TracedLib(g, op_tracer)
        plain_time = traced_time = 0.0
        for index, op in enumerate(ops):
            op_tracer.op = input_tracer.op = index
            root = len(op_tracer.spans)

            def run():
                with op_tracer.span("bench.op", op.weight):
                    return op.run(lib)

            # The same op untraced, alternately before and after the traced
            # run, gives the time that tracing is compared against.
            if index % 2:
                plain_time += speed.normalize(*plain_outcome.judge(op, lambda: op.run(g))[2:])
            ran, result, start, end = outcome.judge(op, run)
            traced_time += speed.normalize(start, end)
            if not index % 2:
                plain_time += speed.normalize(*plain_outcome.judge(op, lambda: op.run(g))[2:])
            if ran:
                op.extras(result, TraceContext(g, op_tracer, input_tracer, search, root))
        OUT.mkdir(exist_ok=True)
        probes = Probes(g, ROOT, OUT, random.Random(seed), search)
        probes.run()
    for failure in probes.failures:
        print(f"probe check failed: {failure}", file=sys.stderr)
    if search.mismatches:
        print(f"benchmark search disagreed with gridfa {search.mismatches} times", file=sys.stderr)
    tracers = (op_tracer, input_tracer, probes.tracer)
    durations = [t.durations(speed.normalize) for t in tracers]
    metrics = layer_metrics(tracers, durations, search, traced_time / plain_time)
    ok = not probes.failures and not search.mismatches and not plain_outcome.failed
    return outcome, metrics, ok, tracers, durations


def layer_metrics(tracers, durations, search: SearchProfile, overhead: float) -> dict:
    """Each metric from the first tracer that has its spans: the op spans,
    then the per-input probes, then the fixed probes."""
    tables = [t.per_name(d) for t, d in zip(tracers, durations)]
    metrics = {}

    def lookup(names):
        for table in tables:
            found = [table[n] for n in names if n in table]
            if found:
                return found
        return None

    for metric, (names, scale) in PER_UNIT.items():
        found = lookup(names)
        if found:
            metrics[metric] = sum(f[0] for f in found) / sum(f[1] for f in found) * scale
    for metric, name in MEDIAN_MS.items():
        for tracer, spans_durations in zip(tracers, durations):
            found = [d for s, d in zip(tracer.spans, spans_durations) if s[NAME] == name]
            if found:
                metrics[metric] = statistics.median(found) * 1e3
                break
    for name in COUNTERS:
        metrics[name] = next((t.counters[name] for t in tracers if name in t.counters), 0)
    self_times = [t.self_time_by_layer(d) for t, d in zip(tracers, durations)]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = next((s[layer] for s in self_times if layer in s), 0.0)
    metrics["simulator.step_ns_per_config"] = search.seconds / search.expanded * 1e9
    metrics["simulator.configs_per_decision_p50"] = percentile(search.visited, 50)
    metrics["simulator.configs_per_decision_p95"] = percentile(search.visited, 95)
    metrics["simulator.frontier_peak_p95"] = percentile(search.frontier, 95)
    metrics["simulator.visited_configs"] = sum(search.visited)
    metrics["simulator.config_space_bound"] = search.bound_total
    metrics["simulator.visited_over_bound"] = sum(search.visited) / search.bound_total
    metrics["bench.trace_overhead_ratio"] = overhead
    return metrics


def write_spans(path: Path, header: dict, tracers, durations) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        for tag, tracer, spans_durations in zip(("ops", "inputs", "probes"), tracers, durations):
            for s, duration in zip(tracer.spans, spans_durations):
                f.write(json.dumps([tag] + s + [duration]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gridfa" / "__init__.py").is_file():
        print(f"error: no gridfa sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    calibration = [calibration_ms()]
    if args.trace:
        outcome, values, ok, tracers, durations = traced(args.workload, args.seed)
        extra = {}
    else:
        outcome, values, extra = untraced(args.workload, args.seed, args.seconds)
        ok = True
    calibration.append(calibration_ms())
    values["bench.calibration_ms"] = statistics.mean(calibration)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "calibration_ms_start_end": calibration,
        **extra,
    }
    print("env " + json.dumps(env))
    if args.trace:
        for name, roadmap in ROADMAP_BASELINE.items():
            print(f"baseline {name} roadmap={roadmap} measured={values[name]:.4g}")
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                    {"env": env, "metrics": values}, tracers, durations)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": ok and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
