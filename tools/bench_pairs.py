"""Benchmark a change against its parent in alternating pairs of runs and
write ``BENCH_<pr>.json``.

    python tools/bench_pairs.py --parent REF --pr N [--pairs 10] [--seconds T]
        [--first-seed S] [--note TEXT]

It makes two fresh checkouts in a temporary directory: one of the parent
(``git archive REF``) and one of the working tree's tracked files (so new
files must be added to the index first).  Neither holds a ``__pycache__``,
and every run has ``PYTHONDONTWRITEBYTECODE=1``, so both sides start in
the same cache state.  For each workload and pair it runs
``perfbench/run.py --workload W --seed S --seconds T`` once in each
checkout, one process at a time, the parent first in even pairs and the
change first in odd ones.  Seeds run from ``--first-seed`` (default
``100 * pr + 1``), one per pair, workload after workload.

Every workload, the run length (``--seconds`` defaults to its
``run_seconds``) and the end-to-end metric names, with which way is
better, come from ``BENCHMARK.json``; nothing under ``perfbench/`` is
changed.  Per workload the file holds the seeds, whether every run was
correct with no failures, per metric the medians and quartiles of both
sides, the pairs in which the change was better and the change against
the parent, and every run's metrics (rounded to 4 decimals).  A run that
exits non-zero or prints nothing counts as incorrect, is recorded as null
and leaves its pair out of the medians.  The tool exits 1 if any run was
incorrect or had failures, after writing the file.  Stdlib only.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def checkouts(parent: str, into: Path) -> dict[str, Path]:
    """Fresh copies of the parent commit and of the tracked working tree."""
    sides = {"parent": into / "parent", "change": into / "change"}
    with tarfile.open(fileobj=io.BytesIO(git("archive", parent))) as archive:
        archive.extractall(sides["parent"])
    for name in git("ls-files", "-z").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = sides["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return sides


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The last stdout line of one benchmark run, as JSON, or None if it crashed."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        print(f"{workload} seed {seed} in {checkout.name} failed:\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[dict], metric: str, lower: bool) -> dict:
    """Medians and quartiles of both sides, and the pairs the change won."""
    values = {side: [r[side][metric] for r in runs] for side in ("parent", "change")}
    parent, change = (statistics.median(values[side]) for side in ("parent", "change"))
    better = sum(
        (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
    )
    return {
        "parent": round(parent, 4),
        "change": round(change, 4),
        **{
            f"{side}_iqr": [round(q, 4) for q in statistics.quantiles(values[side], n=4)[::2]]
            for side in ("parent", "change")
        },
        "change_better_pairs": better,
        "pairs": len(runs),
        "change_vs_parent": f"{(change - parent) / parent * 100:+.1f}%" if parent else "n/a",
    }


def at_least_two(text: str) -> int:
    """An argparse type: quartiles need two pairs or more."""
    if int(text) < 2:
        raise argparse.ArgumentTypeError("must be at least 2")
    return int(text)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--pairs", type=at_least_two, default=10)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--first-seed", type=int)
    parser.add_argument("--note", default="")
    args = parser.parse_args()
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = {m["name"]: m["better"] == "lower" for m in declared["end_to_end"]}
    seed = args.first_seed or 100 * args.pr + 1
    report: dict = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}"
        " (last line of stdout; metric values rounded to 4 decimals)",
        "host": f"{os.cpu_count()}-core {platform.machine()} box, "
        f"{platform.python_implementation()} {platform.python_version()}; "
        "parent and change alternate which runs first in each pair",
        "note": args.note,
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = checkouts(args.parent, Path(tmp))
        for workload in workloads:
            seeds = list(range(seed, seed + args.pairs))
            seed += args.pairs
            runs: dict[str, dict] = {}
            correct = True
            for pair, s in enumerate(seeds):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                runs[str(s)] = {}
                for side in order:
                    out = run(sides[side], workload, s, args.seconds)
                    correct &= out is not None and out["correct"] is True and out["failed"] == 0
                    runs[str(s)][side] = out and {
                        name: round(out["metrics"][name]["value"], 4) for name in metrics
                    }
                    print(workload, s, side, json.dumps(runs[str(s)][side]), flush=True)
            ok &= correct
            whole = [r for r in runs.values() if None not in r.values()]
            report["workloads"][workload] = {
                "seeds": seeds,
                "all_correct_no_failures": correct,
                "medians": {
                    name: summary(whole, name, lower) if len(whole) > 1 else None
                    for name, lower in metrics.items()
                },
                "runs": runs,
            }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out.name}; every run correct with no failures: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
