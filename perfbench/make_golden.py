"""Write golden.json: the reports the sweep workload must reproduce.

Run from the root of a checkout, at the commit whose output is the
reference:

    python3 perfbench/make_golden.py

For every call the sweep workload can make, it stores the ``record=``
lines (hierarchy table and oracle checks) or the formatted splice report.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gridfa as g  # noqa: E402

from checks import record_lines  # noqa: E402


def main() -> None:
    golden = {"hierarchy 2 4": record_lines(g.hierarchy_report(2, 4))}
    for builder, param, lang in (("A_L1", None, "L1"), ("D_K", 2, "K2")):
        machine = g.make_machine(builder, param)
        report = g.oracle_equivalence(machine, lang, 2, 7)
        golden[f"check {machine.name} {lang} 2 7"] = record_lines(report)
    flawed = g.make_machine("FLAWED_L1_3W0")
    for z in range(28, 33):
        golden[f"splice {flawed.name} {z}"] = g.splice_counterexample(flawed, z).format()
    path = Path(__file__).with_name("golden.json")
    path.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
