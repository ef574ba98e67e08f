"""Smoke check of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload on its smallest input (`--small`), untraced once and
traced twice, and checks that

* each run exits 0, is correct, and prints every metric BENCHMARK.json names
  for its mode, each with the declared unit;
* the exact counts repeat exactly across the two traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = (
    "vertex.check_jacobi.instances",
    "chiral.check_chiral_jacobi.triples",
    "formal.box_keys",
    "equivalence.suite_runs_per_roundtrip",
)


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list, label: str) -> None:
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{label}: run not correct: {result}")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        raise SystemExit(f"{label}: metrics differ: missing {set(want) - set(got)}, "
                         f"extra {set(got) - set(want)}")
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            raise SystemExit(f"{label}: {name} has unit {got[name]['unit']}, expected {unit}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(run(workload, 0), spec["end_to_end"], f"{workload} trace=0")
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            check_metrics(result, spec["per_layer"], f"{workload} trace=1")
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                raise SystemExit(f"{workload}: {name} differs across runs: {a} != {b}")
        counts = {n: first["metrics"][n]["value"] for n in EXACT_COUNTS}
        print(f"{workload}: ok {counts}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
