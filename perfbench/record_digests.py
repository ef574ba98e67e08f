"""Record the report digests the benchmark compares against.

    python3 perfbench/record_digests.py

Runs every command in every workload's pool once, checks its known answer
(exit code, verdict text, mutant pair agreement) and writes the sha256 of
each normalised report to perfbench/digests.json.  Reports must stay
byte-identical, so re-record only when a change is meant to alter them.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.bootstrap()
    import workloads

    run.WORK_PARENT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK_PARENT))
    digests: dict = {}
    bad = 0
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, work / name, seed=0)
            runner = run.Runner(work / name, digests)
            outcomes = []
            for cmd in workload.pool:
                o = runner.run(cmd)  # no digest yet: record it, then check again
                if o.code is not None:
                    digests[cmd.key] = run.digest(o.stdout)
                    o.error = runner.check(cmd, o.code, o.stdout)
                outcomes.append(o)
            run.check_pairs(outcomes)
            for o in outcomes:
                if o.error:
                    bad += 1
                    sys.stderr.write(f"{name}: {o.cmd.key}: {o.error}\n")
            print(f"{name}: {len(outcomes)} commands recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        sys.stderr.write(f"{bad} commands failed their known answer; nothing written\n")
        return 1
    run.DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {run.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
