"""chiralva benchmark: closed-loop time-to-verdict of the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one thread drives `chiralva.cli.main` in-process, issuing the
next command as soon as the previous one returns.  A run builds the
workload's input files, then runs as many whole passes over its command
stream, each in a new order drawn from the seed, as fit S seconds at the
workload's nominal pace (at least one), checking every command's exit code,
verdict and report digest.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See perfbench/README.md
for the metric definitions.

The program is imported from `src/` of the checkout this file sits in; the
run exits 2 without a result when that source tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
DIGESTS = HERE / "digests.json"
WORK_PARENT = HERE / "_work"
SPAN_DIR = HERE / "_out"
SETUP_REPEATS = 5
COMMANDS = ("check-va", "check-chiral", "roundtrip", "compose-diff", "delta-suite")


def bootstrap() -> float:
    """Import chiralva from this checkout's src/; return the import time."""
    src = ROOT_DIR / "src"
    if not (src / "chiralva" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no chiralva source tree under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import chiralva.cli  # noqa: F401
    import workloads  # noqa: F401  (imports fixtures, serialize, equivalence)
    elapsed = time.perf_counter() - start
    loaded = Path(sys.modules["chiralva"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        sys.stderr.write(f"perfbench: chiralva was imported from {loaded}, not {src}\n")
        sys.exit(2)
    return elapsed


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    cmd: object
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None  # why the command counts as failed


class Runner:
    """Runs commands through `cli.main` and checks each outcome."""

    def __init__(self, work: Path, digests: dict):
        from chiralva.cli import main

        self.main = main
        self.work = str(work)
        self.root = str(ROOT_DIR)
        self.digests = digests

    def normalise(self, stdout: str) -> str:
        from workloads import ROOT, WORK

        return stdout.replace(self.work, WORK).replace(self.root, ROOT)

    def run(self, cmd, tracer=None) -> Outcome:
        argv = cmd.concrete(self.work, self.root)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    code = self.main(argv)
                else:
                    code = tracer.command_span(cmd.kind, self.main, argv)
        except Exception as exc:  # a traceback is a failed command, not a crash
            return Outcome(cmd, time.perf_counter() - start, None, "", f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        stdout = self.normalise(out.getvalue())
        return Outcome(cmd, seconds, code, stdout, self.check(cmd, code, stdout))

    def check(self, cmd, code: int, stdout: str) -> str | None:
        from workloads import verdict_matches_code

        recorded = self.digests.get(cmd.key)
        if recorded is None:
            return "no recorded report digest"
        if digest(stdout) != recorded:
            return "report differs from the recorded digest"
        if cmd.expect_code is not None and code != cmd.expect_code:
            return f"exit {code}, expected {cmd.expect_code}"
        if cmd.expect_code is None and not verdict_matches_code(stdout, code):
            return f"exit {code} disagrees with the reported verdict"
        missing = [t for t in cmd.expect_text if t not in stdout]
        if missing:
            return f"report lacks {missing[0]!r}"
        return None


def check_pairs(outcomes: list[Outcome]) -> None:
    """Mark both commands of a mutant failed when their verdicts disagree."""
    from workloads import mutant_pair_agrees

    groups: dict = {}
    for o in outcomes:
        if o.cmd.group is not None:
            groups.setdefault(o.cmd.group, {})[o.cmd.kind] = o
    for pair in groups.values():
        va, ch = pair.get("check-va"), pair.get("check-chiral")
        if va is None or ch is None or va.error or ch.error:
            continue
        if not mutant_pair_agrees(va.stdout, ch.stdout):
            va.error = ch.error = "VA and chiral verdicts disagree"


def run_pass(workload, runner: Runner, tracer=None) -> list[Outcome]:
    outcomes = [runner.run(cmd, tracer) for cmd in workload.pass_order()]
    check_pairs(outcomes)
    for o in outcomes:
        o.stdout = ""  # checked; do not keep reports alive across passes
    return outcomes


def bounded_pass(workload, runner: Runner, seconds: float) -> list[Outcome]:
    """One pass in seeded order, cut after the command that crosses `seconds`."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    for cmd in workload.pass_order():
        outcomes.append(runner.run(cmd))
        if time.perf_counter() - start > seconds:
            break
    check_pairs(outcomes)
    return outcomes


def timed_passes(workload, runner: Runner, passes: int, tracer=None):
    """Run `passes` whole passes.  Returns (outcomes, wall seconds)."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    for _ in range(passes):
        outcomes += run_pass(workload, runner, tracer)
    return outcomes, time.perf_counter() - start


def setup(name: str, seed: int, small: bool, work: Path):
    """Build the workload SETUP_REPEATS times; return it and the median time."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(work / "inputs", ignore_errors=True)
        workload = workloads.build(name, work / "inputs", seed, small)
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        runner = Runner(work / "inputs", digests)
        times.append(time.perf_counter() - start)
    return workload, runner, statistics.median(times)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each slot.
    It has a much lower variance than a single order statistic, which matters
    when each command's time jitters with the machine's speed."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16  # midpoint rule inside each slot; never touches 0 or 1
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(outcomes, setup_s: float) -> dict:
    """Latency quantiles use each command's mean over the run's passes, and
    throughput counts every command of the timed loop.  The machine's speed
    swings by 10-20% from second to second, so every figure averages over
    the whole run rather than keeping the middle of a few samples."""
    by_command: dict = {}
    for o in outcomes:
        by_command.setdefault(o.cmd.key, []).append(o.seconds)
    latencies = [statistics.fmean(v) for v in by_command.values()]
    failed = sum(1 for o in outcomes if o.error)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": metric(setup_s, "s"),
        "verdicts_per_s": metric(len(outcomes) / sum(o.seconds for o in outcomes), "1/s"),
        "verdict_p50_ms": metric(hd_quantile(latencies, 0.5) * 1000.0, "ms"),
        "verdict_p90_ms": metric(hd_quantile(latencies, 0.9) * 1000.0, "ms"),
        "ok_frac": metric(1.0 - failed / len(outcomes), "frac"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(workload, runner: Runner, seconds: float, span_path: Path):
    """One untraced pass, one traced pass, then one pass under cProfile cut
    after `seconds`.  Times and counts are per pass."""
    from tracing import Tracer, profile_shares

    plain, plain_wall = timed_passes(workload, runner, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = timed_passes(workload, runner, 1, tracer)
    finally:
        tracer.uninstall()
    profiled: list[Outcome] = []
    poly, frac = profile_shares(lambda: profiled.extend(bounded_pass(workload, runner, seconds)))
    tracer.write_spans(span_path)

    m = {}
    for kind in COMMANDS:
        m[f"cmd.{kind}_s"] = metric(sum(o.seconds for o in plain if o.cmd.kind == kind), "s")
    m["cli.main.self_s"] = metric(tracer.self_s["cli.main"], "s")
    for span in ("serialize.load_path", "vertex.check_truncation", "vertex.check_d_derivative",
                 "vertex.check_skew_symmetry", "vertex.check_jacobi",
                 "vertex.locality_certificate", "vertex.associativity_certificate",
                 "chiral.check_dmodule_morphism", "chiral.check_chiral_skew",
                 "chiral.check_chiral_jacobi", "chiral.compose_left_basis",
                 "chiral.compose_right_basis", "chiral.compose_left", "chiral.compose_right",
                 "formal.expand", "formal.check_identity", "formal.fundamental_delta_property",
                 "deltaparse.parse_expression"):
        m[f"{span}.s"] = metric(tracer.incl[span], "s")
    for span in ("serialize.load_path", "chiral.compose_left_basis",
                 "chiral.compose_right_basis", "formal.expand"):
        m[f"{span}.calls"] = metric(tracer.calls[span], "count")
    for count in ("vertex.check_jacobi.instances", "chiral.check_chiral_jacobi.triples",
                  "formal.box_keys"):
        m[count] = metric(tracer.counts[count], "count")
    basis_calls = sum(tracer.calls[s] for s in ("chiral.compose_left_basis", "chiral.compose_right_basis"))
    m["chiral.compose.memo_hit_frac"] = metric(tracer.memo_hits / basis_calls if basis_calls else 0.0, "frac")
    m["chiral.cache_entries_max"] = metric(tracer.cache_entries_max, "count")
    m["equivalence.roundtrip_check.self_s"] = metric(tracer.self_s["equivalence.roundtrip_check"], "s")
    roundtrips = sum(1 for o in traced if o.cmd.kind == "roundtrip")
    m["equivalence.suite_runs_per_roundtrip"] = metric(
        tracer.counts["equivalence.suite_runs_in_roundtrip"] / roundtrips if roundtrips else 0.0, "count")
    formal_s = tracer.incl["formal.check_identity"] + tracer.incl["formal.fundamental_delta_property"]
    m["formal.keys_per_s"] = metric(tracer.counts["formal.box_keys"] / formal_s if formal_s else 0.0, "1/s")
    m["exact.poly_self_frac"] = metric(poly, "frac")
    m["exact.fraction_self_frac"] = metric(frac, "frac")
    m["trace.overhead_frac"] = metric(traced_wall / plain_wall - 1.0, "frac")
    return plain + traced + profiled, m


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="smallest input of the workload (for the smoke check)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    import_s = bootstrap()
    args = parse_args(argv)
    WORK_PARENT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    try:
        workload, runner, setup_s = setup(args.workload, args.seed, args.small, work)
        # keep the harness's own objects out of the collector's way, as a
        # fresh CLI process would not have them
        gc.collect()
        gc.freeze()
        if args.trace:
            span_path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            outcomes, metrics = per_layer(workload, runner, args.seconds, span_path)
        else:
            outcomes, _ = timed_passes(workload, runner, workload.passes(args.seconds))
            metrics = end_to_end(outcomes, import_s + setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [o for o in outcomes if o.error]
    for o in failures[:10]:
        sys.stderr.write(f"perfbench: FAILED {o.cmd.key}: {o.error}\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
