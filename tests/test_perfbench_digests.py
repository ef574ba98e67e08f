"""Report drift check: every command of each benchmark workload's smallest
stream (`--small`) must print the report whose sha256 `perfbench/digests.json`
records, so a change in report bytes fails here and not only when the
benchmark runs.  The workload builders are loaded by path, as the benchmark
loads them."""

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from chiralva.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_small_stream_reports_match_recorded_digests(tmp_path, name):
    work = tmp_path / "inputs"
    workload = WORKLOADS.build(name, work, seed=1, small=True)
    assert workload.stream
    for cmd in workload.stream:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(cmd.concrete(str(work), str(ROOT)))
        report = out.getvalue().replace(str(work), WORKLOADS.WORK).replace(str(ROOT), WORKLOADS.ROOT)
        assert hashlib.sha256(report.encode("utf-8")).hexdigest() == DIGESTS[cmd.key], cmd.key
        if cmd.expect_code is not None:
            assert code == cmd.expect_code, cmd.key
