"""Byte-for-byte golden reports for the CLI on the shipped fixtures.

Criterion 9 only checks that two runs agree with each other; these goldens
pin the exact bytes.  Re-record them on purpose only:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from chiralva.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

VA_FILES = ("a3", "a3_mutated", "a3_qz", "trivial")
CHIRAL_FILES = ("a3_chiral",)

# (golden file stem, argv, expected exit code); paths are relative to the root
CASES = (
    [(f"check-va__{f}", ["check-va", f"fixtures/{f}.json"], 1 if f == "a3_mutated" else 0)
     for f in VA_FILES]
    + [(f"check-chiral__{f}", ["check-chiral", f"fixtures/{f}.json"], 0) for f in CHIRAL_FILES]
    + [(f"roundtrip__{f}", ["roundtrip", f"fixtures/{f}.json"], 1 if f == "a3_mutated" else 0)
       for f in VA_FILES + CHIRAL_FILES]
    + [(f"to-chiral__{f}", ["to-chiral", f"fixtures/{f}.json"], 1 if f == "a3_mutated" else 0)
       for f in VA_FILES]
    + [(f"to-va__{f}", ["to-va", f"fixtures/{f}.json"], 0) for f in CHIRAL_FILES]
    + [("compose-diff__readme",
        ["compose-diff", "fixtures/a3_chiral.json", "-1", "-1", "-1", "1", "t", "1"], 0)]
)


def run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("stem,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_report(monkeypatch, stem, argv, code):
    monkeypatch.chdir(ROOT)
    got_code, out = run(argv)
    assert got_code == code
    assert out == (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv, code in CASES:
        got_code, out = run(argv)
        if got_code != code:
            sys.exit(f"{stem}: exit {got_code}, expected {code}")
        (GOLDEN / f"{stem}.txt").write_text(out, encoding="utf-8")
        print(f"recorded {stem}")
