"""Byte-for-byte golden reports for the CLI on the shipped fixtures, on
one criterion-7 mutant per corpus algebra, and on built inputs for paths the
corpus does not reach (explicit B layers, a widened chiral window, the
compositions of tables whose structure scalars are not integers).

Criterion 9 only checks that two runs agree with each other; these goldens
pin the exact bytes, and the mutant reports pin which witness each checker
finds first.  Re-record them on purpose only:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from chiralva import serialize
from chiralva.chiral import ChiralData, bump_b_entry
from chiralva.cli import main
from chiralva.equivalence import va_to_chiral
from chiralva.exact import Q
from chiralva.fixtures import corpus, truncated_poly_va
from chiralva.vertex import bump_structure_constant, tensor_with_ox

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# ideal_t3 is the ideal (t) of Q[t]/(t^4) with D = t^2 d/dt: a member without a unit
VA_FILES = ("a3", "a3_mutated", "a3_qz", "trivial", "ideal_t3")
CHIRAL_FILES = ("a3_chiral", "ideal_t3_chiral")

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
    # b_2 a = a: at the default windows only the closure certificates fail it
    + [(f"{cmd}__{f}{tag}", [cmd, f"fixtures/{f}.json", *window], 1)
       for cmd, f in (("check-va", "high_support"), ("check-chiral", "high_support_chiral"))
       for tag, window in (("", []), ("__window_-1_4", ["--window=-1:4"]))]
)

# One criterion-7 mutant per corpus algebra, as (algebra, mutation site): the
# first site of `mutation_sites(V, 30)` whose VA Jacobi check fails in the
# sweep (trivial-rank1 has none, so its first site).
MUTANTS = (
    ("a3", (0, -1, 0, 0)),
    ("trivial-rank1", (0, -1, 0, 0)),
    ("a3-basis-change", (0, -2, 0, 0)),
    ("random-0", (0, -1, 0, 0)),
    ("random-1", (0, -1, 0, 0)),
    ("random-2", (0, -1, 0, 0)),
    ("random-3", (0, -1, 0, 0)),
    ("random-4", (0, -1, 0, 0)),
)

# (golden file stem, argv, algebra, site); argv paths are relative to the
# directory the mutant files are written to
MUTANT_CASES = [
    (f"{cmd}__{name}__{'_'.join(map(str, site))}",
     [cmd, f"mutants/{name}.{ext}.json", "--format", "json"], name, site)
    for name, site in MUTANTS
    for cmd, ext in (("check-va", "va"), ("check-chiral", "ch"))
]


def write_mutant(directory: Path, name: str, site) -> None:
    mutant = bump_structure_constant(dict(corpus())[name], *site)
    (directory / "mutants").mkdir(exist_ok=True)
    (directory / "mutants" / f"{name}.va.json").write_text(serialize.dumps(mutant), encoding="utf-8")
    chiral = serialize.dumps(va_to_chiral(mutant, checked=False))
    (directory / "mutants" / f"{name}.ch.json").write_text(chiral, encoding="utf-8")


def layer_bumped_a3() -> ChiralData:
    """a3 with +1 on one coordinate of its m = 1 layer B^{-1}_1(t, 1): an
    explicit layer that breaks the recursion."""
    return bump_b_entry(va_to_chiral(dict(corpus())["a3"], checked=False), 1, -1, 0, 1, 0)


def redundant_layer_trivial() -> ChiralData:
    """trivial-rank1 with one explicit m = 1 layer equal to its closed form:
    the same family, checked on the explicit-layer path."""
    A = va_to_chiral(dict(corpus())["trivial-rank1"], checked=False)
    i, n, j = min(A.va.structure)
    layer = {(i, n - 1, j, 1): A.b_layer(i, n - 1, j, 1)}
    return ChiralData(A.va, layer)


def a3_chiral_fixture() -> ChiralData:
    return serialize.load_path(ROOT / "fixtures" / "a3_chiral.json")


def a3_chiral_mutant() -> ChiralData:
    return va_to_chiral(bump_structure_constant(dict(corpus())["a3"], 0, -1, 0, 0), checked=False)


def random2_chiral() -> ChiralData:
    """random-2: its structure scalars have denominators with lcm 9."""
    return va_to_chiral(dict(corpus())["random-2"], checked=False)


def ladder6_chiral() -> ChiralData:
    """Ladder order 6 over Q[z]: its structure scalars have denominators
    with lcm 24."""
    return va_to_chiral(tensor_with_ox(truncated_poly_va(6, [0, 0, 1, Q(1, 2)])), checked=False)


# (golden file stem, argv, function that builds the input written to `input.json` in
# the directory the command runs in, expected exit code)
BUILT_CASES = (
    ("check-chiral__a3__layer_1_-1_0_1_0",
     ["check-chiral", "input.json", "--format", "json"], layer_bumped_a3, 1),
    ("check-chiral__trivial-rank1__redundant_layer",
     ["check-chiral", "input.json", "--format", "json"], redundant_layer_trivial, 0),
    ("check-chiral__a3_chiral__window_-8_2",
     ["check-chiral", "input.json", "--window=-8:2"], a3_chiral_fixture, 0),
    ("check-chiral__a3__0_-1_0_0__window_-8_2",
     ["check-chiral", "input.json", "--window=-8:2"], a3_chiral_mutant, 1),
    # generators whose left, right and permuted sections each hold a
    # non-integer coefficient, on tables with non-integral scalars
    ("compose-diff__random-2__-3_-3_-2_t_t2_1",
     ["compose-diff", "input.json", "--", "-3", "-3", "-2", "t", "t2", "1"], random2_chiral, 0),
    ("compose-diff__ladder6__-3_-2_-1_t_t2_1",
     ["compose-diff", "input.json", "--", "-3", "-2", "-1", "t", "t2", "1"], ladder6_chiral, 0),
)


def write_built(directory: Path, build) -> None:
    (directory / "input.json").write_text(serialize.dumps(build()), encoding="utf-8")


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


@pytest.mark.parametrize("stem,argv,name,site", MUTANT_CASES, ids=[c[0] for c in MUTANT_CASES])
def test_golden_mutant_report(monkeypatch, tmp_path, stem, argv, name, site):
    write_mutant(tmp_path, name, site)
    monkeypatch.chdir(tmp_path)
    got_code, out = run(argv)
    assert got_code == (0 if json.loads(out)["passed"] else 1)
    assert out == (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem,argv,build,code", BUILT_CASES, ids=[c[0] for c in BUILT_CASES])
def test_golden_built_report(monkeypatch, tmp_path, stem, argv, build, code):
    write_built(tmp_path, build)
    monkeypatch.chdir(tmp_path)
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
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for stem, argv, name, site in MUTANT_CASES:
            write_mutant(Path(tmp), name, site)
            _code, out = run(argv)
            (GOLDEN / f"{stem}.txt").write_text(out, encoding="utf-8")
            print(f"recorded {stem}")
        for stem, argv, build, code in BUILT_CASES:
            write_built(Path(tmp), build)
            got_code, out = run(argv)
            if got_code != code:
                sys.exit(f"{stem}: exit {got_code}, expected {code}")
            (GOLDEN / f"{stem}.txt").write_text(out, encoding="utf-8")
            print(f"recorded {stem}")
        os.chdir(ROOT)
