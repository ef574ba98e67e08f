"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible under pytest -s or in the
captured output on failure) and enforces the stated runtime budget.
"""

import random
import time

from chiralva.chiral import check_all_chiral, dmodule_parts
from chiralva.cli import main as cli_main
from chiralva import serialize
from chiralva.equivalence import chiral_to_va, roundtrip_chiral, roundtrip_va, va_to_chiral
from chiralva.exact import Q
from chiralva.fixtures import a3_va, corpus
from chiralva.formal import (
    ExponentBox,
    LaurentWindow,
    fundamental_delta_property,
    identity_three_term,
    identity_two_term,
)
from chiralva.vertex import (
    bump_structure_constant,
    check_all_va,
    mutation_sites,
    tensor_with_ox,
)

import io
from contextlib import redirect_stdout
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _report(criterion, passed, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {status} ({elapsed:.2f}s, budget {budget}s)")
    assert passed, f"criterion {criterion}"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_delta_identities():
    start = time.time()
    box = ExponentBox.cube(("x0", "x1", "x2"), -6, 6)
    ok = identity_two_term(box).passed and identity_three_term(box).passed
    _report("1 (delta identities on [-6,6]^3)", ok, time.time() - start, 5)


def test_criterion_2_fundamental_property():
    start = time.time()
    box = ExponentBox.cube(("x1", "x2"), -6, 6)
    rng = random.Random(91)
    ok = True
    for _ in range(20):
        coeffs = {}
        for _ in range(rng.randint(1, 7)):
            key = (rng.randint(-4, 4), rng.randint(-4, 4))
            coeffs[key] = coeffs.get(key, Q(0)) + Q(rng.randint(-5, 5), rng.randint(1, 3))
        window = LaurentWindow(box, {k: v for k, v in coeffs.items() if v})
        ok = ok and fundamental_delta_property(window, box, support_is_complete=True).passed
    _report("2 (fundamental property, 20 randomized)", ok, time.time() - start, 5)


def test_criterion_3_va_axiom_suite():
    start = time.time()
    reports = check_all_va(a3_va())
    ok = all(r.passed for r in reports)
    _report("3 (A3 vertex-algebra axiom suite)", ok, time.time() - start, 10)


def test_criterion_4_chiral_axioms_of_translated_a3():
    start = time.time()
    A = va_to_chiral(tensor_with_ox(a3_va()), checked=False)
    reports = check_all_chiral(A)
    ok = all(r.passed for r in reports)
    _report("4 (chiral axioms of translated A3)", ok, time.time() - start, 30)


def test_criterion_5_va_axioms_of_translated_back():
    start = time.time()
    A = va_to_chiral(tensor_with_ox(a3_va()), checked=False)
    V = chiral_to_va(A, checked=False)
    ok = all(r.passed for r in check_all_va(V))
    _report("5 (vertex axioms of the translated-back algebra)", ok, time.time() - start, 10)


def test_criterion_6_roundtrips_on_corpus():
    start = time.time()
    fixtures = corpus()
    assert len(fixtures) >= 8  # a3, trivial, basis change, >= 5 randomized
    ok = True
    for name, V in fixtures:
        ok = ok and roundtrip_va(V).passed
        A = va_to_chiral(V, checked=False)
        ok = ok and roundtrip_chiral(A).passed
    _report("6 (both roundtrips exact on corpus)", ok, time.time() - start, 60)


def test_criterion_7_cross_checker_agreement():
    start = time.time()
    ok = True
    for name, V in corpus():
        for site in mutation_sites(V, 30):
            mutant = bump_structure_constant(V, *site)
            va = {r.name: r.passed for r in check_all_va(mutant)}
            A = va_to_chiral(mutant, checked=False)
            ch = {r.name: r.passed for r in check_all_chiral(A)}
            parts = dmodule_parts(A)
            agree = (
                va["skew-symmetry"] == ch["chiral-skew"]
                and va["jacobi"] == ch["chiral-jacobi"]
                and va["d-derivative"] == parts["b"]["passed"]
            )
            if not agree:
                ok = False
                print(f"  disagreement: {name} site {site}: va={va} chiral={ch}")
    _report("7 (cross-checker verdict agreement, 30 mutations/fixture)", ok, time.time() - start, 600)


def test_criterion_8_mutation_sensitivity():
    # perturb every nonzero table entry by +1.e0, the unit coordinate, the
    # way the negative controls are built everywhere else in the suite
    start = time.time()
    v = a3_va()
    missed = []
    for key in sorted(v.structure):
        mutant = bump_structure_constant(v, *key, 0)
        if all(r.passed for r in check_all_va(mutant)):
            missed.append(key)
    _report("8 (every +1 perturbation of A3 detected)", not missed, time.time() - start, 600)


def test_criterion_9_determinism(tmp_path):
    start = time.time()
    ok = True
    # repeated CLI runs produce byte-identical reports
    for args in (
        ["check-va", str(FIXTURES / "a3.json")],
        ["check-chiral", str(FIXTURES / "a3_chiral.json")],
        ["delta-suite"],
        ["roundtrip", str(FIXTURES / "trivial.json")],
    ):
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(args)
            outs.append((code, buf.getvalue()))
        ok = ok and outs[0] == outs[1]
    # schema round-trips byte-exactly on every fixture file
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        ok = ok and serialize.dumps(serialize.loads(text)) == text
    _report("9 (deterministic reports, byte-exact schema roundtrip)", ok, time.time() - start, 600)
