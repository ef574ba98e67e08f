from collections import Counter
from pathlib import Path

import pytest

from chiralva import chiral, serialize, vertex
from chiralva.chiral import ChiralData, bump_b_entry, check_all_chiral
from chiralva.equivalence import (
    chiral_to_va,
    roundtrip_check,
    roundtrip_chiral,
    roundtrip_va,
    va_to_chiral,
)
from chiralva.cli import main
from chiralva.errors import ContractError
from chiralva.exact import Q
from chiralva.fixtures import (
    a3_basis_changed,
    a3_va,
    corpus,
    elementary_rational_matrix,
    trivial_rank1,
)
from chiralva.vertex import (
    VAData,
    bump_structure_constant,
    check_all_va,
    equal_tables,
    tensor_with_ox,
    transform_basis,
    unit,
    vscale,
)

ROOT = Path(__file__).resolve().parents[1]


def test_va_to_chiral_layer_examples():
    A = va_to_chiral(tensor_with_ox(a3_va()))
    assert A.b_layer(1, -2, 0, 0) == unit(2)  # B^{-2}_0(t, 1) = t^2
    assert A.b_layer(1, -2, 0, 1) == vscale(Q(-1), unit(1))  # -t
    assert A.b_layer(1, -2, 0, 2) == {}
    # vanishing above the regular bound
    for n in range(0, 4):
        for m in range(0, 4):
            assert A.b_layer(1, n, 1, m) == {}


def test_va_to_chiral_output_is_a_chiral_algebra():
    A = va_to_chiral(tensor_with_ox(a3_va()))
    assert all(r.passed for r in check_all_chiral(A))


def test_va_to_chiral_rejects_broken_input_by_name():
    bad = bump_structure_constant(a3_va(), 1, -2, 0, 0)
    with pytest.raises(ContractError) as err:
        va_to_chiral(bad)
    assert "axiom" in str(err.value)


def test_chiral_to_va_recovers_modes_and_axioms():
    A = va_to_chiral(tensor_with_ox(a3_va()))
    V = chiral_to_va(A)
    assert V.mode(1, -2, 0) == unit(2)
    assert all(r.passed for r in check_all_va(V))


def test_chiral_to_va_empty_algebra():
    empty = ChiralData(VAData(0, "Q[z]", (), {}, ()))
    V = chiral_to_va(empty)
    assert V.rank == 0 and V.structure == {}


def test_roundtrip_va_and_chiral_exact_on_a3():
    V = tensor_with_ox(a3_va())
    assert roundtrip_va(V).passed
    A = va_to_chiral(V, checked=False)
    assert roundtrip_chiral(A).passed
    assert roundtrip_check(V).passed
    assert roundtrip_check(A).passed


def test_roundtrip_corpus():
    for name, V in corpus():
        assert roundtrip_va(V).passed, name
        A = va_to_chiral(V, checked=False)
        assert roundtrip_chiral(A).passed, name


def test_functors_share_the_m0_layer():
    # A chiral algebra holds its m = 0 layer as a Q[z] table: translating a
    # Q[z] table wraps that object, and translating back returns it.
    V = tensor_with_ox(a3_va())
    A = va_to_chiral(V)
    assert A.va is V
    assert chiral_to_va(A) is A.va
    assert va_to_chiral(a3_va()).va.coeff_ring == "Q[z]"
    with pytest.raises(ContractError):
        ChiralData(a3_va())


def test_roundtrip_builds_each_triple_table_once(monkeypatch):
    # Both axiom suites of a roundtrip read the iterated-mode tables of one
    # VAData, so each basis triple's table is built once, from a VA document
    # over Q[z] and from a chiral one.  A document over Q is read over Q[z]
    # by `tensor_with_ox`, whose object shares the cache of the Q one, so
    # its tables are built once too.
    built = Counter()
    real = vertex.integer_modes

    def counting(V, *triple):
        built[triple] += ("modes", *triple) not in V._cache
        return real(V, *triple)

    for module in (vertex, chiral):
        monkeypatch.setattr(module, "integer_modes", counting)
    inputs = [(name, x) for name, V in corpus()
              for x in (V, serialize.loads(serialize.dumps(va_to_chiral(V, checked=False))))]
    inputs += [(name, serialize.load_path(ROOT / "fixtures" / f"{name}.json")) for name in ("a3", "trivial")]
    assert [x.coeff_ring for name, x in inputs[-2:]] == ["Q", "Q"]
    for name, x in inputs:
        built.clear()
        assert roundtrip_check(x).passed, name
        assert +built and set((+built).values()) == {1}, name


def test_roundtrip_runs_each_closure_certificate_once(monkeypatch, capsys, tmp_path):
    # The VA suite and the chiral suite of a round trip both close the
    # Jacobi identity on one m = 0 table, whose cache keeps the certificates'
    # verdict, so each certificate runs once, from a VA document (random-2)
    # and from a chiral one.
    calls = Counter()
    for name in ("_locality_witness", "_associativity_witness"):
        def counting(*args, _name=name, _real=getattr(vertex, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(vertex, name, counting)
    random2 = tmp_path / "random-2.json"
    random2.write_text(serialize.dumps(dict(corpus())["random-2"]), encoding="utf-8")
    for path in (random2, ROOT / "fixtures" / "a3_chiral.json"):
        calls.clear()
        assert main(["roundtrip", str(path)]) == 0
        assert "roundtrip: EXACT" in capsys.readouterr().out
        assert calls == {"_locality_witness": 1, "_associativity_witness": 1}, path


def test_roundtrip_reads_a_q_table_over_q_z_once(monkeypatch, capsys):
    # `roundtrip fixtures/a3.json` indexes the triples of the loaded Q table
    # and of its one Q[z] reading, which goes to a chiral algebra and back;
    # the reading used to be built a second time for the final comparison.
    calls = []
    real = vertex._index_triples

    def counting(pairs):
        calls.append(len(pairs))
        return real(pairs)

    monkeypatch.setattr(vertex, "_index_triples", counting)
    assert main(["roundtrip", str(ROOT / "fixtures" / "a3.json")]) == 0
    assert "roundtrip: EXACT" in capsys.readouterr().out
    assert len(calls) == 2


def test_basis_change_functoriality_smoke():
    V = tensor_with_ox(a3_va())
    p_cols, p_inv = elementary_rational_matrix(3, seed=13)
    W = transform_basis(V, p_cols, p_inv)
    assert all(r.passed for r in check_all_va(W))
    assert roundtrip_va(W).passed
    back = transform_basis(W, p_inv, p_cols)
    ok, witness = equal_tables(V, back)
    assert ok, witness
    assert all(r.passed for r in check_all_va(a3_basis_changed(seed=7)))


def test_mutated_chiral_is_rejected_not_silently_roundtripped():
    A = va_to_chiral(tensor_with_ox(a3_va()), checked=False)
    broken = bump_b_entry(A, 1, -1, 0, 1, 0)  # explicit layer breaking the recursion
    with pytest.raises(ContractError):
        chiral_to_va(broken)


def test_redundant_consistent_override_layer_still_roundtrips():
    A = va_to_chiral(tensor_with_ox(a3_va()), checked=False)
    layer = A.b_layer(1, -2, 0, 1)  # matches the closed form exactly
    redundant = ChiralData(A.va, {(1, -2, 0, 1): layer})
    assert all(r.passed for r in check_all_chiral(redundant))
    assert roundtrip_chiral(redundant).passed


def test_axiom_transport_on_valid_and_mutated_input():
    V = tensor_with_ox(a3_va())
    pairs = []
    for site in [(1, -2, 0, 0), (0, -1, 0, 0), (1, -1, 1, 2)]:
        pairs.append(bump_structure_constant(V, *site))
    pairs.append(V)
    for W in pairs:
        va_reports = {r.name: r.passed for r in check_all_va(W)}
        A = va_to_chiral(W, checked=False)
        ch_reports = {r.name: r.passed for r in check_all_chiral(A)}
        from chiralva.chiral import dmodule_parts

        parts = dmodule_parts(A)
        assert va_reports["skew-symmetry"] == ch_reports["chiral-skew"]
        assert va_reports["jacobi"] == ch_reports["chiral-jacobi"]
        assert va_reports["d-derivative"] == parts["b"]["passed"]


def test_trivial_algebra_roundtrip():
    V = tensor_with_ox(trivial_rank1())
    assert roundtrip_va(V).passed


def test_roundtrip_check_rejects_other_types():
    with pytest.raises(ContractError):
        roundtrip_check(42)
