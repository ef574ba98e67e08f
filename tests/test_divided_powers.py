"""Divided-power sections against the ordinary-power oracle.

`chiralva.chiral` keeps layer k of a section as k! a_k, the coefficient of
d1^(k) = d1^k/k!, and entry (k, l) of a triple-diagonal section as
k! l! a_{k,l}.  `ordinary_powers` computes the same objects in ordinary
powers, as the package did before; here every check must report alike in
both, and every section and composition must be the oracle's rescaled by
`divided` / `divided3`.
"""

from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chiralva.chiral import (
    NOT_SWEPT,
    ChiralData,
    ChiralGenerator,
    bump_b_entry,
    check_all_chiral,
    check_chiral_skew,
    check_dmodule_morphism,
    compose_left,
    compose_right,
    mu_eval,
    o_linearity_witness,
)
from chiralva.equivalence import va_to_chiral
from chiralva.errors import ContractError
from chiralva.exact import Q
from chiralva.fixtures import corpus, truncated_poly_va
from chiralva.vertex import tensor_with_ox, unit, vadd
from ordinary_powers import (
    divided,
    divided3,
    ordinary_b_layer,
    ordinary_basis_section,
    ordinary_check_chiral_skew,
    ordinary_check_dmodule_morphism,
    ordinary_compose_left,
    ordinary_compose_right,
)
from test_chiral import criterion_7_mutants, explicit_layer_mutants, redundant_layer, redundant_layer_families
from test_properties import ALGEBRAS, SETTINGS


def corpus_families():
    for name, V in corpus():
        yield name, va_to_chiral(V, checked=False)


@pytest.mark.parametrize("window", [None, (-9, 4), (-20, 0)], ids=["default", "window-9:4", "window-20:0"])
def test_checks_report_as_in_ordinary_powers(window):
    # Skew and the D-module check on the corpus, the 211 criterion-7 mutants
    # and the 150 explicit layers at their closed form (on the recursion);
    # on the 150 explicit-layer mutants (off it) both stop at the gate.
    reports = failing = gated = 0
    for family in (corpus_families(), criterion_7_mutants(), redundant_layer_families(),
                   explicit_layer_mutants()):
        for where, A in family:
            for check, oracle in ((check_chiral_skew, ordinary_check_chiral_skew),
                                  (check_dmodule_morphism, ordinary_check_dmodule_morphism)):
                if A.off_recursion() is not None:
                    report = check(A, window)
                    assert not report.passed and report.window == NOT_SWEPT, where
                    gated += 1
                    continue
                want = oracle(A, window)
                assert check(A, window) == want, (where, check.__name__)
                reports += 1
                failing += not want.passed
    assert reports == 2 * (8 + 211 + 150) and gated == 2 * 150 and failing > 0


def assert_divided_matches_ordinary(A: ChiralData, gens, ms) -> int:
    """On the recursion, every basis section around the support is the
    oracle's with layer m times m!, and both compositions at each generator of
    `gens` x `ms` are the oracle's with entry (k, l) times k! l!.  Returns the
    nonzero entries seen."""
    assert A.off_recursion() is None
    lo, hi = A.effective_support() or (0, -1)
    seen = 0
    for i, j in product(range(A.va.rank), repeat=2):
        for n in range(lo - 3, hi + 2):
            ref = ordinary_basis_section(A, i, n, j)
            assert A.basis_section(i, n, j) == divided(ref), (i, n, j)
            seen += len(ref)
    for (u, v, w), (m1, m2, m3) in product(gens, ms):
        for core, oracle in ((compose_left, ordinary_compose_left), (compose_right, ordinary_compose_right)):
            ref = oracle(A, m1, m2, m3, u, v, w)
            assert core(A, m1, m2, m3, u, v, w) == divided3(ref), (core.__name__, m1, m2, m3)
            seen += len(ref)
    return seen


def assert_gated_to_closed_forms(A: ChiralData, gens, ms) -> None:
    """Off the recursion, every basis section around the support is the
    closed form, the oracle's section of the m = 0 layer alone rescaled, and
    mu_eval and both compositions at each generator stop at the gate."""
    closed, gate = ChiralData(A.va), o_linearity_witness(A)
    assert gate is not None
    lo, hi = A.effective_support()
    for i, j in product(range(A.va.rank), repeat=2):
        for n in range(lo - 3, hi + 2):
            assert A.basis_section(i, n, j) == divided(ordinary_basis_section(closed, i, n, j)), (i, n, j)
    for (u, v, w), (m1, m2, m3) in product(gens, ms):
        for call in (lambda: mu_eval(A, ChiralGenerator(m1, u, v)),
                     lambda: compose_left(A, m1, m2, m3, u, v, w), lambda: compose_right(A, m1, m2, m3, u, v, w)):
            with pytest.raises(ContractError) as err:
                call()
            assert str(err.value) == gate


def _vectors(rank: int):
    coeff = st.builds(Q, st.integers(-2, 2), st.integers(1, 2))
    term = st.tuples(st.integers(0, rank - 1), st.integers(0, 1))
    return st.dictionaries(term, coeff, max_size=2).map(lambda x: vadd({}, x))


@st.composite
def _families(draw):
    """A generated algebra over Q[z], as its chiral algebra or with one
    explicit layer, at its closed form or bumped off the recursion, and three
    generator vectors."""
    V = tensor_with_ox(draw(ALGEBRAS))
    A = va_to_chiral(V, checked=False)
    if draw(st.booleans()) and A.effective_support():
        lo, hi = A.effective_support()
        i, j, coord = (draw(st.integers(0, V.rank - 1)) for _ in range(3))
        key = (i, draw(st.integers(lo - 2, hi)), j, draw(st.integers(1, 2)))
        bumped = bump_b_entry(A, *key, coord)
        A = bumped if draw(st.booleans()) else ChiralData(A.va, {key: ordinary_b_layer(A, *key)})
    gens = [tuple(draw(_vectors(V.rank)) for _ in range(3)) for _ in range(2)]
    return A, gens


RANDOM_2 = va_to_chiral(dict(corpus())["random-2"], checked=False)
LADDER_6 = va_to_chiral(tensor_with_ox(truncated_poly_va(6, [0, 0, 1, Q(1, 2)])), checked=False)


@SETTINGS
@given(_families(), st.tuples(*(st.integers(-4, 0) for _ in range(3))))
@example((RANDOM_2, [(unit(1), unit(2), vadd(unit(0), unit(3)))]), (-3, -2, -1))
@example((LADDER_6, [(unit(1), unit(2), unit(0))]), (-3, -2, -1))
def test_divided_sections_are_the_ordinary_ones_rescaled(family, ms):
    A, gens = family
    if A.off_recursion() is None:
        assert_divided_matches_ordinary(A, gens, [ms])
    else:
        assert_gated_to_closed_forms(A, gens, [ms])


@pytest.mark.parametrize("name", ["random-2", "ladder-6"])
@pytest.mark.parametrize("layer", [None, 1, 2])
def test_rational_tables_rescale_alike_on_and_off_the_recursion(name, layer):
    # random-2 (L = 9) and ladder order 6 (L = 24), whose compositions carry
    # 1/L^2, on the recursion, also with one explicit layer at its closed
    # form; with that layer bumped off it, the sections are the closed forms
    # and the gate refuses mu_eval and the compositions
    A = RANDOM_2 if name == "random-2" else LADDER_6
    assert A.va._scale == (9 if name == "random-2" else 24)
    families = [A]
    if layer:
        i, n, j = min(A.va.structure)
        key = (i, n - layer, j, layer)
        families = [ChiralData(A.va, {key: ordinary_b_layer(A, *key)}), bump_b_entry(A, *key, 0)]
        assert [B.off_recursion() for B in families] == [None, key]
    gens = [(unit(1), unit(2), unit(0)), (unit(0), vadd(unit(1), unit(2)), unit(1))]
    box = list(product(range(-3, 0), repeat=3))
    assert assert_divided_matches_ordinary(families[0], gens, box) > 0
    for B in families[1:]:
        assert_gated_to_closed_forms(B, gens, box)


def _all_ints(vectors) -> bool:
    return all(type(x) is int for vec in vectors for x in vec.values())


@pytest.mark.parametrize("name", ["a3", "a3-basis-change", "random-1", "random-3", "random-4"])
def test_integral_tables_keep_every_section_layer_an_int(name):
    # The closed form m! B^n_m = (-1)^m B^{n+m}_0 carries no 1/m!, so on an
    # integral table the checkers and the compositions stay on ints: every
    # layer of every cached section, the explicit layer read as its closed
    # form, and every composition entry, on the plain family and with a
    # redundant explicit layer.
    for A in (va_to_chiral(dict(corpus())[name], checked=False), redundant_layer(name)):
        assert A.va._scale == 1
        assert all(r.passed for r in check_all_chiral(A))
        entries = []
        for gens in product(range(A.va.rank), repeat=3):
            for core in (compose_left, compose_right):
                entries += core(A, -2, -2, -1, *map(unit, gens)).values()
        assert entries and _all_ints(entries)
        layers = [vec for key, sec in A._cache.items() if key[0] == "sec" for vec in sec.values()]
        layers += [A.b_layer(*key) for key in A.overrides]
        assert layers and _all_ints(layers)

