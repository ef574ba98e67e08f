"""Property tests over generated commutative vertex algebras.

Every algebra is built by `truncated_poly_va` or `square_zero_va` with a
random nilpotent derivation, so `make_commutative_va` validates it on its
own: the known answer does not come from the checkers under test.
"""

import math
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from chiralva import serialize
from chiralva.chiral import _keyed_sweep, bump_b_entry, check_all_chiral, check_chiral_skew, dmodule_parts
from chiralva.equivalence import va_to_chiral
from chiralva.fixtures import square_zero_va, truncated_poly_va
from chiralva.vertex import (
    bump_structure_constant,
    check_all_va,
    equal_tables,
    integer_modes,
    iterated_modes,
    mutation_sites,
    tensor_with_ox,
)
from test_vertex import bump_by
from test_chiral import (
    _box,
    gather_keyed_sweep,
    gather_keys,
    gather_sums,
    reference_check_chiral_skew,
    reference_dmodule_parts,
    scatter_sums,
    triple_tables,
)

_RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _truncated(draw):
    # (c2 t^2 + c3 t^3) d/dt raises the t-degree, so it is nilpotent on
    # Q[t]/(t^order); the draw leans to the largest order
    order = 5 - draw(st.integers(1, 4))
    return truncated_poly_va(order, [0, 0, draw(_RATIONAL), draw(_RATIONAL)])


@st.composite
def _square_zero(draw):
    # r * [[pq, q^2], [-p^2, -pq]] has trace 0 and determinant 0: nilpotent
    p, q, r = draw(st.integers(-2, 2)), draw(st.integers(-2, 2)), draw(_RATIONAL)
    return square_zero_va((r * p * q, r * q * q, -r * p * p, -r * p * q))


ALGEBRAS = st.one_of(_truncated(), _square_zero())
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@SETTINGS
@given(ALGEBRAS)
def test_generated_algebras_pass_all_seven_checkers(V0):
    V = tensor_with_ox(V0)
    reports = check_all_va(V) + check_all_chiral(va_to_chiral(V, checked=False))
    assert len(reports) == 7
    assert all(r.passed for r in reports), [r.headline() for r in reports if not r.passed]


@SETTINGS
@given(ALGEBRAS, st.integers(0, 59))
def test_mutants_get_pairwise_equal_verdicts_from_both_sides(V0, pick):
    V = tensor_with_ox(V0)
    sites = mutation_sites(V, 60)
    if not sites:
        return
    mutant = bump_structure_constant(V, *sites[pick % len(sites)])
    va = {r.name: r.passed for r in check_all_va(mutant)}
    A = va_to_chiral(mutant, checked=False)
    ch = {r.name: r.passed for r in check_all_chiral(A)}
    assert va["skew-symmetry"] == ch["chiral-skew"]
    assert va["jacobi"] == ch["chiral-jacobi"]
    assert va["d-derivative"] == dmodule_parts(A)["b"]["passed"]


@SETTINGS
@given(ALGEBRAS, st.integers(0, 59), st.integers(1, 2))
def test_serialize_round_trips_byte_exactly(V0, pick, m):
    V = tensor_with_ox(V0)
    A = va_to_chiral(V, checked=False)
    i, n, j = min(A.m0)
    layered = bump_b_entry(A, i, n - m, j, m, pick % A.rank)  # an explicit layer
    for x in (V0, V, A, layered):
        text = serialize.dumps(x)
        parsed = serialize.loads(text)
        assert serialize.dumps(parsed) == text
    assert equal_tables(V, serialize.loads(serialize.dumps(V))) == (True, None)
    assert serialize.loads(serialize.dumps(layered)).overrides == layered.overrides


@SETTINGS
@given(ALGEBRAS, st.integers(0, 59), st.booleans())
def test_one_pass_chiral_checks_match_their_oracles(V0, pick, mutate):
    # The keyed scatter against the gathered keys, and one-section skew and
    # D-module checks against the full sweep over n, on valid algebras and on
    # random single-site mutants.
    V = tensor_with_ox(V0)
    sites = mutation_sites(V, 60)
    if mutate and sites:
        V = bump_structure_constant(V, *sites[pick % len(sites)])
    A = va_to_chiral(V, checked=False)
    blo, bhi, lo, hi = _box(A)
    assert _keyed_sweep(A, blo, bhi, lo, hi) == gather_keyed_sweep(A, blo, bhi, lo, hi)
    keys = gather_keys(blo, lo, hi, blo)
    for triple in product(range(A.rank), repeat=3):
        tables = triple_tables(A, *triple)
        assert scatter_sums(blo, blo, tables) == gather_sums(keys, tables), triple
    assert check_chiral_skew(A) == reference_check_chiral_skew(A)
    assert dmodule_parts(A) == reference_dmodule_parts(A)


@SETTINGS
@given(ALGEBRAS, st.integers(0, 59), st.one_of(st.none(), _RATIONAL))
def test_integer_view_is_the_exact_tables_times_lcm_squared(V0, pick, bump):
    # On a generated algebra, or a mutant bumped by a rational at one site:
    # with L the lcm of the denominators of the structure scalars, every
    # entry of the integer view is an int equal to L^2 times the exact
    # entry, and an integral table (L = 1) is its own view.
    V = tensor_with_ox(V0)
    sites = mutation_sites(V, 60)
    if bump and sites:
        i, n, j, coord = sites[pick % len(sites)]
        V = bump_by(V, (i, n, j), coord, bump)
    L = math.lcm(*(Fraction(x).denominator for vec in V.structure.values() for x in vec.values()))
    for triple in product(range(V.rank), repeat=3):
        exact = iterated_modes(V, *triple)
        view = integer_modes(V, *triple)
        if L == 1:
            assert view[0] is exact[0] and view[1] is exact[1]
        for e, w in zip(exact, view):
            assert w == {pq: {cd: L * L * x for cd, x in vec.items()} for pq, vec in e.items()}
            assert all(type(x) is int for vec in w.values() for x in vec.values())
