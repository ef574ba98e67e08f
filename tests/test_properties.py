"""Property tests over generated commutative vertex algebras.

Every algebra is built by `truncated_poly_va` or `square_zero_va` with a
random nilpotent derivation, so `make_commutative_va` validates it on its
own: the known answer does not come from the checkers under test.
"""

import json
import math
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from chiralva import serialize
from chiralva.chiral import (
    ChiralData,
    _keyed_sweep,
    bump_b_entry,
    check_all_chiral,
    check_chiral_skew,
    diag_contract,
    dmodule_parts,
)
from chiralva.equivalence import va_to_chiral
from chiralva.errors import ChiralvaError
from chiralva.fixtures import square_zero_va, truncated_poly_va
from chiralva.vertex import (
    VAData,
    accumulate,
    bump_structure_constant,
    check_all_va,
    contract,
    equal_tables,
    integer_modes,
    mutation_sites,
    tensor_with_ox,
    vadd,
)
from test_vertex import (
    PASCAL_WINDOWS,
    SCATTER_WINDOWS,
    WIDTH_WINDOWS,
    all_ints,
    assert_index_and_tables_match_reference,
    assert_scatters_match_window_loops,
    assert_slices_match_full_scatter,
    bump_by,
    max_held_ratio,
    reference_iterated_modes,
    scaled_tables,
)
from ordinary_powers import ordinary_check_chiral_skew
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
    i, n, j = min(A.va.structure)
    layered = bump_b_entry(A, i, n - m, j, m, pick % A.va.rank)  # an explicit layer
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
    assert _keyed_sweep(A, blo, lo, hi) == gather_keyed_sweep(A, blo, bhi, lo, hi)
    keys = gather_keys(blo, lo, hi, blo)
    for triple in product(range(A.va.rank), repeat=3):
        tables = triple_tables(A, *triple)
        assert scatter_sums(blo, blo, lo, hi, tables) == gather_sums(keys, tables), triple
    assert check_chiral_skew(A) == reference_check_chiral_skew(A)
    assert dmodule_parts(A) == reference_dmodule_parts(A)


@SETTINGS
@given(ALGEBRAS, st.integers(0, 59), st.one_of(st.none(), _RATIONAL))
def test_integer_view_is_the_exact_tables_times_lcm_squared(V0, pick, bump):
    # On a generated algebra, or a mutant bumped by a rational at one site:
    # with L the lcm of the denominators of the structure scalars, every
    # entry of the integer tables is an int equal to L^2 times the exact
    # entry of the support-square reference, and each triple read has one
    # table in the object's cache, beside which the cache holds nothing.
    V = tensor_with_ox(V0)
    sites = mutation_sites(V, 60)
    if bump and sites:
        i, n, j, coord = sites[pick % len(sites)]
        V = bump_by(V, (i, n, j), coord, bump)
    L = math.lcm(*(Fraction(x).denominator for vec in V.structure.values() for x in vec.values()))
    V._cache.clear()
    triples = list(product(range(V.rank), repeat=3))
    for triple in triples:
        view = integer_modes(V, *triple)
        assert view == scaled_tables(reference_iterated_modes(V, *triple), L * L)
        assert all_ints(view)
    assert list(V._cache) == [("modes", *triple) for triple in triples]


@SETTINGS
@given(ALGEBRAS, st.integers(0, 59), st.one_of(st.none(), _RATIONAL), st.sampled_from(PASCAL_WINDOWS))
def test_pascal_slices_match_full_scatter_on_generated_algebras(V0, pick, bump, window):
    # every slice the Jacobi sweep carries by Pascal's rule equals its full
    # scatter, on generated algebras and on mutants bumped by a rational
    V = tensor_with_ox(V0)
    sites = mutation_sites(V, 60)
    if bump and sites:
        i, n, j, coord = sites[pick % len(sites)]
        V = bump_by(V, (i, n, j), coord, bump)
    assert_slices_match_full_scatter(V, window)


@SETTINGS
@given(ALGEBRAS, st.integers(0, 59), st.one_of(st.none(), _RATIONAL), st.sampled_from(WIDTH_WINDOWS))
def test_packed_values_fit_their_fields_on_generated_algebras(V0, pick, bump, window):
    # every value the reference slices hold fits the packed field width, on
    # generated algebras and on mutants bumped by a rational
    V = tensor_with_ox(V0)
    sites = mutation_sites(V, 60)
    if bump and sites:
        i, n, j, coord = sites[pick % len(sites)]
        V = bump_by(V, (i, n, j), coord, bump)
    assert max_held_ratio(V, window) < 1


@SETTINGS
@given(ALGEBRAS, st.integers(0, 59), st.one_of(st.none(), _RATIONAL))
def test_triple_index_holds_every_nonempty_triple_on_generated_algebras(V0, pick, bump):
    # the tables built from the entries of each pair equal the support-square
    # probe, value types included, and the triple index holds every triple
    # with a nonzero table, closed under the swap, on generated algebras and
    # on mutants bumped by a rational
    V = tensor_with_ox(V0)
    sites = mutation_sites(V, 60)
    if bump and sites:
        i, n, j, coord = sites[pick % len(sites)]
        V = bump_by(V, (i, n, j), coord, bump)
    assert_index_and_tables_match_reference(V)


# ---------------------------------------------------------------------------
# section contraction


def reference_diag_contract(x, section) -> dict:
    """`diag_contract` as one `contract` and one copying `accumulate` per
    coordinate of x and key of its section."""
    coords: dict = {}
    for (p, d), c in x.items():
        coords.setdefault(p, {})[(p, d)] = c
    out: dict = {}
    for p, x_p in coords.items():
        for k, v in section(p).items():
            accumulate(out, k, contract(x_p, {p: v}))
    return out


_SCALAR = st.one_of(st.integers(-2, 2), _RATIONAL)
# sparse vectors with z-degrees, cleaned as the library keeps them (no zero
# entries, integral scalars as int); small ranges so that terms cancel
_VECTOR = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _SCALAR, max_size=5).map(
    lambda raw: vadd({}, raw))
_SECTION_KEYS = st.sampled_from([st.integers(0, 3), st.tuples(st.integers(0, 2), st.integers(0, 2))])


def _typed(section: dict) -> dict:
    return {k: {cd: (type(c), c) for cd, c in vec.items()} for k, vec in section.items()}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_VECTOR, _SECTION_KEYS.flatmap(lambda keys: st.dictionaries(
    st.integers(0, 2), st.dictionaries(keys, _VECTOR.filter(bool), max_size=4), max_size=3)))
def test_diag_contract_sums_like_per_coordinate_contractions(x, sections):
    # sections keyed by a derivative degree k and by a pair (k, l); a
    # coordinate of x without a section contributes nothing
    got = diag_contract(x, lambda p: sections.get(p, {}))
    assert _typed(got) == _typed(reference_diag_contract(x, lambda p: sections.get(p, {})))


# ---------------------------------------------------------------------------
# random tables over Q[z]


@st.composite
def _qz_tables(draw):
    """A table over Q[z] of rank 1 to 3, one to six polynomial entries at n
    in [-3..0], and a polynomial D that is strictly triangular, so
    nilpotent: each application lowers a z-degree, or moves to a smaller
    coordinate and raises the degree by at most 2.  Most such tables fail a
    check.  Degrees and indices are drawn from lists that put the
    nonconstant and nonzero first, where a draw leans."""
    rank = draw(st.sampled_from((3, 2, 1)))
    scalars = st.one_of(st.sampled_from((1, -1, 2)), _RATIONAL.filter(bool))

    def vector(coords, min_size=0):
        terms = st.tuples(coords, st.sampled_from((1, 2, 0)))
        return dict(draw(st.dictionaries(terms, scalars, min_size=min_size, max_size=3)))

    d_cols = tuple(vector(st.integers(0, j - 1)) if j else {} for j in range(rank))
    keys = st.tuples(st.integers(0, rank - 1), st.sampled_from((-2, -3, -1, 0)), st.integers(0, rank - 1))
    entries = draw(st.lists(keys, min_size=1, max_size=6, unique=True))
    structure = {key: vector(st.integers(0, rank - 1), 1) for key in entries}
    return VAData(rank, "Q[z]", ("a", "b", "c")[:rank], structure, d_cols)


# random tables and valid algebras, so both verdicts are compared: about 80
# of the 200 derandomized draws are random tables, and nearly all of those fail
QZ_TABLES = st.one_of(_qz_tables(), _qz_tables(), _qz_tables(), ALGEBRAS.map(tensor_with_ox))
QZ_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@QZ_SETTINGS
@given(QZ_TABLES)
def test_d_derivative_and_skew_scatters_match_window_loops_on_qz_tables(V):
    for window in SCATTER_WINDOWS:
        assert_scatters_match_window_loops(V, window)


@QZ_SETTINGS
@given(QZ_TABLES)
def test_chiral_skew_matches_both_oracles_on_qz_tables(V):
    # the divided binomial formula against the full sweep that rebuilds each
    # power of d2 and against the Horner pass in ordinary powers
    A = va_to_chiral(V, checked=False)
    for window in SCATTER_WINDOWS:
        want = reference_check_chiral_skew(A, window)
        assert check_chiral_skew(A, window) == want == ordinary_check_chiral_skew(A, window), window


# ---------------------------------------------------------------------------
# malformed documents

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DOCUMENTS = [json.loads((FIXTURES / name).read_text()) for name in ("a3.json", "a3_chiral.json")]
# Placeholders that json cannot write, substituted into the text: an integer
# past the interpreter's 4300-digit conversion limit, and nesting deeper than
# the parser's recursion limit.
LONG_INT, DEEP = "<long-int>", "<deep>"
SPLICE = {json.dumps(LONG_INT): "-" + "9" * 5000, json.dumps(DEEP): "[" * 100_000 + "]" * 100_000}
_HUGE = st.one_of(st.integers(-10**30, 10**30), st.sampled_from([10**6, 2**63, -10**30]))
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=6),
    st.integers(-4, 4), _HUGE,
    st.sampled_from(["1", "-1/2", "1/0", "9" * 5000, "Q", "Q[z]", LONG_INT, DEEP]),
)
_JSON = st.one_of(_JSON_LEAVES, st.recursive(_JSON_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=4), kids, max_size=3),
), max_leaves=8))


def _paths(node, path=()):
    """Every path to a value inside a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from(DOCUMENTS), st.data())
def test_malformed_documents_load_or_raise_a_library_error(doc, data):
    """One field or entry of a fixture replaced by arbitrary JSON (wrong
    types, deep nesting, indices far outside any support, over-long
    integers written into the text) either loads or raises a ChiralvaError,
    which the CLI reports with exit 2; it never escapes as another
    exception.  Only the load is exercised: running the checks on documents
    with huge indices waits on a work bound for the sweep windows (ROADMAP
    item 4).  Each load must also stay fast: a load that computes m! for a
    far layer takes seconds at m = 10^6."""
    doc = json.loads(json.dumps(doc))
    paths = list(_paths(doc))
    indices = [p for p in paths if p[-1] in ("rank", "i", "j", "n", "m", "n_min", "n_max")]
    *parent, key = path = data.draw(st.one_of(st.sampled_from(indices), st.sampled_from(paths)))
    node = doc
    for step in parent:
        node = node[step]
    node[key] = data.draw(st.one_of(_HUGE, _JSON) if path in indices else _JSON)
    text = json.dumps(doc)
    for mark, raw in SPLICE.items():
        text = text.replace(mark, raw)
    start = time.process_time()
    try:
        loaded = serialize.loads(text)
    except ChiralvaError:
        loaded = None
    assert time.process_time() - start < 1
    assert loaded is None or isinstance(loaded, (VAData, ChiralData))
