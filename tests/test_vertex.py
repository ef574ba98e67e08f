import functools
import math
import random
from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest

from chiralva import vertex
from chiralva.errors import (
    ChiralvaError,
    ContractError,
    NotADerivation,
    NotAssociative,
    NotCommutative,
    NotNilpotent,
    UnsupportedAlgebra,
)
from chiralva.exact import Q, binom
from chiralva.fixtures import a3_va, corpus, tensor_product, trivial_rank1, truncated_poly_va
from chiralva.report import CheckReport
from chiralva.vertex import (
    VAData,
    Vector,
    _associativity_witness,
    _jacobi_layout,
    _jacobi_slices,
    _locality_witness,
    _slice_points,
    accumulate,
    apply_d,
    bump_structure_constant,
    check_all_va,
    check_d_derivative,
    check_jacobi,
    check_skew_symmetry,
    check_truncation,
    closure_witness,
    d_kill_bound,
    d_orbits,
    equal_tables,
    integer_modes,
    make_commutative_va,
    merge_window,
    mode_left,
    mode_vec,
    mutation_sites,
    tensor_with_ox,
    triple_name,
    unit,
    vadd,
    vertex_coeff,
    vscale,
)

def d_power(V: VAData, u: Vector, k: int) -> Vector:
    """D^k u by k plain applications of D: the reference for `d_orbits`."""
    for _ in range(k):
        if not u:
            return u
        u = apply_d(V, u)
    return u


# ---------------------------------------------------------------------------
# independent oracle for A3 = Q[t]/(t^3), D = t^2 d/dt, as a commutative
# vertex algebra: u_{-1-k} v = (D^k u / k!) v, u_n v = 0 for n >= 0


def tmul(a, b):
    out = [Q(0)] * 3
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < 3:
                out[i + j] += x * y
    return tuple(out)


def tderiv(a):
    # t^2 d/dt: sends t^i to i t^{i+1}
    out = [Q(0)] * 3
    for i, x in enumerate(a):
        if i >= 1 and i + 1 < 3:
            out[i + 1] += i * x
    return tuple(out)


def oracle_mode(u, n, v):
    if n >= 0:
        return (Q(0),) * 3
    k = -1 - n
    w = u
    fact = 1
    for step in range(k):
        w = tderiv(w)
        fact *= step + 1
    return tuple(c / fact for c in tmul(w, v))


def oracle_vec(coords):
    return tuple(Q(c) for c in coords)


BASIS = [oracle_vec((1, 0, 0)), oracle_vec((0, 1, 0)), oracle_vec((0, 0, 1))]


def as_vector(o):
    return {(i, 0): c for i, c in enumerate(o) if c}


def test_a3_table_matches_brute_force_oracle():
    v = a3_va()
    for i in range(3):
        for j in range(3):
            for n in range(-6, 3):
                expected = as_vector(oracle_mode(BASIS[i], n, BASIS[j]))
                assert vertex_coeff(v, unit(i), n, unit(j)) == expected, (i, n, j)


def test_vertex_coeff_examples():
    v = a3_va()
    t, one = unit(1), unit(0)
    assert vertex_coeff(v, t, -1, t) == unit(2)
    assert vertex_coeff(v, t, -2, one) == unit(2)
    assert vertex_coeff(v, t, 0, t) == {}


def test_apply_d_examples():
    v = a3_va()
    assert apply_d(v, unit(1)) == unit(2)
    assert apply_d(v, unit(0)) == {}
    vq = tensor_with_ox(v)
    ze0 = {(0, 1): 1}  # z e0
    assert apply_d(vq, ze0) == unit(0)  # D(z e0) = e0 + z D(e0), D(e0) = 0


def test_check_truncation_pass_and_bounds():
    v = a3_va()
    rep = check_truncation(v)
    assert rep.passed
    assert all(hi == -1 for _, hi in v.support.values())


def test_check_truncation_stray_entry_negative_control():
    v = a3_va()
    narrowed = {pair: (lo, hi - 1) for pair, (lo, hi) in v.support.items()}
    bad = VAData(v.rank, v.coeff_ring, v.basis_names, dict(v.structure), v.d_cols, narrowed)
    rep = check_truncation(bad)
    assert not rep.passed
    assert "n=-1" in rep.witness


def test_check_truncation_empty_algebra():
    empty = VAData(0, "Q", (), {}, ())
    assert check_truncation(empty).passed
    assert all(r.passed for r in check_all_va(empty))


def test_d_derivative_single_instance_and_sweep():
    v = a3_va()
    t, one = unit(1), unit(0)
    lhs = vertex_coeff(v, apply_d(v, t), -1, one)  # (Dt)_{-1} 1 = t^2
    rhs = vertex_coeff(v, t, -2, one)  # -(-1) t_{-2} 1
    assert lhs == rhs == unit(2)
    assert check_d_derivative(v).passed


def test_d_derivative_zeroed_matrix_fails_at_t_one():
    v = a3_va()
    bad = VAData(v.rank, v.coeff_ring, v.basis_names, dict(v.structure), ({},) * 3)
    rep = check_d_derivative(bad)
    assert not rep.passed
    assert rep.witness == "(u=t, v=1, n=-2)"


def test_skew_symmetry_instance_and_sweep():
    v = a3_va()
    # m = -2, u = t, v = 1: LHS t^2, RHS only k = 1 survives: D(1_{-1} t) = t^2
    lhs = vertex_coeff(v, unit(1), -2, unit(0))
    k1 = apply_d(v, vertex_coeff(v, unit(0), -1, unit(1)))
    assert lhs == k1 == unit(2)
    assert check_skew_symmetry(v).passed


def test_skew_symmetry_perturbation_fails():
    bad = bump_structure_constant(a3_va(), 1, -2, 0, 0)  # t_{-2}1 += 1
    assert not check_skew_symmetry(bad).passed


def test_jacobi_spec_instances():
    v = a3_va()
    one, t = unit(0), unit(1)
    lhs, rhs = jacobi_instance(v, 0, 1, 0, -1, -1, -1)  # (u,v,w) = (1,t,1)
    assert lhs == rhs == unit(2)
    lhs, rhs = jacobi_instance(v, 1, 1, 1, -1, -1, -1)  # (t,t,t)
    assert lhs == rhs == {}
    assert check_jacobi(v).passed


def test_jacobi_mutation_control():
    bad = bump_structure_constant(a3_va(), 0, -1, 0, 0)  # 1_{-1}1 = 2
    rep = check_jacobi(bad)
    assert not rep.passed
    assert rep.witness is not None


def test_out_of_window_vanishing_is_symbolic():
    # sample indices beyond the swept window: every term of the d-derivative
    # and skew identities evaluates to zero by the support bounds
    v = a3_va()
    t, one = unit(1), unit(0)
    for n in (5, 17, -23):
        assert vertex_coeff(v, apply_d(v, t), n + 1, one) == {}
        if n > 0:
            assert vertex_coeff(v, t, n, one) == {}


def test_make_commutative_va_rejects_non_descending_derivation():
    mult = {}
    for i in range(3):
        for j in range(3):
            if i + j < 3:
                mult[(i, j)] = unit(i + j)
    ddt = ({}, {(0, 0): 1}, {(1, 0): 2})  # plain d/dt
    with pytest.raises(NotADerivation) as err:
        make_commutative_va(mult, ddt, ("1", "t", "t2"))
    assert "t" in str(err.value)


def test_make_commutative_va_error_taxonomy():
    mult = {(0, 1): unit(1)}  # missing (1, 0): not commutative
    with pytest.raises(NotCommutative):
        make_commutative_va(mult, ({}, {}), ("a", "b"))

    # a * a = b, a * b = a is not associative: (aa)b = ab = a, a(ab) = aa = b
    mult = {(0, 0): unit(1), (0, 1): unit(0), (1, 0): unit(0)}
    with pytest.raises(NotAssociative):
        make_commutative_va(mult, ({}, {}), ("a", "b"))

    # zero product admits any matrix as a derivation; the identity is not nilpotent
    with pytest.raises(NotNilpotent, match=r"^witness basis vector a: D\^2 != 0$"):
        make_commutative_va({}, (unit(0), unit(1)), ("a", "b"))
    # D a = 0 but D b = b: the witness is the first basis vector that survives
    with pytest.raises(NotNilpotent, match=r"^witness basis vector b: D\^2 != 0$"):
        make_commutative_va({}, ({}, unit(1)), ("a", "b"))
    # the shift a -> b -> c -> 0 is nilpotent of index exactly the rank
    shift = make_commutative_va({}, (unit(1), unit(2), {}), ("a", "b", "c"))
    assert shift.rank == 3 and shift.structure == {}


def reference_associativity_triple(mult, rank):
    """The first basis triple (i, j, k), over all rank^3 of them in order,
    with (e_i e_j) e_k != e_i (e_j e_k); None when the table is associative.
    The oracle for the builder, which walks only the triples its product
    table indexes."""
    def prod(x, y):
        acc: dict = {}
        for (p, d), a in x.items():
            for (q, e), b in y.items():
                for (r, f), c in mult.get((p, q), {}).items():
                    acc[r, d + e + f] = acc.get((r, d + e + f), 0) + a * b * c
        return {key: x for key, x in acc.items() if x}

    return next((t for t in product(range(rank), repeat=3)
                 if prod(mult.get(t[:2], {}), unit(t[2])) != prod(unit(t[0]), mult.get(t[1:], {}))),
                None)


def builder_associativity_message(mult, d_cols, names):
    """The builder's NotAssociative message, or None when it raises another
    error or none."""
    try:
        make_commutative_va(mult, d_cols, names)
    except NotAssociative as err:
        return str(err)
    except (NotADerivation, NotNilpotent):
        pass
    return None


def product_table(V):
    """The product e_i e_j = e_i{-1} e_j of a commutative vertex algebra."""
    return {(i, j): V.mode(i, -1, j) for i, j in product(range(V.rank), repeat=2) if V.mode(i, -1, j)}


def test_builder_associativity_matches_the_rank_cubed_loop():
    # On the corpus and the tensor powers of a3 (associative, and rebuilt
    # to the same table), and on their product tables bumped by +1 at one
    # symmetric pair of slots (zero D, so a bump that stays associative
    # builds), the builder reports the witness the full loop finds first.
    rng = random.Random(11)
    tables = [*(V for _, V in corpus()), a3_tensor_power(2), a3_tensor_power(3)]
    failing = 0
    for V in tables:
        mult = product_table(V)
        assert reference_associativity_triple(mult, V.rank) is None
        rebuilt = make_commutative_va(mult, V.d_cols, V.basis_names)
        assert equal_tables(rebuilt if V.coeff_ring == "Q" else tensor_with_ox(rebuilt), V) == (True, None)
        for _ in range(40 if V.rank < 27 else 4):
            i, j, c = rng.randrange(V.rank), rng.randrange(V.rank), rng.randrange(V.rank)
            bumped = dict(mult)
            for pair in {(i, j), (j, i)}:
                bumped[pair] = vadd(bumped.get(pair, {}), unit(c))
            want = reference_associativity_triple(bumped, V.rank)
            names = V.basis_names
            got = builder_associativity_message(bumped, tuple({} for _ in names), names)
            assert got == (None if want is None else
                           f"witness triple ({names[want[0]]}, {names[want[1]]}, {names[want[2]]})")
            failing += want is not None
    assert failing > 200


def test_trivial_rank1_structure():
    v = trivial_rank1()
    assert v.structure == {(0, -1, 0): unit(0)}
    assert all(r.passed for r in check_all_va(v))


def test_tensor_with_ox_bilinearity_and_axioms():
    v = tensor_with_ox(a3_va())
    rng = random.Random(5)
    for _ in range(10):
        f = [Q(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
        g = [Q(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
        i, j, n = rng.randrange(3), rng.randrange(3), rng.randint(-3, 0)
        u = {(i, d): c for d, c in enumerate(f) if c}  # f e_i
        w = {(j, d): c for d, c in enumerate(g) if c}  # g e_j
        fg = [sum(f[a] * g[d - a] for a in range(len(f)) if 0 <= d - a < len(g))
              for d in range(len(f) + len(g) - 1)]
        plain = vertex_coeff(v, unit(i), n, unit(j))  # constant: every degree is 0
        assert vertex_coeff(v, u, n, w) == {(q, d): fg[d] * x for (q, _), x in plain.items()
                                            for d in range(len(fg)) if fg[d]}
    assert all(r.passed for r in check_all_va(v))
    # (z t)_{-1} (z t) = z^2 t^2
    zt = {(1, 1): 1}
    assert vertex_coeff(v, zt, -1, zt) == {(2, 2): 1}


def test_non_nilpotent_derivation_detected():
    ident = (unit(0),)
    table = {(0, -1, 0): unit(0)}
    v = VAData(1, "Q", ("e",), table, ident)
    for _ in range(2):  # a rejected table leaves no partial D-orbits behind
        with pytest.raises(UnsupportedAlgebra, match=r"survives D\^6"):
            check_skew_symmetry(v)


def test_mutation_sensitivity_every_nonzero_constant():
    v = a3_va()
    assert len(v.structure) == 7
    for key in sorted(v.structure):
        bad = bump_structure_constant(v, *key, 0)  # +1.e0 on the entry
        reports = check_all_va(bad)
        assert any(not r.passed for r in reports), key


def test_scaling_one_diagonal_entry_gives_another_valid_algebra():
    # t_{-1} t = t^2 -> 2 t^2 is the commutative vertex algebra of the
    # rescaled product, so every axiom still holds; this pins down why the
    # sensitivity sweep perturbs entries by +1.e0 rather than rescaling
    v = a3_va()
    rescaled = bump_structure_constant(v, 1, -1, 1, 2)
    assert all(r.passed for r in check_all_va(rescaled))


def test_coeff_ring_q_rejects_polynomial_entries():
    with pytest.raises(ContractError):
        VAData(1, "Q", ("e",), {(0, -1, 0): {(0, 1): 1}}, ({},))


def test_nonnegative_modes_cannot_satisfy_d_derivative():
    # (Du)_{n+1} v vanishes above the support, so -(n+1) u_n v = 0 there:
    # any table with a nonzero entry at n != -1 on the top fails the check
    table = {(0, 0, 0): unit(0)}
    v = VAData(1, "Q", ("e",), table, ({},))
    rep = check_d_derivative(v)
    assert not rep.passed and "n=0" in rep.witness


def test_jacobi_certificates_handle_nonnegative_support():
    # tables reaching into nonnegative mode indices exercise the cleared
    # form of the composition certificate; this one breaks the identity
    table = {(0, 0, 0): unit(0), (0, -1, 0): unit(0)}
    v = VAData(1, "Q", ("e",), table, ({},))
    rep = check_jacobi(v)
    assert not rep.passed


def test_jacobi_sweep_failure_implies_certificate_failure():
    # a failing boxed instance means the identity is false somewhere, and
    # the closure certificates are equivalent to the identity over all of
    # Z^3, so they must fail as well
    rng = random.Random(23)
    v0 = a3_va()
    for trial in range(25):
        sites = mutation_sites(v0, 60)
        mutant = bump_structure_constant(v0, *sites[rng.randrange(len(sites))])
        a, b = mutant.global_support()
        sweep_fails = False
        for l in range(a - 4, b + 5):
            for m in range(a - 4, b + 5):
                for n in range(a - 4, b + 5):
                    if not (2 * a <= l + m + n <= 2 * b):
                        continue
                    for iu in range(3):
                        for iv in range(3):
                            for iw in range(3):
                                lhs, rhs = jacobi_instance(mutant, iu, iv, iw, l, m, n)
                                if lhs != rhs:
                                    sweep_fails = True
        cert_fails = (
            _locality_witness(mutant) is not None
            or _associativity_witness(mutant, b) is not None
        )
        if sweep_fails:
            assert cert_fails, trial


def test_mutation_sites_order():
    # perfbench names its mutant files from this list, so its order is part
    # of the contract: the nonzero coordinates by (key, coord), then the zero
    # slots inside the support in (i, n, j, coord) order
    multi = 0
    for _name, V in corpus():
        nonzero = [(*key, c) for key in sorted(V.structure) for c in range(V.rank)
                   if any(cc == c for cc, _ in V.structure[key])]
        a, b = V.global_support()
        slots = product(range(V.rank), range(a, b + 1), range(V.rank), range(V.rank))
        want = nonzero + [site for site in slots if site not in nonzero]
        assert mutation_sites(V, 30) == want[:30]
        multi += len(nonzero) > len(V.structure)
    assert multi  # some entry has several nonzero coordinates


def test_support_bounds_must_name_basis_pairs():
    v = a3_va()
    with pytest.raises(ContractError, match="out of range"):
        VAData(3, "Q", v.basis_names, dict(v.structure), v.d_cols, {(9, 9): (-1, -1)})


# ---------------------------------------------------------------------------
# gather Jacobi sweep: each (l, m, n) instance sums its signed binomials times
# lookups in the three iterated-mode tables.  check_jacobi scatters instead;
# this per-instance form is kept here as its oracle.


def _jacobi_terms(a, b, l, m, n):
    """The (l, m, n) component Jacobi identity

        sum_i binom(m, i) (u_{l+i} v)_{m+n-i} w
          = sum_i (-1)^i binom(l, i) u_{m+l-i} (v_{n+i} w)
            - (-1)^l sum_i (-1)^i binom(l, i) v_{n+l-i} (u_{m+i} w)

    as one list of (table key, exact int coefficient) per sum, the last sign
    folded in.  Keys off the support square [a..b]^2 read zero and are left
    out, as are zero binomials."""
    left = [((l + i, m + n - i), c) for i in range(max(0, a - l), b - l + 1)
            if a <= m + n - i <= b and (c := int(binom(m, i)))]
    right_uv = [((m + l - i, n + i), c) for i in range(max(0, a - n), b - n + 1)
                if a <= m + l - i <= b and (c := (-1) ** i * int(binom(l, i)))]
    right_vu = [((n + l - i, m + i), c) for i in range(max(0, a - m), b - m + 1)
                if a <= n + l - i <= b and (c := (-1) ** ((l + i + 1) % 2) * int(binom(l, i)))]
    return left, right_uv, right_vu


def _combine(table, terms, acc):
    """acc + sum c * table[key] over the terms; None stands for zero."""
    for key, c in terms:
        val = table.get(key)
        if val is not None:
            acc = vscale(c, val) if acc is None else vadd(acc, vscale(c, val))
    return acc


def _jacobi_sides(tables, terms, zero):
    left, right_uv, right_vu = tables
    lhs = _combine(left, terms[0], None)
    rhs = _combine(right_vu, terms[2], _combine(right_uv, terms[1], None))
    return lhs or zero, rhs or zero


def _instance_tables(V, iu, iv, iw):
    """(u_p v)_q w, u_p (v_q w) and v_p (u_q w): the tables an instance
    reads, from the support-square reference."""
    return (*reference_iterated_modes(V, iu, iv, iw), reference_iterated_modes(V, iv, iu, iw)[1])


def jacobi_instance(V, iu, iv, iw, l, m, n):
    """Left and right sides of the component Jacobi identity; finite i-sums."""
    terms = _jacobi_terms(*(V.global_support() or (0, -1)), l, m, n)
    return _jacobi_sides(_instance_tables(V, iu, iv, iw), terms, {})


def gather_check_jacobi(V, window=None):
    """check_jacobi as a gather over every (l, m, n, triple) of the window,
    in that order, with the same window, certificates and report text."""
    name, label = "jacobi", "jac-comp"
    rng = V.global_support()
    if rng is None and window is None:
        return CheckReport(name, label, True, "empty table, vacuous")
    a, b = rng if rng else (0, -1)
    span = b - a + 1
    lo, hi = merge_window(a - span - 1, b + span + 1, window)
    tables = {t: _instance_tables(V, *t) for t in product(range(V.rank), repeat=3)}
    zero = {}
    swept = 0
    for l, m, n in product(range(lo, hi + 1), repeat=3):
        if not (2 * a <= l + m + n <= 2 * b):
            continue
        terms = _jacobi_terms(a, b, l, m, n)
        for triple, tabs in tables.items():
            lhs, rhs = _jacobi_sides(tabs, terms, zero)
            swept += 1
            if lhs != rhs:
                return CheckReport(
                    name, label, False, f"window (l,m,n) in [{lo}..{hi}]^3",
                    f"({triple_name(V, *triple)}, l={l}, m={m}, n={n})",
                )
    witness = closure_witness(V, a, b)
    if witness is not None:
        return CheckReport(
            name, label, False,
            f"window (l,m,n) in [{lo}..{hi}]^3 plus closure certificates", witness,
        )
    return CheckReport(
        name, label, True,
        f"window (l,m,n) in [{lo}..{hi}]^3 with l+m+n in [{2*a}..{2*b}] "
        f"({swept} instances); off-slice terms vanish by support arithmetic; "
        "commutativity and composition certificates close the identity over Z^3",
    )


def bump_by(V, key, coord, by):
    """A copy of V with `by` added to one coordinate of one entry, at degree 0."""
    structure = dict(V.structure)
    structure[key] = vadd(structure.get(key, {}), {(coord, 0): by})
    return VAData(V.rank, V.coeff_ring, V.basis_names, structure, V.d_cols)


SCATTER_CASES = [
    ("a3", a3_va(), None),
    ("a3-window", a3_va(), (-9, 4)),
    *((f"ladder-{k}", tensor_with_ox(truncated_poly_va(k, [Q(0), Q(0), Q(1), Q(1, 2)])), None)
      for k in (4, 5)),
    # one entry 4/3 t^2 + 1/2 t^3: the integer view's scale must clear 2 and 3
    ("ladder-4-thirds", bump_by(tensor_with_ox(truncated_poly_va(4, [Q(0), Q(0), Q(1), Q(1, 2)])),
                                (1, -2, 0), 2, Q(1, 3)), None),
    ("empty-window", VAData(1, "Q", ("e",), {}, ({},)), (-2, 3)),
    *((name, V, None) for name, V in corpus()),
]
SCATTER_IDS = [case[0] for case in SCATTER_CASES]


@pytest.mark.parametrize("name,V,window", SCATTER_CASES, ids=SCATTER_IDS)
def test_scatter_jacobi_matches_gather(name, V, window):
    assert check_jacobi(V, window) == gather_check_jacobi(V, window)
    if name == "ladder-4-thirds":
        assert not check_jacobi(V, window).passed


def test_scatter_jacobi_matches_gather_on_every_criterion_7_mutant():
    mutants = list(_criterion_7_mutants(30))
    assert len(mutants) == 211
    failing = 0
    for mutant in mutants:
        want = gather_check_jacobi(mutant)
        assert check_jacobi(mutant) == want, want
        failing += not want.passed
    assert failing > 150


# ---------------------------------------------------------------------------
# Pascal's rule, J(l, m, n) = J(l-1, m+1, n) - J(l-1, m, n+1), carries every
# slice from the one before it; the full scatter of each slice is its
# reference.  The windows widen the default one below, above, on both sides
# and not at all.

PASCAL_WINDOWS = (None, (-9, 4), (-3, 1), (-12, 0))


def binom_columns(lo: int, hi: int, i_lo: int, i_hi: int) -> dict[int, list[int]]:
    """{i: [binom(x, i) for x in lo..hi]} for i in max(0, i_lo)..i_hi: the
    binomials a scatter reads at one fixed lower index."""
    xs = range(lo, hi + 1)
    return {i: [binom(x, i) for x in xs] for i in range(max(0, i_lo), i_hi + 1)}


def signed_binoms(t: int, top: int) -> tuple[list[int], list[int]]:
    """The two signed rows -(-1)^i binom(t, i) and (-1)^(t+i) binom(t, i),
    i in 0..top: the weights of the two expanded sums on the right of a
    Jacobi identity whose left index is t."""
    uv = [binom(t, i) if i % 2 else -binom(t, i) for i in range(top + 1)]
    return uv, (uv if t % 2 else [-c for c in uv])


def reference_jacobi_slice(l: int, lo: int, hi: int, a: int, b: int, reach: list) -> dict:
    """lhs - rhs of the component Jacobi identity

        sum_i binom(m, i) (u_{l+i} v)_{m+n-i} w
          = sum_i (-1)^i binom(l, i) u_{m+l-i} (v_{n+i} w)
            - (-1)^l sum_i (-1)^i binom(l, i) v_{n+l-i} (u_{m+i} w)

    on the slice l, as {(m, n, t, (coord, deg)): scalar} over (m, n) in
    [lo..hi]^2, t indexing `reach`, zero where the terms cancel.  `reach`
    lists (triple, its three tables) in triple order, so keys order like
    (m, n, triple).  Each table entry at (p, q) is scattered to the points
    that read it, all with l+m+n = p+q, times a binomial read from the
    slice's own tables: the columns binom(m, p - l) for p in [a..b], and the
    signed rows of binom(l, i).  Per slice, not per check, so that a wide
    window holds a number of binomials linear in its width."""
    acc: dict = defaultdict(int)
    cols = binom_columns(lo, hi, a - l, b - l)
    row_uv, row_vu = signed_binoms(l, b - lo)
    for t, (triple, left, right_uv, right_vu) in enumerate(reach):
        for (p, q), xs in left.items():  # (u_p v)_q w: i = p - l, n = p + q - l - m
            col = cols.get(p - l)
            if col is not None:
                s = p + q - l
                for m in range(max(lo, s - hi), min(hi, s - lo) + 1):
                    c = col[m - lo]
                    if c:
                        for cd, x in xs.items():
                            acc[m, s - m, t, cd] += c * x
        # u_p (v_q w) at i = q - n, m = p + q - l - n, and v_p (u_q w) at
        # i = q - m, n = p + q - l - m
        for swap, row, table in ((False, row_uv, right_uv), (True, row_vu, right_vu)):
            for (p, q), xs in table.items():
                s = p + q - l
                for x in range(max(lo, s - hi), min(hi, q, s - lo) + 1):
                    c = row[q - x]
                    if c:
                        m, n = (x, s - x) if swap else (s - x, x)
                        for cd, y in xs.items():
                            acc[m, n, t, cd] += c * y
    return acc


def _reach(V):
    """The (triple, three integer tables) list check_jacobi sweeps."""
    return [(t, *tables) for t in product(range(V.rank), repeat=3)
            if any(tables := (*integer_modes(V, *t), integer_modes(V, t[1], t[0], t[2])[1]))]


def _sweep_window(V, window):
    """(lo, hi, a, b): check_jacobi's window on V's support [a..b]."""
    a, b = V.global_support() or (0, -1)
    span = b - a + 1
    return (*merge_window(a - span - 1, b + span + 1, window), a, b)


def unpack_slice(points: dict, fields: list, w: int) -> dict:
    """A packed slice {(m, n): X} as {(m, n, t, (coord, deg)): value}, its
    nonzero values only: with F fields in all, X plus the offset sum of
    2^(w-1) 2^(w k) over k < F has the base-2^w digits v_k + 2^(w-1), v_k
    the value at field k, when every |v_k| < 2^(w-1)."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    offset = sum(half << w * k for f in fields for k in f.values())
    out = {}
    for (m, n), x in points.items():
        x += offset
        out.update(((m, n, t, cd), v) for t, f in enumerate(fields) for cd, k in f.items()
                   if (v := (x >> w * k & mask) - half))
    return out


def _packed_sweep(V, window, width=None):
    """(lo, hi, a, b, reach, fields, w, the slices) of check_jacobi's packed
    sweep of V, at the field width w of its layout unless `width` is given.
    `reach` lists every indexed triple, as the layout does, and its nonempty
    triples are those of `_reach`."""
    lo, hi, a, b = _sweep_window(V, window)
    w, starts, fields, keys = _jacobi_layout(V, a, b, hi)
    w = width or w
    reach = [(t, *integer_modes(V, *t), integer_modes(V, t[1], t[0], t[2])[1]) for t in V.indexed_triples()]
    assert [t for t, *tables in reach if any(tables)] == [t for t, *_ in _reach(V)]
    return lo, hi, a, b, reach, fields, w, list(_jacobi_slices(lo, hi, a, (w, starts, fields, keys)))


def assert_slices_match_full_scatter(V, window, width=None):
    """Every slice `_jacobi_slices` yields, the first one, failing slices and
    the ones after them included, unpacks to the nonzero part of the full
    `reference_jacobi_slice`, and holds its nonzero points only.  Returns
    the number of slices carried from a nonzero slice."""
    lo, hi, a, b, reach, fields, w, slices = _packed_sweep(V, window, width)
    assert [l for l, _ in slices] == list(range(lo, hi + 1))
    for l, got in slices:
        want = {key: x for key, x in reference_jacobi_slice(l, lo, hi, a, b, reach).items() if x}
        assert unpack_slice(got, fields, w) == want, l
        assert all(got.values()) and {(m, n) for m, n, *_ in want} == got.keys(), l
    return sum(bool(prev) for (_, prev), _ in zip(slices, slices[1:]))


def max_held_ratio(V, window) -> Fraction:
    """The largest |value| of the reference slices of V's sweep over
    2^(w-1), w the packed field width: below 1 when every value fits its
    field."""
    lo, hi, a, b, reach, _, w, _ = _packed_sweep(V, window)
    top = max((abs(x) for l in range(2 * a - 2 * hi, hi + 1)
               for x in reference_jacobi_slice(l, lo, hi, a, b, reach).values()), default=0)
    return Fraction(top, 1 << (w - 1))


@pytest.mark.parametrize("name,V,window", SCATTER_CASES, ids=SCATTER_IDS)
def test_pascal_slices_match_full_scatter(name, V, window):
    carried = sum(assert_slices_match_full_scatter(V, w) for w in {window, *PASCAL_WINDOWS})
    assert (carried > 0) == (name == "ladder-4-thirds")


def test_pascal_slices_match_full_scatter_on_every_criterion_7_mutant():
    mutants = list(_criterion_7_mutants(30))
    assert len(mutants) == 211
    carried = sum(assert_slices_match_full_scatter(V, w) for V in mutants for w in PASCAL_WINDOWS)
    assert carried > 1000


def test_pascal_slices_match_full_scatter_on_a_wide_window():
    # a3 passes, so its slices are all zero; the mutant fails and its
    # nonzero slices are carried across the wide window
    mutant = bump_structure_constant(a3_va(), *mutation_sites(a3_va(), 30)[0])
    assert assert_slices_match_full_scatter(a3_va(), (-60, 0)) == 0
    assert assert_slices_match_full_scatter(mutant, (-60, 0)) > 0


# The packed sweep's field width w is proved to hold every value of a slice
# (`vertex._jacobi_slices`); the family below checks the bound and shows that
# a width too small for its values changes reports.

WIDTH_WINDOWS = (None, (-9, 4), (-20, 0), (-3, 30))


def width_family():
    yield from (V for _, V in corpus())
    yield from _criterion_7_mutants(30)
    yield from (tensor_with_ox(truncated_poly_va(k, [Q(0), Q(0), Q(1), Q(1, 2)])) for k in range(4, 9))


def test_packed_values_fit_their_fields():
    ratios = [max_held_ratio(V, w) for V in width_family() for w in WIDTH_WINDOWS]
    assert len(ratios) == 4 * (8 + 211 + 5)
    assert max(ratios) < 1, max(ratios)


def test_a_field_width_too_small_is_noticed():
    # With 8-bit fields an entry too wide for its field cannot be packed, and
    # a value that overflows carries into the fields above it, which the
    # exact unpacking notices.  The verdict and witness read the least
    # nonzero field only, which a carry changes only when that value is a
    # multiple of 2^w, so the unpacking, not the report, is the witness here.
    noticed = set()
    for V in width_family():
        for w in WIDTH_WINDOWS:
            try:
                assert_slices_match_full_scatter(V, w, width=8)
            except (AssertionError, OverflowError) as exc:
                noticed.add(type(exc))
        if len(noticed) == 2:
            return
    pytest.fail(f"only {noticed} noticed")


@pytest.mark.parametrize("name,V,window", SCATTER_CASES, ids=SCATTER_IDS)
def test_pascal_carry_starts_after_an_empty_slice(name, V, window):
    # the base of the induction: the slice before the first carried one,
    # 2a - 2hi, reaches no window point, and neither does any slice from lo
    # up to it, which the sweep yields empty without scattering
    reach = _reach(V)
    for w in {window, *PASCAL_WINDOWS}:
        lo, hi, a, b = _sweep_window(V, w)
        for l in range(min(lo, 2 * a - 2 * hi) - 1, 2 * a - 2 * hi):
            assert not any(reference_jacobi_slice(l, lo, hi, a, b, reach).values()), (w, l)


def test_jacobi_carry_starts_where_the_entries_reach(monkeypatch):
    # On a3 at -100000:0 the window's lo lies far below 2a - 2hi: the sweep
    # scatters the edge of the slices from 2a - 2hi on only.
    edges, real = [], vertex._jacobi_edge

    def counting(l, *args):
        edges.append(l)
        return real(l, *args)

    monkeypatch.setattr(vertex, "_jacobi_edge", counting)
    report = check_jacobi(a3_va(), (-100000, 0))
    lo, hi, a, _ = _sweep_window(a3_va(), (-100000, 0))
    assert report.passed and f"[{lo}..{hi}]^3" in report.window and lo == -100000
    assert edges == list(range(2 * a - 2 * hi, hi + 1))


# ---------------------------------------------------------------------------
# the closure certificates as walks over the whole support square, with one
# vadd copy per term: the references for the sparse certificates


def reference_locality_witness(V, a, b):
    for iu, iv, iw in product(range(V.rank), repeat=3):
        uv = integer_modes(V, iu, iv, iw)[1]
        vu = integer_modes(V, iv, iu, iw)[1]
        for m, n in product(range(a, b + 1), repeat=2):
            if uv.get((m, n)) != vu.get((n, m)):
                return f"commutativity at ({triple_name(V, iu, iv, iw)}, m={m}, n={n})"
    return None


def reference_associativity_witness(V, a, b):
    K = max(0, b + 1)
    for iu, iv, iw in product(range(V.rank), repeat=3):
        left, right = integer_modes(V, iu, iv, iw)
        lhs: dict = {}
        for (l, n), val in left.items():
            p, q = -l - 1, -n - 1
            for j in range(K + 1):
                accumulate(lhs, (p + j, q + K - j), vscale(binom(K, j), val))
        rhs: dict = {}
        for (m, n2), val in right.items():
            p2, q2 = -m - 1, -n2 - 1
            for j in range(K + p2 + 1):
                accumulate(rhs, (j, q2 + K + p2 - j), vscale(binom(K + p2, j), val))
        for key in sorted(set(lhs) | set(rhs)):
            if lhs.get(key) != rhs.get(key):
                return f"composition identity at exponents {key} for ({triple_name(V, iu, iv, iw)})"
    return None


def noncommutative_tables(count):
    """Tables with random integer and rational entries on the support
    [-2..1], zero D: most of them fail operator commutativity."""
    rng = random.Random(19)
    for _ in range(count):
        rank = rng.randint(1, 3)
        structure = {}
        for i, n, j in product(range(rank), range(-2, 2), range(rank)):
            if rng.random() < 0.4:
                c = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
                structure[i, n, j] = vadd({}, {(rng.randrange(rank), 0): c})
        if structure:
            yield VAData(rank, "Q", tuple("abc"[:rank]), structure, ({},) * rank)


def test_certificates_match_their_square_walk_references():
    tables = list(noncommutative_tables(60))
    failing = {"locality": 0, "associativity": 0}
    for V in (*(V for _, V in corpus()), *_criterion_7_mutants(30), *tables):
        a, b = V.global_support()
        loc = _locality_witness(V)
        assert loc == reference_locality_witness(V, a, b)
        assoc = _associativity_witness(V, b)
        assert assoc == reference_associativity_witness(V, a, b)
        failing["locality"] += loc is not None
        failing["associativity"] += assoc is not None
    assert failing["locality"] > 150 and failing["associativity"] > 150
    assert sum(_locality_witness(V) is not None for V in tables) > len(tables) // 2


@pytest.mark.parametrize("name,V,window", SCATTER_CASES, ids=SCATTER_IDS)
def test_instance_count_closed_form_matches_enumeration(name, V, window):
    a, b = V.global_support() or (0, -1)
    span = b - a + 1
    lo, hi = merge_window(a - span - 1, b + span + 1, window)
    counted = sum(1 for l, m, n in product(range(lo, hi + 1), repeat=3)
                  if 2 * a <= l + m + n <= 2 * b)
    assert _slice_points(lo, hi, 2 * a, 2 * b) == counted


def interval_slice_points(lo, hi, s_lo, s_hi):
    """The instance count with one clipped n-interval per (l, m): the
    reference for the closed form of `_slice_points`."""
    return sum(max(0, min(hi, s_hi - l - m) - max(lo, s_lo - l - m) + 1)
               for l, m in product(range(lo, hi + 1), repeat=2))


def test_instance_count_closed_form_edge_windows():
    for lo, hi, s_lo, s_hi in [(0, 0, 0, 0), (0, 0, 1, 1), (-3, 2, 5, 6), (-3, 2, -9, -9),
                               (-3, 2, -10, -10), (-4, 4, -2, -3), (-5, 5, -100, 100)]:
        counted = sum(1 for p in product(range(lo, hi + 1), repeat=3) if s_lo <= sum(p) <= s_hi)
        assert _slice_points(lo, hi, s_lo, s_hi) == counted
        assert interval_slice_points(lo, hi, s_lo, s_hi) == counted


def test_instance_count_closed_form_matches_interval_sum_on_random_windows():
    # clipped on either side, empty, one point wide, and wider than the box
    rng = random.Random(24)
    for _ in range(2000):
        lo = rng.randint(-40, 10)
        hi = lo + rng.choice((0, 1, 2, rng.randint(0, 40)))
        s_lo = rng.randint(3 * lo - 5, 3 * hi + 5)
        s_hi = s_lo + rng.randint(-3, 3 * (hi - lo) + 6)
        assert _slice_points(lo, hi, s_lo, s_hi) == interval_slice_points(lo, hi, s_lo, s_hi)


def test_skew_orbits_match_d_power_and_kill_bound():
    for V in (a3_va(), LADDER_4, *_criterion_7_mutants(1)):
        orbits = d_orbits(V)
        assert d_orbits(V) is orbits  # computed once per object
        assert set(orbits) == set(V.structure)
        for key, orbit in orbits.items():
            for k in range(len(orbit) + 2):
                want = d_power(V, V.structure[key], k)
                assert (orbit[k] if k < len(orbit) else {}) == want
            assert all(orbit)
        assert d_kill_bound(V) == max([1, *(len(o) for o in orbits.values())])


# ---------------------------------------------------------------------------
# reference Jacobi instance: contracts directly with mode_vec / mode_left, so
# it does not read the shared iterated-mode tables the checkers use


@functools.cache
def _support(V):
    ns = [n for (_, n, _) in V.structure]
    return min(ns), max(ns)


def reference_jacobi_instance(V, iu, iv, iw, l, m, n):
    a, b = _support(V)
    sgn = 1 if l % 2 == 0 else -1
    lhs = rhs = {}
    for i in range(max(0, a - l), b - l + 1):
        inner = V.structure.get((iu, l + i, iv))
        if inner is not None:
            lhs = vadd(lhs, vscale(binom(m, i), mode_vec(V, inner, m + n - i, iw)))
    for i in range(max(0, a - n), b - n + 1):
        inner = V.structure.get((iv, n + i, iw))
        if inner is not None:
            rhs = vadd(rhs, vscale((-1) ** i * binom(l, i), mode_left(V, iu, m + l - i, inner)))
    for i in range(max(0, a - m), b - m + 1):
        inner = V.structure.get((iu, m + i, iw))
        if inner is not None:
            term = mode_left(V, iv, n + l - i, inner)
            rhs = vadd(rhs, vscale(-sgn * (-1) ** i * binom(l, i), term))
    return lhs, rhs


def sweep_instances(V):
    """Every (u, v, w, l, m, n) of check_jacobi's default sweep, in order."""
    a, b = _support(V)
    span = b - a + 1
    window = range(a - span - 1, b + span + 2)
    for l in window:
        for m in window:
            for n in window:
                if 2 * a <= l + m + n <= 2 * b:
                    for iu in range(V.rank):
                        for iv in range(V.rank):
                            for iw in range(V.rank):
                                yield iu, iv, iw, l, m, n


def _criterion_7_mutants(per_algebra):
    for _name, V in corpus():
        for site in mutation_sites(V, 30)[:per_algebra]:
            yield bump_structure_constant(V, *site)


LADDER_4 = tensor_with_ox(truncated_poly_va(4, [Q(0), Q(0), Q(1), Q(1, 2)]))


@pytest.mark.parametrize("V", [a3_va(), LADDER_4], ids=["a3", "ladder-4"])
def test_table_driven_jacobi_matches_reference_on_every_instance(V):
    count = 0
    for inst in sweep_instances(V):
        assert jacobi_instance(V, *inst) == reference_jacobi_instance(V, *inst), inst
        count += 1
    report = check_jacobi(V)
    assert report.passed
    assert f"({count} instances)" in report.window


def test_table_driven_jacobi_matches_reference_on_mutants():
    mutants = list(_criterion_7_mutants(3))
    assert len(mutants) >= 20
    for mutant in mutants:
        first_failure = None
        for inst in sweep_instances(mutant):
            got = jacobi_instance(mutant, *inst)
            assert got == reference_jacobi_instance(mutant, *inst), inst
            if first_failure is None and got[0] != got[1]:
                first_failure = inst
        report = check_jacobi(mutant)
        if first_failure is not None:
            names = [mutant.basis_names[i] for i in first_failure[:3]]
            l, m, n = first_failure[3:]
            assert report.witness == (f"(u={names[0]}, v={names[1]}, w={names[2]}, "
                                      f"l={l}, m={m}, n={n})")


def test_iterated_mode_tables_match_direct_contraction():
    # the integer tables are L^2 times the direct contractions
    for V in (a3_va(), LADDER_4, *_criterion_7_mutants(1)):
        a, b = _support(V)
        square = lcm_scale(V) ** 2
        for iu in range(V.rank):
            for iv in range(V.rank):
                for iw in range(V.rank):
                    left, right = integer_modes(V, iu, iv, iw)
                    for p in range(a - 1, b + 2):
                        for q in range(a - 1, b + 2):
                            want_l = vscale(square, mode_vec(V, V.mode(iu, p, iv), q, iw))
                            want_r = vscale(square, mode_left(V, iu, p, V.mode(iv, q, iw)))
                            assert left.get((p, q), {}) == want_l
                            assert right.get((p, q), {}) == want_r
                    assert all((*left.values(), *right.values()))


# ---------------------------------------------------------------------------
# iterated modes as a probe of the whole support square: the reference for
# the tables built from the entries of each pair, and for the triple index


def reference_iterated_modes(V, iu, iv, iw):
    """(u_p v)_q w and u_p (v_q w) at every (p, q) of the support square,
    one `mode_vec` or `mode_left` contraction per stored entry it meets."""
    left: dict = {}
    right: dict = {}
    a, b = V.global_support() or (0, -1)
    for p, q in product(range(a, b + 1), repeat=2):
        uv = V.structure.get((iu, p, iv))
        if uv is not None:
            accumulate(left, (p, q), mode_vec(V, uv, q, iw))
        vw = V.structure.get((iv, q, iw))
        if vw is not None:
            accumulate(right, (p, q), mode_left(V, iu, p, vw))
    return left, right


def lcm_scale(V):
    """L, the lcm of the denominators of the structure scalars of V."""
    return math.lcm(*(Q(x).denominator for vec in V.structure.values() for x in vec.values()))


def scaled_tables(tables, c):
    """c times every entry of each table."""
    return tuple({pq: {cd: c * x for cd, x in vec.items()} for pq, vec in table.items()}
                 for table in tables)


def all_ints(tables):
    return all(type(x) is int for table in tables for vec in table.values() for x in vec.values())


def assert_index_and_tables_match_reference(V):
    """`integer_modes` equals L^2 times the support-square reference on
    every basis triple, every value an int; every triple with a nonzero
    table is indexed, and the index is sorted, without repeats and closed
    under swapping u and v.  Returns the number of nonempty triples."""
    index = V.indexed_triples()
    assert list(index) == sorted(set(index))
    assert {(v, u, w) for u, v, w in index} == set(index)
    square = lcm_scale(V) ** 2
    nonempty = 0
    for t in product(range(V.rank), repeat=3):
        want = reference_iterated_modes(V, *t)
        got = integer_modes(V, *t)
        assert got == scaled_tables(want, square) and all_ints(got), t
        if any(want):
            assert t in index, t
            nonempty += 1
    return nonempty


@functools.cache
def a3_tensor_power(k):
    """a3 (x) ... (x) a3, k factors, built by `fixtures.tensor_product`."""
    V = a3_va()
    for _ in range(k - 1):
        V = tensor_product(V, a3_va())
    return V


INDEX_CASES = [
    *((name, V) for name, V in corpus()),
    *((f"ladder-{k}", tensor_with_ox(truncated_poly_va(k, [Q(0), Q(0), Q(1), Q(1, 2)])))
      for k in range(3, 9)),
    ("a3^2", a3_tensor_power(2)),
    ("a3^3", a3_tensor_power(3)),
    ("ladder-4*a3", tensor_product(truncated_poly_va(4, [Q(0), Q(0), Q(1), Q(1, 2)]), a3_va())),
]


@pytest.mark.parametrize("name,V", INDEX_CASES, ids=[case[0] for case in INDEX_CASES])
def test_iterated_modes_and_triple_index_match_support_square_reference(name, V):
    nonempty = assert_index_and_tables_match_reference(V)
    assert nonempty > 0
    if name == "a3^3":
        assert (V.rank, nonempty, len(V.indexed_triples())) == (27, 1000, 1000)


def test_iterated_modes_and_triple_index_on_mutants_and_noncommutative_tables():
    mutants = list(_criterion_7_mutants(30))
    assert len(mutants) == 211
    for V in (*mutants, *noncommutative_tables(60)):
        assert_index_and_tables_match_reference(V)


# ---------------------------------------------------------------------------
# the D-derivative and skew checks as window loops, one comparison per
# instance, contracting with `mode_vec`: the references for their scatters


def reference_check_d_derivative(V: VAData, window=None) -> CheckReport:
    name, label = "d-derivative", "l-1-0"
    rng = V.global_support()
    if rng is None and window is None:
        return CheckReport(name, label, True, "empty table, vacuous")
    a, b = rng if rng else (0, -1)
    lo, hi = merge_window(a - 1, b + 1, window)
    for i in range(V.rank):
        for j in range(V.rank):
            for n in range(lo, hi + 1):
                lhs = mode_vec(V, V.d_cols[i], n + 1, j)
                rhs = vscale(-(n + 1), V.mode(i, n, j))
                if lhs != rhs:
                    return CheckReport(
                        name, label, False, f"window n in [{lo}..{hi}]",
                        f"(u={V.basis_names[i]}, v={V.basis_names[j]}, n={n})",
                    )
    return CheckReport(
        name, label, True,
        f"window n in [{lo}..{hi}]; outside, both sides vanish by support bounds [{a}..{b}]",
    )


def reference_check_skew_symmetry(V: VAData, window=None) -> CheckReport:
    name, label = "skew-symmetry", "skew"
    rng = V.global_support()
    if rng is None and window is None:
        return CheckReport(name, label, True, "empty table, vacuous")
    a, b = rng if rng else (0, -1)
    kill = d_kill_bound(V)
    lo, hi = merge_window(a - kill, b + 1, window)
    orbits = d_orbits(V)
    for i in range(V.rank):
        for j in range(V.rank):
            for m in range(lo, hi + 1):
                lhs = V.mode(i, m, j)
                rhs: Vector = {}
                for k in range(max(0, a - m), b - m + 1):
                    orbit = orbits.get((j, k + m, i), ())
                    if k < len(orbit):
                        sign = 1 if (k + m + 1) % 2 == 0 else -1
                        rhs = vadd(rhs, vscale(Q(sign, math.factorial(k)), orbit[k]))
                if lhs != rhs:
                    return CheckReport(
                        name, label, False, f"window m in [{lo}..{hi}]",
                        f"(u={V.basis_names[i]}, v={V.basis_names[j]}, m={m})",
                    )
    return CheckReport(
        name, label, True,
        f"window m in [{lo}..{hi}]; outside, every term vanishes "
        f"(support [{a}..{b}], D-kill bound {kill})",
    )


def outcome(check, V: VAData, window):
    """The report, or the type and text of the library error it raises."""
    try:
        return check(V, window)
    except ChiralvaError as err:
        return type(err), str(err)


def d_column_mutants():
    """Every corpus table with +1 or, read over Q[z], +z on one coordinate of
    one column of D: some break the derivation rule, some make D
    non-nilpotent on the table."""
    for name, V in corpus():
        for j, c, deg in product(range(V.rank), range(V.rank), (0, 1)):
            W = tensor_with_ox(V) if deg and V.coeff_ring == "Q" else V
            d_cols = list(W.d_cols)
            d_cols[j] = vadd(d_cols[j], {(c, deg): 1})
            yield (name, j, c, deg), VAData(W.rank, W.coeff_ring, W.basis_names, dict(W.structure), tuple(d_cols))


def assert_scatters_match_window_loops(V: VAData, window, where=None) -> int:
    """Both scattered checks report as their window loops; returns how many
    of the two fail."""
    failing = 0
    for check, reference in ((check_d_derivative, reference_check_d_derivative),
                             (check_skew_symmetry, reference_check_skew_symmetry)):
        want = outcome(reference, V, window)
        assert outcome(check, V, window) == want, (where, check.__name__, window)
        failing += not (isinstance(want, CheckReport) and want.passed)
    return failing


SCATTER_WINDOWS = [None, (-9, 4), (-20, 0)]


@pytest.mark.parametrize("window", SCATTER_WINDOWS, ids=["default", "window-9:4", "window-20:0"])
def test_d_derivative_and_skew_scatters_match_window_loops(window):
    # the corpus, every mutant at its first 60 sites (the first 30 of each
    # table are the 211 criterion-7 mutants) and every D-column mutant
    cases = failing = criterion_7 = 0
    for name, V in corpus():
        sites = mutation_sites(V, 60)
        criterion_7 += len(sites[:30])
        for where, W in ((name, V), *(((name, site), bump_structure_constant(V, *site)) for site in sites),
                         *((where, W) for where, W in d_column_mutants() if where[0] == name)):
            failing += assert_scatters_match_window_loops(W, window, where)
            cases += 1
    assert criterion_7 == 211 and failing > cases // 2, (cases, failing)
