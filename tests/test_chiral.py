import functools
import io
import random
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, product
from pathlib import Path

import pytest

from chiralva import chiral, serialize, vertex
from chiralva.chiral import (
    NOT_SWEPT,
    ChiralData,
    ChiralGenerator,
    _compose_left_basis,
    _compose_right_basis,
    _key_scatter,
    _keyed_sweep,
    _scatter_binoms,
    bump_b_entry,
    check_all_chiral,
    check_chiral_jacobi,
    check_chiral_skew,
    check_dmodule_morphism,
    compose_left,
    compose_right,
    diag3_transpose,
    diag_add,
    diag_apply_d1,
    diag_apply_d2,
    diag_contract,
    diag_mul_z12,
    diag_scale,
    dmodule_parts,
    mu_eval,
    sigma12_triple,
)
from chiralva.cli import main
from chiralva.equivalence import axiom_suite, va_to_chiral
from chiralva.errors import ContractError
from chiralva.exact import Q, binom, inv_factorial
from chiralva.fixtures import a3_basis_changed, a3_va, corpus, tensor_product, truncated_poly_va
from chiralva.report import CheckReport
from chiralva.vertex import (
    VAData,
    apply_d,
    bump_structure_constant,
    check_all_va,
    check_jacobi,
    contract,
    d_kill_bound,
    integer_modes,
    mode_left,
    mode_vec,
    merge_window,
    mutation_sites,
    pair_name,
    tensor_with_ox,
    triple_name,
    unit,
    vadd,
    vscale,
)
from test_vertex import d_power, lcm_scale, reference_iterated_modes
from ordinary_powers import (
    apply_d1,
    apply_d2,
    divided,
    mul_z12,
    ordinary_b_layer,
    ordinary_basis_section,
    ordinary_compose_left_basis,
    ordinary_compose_right_basis,
)


def a3_chiral() -> ChiralData:
    return va_to_chiral(tensor_with_ox(a3_va()), checked=False)


# ---------------------------------------------------------------------------
# independent oracle: iterated modes in Q[t]/(t^3) plus the displayed layer
# formulas for the two compositions


def tmul(a, b):
    out = [Q(0)] * 3
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < 3:
                out[i + j] += x * y
    return tuple(out)


def tderiv(a):
    out = [Q(0)] * 3
    for i, x in enumerate(a):
        if i >= 1 and i + 1 < 3:
            out[i + 1] += i * x
    return tuple(out)


def omode(u, n, v):
    if n >= 0:
        return (Q(0),) * 3
    w = u
    fact = 1
    for step in range(-1 - n):
        w = tderiv(w)
        fact *= step + 1
    return tuple(c / fact for c in tmul(w, v))


OB = [(Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1))]


def oracle_left_layer(m1, m2, m3, u, v, w, k, l):
    total = (Q(0),) * 3
    for i in range(0, 12):
        c = binom(m3 + k, i)
        if not c:
            continue
        inner = omode(u, m1 + i, v)
        term = omode(inner, m3 + m2 - i + k + l, w)
        total = tuple(a + c * b for a, b in zip(total, term))
    scale = (-1) ** (k + l)  # the divided entry k! l! a_{k,l}
    return tuple(scale * c for c in total)


def oracle_right_layer(m1, m2, m3, u, v, w, k, l):
    total = (Q(0),) * 3
    for i in range(0, 12):
        c = (-1) ** i * binom(m1, i)
        inner = omode(v, m2 + i + l, w)
        term = omode(u, m1 + m3 - i + k, inner)
        total = tuple(a + c * b for a, b in zip(total, term))
    scale = (-1) ** (k + l)  # the divided entry k! l! a_{k,l}
    return tuple(scale * c for c in total)


def to_poly_vec(coords):
    return {(i, 0): c for i, c in enumerate(coords) if c}


def test_mu_eval_running_examples():
    A = a3_chiral()
    one, t = unit(0), unit(1)
    sec = mu_eval(A, ChiralGenerator(-2, t, one))
    assert sec == {0: unit(2), 1: vscale(Q(-1), t)}
    assert mu_eval(A, ChiralGenerator(0, t, t)) == {}
    assert mu_eval(A, ChiralGenerator(-1, t, t)) == {0: unit(2)}


def test_mu_eval_matches_displayed_formula():
    A = a3_chiral()
    for i in range(3):
        for j in range(3):
            for n in range(-5, 2):
                sec = mu_eval(A, ChiralGenerator(n, unit(i), unit(j)))
                for m in range(0, 6):
                    # the divided layer m! B^n_m = (-1)^m B^{m+n}_0
                    expect = vscale((-1) ** m, to_poly_vec(omode(OB[i], m + n, OB[j])))
                    got = sec.get(m, {})
                    assert got == expect or (not expect and m not in sec)


def test_diag_mul_z12_examples():
    a = unit(1)
    assert diag_mul_z12({1: a}) == {0: vscale(Q(-1), a)}
    assert diag_mul_z12({0: a}) == {}
    assert diag_mul_z12({2: a}) == {1: vscale(Q(-1), a)}  # d1^(2) -> -d1^(1)


def test_diag_apply_d1_examples():
    a, b = unit(1), unit(2)
    assert diag_apply_d1({0: a}) == {1: a}
    assert diag_apply_d1({}) == {}
    assert diag_apply_d1({0: a, 1: b}) == {1: a, 2: vscale(2, b)}  # d1 d1^(1) = 2 d1^(2)


def test_diag_apply_d2_examples():
    A = a3_chiral()
    t = unit(1)
    out = diag_apply_d2(A, {0: t})
    assert out == {0: unit(2), 1: vscale(Q(-1), t)}  # D t = t^2
    e0 = unit(0)
    assert diag_apply_d2(A, {0: e0}) == {1: vscale(Q(-1), e0)}  # D e0 = 0
    s = {0: t}
    s2 = {0: e0}
    both = diag_apply_d2(A, diag_add(s, s2))
    assert both == diag_add(diag_apply_d2(A, s), diag_apply_d2(A, s2))


def test_commutator_of_d1_and_multiplication_is_identity():
    # [d1, (z1 - z2)] = 1 on random sections
    rng = random.Random(3)
    for _ in range(10):
        s = {
            k: to_poly_vec([Q(rng.randint(-3, 3)) for _ in range(3)])
            for k in range(rng.randint(1, 4))
        }
        s = {k: v for k, v in s.items() if v}
        lhs = diag_apply_d1(diag_mul_z12(s))
        rhs = diag_mul_z12(diag_apply_d1(s))
        diff = diag_add(lhs, diag_scale(Q(-1), rhs))
        assert diff == s


def test_d1_plus_d2_acts_as_derivation_layerwise():
    A = a3_chiral()
    rng = random.Random(4)
    for _ in range(10):
        s = {
            k: to_poly_vec([Q(rng.randint(-3, 3)) for _ in range(3)])
            for k in range(rng.randint(1, 3))
        }
        s = {k: v for k, v in s.items() if v}
        total = diag_add(diag_apply_d1(s), diag_apply_d2(A, s))
        expect = {k: apply_d(A.va, v) for k, v in s.items()}
        expect = {k: v for k, v in expect.items() if v}
        assert total == expect


def test_dmodule_morphism_passes_on_a3():
    rep = check_dmodule_morphism(a3_chiral())
    assert rep.passed


def test_dmodule_morphism_detects_broken_recursion():
    # The full sweep fails part (a); the check stops at the O-linearity gate,
    # and its parts are not defined there.
    A = bump_b_entry(a3_chiral(), 1, -1, 0, 1, 0)  # bump B^{-1}_1(t, 1)
    part_a = reference_dmodule_parts(A)["a"]
    assert part_a == {"label": "expl-exp4", "passed": False, "witness": "(u=t, v=1, n=-2)"}
    witness = "mu is not O-linear: explicit layer (u=t, v=1, n=-1, m=1) disagrees with the recursion"
    with pytest.raises(ContractError, match=r"explicit layer \(u=t, v=1, n=-1, m=1\)"):
        dmodule_parts(A)
    rep = check_dmodule_morphism(A)
    assert rep == CheckReport("d-module-morphism", "expl-exp1", False, NOT_SWEPT, witness)
    assert rep.details == ()


def test_dmodule_morphism_empty_algebra():
    empty = ChiralData(VAData(0, "Q[z]", (), {}, ()))
    assert check_dmodule_morphism(empty).passed
    assert all(r.passed for r in check_all_chiral(empty))


def test_chiral_skew_passes_and_extraction_example():
    A = a3_chiral()
    assert check_chiral_skew(A).passed
    # B^{-2}_0(t,1) = t^2 equals -(D^0 B^{-2}_0(1,t) + D^1 B^{-2}_1(1,t))
    va = A.va
    b0 = A.b_layer(1, -2, 0, 0)
    rhs = {}
    for k in range(0, 4):
        rhs = vadd(rhs, vscale(Q(-1), d_power(va, ordinary_b_layer(A, 0, -2, 1, k), k)))
    assert b0 == rhs == unit(2)


def test_mu_eval_stops_at_the_gate_off_the_recursion():
    # Off the recursion mu is no D-module morphism: mu_eval refuses with the
    # gate's text, as the compositions do, before any section is built.
    B = bump_b_entry(a3_chiral(), 1, -1, 0, 1, 0)
    with pytest.raises(ContractError) as err:
        mu_eval(B, ChiralGenerator(-1, unit(1), unit(0)))
    assert str(err.value) == ("mu is not O-linear: explicit layer (u=t, v=1, n=-1, m=1) "
                              "disagrees with the recursion")
    assert not [key for key in B._cache if key[0] == "sec"]


def test_chiral_skew_reads_every_power_of_d_from_the_orbits(monkeypatch):
    # Layer m of the swapped section is (-1)^m times a stored value, whose
    # powers of D the D-orbits already hold: skew applies D itself nowhere.
    path = Path(__file__).parent.parent / "fixtures" / "a3_chiral.json"
    calls = Counter()
    monkeypatch.setattr(chiral, "apply_d", lambda V, u: calls.update(["apply_d"]) or apply_d(V, u))
    for window in (None, (-3000, 0)):
        assert check_chiral_skew(serialize.load_path(path), window).passed
        assert not calls, window


def jacobi_difference(V: VAData, u, v, w, l: int, m: int, n: int, top: int = 10) -> dict:
    """lhs - rhs of the component Jacobi identity, from its definition

        sum_i binom(m, i) (u_{l+i} v)_{m+n-i} w
          = sum_i (-1)^i binom(l, i) (u_{m+l-i} (v_{n+i} w) - (-1)^l v_{n+l-i} (u_{m+i} w)),

    with every mode read by `vertex_coeff`; the i-sums stop below `top`,
    which must pass every mode's support."""
    c = functools.partial(vertex.vertex_coeff, V)
    sign_l = -1 if l % 2 else 1
    out: dict = {}
    for i in range(top):
        out = vadd(out, vscale(binom(m, i), c(c(u, l + i, v), m + n - i, w)))
        rhs = vadd(c(u, m + l - i, c(v, n + i, w)), vscale(-sign_l, c(v, n + l - i, c(u, m + i, w))))
        out = vadd(out, vscale(-(-1) ** i * binom(l, i), rhs))
    return out


def test_a_table_only_the_closure_certificates_decide():
    # b_2 a = a alone (rank 2 over Q, D = 0) fails Jacobi first at
    # J(-1, 1, 4)(b, b, a) = -a, outside both default windows: there every
    # swept instance holds and only the composition certificate fails it,
    # and a window reaching l = m1 = -1 sweeps the failing instances.
    fixtures = Path(__file__).parent.parent / "fixtures"
    V = serialize.load_path(fixtures / "high_support.json")
    A = serialize.load_path(fixtures / "high_support_chiral.json")
    assert V.basis_names == ("a", "b") and V.structure == {(1, 2, 0): unit(0)} and not any(V.d_cols)
    assert serialize.dumps(va_to_chiral(V, checked=False)) == (fixtures / "high_support_chiral.json").read_text()
    a, b = unit(0), unit(1)
    assert jacobi_difference(V, b, b, a, -1, 1, 4) == vscale(-1, a)
    assert jacobi_difference(V, b, b, a, -1, 1, 4, top=40) == vscale(-1, a)
    closure = "composition identity at exponents (0, -3) for (u=b, v=b, w=a)"
    va, ch = check_jacobi(V), check_chiral_jacobi(A)
    assert (va.passed, va.window, va.witness) == (False, "window (l,m,n) in [0..4]^3 plus closure certificates",
                                                  closure)
    assert (ch.passed, ch.window, ch.witness) == (
        False, "window (m1,m2,m3) in [1..3]^3 plus closure certificates", f"m=0 layer {closure}")
    va, ch = check_jacobi(V, (-1, 4)), check_chiral_jacobi(A, (-1, 4))
    assert (va.passed, va.witness) == (False, "(u=b, v=b, w=a, l=-1, m=1, n=4)")
    assert (ch.passed, ch.witness) == (False, "(u=b, v=b, w=a, m1=-1, m2=-1, m3=-1)")


def test_chiral_skew_sign_flip_fails():
    A = a3_chiral()
    va = A.va
    negated = {k: vscale(Q(-1), v) for k, v in va.structure.items()}
    flipped = ChiralData(VAData(va.rank, "Q[z]", va.basis_names, negated, va.d_cols))
    # negating mu breaks mu o sigma12 = -mu only where the identity is
    # asymmetric; bumping one side directly is the sharper control
    bumped = bump_b_entry(A, 1, -2, 0, 0, 0)
    assert not check_chiral_skew(bumped).passed
    assert check_chiral_skew(flipped).passed  # -mu is again a chiral product


def test_compose_left_examples_and_oracle():
    A = a3_chiral()
    one, t = unit(0), unit(1)
    sec = compose_left(A, -1, -1, -1, one, t, one)
    assert sec[(0, 0)] == unit(2)
    for (k, l), val in sec.items():
        assert val == to_poly_vec(oracle_left_layer(-1, -1, -1, OB[0], OB[1], OB[0], k, l))
    # every stored layer of several sweeps agrees with the oracle
    for m1, m2, m3 in [(-1, -1, -1), (-2, -1, -1), (-1, -2, -3), (-3, -2, -1)]:
        for iu in range(3):
            for iv in range(3):
                sec = compose_left(A, m1, m2, m3, unit(iu), unit(iv), one)
                for k in range(0, 5):
                    for l in range(0, 5):
                        expect = to_poly_vec(
                            oracle_left_layer(m1, m2, m3, OB[iu], OB[iv], OB[0], k, l)
                        )
                        assert sec.get((k, l), {}) == expect


def test_compose_left_vanishes_for_regular_exponents():
    A = a3_chiral()
    t = unit(1)
    assert compose_left(A, 1, 1, 1, t, t, t) == {}
    assert compose_right(A, 2, 3, 1, t, t, t) == {}


def left_term_rule(A: ChiralData, modes, iu, n1, k, iv, n2, l, iw):
    """k! l! B^{n2}_l(B^{n1}_k(e_iu, e_iv), e_iw) as (scalar, vector), or None
    if zero, one term at a time: from the triple's (u_p v)_q w table `modes`,
    or through a rank-wide layer map, which reads explicit layers (the layer
    rule, modes None)."""
    if modes is not None:
        dbl = modes.get((n1 + k, n2 + l))
        return None if dbl is None else ((-1) ** (k + l), dbl)
    inner = A.b_layer(iu, n1, iv, k)
    outer = contract(inner, {p: A.b_layer(p, n2, iw, l) for p in range(A.va.rank)})
    return (1, outer) if outer else None


def right_term_rule(A: ChiralData, modes, iu, n1, k, iv, n2, l, iw):
    """B^{n1}_k(e_iu, B^{n2}_l(e_iv, e_iw)), like `left_term_rule`; `modes`
    is the triple's u_p (v_q w) table."""
    if modes is not None:
        dbl = modes.get((n1 + k, n2 + l))
        return None if dbl is None else ((-1) ** (k + l), dbl)
    inner = A.b_layer(iv, n2, iw, l)
    outer = contract(inner, {p: A.b_layer(iu, n1, p, k) for p in range(A.va.rank)})
    return (1, outer) if outer else None


def walking_compose_left_basis(A: ChiralData, m1, m2, m3, iu, iv, iw, layers=False) -> dict:
    """`_compose_left_basis` term by term (`left_term_rule`), walking every
    k of [0, hi - m2 - m3 + i], the zeros of binom(m3 + k, i) included; by
    the layer rule if `layers`."""
    lo, hi = A.effective_support()
    left = None if layers else reference_iterated_modes(A.va, iu, iv, iw)[0]
    out: dict = {}
    for i in range(max(0, lo - m1), hi - m1 + 1):
        for k in range(0, hi - m2 - m3 + i + 1):
            c = binom(m3 + k, i)
            if not c:
                continue
            n2 = m2 + m3 + k - i
            for l in range(max(0, lo - n2), hi - n2 + 1):
                term = left_term_rule(A, left, iu, m1 + i - k, k, iv, n2, l, iw)
                if term is not None:
                    scalar, vec = term
                    out[(k, l)] = vadd(out.get((k, l), {}), vscale(c * scalar, vec))
    return {key: val for key, val in out.items() if val}


def term_rule_compose_right_basis(A: ChiralData, m1, m2, m3, iu, iv, iw, layers=False) -> dict:
    """`_compose_right_basis` term by term (`right_term_rule`); by the layer
    rule if `layers`."""
    lo, hi = A.effective_support()
    right = None if layers else reference_iterated_modes(A.va, iu, iv, iw)[1]
    out: dict = {}
    for i in range(max(0, m1 + m3 - hi), hi - m2 + 1):
        c = (-1) ** i * binom(m1, i)
        n1, n2 = m1 + m3 - i, m2 + i
        for l, k in product(range(max(0, lo - n2), hi - n2 + 1), range(max(0, lo - n1), hi - n1 + 1)):
            term = right_term_rule(A, right, iu, n1, k, iv, n2, l, iw) if c else None
            if term is not None:
                scalar, vec = term
                out[(k, l)] = vadd(out.get((k, l), {}), vscale(c * scalar, vec))
    return {key: val for key, val in out.items() if val}


def test_compose_left_skips_the_vanishing_binomials():
    # equal to the term-by-term loop over every k on [-12..4]^3 for a3, and
    # for a3-basis-change with a redundant explicit layer on a smaller box
    A = a3_chiral()
    nonzero = 0
    for B, box, triples in ((A, range(-12, 5), [(1, 1, 1), (1, 1, 2), (2, 1, 0)]),
                            (redundant_layer("a3-basis-change"), range(-6, 3), [(1, 1, 1), (1, 1, 0)])):
        for ms in product(box, repeat=3):
            for triple in triples:
                want = walking_compose_left_basis(B, *ms, *triple)
                assert _compose_left_basis(B, *ms, *triple) == want, (ms, triple)
                nonzero += bool(want)
    assert nonzero > 100


def test_compositions_refuse_a_family_off_the_recursion(tmp_path):
    # Off the recursion mu is not O-linear, so neither composition is
    # defined: both raise, naming the layer, and compose-diff exits 2 with
    # the same text.
    cases = ((bump_b_entry(a3_chiral(), 1, -3, 1, 1, 2), "(u=t, v=t, n=-3, m=1)"),
             (bump_b_entry(va_to_chiral(a3_basis_changed(seed=7), checked=False), 0, -2, 1, 2, 1),
              "n=-2, m=2)"))
    for B, where in cases:
        text = chiral.o_linearity_witness(B)
        assert text.startswith("mu is not O-linear: explicit layer (") and where in text
        assert text.endswith(") disagrees with the recursion")
        for core in (compose_left, compose_right):
            with pytest.raises(ContractError) as err:
                core(B, -1, -1, -1, unit(0), unit(1), unit(0))
            assert str(err.value) == text
    path = tmp_path / "layer.json"
    path.write_text(serialize.dumps(cases[0][0]), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["compose-diff", str(path), "-1", "-1", "-1", "1", "t", "1"])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"contract error: {chiral.o_linearity_witness(cases[0][0])}\n"


def test_compose_left_binomials_do_not_grow_with_m1(monkeypatch):
    # compose-diff at m1 = -10^6 used to walk about 10^6 values of k per i,
    # on (u, v, w) = (1, t, t) as here.  The terms are left out (a nonempty
    # section at m1 = -10^6 is large): the stubs count what the loop reads,
    # the iterated-mode table entries, and return zero.
    calls = Counter()

    def counting(n, m):
        calls[m1, "binom"] += 1
        return binom(n, m)

    class NoEntries(dict):
        def get(self, key, default=None):
            calls[m1, "term"] += 1
            return default

    monkeypatch.setattr(chiral, "binom", counting)
    monkeypatch.setattr(chiral, "integer_modes", lambda va, *triple: (NoEntries(), NoEntries()))
    A = a3_chiral()
    for m2, m3 in ((0, 0), (-2, 0), (-1, -3), (-3, 1)):
        for m1 in (-10, -10 ** 6):
            _compose_left_basis(A, m1, m2, m3, 0, 1, 1)
        for what in ("binom", "term"):
            assert calls[-10 ** 6, what] == calls[-10, what] <= 100, (m2, m3, what)
        assert calls[-10, "term"] > 0 or (m2, m3) == (0, 0)
        calls.clear()


def test_compose_linearity_in_w():
    A = a3_chiral()
    one, t, t2 = unit(0), unit(1), unit(2)
    w = vadd(one, vscale(Q(3), t))
    for core in (compose_left, compose_right):
        combined = core(A, -1, -2, -1, t, one, w)
        separate = core(A, -1, -2, -1, t, one, one)
        scaled = core(A, -1, -2, -1, t, one, t)
        expect = {}
        for key, val in separate.items():
            expect[key] = val
        for key, val in scaled.items():
            expect[key] = vadd(expect.get(key, {}), vscale(Q(3), val))
        assert combined == {k: v for k, v in expect.items() if v}


def test_compose_right_examples_and_oracle():
    A = a3_chiral()
    one, t = unit(0), unit(1)
    sec = compose_right(A, -1, -1, -1, one, t, one)
    assert (0, 0) not in sec
    perm = compose_right(A, -1, -1, -1, t, one, one)
    assert perm[(0, 0)] == unit(2)
    for m1, m2, m3 in [(-1, -1, -1), (-2, -1, -1), (-1, -2, -3)]:
        for iu in range(3):
            for iv in range(3):
                sec = compose_right(A, m1, m2, m3, unit(iu), unit(iv), one)
                for k in range(0, 5):
                    for l in range(0, 5):
                        expect = to_poly_vec(
                            oracle_right_layer(m1, m2, m3, OB[iu], OB[iv], OB[0], k, l)
                        )
                        assert sec.get((k, l), {}) == expect


def test_closed_form_and_layer_rules_compose_alike():
    # One redundant override equal to its closed form leaves the family on
    # the recursion.  The layer rule (`left_term_rule` and `right_term_rule`
    # without tables) contracts rank-wide layer maps that read the override,
    # term by term, without changing the family, so it must give the closed
    # form's sections, on every basis triple of a box around the support.
    for V in (tensor_with_ox(a3_va()), a3_basis_changed(seed=7)):
        A = va_to_chiral(V, checked=False)
        i, n, j = min(A.va.structure)
        layer = ordinary_b_layer(A, i, n - 1, j, 1)
        assert layer
        redundant = ChiralData(A.va, {(i, n - 1, j, 1): layer})
        assert redundant.off_recursion() is None
        nonempty = 0
        for ms in product(range(-3, 1), repeat=3):
            for triple in product(range(A.va.rank), repeat=3):
                closed = _compose_left_basis(A, *ms, *triple)
                assert walking_compose_left_basis(redundant, *ms, *triple, layers=True) == closed
                assert _compose_left_basis(redundant, *ms, *triple) == closed
                closed = _compose_right_basis(A, *ms, *triple)
                assert term_rule_compose_right_basis(redundant, *ms, *triple, layers=True) == closed
                assert _compose_right_basis(redundant, *ms, *triple) == closed
                nonempty += bool(closed)
        assert nonempty > 100


def test_closed_form_double_contractions_match_direct_contraction():
    # The closed-form rule reads B^{j1}_0(B^{j0}_0(u, v), w) and
    # B^{j0}_0(u, B^{j1}_0(v, w)) from the iterated-mode tables, which the
    # term rules take from the support-square reference; contract them
    # directly from the m = 0 layer instead, and check the integer tables
    # the compositions read against L^2 times the same contractions.
    for V in (tensor_with_ox(a3_va()), a3_basis_changed(seed=7)):
        A = va_to_chiral(V, checked=False)
        va = A.va
        lo, hi = A.effective_support()
        square = lcm_scale(va) ** 2
        hits = 0
        for iu in range(A.va.rank):
            for iv in range(A.va.rank):
                for iw in range(A.va.rank):
                    left, right = reference_iterated_modes(va, iu, iv, iw)
                    int_left, int_right = integer_modes(va, iu, iv, iw)
                    for j0 in range(lo - 2, hi + 3):
                        for j1 in range(lo - 2, hi + 3):
                            double_left = mode_vec(va, A.va.structure.get((iu, j0, iv), {}), j1, iw)
                            double_right = mode_left(va, iu, j0, A.va.structure.get((iv, j1, iw), {}))
                            assert left.get((j0, j1), {}) == double_left
                            assert right.get((j0, j1), {}) == double_right
                            assert int_left.get((j0, j1), {}) == vscale(square, double_left)
                            assert int_right.get((j0, j1), {}) == vscale(square, double_right)
                            hits += bool(double_left)
        assert hits > 0


def test_sigma12_triple_bookkeeping():
    u, v, w = unit(0), unit(1), unit(2)
    sign, m1, m2, m3, a, b, c = sigma12_triple(-1, -1, -1, u, v, w)
    assert sign == Q(-1)
    assert (m1, m2, m3) == (-1, -1, -1)
    assert (a, b, c) == (v, u, w)
    sign, *_ = sigma12_triple(0, -5, 2, u, v, w)
    assert sign == Q(1)
    sign1, p1, p2, p3, a, b, c = sigma12_triple(-3, -1, -2, u, v, w)
    sign2, q1, q2, q3, a, b, c = sigma12_triple(p1, p2, p3, a, b, c)
    assert sign1 * sign2 == Q(1)
    assert (q1, q2, q3) == (-3, -1, -2)
    assert (a, b, c) == (u, v, w)


def test_chiral_jacobi_passes_and_example_layer():
    A = a3_chiral()
    assert check_chiral_jacobi(A).passed
    one, t = unit(0), unit(1)
    left = compose_left(A, -1, -1, -1, one, t, one)
    right = compose_right(A, -1, -1, -1, one, t, one)
    perm = compose_right(A, -1, -1, -1, t, one, one)
    # at layer (0,0): t^2 = 0 - (-1) t^2
    assert left[(0, 0)] == unit(2)
    assert right.get((0, 0), {}) == {}
    assert perm[(0, 0)] == unit(2)


def test_chiral_jacobi_mutation_control():
    A = bump_b_entry(a3_chiral(), 0, -1, 0, 0, 0)
    assert not check_chiral_jacobi(A).passed


def test_recursion_determines_family_from_m0_layer():
    # B^n_k = ((-1)^k / k!) B^{k+n}_0 for every pair and windowed index; the
    # divided layer k! B^n_k is (-1)^k B^{k+n}_0
    A = a3_chiral()
    assert check_dmodule_morphism(A).passed
    for i in range(3):
        for j in range(3):
            for n in range(-6, 2):
                for k in range(0, 6):
                    expect = vscale((-1) ** k, A.b_layer(i, n + k, j, 0))
                    assert A.b_layer(i, n, j, k) == expect
                    assert ordinary_b_layer(A, i, n, j, k) == vscale(inv_factorial(k), expect)


def test_compose_trilinearity_over_polynomials():
    A = a3_chiral()
    one, t = unit(0), unit(1)
    fu = {(1, 1): 1}  # z.t
    gv = {(0, 0): Q(2)}  # 2.1
    for core in (compose_left, compose_right):
        scaled = core(A, -2, -1, -1, fu, gv, t)
        plain = core(A, -2, -1, -1, t, one, t)
        expect = {k: {(c, d + 1): Q(2) * x for (c, d), x in v.items()} for k, v in plain.items()}
        assert scaled == expect


# ---------------------------------------------------------------------------
# the keyed chiral-Jacobi sweep, and its oracle: the gather that built each
# key's term list and summed the three tables per key and basis triple, before
# the sweep became a scatter


def key_terms(lo: int, hi: int, m1: int, M: int, N: int) -> list:
    """Left minus right side at key (m1, M, N) as (table, (p, q), int) terms over
    ((u_p v)_q w, u_p (v_q w), v_p (u_q w)), from the expansions of (z1-z3)^M in
    powers of z1-z2 and of (z1-z2)^m1 in powers of z2-z3; keys off [lo..hi]^2
    read zero and are left out."""
    terms = [(0, (m1 + i, M + N - i), binom(M, i))
             for i in range(max(0, lo - m1), hi - m1 + 1) if lo <= M + N - i <= hi]
    for t, a, b, sign in ((1, M, N, -1), (2, N, M, (-1) ** (m1 % 2))):  # right: uv - (-1)^m1 vu
        terms += [(t, (m1 + a - i, b + i), sign * (-1) ** i * binom(m1, i))
                  for i in range(max(0, lo - b), hi - b + 1) if lo <= m1 + a - i <= hi]
    return [term for term in terms if term[2]]


def gather_keys(blo: int, lo: int, hi: int, m1: int) -> list:
    """(key, terms) for every key (m1, M, N) of the sweep with a term."""
    return [((m1, M, N), terms) for M in range(blo, 2 * hi - m1 - blo + 1)
            for N in range(max(blo, 2 * lo - m1 - M), 2 * hi - m1 - M + 1)
            if (terms := key_terms(lo, hi, m1, M, N))]


def gather_sums(keys: list, tables) -> dict:
    """{key: its nonzero left-minus-right sum} over the gathered keys."""
    out = {}
    for key, terms in keys:
        acc: dict = {}
        for t, at, c in terms:
            for cd, x in tables[t].get(at, {}).items():
                acc[cd] = acc.get(cd, 0) + c * x
        acc = {cd: x for cd, x in acc.items() if x}
        if acc:
            out[key] = acc
    return out


def triple_tables(A: ChiralData, iu: int, iv: int, iw: int) -> tuple:
    """(u_p v)_q w, u_p (v_q w) and v_p (u_q w), from the support-square
    reference."""
    va = A.va
    return (*reference_iterated_modes(va, iu, iv, iw), reference_iterated_modes(va, iv, iu, iw)[1])


def gather_keyed_sweep(A: ChiralData, blo: int, bhi: int, lo: int, hi: int):
    """`_keyed_sweep` as a gather over the whole box: every key of each m1
    sums its terms for every basis triple."""
    for m1 in range(blo, min(bhi, 2 * hi - 2 * blo) + 1):
        keys = gather_keys(blo, lo, hi, m1)
        for iu, iv, iw in product(range(A.va.rank), repeat=3):
            if gather_sums(keys, triple_tables(A, iu, iv, iw)):
                return f"({triple_name(A.va, iu, iv, iw)}, m1={m1}, m2={blo}, m3={blo})"
    return None


def scatter_sums(m1: int, blo: int, lo: int, hi: int, tables) -> dict:
    """`_key_scatter` regrouped as {key: its nonzero sum}, like `gather_sums`."""
    out: dict = {}
    for (M, N, cd), x in _key_scatter(m1, blo, tables, _scatter_binoms(m1, blo, lo, hi)).items():
        if x:
            out.setdefault((m1, M, N), {})[cd] = x
    return out


def _box(A: ChiralData, window=None):
    lo, hi = A.effective_support()
    span = hi - lo + 1
    return (*merge_window(lo - span, hi + span, window), lo, hi)


def keyed_sweep(A: ChiralData, blo: int, bhi: int, lo: int, hi: int):
    """`_keyed_sweep` on the sweep's box, like the oracles."""
    return _keyed_sweep(A, blo, lo, hi)


@pytest.mark.parametrize("name", ["a3", "random-2"])
def test_composition_entries_are_keyed_sums(name):
    # Entry (k, l) of each composition at (m1, m2, m3), in divided powers, is
    # (-1)^(k+l) times the matching sum of `key_terms` at (m1, m3+k, m2+l): the left
    # composition is the left sum, the right composition minus the right
    # sum, and the transposed swapped term (-1)^m1 times the swapped sum.
    # random-2 is covered at m2 = blo only, which is where every key of the
    # sweep is first read.
    A = va_to_chiral(dict(corpus())[name], checked=False)
    blo, bhi, lo, hi = _box(A)
    zero = {}
    m2s = range(blo, bhi + 1) if name == "a3" else (blo,)
    eps = [(-1) ** k for k in range(3 * (bhi - blo) + 1)]
    nonzero = 0
    for iu, iv, iw in product(range(A.va.rank), repeat=3):
        tables = triple_tables(A, iu, iv, iw)
        sums: dict = {}  # key -> its three keyed sums (None for zero), once per triple
        for m1, m2, m3 in product(range(blo, bhi + 1), m2s, range(blo, bhi + 1)):
            if m1 + m2 + m3 > 2 * hi:
                continue
            sign = (-1) ** (m1 % 2)
            expect: tuple = ({}, {}, {})  # the left, right and transposed swapped sections
            top = 2 * hi - m1 - m2 - m3  # k + l above this reads no key of the slice
            for k, l in product(range(top + 1), repeat=2):
                if k + l > top:
                    continue
                key = (m1, m3 + k, m2 + l)
                if key not in sums:
                    out = [zero, zero, zero]
                    for t, at, c in key_terms(lo, hi, *key):
                        if at in tables[t]:
                            out[t] = vadd(out[t], vscale(c, tables[t][at]))
                    sums[key] = [None if not x else x for x in out]
                for t, c in ((0, 1), (1, -1), (2, sign)):
                    if sums[key][t] is not None:
                        expect[t][(k, l)] = vscale(c * eps[k] * eps[l], sums[key][t])
            left = _compose_left_basis(A, m1, m2, m3, iu, iv, iw)
            right = _compose_right_basis(A, m1, m2, m3, iu, iv, iw)
            swapped = _compose_right_basis(A, m1, m3, m2, iv, iu, iw)
            where = (iu, iv, iw, m1, m2, m3)
            assert left == expect[0], where
            assert right == expect[1], where
            assert diag3_transpose(swapped) == expect[2], where
            nonzero += sum(map(len, expect))
    assert nonzero > 0


ORACLE_CASES = [(name, None) for name in
                ("a3", "trivial-rank1", "random-0", "random-1", "random-3", "ladder-3")]
ORACLE_CASES.append(("a3", (-3, 4)))


@pytest.mark.parametrize("name,window", ORACLE_CASES, ids=lambda x: str(x).replace(" ", ""))
def test_keyed_sweep_matches_generator_loop(name, window):
    # The generator loop and the gathered keys over the whole box are the
    # oracles: the same verdict, and the reported count is the number of
    # generators the loop sweeps, enumerated here.
    if name == "ladder-3":
        V = tensor_with_ox(truncated_poly_va(3, [0, 0, 1, Q(1, 2)]))
    else:
        V = dict(corpus())[name]
    A = va_to_chiral(V, checked=False)
    keyed = check_chiral_jacobi(A, window)
    assert keyed.passed
    for sweep in (keyed_sweep, generator_sweep, gather_keyed_sweep):
        assert sweep(A, *_box(A, window)) is None, sweep.__name__
    blo, bhi, _lo, hi = _box(A, window)
    box = [g for g in product(range(blo, bhi + 1), repeat=3) if sum(g) <= 2 * hi]
    swept = len(box) * A.va.rank ** 3
    assert swept > 0 and f"({swept} generator triples)" in keyed.window


def reach_families():
    """a3 and random-2, and mutants of three corpus tables, some failing."""
    yield "a3", dict(corpus())["a3"]
    yield "random-2", dict(corpus())["random-2"]
    for name in ("a3", "random-1", "a3-basis-change"):
        V = dict(corpus())[name]
        sites = mutation_sites(V, 30)
        for pick in (0, 5, 11):
            yield (name, pick), bump_structure_constant(V, *sites[pick])


@pytest.mark.parametrize("window", [None, (-3, 4)])
def test_keyed_sweep_reads_each_reachable_key_once(window):
    # For every (m1, basis triple) of the sweep: the scatter's nonzero sums
    # are the gathered keys' nonzero sums, and the keys it touches are exactly
    # the keys some generator (m1, m2, m3) of the box reaches, as
    # (m1, m3+k, m2+l), whose terms read a nonzero table entry.  The failing
    # mutants make some sums nonzero.
    failing = 0
    for name, V in reach_families():
        A = va_to_chiral(V, checked=False)
        blo, bhi, lo, hi = _box(A, window)
        touched_keys = nonzero = 0
        for m1 in range(blo, min(bhi, 2 * hi - 2 * blo) + 1):
            reached = set()
            for m2, m3 in product(range(blo, bhi + 1), repeat=2):
                top = 2 * hi - m1 - m2 - m3
                reached |= {(m1, m3 + k, m2 + l) for k in range(top + 1) for l in range(top + 1 - k)}
            keys = gather_keys(blo, lo, hi, m1)
            assert {key for key, _ in keys} == {key for key in reached if key_terms(lo, hi, *key)}
            for triple in product(range(A.va.rank), repeat=3):
                tables = triple_tables(A, *triple)
                touched = {(m1, M, N) for M, N, _ in
                           _key_scatter(m1, blo, tables, _scatter_binoms(m1, blo, lo, hi))}
                reading = {key for key, terms in keys if any(at in tables[t] for t, at, _ in terms)}
                assert touched == reading, (name, m1, triple)
                sums = gather_sums(keys, tables)
                assert scatter_sums(m1, blo, lo, hi, tables) == sums, (name, m1, triple)
                touched_keys += len(touched)
                nonzero += len(sums)
        assert touched_keys > 0, name
        assert (nonzero > 0) == (not check_chiral_jacobi(A, window).passed), name
        failing += nonzero > 0
    assert failing > 0


def carry(keys: dict, blo: int) -> dict:
    """The slice m1 + 1 that O-linearity gives from the keys {(M, N, cd): x}
    of slice m1: K(m1+1, M, N) = K(m1, M+1, N) - K(m1, M, N+1) for M, N >= blo,
    nonzero sums only."""
    out: dict = defaultdict(int)
    for (M, N, cd), x in keys.items():
        if M > blo:
            out[M - 1, N, cd] += x
        if N > blo:
            out[M, N - 1, cd] -= x
    return {key: x for key, x in out.items() if x}


@pytest.mark.parametrize("window", [None, (-3, 4)])
def test_keyed_slices_carry_upward(window):
    # The relation behind the bottom-slice sweep: for every basis triple and
    # every m1 of the box below bhi, the slice `_key_scatter` computes at
    # m1 + 1 is the carry of its slice at m1.  The failing mutants carry
    # nonzero slices.
    carried = 0
    for name, V in reach_families():
        A = va_to_chiral(V, checked=False)
        blo, bhi, lo, hi = _box(A, window)
        for triple in product(range(A.va.rank), repeat=3):
            tables = triple_tables(A, *triple)
            below = _key_scatter(blo, blo, tables, _scatter_binoms(blo, blo, lo, hi))
            for m1 in range(blo + 1, bhi + 1):
                keys = _key_scatter(m1, blo, tables, _scatter_binoms(m1, blo, lo, hi))
                assert {key: x for key, x in keys.items() if x} == carry(below, blo), (name, m1, triple)
                carried += any(below.values())
                below = keys
    assert carried > 100


def test_keyed_sweep_scatters_each_indexed_triple_once(monkeypatch):
    # On a passing table the sweep scatters the bottom slice m1 = blo of every
    # indexed triple, once, and no other slice.
    calls = []

    def counting(m1, blo, tables, binoms):
        calls.append((m1, blo))
        return _key_scatter(m1, blo, tables, binoms)

    monkeypatch.setattr(chiral, "_key_scatter", counting)
    for A in (a3_chiral(), va_to_chiral(dict(corpus())["random-2"], checked=False),
              va_to_chiral(tensor_with_ox(truncated_poly_va(6, [0, 0, 1, Q(1, 2)])), checked=False)):
        for window in (None, (-20, 0)):
            assert check_chiral_jacobi(A, window).passed
            blo = _box(A, window)[0]
            assert calls == [(blo, blo)] * len(A.va.indexed_triples())
            calls.clear()


def test_keyed_sweep_reads_each_triple_when_it_reaches_it(monkeypatch):
    # The integer tables of a basis triple are fetched when the sweep reaches
    # the triple: on a mutant that fails, always at m1 = blo, the fetches are
    # exactly the indexed triples in sweep order up to the witness; a triple
    # off the index has empty tables and is never fetched.
    cases = 0
    for name in ("a3", "random-1"):
        V = dict(corpus())[name]
        for site in mutation_sites(V, 30):
            A = va_to_chiral(bump_structure_constant(V, *site), checked=False)
            box = _box(A)
            witness = gather_keyed_sweep(A, *box)
            if witness is None:
                continue
            fetched = []

            def recording(va, *triple):
                fetched.append(triple)
                return integer_modes(va, *triple)

            monkeypatch.setattr(chiral, "integer_modes", recording)
            assert keyed_sweep(A, *box) == witness
            monkeypatch.undo()
            assert witness.endswith(f"m1={box[0]}, m2={box[0]}, m3={box[0]})")
            order = list(A.va.indexed_triples())
            last = next(t for t in order if witness.startswith(f"({triple_name(A.va, *t)},"))
            reads = order[:order.index(last) + 1]
            assert fetched == [x for iu, iv, iw in reads for x in ((iu, iv, iw), (iv, iu, iw))]
            cases += len(reads) < len(order)
    assert cases > 0


def test_jacobi_checks_build_tables_for_the_indexed_triples_only():
    # a3 (x) a3 (x) a3 has rank 27 and 1000 indexed triples out of 19683: the
    # VA sweep with its certificates, and the chiral keyed sweep with its
    # closure, build the iterated-mode tables of exactly those triples; the
    # reports still count every basis triple.
    def built(va):
        return {key[1:] for key in va._cache if isinstance(key, tuple) and key[0] == "modes"}

    V = tensor_product(tensor_product(a3_va(), a3_va()), a3_va())
    assert (V.rank, len(V.indexed_triples())) == (27, 1000)
    report = check_jacobi(V)
    points = sum(-8 <= sum(lmn) <= -2 for lmn in product(range(-9, 5), repeat=3))
    assert report.passed and f"[-9..4]^3 with l+m+n in [-8..-2] ({27 ** 3 * points} instances)" in report.window
    assert built(V) == set(V.indexed_triples())
    A = va_to_chiral(tensor_product(tensor_product(a3_va(), a3_va()), a3_va()), checked=False)
    report = check_chiral_jacobi(A)
    generators = sum(sum(box) <= -2 for box in product(range(-8, 4), repeat=3))
    assert report.passed and f"[-8..3]^3 with m1+m2+m3 <= -2 ({27 ** 3 * generators} generator triples)" in report.window
    assert built(A.va) == set(A.va.indexed_triples()) == set(V.indexed_triples())


def test_checks_and_compositions_read_one_table_per_triple(monkeypatch):
    # On tables whose structure scalars are not integers (random-2 with
    # L = 9, ladder order 6 with L = 24), both axiom suites and the two
    # compositions read one integer table per basis triple, kept in the
    # object's cache beside the D-orbits and the one closure verdict, and
    # construct no other VAData.
    real_modes, real_init = vertex.integer_modes, VAData.__init__
    cases = [dict(corpus())["random-2"], tensor_with_ox(truncated_poly_va(6, [0, 0, 1, Q(1, 2)]))]
    for V, L in zip(cases, (9, 24)):
        assert V._scale == lcm_scale(V) == L
        A = va_to_chiral(V, checked=False)
        read, built = set(), []

        def recording(va, *triple):
            assert va is V
            read.add(triple)
            return real_modes(va, *triple)

        def constructing(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        for module in (vertex, chiral):
            monkeypatch.setattr(module, "integer_modes", recording)
        monkeypatch.setattr(VAData, "__init__", constructing)
        reports = check_all_va(V) + check_all_chiral(A)
        gens = (unit(1), unit(2), unit(0))
        sections = compose_left(A, -3, -2, -1, *gens), compose_right(A, -3, -2, -1, *gens)
        monkeypatch.undo()
        assert all(r.passed for r in reports) and all(sections)
        assert built == []
        assert read == set(V.indexed_triples())
        assert {key for key in V._cache if key[0] == "modes"} == {("modes", *t) for t in read}
        assert set(V._cache) - {("modes", *t) for t in read} == {"orbits", ("closure", V.global_support()[1])}


def test_keyed_sweep_matches_generator_loop_on_mutants():
    reports = failing = 0
    for _name, V in corpus():
        for site in mutation_sites(V, 30):
            A = va_to_chiral(bump_structure_constant(V, *site), checked=False)
            box = _box(A)
            keyed = keyed_sweep(A, *box)
            assert keyed == generator_sweep(A, *box), (_name, site)
            assert keyed == gather_keyed_sweep(A, *box), (_name, site)
            if keyed is not None:
                assert check_chiral_jacobi(A).witness == keyed
            reports += 1
            failing += keyed is not None
    assert reports == 211 and failing > 0


def redundant_layer(name: str, m: int = 1) -> ChiralData:
    """The corpus family `name` with one explicit layer m >= 1 equal to its
    closed form, built like `test_golden.redundant_layer_trivial`."""
    A = va_to_chiral(dict(corpus())[name], checked=False)
    i, n, j = min(A.va.structure)
    layer = {(i, n - m, j, m): ordinary_b_layer(A, i, n - m, j, m)}
    return ChiralData(A.va, layer)


@pytest.mark.parametrize("name", ["a3", "trivial-rank1", "random-0", "random-1", "random-3", "random-4"])
def test_redundant_layer_takes_the_keyed_sweep(name):
    # A redundant explicit layer leaves the family on the recursion, so the
    # keyed sweep checks it and reports as on the plain family, and the
    # generator loop through the layer rule, which reads the layer, passes.
    R = redundant_layer(name)
    assert R.overrides and R.off_recursion() is None
    assert generator_sweep(forced_layer_rule(name), *_box(R)) is None
    report = check_chiral_jacobi(R)
    assert report.passed
    assert report == check_chiral_jacobi(va_to_chiral(dict(corpus())[name], checked=False))


# ---------------------------------------------------------------------------
# full-sweep references for chiral skew and the D-module check, in ordinary
# powers (`ordinary_powers`): every n of the window and around every explicit
# layer; skew rebuilds every power of d2 from scratch per layer and checks the
# m = 0 extraction identity separately


def full_sweep_ns(A: ChiralData, lo: int, hi: int) -> list[int]:
    ns = set(range(lo, hi + 1))
    for (_, n, _, _) in A.overrides:
        ns.update((n - 1, n, n + 1))
    return sorted(ns)


def reference_check_chiral_skew(A: ChiralData, window=None) -> CheckReport:
    name, label = "chiral-skew", "sigma12"
    rng = A.effective_support()
    if rng is None and window is None:
        return CheckReport(name, label, True, "empty table, vacuous")
    lo0, hi0 = rng if rng else (0, -1)
    va = A.va
    kill = d_kill_bound(va)
    lo, hi = merge_window(lo0 - kill - 1, hi0 + 1, window)
    for i in range(A.va.rank):
        for j in range(A.va.rank):
            for n in full_sweep_ns(A, lo, hi):
                sec_vu = ordinary_basis_section(A, j, n, i)
                sign_n = Q(1) if n % 2 == 0 else Q(-1)
                route = {}
                for m in sorted(sec_vu):
                    img = {0: sec_vu[m]}
                    for _ in range(m):
                        img = apply_d2(A, img)
                    route = diag_add(route, diag_scale(sign_n, img))
                target = diag_scale(Q(-1), ordinary_basis_section(A, i, n, j))
                if route != target:
                    return CheckReport(
                        name, label, False, f"window n in [{lo}..{hi}]",
                        f"({pair_name(A.va, i, j)}, n={n})",
                    )
                extraction = {}
                sign = Q(-1) if n % 2 == 0 else Q(1)  # (-1)^{n+1}
                for m in sorted(sec_vu):
                    extraction = vadd(extraction, vscale(sign, d_power(va, sec_vu[m], m)))
                if extraction != ordinary_b_layer(A, i, n, j, 0):
                    return CheckReport(
                        name, label, False, f"window n in [{lo}..{hi}]",
                        f"m=0 extraction at ({pair_name(A.va, i, j)}, n={n})",
                    )
    return CheckReport(
        name, label, True,
        f"window n in [{lo}..{hi}]; every generator bundles the component "
        f"identities at m >= n, and terms vanish below the window "
        f"(support [{lo0}..{hi0}], D-kill bound {kill})",
    )


def dmodule_differences(A: ChiralData, i: int, j: int, n: int) -> tuple:
    """lhs - rhs of parts (a), (b), (c) of the D-module check at (e_i, e_j, n)."""
    va = A.va
    sec = lambda *key: ordinary_basis_section(A, *key)  # noqa: E731
    s_n, s_n1 = sec(i, n, j), sec(i, n + 1, j)
    du_i, du_j = apply_d(va, unit(i)), apply_d(va, unit(j))
    rhs_b = diag_add(diag_scale(n + 1, s_n), diag_contract(du_i, lambda p: sec(p, n + 1, j)))
    rhs_c = diag_add(diag_scale(-(n + 1), s_n), diag_contract(du_j, lambda p: sec(i, n + 1, p)))
    return tuple(diag_add(lhs, diag_scale(-1, rhs)) for lhs, rhs in (
        (s_n1, mul_z12(s_n)), (apply_d1(s_n1), rhs_b), (apply_d2(A, s_n1), rhs_c)))


def reference_dmodule_parts(A: ChiralData, window=None) -> dict:
    parts = {
        "a": {"label": "expl-exp4", "passed": True, "witness": None},
        "b": {"label": "l-1-1", "passed": True, "witness": None},
        "c": {"label": "d2-leibniz", "passed": True, "witness": None},
    }
    rng = A.effective_support()
    if rng is None and window is None:
        return parts
    lo, hi = rng if rng else (0, -1)
    lo, hi = merge_window(lo - 2, hi + 1, window)
    for i, j in product(range(A.va.rank), repeat=2):
        for n in full_sweep_ns(A, lo, hi):
            for key, diff in zip("abc", dmodule_differences(A, i, j, n)):
                if parts[key]["passed"] and diff:
                    parts[key].update(passed=False, witness=f"({pair_name(A.va, i, j)}, n={n})")
    return parts


def reference_check_dmodule_morphism(A: ChiralData, window=None) -> CheckReport:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chiral, "dmodule_parts", reference_dmodule_parts)
        return check_dmodule_morphism(A, window)


def criterion_7_mutants():
    for name, V in corpus():
        for site in mutation_sites(V, 30):
            yield (name, site), va_to_chiral(bump_structure_constant(V, *site), checked=False)


def layer_grid():
    """(name, family, (i, n, j, m)) for an explicit layer m in {1, 2} at every
    (i, n, j) around the support of three corpus tables."""
    for name in ("a3", "trivial-rank1", "a3-basis-change"):
        A = va_to_chiral(dict(corpus())[name], checked=False)
        lo, hi = A.effective_support()
        for i, j, n, m in product(range(A.va.rank), range(A.va.rank), range(lo - 2, hi + 1), (1, 2)):
            yield name, A, (i, n, j, m)


def explicit_layer_mutants():
    # one bumped explicit layer on the grid: the family is off the recursion,
    # and the full sweep also visits n - 1, n, n + 1
    for name, A, (i, n, j, m) in layer_grid():
        yield (name, i, n, j, m), bump_b_entry(A, i, n, j, m, (i + j) % A.va.rank)


def redundant_layer_families():
    # the same explicit layers at their closed form: on the recursion
    for name, A, key in layer_grid():
        yield (name, *key), ChiralData(A.va, {key: ordinary_b_layer(A, *key)})


# `check_chiral_skew` sums the divided binomial formula; these three tests
# keep the names they had when it ran a Horner pass
@pytest.mark.parametrize("window", [None, (-9, 4)], ids=["default", "window-9:4"])
@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_horner_skew_matches_reference_on_corpus(name, window):
    A = va_to_chiral(dict(corpus())[name], checked=False)
    assert check_chiral_skew(A, window) == reference_check_chiral_skew(A, window)


def test_horner_skew_matches_reference_on_every_criterion_7_mutant():
    reports = failing = 0
    for where, A in criterion_7_mutants():
        want = reference_check_chiral_skew(A)
        assert check_chiral_skew(A) == want, where
        reports += 1
        failing += not want.passed
    assert reports == 211 and failing > 0


def test_horner_skew_matches_reference_on_explicit_layer_mutants():
    # Off the recursion skew stops before any sweep (see
    # `test_off_the_recursion_skew_and_jacobi_fail_by_name`); the same
    # explicit layers at their closed form are swept, as the reference.
    reports = 0
    for (where, B), (_, R) in zip(explicit_layer_mutants(), redundant_layer_families()):
        assert R.off_recursion() is None and B.off_recursion() == where[1:]
        want = reference_check_chiral_skew(R)
        assert want.passed and check_chiral_skew(R) == want, where
        assert check_chiral_skew(B).window == NOT_SWEPT, where
        reports += 1
    assert reports == 150


def test_off_the_recursion_skew_and_jacobi_fail_by_name():
    # On every explicit-layer mutant all three checks fail before any sweep,
    # with the layer `off_recursion()` names.
    reports = 0
    for (name, i, n, j, m), B in explicit_layer_mutants():
        names = B.va.basis_names
        witness = (f"mu is not O-linear: explicit layer (u={names[i]}, v={names[j]}, n={n}, m={m}) "
                   "disagrees with the recursion")
        skew, jacobi = check_chiral_skew(B), check_chiral_jacobi(B)
        assert skew == CheckReport("chiral-skew", "sigma12", False, NOT_SWEPT, witness)
        assert jacobi == CheckReport("chiral-jacobi", "comp-jac", False, NOT_SWEPT, witness)
        dmodule = CheckReport("d-module-morphism", "expl-exp1", False, NOT_SWEPT, witness)
        assert check_all_chiral(B) == [dmodule, skew, jacobi]
        reports += 1
    assert reports == 150


def assert_dmodule_matches_full_sweep(A: ChiralData, window=None, where=None) -> bool:
    """Sub-verdicts and report equal the full sweep's; returns the verdict."""
    parts = reference_dmodule_parts(A, window)
    assert dmodule_parts(A, window) == parts, where
    assert check_dmodule_morphism(A, window) == reference_check_dmodule_morphism(A, window), where
    return all(p["passed"] for p in parts.values())


@pytest.mark.parametrize("window", [None, (-9, 4)], ids=["default", "window-9:4"])
@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_dmodule_matches_full_sweep_on_corpus(name, window):
    A = va_to_chiral(dict(corpus())[name], checked=False)
    assert assert_dmodule_matches_full_sweep(A, window)


def test_dmodule_matches_full_sweep_on_mutants():
    # on the recursion: the criterion-7 mutants and the 150 explicit layers
    # at their closed form (the bumped ones stop at the gate, see
    # `test_dmodule_part_a_fails_exactly_off_the_recursion`)
    verdicts = Counter()
    for family in (criterion_7_mutants(), redundant_layer_families()):
        for where, A in family:
            verdicts[assert_dmodule_matches_full_sweep(A, where=where)] += 1
    assert sum(verdicts.values()) == 361 and verdicts[False] > 0


# ---------------------------------------------------------------------------
# the generator sweep, the oracle of the keyed sweep: compositions in ordinary
# powers (`ordinary_powers`), through the layer rule for a forced family; each
# right composition computed once, and no composition left on the object


def generator_sweep(A: ChiralData, blo: int, bhi: int, lo: int, hi: int):
    """The first witness over the box [blo..bhi]^3, or None, generator by
    generator.  A right composition is read at its generator and, permuted,
    at its sigma12 partner's; it is computed at the first read and waits in
    `pending` for the second."""
    pending: dict = {}

    def right(*key):
        hit = pending.pop(key, None)
        if hit is None:
            hit = pending[key] = ordinary_compose_right_basis(A, *key)
        return hit

    for m1, m2, m3 in product(range(blo, bhi + 1), repeat=3):
        if m1 + m2 + m3 > 2 * hi:
            continue  # every layer of every composition is empty here
        for iu, iv, iw in product(range(A.va.rank), repeat=3):
            left = ordinary_compose_left_basis(A, m1, m2, m3, iu, iv, iw)
            sign, p1, p2, p3, *_ = sigma12_triple(m1, m2, m3, unit(iu), unit(iv), unit(iw))
            # the composition computed on swapped coordinates returns its
            # derivative degrees transposed
            perm = diag3_transpose(right(p1, p2, p3, iv, iu, iw))
            if left != diag_add(right(m1, m2, m3, iu, iv, iw), diag_scale(-sign, perm)):
                return f"({triple_name(A.va, iu, iv, iw)}, m1={m1}, m2={m2}, m3={m3})"
    return None


def unmemoised_generator_sweep(A: ChiralData, blo: int, bhi: int, lo: int, hi: int):
    """`generator_sweep` computing all three compositions of every generator."""
    for m1, m2, m3 in product(range(blo, bhi + 1), repeat=3):
        if m1 + m2 + m3 > 2 * hi:
            continue
        for iu, iv, iw in product(range(A.va.rank), repeat=3):
            left = ordinary_compose_left_basis(A, m1, m2, m3, iu, iv, iw)
            right = ordinary_compose_right_basis(A, m1, m2, m3, iu, iv, iw)
            sign, p1, p2, p3, *_ = sigma12_triple(m1, m2, m3, unit(iu), unit(iv), unit(iw))
            perm = diag3_transpose(ordinary_compose_right_basis(A, p1, p2, p3, iv, iu, iw))
            if left != diag_add(right, diag_scale(-sign, perm)):
                return f"({triple_name(A.va, iu, iv, iw)}, m1={m1}, m2={m2}, m3={m3})"
    return None


def forced_layer_rule(name: str) -> ChiralData:
    """`redundant_layer(name)` read as off the recursion: the family is its
    closed form, but the compositions of `ordinary_powers` take the layer
    rule, which reads the explicit layer."""
    R = redundant_layer(name)
    R._off = next(iter(R.overrides))
    return R


def test_generator_sweep_matches_the_unmemoised_sweep():
    families = [*explicit_layer_mutants(),
                *((name, forced_layer_rule(name)) for name in ("a3", "trivial-rank1", "random-0"))]
    verdicts = Counter()
    for where, B in families:
        box = _box(B)
        want = unmemoised_generator_sweep(B, *box)
        assert generator_sweep(B, *box) == want, where
        verdicts[want is None] += 1
    assert verdicts[True] >= 3 and verdicts[False] > 0


def test_generator_sweep_composes_each_right_tuple_once(monkeypatch):
    # A passing sweep reads the right composition of every generator, as
    # itself and as its sigma12 partner's permuted term: once computed each,
    # and as many as the keyed sweep's report counts.
    calls, real = Counter(), ordinary_compose_right_basis

    def counting(A, *args):
        calls[args] += 1
        return real(A, *args)

    monkeypatch.setitem(globals(), "ordinary_compose_right_basis", counting)
    for name in ("a3", "random-0"):
        B = forced_layer_rule(name)
        assert generator_sweep(B, *_box(B)) is None
        assert set(calls.values()) == {1}
        assert f"({len(calls)} generator triples)" in check_chiral_jacobi(redundant_layer(name)).window
        calls.clear()


def test_no_composition_is_stored_on_the_object():
    t = unit(1)
    for B in (a3_chiral(), redundant_layer("a3"), bump_b_entry(a3_chiral(), 1, -3, 1, 1, 2)):
        assert axiom_suite(B) == tuple(check_all_chiral(B))
        on = B.off_recursion() is None
        for core in (compose_left, compose_right):
            if on:
                core(B, -1, -2, -1, t, unit(0), vadd(t, unit(2)))
            else:
                with pytest.raises(ContractError):
                    core(B, -1, -2, -1, t, unit(0), vadd(t, unit(2)))
        kinds = {key if key == "suite" else key[0] for key in B._cache}
        # off the recursion every check stops at the gate before any section
        assert kinds == ({"sec", "suite"} if on else {"suite"}), kinds


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["a3", "trivial-rank1", "random-1", "a3-basis-change"])
def test_one_section_checks_match_full_sweep_on_redundant_layers(name, m):
    # Each check compares the one section at its window's lo, also where the
    # explicit layer's n - 1, which the full sweep visits, lies below the
    # D-module window (at every m >= 3): the D-module check reads sections at
    # lo and lo + 1 only, skew at lo only.
    R = redundant_layer(name, m)
    assert R.off_recursion() is None
    lo0 = R.effective_support()[0]
    (_, n, _, _), = R.overrides
    assert m < 3 or n - 1 < lo0 - 2
    for check, ns in ((check_dmodule_morphism, {lo0 - 2, lo0 - 1}),
                      (check_chiral_skew, {lo0 - d_kill_bound(R.va) - 1})):
        fresh = ChiralData(R.va, dict(R.overrides))
        check(fresh)
        assert {key[2] for key in fresh._cache if key[0] == "sec"} == ns, check.__name__
    assert check_chiral_skew(R) == reference_check_chiral_skew(R)
    assert check_chiral_skew(R).passed
    assert assert_dmodule_matches_full_sweep(R)


def skew_difference(A: ChiralData, i: int, j: int, n: int) -> dict:
    """(-1)^n sum_m d2^m B^n_m(e_j, e_i) + B^n(e_i, e_j) in ordinary powers,
    powers of d2 rebuilt."""
    route = {}
    for m, val in ordinary_basis_section(A, j, n, i).items():
        img = {0: val}
        for _ in range(m):
            img = apply_d2(A, img)
        route = diag_add(route, img)
    return diag_add(diag_scale((-1) ** (n % 2), route), ordinary_basis_section(A, i, n, j))


def lemma_families():
    """Families on the recursion: the corpus, ladder orders 3 to 5, redundant
    layers, and criterion-7 mutants, whose difference sections are nonzero."""
    for name, V in corpus():
        yield name, va_to_chiral(V, checked=False)
        for site in mutation_sites(V, 30)[:12:6]:
            yield (name, site), va_to_chiral(bump_structure_constant(V, *site), checked=False)
    for k in (3, 4, 5):
        yield k, va_to_chiral(tensor_with_ox(truncated_poly_va(k, [0, 0, 1, Q(1, 2)])), checked=False)
    for name, m in product(("a3", "random-1"), (1, 3)):
        yield (name, m), redundant_layer(name, m)


def test_difference_layers_depend_only_on_the_key():
    # The lemma behind the one-section rule: on the recursion, divided layer j
    # of the skew difference at n is (-1)^n times a quantity of the key n + j,
    # and divided layer j of the D-module (b) and (c) differences is (-1)^j
    # times one; part (a)'s difference is empty.  So the section at the least
    # n of the full sweep holds, up to those signs, every layer of every later
    # one.  The differences are taken in ordinary powers and rewritten in
    # divided ones, where the lemma has no factorial.
    nonzero = Counter()
    for where, A in lemma_families():
        assert A.off_recursion() is None
        lo0, hi0 = A.effective_support()
        kill = d_kill_bound(A.va)
        for (lo, hi), parts in (((lo0 - kill - 1, hi0 + 1), ("skew",)), ((lo0 - 2, hi0 + 1), ("b", "c"))):
            ns = full_sweep_ns(A, lo, hi)
            for i, j in product(range(A.va.rank), repeat=2):
                secs = {}
                for n in ns:
                    if parts == ("skew",):
                        secs["skew", n] = divided(skew_difference(A, i, j, n))
                    else:
                        a, b, c = dmodule_differences(A, i, j, n)
                        secs["b", n], secs["c", n] = divided(b), divided(c)
                        assert a == {}, (where, i, j, n)
                for part, n in secs:
                    first = secs[part, ns[0]]
                    for k in set(secs[part, n]) | {key - n + ns[0] for key in first if key >= n - ns[0]}:
                        scale = (-1) ** (n % 2) if part == "skew" else (-1) ** (k % 2)
                        root = (-1) ** (ns[0] % 2) if part == "skew" else (-1) ** ((n + k - ns[0]) % 2)
                        at_n = vscale(scale, secs[part, n].get(k, {}))
                        at_first = vscale(root, first.get(n + k - ns[0], {}))
                        assert at_n == at_first, (where, part, i, j, n, k)
                        nonzero[part] += bool(at_n)
    assert min(nonzero[part] for part in ("skew", "b", "c")) > 30, nonzero


def test_dmodule_part_a_fails_exactly_off_the_recursion():
    # The full sweep's part (a) fails on each bumped layer of the grid, where
    # all three checks stop at the gate with one witness; it passes on the
    # same layers at their closed form and on every lemma family, where the
    # D-module report, part (a) PASS included, is the full sweep's.
    verdicts = Counter()
    for (name, i, n, j, m), B in explicit_layer_mutants():
        assert B.off_recursion() == (i, n, j, m)
        assert not reference_dmodule_parts(B)["a"]["passed"], (name, i, n, j, m)
        reports = check_all_chiral(B)
        gate = (False, NOT_SWEPT, chiral.o_linearity_witness(B))
        assert {(r.passed, r.window, r.witness) for r in reports} == {gate}
        verdicts[False] += 1
    for where, A in chain(redundant_layer_families(), lemma_families()):
        assert A.off_recursion() is None
        assert reference_dmodule_parts(A)["a"]["passed"], where
        report = check_dmodule_morphism(A)
        assert report == reference_check_dmodule_morphism(A), where
        assert report.details[0] == "part (a) [expl-exp4]: PASS"
        verdicts[True] += 1
    assert verdicts[False] == 150 and verdicts[True] > 150


def test_compose_diff_prints_a_redundant_layer_like_the_plain_file(tmp_path):
    A = va_to_chiral(dict(corpus())["a3"], checked=False)
    files = (tmp_path / "plain.json", tmp_path / "redundant.json")
    for path, data in zip(files, (A, redundant_layer("a3"))):
        path.write_text(serialize.dumps(data), encoding="utf-8")
    printed = 0
    for ms in [(-1, -1, -1), (-2, -1, 0), (0, -2, -1)]:
        for names in product(A.va.basis_names, repeat=3):
            outs = []
            for path in files:
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = main(["compose-diff", str(path), *map(str, ms), *names])
                outs.append((code, buf.getvalue().splitlines()[1:]))  # line 0 names the file
            assert outs[0] == outs[1], (ms, names)
            printed += sum("(k,l)=" in line for line in outs[0][1])
    assert printed > 0


@pytest.mark.parametrize("name", ["a3", "a3-basis-change"])
def test_d2_power_at_degree_zero_is_d_power(name):
    # the lemma that makes the m = 0 extraction identity degree 0 of the
    # section comparison: d2 sends degree 0 to D at degree 0
    A = va_to_chiral(dict(corpus())[name], checked=False)
    va = A.va
    for x in A.va.structure.values():
        img = {0: x}
        for m in range(d_kill_bound(va) + 2):
            assert img.get(0, {}) == d_power(va, x, m), (x, m)
            img = diag_apply_d2(A, img)


def test_scatter_binoms_match_exact_binom():
    # columns built by binom(M, i) = binom(M-1, i) M/(M - i), restarting at 1
    # where M = i, and rows by binom(m1, i+1) = binom(m1, i)(m1 - i)/(i+1),
    # on a grid whose columns cross M = -1 and M = i and whose m1 is negative
    crossed = Counter()
    for m1, blo, lo, hi in product(range(-6, 3), range(-8, 0), range(-4, 1), range(-2, 3)):
        if not (blo <= m1 and blo <= lo <= hi):  # as the keyed sweep calls it
            continue
        cols, (row_uv, row_vu) = _scatter_binoms(m1, blo, lo, hi)
        Ms = range(blo, 2 * hi - m1 - blo + 1)
        assert cols == {i: [binom(M, i) for M in Ms] for i in range(max(0, lo - m1), hi - m1 + 1)}
        assert row_uv == [binom(m1, i) * (1 if i % 2 else -1) for i in range(hi - blo + 1)]
        assert row_vu == [binom(m1, i) * (-1 if (m1 + i) % 2 else 1) for i in range(hi - blo + 1)]
        crossed["M = -1"] += cols != {} and -1 in Ms[1:]
        crossed["M = i"] += any(i in Ms[1:] for i in cols)
        crossed["m1 < 0"] += m1 < 0
    assert min(crossed.values()) > 50, crossed


def test_windowed_checks_cost_what_the_entries_reach(monkeypatch):
    # The vector operations of the D-derivative, skew and chiral skew checks,
    # counted on fresh objects, are the same at a window of 21 instances and
    # at one of 100001: every key they reach is inside either window.
    counts = Counter()

    def counted(module, fn):
        original = getattr(module, fn)

        def wrapper(*args):
            counts[fn] += 1
            return original(*args)

        monkeypatch.setattr(module, fn, wrapper)

    for module, fn in ((vertex, "contract"), (vertex, "_add_product"), (vertex, "apply_d"),
                       (vertex, "vadd"), (vertex, "vscale"), (chiral, "apply_d"),
                       (chiral, "vadd"), (chiral, "vscale"), (chiral, "diag_apply_d2")):
        counted(module, fn)
    fixture = Path(__file__).parent.parent / "fixtures" / "a3_chiral.json"
    checks = [
        *((check, build) for check in (vertex.check_d_derivative, vertex.check_skew_symmetry)
          for build in (a3_va, lambda: serialize.load_path(fixture).va)),
        *((check_chiral_skew, build) for build in (a3_chiral, lambda: serialize.load_path(fixture))),
    ]
    for check, build in checks:
        seen = []
        for window in ((-20, 0), (-100000, 0)):
            X = build()
            counts.clear()
            report = check(X, window)
            assert report.passed and f"[{window[0]}..0]" in report.window
            seen.append(dict(counts))
        assert seen[0] == seen[1], (check.__name__, seen)
        assert sum(seen[0].values()) > 0


def test_a_far_explicit_layer_computes_its_factorial_once(monkeypatch):
    # The layer m = 3000 on a3's stored B^{-1}_0 is its recursion closed form,
    # (-1)^m B^{n+m}_0 / m!: loading compares m! times it with the closed
    # form, and the checks read the closed form, never the layer again.
    A = serialize.load_path(Path(__file__).parent.parent / "fixtures" / "a3_chiral.json")
    m, n = 3000, -3001
    overrides = {(0, n, 0, m): vscale(inv_factorial(m), A.b_layer(0, n, 0, m))}
    assert overrides[0, n, 0, m]
    want = check_all_chiral(ChiralData(A.va, dict(overrides)))
    calls = Counter()
    factorial = chiral.factorial
    monkeypatch.setattr(chiral, "factorial", lambda k: calls.update((k,)) or factorial(k))
    got = check_all_chiral(ChiralData(A.va, dict(overrides)))
    assert got == want and all(report.passed for report in got)
    assert calls[m] == 1


def test_the_gate_comes_before_any_section(monkeypatch):
    # The same far layer bumped off its closed form: every check stops at the
    # O-linearity gate, so no section is built and m! is computed once, when
    # the family is loaded and compared with the closed form.
    A = serialize.load_path(Path(__file__).parent.parent / "fixtures" / "a3_chiral.json")
    m, n = 3000, -3001
    layer = vadd(vscale(inv_factorial(m), A.b_layer(0, n, 0, m)), {(0, 0): 1})
    calls = Counter()
    factorial = chiral.factorial
    monkeypatch.setattr(chiral, "factorial", lambda k: calls.update((k,)) or factorial(k))
    B = ChiralData(A.va, {(0, n, 0, m): layer})
    assert B.off_recursion() == (0, n, 0, m)
    reports = check_all_chiral(B)
    assert [(r.passed, r.window, r.witness) for r in reports] == [(False, NOT_SWEPT, (
        f"mu is not O-linear: explicit layer (u=1, v=1, n={n}, m={m}) disagrees with the recursion"))] * 3
    assert not [key for key in B._cache if key[0] == "sec"]
    assert calls[m] == 1


def test_check_chiral_applies_no_d(monkeypatch):
    # part (c) of the D-module check and chiral skew read every D image of a
    # stored value from the D-orbits; `chiral` itself never applies D
    calls = []
    monkeypatch.setattr(chiral, "apply_d", lambda *args: calls.append(args) or apply_d(*args))
    path = str(Path(__file__).parent.parent / "fixtures" / "a3_chiral.json")
    for window in ((), ("--window=-3000:0",)):
        with redirect_stdout(io.StringIO()):
            assert main(["check-chiral", path, *window]) == 0
    assert calls == []


# ---------------------------------------------------------------------------
# the one-pass contraction against the nested contractions it replaced


def nested_diag_contract(x, section) -> dict:
    """sum_p x_p * section(p), one coordinate of x at a time, cleaned per
    contraction: nested once per vector, this was `mu_eval` and `_bilinear3`."""
    coords: dict = {}
    for (p, d), c in x.items():
        coords.setdefault(p, []).append((d, c))
    acc: dict = {}
    for p, terms in coords.items():
        for k, v in section(p).items():
            for (q, f), y in v.items():
                for d, c in terms:
                    key = (k, q, f + d)
                    acc[key] = acc[key] + c * y if key in acc else c * y
    out: dict = {}
    for (k, q, f), c in vertex._clean(acc).items():
        out.setdefault(k, {})[q, f] = c
    return out


def _random_vector(rng: random.Random, rank: int) -> dict:
    raw = {(rng.randrange(rank), rng.randrange(3)): Q(rng.randint(-3, 3), rng.randint(1, 3))
           for _ in range(rng.randint(1, 4))}
    return vadd({}, raw)  # cleaned: no zeros, integral scalars as int


@pytest.mark.parametrize("name", ["a3", "a3-basis-change", "random-2"])
def test_one_pass_contraction_matches_the_nested_form(name):
    A = va_to_chiral(dict(corpus())[name], checked=False)
    lo, hi = A.effective_support()
    rng = random.Random(5400 + len(name))
    typed = lambda s: {k: {cd: (type(c), c) for cd, c in v.items()} for k, v in s.items()}  # noqa: E731
    nonzero = Counter()
    for _ in range(12):
        u, v, w = (_random_vector(rng, A.va.rank) for _ in range(3))
        ms = [rng.randint(lo - 1, hi + 1) for _ in range(3)]
        for core, one_pass in ((_compose_left_basis, compose_left), (_compose_right_basis, compose_right)):
            want = nested_diag_contract(u, lambda iu: nested_diag_contract(v, lambda iv: nested_diag_contract(
                w, lambda iw: core(A, *ms, iu, iv, iw))))
            assert typed(one_pass(A, *ms, u, v, w)) == typed(want), (ms, u, v, w)
            nonzero[core.__name__] += bool(want)
        n = rng.randint(lo - 2, hi + 1)
        want = nested_diag_contract(u, lambda i: nested_diag_contract(v, lambda j: A.basis_section(i, n, j)))
        assert typed(mu_eval(A, ChiralGenerator(n, u, v))) == typed(want), (n, u, v)
        nonzero["mu"] += bool(want)
    assert min(nonzero.values()) >= 3, nonzero


def test_dmodule_check_rejects_a_table_d_does_not_kill_as_skew_does():
    # part (c) reads the D-orbits, so an out-of-scope table (D not nilpotent
    # on its entries) is rejected by the D-module check with the error chiral
    # skew raises, and the suite's outcome does not depend on which check
    # reads the orbits first
    A = ChiralData(VAData(1, "Q[z]", ("e",), {(0, -1, 0): unit(0)}, (unit(0),)))
    for check in (check_dmodule_morphism, check_chiral_skew, check_all_chiral):
        with pytest.raises(vertex.UnsupportedAlgebra, match=r"survives D\^6"):
            check(A)
