import functools
import random

import pytest

from chiralva.errors import ContractError, IllFormedProduct, UnsupportedInput
from chiralva.exact import Q, binom
from chiralva.formal import (
    DeltaAtom,
    Deriv,
    ExponentBox,
    IotaPow,
    LaurentWindow,
    Monomial,
    Product,
    Sum,
    check_identity,
    delta_binomial,
    delta_ratio,
    expand,
    fundamental_delta_property,
    identity_three_term,
    identity_two_term,
    iota_expand,
    jacobi_delta_terms,
    mono,
    support_bounds,
)


def box2(lo=-5, hi=5):
    return ExponentBox.cube(("x1", "x2"), lo, hi)


def box3(lo=-5, hi=5):
    return ExponentBox.cube(("x0", "x1", "x2"), lo, hi)


# independent oracle: build a prefixed binomial-delta table by direct forward
# summation over (n, m) instead of the per-key closed form used by the library
def oracle_prefixed_delta(box, pre_var, num, den):
    idx = {v: k for k, v in enumerate(box.variables)}
    out = {}
    (s1, v1), (s2, v2) = num
    s3, v3 = den
    lo = min(b[0] for b in box.bounds) - 1
    hi = max(b[1] for b in box.bounds) + 1
    for n in range(2 * lo - 2, 2 * hi + 3):
        for m in range(0, 3 * (hi - lo) + 3):
            key = [0, 0, 0]
            key[idx[v1]] += n - m
            key[idx[v2]] += m
            key[idx[v3]] += -n
            key[idx[pre_var]] += -1
            key = tuple(key[: len(box.variables)])
            if not box.contains(key):
                continue
            sgn = (s1 if (n - m) % 2 else 1) * (s2 if m % 2 else 1) * (s3 if n % 2 else 1)
            val = sgn * binom(n, m)
            if val:
                out[key] = out.get(key, Q(0)) + val
    return {k: v for k, v in out.items() if v}


def test_iota_expand_positive_power_is_binomial():
    b = ExponentBox.cube(("x1", "x2"), -3, 3)
    w = iota_expand("x1", "x2", 2, b)
    assert w.coeff((2, 0)) == 1
    assert w.coeff((1, 1)) == -2
    assert w.coeff((0, 2)) == 1
    assert len(w.coeffs) == 3
    for n in range(0, 7):
        wb = iota_expand("x1", "x2", n, ExponentBox.cube(("x1", "x2"), -1, 7))
        for m in range(0, n + 1):
            assert wb.coeff((n - m, m)) == (-1) ** m * binom(n, m)


def test_iota_expand_negative_power_geometric():
    w = iota_expand("x1", "x2", -1, box2())
    for m in range(0, 5):
        assert w.coeff((-1 - m, m)) == 1
    # expansion direction: only nonnegative powers of the second variable
    w = iota_expand("x2", "x1", -1, box2())
    assert all(k[0] >= 0 for k in w.coeffs)
    assert w.coeff((0, -1)) == 1


def test_expand_delta_ratio_with_prefix():
    w = expand(Product((delta_ratio("x1", "x2"), mono({"x2": -1}))), box2())
    assert w.coeff((3, -4)) == 1
    assert w.coeff((0, -1)) == 1
    assert w.coeff((1, -1)) == 0


def test_expand_three_variable_delta_against_oracle():
    b = box3(-4, 4)
    lhs = expand(Product((mono({"x0": -1}), delta_binomial("x1", "x2", "x0"))), b)
    assert lhs.coeff((-1, 0, 0)) == 1
    oracle = oracle_prefixed_delta(b, "x0", ((1, "x1"), (-1, "x2")), (1, "x0"))
    assert lhs.coeffs == oracle

    rhs = expand(Product((mono({"x2": -1}), delta_binomial("x1", "x0", "x2"))), b)
    assert rhs.coeff((0, -1, 0)) == 1
    oracle = oracle_prefixed_delta(b, "x2", ((1, "x1"), (-1, "x0")), (1, "x2"))
    assert rhs.coeffs == oracle


@pytest.mark.parametrize("hi", [5, 6])
def test_three_term_identity(hi):
    rep = identity_three_term(box3(-hi, hi))
    assert rep.passed


@pytest.mark.parametrize("hi", [5, 6])
def test_two_term_identity_with_delta_restored(hi):
    rep = identity_two_term(box3(-hi, hi))
    assert rep.passed
    assert "restored" in rep.note


def test_identity_negative_control_lists_differences():
    lhs = Product((delta_ratio("x1", "x2"), mono({"x2": -1})))
    rep = check_identity(lhs, mono(coeff=0), box2())
    assert not rep.passed
    keys = [k for k, _, _ in rep.diffs]
    assert (0, -1) in keys
    assert keys == sorted(keys)  # deterministic lexicographic listing
    assert rep.first_diff[0] == keys[0]


def test_fundamental_property_telescoping_example():
    b = box2()
    x = LaurentWindow(b, {(1, 0): Q(1), (0, 1): Q(-1)})  # x1 - x2
    assert fundamental_delta_property(x, b, support_is_complete=True).passed


def test_fundamental_property_constant_and_product():
    b = box2()
    assert fundamental_delta_property(LaurentWindow(b, {(0, 0): Q(1)}), b, support_is_complete=True).passed
    x = LaurentWindow(b, {(1, 1): Q(1)})  # x1 x2; both sides equal x2^2 delta(x1/x2)
    rep = fundamental_delta_property(x, b, support_is_complete=True)
    assert rep.passed
    lhs = expand(Product((mono({"x1": 1, "x2": 1}), delta_ratio("x1", "x2"))), b)
    square = expand(Product((mono({"x2": 2}), delta_ratio("x1", "x2"))), b)
    assert lhs == square


def test_fundamental_property_requires_support_assertion():
    b = box2()
    with pytest.raises(UnsupportedInput):
        fundamental_delta_property(LaurentWindow(b, {(0, 0): Q(1)}), b)


def test_fundamental_property_randomized():
    rng = random.Random(20240)
    b = box2(-6, 6)
    for _ in range(20):
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            key = (rng.randint(-3, 3), rng.randint(-3, 3))
            coeffs[key] = coeffs.get(key, Q(0)) + Q(rng.randint(-4, 4))
        window = LaurentWindow(b, {k: v for k, v in coeffs.items() if v})
        assert fundamental_delta_property(window, b, support_is_complete=True).passed


def test_iota_inverse_product_is_one():
    b = ExponentBox.cube(("x1", "x2"), -4, 4)
    for n in range(-4, 5):
        w = expand(Product((IotaPow("x1", "x2", n), IotaPow("x1", "x2", -n))), b)
        assert w.coeffs == {(0, 0): Q(1)}


def test_derivative_transport():
    kernel = Product((mono({"x2": -1}), delta_ratio("x1", "x2")))
    rep = check_identity(
        Deriv("x1", kernel), Product((mono(coeff=-1), Deriv("x2", kernel))), box2(-6, 6)
    )
    assert rep.passed


def test_two_deltas_in_a_product_are_rejected():
    with pytest.raises(IllFormedProduct):
        expand(Product((delta_ratio("x1", "x2"), delta_ratio("x1", "x0"))), box3())


def test_divergent_products_are_rejected():
    with pytest.raises(IllFormedProduct):
        expand(Product((IotaPow("x1", "x2", -1), IotaPow("x2", "x1", -1))), box2())
    with pytest.raises(IllFormedProduct):
        expand(Product((IotaPow("x1", "x2", -2), delta_ratio("x1", "x2"))), box2())


def test_expression_sums_distribute_and_derivatives_nest():
    b = box2(-4, 4)
    expr = Sum((mono({"x1": 1}), Product((mono(coeff=2), mono({"x2": 2})))))
    w = expand(Deriv("x2", expr), b)
    assert w.coeffs == {(0, 1): Q(4)}


def test_box_validation():
    with pytest.raises(ContractError):
        ExponentBox(("x1",), ((2, 1),))
    with pytest.raises(ContractError):
        expand(mono({"x0": 1}), box2())  # x0 outside the box's variable set


def test_a_key_of_another_length_is_outside_the_box():
    b = box2()
    assert b.contains((0, 0)) and b.contains((-5, 5)) and not b.contains((0, 6))
    for key in ((0,), (), (0, 0, 99), (1,), (0, 0, 0)):
        assert not b.contains(key), key
    with pytest.raises(ContractError, match="outside box"):
        LaurentWindow(b, {(1,): 3})
    with pytest.raises(ContractError, match="untracked"):
        LaurentWindow(b, {(1, 0): 3}).coeff((1,))


def _random_expression(rng, depth):
    def atom():
        kind = rng.randrange(4)
        if kind == 0:
            return mono(
                {v: rng.randint(-2, 2) for v in ("x1", "x2")},
                Q(rng.randint(-3, 3), rng.randint(1, 2)),
            )
        if kind == 1:
            first, second = ("x1", "x2") if rng.random() < 0.5 else ("x2", "x1")
            return IotaPow(first, second, rng.randint(-2, 2))
        if kind == 2:
            return delta_ratio("x1", "x2")
        return Product((mono({"x2": rng.randint(-2, 0)}), delta_ratio("x1", "x2")))

    if depth == 0:
        return atom()
    kind = rng.randrange(3)
    if kind == 0:
        return Sum(tuple(_random_expression(rng, depth - 1) for _ in range(2)))
    if kind == 1:
        # keep products well-formed: one finite monomial against anything
        return Product((mono({"x1": rng.randint(-1, 1)}), _random_expression(rng, depth - 1)))
    return Deriv(rng.choice(("x1", "x2")), _random_expression(rng, depth - 1))


def test_expansion_is_box_independent():
    # the tracked coefficients are exact: expanding on a larger box and
    # restricting must agree with expanding on the smaller box directly
    rng = random.Random(77)
    small = ExponentBox.cube(("x1", "x2"), -4, 4)
    produced = 0
    while produced < 25:
        expr = _random_expression(rng, rng.randint(0, 2))
        try:
            inner = expand(expr, small)
        except IllFormedProduct:
            continue
        produced += 1
        big = expand(expr, ExponentBox.cube(("x1", "x2"), -7, 7))
        restricted = {k: v for k, v in big.coeffs.items() if small.contains(k)}
        assert restricted == inner.coeffs, expr


# ---------------------------------------------------------------------------
# differential oracle: the earlier gather evaluator, kept here as a test-only
# reference.  It evaluates every product as it stands, at each key of the box,
# by a closed form in Fractions, so it shares no code with `expand` but the
# structural check `support_bounds`.

def _ref_is_finite(expr):
    return all(lo != float("-inf") and hi != float("inf") for lo, hi in support_bounds(expr).values())


def _ref_sign_pow(s, e):
    return 1 if s == 1 or e % 2 == 0 else -1


def _ref_pointwise(expr, key):
    if isinstance(expr, DeltaAtom):
        used = [v for _, v in (*expr.num, expr.den)]
        if any(e for v, e in key.items() if v not in used):
            return Q(0)
        e_den = key.get(expr.den[1], 0)
        n = -e_den
        if len(expr.num) == 1:
            s1, v1 = expr.num[0]
            if key.get(v1, 0) != n:
                return Q(0)
            return Q(_ref_sign_pow(s1, n) * _ref_sign_pow(expr.den[0], e_den))
        (s1, v1), (s2, v2) = expr.num
        m = key.get(v2, 0)
        if m < 0 or key.get(v1, 0) != n - m:
            return Q(0)
        sign = _ref_sign_pow(s1, n - m) * _ref_sign_pow(s2, m) * _ref_sign_pow(expr.den[0], e_den)
        return sign * binom(n, m)
    if isinstance(expr, IotaPow):
        if any(e for v, e in key.items() if v not in (expr.first, expr.second)):
            return Q(0)
        m = key.get(expr.second, 0)
        if m < 0 or key.get(expr.first, 0) != expr.n - m:
            return Q(0)
        return (-1) ** m * binom(expr.n, m)
    if isinstance(expr, Deriv):
        shifted = dict(key)
        shifted[expr.var] = key.get(expr.var, 0) + 1
        return shifted[expr.var] * _ref_pointwise(expr.body, shifted)
    if isinstance(expr, Monomial):
        if all(key.get(v, 0) == e for v, e in expr.exps) and all(
            e == 0 for v, e in key.items() if v not in dict(expr.exps)
        ):
            return expr.coeff
        return Q(0)
    if isinstance(expr, Product):
        finite = [f for f in expr.factors if _ref_is_finite(f)]
        infinite = [f for f in expr.factors if not _ref_is_finite(f)]
        if len(infinite) > 1:
            raise IllFormedProduct("a product may contain at most one factor of infinite support")
        variables = tuple(sorted(key))
        table = {(0,) * len(variables): Q(1)}
        if finite:
            table = _ref_complete_table(Product(tuple(finite)), variables)
        if not infinite:
            return table.get(tuple(key[v] for v in variables), Q(0))
        total = Q(0)
        for fkey, fval in table.items():
            rest = {v: key[v] - e for v, e in zip(variables, fkey)}
            total += fval * _ref_pointwise(infinite[0], rest)
        return total
    assert isinstance(expr, Sum)
    return sum((_ref_pointwise(t, key) for t in expr.terms), Q(0))


def _ref_accumulate(out, key, val):
    new = out.get(key, Q(0)) + val
    if new:
        out[key] = new
    else:
        out.pop(key, None)


@functools.cache  # a product's finite part is read at every key of the box
def _ref_complete_table(expr, variables):
    idx = {v: i for i, v in enumerate(variables)}
    zero = (0,) * len(variables)

    def at(pairs):
        key = list(zero)
        for v, e in pairs:
            key[idx[v]] = e
        return tuple(key)

    if isinstance(expr, Monomial):
        return {at(expr.exps): expr.coeff} if expr.coeff else {}
    if isinstance(expr, IotaPow):
        return {
            at(((expr.first, expr.n - m), (expr.second, m))): (-1) ** m * binom(expr.n, m)
            for m in range(expr.n + 1)
        }
    out = {}
    if isinstance(expr, Sum):
        for t in expr.terms:
            for key, val in _ref_complete_table(t, variables).items():
                _ref_accumulate(out, key, val)
        return out
    if isinstance(expr, Product):
        out = {zero: Q(1)}
        for f in expr.factors:
            nxt = {}
            for k1, v1 in out.items():
                for k2, v2 in _ref_complete_table(f, variables).items():
                    _ref_accumulate(nxt, tuple(a + b for a, b in zip(k1, k2)), v1 * v2)
            out = nxt
        return out
    i = idx[expr.var]
    for key, val in _ref_complete_table(expr.body, variables).items():
        if key[i]:
            _ref_accumulate(out, key[:i] + (key[i] - 1,) + key[i + 1 :], key[i] * val)
    return out


def _ref_grown(box, var):
    """`box` with the bounds of `var` widened by one on each side."""
    return ExponentBox(box.variables, tuple(
        (lo - 1, hi + 1) if v == var else (lo, hi) for v, (lo, hi) in zip(box.variables, box.bounds)
    ))


def reference_expand(expr, box):
    """Coefficients of `expr` on `box` by per-key gathering (the old `expand`)."""
    extra = set(support_bounds(expr)) - set(box.variables)
    if extra:
        raise ContractError(f"expression uses variables {sorted(extra)} not in the box")
    if isinstance(expr, Deriv):
        inner = reference_expand(expr.body, _ref_grown(box, expr.var))
        i = box.index(expr.var)
        out = {}
        for key in box.keys():
            val = (key[i] + 1) * inner.get(key[:i] + (key[i] + 1,) + key[i + 1 :], Q(0))
            if val:
                out[key] = val
        return out
    if isinstance(expr, Sum):
        acc = {}
        for t in expr.terms:
            for key, val in reference_expand(t, box).items():
                _ref_accumulate(acc, key, val)
        return acc
    points = ((key, _ref_pointwise(expr, dict(zip(box.variables, key)))) for key in box.keys())
    return {key: val for key, val in points if val}


def _outcome(evaluate, expr, box):
    try:
        return dict(evaluate(expr, box))
    except ContractError as exc:  # IllFormedProduct included
        return (type(exc), str(exc))


def _load_delta_templates():
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return [pair for template in module.IDENTITY_TEMPLATES for pair in template]


@pytest.mark.parametrize("hi", [4, 6])
def test_expand_matches_reference_on_delta_window_templates(hi):
    from chiralva.deltaparse import parse_expression

    pairs = _load_delta_templates()
    assert len(pairs) == 15
    for lhs, rhs in pairs:
        exprs = [parse_expression(lhs), parse_expression(rhs)]
        used = set().union(*(support_bounds(e) for e in exprs))
        box = ExponentBox.cube(tuple(v for v in ("x0", "x1", "x2") if v in used), -hi, hi)
        for expr in exprs:
            assert expand(expr, box).coeffs == reference_expand(expr, box), (expr, hi)


def test_support_bounds_computed_once_per_node_per_expand(monkeypatch):
    # expand bounds its expression once and hands the bounds of every node
    # to the products inside it, nested ones included; no bound outlives
    # the call, so each expand computes each node's bounds again
    from chiralva import formal
    from chiralva.deltaparse import parse_expression

    computed = []
    node_bounds = formal._node_bounds
    monkeypatch.setattr(formal, "_node_bounds", lambda e, memo: computed.append(e) or node_bounds(e, memo))
    exprs = [parse_expression(side) for pair in _load_delta_templates() for side in pair]
    for expr in exprs:
        nodes = []
        for box in (box3(-4, 4), box3(-8, 8)):
            computed.clear()
            expand(expr, box)
            assert len(computed) == len({id(node) for node in computed}), expr
            nodes.append(len(computed))
        assert nodes[0] == nodes[1] > 0



def test_delta_suite_bounds_each_node_once_per_command(monkeypatch):
    # `delta-suite --lhs/--rhs` takes its variables from the bounds it hands
    # to `check_identity`, so each node of both sides is bounded once per
    # command, on the delta-window identities as stated and sign-flipped
    import io
    from contextlib import redirect_stdout

    from chiralva import formal
    from chiralva.cli import main

    computed = []
    node_bounds = formal._node_bounds
    monkeypatch.setattr(formal, "_node_bounds", lambda e, memo: computed.append(e) or node_bounds(e, memo))
    commands = 0
    for lhs, rhs in _load_delta_templates():
        for rhs, want in ((rhs, 0), (f"-1 * ({rhs})", 1)):
            computed.clear()
            with redirect_stdout(io.StringIO()):
                assert main(["delta-suite", "--box=-4:4", "--lhs", lhs, "--rhs", rhs]) == want
            assert computed and len(computed) == len({id(node) for node in computed}), (lhs, rhs)
            commands += 1
    assert commands == 30

def _random_any_expression(rng, depth):
    """Atoms, sums, products and derivatives over x0, x1, x2, ill-formed ones
    included: products may hold several deltas or infinite factors."""
    names = ("x0", "x1", "x2")
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            exps = {v: rng.randint(-2, 2) for v in rng.sample(names, rng.randint(0, 3))}
            return mono(exps, Q(rng.randint(-2, 3), rng.randint(1, 2)))
        if kind == 1:
            first, second = rng.sample(names, 2)
            return IotaPow(first, second, rng.randint(-3, 3))
        sign = lambda: rng.choice((1, -1))  # noqa: E731
        if kind == 2:
            v1, v3 = rng.sample(names, 2)
            return delta_ratio(v1, v3, sign(), sign())
        v1, v2, v3 = rng.sample(names, 3)
        return delta_binomial(v1, v2, v3, sign(), sign(), sign())
    kind = rng.randrange(3)
    if kind == 0:
        return Sum(tuple(_random_any_expression(rng, depth - 1) for _ in range(rng.randint(1, 3))))
    if kind == 1:
        return Product(tuple(_random_any_expression(rng, depth - 1) for _ in range(rng.randint(1, 3))))
    return Deriv(rng.choice(names), _random_any_expression(rng, depth - 1))


def _trusted(expr, box):
    """`expand`'s coefficients, after checking that the window it filled
    without validation is the one the validating constructor builds: every
    key inside the box and no zero value."""
    w = expand(expr, box)
    assert LaurentWindow(w.box, w.coeffs) == w and all(w.coeffs.values()), expr
    return w.coeffs


def test_a_cancelled_finite_key_is_dropped_and_scatters_nothing(monkeypatch):
    from chiralva import formal
    from chiralva.deltaparse import parse_expression

    calls = []
    atom = formal._atom
    monkeypatch.setattr(formal, "_atom", lambda expr, box, f: calls.append(f) or atom(expr, box, f))
    assert _trusted(parse_expression("(x1 + x2) * (x1 - x2)"), box2()) == {(2, 0): 1, (0, 2): -1}
    # the finite part's x1*x2 cancels, so the delta is read at its two other keys only
    got = _trusted(parse_expression("(x1 + x2) * (x1 - x2) * delta(x1/x2)"), box2())
    assert got == {} and sorted(calls) == [(0, 2), (2, 0)]


def test_expand_matches_reference_on_random_expressions():
    rng = random.Random(7)
    box = box3(-3, 3)
    kinds = {}
    for _ in range(2000):
        expr = _random_any_expression(rng, rng.randint(0, 3))
        got = _outcome(_trusted, expr, box)
        want = _outcome(reference_expand, expr, box)
        assert got == want, expr
        kind = want[1] if isinstance(want, tuple) else bool(want)
        kinds[kind] = kinds.get(kind, 0) + 1
    # nonzero and zero results and the ill-formed message, each in quantity
    assert len(kinds) == 3 and min(kinds.values()) > 40, kinds


def test_ill_formed_products_match_reference():
    b = box3(-3, 3)
    pole = IotaPow("x1", "x2", -1)
    flip = IotaPow("x2", "x1", -1)
    delta = delta_ratio("x1", "x2")
    zero = mono(coeff=0)
    cases = [
        Product((zero, pole, flip)),
        Product((delta, Sum((delta, mono())))),
        Product((mono(), Deriv("x1", Product((delta, Sum((delta, mono()))))))),
        Product((mono(), Deriv("x1", Product((pole, Sum((delta, mono()))))))),
        # an ill-formed product is rejected even where a zero factor hides it
        Product((zero, Deriv("x1", Product((pole, flip))))),
        Product((zero, Deriv("x1", Product((delta, delta_ratio("x1", "x0")))))),
    ]
    want = (IllFormedProduct, "a product may contain at most one factor of infinite support")
    for expr in cases:
        assert _outcome(reference_expand, expr, b) == want
        assert _outcome(lambda e, box: expand(e, box).coeffs, expr, b) == want


def test_a_product_of_sums_is_not_multiplied_out(monkeypatch):
    from chiralva import formal
    from chiralva.deltaparse import parse_expression

    calls = []
    product = formal._product
    monkeypatch.setattr(formal, "_product", lambda *args: calls.append(1) or product(*args))
    expr = parse_expression(" * ".join(["(x1 + x2)"] * 16))
    assert expand(expr, box2(-1, 17)).coeffs == {(a, 16 - a): binom(16, a) for a in range(17)}
    assert len(calls) <= 2


# ---------------------------------------------------------------------------
# hull oracle: the earlier product evaluator, kept here as a test-only
# reference at box sizes where `reference_expand` is too slow.  It evaluates
# a product's infinite factor on the hull box (the target box widened by the
# whole span of the finite part), convolves that table with the finite one
# and keeps the keys inside the box; its atoms compute every binomial afresh.


def _hull_atom(expr, box):
    if isinstance(expr, IotaPow):
        (s1, v1), (s2, v2), (s3, v3) = (1, expr.first), (-1, expr.second), (1, None)
        ns = (expr.n,)
    else:
        (s1, v1), (s2, v2) = expr.num if len(expr.num) == 2 else (expr.num[0], (1, None))
        s3, v3 = expr.den
        lo, hi = box.bounds[box.index(v3)]
        ns = range(-hi, -lo + 1)
    slots = (v1, v2, v3)
    bounds = dict(zip(box.variables, box.bounds))
    if any(not lo <= 0 <= hi for v, (lo, hi) in bounds.items() if v not in slots):
        return {}
    where = [slots.index(v) if v in slots else 3 for v in box.variables]
    lo1, hi1 = bounds[v1]
    lo2, hi2 = bounds[v2] if v2 else (0, 0)
    out = {}
    for n in ns:
        mhi = min(hi2, n - lo1) if n < 0 else min(hi2, n - lo1, n)
        for m in range(max(0, lo2, n - hi1), mhi + 1):
            val = binom(n, m)
            odd = ((s1 < 0) * (n - m) + (s2 < 0) * m + (s3 < 0) * n) % 2
            exps = (n - m, m, -n, 0)
            out[tuple(exps[j] for j in where)] = -val if odd else val
    return out


def _hull_convolve(a, b, box=None):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            if box is None or box.contains(key):
                _ref_accumulate(out, key, v1 * v2)
    return out


def _hull_product(factors, box):
    finite = [f for f in factors if _ref_is_finite(f)]
    infinite = [f for f in factors if not _ref_is_finite(f)]
    table = {(0,) * len(box.variables): 1}
    for f in finite:
        b = support_bounds(f)
        full = ExponentBox(box.variables, tuple(b.get(v, (0, 0)) for v in box.variables))
        table = _hull_convolve(table, _hull_table(f, full))
    if not infinite:
        return {k: v for k, v in table.items() if box.contains(k)}
    if not table:
        return {}
    span = [(min(c), max(c)) for c in zip(*table)]
    inner = ExponentBox(box.variables, tuple(
        (lo - fhi, hi - flo) for (lo, hi), (flo, fhi) in zip(box.bounds, span)
    ))
    return _hull_convolve(table, _hull_table(infinite[0], inner), box)


def _hull_table(expr, box):
    if isinstance(expr, Monomial):
        key = tuple(dict(expr.exps).get(v, 0) for v in box.variables)
        return {key: expr.coeff} if expr.coeff and box.contains(key) else {}
    if isinstance(expr, (IotaPow, DeltaAtom)):
        return _hull_atom(expr, box)
    if isinstance(expr, Product):
        return _hull_product(expr.factors, box)
    acc = {}
    if isinstance(expr, Sum):
        for t in expr.terms:
            for key, val in _hull_table(t, box).items():
                _ref_accumulate(acc, key, val)
        return acc
    i = box.index(expr.var)
    for key, val in _hull_table(expr.body, _ref_grown(box, expr.var)).items():
        shifted = key[:i] + (key[i] - 1,) + key[i + 1 :]
        if key[i] and box.contains(shifted):
            acc[shifted] = key[i] * val
    return acc


def hull_expand(expr, box):
    """Coefficients of `expr` on `box` by the hull evaluator."""
    support_bounds(expr)  # rejects an ill-formed product before evaluating
    return _hull_table(expr, box)


def _suite_expressions():
    """The expressions `delta-suite` expands: both sides of its two identities
    (three variables) and of its derivative transport (x1, x2)."""
    t1, t2, t3 = jacobi_delta_terms()
    two_lhs = Product((mono({"x1": -1}), delta_binomial("x2", "x0", "x1", s2=1)))
    three_lhs = Sum((t1, Product((mono(coeff=-1), t2))))
    kernel = Product((mono({"x2": -1}), delta_ratio("x1", "x2")))
    transport = [Deriv("x1", kernel), Product((mono(coeff=-1), Deriv("x2", kernel)))]
    return [two_lhs, three_lhs, t3], transport


def _fundamental_products(rng, trials):
    """Both products X delta(x1/x2) and X(x2,x2) delta(x1/x2) that
    `fundamental_delta_property` expands, for the suite's random sections."""
    from chiralva.cli import _random_window

    out = []
    for _ in range(trials):
        table = _random_window(rng).coeffs
        diag = {}
        for (a, b), val in table.items():
            _ref_accumulate(diag, (0, a + b), val)
        for t in (table, diag):
            x = Sum(tuple(mono({"x1": a, "x2": b}, val) for (a, b), val in t.items()))
            out.append(Product((x, delta_ratio("x1", "x2"))))
    return out


def test_expand_matches_hull_oracle_on_the_delta_suite():
    from chiralva.cli import DELTA_SUITE_SEED

    three, two = _suite_expressions()
    fundamental = _fundamental_products(random.Random(DELTA_SUITE_SEED), 20)
    for exprs, box in ((three, box3(-20, 20)), (two + fundamental, box2(-20, 20))):
        for expr in exprs:
            assert expand(expr, box).coeffs == hull_expand(expr, box), expr


def test_expand_matches_hull_oracle_on_delta_window_templates():
    from chiralva.deltaparse import parse_expression

    pairs = _load_delta_templates()
    assert len(pairs) == 15
    for lhs, rhs in pairs:
        exprs = [parse_expression(lhs), parse_expression(rhs)]
        used = set().union(*(support_bounds(e) for e in exprs))
        box = ExponentBox.cube(tuple(v for v in ("x0", "x1", "x2") if v in used), -8, 8)
        for expr in exprs:
            assert expand(expr, box).coeffs == hull_expand(expr, box), expr


# boxes whose variables have different bounds, none of them symmetric about 0;
# the last one does not contain 0
ASYMMETRIC_BOXES = (
    ExponentBox(("x0", "x1"), ((-7, 2), (-1, 9))),
    ExponentBox(("x0", "x1", "x2"), ((-4, 1), (-1, 5), (-3, 2))),
    ExponentBox(("x1", "x2"), ((-8, -2), (1, 7))),
)


def _random_finite(rng, names, nested=True):
    """A factor of finite support with several keys: a sum of monomials with
    Fraction coefficients, a nonnegative iota power, or a product of both."""
    kind = rng.randrange(3 if nested else 2)
    if kind == 0:
        return Sum(tuple(
            mono({v: rng.randint(-3, 3) for v in rng.sample(names, rng.randint(1, len(names)))},
                 Q(rng.choice((-5, -3, -1, 1, 2, 7)), rng.randint(1, 4)))
            for _ in range(rng.randint(2, 3))
        ))
    if kind == 1:
        return IotaPow(*rng.sample(names, 2), rng.randint(1, 3))
    return Product((_random_finite(rng, names, False), _random_finite(rng, names, False)))


def _random_infinite(rng, names, depth):
    """A factor of infinite support: a delta or negative iota atom, or a Sum,
    Product or Deriv around one."""
    if depth == 0:
        kind = rng.randrange(3 if len(names) == 3 else 2)
        sign = lambda: rng.choice((1, -1))  # noqa: E731
        if kind == 0:
            return IotaPow(*rng.sample(names, 2), rng.randint(-3, -1))
        if kind == 1:
            return delta_ratio(*rng.sample(names, 2), sign(), sign())
        return delta_binomial(*rng.sample(names, 3), sign(), sign(), sign())
    kind = rng.randrange(3)
    if kind == 0:
        other = _random_finite(rng, names) if rng.random() < 0.5 else _random_infinite(rng, names, 0)
        return Sum((_random_infinite(rng, names, depth - 1), other))
    if kind == 1:
        return Product((_random_finite(rng, names, False), _random_infinite(rng, names, depth - 1)))
    return Deriv(rng.choice(names), _random_infinite(rng, names, depth - 1))


def test_expand_matches_reference_on_asymmetric_boxes():
    rng = random.Random(11)
    seen = {}
    for box in ASYMMETRIC_BOXES:
        for _ in range(40):
            finite = _random_finite(rng, box.variables)
            infinite = _random_infinite(rng, box.variables, rng.randint(0, 2))
            factors = [finite, infinite]
            rng.shuffle(factors)
            expr = Product(tuple(factors))
            got = _trusted(expr, box)
            assert got == reference_expand(expr, box), (expr, box)
            several = len(_ref_complete_table(finite, box.variables)) > 1
            kind = (type(infinite).__name__, several, bool(got))
            seen[kind] = seen.get(kind, 0) + 1
    # infinite factors of every kind, under finite parts of several keys, in
    # products that are nonzero on the box
    for name in ("IotaPow", "DeltaAtom", "Sum", "Product", "Deriv"):
        assert seen.get((name, True, True), 0) >= 3, seen


def test_a_table_at_an_offset_is_the_moved_reference():
    # _table(expr, box, memo, f) holds x^f * expr inside the box: the
    # coefficients of expr on the box moved by -f, each key moved by f
    from operator import add

    from chiralva import formal

    def check(expr, box, f):
        memo = {}
        support_bounds(expr, memo)
        got = formal._table(expr, box, memo, f)
        want = reference_expand(expr, box.shifted(f))
        assert got == {tuple(map(add, k, f)): v for k, v in want.items()}, (expr, box, f)
        return got

    rng = random.Random(23)
    seen = {}
    for box in ASYMMETRIC_BOXES:
        names = box.variables
        for _ in range(30):
            f = tuple(rng.randint(-4, 4) for _ in names)
            finite = _random_finite(rng, names)
            infinite = _random_infinite(rng, names, rng.randint(0, 2))
            kind = rng.choice(("deriv", "nested", "flat"))
            if kind == "deriv":  # a derivative under a product whose finite factor has several keys
                inner = Deriv(rng.choice(names), Product((_random_finite(rng, names, False), infinite)))
            elif kind == "nested":
                inner = Product((_random_finite(rng, names, False), infinite))
            else:
                inner = infinite
            got = check(Product((finite, inner)), box, f)
            several = len(_ref_complete_table(finite, names)) > 1
            seen[kind, several, bool(got)] = seen.get((kind, several, bool(got)), 0) + 1
            # the atoms and monomials at an offset, alone and under a derivative
            for expr in (infinite, finite, Deriv(names[0], infinite)):
                check(expr, box, f)
    for kind in ("deriv", "nested", "flat"):
        assert seen.get((kind, True, True), 0) >= 5, seen


IOTA_8000 = "iota(x1,x2)^8000 * x2^-1 * delta(x1/x2)"


def test_atoms_emit_only_keys_inside_their_box(monkeypatch):
    import io
    from contextlib import redirect_stdout

    from chiralva import formal
    from chiralva.cli import main
    from chiralva.deltaparse import parse_expression

    emitted = []
    atom = formal._atom

    def checked(expr, box, f):
        out = atom(expr, box, f)
        for key, val in out.items():
            assert box.contains(key) and type(val) is int, (expr, box, key, val)
        emitted.append((expr, len(out)))
        return out

    monkeypatch.setattr(formal, "_atom", checked)
    three, two = _suite_expressions()
    for expr in three:
        expand(expr, box3(-6, 6))
    for expr in two:
        expand(expr, box2(-6, 6))
    rng = random.Random(5)
    for box in ASYMMETRIC_BOXES:
        for _ in range(20):
            expand(Product((_random_finite(rng, box.variables), _random_infinite(rng, box.variables, 2))), box)
    assert sum(n for _, n in emitted) > 1000

    # every key of the product has the exponent sum N - 1, which no key of
    # the box has, so it is zero there and no atom is read, at any N (the
    # hull evaluator read the delta on a box N wide, the finite part on its
    # N + 1 keys)
    for lhs in (IOTA_8000, IOTA_8000.replace("8000", "80000")):
        emitted.clear()
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["delta-suite", "--box=-4:4", "--lhs", lhs, "--rhs", "x1"])
        assert code == 1
        assert buf.getvalue() == (
            "delta-suite: exponent box [-4..4] per variable\n"
            f"lhs: {lhs}\n"
            "rhs: x1\n"
            "custom-identity (user): FAIL, x1 in [-4..4], x2 in [-4..4]; "
            "first witness: coefficient at (1, 0): 0 != 1\n"
            "result: FAIL\n"
        )
        assert not emitted

    # a Sum of mixed degrees has none, so this product is scattered: the
    # finite part is the iota's 8001 keys and x1^9000, and the delta, times
    # each of them, emits no key into the box.  Every key of either term has
    # the exponent sum 7999 or 8999, so the value is zero
    emitted.clear()
    mixed = parse_expression("(iota(x1,x2)^8000 + x1^9000) * x2^-1 * delta(x1/x2)")
    assert expand(mixed, box2(-4, 4)).coeffs == {}
    assert sum(n for expr, n in emitted if isinstance(expr, DeltaAtom)) == 0
    assert sum(n for _, n in emitted) == 8001


def test_a_product_whose_degree_misses_the_box_reads_no_atom(monkeypatch):
    # A product of atoms has one total degree, and where no key of the box
    # has it the product is zero there and no atom is read.  A Sum of mixed
    # degrees has none, and iota^N * x1^-N keeps its genuine N-term sums.
    from chiralva import formal
    from chiralva.deltaparse import parse_expression

    emitted = []
    atom = formal._atom
    monkeypatch.setattr(formal, "_atom", lambda expr, box, f: emitted.append(expr) or atom(expr, box, f))
    box = box2(-4, 4)
    for text, skipped in (("iota(x1,x2)^40 * x1^-40 * x2^-1 * delta(x1/x2)", False),
                          ("iota(x1,x2)^40 * x2^-1 * delta(x1/x2)", True),
                          ("(iota(x1,x2)^40 + x1^60) * x2^-1 * delta(x1/x2)", False),
                          ("(iota(x1,x2)^3 + x1^40) * x2^-1 * delta(x1/x2)", False),
                          ("(x1^20 + x1) * delta(x1/x2)", False),
                          ("(x1^20 + x2^20) * delta(x1/x2)", True),
                          ("deriv(x1, x1^12 * x2^-2) * delta(x1/x2)", True),
                          ("deriv(x1, x1^7 * x2^-2) * delta(x1/x2)", False)):
        expr = parse_expression(text)
        emitted.clear()
        assert expand(expr, box).coeffs == reference_expand(expr, box) and (not emitted) == skipped, text


# ---------------------------------------------------------------------------
# independent oracle: sympy series (a test-only tool, never a runtime
# dependency of the package)


def _sympy_window(expr, symbols, box):
    """Coefficients of a sympy Laurent polynomial that fall inside `box`."""
    import sympy

    out = {}
    for term, coeff in sympy.expand(expr).as_coefficients_dict().items():
        powers = term.as_powers_dict()
        key = tuple(int(powers.get(s, 0)) for s in symbols)
        if box.contains(key):
            out[key] = out.get(key, Q(0)) + Q(int(coeff.p), int(coeff.q))
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("n", range(-4, 5))
def test_iota_expand_matches_sympy_series(n):
    sympy = pytest.importorskip("sympy")
    x1, x2 = sympy.symbols("x1 x2")
    b = box2(-6, 6)
    series = sympy.series((x1 - x2) ** n, x2, 0, 7).removeO()
    assert iota_expand("x1", "x2", n, b).coeffs == _sympy_window(series, (x1, x2), b)


def test_delta_identities_match_sympy_series():
    sympy = pytest.importorskip("sympy")
    x0, x1, x2 = symbols = sympy.symbols("x0 x1 x2")
    lo, hi = -4, 4
    b = box3(lo, hi)

    def delta(prefix, num, second, den):
        # prefix * sum over n of num^n (den)^-n, num^n expanded in nonnegative
        # powers of `second`; n runs over every den exponent the box can hold
        ns = range(-hi - 1, -lo)
        return prefix * sum(
            sympy.series(num**n, second, 0, hi + 1).removeO() * den ** (-n) for n in ns
        )

    t1 = delta(1 / x0, x1 - x2, x2, x0)
    t2 = delta(1 / x0, x2 - x1, x1, -x0)
    t3 = delta(1 / x2, x1 - x0, x0, x2)
    two = delta(1 / x1, x2 + x0, x0, x1)
    three_lhs = _sympy_window(t1 - t2, symbols, b)
    assert three_lhs == _sympy_window(t3, symbols, b) != {}
    assert _sympy_window(two, symbols, b) == _sympy_window(t3, symbols, b)

    f1, f2, f3 = jacobi_delta_terms()
    assert expand(Sum((f1, Product((mono(coeff=-1), f2)))), b).coeffs == three_lhs
    assert expand(f3, b).coeffs == _sympy_window(t3, symbols, b)
    lhs_two = Product((mono({"x1": -1}), delta_binomial("x2", "x0", "x1", s2=1)))
    assert expand(lhs_two, b).coeffs == _sympy_window(two, symbols, b)
    assert identity_two_term(b).passed and identity_three_term(b).passed
