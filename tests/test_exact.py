import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralva.exact import Q, binom, format_poly
from chiralva.serialize import dumps
from chiralva.vertex import VAData, apply_d, contract, format_vector, vadd, vscale


def test_binom_examples():
    assert binom(3, 2) == 3
    assert binom(-1, 2) == 1
    assert binom(-2, 3) == -4
    assert binom(0, 0) == 1
    for n in range(-6, 7):
        assert binom(n, 0) == 1


def test_binom_is_the_exact_falling_factorial_integer():
    for n in range(-30, 31):
        falling = Fraction(1)
        for m in range(31):
            got = binom(n, m)
            assert type(got) is int and got == falling, (n, m)
            falling = falling * (n - m) / (m + 1)  # n(n-1)...(n-m)/(m+1)!


def test_binom_rejects_negative_lower_index():
    with pytest.raises(ValueError):
        binom(3, -1)


def test_pascal_identity():
    for n in range(-8, 9):
        for m in range(1, 9):
            assert binom(n, m) == binom(n - 1, m) + binom(n - 1, m - 1)


def test_binom_vanishes_between_zero_and_m():
    for m in range(1, 9):
        for n in range(0, m):
            assert binom(n, m) == 0


def test_vandermonde_composition_identity():
    # sum over i + k = i' of binom(m3, i) binom(k', k) = binom(m3 + k', i')
    for m3 in range(-5, 6):
        for kp in range(0, 6):
            for ip in range(0, 9):
                total = sum(
                    binom(m3, i) * binom(kp, ip - i)
                    for i in range(0, ip + 1)
                    if ip - i <= kp
                )
                assert total == binom(m3 + kp, ip), (m3, kp, ip)


# Polynomial arithmetic lives in the sparse vector core: a coordinate's
# polynomial is its (coord, deg) entries, `contract` multiplies (a degree
# shift per term) and `apply_d` differentiates.  Rank 1 with D = 0 is Q[z].

D_ZERO = VAData(1, "Q[z]", ("e",), {}, ({},))


def _z(*coeffs):
    """The rank-1 vector of the polynomial with these low-degree-first coefficients."""
    return {(0, d): c for d, c in enumerate(coeffs) if c}


def _times(p, q):
    return contract(p, {0: q})


def test_poly_derivative_examples():
    z = _z(0, 1)
    assert apply_d(D_ZERO, _times(z, z)) == _z(0, 2)
    assert apply_d(D_ZERO, _z(5)) == {}
    assert apply_d(D_ZERO, vadd(_times(_times(z, z), z), vscale(-1, z))) == _z(-1, 0, 3)


def test_poly_ring_examples():
    z = _z(0, 1)
    assert _times(z, z) == _z(0, 0, 1)
    assert vadd(vadd(z, _z(1)), _z(-1)) == z
    assert _times({}, vadd(z, _z(3))) == {}


def test_poly_derivation_product_rule():
    rng = random.Random(11)
    for _ in range(40):
        p = _z(*[Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 7))])
        q = _z(*[Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 7))])
        lhs = apply_d(D_ZERO, _times(p, q))
        assert lhs == vadd(_times(apply_d(D_ZERO, p), q), _times(p, apply_d(D_ZERO, q)))


# ---------------------------------------------------------------------------
# the sparse primitives against a dense reference in Fractions only: a rank-2
# vector is one low-degree-first coefficient tuple per coordinate.  Results
# keep integral coefficients as int, hold no zero entries, and equal the
# reference in value, rendering and serialized bytes.

RANK = 2
NAMES = ("a", "b")
_SCALAR = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
_COEFFS = st.lists(_SCALAR, max_size=5)
_DENSE = st.lists(_COEFFS, min_size=RANK, max_size=RANK)


def _ref(cs):
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _ref_add(a, b, sign=1):
    width = max(len(a), len(b))
    a, b = a + (0,) * (width - len(a)), b + (0,) * (width - len(b))
    return _ref([x + sign * y for x, y in zip(a, b)])


def _ref_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


def _ref_vec(dense):
    return tuple(_ref(cs) for cs in dense)


def _ref_vadd(x, y, sign=1):
    return tuple(_ref_add(a, b, sign) for a, b in zip(x, y))


def _ref_contract(x, cols):
    """sum_p x_p * cols[p] with polynomial x_p."""
    out = ((),) * RANK
    for p, xp in enumerate(x):
        out = _ref_vadd(out, tuple(_ref_mul(xp, e) for e in cols[p]))
    return out


def _ref_deriv(x):
    return tuple(_ref([k * a for k, a in enumerate(cs)][1:]) for cs in x)


def _ref_format(x, names):
    """The rendering of the former dense tuple-of-polynomials vectors."""
    parts = []
    for cs, name in zip(x, names):
        if cs:
            s = format_poly(enumerate(cs))
            parts.append(name if s == "1" else f"({s})*{name}")
    return " + ".join(parts) if parts else "0"


def _sparse(dense):
    """The sparse vector of a dense one, its scalars kept as they are."""
    return {(c, d): a for c, cs in enumerate(dense) for d, a in enumerate(cs) if a}


def _dumps(vec):
    return dumps(VAData(RANK, "Q[z]", NAMES, {(0, -1, 0): vec}, ({},) * RANK))


def _assert_normal(vec, ref):
    assert vec == _sparse(ref)
    for a in vec.values():
        assert a != 0 and type(a) is (int if a.denominator == 1 else Fraction), a
    assert format_vector(vec, NAMES) == _ref_format(ref, NAMES)
    if vec:
        assert _dumps(vec) == _dumps(_sparse(ref))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_DENSE, _DENSE, _SCALAR, st.lists(_DENSE, min_size=RANK, max_size=RANK))
def test_integral_coefficients_stay_int(xs, ys, c, d_dense):
    x, y = vscale(1, _sparse(xs)), vscale(1, _sparse(ys))
    rx, ry = _ref_vec(xs), _ref_vec(ys)
    d_cols = tuple(vscale(1, _sparse(col)) for col in d_dense)
    rd = tuple(_ref_vec(col) for col in d_dense)
    _assert_normal(x, rx)
    _assert_normal(y, ry)
    _assert_normal(vadd(x, y), _ref_vadd(rx, ry))
    _assert_normal(vadd(x, vscale(-1, y)), _ref_vadd(rx, ry, -1))
    _assert_normal(vscale(c, x), tuple(_ref([Fraction(c) * a for a in cs]) for cs in rx))
    _assert_normal(contract(x, dict(enumerate(d_cols))), _ref_contract(rx, rd))
    _assert_normal(contract(x, {0: y}), _ref_contract(rx, (ry, ((),) * RANK)))
    V = VAData(RANK, "Q[z]", NAMES, {}, d_cols)
    _assert_normal(apply_d(V, x), _ref_vadd(_ref_deriv(rx), _ref_contract(rx, rd)))
    assert (x == y) == (rx == ry)
