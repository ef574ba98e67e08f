import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralva.exact import Poly, Q, binom, format_poly
from chiralva.serialize import dumps
from chiralva.vertex import VAData


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


def test_poly_derivative_examples():
    z = Poly.z()
    assert (z * z).derivative() == Poly((0, 2))
    assert Poly.const(5).derivative() == Poly()
    assert (z * z * z - z).derivative() == Poly((-1, 0, 3))


def test_poly_ring_examples():
    z = Poly.z()
    assert z * z == Poly((0, 0, 1))
    assert (z + Poly.const(1)) + Poly.const(-1) == z
    assert Poly() * (z + Poly.const(3)) == Poly()


def test_poly_derivation_product_rule():
    rng = random.Random(11)
    for _ in range(40):
        p = Poly([Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 7))])
        q = Poly([Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 7))])
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_poly_normalization():
    assert Poly((1, 0, 0)).coeffs == (Q(1),)
    assert Poly((0, 0)).coeffs == ()
    assert Poly((0, 1)).degree == 1
    assert Poly().degree == -1


# ---------------------------------------------------------------------------
# integral coefficients are stored as int, others as Fraction; a reference
# in Fractions only fixes the values, equality, hashing and rendering

_SCALAR = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
_COEFFS = st.lists(_SCALAR, max_size=5)


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


def _fraction_poly(ref):
    # a Poly holding the reference Fractions as they are, bypassing __init__
    p = object.__new__(Poly)
    p.coeffs = ref
    return p


def _assert_normal(p, ref):
    assert p.coeffs == ref and hash(p) == hash(ref)
    for c in p.coeffs:
        assert type(c) is (int if c.denominator == 1 else Fraction), c
    assert format_poly(p) == format_poly(_fraction_poly(ref))
    dumped = [dumps(VAData(1, "Q[z]", ("e",), {(0, -1, 0): (x,)}, ((Poly(),),)))
              for x in (p, _fraction_poly(ref))]
    assert dumped[0] == dumped[1]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_COEFFS, _COEFFS, _SCALAR)
def test_integral_coefficients_stay_int(xs, ys, c):
    p, q = Poly(xs), Poly(ys)
    rp, rq = _ref(xs), _ref(ys)
    _assert_normal(p, rp)
    _assert_normal(q, rq)
    _assert_normal(p + q, _ref_add(rp, rq))
    _assert_normal(p - q, _ref_add(rp, rq, -1))
    _assert_normal(p * q, _ref_mul(rp, rq))
    _assert_normal(p.derivative(), _ref([k * a for k, a in enumerate(rp)][1:]))
    _assert_normal(p * c, _ref([Fraction(c) * a for a in rp]))
    _assert_normal(c * p, _ref([Fraction(c) * a for a in rp]))
    assert (p == q) == (rp == rq)
    assert p == _fraction_poly(rp)
