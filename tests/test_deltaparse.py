import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralva.deltaparse import parse_expression
from chiralva.errors import ParseError
from chiralva.exact import Q
from chiralva.formal import ExponentBox, check_identity, expand


def box(lo=-4, hi=4, variables=("x0", "x1", "x2")):
    return ExponentBox.cube(variables, lo, hi)


def test_parse_delta_kernel_round_trip():
    expr = parse_expression("x0^-1 * delta((x1-x2)/x0)")
    w = expand(expr, box())
    assert w.coeff((-1, 0, 0)) == 1


def test_parse_matches_three_term_identity():
    lhs = parse_expression(
        "x0^-1 * delta((x1-x2)/x0) - x0^-1 * delta((x2-x1)/(-x0))"
    )
    rhs = parse_expression("x2^-1 * delta((x1-x0)/x2)")
    assert check_identity(lhs, rhs, box()).passed


def test_parse_rationals_iota_and_deriv():
    expr = parse_expression("3/2 * iota(x1,x2)^-1")
    w = expand(expr, box(variables=("x1", "x2")))
    assert w.coeff((-1, 0)) == Q(3, 2)
    expr = parse_expression("deriv(x1, x2^-1 * delta(x1/x2))")
    w = expand(expr, box(variables=("x1", "x2")))
    assert w.coeff((2, -4)) == 3


def test_parse_sums_signs_and_parens():
    expr = parse_expression("-x1 + 2 * (x2 + x1^2)")
    w = expand(expr, box(variables=("x1", "x2")))
    assert w.coeff((1, 0)) == -1
    assert w.coeff((0, 1)) == 2
    assert w.coeff((2, 0)) == 2


@pytest.mark.parametrize(
    "text",
    [
        "delta(x1)",
        "x3^2",
        "delta((x1-x2)/x0",
        "1 +",
        "iota(x1,x2)",
        "x1 ^^ 2",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_expression(text)


def test_parse_error_reports_column():
    with pytest.raises(ParseError) as err:
        parse_expression("x1 + $")
    assert "column" in str(err.value)


@pytest.mark.parametrize("text,message", [
    ("1/0", "column 3: zero denominator"),
    ("x1 * delta(x2/x2)", "column 6: delta ratio variables must be distinct"),
    ("iota(x1,x1)^2", "column 1: iota expansion needs two distinct variables"),
    ("(" * 2000 + "x1" + ")" * 2000, "expression nested too deeply"),
])
def test_parse_errors_for_well_tokenised_nonsense(text, message):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert message in str(err.value)


# every token of the grammar, plus a few stray characters
_ALPHABET = ("x0", "x1", "x2", "delta", "iota", "deriv", "0", "1", "2", "10",
             "^", "(", ")", "+", "-", "*", "/", ",", " ", "x", "$")
_VAR = st.sampled_from(("x0", "x1", "x2"))
_INT = st.integers(-3, 3).map(str)
# sentences of the grammar, before any noise; small integers, so that zero
# denominators and repeated variables come up
_FACTOR = st.one_of(
    st.builds("{}/{}".format, st.integers(0, 3), st.integers(0, 3)),
    st.builds("{}^{}".format, _VAR, _INT),
    st.builds("delta({}/{})".format, _VAR, _VAR),
    st.builds("delta(({}-{})/{})".format, _VAR, _VAR, _VAR),
    st.builds("iota({},{})^{}".format, _VAR, _VAR, _INT),
)
_SENTENCE = st.recursive(_FACTOR, lambda inner: st.one_of(
    st.builds("({})".format, inner),
    st.builds("{} * {}".format, inner, inner),
    st.builds("{} - {}".format, inner, inner),
    st.builds("deriv({}, {})".format, _VAR, inner),
), max_leaves=5)
_SOUP = st.lists(st.sampled_from(_ALPHABET), max_size=12).map("".join)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.one_of(_SOUP, _SENTENCE, st.tuples(_SENTENCE, _SOUP).map("".join)))
def test_parser_raises_nothing_but_parse_error(text):
    try:
        parse_expression(text)
    except ParseError:
        pass
