import json
import time
from pathlib import Path

import pytest

from chiralva import serialize
from chiralva.chiral import bump_b_entry
from chiralva.equivalence import va_to_chiral
from chiralva.errors import ParseError
from chiralva.exact import Q, format_q
from chiralva.fixtures import a3_va, corpus, trivial_rank1
from chiralva.vertex import equal_tables, tensor_with_ox


def test_rational_strings():
    assert format_q(Q(-4, 7)) == "-4/7"
    assert format_q(Q(3)) == "3"
    assert serialize.str_to_rational("-4/7") == Q(-4, 7)
    assert serialize.str_to_rational("12") == Q(12)
    with pytest.raises(ParseError):
        serialize.str_to_rational("1/0")
    with pytest.raises(ParseError):
        serialize.str_to_rational("x")


def test_va_roundtrip_byte_exact_on_corpus():
    for name, v in corpus() + [("a3-plain", a3_va()), ("trivial", trivial_rank1())]:
        text = serialize.dumps(v)
        parsed = serialize.loads(text)
        ok, witness = equal_tables(v, parsed)
        assert ok, (name, witness)
        assert serialize.dumps(parsed) == text, name


def test_chiral_roundtrip_byte_exact():
    A = va_to_chiral(tensor_with_ox(a3_va()), checked=False)
    text = serialize.dumps(A)
    parsed = serialize.loads(text)
    assert parsed.va.structure == A.va.structure and parsed.overrides == {}
    assert serialize.dumps(parsed) == text
    obj = __import__("json").loads(text)
    assert obj["recursion_determined"] is True

    mutated = bump_b_entry(A, 1, -1, 0, 1, 0)
    text2 = serialize.dumps(mutated)
    parsed2 = serialize.loads(text2)
    assert parsed2.overrides == mutated.overrides
    assert serialize.dumps(parsed2) == text2
    obj2 = __import__("json").loads(text2)
    assert obj2["recursion_determined"] is False


def test_far_explicit_layer_loads_without_its_factorial():
    # The closed form of a layer m whose B^{n+m}_0 is not stored is zero, so
    # loading computes no m!: at m = 10^6 that factorial took seconds.
    path = Path(__file__).resolve().parents[1] / "fixtures" / "a3_chiral.json"
    doc = json.loads(path.read_text())
    doc["B"].append({"i": 0, "j": 0, "n": 0, "m": 10**6, "value": [["1"], [], []]})
    start = time.process_time()
    A = serialize.loads(json.dumps(doc))
    assert time.process_time() - start < 1
    assert A.off_recursion() == (0, 0, 0, 10**6)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        serialize.loads("{ not json")
    assert err.value.line == 1

    with pytest.raises(ParseError):
        serialize.loads('{"kind": "mystery"}')
    with pytest.raises(ParseError):
        serialize.loads('{"no_kind": 1}')
    with pytest.raises(ParseError):
        serialize.loads(
            '{"kind": "vertex-algebra", "rank": 1, "coeff_ring": "Q",'
            ' "basis_names": ["e"], "D": [], "structure": []}'
        )


# A coefficient is a JSON string -?[0-9]+(/[0-9]+)? in ASCII digits with a
# nonzero denominator.  These used to go through str() and int(), which read
# "1_0" as 10, " 1", "+1" and an Arabic-Indic one as 1, "1/-2" as -1/2, and
# coerced JSON numbers.
BAD_LITERALS = ["1_0", " 1", "1 ", "+1", "\u0661", "1/-2", "-1/-2", "1/0", "0/0", "", "-",
                "1.5", "1e3", "0x1", "1/2/3", "\u00bd", "1\n", 1, 1.0, None, True, [], {}]


@pytest.mark.parametrize("literal", BAD_LITERALS, ids=repr)
def test_non_canonical_coefficient_literals_are_parse_errors(literal):
    with pytest.raises(ParseError):
        serialize.str_to_rational(literal)
    doc = __import__("json").loads(serialize.dumps(a3_va()))
    doc["structure"][0]["value"][0] = [literal]
    with pytest.raises(ParseError):
        serialize.loads(__import__("json").dumps(doc))


@pytest.mark.parametrize("literal,value", [
    ("0", 0), ("-0", 0), ("12", 12), ("007", 7), ("-4/7", Q(-4, 7)), ("6/4", Q(3, 2)),
    ("4/2", 2), ("-0/3", 0),
])
def test_coefficient_literals_read_exactly(literal, value):
    got = serialize.str_to_rational(literal)
    assert got == value
    assert type(got) is (int if value.denominator == 1 else type(Q(1, 2)))
