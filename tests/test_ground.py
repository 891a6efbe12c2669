"""Exact arithmetic, set algebra, containers, and JSON round-trips."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from extendkit import errors
from extendkit.ground import (
    ConvexPartialFunction,
    PartialSetFunction,
    Rational,
    elements,
    format_rational,
    is_subset,
    json_document,
    mask_of,
    parse_partial_function,
    parse_rational,
    popcount,
    rational_pair,
    serialize,
    submasks,
)

rationals = st.builds(
    Rational,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if c != 0:
        assert (a / c) * c == a


def test_lowest_terms():
    assert format_rational(Rational(4, 6)) == "2/3"
    assert format_rational(Rational(-4, 6)) == "-2/3"
    assert format_rational(Rational(8, 4)) == "2"
    assert Rational(3, 6).denominator == 2 and Rational(3, 6).denominator > 0


def test_parse_rational():
    assert parse_rational("7/3") == Rational(7, 3)
    assert parse_rational("-7/3") == Rational(-7, 3)
    assert parse_rational("5") == Rational(5)
    assert parse_rational("+3/4") == Rational(3, 4)
    assert parse_rational("-0") == 0 and parse_rational("-0/3") == 0
    assert parse_rational("007/014") == Rational(1, 2)
    # int() alone would read whitespace, underscores and other scripts' digits
    for bad in ("1.5", "a/b", "1/0", "1/-2", "", "3/4/5", "--2", "3/0", "-0/0",
                "5\n", "\n5", " 5", "5 ", "1_000", "٣", "3/٣", "０", "²", "+", "/",
                "3/", "/3", "+-3", "3/+4", "0x10", "1e3", 5, None, b"5"):
        with pytest.raises(errors.MalformedRational):
            parse_rational(bad)
        with pytest.raises(errors.MalformedRational):
            rational_pair(bad)


def test_rational_pair_keeps_the_literal_unreduced():
    assert rational_pair("6/8") == (6, 8)
    assert rational_pair("+3") == (3, 1)
    assert rational_pair("-0/5") == (0, 5)


@given(st.text(alphabet="0123456789+-/ \n_٣", max_size=8))
def test_rational_pair_matches_the_grammar(text):
    grammar = re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text, re.ASCII)
    if grammar is None or (grammar.group(1) and int(grammar.group(1)[1:]) == 0):
        with pytest.raises(errors.MalformedRational):
            rational_pair(text)
    else:
        p, q = rational_pair(text)
        assert Rational(p, q) == Fraction(text) and q > 0


@given(st.sets(st.integers(0, 20)), st.sets(st.integers(0, 20)))
def test_set_algebra(sa, sb):
    a, b = mask_of(sa), mask_of(sb)
    assert is_subset(a & b, a) and is_subset(a, a | b)
    assert popcount(a | b) + popcount(a & b) == popcount(a) + popcount(b)
    assert elements(mask_of(sa)) == tuple(sorted(sa))
    assert a | b == b | a and a & b == b & a
    assert a | a == a and a & a == a


def test_submasks():
    assert sorted(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert len(submasks(0b1111)) == 16


def test_parse_set_function_roundtrip():
    doc = '{"m":2,"points":[{"set":[0],"value":"1"},{"set":[1],"value":"1"}]}'
    h = parse_partial_function(doc)
    assert isinstance(h, PartialSetFunction)
    assert h.m == 2 and len(h.points) == 2
    assert parse_partial_function(serialize(h)) == h


def test_parse_duplicate_point():
    doc = '{"m":2,"points":[{"set":[0],"value":"1"},{"set":[0],"value":"2"}]}'
    with pytest.raises(errors.DuplicatePoint):
        parse_partial_function(doc)


def test_parse_convex_roundtrip():
    doc = '{"dim":1,"points":[{"x":["0"],"value":"0"},{"x":["2"],"value":"2"}]}'
    h = parse_partial_function(doc)
    assert isinstance(h, ConvexPartialFunction)
    assert h.m == 1 and len(h.points) == 2
    assert parse_partial_function(serialize(h)) == h


def test_parse_errors():
    with pytest.raises(errors.IndexOutOfRange):
        parse_partial_function('{"m":2,"points":[{"set":[5],"value":"1"}]}')
    with pytest.raises(errors.MalformedDocument):
        parse_partial_function('{"m":2,"points":[{"set":[1,0],"value":"1"}]}')
    with pytest.raises(errors.MalformedDocument):
        parse_partial_function("not json")
    with pytest.raises(errors.MalformedRational):
        parse_partial_function('{"m":2,"points":[{"set":[0],"value":"0.5"}]}')
    with pytest.raises(errors.NegativeValueForClass):
        parse_partial_function(
            '{"m":2,"points":[{"set":[0],"value":"-1"}]}', klass="xos"
        )
    # negative values are fine for submodular inputs
    parse_partial_function('{"m":2,"points":[{"set":[0],"value":"-1"}]}')


def test_json_documents_share_one_loader():
    from extendkit.oracle import parse_full_table
    from extendkit.submodular import parse_square_certificate

    assert json_document('{"m":1}') == json_document(b'{"m":1}') == {"m": 1}
    doc = {"m": 1}
    assert json_document(doc) is doc
    for parse in (json_document, parse_partial_function, parse_full_table,
                  parse_square_certificate):
        for text in ("{", b"{", b"\xff"):
            with pytest.raises(errors.MalformedDocument, match="invalid JSON"):
                parse(text)


def test_int_values_cached_once_per_instance():
    """The values scaled by the lcm of their denominators, in point order;
    the cache leaves equality and hash alone, and h.scaled() keeps its own."""
    pts = ((mask_of([1]), Rational(1, 4)), (mask_of([0]), Rational(5, 6)), (0, Rational(2)))
    h = PartialSetFunction(2, pts)
    twin = PartialSetFunction(2, pts)
    before = hash(h)
    # point order is {}, {0}, {1}: values 2, 5/6, 1/4; the denominators
    # 1, 6, 4 are not pairwise coprime, so the lcm is 12, not 24
    assert h.int_values == (12, (24, 10, 3))
    assert h.int_values is h.int_values
    assert h == twin and hash(h) == before == hash(twin)
    assert "int_values" not in vars(twin)

    coprime = PartialSetFunction(3, tuple(
        (mask_of([i]), Rational(1, d)) for i, d in enumerate((3, 5, 7))
    ))
    assert coprime.int_values == (105, (35, 21, 15))

    fivefold = h.scaled(5)
    assert "int_values" not in vars(fivefold)
    assert fivefold.int_values == (12, (120, 50, 15))
    assert h.int_values == (12, (24, 10, 3))


def test_serialize_sorts_sets_canonically():
    h = PartialSetFunction(
        3, ((mask_of([1, 2]), Rational(4, 6)), (mask_of([0]), Rational(1)))
    )
    doc = json.loads(serialize(h))
    assert doc["points"][0]["set"] == [0]
    assert doc["points"][1]["value"] == "2/3"


@given(
    st.lists(
        st.tuples(st.integers(0, 15), rationals), unique_by=lambda p: p[0], min_size=1
    )
)
def test_roundtrip_random_set_functions(points):
    h = PartialSetFunction(4, tuple(points))
    assert parse_partial_function(serialize(h)) == h
