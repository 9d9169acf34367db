"""Parsers and formatters: round trips, spans, grammar fixtures."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import SMALL_RING, small_ring
from fuzzideal import (InvalidFuzzyIdealError, ParseError,
                       RingConstructionError, format, format_element,
                       format_fuzzy, format_ring_spec, fuzzy_from_chain,
                       parse_element, parse_fuzzy_spec, parse_ring,
                       parse_ring_spec)
from fuzzideal.corpus import ideal_chains
from fuzzideal.dsl import _literal_text, parse_value, to_json
from fuzzideal.rings import _elem_literal

F = Fraction


# -- ring specs -------------------------------------------------------------

def test_whitespace_normalization():
    spec = parse_ring_spec("Mat( 2 , Zn(2) )")
    assert format_ring_spec(spec) == "Mat(2, Zn(2))"
    assert parse_ring_spec(format_ring_spec(spec)) == spec


@pytest.mark.parametrize("text", [
    "Z", "Zn(6)", "Mat(2, Zn(2))", "Tri(2, Zn(3))",
    "Prod(Zn(2), Zn(3), Zn(2))", "Quot(Zn(12), <4>)", "Quot(Z, <10>)",
    "Mat(2, Quot(Z, <2>))",
])
def test_ring_spec_round_trip(text):
    spec = parse_ring_spec(text)
    canon = format_ring_spec(spec)
    assert parse_ring_spec(canon) == spec
    assert format_ring_spec(parse_ring_spec(canon)) == canon  # idempotent


@pytest.mark.parametrize("text,offset", [
    ("Mat(0, Zn(2))", 4),   # k >= 1
    ("Zn(0)", 3),           # n >= 2
    ("Zn(1)", 3),
    ("Qx(2)", 0),           # unknown constructor
    ("Prod(Zn(2))", 10),    # needs a second factor: ',' expected at ')'
    ("Zn(2) junk", 6),      # trailing input
    ("Mat(2 Zn(2))", 6),    # missing comma
])
def test_ring_spec_errors_with_spans(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_ring_spec(text)
    start, end = exc.value.span
    assert start == offset
    assert 0 <= start <= end <= len(text)
    assert exc.value.expected


# -- elements ---------------------------------------------------------------

def test_parse_elements(rings):
    assert parse_element(rings["Zn(6)"], "10") == 4  # reduced mod 6
    R = rings["Mat(2, Zn(2))"]
    e12 = parse_element(R, "[[0,1],[0,0]]")
    assert R.label(e12) == "[[0,1],[0,0]]"
    P = rings["Prod(Zn(2), Zn(3))"]
    x = parse_element(P, "(1, 2)")
    assert P.label(x) == "(1, 2)"
    Z = rings["Z"]
    assert parse_element(Z, "-7") == -7


def test_parse_element_shape_errors(rings):
    with pytest.raises(ParseError):
        parse_element(rings["Mat(2, Zn(2))"], "[[0,1],[0,0],[0,0]]")
    with pytest.raises(ParseError):
        parse_element(rings["Tri(2, Zn(2))"], "[[0,0],[1,0]]")  # below diag
    with pytest.raises(ParseError):
        parse_element(rings["Prod(Zn(2), Zn(3))"], "(1, 2, 3)")
    # Tri accepts a legal upper-triangular literal
    t = parse_element(rings["Tri(2, Zn(2))"], "[[1,1],[0,1]]")
    assert rings["Tri(2, Zn(2))"].label(t) == "[[1,1],[0,1]]"


def test_element_round_trip():
    """Every element's text parses back to it and is the literal built
    from the ring's structure, quotients by their parents' literals."""
    for spec in ("Zn(12)", "Mat(2, Zn(2))", "Tri(2, Zn(2))",
                 "Prod(Zn(2), Zn(3))", "Quot(Zn(12), <4>)", "Quot(Z, <6>)",
                 "Quot(Quot(Zn(24), <8>), <4>)",
                 "Quot(Mat(2, Zn(4)), <[[2,0],[0,0]]>)"):
        R = parse_ring(spec)
        for x in range(R.size):
            text = format_element(R, x)
            assert parse_element(R, text) == x
            assert text == _literal_text(R.spec, _elem_literal(R, x))


# -- values -----------------------------------------------------------------

def test_values_exact():
    assert parse_value("4/5") == F(4, 5)
    assert parse_value("0.8") == F(4, 5)
    assert parse_value("0.125") == F(1, 8)
    assert parse_value("1") == 1 and parse_value("0") == 0
    with pytest.raises(ParseError):
        parse_value("0.1234567")  # > 6 digits
    with pytest.raises(ParseError):
        parse_value("7/5")  # outside [0,1]
    with pytest.raises(ParseError):
        parse_value("1/0")


# -- fuzzy specs ------------------------------------------------------------

def test_fuzzy_spec_examples(rings):
    Z = rings["Z"]
    d3v = parse_fuzzy_spec(Z, "{1: <0>, 4/5: <4>, 3/5: <*>}")
    assert [c.gen for c in d3v.ideals] == [0, 4, 1]
    R = rings["Mat(2, Zn(2))"]
    chi0 = parse_fuzzy_spec(R, "{1: <[[0,0],[0,0]]>, 0: <*>}")
    assert chi0.ideals[0].elems == frozenset({R.zero})
    with pytest.raises(InvalidFuzzyIdealError):
        parse_fuzzy_spec(Z, "{1: <4>, 1: <2>, 0: <*>}")  # values equal
    with pytest.raises(InvalidFuzzyIdealError):
        parse_fuzzy_spec(Z, "{1: <2>, 1/2: <4>, 0: <*>}")  # <4> inside <2>
    with pytest.raises(InvalidFuzzyIdealError):
        parse_fuzzy_spec(Z, "{1: <0>, 1/2: <2>}")  # does not end at Z
    # decimals parse exactly to the same ideal
    assert parse_fuzzy_spec(Z, "{1: <0>, 0.8: <4>, 0.6: <*>}").chain \
        == d3v.chain


def test_fuzzy_round_trip(rings, corpora, z_corpus):
    for spec, items in corpora.items():
        R = rings[spec]
        for P in items:
            assert parse_fuzzy_spec(R, format_fuzzy(P)).chain == P.chain
    Z = rings["Z"]
    for P in z_corpus:
        assert parse_fuzzy_spec(Z, format_fuzzy(P)).chain == P.chain


def _assert_round_trips(R, data, bound=None):
    """parse_ring(format_ring_spec(R.spec)) has R's tables, and a drawn
    chain with drawn values survives format_fuzzy and parse_fuzzy_spec."""
    assert parse_ring(format_ring_spec(R.spec)).same_tables(R)
    chain = data.draw(st.sampled_from(ideal_chains(R, 4, bound)))
    values = data.draw(st.sets(st.fractions(0, 1, max_denominator=12),
                               min_size=len(chain), max_size=len(chain)))
    P = fuzzy_from_chain(R, list(zip(chain, sorted(values, reverse=True))))
    assert parse_fuzzy_spec(R, format_fuzzy(P)).chain == P.chain


@given(text=SMALL_RING, data=st.data())
def test_round_trips_on_small_rings(text, data):
    try:
        R = small_ring(text)
    except RingConstructionError:  # a quotient by the whole ring
        return
    _assert_round_trips(R, data)


@given(bound=st.integers(1, 12), data=st.data())
def test_round_trips_over_z(bound, data):
    _assert_round_trips(small_ring("Z"), data, bound)


def test_format_kumar():
    Z = parse_ring("Z")
    kumar = parse_fuzzy_spec(Z, "{1:<0>,4/5:<2>,3/5:<*>}")
    assert format_fuzzy(kumar) == "{1: <0>, 4/5: <2>, 3/5: <*>}"


def test_format_dispatch_and_json(rings):
    assert format(parse_ring_spec("Mat( 2 , Zn(2) )")) == "Mat(2, Zn(2))"
    payload = to_json({"b": F(1, 2), "a": [F(1, 4)]})
    assert payload.index('"a"') < payload.index('"b"')  # sorted keys
    assert '"1/2"' in payload and '"1/4"' in payload
