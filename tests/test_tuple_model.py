"""Unit tests for tuples, patterns, and field specs."""

import pytest

from repro.errors import MalformedPatternError, MalformedTupleError
from repro.tuples import ANY, Actual, Formal, Pattern, Range, Tuple


# ---------------------------------------------------------------------------
# Tuple construction
# ---------------------------------------------------------------------------
def test_tuple_fields_and_arity():
    t = Tuple("req", 42, 2.5)
    assert t.fields == ("req", 42, 2.5)
    assert t.arity == len(t) == 3
    assert t[0] == "req" and list(t) == ["req", 42, 2.5]


def test_tuple_signature():
    assert Tuple("a", 1, 1.0, b"x", True).signature == ("str", "int", "float", "bytes", "bool")


def test_nested_tuple_allowed():
    inner = Tuple("point", 1, 2)
    outer = Tuple("wrap", inner)
    assert outer[1] == inner
    assert outer.signature == ("str", "Tuple")


def test_empty_tuple_rejected():
    with pytest.raises(MalformedTupleError):
        Tuple()


def test_unsupported_field_type_rejected():
    with pytest.raises(MalformedTupleError):
        Tuple("x", [1, 2, 3])
    with pytest.raises(MalformedTupleError):
        Tuple("x", None)
    with pytest.raises(MalformedTupleError):
        Tuple("x", {"k": "v"})


def test_tuple_equality_and_hash():
    assert Tuple("a", 1) == Tuple("a", 1)
    assert Tuple("a", 1) != Tuple("a", 2)
    assert hash(Tuple("a", 1)) == hash(Tuple("a", 1))
    assert len({Tuple("a", 1), Tuple("a", 1), Tuple("b", 2)}) == 2


def test_tuple_of_iterable():
    assert Tuple.of(["x", 7]) == Tuple("x", 7)


def test_tuple_repr_roundtrips_visually():
    assert repr(Tuple("a", 1)) == "Tuple('a', 1)"


# ---------------------------------------------------------------------------
# Field specs
# ---------------------------------------------------------------------------
def test_actual_admits_equal_value_only():
    assert Actual(5).admits(5)
    assert not Actual(5).admits(6)
    assert not Actual("5").admits(5)


def test_actual_is_type_strict():
    assert not Actual(1).admits(True)   # bool is not int here
    assert not Actual(True).admits(1)
    assert not Actual(1.0).admits(1)
    assert not Actual(1).admits(1.0)


def test_formal_admits_exact_type():
    assert Formal(int).admits(7)
    assert not Formal(int).admits(7.0)
    assert not Formal(int).admits(True)
    assert Formal(bool).admits(False)
    assert Formal(str).admits("s")
    assert Formal(bytes).admits(b"s")
    assert Formal(Tuple).admits(Tuple("x"))


def test_formal_rejects_unknown_types():
    with pytest.raises(MalformedPatternError):
        Formal(list)
    with pytest.raises(MalformedPatternError):
        Formal(dict)


def test_any_admits_everything():
    for value in (True, 0, 1.5, "s", b"b", Tuple("t")):
        assert ANY.admits(value)


def test_range_bounds():
    r = Range(1, 5)
    assert r.admits(1) and r.admits(5) and r.admits(3.2)
    assert not r.admits(0) and not r.admits(6)
    assert not r.admits("3")
    assert not r.admits(True)  # bools are not numbers for matching purposes


def test_range_open_ended():
    assert Range(lo=10).admits(1_000_000)
    assert not Range(lo=10).admits(9)
    assert Range(hi=10).admits(-5)
    assert not Range(hi=10).admits(11)


def test_range_admits_no_nan():
    nan = float("nan")
    assert not Range(0, 1).admits(nan)
    assert not Range(lo=0).admits(nan) and not Range(hi=0).admits(nan)


def test_range_validation():
    with pytest.raises(MalformedPatternError):
        Range()
    with pytest.raises(MalformedPatternError):
        Range(5, 1)


def test_spec_equality():
    assert Actual(1) == Actual(1)
    assert Actual(1) != Actual(True)
    assert Formal(int) == Formal(int) != Formal(float)
    assert Range(1, 2) == Range(1, 2) != Range(1, 3)


# ---------------------------------------------------------------------------
# Pattern construction sugar
# ---------------------------------------------------------------------------
def test_pattern_sugar_coercion():
    p = Pattern("req", int, ANY, Range(0, 1))
    assert isinstance(p.specs[0], Actual)
    assert isinstance(p.specs[1], Formal)
    assert p.specs[2] is ANY
    assert isinstance(p.specs[3], Range)
    assert p.arity == 4


def test_pattern_rejects_bare_callable():
    with pytest.raises(MalformedPatternError):
        Pattern("x", lambda v: v > 0)


def test_empty_pattern_rejected():
    with pytest.raises(MalformedPatternError):
        Pattern()


def test_pattern_for_tuple_is_fully_actual():
    t = Tuple("a", 1)
    p = Pattern.for_tuple(t)
    assert all(isinstance(s, Actual) for s in p.specs)


def test_pattern_equality_and_hash():
    assert Pattern("a", int) == Pattern("a", int)
    assert Pattern("a", int) != Pattern("a", float)
    assert hash(Pattern("a", int)) == hash(Pattern("a", int))
