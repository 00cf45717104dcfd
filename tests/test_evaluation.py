import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scsp import (INF, ZERO, Evaluation, FlowNetwork, PenaltyError,
                  as_evaluation, format_network)

finite = st.fractions(min_value=0, max_denominator=50).map(as_evaluation)
evaluations = st.one_of(finite, st.just(INF))


def test_construction_and_accessors():
    e = Evaluation(Fraction(3, 4))
    assert not e.is_infinite and not e.is_zero
    assert e.fraction == Fraction(3, 4)
    assert ZERO.is_zero and not ZERO.is_infinite
    assert INF.is_infinite and not INF.is_zero
    with pytest.raises(ValueError):
        INF.fraction
    with pytest.raises(ValueError):
        Evaluation(-1)


def test_immutable():
    for e in (ZERO, INF, as_evaluation(2)):
        fresh = copy.deepcopy(e)
        with pytest.raises(AttributeError):
            e._value = Fraction(5)
        assert e == fresh and hash(e) == hash(fresh)
        with pytest.raises(AttributeError):
            del e._value
        assert e == fresh and hash(e) == hash(fresh)


def test_addition_examples():
    assert as_evaluation("3/4") + as_evaluation(2) == as_evaluation("11/4")
    assert ZERO + as_evaluation(7) == as_evaluation(7)
    assert INF + as_evaluation(7) == INF
    assert as_evaluation(7) + INF == INF
    assert INF + INF == INF


def test_ordering():
    assert as_evaluation(2) < as_evaluation("5/2") < as_evaluation(3) < INF
    assert INF == INF
    assert not INF < INF
    assert not INF > INF
    assert INF <= INF and INF >= INF
    assert ZERO <= as_evaluation(0)


def test_str_and_round_trip():
    assert str(as_evaluation(5)) == "5"
    assert str(as_evaluation(Fraction(11, 4))) == "11/4"
    assert str(INF) == "inf"
    for text in ("5", "11/4", "inf", "0"):
        assert str(as_evaluation(text)) == text


def test_prints_more_digits_than_str_of_an_int_allows():
    # str(int) refuses past sys.get_int_max_str_digits() (4,300 by
    # default); a sum of accepted penalties can pass it too
    big = 10 ** 5000 + 7
    digits = "1" + "0" * 4997 + "007"
    assert str(as_evaluation(big)) == digits
    assert repr(as_evaluation(big)) == f"Evaluation({digits})"
    assert str(as_evaluation(Fraction(3, big))) == f"3/{digits}"
    assert str(as_evaluation(10 ** 4999) + as_evaluation(9 * 10 ** 4999)) == (
        "1" + "0" * 5000)
    net = FlowNetwork(("a",), 1, (2,), (3,), (as_evaluation(big),), (0,))
    assert format_network(net) == f"a_0 a_1 {digits} constraint:0\n"
    # as error messages echo a value
    assert f"{as_evaluation(big)}" == digits


def test_as_evaluation_coercions():
    assert as_evaluation(3) == Evaluation(3)
    assert as_evaluation(Fraction(1, 2)) == Evaluation(Fraction(1, 2))
    e = as_evaluation(9)
    assert as_evaluation(e) is e
    with pytest.raises(TypeError):
        as_evaluation(0.5)
    with pytest.raises(ValueError):
        as_evaluation("-1")
    with pytest.raises(ValueError):
        as_evaluation("nonsense")
    # one gate: the file format's tokens and exact rationals, nothing else
    assert Evaluation("inf") == INF and as_evaluation("inf") is INF
    assert Evaluation("01") == as_evaluation("2/2") == as_evaluation(1)
    for value in (True, False, 0.5, "1.5", "1e3", " 3 ", "\u0661", "1/0",
                  "-1", -1, Fraction(-1, 2), None, "1" * 5000, [1]):
        with pytest.raises(PenaltyError):
            as_evaluation(value)
        with pytest.raises(PenaltyError):
            Evaluation(value)


def test_constructor_refuses_floats():
    with pytest.raises(TypeError, match="refusing float"):
        Evaluation(0.1)
    with pytest.raises(TypeError, match="refusing float"):
        Evaluation(2.0)
    assert Evaluation(Fraction(1, 10)) == as_evaluation("1/10")


def test_hash_consistency():
    assert hash(as_evaluation("4/2")) == hash(as_evaluation(2))
    assert len({INF, INF + ZERO, as_evaluation("inf")}) == 1


@pytest.mark.parametrize("e", [ZERO, INF, as_evaluation("3/4")], ids=str)
def test_copy_and_pickle(e):
    for other in (copy.copy(e), copy.deepcopy(e),
                  pickle.loads(pickle.dumps(e))):
        assert other == e and hash(other) == hash(e)
        assert other.is_infinite == e.is_infinite
        with pytest.raises(AttributeError):
            other._value = Fraction(5)


@given(evaluations, evaluations)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(evaluations, evaluations, evaluations)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(evaluations)
def test_zero_is_identity(a):
    assert a + ZERO == a


@given(evaluations, evaluations)
def test_addition_is_monotone(a, b):
    assert a + b >= a
    assert a + b >= b


@given(evaluations, evaluations)
def test_comparison_total(a, b):
    assert (a < b) + (b < a) + (a == b) == 1
