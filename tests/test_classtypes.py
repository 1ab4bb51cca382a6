import pytest

from wreathmac.algebra import RatFun
from wreathmac.classtypes import SimpleType, h_of_type, parse_simple_type

one = RatFun.one()


def test_parse_simple_type():
    beta = parse_simple_type("2,0:")
    assert (beta.m_plus, beta.m_minus, beta.star) == (2, 0, ())
    beta = parse_simple_type("0,0:1 1")
    assert beta.star == (1, 1) and beta.size == 2
    with pytest.raises(ValueError):
        parse_simple_type("2:1")
    with pytest.raises(ValueError):
        parse_simple_type("-1,0:")


def test_h_of_type():
    # dual of the multiplicity-one special class: h_1 in the first alphabet
    f = h_of_type(SimpleType(1, 0, ()))
    assert f.coeffs == {((1,), ()): one}
    # dual of a regular class: the diagonal h_1
    f = h_of_type(SimpleType(0, 0, (1,)))
    assert f.coeffs == {((1,), ()): one, ((), (1,)): one}
    # empty type
    f = h_of_type(SimpleType(0, 0, ()))
    assert f.coeffs == {((), ()): one}
