from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathmac.algebra import RatFun
from wreathmac.classtypes import SimpleType, h_of_type, parse_simple_type
from wreathmac.partitions import partition_list, z_stat
from wreathmac.symfunc import SymFunc2

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


# arbitrary text, and text over the class syntax's own characters so that
# a good share of the draws parse
class_texts = st.text() | st.text(alphabet="0123456789,: -", max_size=12)


@settings(max_examples=300, deadline=None)
@given(class_texts, st.randoms(use_true_random=False))
def test_parse_simple_type_on_arbitrary_text(text, rnd):
    # a rejected text raises ValueError and nothing else; an accepted one is
    # in normal form, round-trips through str, and is equal and hash-equal
    # to the type with its star permuted (hodge._class_column is an
    # lru_cache keyed on it)
    try:
        beta = parse_simple_type(text)
    except ValueError:
        return
    assert list(beta.star) == sorted(beta.star, reverse=True)
    assert parse_simple_type(str(beta)) == beta
    star = list(beta.star)
    rnd.shuffle(star)
    permuted = SimpleType(beta.m_plus, beta.m_minus, tuple(star))
    assert permuted == beta and hash(permuted) == hash(beta)


def test_h_of_type():
    # dual of the multiplicity-one special class: h_1 in the first
    # alphabet, p_1(x0) = (p^+_1 + p^-_1) / 2
    half = RatFun.const(Fraction(1, 2))
    f = h_of_type(SimpleType(1, 0, ()))
    assert f.coeffs == {((1,), ()): half, ((), (1,)): half}
    # dual of a regular class: the diagonal h_1 = p^+_1
    f = h_of_type(SimpleType(0, 0, (1,)))
    assert f.coeffs == {((1,), ()): one}
    # empty type
    f = h_of_type(SimpleType(0, 0, ()))
    assert f.coeffs == {((), ()): one}


def _merged_h(m):
    """h_m[x0 + x1] = sum over mu of p^+_mu / z_mu, in the power basis."""
    return SymFunc2(
        "p", {(mu, ()): RatFun.const(Fraction(1, z_stat(mu))) for mu in partition_list(m)}
    )


def test_h_of_type_matches_power_sum_expansion():
    # h_(m_plus) and h_(m_minus) in the first alphabet, and for each generic
    # multiplicity m the h_m of the merged alphabet, whose power sums are
    # the p^+
    for n in range(5):
        for m_plus in range(n + 1):
            for m_minus in range(n + 1 - m_plus):
                for star in partition_list(n - m_plus - m_minus):
                    beta = SimpleType(m_plus, m_minus, star)
                    want = SymFunc2.one()
                    for m in (m_plus, m_minus):
                        want = want * SymFunc2.basis_elem("s", SymFunc2.one_row(m))
                    for m in star:
                        want = want * _merged_h(m)
                    got = h_of_type(beta)
                    assert got == want, beta
