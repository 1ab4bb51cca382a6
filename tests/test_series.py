from wreathmac.algebra import RatFun
from wreathmac.macdonald import macdonald_H
from wreathmac.series import (
    invert_series,
    one_param_star_terms,
    one_param_wreath_terms,
    star_series_terms,
    wreath_series_terms,
)
from wreathmac.symfunc import SymFunc1, on_merged_alphabet
from wreathmac.wreath import wreath_H

z = RatFun.var(0)
w = RatFun.var(1)
q = RatFun.var(0)


def coeff_of(terms, index):
    return next(t.coeff for t in terms if t.index == index)


def test_empty_index_coefficients():
    for g, k in ((0, 1), (1, 1), (0, 2)):
        t1 = wreath_series_terms(1, g, k, 0)
        assert coeff_of(t1, ((), ())) == (z - w) ** (2 * (g + k - 1))
        t0 = wreath_series_terms(0, g, k, 0)
        assert coeff_of(t0, ((), ())) == RatFun.one()
        ts = star_series_terms(g, k, 0)
        assert coeff_of(ts, ((),)) == RatFun.one()


def test_truncation_counts():
    assert len(wreath_series_terms(0, 0, 1, 1)) == 3
    assert len(star_series_terms(0, 1, 2)) == 4


def test_star_coefficient_shape():
    # one-box coefficient: (z-w)^(2(2g+k-1)) over (z^2-1)(1-w^2)
    for g, k in ((0, 2), (1, 1), (1, 2)):
        ts = star_series_terms(g, k, 1)
        got = coeff_of(ts, ((1,),))
        assert got == (z - w) ** (2 * (2 * g + k - 1)) / ((z**2 - 1) * (1 - w**2))


def test_inverse_coefficients():
    terms = star_series_terms(1, 1, 3)
    inv = invert_series(terms, 3)
    c1 = coeff_of(terms, ((1,),))
    c2 = coeff_of(terms, ((2,),))
    assert coeff_of(inv, ()) == RatFun.one()
    assert coeff_of(inv, (((1,),),)) == -c1
    assert coeff_of(inv, (((1,),), ((1,),))) == c1 * c1
    assert coeff_of(inv, (((2,),),)) == -c2
    # mixed multiset gets the multinomial weight 2
    pair = next(t for t in inv if len(t.index) == 2 and set(t.index) == {((2,),), ((1,),)})
    assert pair.coeff == 2 * c1 * c2


def test_product_with_inverse_is_one():
    # track the product in the tensor square of the Schur basis (2k = 2);
    # the factors' coefficients are read at q = z^2, t = w^2
    for g, k in ((0, 1), (1, 1)):
        maxdeg = 2
        terms = star_series_terms(g, k, maxdeg)
        inv = invert_series(terms, maxdeg)
        tensor = {}
        for a in terms:
            for s in inv:
                if a.size + s.size > maxdeg:
                    continue
                c = a.coeff * s.coeff
                f = (a.factor * s.factor).to_basis("s")
                zw = {key: v.monomial_map((2, 0, 0, 2)) for key, v in f.coeffs.items()}
                for k1, c1 in zw.items():
                    for k2, c2 in zw.items():
                        key = (k1, k2)
                        v = tensor.get(key, RatFun.zero()) + c * c1 * c2
                        tensor[key] = v
        empty = ((), ())
        for (k1, k2), v in tensor.items():
            if (k1, k2) == (empty, empty):
                assert v == RatFun.one()
            else:
                assert v.is_zero(), (k1, k2, v.text())


def test_two_parameter_factors_are_the_solved_families():
    # a factor is the solved family over (q, t), not a copy of its
    # coefficients in other variables
    for core in (0, 1):
        for t in wreath_series_terms(core, 1, 1, 3):
            assert t.factor == wreath_H(t.index, core), t.index
    for t in star_series_terms(1, 1, 3):
        assert t.factor == on_merged_alphabet(macdonald_H(t.index)), t.index


def test_one_param_empty_coefficients():
    for g, k in ((0, 1), (1, 1), (0, 2)):
        t1 = one_param_wreath_terms(1, g, k, 0)
        expect = q ** (1 - g - k) * (1 - q) ** (2 * g + 2 * k - 2)
        assert coeff_of(t1, ((), ())) == expect
        t0 = one_param_wreath_terms(0, g, k, 0)
        assert coeff_of(t0, ((), ())) == RatFun.one()


def test_one_param_star_factor():
    terms = one_param_star_terms(0, 1, 1)
    f = next(t.factor for t in terms if t.index == ((1,),))
    # s_1[(x0+x1)/(1-q)] = (p1(x0) + p1(x1))/(1-q)
    c = (RatFun.one() - q).inverse()
    assert f.to_basis("s").coeffs == {((1,), ()): c, ((), (1,)): c}


def test_one_param_star_factors_match_the_substituted_alphabet():
    # s_lam[(x0+x1)/(1-q)] by the two-alphabet route: substitute the scaled
    # identity, which scales both channels by 1/(1 - q), into the merged
    # image of s_lam
    c = (RatFun.one() - q).inverse()
    terms = one_param_star_terms(0, 1, 4)
    assert len(terms) == 1 + 1 + 2 + 3 + 5
    for t in terms:
        image = on_merged_alphabet(SymFunc1.basis_elem("s", t.index))
        assert t.factor == image.alphabet_substitute(c, c), t.index
