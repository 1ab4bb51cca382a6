import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wreathmac import kernels
from wreathmac.algebra import (
    LaurentPoly,
    RatFun,
    _from_rec,
    _to_rec,
)

q = RatFun.var(0)
t = RatFun.var(1)
z = RatFun.var(0)
w = RatFun.var(1)


def rand_ratfun(rng, maxexp=3, terms=3):
    def rand_poly():
        return LaurentPoly(
            {
                (rng.randrange(0, maxexp), rng.randrange(0, maxexp)): rng.randrange(-4, 5)
                for _ in range(terms)
            }
        )

    num = rand_poly()
    den = rand_poly()
    while den.is_zero():
        den = rand_poly()
    return RatFun(num, den)


def test_additive_identity():
    x = (q - t) / (q**2 - 1)
    assert x + RatFun.zero() == x


def test_factor_cancellation():
    assert (q**2 - 1) * (q - 1).inverse() == q + 1


def test_evaluation():
    x = ((q**2 - 1) * (q - t)) / ((q - 1) * (1 - t))
    assert x.eval_at(2, 3) == Fraction(3, 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        q / RatFun.zero()
    with pytest.raises(ZeroDivisionError):
        RatFun(LaurentPoly.const(1), LaurentPoly.zero())


def test_division_by_zero_scalar():
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            q / zero
        with pytest.raises(ZeroDivisionError):
            RatFun.zero() / zero


def test_a_scaled_zero_is_canonical():
    # the denominator 1 of a zero takes the scalar's denominator, and the
    # common content must cancel it
    for r in (RatFun.zero() * Fraction(1, 3), RatFun.zero() / 3, RatFun.zero() / Fraction(-2, 5)):
        assert (r.num.terms, r.den.terms) == ({}, {(0, 0): 1})


def test_a_scalar_operand_is_its_const():
    # every operator, reflected forms and equality included, reads an int or
    # a Fraction as its RatFun.const; a zero divisor raises either way
    ops = (
        lambda a, b: a + b,
        lambda a, b: b + a,
        lambda a, b: a - b,
        lambda a, b: b - a,
        lambda a, b: a * b,
        lambda a, b: b * a,
        lambda a, b: a / b,
        lambda a, b: b / a,
    )
    # zero, a polynomial, and a fraction whose denominator has content 2
    for x in (RatFun.zero(), 1 - 2 * q + q * t, (3 + q) / (2 * t**2 + 4 * q)):
        for s in (0, 1, -3, Fraction(2, 3), Fraction(-5, 4)):
            c = RatFun.const(s)
            # the reference runs the full normalisation that const skips
            n, d = Fraction(s).numerator, Fraction(s).denominator
            ref = RatFun(LaurentPoly.const(n), LaurentPoly.const(d))
            assert (c.num.terms, c.den.terms) == (ref.num.terms, ref.den.terms)
            for op in ops:
                try:
                    want = op(x, c)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        op(x, s)
                    continue
                got = op(x, s)
                assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)
            assert (x == s) is (x == c)


def test_laurent_storage():
    x = t / q
    assert x.num.terms == {(0, 1): 1}
    assert x.den.terms == {(1, 0): 1}
    # negative exponents are accepted on input and cleared in normal form
    y = RatFun(LaurentPoly({(-1, 2): 1}), LaurentPoly.const(1))
    assert y == t**2 / q


def test_field_axioms(rng):
    for _ in range(40):
        x, y, u = (rand_ratfun(rng) for _ in range(3))
        assert (x + y) * u == x * u + y * u
        assert (x * y) * u == x * (y * u)
        assert x + y == y + x
        if not x.is_zero():
            assert x * x.inverse() == RatFun.one()


def test_reduction_idempotence(rng):
    for _ in range(20):
        x = rand_ratfun(rng)
        again = RatFun(x.num, x.den)
        assert again.num == x.num and again.den == x.den



def is_clean_int_poly(p: LaurentPoly) -> bool:
    return all(type(c) is int and c != 0 for c in p.terms.values())


def test_arithmetic_results_have_nonzero_int_coefficients(rng):
    # `+`, `*`, `/` and `inverse` keep integer coefficients and drop zeros
    for _ in range(200):
        x = rand_ratfun(rng, terms=rng.randrange(1, 4))
        y = rand_ratfun(rng, terms=rng.randrange(1, 4))
        shared = RatFun(rand_ratfun(rng).num, y.den)
        results = [x + y, x - y, x + shared, y + shared, x * y, x * x, x * Fraction(3, 2)]
        if not y.is_zero():
            results += [x / y, y.inverse(), x / Fraction(-2, 3)]
        for r in results:
            assert is_clean_int_poly(r.num) and is_clean_int_poly(r.den), r

def test_text_and_json_round_trip():
    x = 3 * q**2 * t - q + 7
    triples = x.as_poly().json_terms()
    assert RatFun.from_json(triples) == x
    # canonical serialization is stable
    assert json.dumps(triples) == json.dumps(RatFun.from_json(triples).to_json())


@pytest.mark.parametrize("x", [3 * q**2 * t - q + 7, (q - 2 * t) / (3 * q**2 + t)])
def test_from_json_inverts_to_json(x):
    # both forms: a polynomial as its triples, a fraction as {"num", "den"}
    assert isinstance(x.to_json(), list) == x.is_polynomial()
    assert RatFun.from_json(json.loads(json.dumps(x.to_json()))) == x


def test_grlex_ordering():
    p = (q + t + 1).as_poly()
    assert [tuple(e[:2]) for e in p.json_terms()] == [(0, 0), (1, 0), (0, 1)]


# -- property tests: canonical form and the evaluation homomorphism ---------

polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-6, 6), max_size=5
).map(LaurentPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
ratfuns = st.builds(RatFun, polys, nonzero_polys)
coords = st.fractions(min_value=-3, max_value=3, max_denominator=5)
points = st.tuples(coords, coords)
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@PROPERTY_SETTINGS
@given(polys, nonzero_polys, nonzero_polys)
def test_canonical_form_cancels_common_factors(a, b, c):
    x, y = RatFun(a * c, b * c), RatFun(a, b)
    assert (x.num, x.den) == (y.num, y.den)


shifts = st.builds(
    lambda i, j: LaurentPoly({(i, j): 1}), st.integers(-3, 3), st.integers(-3, 3)
)


@PROPERTY_SETTINGS
@given(polys, nonzero_polys, nonzero_polys, st.integers(1, 12), shifts, shifts)
def test_canonical_form_is_primitive_signed_and_ordinary(a, b, c, k, sa, sb):
    # numerator and denominator share the content k and the factor c, and
    # carry negative exponents; the canonical pair has coprime integer
    # contents, a denominator with a positive grlex leading coefficient and
    # no negative exponent
    x = RatFun(a * c * sa * LaurentPoly.const(k), b * c * sb * LaurentPoly.const(-2 * k))
    assert math.gcd(*x.num.terms.values(), *x.den.terms.values()) == 1
    assert x.den.leading_coeff() > 0
    assert min(x.num.min_exponents() + x.den.min_exponents()) >= 0


@PROPERTY_SETTINGS
@given(ratfuns, ratfuns)
def test_multiply_then_divide_is_identity(x, y):
    assume(not y.is_zero())
    z = (x * y) / y
    assert (z.num, z.den) == (x.num, x.den)


@PROPERTY_SETTINGS
@given(ratfuns, ratfuns, points)
def test_eval_at_is_a_homomorphism(x, y, pt):
    assume(x.den.eval_at(*pt) != 0 and y.den.eval_at(*pt) != 0)
    ex, ey = x.eval_at(*pt), y.eval_at(*pt)
    assert (x + y).eval_at(*pt) == ex + ey
    assert (x * y).eval_at(*pt) == ex * ey
    if ey != 0:
        assert (x / y).eval_at(*pt) == ex / ey


@PROPERTY_SETTINGS
@given(polys, nonzero_polys, nonzero_polys, points)
def test_eval_at_survives_normalization(a, b, c, pt):
    bc = (b * c).eval_at(*pt)
    assume(bc != 0)
    assert RatFun(a * c, b * c).eval_at(*pt) == (a * c).eval_at(*pt) / bc


# -- property tests: the arithmetic that skips re-normalisation --------------
# `*`, `+`, `-`, `inverse` and `/` build their results without `_normalize`,
# and `LaurentPoly.gcd`/`divexact` bypass the kernels for one-term operands.
# Each must agree with the fully normalised fraction and with the kernels.

coeffs = st.integers(-12, 12).filter(bool)
monomials = st.builds(
    lambda a, b, c: LaurentPoly({(a, b): c}), st.integers(0, 3), st.integers(0, 3), coeffs
)
constants = coeffs.map(LaurentPoly.const)
# constant and one-term denominators are as frequent as multi-term ones, as
# they are in the Schur coefficients the series are built from
mixed_dens = st.one_of(constants, monomials, nonzero_polys)
mixed_ratfuns = st.builds(RatFun, st.one_of(constants, monomials, polys), mixed_dens)


def pair(x: RatFun):
    return (x.num, x.den)


def normalised(num, den):
    return pair(RatFun(num, den))


@PROPERTY_SETTINGS
@given(mixed_ratfuns, mixed_ratfuns)
def test_arithmetic_equals_full_normalisation(x, y):
    assert pair(x * y) == normalised(x.num * y.num, x.den * y.den)
    assert pair(x + y) == normalised(x.num * y.den + y.num * x.den, x.den * y.den)
    assert pair(x - y) == normalised(x.num * y.den - y.num * x.den, x.den * y.den)
    if not x.is_zero():
        assert pair(x.inverse()) == normalised(x.den, x.num)
    if not y.is_zero():
        assert pair(x / y) == normalised(x.num * y.den, x.den * y.num)


@PROPERTY_SETTINGS
@given(st.one_of(constants, monomials, polys), st.one_of(constants, monomials, polys), mixed_dens)
def test_sum_over_a_shared_denominator_equals_full_normalisation(a, b, d):
    x, y = RatFun(a, d), RatFun(b, d)
    assert pair(x + y) == normalised(x.num * y.den + y.num * x.den, x.den * y.den)


def test_sums_and_products_cancel_the_shared_factor():
    half = RatFun.const(Fraction(1, 2))
    # the cancelled factor lies in gcd(d1, d2): z, then the content 2
    x = (z * (z + 1)).inverse() + (z * (z - 1)).inverse()
    assert x == 2 / (z**2 - 1)
    assert half + half == RatFun.one()
    assert pair(2 * z * half) == pair(z)
    # the cross gcd of w - z^2 has a negative grlex leading coefficient
    p = RatFun.from_poly(LaurentPoly({(2, 0): 1, (0, 1): -1}))
    assert pair(p * (p * (z + 1)).inverse()) == pair((z + 1).inverse())


@PROPERTY_SETTINGS
@given(st.one_of(monomials, constants), polys)
def test_monomial_gcd_equals_kernel_gcd(m, p):
    # the gcd and both cofactors, in either operand order
    assume(not p.is_zero())
    G = kernels.bgcd(_to_rec(m.terms), _to_rec(p.terms))
    expected = (_from_rec(G), *(_from_rec(q) for q in G.quotients))
    g, qm, qp = m.gcd(p)
    assert (g.terms, qm.terms, qp.terms) == expected
    g, qp, qm = p.gcd(m)
    assert (g.terms, qm.terms, qp.terms) == expected


@PROPERTY_SETTINGS
@given(polys, st.one_of(monomials, constants), st.booleans())
def test_monomial_divexact_equals_kernel_divexact(p, m, exact):
    if exact:
        p = p * m
    try:
        expected = _from_rec(kernels.bdivexact(_to_rec(p.terms), _to_rec(m.terms)))
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            p.divexact(m)
    else:
        assert p.divexact(m).terms == expected


def test_monomial_divexact_raises_on_a_non_exact_quotient():
    p = LaurentPoly({(1, 0): 4, (1, 1): 6})
    assert p.divexact(LaurentPoly({(1, 0): -2})).terms == {(0, 0): -2, (0, 1): -3}
    for m in (
        {(0, 0): 4},  # 6 is not divisible by 4
        {(1, 0): 3},  # 4 is not divisible by 3
        {(0, 1): 2},  # the exponent of w in 4z is below the shift
        {(2, 0): 1},  # the exponent of z is below the shift
    ):
        with pytest.raises(ArithmeticError):
            p.divexact(LaurentPoly(m))
