import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wreathmac import kernels
from wreathmac.algebra import (
    QT,
    ZW,
    LaurentPoly,
    RatFun,
    _from_rec,
    _poly_divexact,
    _poly_gcd,
    _to_rec,
    half_specialize,
    poly_from_json,
    substitute_powers,
)

q = RatFun.var(0)
t = RatFun.var(1)
z = RatFun.var(0, ZW)
w = RatFun.var(1, ZW)


def rand_ratfun(rng, vars=QT, maxexp=3, terms=3):
    def rand_poly():
        return LaurentPoly(
            vars,
            {
                (rng.randrange(0, maxexp), rng.randrange(0, maxexp)): rng.randrange(-4, 5)
                for _ in range(terms)
            },
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
        RatFun(LaurentPoly.const(1, QT), LaurentPoly.zero(QT))


def test_division_by_zero_scalar():
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            q / zero
        with pytest.raises(ZeroDivisionError):
            RatFun.zero() / zero


def test_laurent_storage():
    x = t / q
    assert x.num.terms == {(0, 1): 1}
    assert x.den.terms == {(1, 0): 1}
    # negative exponents are accepted on input and cleared in normal form
    y = RatFun(LaurentPoly(QT, {(-1, 2): 1}), LaurentPoly.const(1, QT))
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
    # `+`, `*`, `/` and `inverse` store the dicts they build without the
    # cleaning pass of the public LaurentPoly constructor
    for _ in range(200):
        x = rand_ratfun(rng, ZW, terms=rng.randrange(1, 4))
        y = rand_ratfun(rng, ZW, terms=rng.randrange(1, 4))
        shared = RatFun(rand_ratfun(rng, ZW).num, y.den)
        results = [x + y, x - y, x + shared, y + shared, x * y, x * x, x * Fraction(3, 2)]
        if not y.is_zero():
            results += [x / y, y.inverse(), x / Fraction(-2, 3)]
        for r in results:
            assert is_clean_int_poly(r.num) and is_clean_int_poly(r.den), r
    # the public constructor still cleans: halves sum to an integral Fraction
    half = LaurentPoly.const(Fraction(1, 2), ZW)
    assert (half + half).terms == {(0, 0): 1} and is_clean_int_poly(half + half)

def test_substitute_powers_e_mode():
    # monomial-wise: sqrt(q)^d * p(sqrt(q), 1/sqrt(q))
    assert substitute_powers(z**2 + w**2, "E", 2) == q**2 + 1
    assert substitute_powers(RatFun.one(ZW), "MHP", 0) == RatFun.one()


def test_substitute_powers_parity_errors():
    with pytest.raises(ValueError):
        substitute_powers(z, "E", 2)  # odd total degree
    with pytest.raises(ValueError):
        substitute_powers(z**2, "E", 3)  # odd dimension
    with pytest.raises(ValueError):
        substitute_powers(z**2, "bogus", 2)


def test_mhp_at_minus_one_matches_e(rng):
    for _ in range(20):
        terms = {}
        for _ in range(6):
            a, b = rng.randrange(0, 5), rng.randrange(0, 5)
            if (a + b) % 2:
                b += 1
            terms[(a, b)] = rng.randrange(-5, 6)
        p = RatFun.from_poly(LaurentPoly(ZW, terms))
        d = 2 * rng.randrange(3, 6)
        e = substitute_powers(p, "E", d)
        m = substitute_powers(p, "MHP", d)
        collapsed = {}
        for (a, b), c in m.as_poly().terms.items():
            key = (a, 0)
            collapsed[key] = collapsed.get(key, 0) + (c if b % 2 == 0 else -c)
        assert RatFun.from_poly(LaurentPoly(QT, collapsed)) == e


def test_half_specialize():
    assert half_specialize((z - w) ** 2) == q - 2 + q.inverse()
    assert half_specialize((z * w) ** 2) == RatFun.one()
    assert half_specialize((z**3 - w) * (z - w)) == q**2 - q - 1 + q.inverse()
    # odd/odd parity pairs cancel
    assert half_specialize(z / w) == q
    with pytest.raises(ValueError):
        half_specialize(z + z * w)  # mixed parity


def test_text_and_json_round_trip():
    x = 3 * q**2 * t - q + 7
    triples = x.as_poly().json_terms()
    assert poly_from_json(triples) == x.as_poly()
    # canonical serialization is stable
    assert json.dumps(triples) == json.dumps(poly_from_json(triples).json_terms())


def test_grlex_ordering():
    p = (q + t + 1).as_poly()
    assert [tuple(e[:2]) for e in p.json_terms()] == [(0, 0), (1, 0), (0, 1)]


# -- property tests: canonical form and the evaluation homomorphism ---------

polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-6, 6), max_size=5
).map(lambda terms: LaurentPoly(ZW, terms))
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
# and `_poly_gcd`/`_poly_divexact` bypass the kernels for one-term operands.
# Each must agree with the fully normalised fraction and with the kernels.

coeffs = st.integers(-12, 12).filter(bool)
monomials = st.builds(
    lambda a, b, c: LaurentPoly(ZW, {(a, b): c}), st.integers(0, 3), st.integers(0, 3), coeffs
)
constants = coeffs.map(lambda c: LaurentPoly.const(c, ZW))
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
    half = RatFun.const(Fraction(1, 2), ZW)
    # the cancelled factor lies in gcd(d1, d2): z, then the content 2
    x = (z * (z + 1)).inverse() + (z * (z - 1)).inverse()
    assert x == 2 / (z**2 - 1)
    assert half + half == RatFun.one(ZW)
    assert pair(2 * z * half) == pair(z)
    # the cross gcd of w - z^2 has a negative grlex leading coefficient
    p = RatFun.from_poly(LaurentPoly(ZW, {(2, 0): 1, (0, 1): -1}))
    assert pair(p * (p * (z + 1)).inverse()) == pair((z + 1).inverse())


@PROPERTY_SETTINGS
@given(st.one_of(monomials, constants), polys)
def test_monomial_gcd_equals_kernel_gcd(m, p):
    assume(not p.is_zero())
    expected = _from_rec(kernels.bgcd(_to_rec(m.terms), _to_rec(p.terms)))
    assert _poly_gcd(m, p).terms == expected
    assert _poly_gcd(p, m).terms == expected


@PROPERTY_SETTINGS
@given(polys, st.one_of(monomials, constants), st.booleans())
def test_monomial_divexact_equals_kernel_divexact(p, m, exact):
    if exact:
        p = p * m
    try:
        expected = _from_rec(kernels.bdivexact(_to_rec(p.terms), _to_rec(m.terms)))
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            _poly_divexact(p, m)
    else:
        assert _poly_divexact(p, m).terms == expected


def test_monomial_divexact_raises_on_a_non_exact_quotient():
    p = LaurentPoly(ZW, {(1, 0): 4, (1, 1): 6})
    assert _poly_divexact(p, LaurentPoly(ZW, {(1, 0): -2})).terms == {(0, 0): -2, (0, 1): -3}
    for m in (
        {(0, 0): 4},  # 6 is not divisible by 4
        {(1, 0): 3},  # 4 is not divisible by 3
        {(0, 1): 2},  # the exponent of w in 4z is below the shift
        {(2, 0): 1},  # the exponent of z is below the shift
    ):
        with pytest.raises(ArithmeticError):
            _poly_divexact(p, LaurentPoly(ZW, m))
