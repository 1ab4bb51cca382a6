"""Assembly of the two-variable polynomial attached to a tuple of twisted
class types, the variety dimension, the E-polynomial (two independent
routes), and the conjectural mixed Hodge polynomial with its property
checks.

The two-variable function pairs the product of the two wreath series and
the inverted diagonal series against the product of the complete symmetric
functions dual to the class types; the pairing factorizes over punctures,
so the assembly enumerates index triples whose sizes sum to half the rank.
That series side depends on (g, k, n) only, so it is memoised per
(g, k, n), with every factor held as power-sum numerators over one
denominator that all rows share.  At even rank the two wreath series are
one, so (a, b, s) and (b, a, s) are one row of multiplicity 2.  The rows
are grouped by the denominator of the triple's coefficient; the groups are
ordered by the slope of that denominator (how far it leans to w rather than
z), and neighbours are merged in pairs over their lcm.  The class function
of a class type has constant power-sum coefficients, so its pairing with
every row is an integer dot product of those numerators; the column of
these pairings is memoised per type and reduced once, over one common
denominator.  A class tuple then sums each group as polynomials and
normalises it once; only the groups meet in ``RatFun`` addition, pairwise
in a balanced tree.

The E-polynomial and the mixed Hodge polynomial are two readings of the
two-variable polynomial H(z, w), as in Hausel, Letellier and
Rodriguez-Villegas (Duke Math. J. 160, 2011): E(q) = q^(d/2) H(sqrt(q),
1/sqrt(q)) and MHP(q, t) = (t sqrt(q))^d H(-t sqrt(q), 1/sqrt(q)).  Each
is an exponent map of the monomials z^a w^b, so for every polynomial H
and even d the MHP at t = -1 is the E-polynomial by construction: the
``t_minus_one_is_e`` check compares it with the E-polynomial passed in
(that of ``e_polynomial``), so it tests the two readings, not the conjecture.
Property-check failures are recorded in the result, never raised.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .algebra import QT, ZW, LaurentPoly, RatFun, common_denominator
from .classtypes import SimpleType, h_of_type
from .partitions import QT_AT_ZW, SWAP_VARS
from .series import (
    SeriesTerm,
    invert_series,
    one_param_star_terms,
    one_param_wreath_terms,
    star_series_terms,
    wreath_series_terms,
)
from .symfunc import class_z


class ProblemSpec(namedtuple("ProblemSpec", "g k n classes")):
    """Genus, puncture-pair count, rank, and the 2k twisted class types (a
    tuple of ``SimpleType``)."""

    __slots__ = ()

    def __new__(cls, g: int, k: int, n: int, classes: tuple[SimpleType, ...]):
        if g < 0 or k < 1 or n < 1:
            raise ValueError("need g >= 0, k >= 1, n >= 1")
        if len(classes) != 2 * k:
            raise ValueError(f"expected {2 * k} classes, got {len(classes)}")
        for beta in classes:
            if beta.size != n // 2:
                raise ValueError(f"class {beta} has size {beta.size}, expected {n // 2}")
        return super().__new__(cls, g, k, n, classes)

    @property
    def ccl_ok(self) -> bool:
        """No eigenvalue of multiplicity type m_minus (no fourth roots of 1
        beyond +-1 among the eigenvalues)."""
        return all(beta.m_minus == 0 for beta in self.classes)


class HodgeResult(namedtuple("HodgeResult", "spec zw d checks warnings")):
    # spec: ProblemSpec
    # zw: RatFun, the two-variable rational function (conjecturally polynomial)
    # d: the variety dimension
    # checks: dict of property checks by name; warnings: list of strings
    __slots__ = ()


def centralizer_dim(n: int, beta: SimpleType) -> int:
    """Dimension of the centralizer of a semisimple twisted element of the
    given type: symplectic/orthogonal blocks for the special eigenvalues and
    one general linear block per generic eigenvalue."""
    mp, mm = beta.m_plus, beta.m_minus
    gl = sum(m * m for m in beta.star)
    if n % 2:
        # odd rank: O(2 mp + 1) x Sp(2 mm) x prod GL(m_i)
        return mp * (2 * mp + 1) + mm * (2 * mm + 1) + gl
    # even rank: Sp(2 mp) x O(2 mm) x prod GL(m_i)
    return mp * (2 * mp + 1) + mm * (2 * mm - 1) + gl


def dimension(spec: ProblemSpec) -> int:
    n = spec.n
    return (2 * spec.g - 2) * n * n + sum(
        n * n - centralizer_dim(n, beta) for beta in spec.classes
    )


@lru_cache(maxsize=None)
def _pairing_rows(route: tuple[str, str], g: int, k: int, n: int) -> tuple:
    """The series side of the pairing, which depends on (g, k, n) only: for
    every index triple with a nonzero coefficient, the product of the three
    coefficients and the product of the three factors, in power sums.  The
    factors share one denominator ``E`` over (q, t), so a row holds its
    factor as the power-sum numerators ``{mu: numerator}`` over ``E``.  The
    rows are grouped by the lcm ``d`` of their coefficients' denominators,
    each coefficient held as its numerator over ``d``, as
    ``(E, ((d, ((numerator, factor numerators), ...)), ...))``.  Route ZW
    pairs the two-variable series, route QT the one-parameter series."""
    if route == ZW:
        wreath_terms, star_terms = wreath_series_terms, star_series_terms
    else:
        wreath_terms, star_terms = one_param_wreath_terms, one_param_star_terms
    N = n // 2
    if n % 2:
        first = wreath_terms(1, g, k, N)
        second = wreath_terms(0, g, k, N)
    else:
        first = second = wreath_terms(0, g, k, N)
    inverted = invert_series(star_terms(g, k, N), N)
    rows = []
    # at even rank both wreath series are one list, and (a, b, s) and
    # (b, a, s) give one row: it is built once, with multiplicity 2
    position = {} if n % 2 else {id(a): i for i, a in enumerate(first)}
    for a, b, s in _triples(first, second, inverted, N):
        i, j = position.get(id(a), 0), position.get(id(b), 0)
        if i > j:
            continue
        coeff = a.coeff * b.coeff * s.coeff
        if i < j:
            coeff = coeff * 2
        if not coeff.is_zero():
            rows.append((coeff, (a.factor * b.factor * s.factor).coeffs))
    nums, E = common_denominator([c for _, phi in rows for c in phi.values()])
    nums = iter(nums)
    groups: dict[LaurentPoly, list] = {}
    for coeff, phi in rows:
        groups.setdefault(coeff.den, []).append((coeff.num, {mu: next(nums) for mu in phi}))
    # the groups in slope order, by how far the denominator leans to its
    # second variable, then by total degree: denominators that lean alike
    # share most of their one-variable cyclotomic factors, so neighbours
    # merge in pairs over a small lcm, each row's numerator times its
    # cofactor, and their sums cancel early in the balanced tree of
    # ``_pair_against_classes``
    def slope(d):
        a, b = d.max_exponents()
        return b - a, max(x + y for x, y in d.terms)

    order = sorted(groups, key=slope)
    one = LaurentPoly.const(1)
    merged = []
    for j in range(0, len(order), 2):
        pair = order[j : j + 2]
        if len(pair) == 1:  # an odd last group stays as it is
            merged.append((pair[0], tuple(groups[pair[0]])))
            continue
        d1, d2 = pair
        _, c1, c2 = d1.gcd(d2)
        joined = tuple(
            (num if c == one else num * c, phi)
            for d, c in ((d1, c2), (d2, c1))
            for num, phi in groups[d]
        )
        merged.append((d1 * c2, joined))
    return E, tuple(merged)


@lru_cache(maxsize=None)
def _class_weights(beta: SimpleType) -> dict:
    """``{mu: h_mu * z_mu}``: the power-sum coefficients h_mu of the
    complete function dual to the class type, weighted by ``class_z``.  Each
    weight is <h, p_mu>, a permutation-character value, so an integer.  The
    Hall pairing of a factor ``{mu: N_mu} / E`` against it is
    ``sum_mu N_mu * weight_mu / E``."""
    weights = {}
    for mu, c in h_of_type(beta).coeffs.items():
        w = c.constant_value() * class_z(mu)
        if w.denominator != 1:
            raise AssertionError("non-integral class weight")
        weights[mu] = w.numerator
    return weights


@lru_cache(maxsize=None)
def _class_column(route: tuple[str, str], g: int, k: int, n: int, beta: SimpleType) -> tuple:
    """Hall pairing of every row of ``_pairing_rows`` (in the order of its
    groups) against the complete function dual to the class type, as
    ``(numerators, lcm)``: the values are ``numerator / lcm`` over the lcm
    of their reduced denominators.  Each pairing is an integer linear form
    in the row's power-sum numerators over the shared ``E``; that one
    denominator is reduced once, by the gcd of it and every numerator.  The
    pairings are taken over (q, t); route ZW then reads the numerators and
    the lcm at q = z^2, t = w^2."""
    E, groups = _pairing_rows(route, g, k, n)
    weights = _class_weights(beta)
    nums = []
    for _, rows in groups:
        for _, phi in rows:
            total = LaurentPoly.zero()
            for mu, v in phi.items():
                w = weights.get(mu)
                if w is not None:
                    total = total + v * w
            nums.append(total)
    one = LaurentPoly.const(1)
    den = common = E
    for v in nums:
        if common == one:
            break
        if not v.is_zero():
            common = common.gcd(v)[0]
    if common != one:
        nums = [v.divexact(common) for v in nums]
        den = den.divexact(common)
    if route == ZW:
        nums = [v.monomial_map(QT_AT_ZW) for v in nums]
        den = den.monomial_map(QT_AT_ZW)
    return tuple(nums), den


def _pair_against_classes(spec: ProblemSpec, route: tuple[str, str]) -> RatFun:
    """Sum over index triples of coeff times the product over punctures of
    the Hall pairing of the triple's factor against each class function.

    The rows of a group, whose coefficients ``_pairing_rows`` holds over
    one denominator ``d`` (the lcm of two coefficient denominators of like
    slope), are summed as polynomials over ``d`` times the product of the
    class lcms, so each group is normalised once and only the groups meet
    in ``RatFun`` ``+``, pairwise in a balanced tree in slope order:
    neighbours share most factors of their denominators, so each sum has a
    small lcm and cancels early."""
    g, k, n = spec.g, spec.k, spec.n
    (first, den), *rest = [_class_column(route, g, k, n, beta) for beta in spec.classes]
    for _, column_den in rest:
        den = den * column_den
    _, groups = _pairing_rows(route, g, k, n)
    parts = []
    i = 0
    for d, rows in groups:
        group = LaurentPoly.zero()
        for num, _ in rows:
            # the class numerators first: they are small, and the series
            # numerator joins the product once
            value = first[i]
            for column, _ in rest:
                if value.is_zero():
                    break
                value = value * column[i]
            i += 1
            if not value.is_zero():
                group = group + value * num
        if not group.is_zero():
            parts.append(RatFun(group, d * den))
    while len(parts) > 1:  # neighbours in pairs; an odd last one rises alone
        parts = [sum(parts[j + 1 : j + 2], parts[j]) for j in range(0, len(parts), 2)]
    return parts[0] if parts else RatFun.zero()


def _triples(first, second, inverted, target: int):
    by_size: list[dict[int, list[SeriesTerm]]] = [{}, {}, {}]
    for terms, groups in zip((first, second, inverted), by_size):
        for t in terms:
            groups.setdefault(t.size, []).append(t)
    by_size_a, by_size_b, by_size_s = by_size
    for sa in range(target + 1):
        for sb in range(target + 1 - sa):
            ss = target - sa - sb
            for a in by_size_a.get(sa, ()):
                for b in by_size_b.get(sb, ()):
                    for s in by_size_s.get(ss, ()):
                        yield a, b, s


# the checks of ``compute_hodge`` that the polynomiality conjecture asserts
CHECK_KEYS = (
    "is_polynomial",
    "degree_le_d",
    "even_total_degree",
    "neg_z_nonnegative",
    "zw_symmetric",
)


def compute_hodge(spec: ProblemSpec) -> HodgeResult:
    """The two-variable rational function of the class data, with the
    polynomiality / degree / parity / positivity / symmetry checks."""
    warnings = []
    if not spec.ccl_ok:
        warnings.append(
            "classes with m_minus > 0: the formula's hypotheses fail and the "
            "polynomiality conjecture is not asserted for this input"
        )
    zw = _pair_against_classes(spec, ZW)
    d = dimension(spec)

    checks: dict[str, object] = {"d": d}
    checks["is_polynomial"] = zw.is_polynomial()
    if checks["is_polynomial"]:
        poly = zw.as_poly()
        max_z, max_w = poly.max_exponents()
        checks["degree_z"] = max_z
        checks["degree_w"] = max_w
        checks["degree_le_d"] = max_z <= d and max_w <= d
        checks["degree_eq_d"] = max_z == d and max_w == d
        checks["even_total_degree"] = all((a + b) % 2 == 0 for a, b in poly.terms)
        checks["neg_z_nonnegative"] = all(
            (c if a % 2 == 0 else -c) > 0 for (a, b), c in poly.terms.items()
        )
        checks["zw_symmetric"] = poly.monomial_map(SWAP_VARS) == poly
    return HodgeResult(spec, zw, d, checks, warnings)


def _read(zw: RatFun, d: int, term) -> RatFun:
    """zw, a polynomial over (z, w), read over (q, t) with each z^a w^b sent
    to ``term(a, b)`` as by ``LaurentPoly.remap``; the readings take q to
    the power (d + a - b) / 2, so d and every total degree a + b must be even."""
    if d % 2:
        raise ValueError(f"odd dimension d={d}")
    poly = zw.as_poly(ZW)
    for a, b in poly.terms:
        if (a + b) % 2:
            raise ValueError(f"monomial z^{a} w^{b} has odd total degree")
    return RatFun.from_poly(poly.remap(term))


def e_reading(zw: RatFun, d: int) -> RatFun:
    """E(q) = q^(d/2) zw(sqrt(q), 1/sqrt(q)): z^a w^b goes to q^((d+a-b)/2)."""
    return _read(zw, d, lambda a, b: (((d + a - b) // 2, 0), 1))


def mhp_reading(zw: RatFun, d: int) -> RatFun:
    """MHP(q, t) = (t sqrt(q))^d zw(-t sqrt(q), 1/sqrt(q)): z^a w^b goes to
    (-1)^a q^((d+a-b)/2) t^(d+a)."""
    return _read(zw, d, lambda a, b: (((d + a - b) // 2, d + a), -1 if a % 2 else 1))


def e_polynomial(result: HodgeResult) -> tuple[RatFun, dict]:
    """E-polynomial by both routes: substitution into the two-variable
    polynomial, and the one-parameter hook series; they must agree exactly."""
    d = result.d
    route_a = e_reading(result.zw, d)
    route_b = RatFun.monomial((d // 2, 0)) * _pair_against_classes(result.spec, QT)

    if route_a != route_b:
        raise ArithmeticError(
            "E-polynomial routes disagree: "
            f"substitution gives {route_a.text()}, series gives {route_b.text()}"
        )
    checks = {
        "routes_agree": True,
        "palindromic": route_a.monomial_map((-1, 0, 0, 1))
        * RatFun.monomial((d, 0))
        == route_a,
    }
    if route_a.is_polynomial():
        terms = route_a.as_poly().sorted_terms()
        checks["e_leading"] = str(terms[-1][1]) if terms else "0"
    return route_a, checks


def mixed_hodge(result: HodgeResult, e_poly: RatFun) -> tuple[RatFun, dict]:
    """Conjectural mixed Hodge polynomial, its E-specialization consistency
    with ``e_poly``, the E-polynomial that ``e_polynomial`` returned for the
    same result, and the curious Poincare duality check."""
    d = result.d
    mhp = mhp_reading(result.zw, d)
    at_tm1 = _set_t_minus_one(mhp)
    duality = mhp.monomial_map((-1, -2, 0, 1)) * RatFun.monomial((d, d)) == mhp
    return mhp, {"t_minus_one_is_e": at_tm1 == e_poly, "curious_duality": duality}


# every check whose falsity falsifies the conjecture: those of
# ``compute_hodge``, then those of ``e_polynomial`` and ``mixed_hodge``
CONJECTURE_KEYS = CHECK_KEYS + ("palindromic", "t_minus_one_is_e", "curious_duality")


def _set_t_minus_one(r: RatFun) -> RatFun:
    poly = r.as_poly().remap(lambda a, b: ((a, 0), -1 if b % 2 else 1))
    return RatFun.from_poly(poly)
