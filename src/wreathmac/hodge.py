"""Assembly of the two-variable polynomial attached to a tuple of twisted
class types, the variety dimension, the E-polynomial (two independent
routes), and the conjectural mixed Hodge polynomial with its property
checks.

The two-variable function pairs the product of the two wreath series and
the inverted diagonal series against the product of the complete symmetric
functions dual to the class types; the pairing factorizes over punctures,
so the assembly enumerates index triples whose sizes sum to half the rank.
That series side depends on (g, k, n) only, so it is memoised per
(g, k, n), and so is its pairing against the class function of each class
type: further class tuples at the same (g, k, n) only multiply and add
memoised values.
Property-check failures are recorded in the result, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import QT, ZW, LaurentPoly, RatFun, substitute_powers
from .classtypes import SimpleType, h_of_type, simple_dual
from .series import (
    SeriesTerm,
    invert_series,
    one_param_star_terms,
    one_param_wreath_terms,
    star_series_terms,
    wreath_series_terms,
)


@dataclass(frozen=True)
class ProblemSpec:
    """Genus, puncture-pair count, rank, and the 2k twisted class types."""

    g: int
    k: int
    n: int
    classes: tuple[SimpleType, ...]

    def __post_init__(self):
        if self.g < 0 or self.k < 1 or self.n < 1:
            raise ValueError("need g >= 0, k >= 1, n >= 1")
        if len(self.classes) != 2 * self.k:
            raise ValueError(
                f"expected {2 * self.k} classes, got {len(self.classes)}"
            )
        for beta in self.classes:
            if beta.size != self.half_rank:
                raise ValueError(
                    f"class {beta} has size {beta.size}, expected {self.half_rank}"
                )

    @property
    def half_rank(self) -> int:
        return self.n // 2

    @property
    def ccl_ok(self) -> bool:
        """No eigenvalue of multiplicity type m_minus (no fourth roots of 1
        beyond +-1 among the eigenvalues)."""
        return all(beta.m_minus == 0 for beta in self.classes)


@dataclass
class HodgeResult:
    spec: ProblemSpec
    zw: RatFun  # the two-variable rational function (conjecturally polynomial)
    d: int
    checks: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


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
    coefficients and the Schur expansion of the product of the three
    factors.  Route ZW pairs the two-variable series, route QT the
    one-parameter series."""
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
    for a, b, s in _triples(first, second, inverted, N):
        coeff = a.coeff * b.coeff * s.coeff
        if not coeff.is_zero():
            rows.append((coeff, (a.factor * b.factor * s.factor).to_basis("s2")))
    return tuple(rows)


@lru_cache(maxsize=None)
def _class_column(route: tuple[str, str], g: int, k: int, n: int, beta: SimpleType) -> tuple:
    """Hall pairing of every row of ``_pairing_rows`` against the complete
    function dual to the class type."""
    h = h_of_type(simple_dual(beta), route)
    return tuple(phi.hall_inner(h) for _, phi in _pairing_rows(route, g, k, n))


def _pair_against_classes(spec: ProblemSpec, route: tuple[str, str]) -> RatFun:
    """Sum over index triples of coeff times the product over punctures of
    the Hall pairing of the triple's factor against each class function."""
    rows = _pairing_rows(route, spec.g, spec.k, spec.n)
    first, *rest = [_class_column(route, spec.g, spec.k, spec.n, beta) for beta in spec.classes]
    total = RatFun.zero(route)
    for i, (coeff, _) in enumerate(rows):
        # the class values first: their denominators are small (on route ZW
        # at most monomials, whose gcds skip the kernels), and the series
        # coefficient with its large denominator joins the product once
        value = first[i]
        for column in rest:
            if value.is_zero():
                break
            value = value * column[i]
        if not value.is_zero():
            total = total + value * coeff
    return total


def _triples(first, second, inverted, target: int):
    by_size_a: dict[int, list[SeriesTerm]] = {}
    for t in first:
        by_size_a.setdefault(t.size, []).append(t)
    by_size_b: dict[int, list[SeriesTerm]] = {}
    for t in second:
        by_size_b.setdefault(t.size, []).append(t)
    by_size_s: dict[int, list[SeriesTerm]] = {}
    for t in inverted:
        by_size_s.setdefault(t.size, []).append(t)
    for sa in range(target + 1):
        for sb in range(target + 1 - sa):
            ss = target - sa - sb
            for a in by_size_a.get(sa, ()):
                for b in by_size_b.get(sb, ()):
                    for s in by_size_s.get(ss, ()):
                        yield a, b, s


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
        checks["zw_symmetric"] = poly.monomial_map((0, 1, 1, 0)) == poly
    return HodgeResult(spec, zw, d, checks, warnings)


def e_polynomial(spec: ProblemSpec, result: HodgeResult | None = None) -> tuple[RatFun, dict]:
    """E-polynomial by both routes: substitution into the two-variable
    polynomial, and the one-parameter hook series; they must agree exactly."""
    if result is None:
        result = compute_hodge(spec)
    d = result.d
    route_a = substitute_powers(result.zw, "E", d)
    route_b = RatFun.monomial((d // 2, 0)) * _pair_against_classes(spec, QT)

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


def mixed_hodge(spec: ProblemSpec, result: HodgeResult | None = None) -> tuple[RatFun, dict]:
    """Conjectural mixed Hodge polynomial, its E-specialization consistency,
    and the curious Poincare duality check."""
    if result is None:
        result = compute_hodge(spec)
    d = result.d
    mhp = substitute_powers(result.zw, "MHP", d)
    # route A of the E-polynomial; ``e_polynomial`` checks it against route B
    e_at = substitute_powers(result.zw, "E", d)
    at_tm1 = _set_t_minus_one(mhp)
    duality = mhp.monomial_map((-1, -2, 0, 1)) * RatFun.monomial((d, d)) == mhp
    return mhp, {"t_minus_one_is_e": at_tm1 == e_at, "curious_duality": duality}


def _set_t_minus_one(r: RatFun) -> RatFun:
    poly = r.as_poly()
    out: dict[tuple[int, int], object] = {}
    for (a, b), c in poly.terms.items():
        key = (a, 0)
        v = out.get(key, 0) + (c if b % 2 == 0 else -c)
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return RatFun.from_poly(LaurentPoly(QT, out))
