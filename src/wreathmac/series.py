"""Truncated generating series whose pairing against class data produces the
two-variable polynomial and the one-parameter point-count series.

Every term carries an index, a scalar coefficient, and the symmetric
function inserted identically into each puncture alphabet.  Every factor
is held in power sums, with its coefficients over (q, t).  A two-parameter
term's coefficient lives over (z, w): it substitutes u = z*w, q = z^2,
t = w^2 into the (deformed) self-pairings; its factor is the (wreath)
Macdonald polynomial, and the pairing against the classes reads q = z^2,
t = w^2 afterwards.  The one-parameter terms over q read the self-pairings
at u = 1, t = 1/q, where they are hook polynomials, and their factor is the
principal specialisation s_a[PX] (``principal_schur``).

Term generation is independent per index; lists are ordered by index.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations_with_replacement
from math import factorial

from .algebra import RatFun
from .macdonald import macdonald_H
from .partitions import (
    DEFORMED_ZW,
    PAIRING_QT,
    PAIRING_T_INV_Q,
    QT_AT_ZW,
    bipartition_list,
    brace,
    hook_product,
)
from .symfunc import SymFunc1, SymFunc2, on_merged_alphabet, schur_indices
from .wreath import wreath_H, wreath_N


class SeriesTerm(namedtuple("SeriesTerm", "index size coeff factor")):
    # index: an index or a multiset of indices
    # size: the degree of the term
    # coeff: RatFun
    # factor: SymFunc2 in the power basis over (q, t), the same for every puncture
    __slots__ = ()


# ---------------------------------------------------------------------------
# two-parameter series


def wreath_series_terms(core: int, g: int, k: int, maxdeg: int) -> list[SeriesTerm]:
    """Terms indexed by 2-partitions: coefficient
    N_{brace}(zw, z^2, w^2)^(g+k-1) / (Ntilde(z^2, w^2) *
    Ntilde(zw, z^2, w^2)^(k-1)), factor the wreath Macdonald polynomial of
    the given core."""
    out = []
    for n in range(maxdeg + 1):
        for bp in bipartition_list(n):
            lam = brace(bp, core)
            hp = hook_product(lam, DEFORMED_ZW)
            total = wreath_N(bp, core)
            coeff = hp**g / total.monomial_map(QT_AT_ZW)
            if k > 1:
                # Ntilde(zw, z^2, w^2) = nabla * cot is the pairing with its
                # cotangent factor cot deformed; cot is the even-hook part
                # of hp, so the cot^(k-1) above and below cancel, and each
                # of the k - 1 factors is odd / nabla, odd = hp / cot
                nabla = total / hook_product(lam, PAIRING_QT, even_only=True)
                odd = hp / hook_product(lam, DEFORMED_ZW, even_only=True)
                coeff = coeff * (odd / nabla.monomial_map(QT_AT_ZW)) ** (k - 1)
            out.append(SeriesTerm(bp, n, coeff, wreath_H(bp, core).to_basis(SymFunc2.POWER)))
    return out


def star_series_terms(g: int, k: int, maxdeg: int) -> list[SeriesTerm]:
    """Terms indexed by the one-alphabet indices (lam,): coefficient
    N(zw, z^2, w^2)^(2g+k-1) / N(z^2, w^2), factor the Macdonald polynomial
    on the merged alphabet x0 + x1."""
    out = []
    for n in range(maxdeg + 1):
        for index in schur_indices(1, n):
            (lam,) = index
            num = hook_product(lam, DEFORMED_ZW) ** (2 * g + k - 1)
            coeff = num / hook_product(lam, PAIRING_QT).monomial_map(QT_AT_ZW)
            out.append(SeriesTerm(index, n, coeff, on_merged_alphabet(macdonald_H(index))))
    return out


def invert_series(terms: list[SeriesTerm], maxdeg: int) -> list[SeriesTerm]:
    """Formal inverse 1 / (1 + higher terms) of a series
    whose empty-index coefficient is 1, as multiset-indexed terms.

    A multiset S contributes (-1)^len(S) * len(S)!/prod(mult!) * prod coeff
    with factor the product of the members' factors; the weight equals the
    quotient K/N of the statistics of the corresponding type.
    """
    nonempty = [t for t in terms if 0 < t.size <= maxdeg]
    out = [SeriesTerm((), 0, RatFun.one(), SymFunc2.one())]
    for ell in range(1, maxdeg + 1):
        for chosen in combinations_with_replacement(nonempty, ell):
            size = sum(t.size for t in chosen)
            if size > maxdeg:
                continue
            coeff = RatFun.const((-1) ** ell * factorial(ell))
            factor = SymFunc2.one()
            for t in chosen:
                coeff = coeff * t.coeff
                factor = factor * t.factor
            for m in Counter(t.index for t in chosen).values():
                coeff = coeff / factorial(m)
            out.append(SeriesTerm(tuple(t.index for t in chosen), size, coeff, factor))
    return out


# ---------------------------------------------------------------------------
# one-parameter series


def principal_schur(cls, b):
    """s_b[PX] in the power basis of ``cls``: P = (I - qK)^(-1) scales p^+_r
    by 1/(1 - q^r) and p^-_r by 1/(1 + q^r) (one alphabet has p^+ alone),
    the inverses of the channels of ``macdonald._image_tables``."""
    q = RatFun.var(0)
    P = ((1 - q).inverse(), (1 + q).inverse())[: cls.ALPHABETS]
    return cls.basis_elem(cls.SCHUR, b).alphabet_substitute(*P)


def one_param_wreath_terms(core: int, g: int, k: int, maxdeg: int) -> list[SeriesTerm]:
    """q-series terms: coefficient q^(k|a|) N_brace(q, 1/q)^(g+k-1), where
    N_brace(q, 1/q) = q^(-2n(brace)-|brace|) prod (1 - q^hook)^2; factor
    s_a[PX]."""
    q = RatFun.var(0)
    out = []
    for n in range(maxdeg + 1):
        for bp in bipartition_list(n):
            coeff = q ** (k * n) * hook_product(brace(bp, core), PAIRING_T_INV_Q) ** (g + k - 1)
            out.append(SeriesTerm(bp, n, coeff, principal_schur(SymFunc2, bp)))
    return out


def one_param_star_terms(g: int, k: int, maxdeg: int) -> list[SeriesTerm]:
    """q-series terms indexed by the one-alphabet indices (a,): coefficient
    q^(k|a|) N_a(q, 1/q)^(2g+2k-2); factor s_a[(x0+x1)/(1-q)], s_a[PX] on
    the merged alphabet."""
    q = RatFun.var(0)
    out = []
    for n in range(maxdeg + 1):
        for index in schur_indices(1, n):
            (lam,) = index
            coeff = q ** (k * n) * hook_product(lam, PAIRING_T_INV_Q) ** (2 * g + 2 * k - 2)
            factor = on_merged_alphabet(principal_schur(SymFunc1, index))
            out.append(SeriesTerm(index, n, coeff, factor))
    return out
