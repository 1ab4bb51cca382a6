"""Modified Macdonald polynomials and their (q, t) inner product.

``macdonald_H(lam)`` solves the defining linear system over Q(q, t): the
unknown Schur coefficients are constrained by the vanishing, after the
scalar plethysms Z -> (1-q)Z and Z -> (1-t)Z, of every Schur coefficient
whose index does not dominate lam (resp. the dual of lam), plus the
normalization that the coefficient against the one-row Schur function is 1.
Solved families are memoized per degree.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import RatFun
from .linsolve import solve_unique
from .partitions import Partition, dominance_geq, dual, partition_list
from .symfunc import SymFunc1


@lru_cache(maxsize=None)
def _plethysm_tables(n: int):
    """Schur expansions of s_mu[(1-q)Z] and s_mu[(1-t)Z] for |mu| = n."""
    q = RatFun.var(0)
    t = RatFun.var(1)
    one = RatFun.one()
    tq = {}
    tt = {}
    for mu in partition_list(n):
        s = SymFunc1.basis_elem("s", mu)
        tq[mu] = s.scalar_plethysm(one - q).to_basis("s").coeffs
        tt[mu] = s.scalar_plethysm(one - t).to_basis("s").coeffs
    return tq, tt


@lru_cache(maxsize=None)
def macdonald_H(lam: Partition) -> SymFunc1:
    """The Schur expansion of the modified Macdonald polynomial of lam, over
    Q(q, t)."""
    lam = tuple(lam)
    n = sum(lam)
    basis = partition_list(n)
    tq, tt = _plethysm_tables(n)
    lam_d = dual(lam)
    zero = RatFun.zero()

    rows: list[list[RatFun]] = []
    rhs: list[RatFun] = []
    for gamma in basis:
        if not dominance_geq(gamma, lam):
            rows.append([tq[mu].get(gamma, zero) for mu in basis])
            rhs.append(zero)
    for gamma in basis:
        if not dominance_geq(gamma, lam_d):
            rows.append([tt[mu].get(gamma, zero) for mu in basis])
            rhs.append(zero)
    rows.append([RatFun.one() if mu == (n,) or (n == 0 and mu == ()) else zero for mu in basis])
    rhs.append(RatFun.one())

    sol = solve_unique(rows, rhs)
    coeffs = {mu: c for mu, c in zip(basis, sol) if not c.is_zero()}
    return SymFunc1("s", coeffs)


def qt_inner1(f: SymFunc1, g: SymFunc1) -> RatFun:
    """Hall pairing of f against g[(q-1)(1-t)Z]."""
    q = RatFun.var(0, f.vars)
    t = RatFun.var(1, f.vars)
    return f.hall_inner(g.scalar_plethysm((q - 1) * (1 - t)))

