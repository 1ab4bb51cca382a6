"""Modified Macdonald polynomials, their (q, t) inner product, and the
triangular solve shared with the wreath family.

``macdonald_H(lam)`` solves the defining linear system over Q(q, t): the
unknown Schur coefficients are constrained by the vanishing, after the
scalar plethysms Z -> (1-q)Z and Z -> (1-t)Z, of every Schur coefficient
whose index does not dominate lam (resp. the dual of lam), plus the
normalization that the coefficient against the one-row Schur function is 1.
Solved families are memoized per degree.  ``triangular_family`` builds and
solves such a system for any basis, pair of image tables and pair of
orders; ``wreath.wreath_H`` solves the wreath family through it too.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import RatFun
from .linsolve import solve_unique
from .partitions import Partition, dominance_geq, dual, partition_list
from .symfunc import SymFunc1


def triangular_family(basis, tables, above, above_dual, top) -> dict:
    """The nonzero coefficients over ``basis`` of the function whose q-image
    has Schur support only on indices where ``above`` holds, whose t-image
    only where ``above_dual`` holds, and whose coefficient at ``top`` is 1.

    ``tables`` is the pair (q-images, t-images) of the basis elements, each
    a map from index to its image's Schur coefficients."""
    zero = RatFun.zero()
    rows = [
        [table[b].get(gamma, zero) for b in basis]
        for table, holds in zip(tables, (above, above_dual))
        for gamma in basis
        if not holds(gamma)
    ]
    rows.append([RatFun.one() if b == top else zero for b in basis])
    rhs = [zero] * (len(rows) - 1) + [RatFun.one()]
    sol = solve_unique(rows, rhs)
    return {b: c for b, c in zip(basis, sol) if not c.is_zero()}


@lru_cache(maxsize=None)
def _plethysm_tables(n: int):
    """Schur expansions of s_mu[(1-q)Z] and s_mu[(1-t)Z] for |mu| = n."""
    return tuple(
        {
            mu: SymFunc1.basis_elem("s", mu).scalar_plethysm(c).to_basis("s").coeffs
            for mu in partition_list(n)
        }
        for c in (RatFun.one() - RatFun.var(0), RatFun.one() - RatFun.var(1))
    )


@lru_cache(maxsize=None)
def macdonald_H(lam: Partition) -> SymFunc1:
    """The Schur expansion of the modified Macdonald polynomial of lam, over
    Q(q, t)."""
    lam = tuple(lam)
    n = sum(lam)
    lam_d = dual(lam)
    coeffs = triangular_family(
        partition_list(n),
        _plethysm_tables(n),
        lambda gamma: dominance_geq(gamma, lam),
        lambda gamma: dominance_geq(gamma, lam_d),
        (n,) if n else (),
    )
    return SymFunc1("s", coeffs)


def qt_inner1(f: SymFunc1, g: SymFunc1) -> RatFun:
    """Hall pairing of f against g[(q-1)(1-t)Z]."""
    q = RatFun.var(0)
    t = RatFun.var(1)
    return f.hall_inner(g.scalar_plethysm((q - 1) * (1 - t)))
