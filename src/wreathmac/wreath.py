"""Wreath Macdonald polynomials for the rank-2 wreath product at a fixed
2-core, their (q, t) inner product, and the total / cotangent / nabla
decomposition of the self-pairings.

For a fixed core e in {0, 1}, the family indexed by 2-partitions of N is
determined by two triangularity conditions (after alphabet substitution by
[[1,-q],[-q,1]] the Schur support lies above the label; after [[1,-t],[-t,1]]
above the dual label, in the order transported through the 2-core) and the
normalization against the one-row Schur function.  The solver constrains
exactly the non-dominating indices (the order is partial) and fails loudly
unless the solution is unique.

Total self-pairings are computed from the inner product, never from a
closed formula; the nabla factor is recorded as the exact quotient by the
even-hook cotangent product and kept as a rational function.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .algebra import RatFun
from .macdonald import triangular_family
from .partitions import (
    PAIRING_QT,
    BiPartition,
    bipartition_list,
    brace,
    dual2,
    hook_product,
    induced_dominance_geq,
    size2,
)
from .symfunc import SymFunc2


class PairingData(namedtuple("PairingData", "total cot_at_one nabla")):
    # total: <H, H> under the (q, t) inner product
    # cot_at_one: even-hook product at u = 1
    # nabla: total / cot_at_one, exact quotient
    __slots__ = ()


def _subst_matrix(v: RatFun) -> list[list[RatFun]]:
    one = RatFun.one()
    return [[one, -v], [-v, one]]


def qt_inner2(f: SymFunc2, g: SymFunc2) -> RatFun:
    """Hall pairing of f against g twisted by [[0,-1],[-1,0]] [[1,-q],[-q,1]]
    [[1,-t],[-t,1]]; symmetric in f and g."""
    q = RatFun.var(0)
    t = RatFun.var(1)
    one = RatFun.one()
    # product of the three substitution matrices
    m = [[q + t, -(one + q * t)], [-(one + q * t), q + t]]
    return f.hall_inner(g.alphabet_substitute(m))


@lru_cache(maxsize=None)
def _triangularity_tables(n: int):
    """Schur expansions of s_beta([[1,-q],[-q,1]] X) and the t-twin."""
    return tuple(
        {
            bp: SymFunc2.basis_elem("s2", bp).alphabet_substitute(m).to_basis("s2").coeffs
            for bp in bipartition_list(n)
        }
        for m in (_subst_matrix(RatFun.var(0)), _subst_matrix(RatFun.var(1)))
    )


@lru_cache(maxsize=None)
def wreath_H(alpha: BiPartition, core: int) -> SymFunc2:
    """The Schur expansion of the wreath Macdonald polynomial of alpha at the
    given 2-core, over Q(q, t)."""
    alpha = (tuple(alpha[0]), tuple(alpha[1]))
    if core not in (0, 1):
        raise ValueError("core must be 0 or 1")
    n = size2(alpha)
    alpha_d = dual2(alpha)
    coeffs = triangular_family(
        bipartition_list(n),
        _triangularity_tables(n),
        lambda gamma: induced_dominance_geq(gamma, alpha, core),
        lambda gamma: induced_dominance_geq(gamma, alpha_d, core),
        ((n,) if n else (), ()),
    )
    return SymFunc2("s2", coeffs)


@lru_cache(maxsize=None)
def wreath_N(alpha: BiPartition, core: int) -> PairingData:
    alpha = (tuple(alpha[0]), tuple(alpha[1]))
    H = wreath_H(alpha, core)
    total = qt_inner2(H, H)
    cot1 = hook_product(brace(alpha, core), PAIRING_QT, even_only=True)
    return PairingData(total, cot1, total / cot1)
