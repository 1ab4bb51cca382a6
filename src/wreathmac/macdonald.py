"""Modified Macdonald polynomials, the (q, t) inner product, and the
triangular solve shared with the wreath family.

Both families are wreath Macdonald polynomials in Haiman's sense: the
modified ones in one alphabet, the wreath ones for (Z/2)^N x S_N in two.
With K the exchange of the alphabets, which fixes the power sums p^+_r and
negates p^-_r (one alphabet has p^+ alone), the member of label b is fixed
by the triangularity of its images under X -> (I - qK)X and X -> (I - tK)X,
the scalings by 1 - q^r, 1 + q^r and by 1 - t^r, 1 + t^r: every Schur
coefficient of the q-image at an index that is not above b, and of the
t-image at an index not above the dual of b, vanishes, in an order the
family chooses; and its coefficient at the one-row Schur function is 1.
``triangular_family`` builds and solves that system over Q(q, t), and
``qt_inner`` pairs two functions of either family through the twist
(q + t)I - (1 + qt)K = -K(I - qK)(I - tK).  ``macdonald_H`` solves the
one-alphabet family, memoized per label; ``wreath.wreath_H`` the other.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import RatFun
from .linsolve import solve_unique
from .partitions import Partition, dominance_geq, dual, partition_list
from .symfunc import SymFunc1


@lru_cache(maxsize=None)
def _image_tables(cls, basis) -> tuple[dict, dict]:
    """Schur coefficients of s_b[(I - qK)X] and of s_b[(I - tK)X] for each
    index b of ``basis``."""
    schur = cls.BASES[0]
    tables = []
    for v in (RatFun.var(0), RatFun.var(1)):
        channels = (1 - v, 1 + v)[: cls.ALPHABETS]
        image = {b: cls.basis_elem(schur, b).alphabet_substitute(*channels) for b in basis}
        tables.append({b: f.to_basis(schur).coeffs for b, f in image.items()})
    return tuple(tables)


def triangular_family(cls, basis, above, above_dual, top):
    """The ``cls`` function over the Schur indices ``basis`` whose q-image
    has Schur support only on indices where ``above`` holds, whose t-image
    only where ``above_dual`` holds, and whose coefficient at ``top`` is
    1."""
    zero = RatFun.zero()
    rows = [
        [table[b].get(gamma, zero) for b in basis]
        for table, holds in zip(_image_tables(cls, basis), (above, above_dual))
        for gamma in basis
        if not holds(gamma)
    ]
    rows.append([RatFun.one() if b == top else zero for b in basis])
    rhs = [zero] * (len(rows) - 1) + [RatFun.one()]
    sol = solve_unique(rows, rhs)
    return cls(cls.BASES[0], {b: c for b, c in zip(basis, sol) if not c.is_zero()})


def qt_inner(f, g) -> RatFun:
    """Hall pairing of f against g substituted by (q + t)I - (1 + qt)K;
    symmetric in f and g."""
    q, t = RatFun.var(0), RatFun.var(1)
    channels = (-(1 - q) * (1 - t), (1 + q) * (1 + t))[: f.ALPHABETS]
    return f.hall_inner(g.alphabet_substitute(*channels))


@lru_cache(maxsize=None)
def macdonald_H(lam: Partition) -> SymFunc1:
    """The Schur expansion of the modified Macdonald polynomial of lam, over
    Q(q, t)."""
    lam = tuple(lam)
    n = sum(lam)
    lam_d = dual(lam)
    return triangular_family(
        SymFunc1,
        tuple((mu,) for mu in partition_list(n)),
        lambda gamma: dominance_geq(gamma[0], lam),
        lambda gamma: dominance_geq(gamma[0], lam_d),
        ((n,) if n else (),),
    )
