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
``triangular_family`` builds and solves that system over Q(q, t) from the
label and the order alone.  The Schur coefficients of the q-images are
polynomials in q, so those of the t-images are them with q and t
exchanged.  ``qt_inner`` pairs two functions of either family through the
twist (q + t)I - (1 + qt)K = -K(I - qK)(I - tK).  ``macdonald_H`` solves
the one-alphabet family, ordered by dominance, memoized per index ``(lam,)``;
``wreath.wreath_H`` the other.  Exchanging q and t turns the system of a
label into that of its dual, so both solve one member of each dual pair
and read the other off it (``pair_member``); for Macdonald polynomials this
is H~_{lambda'}(q, t) = H~_lambda(t, q) (Macdonald, ch. VI).
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import RatFun
from .linsolve import solve_unique
from .partitions import SWAP_VARS, Partition, dominance_geq, dual_index, n_stat
from .symfunc import SymFunc1, schur_indices


@lru_cache(maxsize=None)
def _image_tables(cls, n: int) -> tuple[dict, dict]:
    """Schur coefficients of s_b[(I - qK)X] and of s_b[(I - tK)X] for each
    Schur index b of size n.  The first are polynomials in q alone, so the
    second are the first with q and t exchanged."""
    schur, q = cls.SCHUR, RatFun.var(0)
    channels = (1 - q, 1 + q)[: cls.ALPHABETS]
    q_side = {
        b: cls.basis_elem(schur, b).alphabet_substitute(*channels).to_basis(schur).coeffs
        for b in schur_indices(cls.ALPHABETS, n)
    }
    t_side = {b: {g: c.monomial_map(SWAP_VARS) for g, c in r.items()} for b, r in q_side.items()}
    return q_side, t_side


def triangular_family(cls, label, order):
    """The ``cls`` function of ``label``, an index of size n: over the Schur
    indices of size n, the one whose q-image has Schur support only on
    indices gamma with ``order(gamma)`` dominating ``order(label)``, whose
    t-image only where ``order(gamma)`` dominates the order of the dual
    label, and whose coefficient at the one-row Schur function of the first
    alphabet is 1."""
    n = sum(map(sum, label))
    basis = schur_indices(cls.ALPHABETS, n)
    bounds = (order(label), order(dual_index(label)))
    zero = RatFun.zero()
    rows = [
        [table[b].get(gamma, zero) for b in basis]
        for table, bound in zip(_image_tables(cls, n), bounds)
        for gamma in basis
        if not dominance_geq(order(gamma), bound)
    ]
    top = cls.one_row(n)
    rows.append([RatFun.one() if b == top else zero for b in basis])
    rhs = [zero] * (len(rows) - 1) + [RatFun.one()]
    sol = solve_unique(rows, rhs)
    return cls(cls.SCHUR, {b: c for b, c in zip(basis, sol) if not c.is_zero()})


def reads_dual(label, order) -> bool:
    """The pair rule: of a label and its dual, the one whose ``order`` image
    has the smaller n-statistic (ties to the smaller label) is solved."""
    dual = dual_index(label)
    return (n_stat(order(dual)), dual) < (n_stat(order(label)), label)


def pair_member(cls, label, order, cached):
    """The ``cls`` function of ``label``: ``triangular_family`` solves the
    member of the pair that ``reads_dual`` picks, and the other is read off
    it, ``cached`` (the family's memoized entry) at the dual, q <-> t."""
    if reads_dual(label, order):
        solved = cached(dual_index(label)).coeffs
        return cls(cls.SCHUR, {b: c.monomial_map(SWAP_VARS) for b, c in solved.items()})
    return triangular_family(cls, label, order)


def qt_inner(f, g) -> RatFun:
    """Hall pairing of f against g substituted by (q + t)I - (1 + qt)K;
    symmetric in f and g."""
    q, t = RatFun.var(0), RatFun.var(1)
    channels = (-(1 - q) * (1 - t), (1 + q) * (1 + t))[: f.ALPHABETS]
    return f.hall_inner(g.alphabet_substitute(*channels))


@lru_cache(maxsize=None)
def macdonald_H(index: tuple[Partition]) -> SymFunc1:
    """The Schur expansion of the modified Macdonald polynomial of the index
    ``(lam,)``, over Q(q, t)."""
    return pair_member(SymFunc1, index, lambda index: index[0], macdonald_H)
