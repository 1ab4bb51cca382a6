"""Wreath Macdonald polynomials for the rank-2 wreath product at a fixed
2-core, and their self-pairings.

For a fixed core e in {0, 1}, the family indexed by 2-partitions of N is
the two-alphabet case of ``macdonald.triangular_family``, with the labels
ordered by the dominance of their partitions ``brace(label, e)`` of 2-core
(e): with K the exchange of the two alphabets, the Schur support of the
image under I - qK lies above the label, that under I - tK above the dual
label, and the coefficient at the one-row Schur function is 1.  The solver
constrains exactly the non-dominating indices (the order is partial) and
fails loudly unless the solution is unique.  ``wreath_H`` solves one member
of each q<->t dual pair and reads the other off it
(``macdonald.pair_member``).

Self-pairings are computed from ``macdonald.qt_inner``, never from a closed
formula, for the member of each dual pair that ``wreath_H`` solves: the
twist of ``qt_inner`` is symmetric in q and t, so the dual's pairing is that
one with q and t exchanged.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import RatFun
from .macdonald import pair_member, qt_inner, reads_dual
from .partitions import SWAP_VARS, BiPartition, brace, dual_index
from .symfunc import SymFunc2


def _order(core: int):
    return lambda index: brace(index, core)


@lru_cache(maxsize=None)
def wreath_H(alpha: BiPartition, core: int) -> SymFunc2:
    """The Schur expansion of the wreath Macdonald polynomial of alpha at the
    given 2-core, over Q(q, t)."""
    return pair_member(SymFunc2, alpha, _order(core), lambda dual: wreath_H(dual, core))


@lru_cache(maxsize=None)
def wreath_N(alpha: BiPartition, core: int) -> RatFun:
    """<H, H> under the (q, t) inner product, H = ``wreath_H(alpha, core)``."""
    if reads_dual(alpha, _order(core)):
        return wreath_N(dual_index(alpha), core).monomial_map(SWAP_VARS)
    H = wreath_H(alpha, core)
    return qt_inner(H, H)
