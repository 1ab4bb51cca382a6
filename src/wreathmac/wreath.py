"""Wreath Macdonald polynomials for the rank-2 wreath product at a fixed
2-core, and the total / cotangent / nabla decomposition of their
self-pairings.

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

Total self-pairings are computed from ``macdonald.qt_inner``, never from a
closed formula; the nabla factor is recorded as the exact quotient by the
even-hook cotangent product and kept as a rational function.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .macdonald import pair_member, qt_inner
from .partitions import PAIRING_QT, BiPartition, brace, hook_product
from .symfunc import SymFunc2


class PairingData(namedtuple("PairingData", "total cot_at_one nabla")):
    # total: <H, H> under the (q, t) inner product
    # cot_at_one: even-hook product at u = 1
    # nabla: total / cot_at_one, exact quotient
    __slots__ = ()


@lru_cache(maxsize=None)
def wreath_H(alpha: BiPartition, core: int) -> SymFunc2:
    """The Schur expansion of the wreath Macdonald polynomial of alpha at the
    given 2-core, over Q(q, t)."""
    return pair_member(
        SymFunc2, alpha, lambda index: brace(index, core), lambda dual: wreath_H(dual, core)
    )


@lru_cache(maxsize=None)
def wreath_N(alpha: BiPartition, core: int) -> PairingData:
    H = wreath_H(alpha, core)
    total = qt_inner(H, H)
    cot1 = hook_product(brace(alpha, core), PAIRING_QT, even_only=True)
    return PairingData(total, cot1, total / cot1)
