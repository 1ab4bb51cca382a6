"""Partitions, 2-partitions, hooks, dominance, and the 2-partition labels.

Partitions are tuples of weakly decreasing positive ints; the empty tuple is
the unique partition of 0.  A 2-partition is a pair of partitions.  The dual
of a tuple of partitions conjugates each one and reverses their order.  A
label (q0, q1) at core (e), e in {0, 1}, is carried to the partition
``brace`` of size 2(|q0| + |q1|) + e whose 2-core is (e) and whose
2-quotient is (q0, q1): with m = max(len(q0), len(q1) + e), its beta-set
(the numbers lambda_i + r - i for r parts) is {2x : x in beta(q0, m + 1)}
together with {2x + 1 : x in beta(q1, m - e)}, 2m + 1 - e numbers in all.
The wreath Macdonald family at core (e) orders its labels by the dominance
of their ``brace`` images.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import LaurentPoly, RatFun

Partition = tuple[int, ...]
BiPartition = tuple[Partition, Partition]


def check_partition(lam) -> Partition:
    lam = tuple(int(x) for x in lam if x)
    if any(x < 0 for x in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"not a partition: {lam}")
    return lam


def dual(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x >= i) for i in range(1, lam[0] + 1))


def dual_index(index: tuple) -> tuple:
    """Dual of a tuple of partitions: each one dualized, in reverse order
    (``(dual(lam),)`` for ``(lam,)``; a 2-partition's components swapped)."""
    return tuple(dual(lam) for lam in reversed(index))


def n_stat(lam: Partition) -> int:
    """The statistic sum_i (i-1)*lambda_i."""
    return sum(i * x for i, x in enumerate(lam))


def z_stat(lam: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type lambda."""
    z = 1
    mult: dict[int, int] = {}
    for x in lam:
        mult[x] = mult.get(x, 0) + 1
        z *= x * mult[x]
    return z


def partitions_of(n: int, max_part: int | None = None):
    """Yield the partitions of n in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partition_list(n: int) -> tuple[Partition, ...]:
    return tuple(partitions_of(n))


@lru_cache(maxsize=None)
def bipartition_list(n: int) -> tuple[BiPartition, ...]:
    out = []
    for a in range(n, -1, -1):
        for lam in partition_list(a):
            for mu in partition_list(n - a):
                out.append((lam, mu))
    return tuple(out)


def dominance_geq(lam: Partition, mu: Partition) -> bool:
    """Partial sums of lam weakly dominate those of mu (equal sizes required)."""
    if sum(lam) != sum(mu):
        raise ValueError(f"dominance needs equal sizes: {lam} vs {mu}")
    pa = pb = 0
    for i in range(max(len(lam), len(mu))):
        pa += lam[i] if i < len(lam) else 0
        pb += mu[i] if i < len(mu) else 0
        if pa < pb:
            return False
    return True


# ---------------------------------------------------------------------------
# hooks


def hooks(lam: Partition) -> list[tuple[int, int, int]]:
    """Per box (arm, leg, hook) with hook = arm + leg + 1."""
    lam_d = dual(lam)
    out = []
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = lam_d[j] - i - 1
            out.append((arm, leg, arm + leg + 1))
    return out


# variable maps for ``hook_product``: the exponent vectors of u, q and t in
# the two variables of the result, (q, t) or (z, w)
PAIRING_QT = ((0, 0), (1, 0), (0, 1))  # u = 1
PAIRING_T_INV_Q = ((0, 0), (1, 0), (-1, 0))  # u = 1, t = 1/q
DEFORMED_ZW = ((1, 1), (2, 0), (0, 2))  # u = z*w, q = z^2, t = w^2
# a value over (q, t) read at q = z^2, t = w^2, as a ``monomial_map``
QT_AT_ZW = (2, 0, 0, 2)
# the two variables exchanged, q <-> t or z <-> w, as a ``monomial_map``
SWAP_VARS = (0, 1, 1, 0)


def hook_product(lam: Partition, vmap, even_only: bool = False) -> RatFun:
    """prod over boxes of (q^(a+1) - u t^l)(q^a - u^(-1) t^(l+1)), with u, q,
    t replaced by the monomials of ``vmap``; ``even_only`` keeps only the
    boxes of even hook length (the cotangent factor of the wreath pairings).

    At u = 1 this is the Macdonald self-pairing N_lam(q, t); at u = z*w,
    q = z^2, t = w^2 it is the deformed pairing of the two-variable series.
    At u = 1, t = 1/q each box gives q^(-2l-1) (1 - q^h)^2, so
    N_lam(q, 1/q) = q^(-2n(lam)-|lam|) prod (1 - q^h)^2, the hook
    polynomial of the one-parameter series.
    """
    u, q, t = vmap

    def mono(i: int, j: int, k: int) -> LaurentPoly:
        """u^i q^j t^k"""
        e = (i * u[0] + j * q[0] + k * t[0], i * u[1] + j * q[1] + k * t[1])
        return LaurentPoly.monomial(e)

    out = LaurentPoly.const(1)
    for a, l, h in hooks(lam):
        if even_only and h % 2:
            continue
        out = out * (mono(0, a + 1, 0) - mono(1, 0, l))
        out = out * (mono(0, a, 0) - mono(-1, 0, l + 1))
    return RatFun.from_poly(out)


# ---------------------------------------------------------------------------
# 2-core / 2-quotient


def _beta_set(lam: Partition, r: int) -> list[int]:
    return [(lam[i] if i < len(lam) else 0) + r - 1 - i for i in range(r)]


def _from_beta(beta: list[int]) -> Partition:
    beta = sorted(beta, reverse=True)
    r = len(beta)
    return tuple(x for x in (beta[i] - (r - 1 - i) for i in range(r)) if x)


def brace(quotient: BiPartition, e: int) -> Partition:
    """Partition with 2-core (e) (e in {0, 1}) and the given 2-quotient."""
    if e not in (0, 1):
        raise ValueError("core index must be 0 or 1")
    q0, q1 = quotient
    m = max(len(q0), len(q1) + e)
    evens = [2 * x for x in _beta_set(q0, m + 1)]
    odds = [2 * x + 1 for x in _beta_set(q1, m - e)]
    return _from_beta(evens + odds)


# ---------------------------------------------------------------------------
# text encoding used by the CLI and the golden fixtures


def partition_str(lam: Partition) -> str:
    return "[" + ",".join(str(x) for x in lam) + "]"


def bipartition_str(bp: BiPartition) -> str:
    return f"({partition_str(bp[0])},{partition_str(bp[1])})"


def parse_partition(s: str) -> Partition:
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"malformed partition {s!r}")
    return check_partition([int(x) for x in s[1:-1].split(",") if x.strip()])


def parse_bipartition(s: str) -> BiPartition:
    s = s.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"malformed 2-partition {s!r}")
    depth = 0
    for i, ch in enumerate(s):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0 and i > 0:
            return (parse_partition(s[1:i]), parse_partition(s[i + 1 : -1]))
    raise ValueError(f"malformed 2-partition {s!r}")
