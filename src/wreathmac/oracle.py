"""Independent brute-force verification over small finite fields.

Point counts for twisted character varieties at rank 1 and 2 are obtained by
honest enumeration: the rank-2 representation count enumerates the
commutator distribution class by class (vectorized with numpy) and convolves
it with the distributions of products of twisted-class elements, then
divides by the group order, checking exactness.  Every matrix is looked up
in one table from its code to its class.  No character theory of the
general linear group enters.

The module also provides the genericity test on explicit eigenvalue data
and wreath-product character values computed from the explicit
signed-permutation group (Murnaghan-Nakayama for the symmetric-group
factors, read off the signed cycles, plus an explicit induction sum), used
to cross-validate the symmetric-function route.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache

import numpy as np

from .classtypes import SimpleType
from .partitions import BiPartition, Partition


# ---------------------------------------------------------------------------
# the input rules of the count


# The most steps a count may take, per rank, set so that the largest accepted
# input finishes in under 40 s on a 2-CPU x86 machine.  A rank-1 step is one
# of the (q-1)^(2k) tuples of units (about 3 us at most).  A rank-2 count
# makes 2k - 1 + g passes over GL_2(F_q): k pair products, k - 1 pair
# convolutions, then for g >= 1 a commutator pass and g - 1 convolutions;
# each visits about q^2 classes times q^4 elements, q^6 steps (about 0.1 us
# each).  Its genericity check multiplies 2k factors for each of the 2^(2k)
# sign choices.  At q = 101 one rank-2 pass would also need gigabytes of
# arrays.
WORK_LIMIT = {1: 10**7, 2: 4 * 10**8}

# The largest genus at rank 1: the formula that the count is compared with
# takes about 5 s at g = 1000 and 13 s at g = 1500, whatever k, and the
# largest accepted input (q = 3, g = 1000, 2k = 22) takes 15 s in all.
RANK1_GENUS_LIMIT = 1000


def require_countable(n: int, g: int, q: int, eigenvalues: list[int]) -> None:
    """ValueError, one message per rule, unless ``count_points`` can count:
    rank 1 or 2, g >= 0, a positive even number 2k of punctures, a count
    within reach, q an odd prime, and at rank 2 eigenvalues that are units
    mod q.

    Within reach means at most ``WORK_LIMIT`` steps, and at rank 1 also
    g <= ``RANK1_GENUS_LIMIT`` and a count (q-1)^(2(g+k-1)) of fewer decimal
    digits than Python prints, so that the CLI can compare the count with
    the formula and print it.  That bound reads the sizes only, so it runs
    before the trial division of q."""
    if n not in (1, 2):
        raise ValueError(f"the oracle counts points at rank 1 and 2 only, not n={n}")
    if g < 0:
        raise ValueError(f"the genus must be nonnegative, not g={g}")
    twok = len(eigenvalues)
    if not twok or twok % 2:
        raise ValueError(
            f"--eigs must be given a positive even number of times (2k), not {twok}"
        )
    # q <= 2 is refused below, and log10(q - 1) needs q > 1
    if q > 2:
        # 0 (no limit) before Python 3.10.7
        digits = getattr(sys, "get_int_max_str_digits", int)()
        if n == 1 and (2 * g + twok - 2) * math.log10(q - 1) >= digits > 0:
            raise ValueError(
                f"out of reach: the rank-1 count at q={q}, g={g} with {twok} "
                f"--eigs has more than {digits} digits"
            )
        if n == 1 and g > RANK1_GENUS_LIMIT:
            raise ValueError(
                f"out of reach: the rank-1 formula at g={g} takes too long "
                f"(g <= {RANK1_GENUS_LIMIT})"
            )
        work = (q - 1) ** twok if n == 1 else q**6 * (twok - 1 + g) + twok * 2**twok
        if work > WORK_LIMIT[n]:
            raise ValueError(
                f"out of reach: the rank-{n} count at q={q}, g={g} with {twok} "
                f"--eigs takes more than {WORK_LIMIT[n]:.0e} steps"
            )
    if q < 3 or not all(q % d for d in range(2, math.isqrt(q) + 1)):
        raise ValueError(f"{q} is not an odd prime")
    if n == 2 and any(a % q == 0 for a in eigenvalues):
        raise ValueError(f"eigenvalues must be units mod q={q}, not 0")


def genericity_check(eigs: list[int], q: int, strong: bool):
    """Exhaustively test the products of the squared eigenvalues to the
    powers +-1.

    eigs is one unit mod q per puncture, as ``require_countable`` admits
    them.  Returns (ok, witness): if the test fails, witness names the
    product, 1 (or -1 when strong), and per puncture the choice
    ([0], [sign]) of the exponent's sign.
    """
    bad = {1, q - 1} if strong else {1}
    options = [[(sign, pow(a, 2 * sign, q)) for sign in (1, -1)] for a in eigs]
    for combo in itertools.product(*options):
        v = math.prod(x for _, x in combo) % q
        if v in bad:
            return False, {"product": v, "choices": [([0], [sign]) for sign, _ in combo]}
    return True, None


# ---------------------------------------------------------------------------
# GL2 machinery (vectorized): a matrix (a, b, c, d) over F_q has the code
# ((a q + b) q + c) q + d, and one table of size q^4 maps each code to its
# class, -1 off the group.  int32 holds every code while q <= 215, and
# ``WORK_LIMIT`` keeps rank 2 at q <= 23.


class _GL2:
    """All of GL_2(F_q) as four parallel coefficient arrays, with class data."""

    def __init__(self, q: int):
        self.q = q
        full = np.meshgrid(*(np.arange(q, dtype=np.int32),) * 4, indexing="ij")
        a, b, c, d = (x.ravel() for x in full)
        det = (a * d - b * c) % q
        keep = det != 0
        self.matrices = a, b, c, d = tuple(x[keep] for x in (a, b, c, d))
        self.det = det[keep]
        self.size = len(self.det)
        self.inv_table = np.array([0] + [pow(x, -1, q) for x in range(1, q)], dtype=np.int32)
        # a class is (trace, determinant, scalar or not); the first member
        # of each class represents it
        key = ((a + d) % q * q + self.det) * 2 + ((b == 0) & (c == 0) & (a == d))
        _, self.class_rep, self.class_of, self.class_size = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        self.nclasses = len(self.class_size)
        # the full grid enumerates the codes in order
        self._class_table = np.full(q**4, -1, dtype=np.int32)
        self._class_table[keep] = self.class_of
        self.inverse_class = self.class_index(self.inv(self.at(self.class_rep)))

    def at(self, idx):
        """The matrices at an index or an index array."""
        return tuple(x[idx] for x in self.matrices)

    def matmul(self, m1, m2):
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        q = self.q
        return (
            (a1 * a2 + b1 * c2) % q,
            (a1 * b2 + b1 * d2) % q,
            (c1 * a2 + d1 * c2) % q,
            (c1 * b2 + d1 * d2) % q,
        )

    def sigma(self, m):
        """The involution: for the symplectic form in rank 2 it is division
        by the determinant."""
        a, b, c, d = m
        f = self.inv_table[(a * d - b * c) % self.q]
        return tuple(x * f % self.q for x in m)

    def inv(self, m):
        """The inverse: the adjugate over its determinant, which is m's."""
        a, b, c, d = m
        return self.sigma((d, -b, -c, a))

    def class_index(self, m):
        a, b, c, d = m
        q = self.q
        cls = self._class_table[((a * q + b) * q + c) * q + d]
        if np.any(cls < 0):
            raise AssertionError("product left the group")
        return cls

    def histogram(self, m):
        """Per class, how many of the matrices m lie in it (exact integers)."""
        return np.bincount(self.class_index(m), minlength=self.nclasses).astype(object)

    # -- distributions ------------------------------------------------------

    def commutator_totals(self) -> list[int]:
        """Per class L, the number of pairs (A, B) with [A, B] in L."""
        allm = self.matrices
        allinv = self.inv(allm)
        totals = np.zeros(self.nclasses, dtype=object)
        for ridx, size in zip(self.class_rep, self.class_size):
            # [r, B] = r B r^-1 B^-1 over all B
            r, rinv = self.at(ridx), tuple(x[ridx] for x in allinv)
            comm = self.matmul(self.matmul(self.matmul(r, allm), rinv), allinv)
            totals = totals + int(size) * self.histogram(comm)
        return [int(x) for x in totals]

    def class_values_from_totals(self, totals) -> list[int]:
        vals = []
        for tot, sz in zip(totals, self.class_size):
            v, r = divmod(int(tot), int(sz))
            if r:
                raise ArithmeticError("distribution is not a class function")
            vals.append(v)
        return vals

    def convolve_values(self, f: list[int], g: list[int]) -> list[int]:
        """(f * g)(m) = sum_u f(u) g(u^-1 m), via per-target pair histograms."""
        n = self.nclasses
        allinv = self.inv(self.matrices)
        out = []
        for ridx in self.class_rep:
            um = self.matmul(allinv, self.at(ridx))
            pairs = np.bincount(self.class_of * n + self.class_index(um), minlength=n * n)
            nonzero = map(int, np.nonzero(pairs)[0])
            out.append(sum(f[p // n] * g[p % n] * int(pairs[p]) for p in nonzero))
        return out


def twisted_type(a: int, q: int) -> SimpleType:
    """The simple type of the rank-2 twisted class of eigenvalue a mod q:
    "1,0:" for a = +-1, "0,1:" for a^2 = -1, "0,0:1" otherwise."""
    a %= q
    if a == 0:
        raise ValueError("eigenvalue must be a unit")
    if a in (1, q - 1):
        return SimpleType(1, 0, ())
    if (a * a + 1) % q == 0:
        return SimpleType(0, 1, ())
    return SimpleType(0, 0, (1,))


def twisted_class(G: _GL2, a: int):
    """Indices of the matrices M with M*sigma in the rank-2 twisted class of
    eigenvalue a.

    For eigenvalue +-1 the class of the involution itself (the scalars); for
    a^2 = -1 (a disconnected centralizer) every rational orbit of the class,
    the matrices of trace 0; otherwise the single regular orbit.
    """
    q = G.q
    beta = twisted_type(a, q)
    ma, mb, mc, md = G.matrices
    tr = (ma + md) % q
    if beta.m_plus:
        mask = (mb == 0) & (mc == 0) & (ma == md)
    elif beta.m_minus:
        mask = tr == 0
    else:
        s = (a + pow(a, -1, q)) % q
        mask = (tr * tr) % q == (G.det * s * s) % q
    return np.nonzero(mask)[0]


def twisted_pair_totals(G: _GL2, i1, i2) -> list[int]:
    """Per class L, the number of pairs with (M1 sigma)(M2 sigma) in L, for
    M1 and M2 the matrices at the indices i1 and i2."""
    sm2 = G.sigma(G.at(i2))
    totals = np.zeros(G.nclasses, dtype=object)
    for j in i1:
        totals = totals + G.histogram(G.matmul(G.at(j), sm2))
    return [int(x) for x in totals]


@lru_cache(maxsize=None)
def _gl2(q: int) -> _GL2:
    return _GL2(q)


def count_points(n: int, g: int, q: int, eigenvalues: list[int]) -> int:
    """Number of points of the twisted character variety over F_q by brute
    force; rank n in {1, 2}.  eigenvalues gives one eigenvalue per puncture
    (rank 2) or an empty placeholder list handled by 2k = len(eigenvalues).
    Inputs that ``require_countable`` refuses raise its ValueError.
    """
    require_countable(n, g, q, eigenvalues)
    twok = len(eigenvalues)
    if n == 1:
        return _count_points_rank1(g, q, twok)
    G = _gl2(q)
    sets = [twisted_class(G, a) for a in eigenvalues]
    # distribution of the product of consecutive twisted pairs
    pair_vals = None
    for i in range(0, twok, 2):
        totals = twisted_pair_totals(G, sets[i], sets[i + 1])
        vals = G.class_values_from_totals(totals)
        pair_vals = vals if pair_vals is None else G.convolve_values(pair_vals, vals)
    # commutator part
    if g == 0:
        fvals = [0] * G.nclasses
        fvals[int(G.class_index((1, 0, 0, 1)))] = 1
    else:
        fvals = G.class_values_from_totals(G.commutator_totals())
        base = list(fvals)
        for _ in range(g - 1):
            fvals = G.convolve_values(fvals, base)
    # |Rep| = sum_y f_g(y) P(y^{-1})
    rep_count = sum(
        int(size) * f * pair_vals[int(inv)]
        for size, f, inv in zip(G.class_size, fvals, G.inverse_class)
    )
    count, r = divmod(rep_count, G.size)
    if r:
        raise ArithmeticError(
            "representation count not divisible by the group order; "
            "the classes are likely non-generic"
        )
    return count


def _count_points_rank1(g: int, q: int, twok: int) -> int:
    """Rank 1: enumerate tuples over the units with alternating product 1."""
    units = list(range(1, q))
    total = 0
    for combo in itertools.product(units, repeat=twok):
        v = 1
        for j, x in enumerate(combo):
            v = v * (x if j % 2 == 0 else pow(x, -1, q)) % q
        if v == 1:
            total += 1
    rep = total * (q - 1) ** (2 * g)
    count, r = divmod(rep, q - 1)
    if r:
        raise ArithmeticError("rank-1 count not divisible by the group order")
    return count


# ---------------------------------------------------------------------------
# explicit wreath-product characters (cross-validation of the symmetric
# function route; sizes m <= 3).  An element of the signed permutation group
# B_m = (Z/2)^m x| S_m is the tuple of its signed images: x[i] = +-(j + 1)
# when x sends symbol i + 1 to +-(j + 1), and -(i + 1) to the opposite.


def _border_strips_hooks(lam: Partition, k: int):
    """Border strips of size k via the beta-set characterization: removing a
    strip of size k means lowering one beta-number by k."""
    r = len(lam) + k
    beta = sorted(((lam[i] if i < len(lam) else 0) + r - 1 - i for i in range(r)), reverse=True)
    bset = set(beta)
    for b in beta:
        if b - k >= 0 and (b - k) not in bset:
            nb = sorted(bset - {b} | {b - k}, reverse=True)
            mu = tuple(x for x in (nb[i] - (r - 1 - i) for i in range(r)) if x)
            # height = number of beta-numbers strictly between b-k and b
            height = sum(1 for x in bset if b - k < x < b)
            yield mu, height


def sym_char(lam: Partition, mu: Partition) -> int:
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("character needs equal sizes")
    if not mu:
        return 1
    k = mu[0]
    total = 0
    for nu, height in _border_strips_hooks(lam, k):
        total += (-1) ** height * sym_char(nu, mu[1:])
    return total


def _compose(x, y):
    """x after y: symbol i + 1 goes to x(y(i + 1))."""
    return tuple(x[j - 1] if j > 0 else -x[-j - 1] for j in y)


def _signed_cycles(x):
    """One (smallest symbol, length, sign) per cycle of x, symbols counted
    from 0; the sign is the product of the signs picked up around it."""
    seen = [False] * len(x)
    for i in range(len(x)):
        if seen[i]:
            continue
        length, sign, j = 0, 1, i
        while not seen[j]:
            seen[j] = True
            length += 1
            sign = sign if x[j] > 0 else -sign
            j = abs(x[j]) - 1
        yield i, length, sign


def _lengths(cycles) -> Partition:
    return tuple(sorted((length for _, length, _ in cycles), reverse=True))


def _signed_type(x) -> BiPartition:
    """The cycle lengths of x with sign +1, then those with sign -1."""
    cycles = list(_signed_cycles(x))
    return tuple(_lengths(c for c in cycles if c[2] == sign) for sign in (1, -1))


def wreath_group_char(m: int, alpha: BiPartition, beta: BiPartition) -> int:
    """Character value at the class of signed-cycle type beta, from the
    explicit induced-character construction on the permutation model: the
    character of B_a x B_b that inflates alpha[0] on the first a symbols and
    twists the inflation of alpha[1] by the product of the signs on the
    last b, induced to B_m."""
    if m > 3:
        raise ValueError("explicit wreath characters are built for m <= 3")
    a = sum(alpha[0])
    b = sum(alpha[1])
    if a + b != m or sum(beta[0]) + sum(beta[1]) != m:
        raise ValueError("label sizes must equal m")
    group = [
        tuple(s * (j + 1) for s, j in zip(signs, perm))
        for perm in itertools.permutations(range(m))
        for signs in itertools.product((1, -1), repeat=m)
    ]
    target = (tuple(beta[0]), tuple(beta[1]))
    rep = next((x for x in group if _signed_type(x) == target), None)
    if rep is None:
        raise ValueError(f"no element of signed type {beta}")
    total = 0
    for x in group:
        xinv = [0] * m
        for i, j in enumerate(x):
            xinv[abs(j) - 1] = i + 1 if j > 0 else -i - 1
        y = _compose(_compose(xinv, rep), x)
        # B_a x B_b keeps the first a symbols (with signs) and the last b
        if any((i < a) != (abs(j) <= a) for i, j in enumerate(y)):
            continue
        cycles = list(_signed_cycles(y))
        first = [c for c in cycles if c[0] < a]
        second = [c for c in cycles if c[0] >= a]
        total += (
            sym_char(tuple(alpha[0]), _lengths(first))
            * math.prod(sign for _, _, sign in second)
            * sym_char(tuple(alpha[1]), _lengths(second))
        )
    val, r = divmod(total, 2**m * math.factorial(a) * math.factorial(b))
    if r:
        raise ArithmeticError("induced character value is not integral")
    return val
