"""Independent brute-force verification over small finite fields.

Point counts for twisted character varieties at rank 1 and 2 are obtained by
honest enumeration: the rank-2 representation count enumerates the
commutator distribution class by class (vectorized with numpy) and convolves
it with the distributions of products of twisted-class elements, then
divides by the group order, checking exactness.  No character theory of the
general linear group enters.

The module also provides the genericity test on explicit eigenvalue data
and wreath-product character values computed from the explicit
signed-permutation group (Murnaghan-Nakayama for the symmetric-group
factors plus an explicit induction sum), used to cross-validate the
symmetric-function route.
"""

from __future__ import annotations

import itertools
from math import factorial

import numpy as np

from .partitions import BiPartition, Partition


# ---------------------------------------------------------------------------
# prime fields


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def require_odd_prime(q: int) -> None:
    if not _is_prime(q) or q == 2:
        raise ValueError(f"{q} is not an odd prime")


# The most steps a count may take, per rank, set so that the largest accepted
# input finishes in under 40 s on a 2-CPU x86 machine.  A rank-1 step is one
# of the (q-1)^(2k) tuples of units (about 3 us at most).  A rank-2 count
# makes 2k - 1 + g passes over GL_2(F_q): k pair products, k - 1 pair
# convolutions, then for g >= 1 a commutator pass and g - 1 convolutions;
# each visits about q^2 classes times q^4 elements, q^6 steps (about 0.1 us
# each).  Its genericity check multiplies 2k factors for each of up to
# 2^(2k) sign choices.  At q = 101 one rank-2 pass would also need over
# 6 GB of arrays.
WORK_LIMIT = {1: 10**7, 2: 4 * 10**8}


def require_within_reach(n: int, g: int, q: int, twok: int) -> None:
    """ValueError when the count at rank n takes more than ``WORK_LIMIT``
    steps.  It reads the sizes only, so it runs before any other check."""
    if n == 1:
        work = (q - 1) ** twok
    elif n == 2:
        work = q**6 * (twok - 1 + g) + twok * 2**twok
    else:
        return
    if q > 2 and work > WORK_LIMIT[n]:
        raise ValueError(
            f"out of reach: the rank-{n} count at q={q}, g={g} with {twok} "
            f"--eigs takes more than {WORK_LIMIT[n]:.0e} steps"
        )


def genericity_check(eigs: list[tuple[int, ...]], q: int, strong: bool):
    """Exhaustively test the products of squared eigenvalue choices.

    eigs is one N-tuple of units mod q per puncture.  Returns (ok, witness):
    witness names the subsets and signs whose product is 1 (or -1 when
    strong) if the test fails.
    """
    require_odd_prime(q)
    tuples = [tuple(a % q for a in e) for e in eigs]
    if any(a == 0 for e in tuples for a in e):
        raise ValueError("eigenvalues must be units")
    sizes = {len(e) for e in tuples}
    if len(sizes) != 1:
        raise ValueError("all eigenvalue tuples must have the same length")
    N = sizes.pop()
    bad = {1, q - 1} if strong else {1}
    for M in range(1, N + 1):
        per_puncture = []
        for e in tuples:
            opts = []
            for subset in itertools.combinations(range(N), M):
                for signs in itertools.product((1, -1), repeat=M):
                    v = 1
                    for idx, s in zip(subset, signs):
                        v = v * pow(e[idx], 2 * s, q) % q
                    opts.append((subset, signs, v))
            per_puncture.append(opts)
        for combo in itertools.product(*per_puncture):
            v = 1
            for _, _, x in combo:
                v = v * x % q
            if v in bad:
                witness = [(list(sub), list(sg)) for sub, sg, _ in combo]
                return False, {"product": v, "choices": witness}
    return True, None


# ---------------------------------------------------------------------------
# GL2 machinery (vectorized)


class _GL2:
    """All of GL_2(F_q) as parallel coefficient arrays, with class data."""

    def __init__(self, q: int):
        self.q = q
        a, b, c, d = np.meshgrid(*(np.arange(q),) * 4, indexing="ij")
        a, b, c, d = (x.ravel().astype(np.int64) for x in (a, b, c, d))
        det = (a * d - b * c) % q
        keep = det != 0
        self.a, self.b, self.c, self.d = a[keep], b[keep], c[keep], d[keep]
        self.det = det[keep]
        self.size = len(self.a)
        inv_table = np.zeros(q, dtype=np.int64)
        for x in range(1, q):
            inv_table[x] = pow(x, -1, q)
        self.inv_table = inv_table
        self.codes = ((self.a * q + self.b) * q + self.c) * q + self.d
        self.code_to_idx = -np.ones(q**4, dtype=np.int64)
        self.code_to_idx[self.codes] = np.arange(self.size)
        self._build_classes()

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

    def inv(self, m):
        a, b, c, d = m
        det = (a * d - b * c) % self.q
        f = self.inv_table[det]
        q = self.q
        return (d * f % q, (q - b) * f % q, (q - c) * f % q, a * f % q)

    def sigma(self, m):
        """The involution: for the symplectic form in rank 2 it is division
        by the determinant."""
        a, b, c, d = m
        det = (a * d - b * c) % self.q
        f = self.inv_table[det]
        return (a * f % self.q, b * f % self.q, c * f % self.q, d * f % self.q)

    def all_matrices(self):
        return (self.a, self.b, self.c, self.d)

    def _class_key(self, m):
        a, b, c, d = m
        q = self.q
        tr = (a + d) % q
        det = (a * d - b * c) % q
        scalar = (b == 0) & (c == 0) & (a == d)
        return tr * (2 * q) + det * 2 + scalar.astype(np.int64)

    def _build_classes(self):
        keys = self._class_key(self.all_matrices())
        # the first member of each class represents it
        uniq, first, inverse_map, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        self.class_keys = uniq
        self.nclasses = len(uniq)
        self.class_of = inverse_map
        self.class_size = counts
        self.class_rep = first
        # class of the inverse (same for every member)
        reps = tuple(x[first] for x in self.all_matrices())
        inv_reps = self.inv(reps)
        self.inverse_class = self.class_index(inv_reps)

    def class_index(self, m):
        return np.searchsorted(self.class_keys, self._class_key(m))

    # -- distributions ------------------------------------------------------

    def commutator_totals(self) -> list[int]:
        """Per class L, the number of pairs (A, B) with [A, B] in L."""
        totals = np.zeros(self.nclasses, dtype=object)
        allm = self.all_matrices()
        allinv = self.inv(allm)
        for ci in range(self.nclasses):
            ridx = self.class_rep[ci]
            r = tuple(np.int64(x[ridx]) for x in allm)
            rinv = tuple(np.int64(x[ridx]) for x in allinv)
            # [r, B] = r B r^-1 B^-1 over all B
            rb = self.matmul(r, allm)
            rbr = self.matmul(rb, rinv)
            comm = self.matmul(rbr, allinv)
            cls = self.class_of[self.code_lookup(comm)]
            hist = np.bincount(cls, minlength=self.nclasses)
            totals = totals + int(self.class_size[ci]) * hist.astype(object)
        return [int(x) for x in totals]

    def code_lookup(self, m):
        a, b, c, d = m
        codes = ((a * self.q + b) * self.q + c) * self.q + d
        idx = self.code_to_idx[codes]
        if np.any(idx < 0):
            raise AssertionError("product left the group")
        return idx

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
        out = []
        allinv = self.inv(self.all_matrices())
        cls_u = self.class_of
        for ci in range(self.nclasses):
            ridx = self.class_rep[ci]
            m = tuple(np.int64(x[ridx]) for x in self.all_matrices())
            um = self.matmul(allinv, m)
            cls_um = self.class_of[self.code_lookup(um)]
            hist2 = np.zeros((self.nclasses, self.nclasses), dtype=np.int64)
            np.add.at(hist2, (cls_u, cls_um), 1)
            val = 0
            for i, j in zip(*np.nonzero(hist2)):
                val += f[i] * g[j] * int(hist2[i, j])
            out.append(val)
        return out


def twisted_class(G: _GL2, a: int):
    """Indices of the matrices M with M*sigma in the rank-2 twisted class of
    eigenvalue a.

    For eigenvalue +-1 the class of the involution itself (the scalars); for
    a^2 = -1 (a disconnected centralizer) every rational orbit of the class,
    the matrices of trace 0; otherwise the single regular orbit.
    """
    q = G.q
    a %= q
    if a == 0:
        raise ValueError("eigenvalue must be a unit")
    am = G.all_matrices()
    tr = (am[0] + am[3]) % q
    det = G.det
    if a in (1, q - 1):
        mask = (am[1] == 0) & (am[2] == 0) & (am[0] == am[3])
    elif (a * a + 1) % q == 0:
        mask = tr == 0
    else:
        ainv = pow(a, -1, q)
        s = (a + ainv) % q
        mask = (tr * tr) % q == (det * s * s) % q
    return np.nonzero(mask)[0]


def twisted_pair_totals(G: _GL2, i1, i2) -> list[int]:
    """Per class L, the number of pairs with (M1 sigma)(M2 sigma) in L, for
    M1 and M2 the matrices at the indices i1 and i2."""
    allm = G.all_matrices()
    m2 = tuple(x[i2] for x in allm)
    sm2 = G.sigma(m2)
    totals = np.zeros(G.nclasses, dtype=object)
    for j in i1:
        m1 = tuple(np.int64(x[j]) for x in allm)
        prod = G.matmul(m1, sm2)
        cls = G.class_of[G.code_lookup(prod)]
        totals = totals + np.bincount(cls, minlength=G.nclasses).astype(object)
    return [int(x) for x in totals]


_GL2_CACHE: dict[int, _GL2] = {}


def _gl2(q: int) -> _GL2:
    if q not in _GL2_CACHE:
        require_odd_prime(q)
        _GL2_CACHE[q] = _GL2(q)
    return _GL2_CACHE[q]


def count_points(n: int, g: int, q: int, eigenvalues: list[int]) -> int:
    """Number of points of the twisted character variety over F_q by brute
    force; rank n in {1, 2}.  eigenvalues gives one eigenvalue per puncture
    (rank 2) or an empty placeholder list handled by 2k = len(eigenvalues).
    """
    twok = len(eigenvalues)
    if twok % 2 or twok == 0:
        raise ValueError("need a positive even number of punctures")
    if n == 1:
        return _count_points_rank1(g, q, twok)
    if n != 2:
        raise ValueError("brute-force counting supports rank 1 and 2 only")
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
        fvals[int(G.class_of[G.code_lookup(tuple(np.int64(x) for x in (1, 0, 0, 1)))])] = 1
    else:
        fvals = G.class_values_from_totals(G.commutator_totals())
        base = list(fvals)
        for _ in range(g - 1):
            fvals = G.convolve_values(fvals, base)
    # |Rep| = sum_y f_g(y) P(y^{-1})
    rep_count = 0
    for ci in range(G.nclasses):
        rep_count += (
            int(G.class_size[ci]) * fvals[ci] * pair_vals[int(G.inverse_class[ci])]
        )
    order = G.size
    count, r = divmod(rep_count, order)
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
# function route; sizes m <= 3)


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


class _WreathGroup:
    """The signed permutation group on {1..m, -1..-m} as explicit maps."""

    def __init__(self, m: int):
        self.m = m
        elems = []
        for perm in itertools.permutations(range(m)):
            for signs in itertools.product((0, 1), repeat=m):
                # image of symbol i (0..m-1 positive, m..2m-1 negative)
                img = [0] * (2 * m)
                for i in range(m):
                    j = perm[i]
                    if signs[i]:
                        img[i] = m + j
                        img[m + i] = j
                    else:
                        img[i] = j
                        img[m + i] = m + j
                elems.append(tuple(img))
        self.elements = elems

    def mul(self, x, y):
        return tuple(x[y[i]] for i in range(2 * self.m))

    def inv(self, x):
        out = [0] * (2 * self.m)
        for i, xi in enumerate(x):
            out[xi] = i
        return tuple(out)

    def signed_cycle_type(self, x) -> BiPartition:
        """Cycle sizes of the unsigned projection, split by the sign product
        picked up around each cycle."""
        m = self.m
        seen = [False] * m
        pos, neg = [], []
        for i in range(m):
            if seen[i]:
                continue
            length = 0
            sign = 1
            j = i
            while True:
                seen[j] = True
                length += 1
                nxt = x[j]
                if nxt >= m:
                    sign = -sign
                    nxt -= m
                j = nxt
                if j == i:
                    break
            (pos if sign == 1 else neg).append(length)
        return (tuple(sorted(pos, reverse=True)), tuple(sorted(neg, reverse=True)))


def wreath_group_char(m: int, alpha: BiPartition, beta: BiPartition) -> int:
    """Character value at the class of signed-cycle type beta, from the
    explicit induced-character construction on the permutation model."""
    if m > 3:
        raise ValueError("explicit wreath characters are built for m <= 3")
    a = sum(alpha[0])
    b = sum(alpha[1])
    if a + b != m or sum(beta[0]) + sum(beta[1]) != m:
        raise ValueError("label sizes must equal m")
    G = _WreathGroup(m)
    # a class representative of signed type beta
    rep = None
    for x in G.elements:
        if G.signed_cycle_type(x) == (tuple(beta[0]), tuple(beta[1])):
            rep = x
            break
    if rep is None:
        raise ValueError(f"no element of signed type {beta}")

    def in_subgroup(x) -> bool:
        # preserves the first a symbols (with signs) and the last b
        for i in range(G.m):
            tgt = x[i] if x[i] < G.m else x[i] - G.m
            if (i < a) != (tgt < a):
                return False
        return True

    def psi(x) -> int:
        # split x into the two blocks and evaluate the product character
        m_ = G.m
        img1 = [0] * (2 * a)
        img2 = [0] * (2 * b)
        for i in range(m_):
            j = x[i]
            neg = j >= m_
            if neg:
                j -= m_
            if i < a:
                img1[i] = j + (a if neg else 0)
            else:
                img2[i - a] = (j - a) + (b if neg else 0)
        for i in range(m_):
            src = i + m_
            j = x[src]
            neg = j >= m_
            if neg:
                j -= m_
            if i < a:
                img1[i + a] = j + (0 if neg else a)
            else:
                img2[i - a + b] = (j - a) + (0 if neg else b)
        G1 = _WreathGroup(a) if a else None
        G2 = _WreathGroup(b) if b else None
        t1 = G1.signed_cycle_type(tuple(img1)) if a else ((), ())
        t2 = G2.signed_cycle_type(tuple(img2)) if b else ((), ())
        # first block: inflated symmetric-group character (ignore signs)
        cyc1 = tuple(sorted(t1[0] + t1[1], reverse=True))
        v1 = sym_char(tuple(alpha[0]), cyc1)
        # second block: sign-of-negatives character times the inflation
        cyc2 = tuple(sorted(t2[0] + t2[1], reverse=True))
        sgn = (-1) ** len(t2[1])
        v2 = sgn * sym_char(tuple(alpha[1]), cyc2)
        return v1 * v2

    sub_order = 2**a * factorial(a) * 2**b * factorial(b)
    total = 0
    for x in G.elements:
        y = G.mul(G.mul(G.inv(x), rep), x)
        if in_subgroup(y):
            total += psi(y)
    val, r = divmod(total, sub_order)
    if r:
        raise ArithmeticError("induced character value is not integral")
    return val
