"""Kernel checks: products and sums against references computed here, the
heuristic gcd against a known answer and against the subresultant PRS, its
cofactors against the reference product, and exact division against planted
quotients and remainders."""

import pytest

from wreathmac import _kernels_py as pyk
from wreathmac import kernels


def rand_dict(rng, nterms=8, maxexp=6):
    return {
        (rng.randrange(0, maxexp), rng.randrange(0, maxexp)): rng.randrange(-9, 10) or 1
        for _ in range(nterms)
    }


def rand_rec(rng, dw=4, dz=4, cmax=6):
    out = []
    for _ in range(rng.randrange(1, dw)):
        row = [rng.randrange(-cmax, cmax + 1) for _ in range(rng.randrange(0, dz))]
        out.append(row)
    return pyk.btrim([pyk.utrim(r) for r in out])


def as_dict(rec):
    """Recursive dense form (w-degree, then z-degree) as an exponent dict."""
    return {(a, b): c for b, row in enumerate(rec) for a, c in enumerate(row) if c}


def as_rec(d):
    """Exponent dict in the trimmed recursive dense form the kernels return."""
    rows = [[] for _ in range(max((b for _, b in d), default=-1) + 1)]
    for (a, b), c in d.items():
        row = rows[b]
        row.extend([0] * (a + 1 - len(row)))
        row[a] = c
    return rows


def ref_pmul(a, b):
    out = {}
    for (xa, ya), ca in a.items():
        for (xb, yb), cb in b.items():
            key = (xa + xb, ya + yb)
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def ref_padd(a, b):
    out = {key: a.get(key, 0) + b.get(key, 0) for key in a.keys() | b.keys()}
    return {key: c for key, c in out.items() if c}


def rec_mul(a, b):
    """The reference product of two polynomials in the recursive dense form."""
    return as_rec(ref_pmul(as_dict(a), as_dict(b)))


def test_pmul_parity(rng):
    for _ in range(30):
        a, b = rand_dict(rng), rand_dict(rng)
        assert kernels.pmul(a, b) == ref_pmul(a, b)


def test_padd_parity(rng):
    for _ in range(30):
        a, b = rand_dict(rng), rand_dict(rng)
        assert kernels.padd(a, b) == ref_padd(a, b)


def test_gcd_known_answer(rng):
    for _ in range(25):
        # w + p(z) and w + r(z) are coprime when p != r, so the gcd of
        # c (w + p) and c (w + r) is c up to sign
        c = rand_rec(rng)
        p, r = (pyk.utrim([rng.randrange(-6, 7) for _ in range(3)]) for _ in range(2))
        if not c or p == r:
            continue
        want = as_dict(c)
        g = as_dict(kernels.bgcd(rec_mul(c, [p, [1]]), rec_mul(c, [r, [1]])))
        assert g in (want, {e: -v for e, v in want.items()})


def neg(rec):
    return [[-c for c in row] for row in rec]


def planted_pairs(rng, count=240):
    """Pairs a*c, b*c with a planted common factor c; by turns c is a
    general polynomial, an integer (content), a polynomial in z only or in
    w only, and a is a constant or zero."""
    for i in range(count):
        dw, dz, cmax = rng.choice([(4, 4, 6), (5, 5, 9), (4, 7, 60), (6, 3, 2)])
        a, b, c = (rand_rec(rng, dw, dz, cmax) for _ in range(3))
        kind = i % 6
        if kind == 1:
            c = [[rng.randrange(2, 40)]]
        elif kind == 2:
            c = rand_rec(rng, 2, 4, 5)
        elif kind == 3:
            c = rand_rec(rng, 4, 2, 5)
        elif kind == 4:
            a, c = [[rng.randrange(-9, 10) or 1]], [[1]]
        elif kind == 5:
            a = []
        yield rec_mul(a, c or [[1]]), rec_mul(b, c or [[1]])


def test_heuristic_gcd_matches_prs(rng):
    for a, b in planted_pairs(rng):
        g, want = kernels.bgcd(a, b), pyk._bgcd_prs(a, b)
        assert g in (want, neg(want))


def test_univariate_heuristic_gcd_matches_prs(rng):
    # the level below bgcd: small coefficients make unlucky points common,
    # so this also checks that a candidate failing the division is refused
    for _ in range(300):
        a, b, c = (pyk.utrim([rng.randrange(-3, 4) for _ in range(4)]) or [1] for _ in range(3))
        a, b = pyk.umul(a, c), pyk.umul(b, c)
        if a and b:
            assert pyk._ugcd_heu(a, b) in (None, pyk.ugcd(a, b))


def test_gcd_fallback_matches_prs(rng, monkeypatch):
    # with no heuristic tries, every nontrivial gcd goes through the PRS
    monkeypatch.setattr(pyk, "HEU_GCD_TRIES", 0)
    for a, b in planted_pairs(rng, 60):
        g, want = kernels.bgcd(a, b), pyk._bgcd_prs(a, b)
        assert g in (want, neg(want))


def assert_cofactors(a, b):
    g = kernels.bgcd(a, b)
    qa, qb = g.quotients
    assert rec_mul(g, qa) == a
    assert rec_mul(g, qb) == b


# zero and constant operands, integer content included
EDGE_PAIRS = (
    ([], []),
    ([], [[0, 2], [4]]),
    ([[0, -2], [4]], []),
    ([[6]], [[0, 4], [2, 8]]),
    ([[0, 4], [2, 8]], [[-6]]),
    ([[3]], [[5]]),
)


def test_gcd_cofactors_multiply_back(rng):
    for a, b in EDGE_PAIRS:
        assert_cofactors(a, b)
    for a, b in planted_pairs(rng):
        assert_cofactors(a, b)


def test_fallback_gcd_cofactors_multiply_back(rng, monkeypatch):
    monkeypatch.setattr(pyk, "HEU_GCD_TRIES", 0)
    for a, b in EDGE_PAIRS:
        assert_cofactors(a, b)
    for a, b in planted_pairs(rng, 60):
        assert_cofactors(a, b)


def rec_add(a, b):
    return as_rec(ref_padd(as_dict(a), as_dict(b)))


def test_divexact_raises_on_a_remainder(rng):
    for _ in range(200):
        q = rand_rec(rng, 4, 4, 6)
        b = rand_rec(rng, 4, 4, 6)
        if not (q and b) or b == [[1]] or b == [[-1]]:
            continue
        qb = rec_mul(q, b)
        assert kernels.bdivexact(qb, b) == q
        # a nonzero remainder below the w-degree of b: the leading rows of
        # q*b + r divide, and only a lower row is left over
        if len(b) > 1:
            r = rand_rec(rng, len(b), 4, 6)
            if r:
                with pytest.raises(ArithmeticError):
                    kernels.bdivexact(rec_add(qb, r), b)
        # a remainder r(z)*w^m in any row m: its divisors have one nonzero
        # row, so b with two does not divide it, nor does b(z) alone when
        # r has the lower z-degree
        nonzero_rows = sum(1 for row in b if row)
        if nonzero_rows > 1 or len(b[0]) > 1:
            r = pyk.utrim([rng.randrange(-6, 7) for _ in range(3 if nonzero_rows > 1 else len(b[0]) - 1)])
            if r:
                m = rng.randrange(0, len(qb) + 1)
                with pytest.raises(ArithmeticError):
                    kernels.bdivexact(rec_add(qb, [[]] * m + [r]), b)


def test_gcd_divides_products(rng):
    for _ in range(25):
        a, b, c = rand_rec(rng), rand_rec(rng), rand_rec(rng)
        if not (a and b and c):
            continue
        ac = rec_mul(a, c)
        bc = rec_mul(b, c)
        g = kernels.bgcd(ac, bc)
        # c divides the gcd; both products are divisible by the gcd
        kernels.bdivexact(g, kernels.bgcd(g, c))
        qa = kernels.bdivexact(ac, g)
        assert rec_mul(qa, g) == ac


def test_divexact_roundtrip(rng):
    for _ in range(25):
        a, b = rand_rec(rng), rand_rec(rng)
        if not (a and b):
            continue
        ab = rec_mul(a, b)
        assert kernels.bdivexact(ab, b) == pyk.btrim([pyk.utrim(r) for r in a])
