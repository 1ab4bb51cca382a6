"""Kernel checks: products and sums against references computed here, the
primitive PRS against planted coprime factors in Z[z] and Z[z][w], the
heuristic gcd against a known answer and against the PRS, its cofactors
against the reference product, and exact division in Z[z] and Z[z][w]
against planted quotients and remainders."""

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
    return pyk.trim([pyk.trim(r) for r in out])


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
        p, r = (pyk.trim([rng.randrange(-6, 7) for _ in range(3)]) for _ in range(2))
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
        g, want = kernels.bgcd(a, b), pyk._prs(a, b)
        assert g in (want, neg(want))


def flat_mul(a, b):
    """The reference product of two elements of Z[z] (int lists)."""
    return (rec_mul([a], [b]) or [[]])[0]


def leading(p):
    while isinstance(p, list):
        p = p[-1]
    return p


def test_gcd_has_a_positive_leading_coefficient(rng):
    for a, b in planted_pairs(rng, 120):
        if a and b:
            assert leading(kernels.bgcd(a, b)) > 0
            assert leading(pyk._prs(a, b)) > 0


def linear_product(roots, var):
    """prod (x - r) over the roots, in Z[z] (var "z", integer roots) or in
    Z[z][w] (var "w", roots in Z[z])."""
    out = [1] if var == "z" else [[1]]
    for r in roots:
        factor = [-r, 1] if var == "z" else [[-c for c in r], [1]]
        out = flat_mul(out, factor) if var == "z" else rec_mul(out, factor)
    return out


def test_prs_finds_planted_coprime_factors(rng):
    # c f and c g with f, g monic products of linear factors with disjoint
    # roots: the gcd is c, made positive, at both depths
    for _ in range(60):
        roots = rng.sample(range(-9, 10), 5)
        f, g = linear_product(roots[:2], "z"), linear_product(roots[2:], "z")
        c = pyk.trim([rng.randrange(-6, 7) for _ in range(rng.randrange(1, 5))])
        if c:
            want = c if c[-1] > 0 else [-x for x in c]
            assert pyk._prs(flat_mul(c, f), flat_mul(c, g)) == want
    for _ in range(40):
        roots = []
        while len(roots) < 4:
            r = pyk.trim([rng.randrange(-4, 5) for _ in range(3)])
            if r not in roots:
                roots.append(r)
        f, g = linear_product(roots[:2], "w"), linear_product(roots[2:], "w")
        c = rand_rec(rng, 3, 4, 5)
        if c:
            want = c if leading(c) > 0 else neg(c)
            assert pyk._prs(rec_mul(c, f), rec_mul(c, g)) == want


def test_heuristic_gcd_skips_a_vanishing_leading_coefficient(monkeypatch):
    # |B| = 1 puts the first point at xi = 4, where the leading coefficient
    # z - 4 of A vanishes: with one point per level GCDHEU gives up, with
    # the usual tries it moves on, and either way bgcd finds the gcd 1
    a, b = [[1], [-4, 1]], [[1], [1]]
    assert pyk._heu(a, b)[0] == [[1]]
    assert kernels.bgcd(a, b) == [[1]]
    monkeypatch.setattr(pyk, "HEU_GCD_TRIES", 1)
    assert pyk._heu(a, b) is None
    assert kernels.bgcd(a, b) == [[1]]


def test_univariate_heuristic_gcd_matches_prs(rng):
    # the level below bgcd: small coefficients make unlucky points common,
    # so this also checks that a candidate failing the division is refused
    for _ in range(300):
        a, b, c = (pyk.trim([rng.randrange(-3, 4) for _ in range(4)]) or [1] for _ in range(3))
        a, b = flat_mul(a, c), flat_mul(b, c)
        if a and b:
            found = pyk._heu(a, b)
            assert found is None or found[0] == pyk._prs(a, b)


def test_gcd_fallback_matches_prs(rng, monkeypatch):
    # with no heuristic tries, every nontrivial gcd goes through the PRS
    monkeypatch.setattr(pyk, "HEU_GCD_TRIES", 0)
    for a, b in planted_pairs(rng, 60):
        g, want = kernels.bgcd(a, b), pyk._prs(a, b)
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
            r = pyk.trim([rng.randrange(-6, 7) for _ in range(3 if nonzero_rows > 1 else len(b[0]) - 1)])
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
        assert kernels.bdivexact(ab, b) == pyk.trim([pyk.trim(r) for r in a])


def ref_sum(a, b):
    """The trimmed sum of two elements of Z[z]."""
    out = [x + y for x, y in zip(a + [0] * len(b), b + [0] * len(a))]
    return pyk.trim(out)


def test_univariate_divexact_raises_on_a_remainder(rng):
    for _ in range(300):
        q = pyk.trim([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))])
        b = pyk.trim([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))])
        if not (q and b):
            continue
        qb = flat_mul(q, b)
        assert kernels.bdivexact(qb, b) == q
        # a nonzero remainder of lower degree than b, or, for a constant b
        # other than a unit, a coefficient it does not divide
        if len(b) > 1:
            r = pyk.trim([rng.randrange(-9, 10) for _ in range(len(b) - 1)])
        elif abs(b[0]) > 1:
            r = [0] * rng.randrange(0, len(qb)) + [1]
        else:
            r = []
        if r:
            with pytest.raises(ArithmeticError):
                kernels.bdivexact(ref_sum(qb, r), b)
        # a divisor of higher degree than the dividend
        with pytest.raises(ArithmeticError):
            kernels.bdivexact(b, qb + [1])
    with pytest.raises(ZeroDivisionError):
        kernels.bdivexact([1, 2], [])
    assert kernels.bdivexact([], [3, 1]) == []

