import pytest

from wreathmac.algebra import RatFun
from wreathmac.macdonald import qt_inner
from wreathmac.partitions import bipartition_list, dual2, partition_list, z_stat
from wreathmac.symfunc import (
    DIAGONAL,
    SymFunc1,
    SymFunc2,
    wreath_char,
)

q = RatFun.var(0)
t = RatFun.var(1)
one = RatFun.one()
zero = RatFun.zero()


def length2(bp):
    return len(bp[0]) + len(bp[1])


def z_stat2(bp):
    """Signed-cycle centralizer order: 2^len * z(first) * z(second)."""
    return (1 << length2(bp)) * z_stat(bp[0]) * z_stat(bp[1])


# the wreath power sums: p_r(x0) + p_r(x1) in the first slot of an index,
# p_r(x0) - p_r(x1) in the second
WREATH_POWER = [[one, one], [one, -one]]


def partition_keys(n):
    """The one-alphabet indices of size n: 1-tuples of partitions."""
    return [(lam,) for lam in partition_list(n)]


def wreath_power(bp):
    return SymFunc2.basis_elem("p2", bp).alphabet_substitute(WREATH_POWER)


def test_wreath_power_expansion():
    f = wreath_power(((1,), ())).to_basis("s2")
    assert f.coeffs == {((1,), ()): one, ((), (1,)): one}
    f = wreath_power(((), (1,))).to_basis("s2")
    assert f.coeffs == {((1,), ()): one, ((), (1,)): RatFun.const(-1)}


@pytest.mark.parametrize("basis", ["s", "p"])
@pytest.mark.parametrize("target", ["s", "p"])
def test_one_alphabet_round_trips(basis, target, rng):
    coeffs = {(lam,): RatFun.const(rng.randrange(-3, 4)) for lam in partition_list(4)}
    f = SymFunc1(basis, coeffs)
    g = f.to_basis(target)
    assert g.basis == target and g == f
    assert g.to_basis(basis).coeffs == f.coeffs


@pytest.mark.parametrize("basis", ["s2", "p2"])
@pytest.mark.parametrize("target", ["s2", "p2"])
def test_two_alphabet_round_trips(basis, target, rng):
    coeffs = {bp: RatFun.const(rng.randrange(-3, 4)) for bp in bipartition_list(3)}
    f = SymFunc2(basis, coeffs)
    g = f.to_basis(target)
    assert g.basis == target and g == f
    assert g.to_basis(basis).coeffs == f.coeffs


def test_only_schur_and_power_targets():
    with pytest.raises(ValueError):
        SymFunc1.basis_elem("s", ((2,),)).to_basis("h")
    with pytest.raises(ValueError):
        SymFunc2.basis_elem("s2", ((1,), ())).to_basis("wp")
    # the wreath power sums are an alphabet substitution, not a basis
    with pytest.raises(ValueError):
        SymFunc2.basis_elem("wp", ((1,), ()))


def test_embed_diagonal():
    # u(z) -> u[x0 + x1]: power sums map to first-slot wreath power sums
    e = SymFunc1.basis_elem("s", ((1,),)).alphabet_substitute(DIAGONAL).to_basis("s2")
    assert e.coeffs == {((1,), ()): one, ((), (1,)): one}
    e = SymFunc1.basis_elem("p", ((2,),)).alphabet_substitute(DIAGONAL).to_basis("s2")
    assert e.coeffs == {
        ((2,), ()): one,
        ((1, 1), ()): -one,
        ((), (2,)): one,
        ((), (1, 1)): -one,
    }
    assert SymFunc1.one().alphabet_substitute(DIAGONAL).to_basis("s2").coeffs == {((), ()): one}
    for n in range(4):
        for lam in partition_list(n):
            want = SymFunc2.basis_elem("p2", (lam, ())).alphabet_substitute(WREATH_POWER)
            assert SymFunc1.basis_elem("p", (lam,)).alphabet_substitute(DIAGONAL) == want


def test_hall_inner():
    s2 = lambda bp: SymFunc2.basis_elem("s2", bp)
    assert s2(((1,), ())).hall_inner(s2(((1,), ()))) == one
    assert s2(((1,), ())).hall_inner(s2(((), (1,)))) == zero
    assert wreath_power(((1,), ())).hall_inner(wreath_power(((1,), ()))) == RatFun.const(2)
    for m in range(3):
        for a in bipartition_list(m):
            for b in bipartition_list(m):
                v = wreath_power(a).hall_inner(wreath_power(b))
                assert v == (RatFun.const(z_stat2(a)) if a == b else zero)


def _schur_pairing(f, g, schur):
    """Reference Hall pairing: Schur bases are orthonormal, so it is the sum
    of the products of the two Schur coefficients."""
    a, b = f.to_basis(schur).coeffs, g.to_basis(schur).coeffs
    return sum((c * b[k] for k, c in a.items() if k in b), zero)


@pytest.mark.parametrize(
    "cls, bases, labels",
    [(SymFunc1, ("s", "p"), partition_keys), (SymFunc2, ("s2", "p2"), bipartition_list)],
    ids=["SymFunc1", "SymFunc2"],
)
def test_hall_inner_matches_the_schur_pairing(cls, bases, labels, rng):
    # random operands of size <= 3, each in a random basis
    def operand():
        keys = [k for n in range(4) for k in labels(n)]
        coeffs = {k: q * rng.randrange(-2, 3) + t * rng.randrange(-2, 3) + 1 for k in keys}
        return cls(rng.choice(bases), coeffs)

    for _ in range(20):
        f, g = operand(), operand()
        assert f.hall_inner(g) == _schur_pairing(f, g, bases[0])


def test_hall_inner_agrees_on_first_alphabet_images(rng):
    # (lam, ()) is s_lam(x0): the two-alphabet pairing restricts to the
    # one-alphabet one
    for n in range(5):
        lams = partition_list(n)
        for _ in range(3):
            a = {(lam,): q * rng.randrange(-3, 4) + rng.randrange(2) for lam in lams}
            b = {(lam,): t * rng.randrange(-3, 4) - q for lam in lams}
            one_alphabet = SymFunc1("s", a).hall_inner(SymFunc1("s", b))
            two_alphabet = SymFunc2("s2", {(k, ()): c for (k,), c in a.items()}).hall_inner(
                SymFunc2("s2", {(k, ()): c for (k,), c in b.items()})
            )
            assert one_alphabet == two_alphabet


def test_substitute_identity_and_negation(rng):
    ident = [[one, zero], [zero, one]]
    f = SymFunc2("s2", {bp: RatFun.const(rng.randrange(1, 5)) for bp in bipartition_list(2)})
    assert f.alphabet_substitute(ident) == f
    neg = [[zero, -one], [-one, zero]]
    for n in range(4):
        for bp in bipartition_list(n):
            g = SymFunc2.basis_elem("s2", bp).alphabet_substitute(neg).to_basis("s2")
            assert g.coeffs == {dual2(bp): RatFun.const((-1) ** n)}


def test_substitute_complete_by_inverse_matrix():
    # h_((1),()) (P X) = (p1(x0) + q p1(x1)) / (1 - q^2) in degree 1
    c = (one - q * q).inverse()
    P = [[c, c * q], [c * q, c]]
    g = SymFunc2.basis_elem("s2", ((1,), ())).alphabet_substitute(P).to_basis("s2")
    assert g.coeffs == {((1,), ()): c, ((), (1,)): q * c}


def test_substitute_multiplicative(rng):
    M = [[q, one - t], [t * q, RatFun.const(2)]]
    f = SymFunc2("s2", {bp: RatFun.const(rng.randrange(-2, 3)) for bp in bipartition_list(1)})
    g = SymFunc2("s2", {bp: RatFun.const(rng.randrange(-2, 3)) for bp in bipartition_list(2)})
    assert (f * g).alphabet_substitute(M) == f.alphabet_substitute(M) * g.alphabet_substitute(M)


def test_substitute_composition_constant_matrices(rng):
    # with constant entries the power twist is trivial; the substitution
    # endomorphisms compose via the reversed matrix product
    def cmat():
        return [
            [RatFun.const(rng.randrange(-2, 3)) for _ in range(2)] for _ in range(2)
        ]

    for _ in range(5):
        A, B = cmat(), cmat()
        BA = [
            [B[i][0] * A[0][j] + B[i][1] * A[1][j] for j in range(2)]
            for i in range(2)
        ]
        f = SymFunc2("s2", {bp: RatFun.const(rng.randrange(-2, 3)) for bp in bipartition_list(2)})
        assert f.alphabet_substitute(B).alphabet_substitute(A) == f.alphabet_substitute(BA)


def test_wreath_char_values():
    assert wreath_char(((1,), ()), ((1,), ())) == 1
    assert wreath_char(((), (1,)), ((1,), ())) == 1
    assert wreath_char(((), (1,)), ((), (1,))) == -1
    for m in range(4):
        top = ((m,) if m else (), ())
        for beta in bipartition_list(m):
            assert wreath_char(top, beta) == 1
    with pytest.raises(ValueError):
        wreath_char(((1,), ()), ((1,), (1,)))


def test_wreath_char_column_orthogonality():
    for m in range(4):
        labels = bipartition_list(m)
        for b in labels:
            for c in labels:
                total = sum(wreath_char(a, b) * wreath_char(a, c) for a in labels)
                assert total == (z_stat2(b) if b == c else 0)


def test_scalar_plethysm_examples():
    # u[cZ] is the substitution by the 1x1 matrix [[c]]
    s1 = SymFunc1.basis_elem("s", ((1,),))
    f = s1.alphabet_substitute([[one - q]]).to_basis("s")
    assert f.coeffs == {((1,),): one - q}
    assert s1.alphabet_substitute([[one]]) == s1
    # s_(2)[Z/(1-q)] paired against h_2 = s_(2) is 1/((1-q)(1-q^2))
    s2_ = SymFunc1.basis_elem("s", ((2,),))
    val = s2_.alphabet_substitute([[(one - q).inverse()]]).hall_inner(s2_)
    assert val == ((one - q) * (one - q * q)).inverse()


def test_one_alphabet_substitution_scales_each_part(rng):
    # reference: p_mu -> prod over parts r of c(q^r, t^r) p_mu, with c(q^r,
    # t^r) built here from the terms of the numerator and denominator of c
    def at_powers(c, r):
        def raised(poly):
            return sum(
                (v * q ** (a * r) * t ** (b * r) for (a, b), v in poly.terms.items()), zero
            )

        return raised(c.num) / raised(c.den)

    for c in ((one - q).inverse(), one - q * t, (q + 2 * t) / (one - t)):
        for n in range(5):
            for mu in partition_list(n):
                a = RatFun.const(rng.randrange(1, 4))
                want = a
                for r in mu:
                    want = want * at_powers(c, r)
                got = SymFunc1("p", {(mu,): a}).alphabet_substitute([[c]])
                assert got.basis == "p" and got.coeffs == {(mu,): want}, (c.text(), mu)


def _matmul(B, C):
    return [
        [sum((B[i][k] * C[k][j] for k in range(len(C))), zero) for j in range(len(C[0]))]
        for i in range(len(B))
    ]


def test_rectangular_substitutions_compose(rng):
    # p_r(x_i) -> sum_j B[i][j](q^r, t^r) p_r(y_j), then C: the composite is
    # the substitution by B C, also when entries depend on (q, t) and the
    # number of alphabets changes
    def entry():
        return q * rng.randrange(-2, 3) + t * rng.randrange(-1, 2) + rng.randrange(-1, 2)

    def matrix(rows, cols):
        return [[entry() for _ in range(cols)] for _ in range(rows)]

    for shapes in (((1, 1), (1, 2)), ((1, 2), (2, 2))):
        for _ in range(3):
            (r1, c1), (r2, c2) = shapes
            B, C = matrix(r1, c1), matrix(r2, c2)
            f = SymFunc1(
                rng.choice(("s", "p")),
                {(lam,): entry() for n in range(4) for lam in partition_list(n)},
            )
            assert f.alphabet_substitute(B).alphabet_substitute(C) == f.alphabet_substitute(
                _matmul(B, C)
            )


@pytest.mark.parametrize("cls", [SymFunc1, SymFunc2])
def test_subclasses_define_no_callable(cls):
    # every operation lives in the base class, once over the tuple of
    # per-alphabet partitions; a subclass only names its bases, its number
    # of alphabets and its exchange matrix
    own = {
        name
        for name, v in vars(cls).items()
        if callable(v) or isinstance(v, (staticmethod, classmethod, property))
    }
    assert not own, own
