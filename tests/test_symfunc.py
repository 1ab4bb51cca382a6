import pytest

from wreathmac.algebra import RatFun
from wreathmac.partitions import bipartition_list, dual2, partition_list, z_stat
from wreathmac.symfunc import (
    SymFunc1,
    SymFunc2,
    embed_diagonal,
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
    coeffs = {lam: RatFun.const(rng.randrange(-3, 4)) for lam in partition_list(4)}
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
        SymFunc1.basis_elem("s", (2,)).to_basis("h")
    with pytest.raises(ValueError):
        SymFunc2.basis_elem("s2", ((1,), ())).to_basis("wp")
    # the wreath power sums are an alphabet substitution, not a basis
    with pytest.raises(ValueError):
        SymFunc2.basis_elem("wp", ((1,), ()))


def test_embed_diagonal():
    e = embed_diagonal(SymFunc1.basis_elem("s", (1,))).to_basis("s2")
    assert e.coeffs == {((1,), ()): one, ((), (1,)): one}
    e = embed_diagonal(SymFunc1.basis_elem("p", (2,))).to_basis("s2")
    assert e.coeffs == {
        ((2,), ()): one,
        ((1, 1), ()): -one,
        ((), (2,)): one,
        ((), (1, 1)): -one,
    }
    assert embed_diagonal(SymFunc1.one()).to_basis("s2").coeffs == {((), ()): one}


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
    [(SymFunc1, ("s", "p"), partition_list), (SymFunc2, ("s2", "p2"), bipartition_list)],
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
            a = {lam: q * rng.randrange(-3, 4) + rng.randrange(2) for lam in lams}
            b = {lam: t * rng.randrange(-3, 4) - q for lam in lams}
            one_alphabet = SymFunc1("s", a).hall_inner(SymFunc1("s", b))
            two_alphabet = SymFunc2("s2", {(k, ()): c for k, c in a.items()}).hall_inner(
                SymFunc2("s2", {(k, ()): c for k, c in b.items()})
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
    s1 = SymFunc1.basis_elem("s", (1,))
    f = s1.scalar_plethysm(one - q).to_basis("s")
    assert f.coeffs == {(1,): one - q}
    assert s1.scalar_plethysm(one) == s1
    # s_(2)[Z/(1-q)] paired against h_2 = s_(2) is 1/((1-q)(1-q^2))
    s2_ = SymFunc1.basis_elem("s", (2,))
    val = s2_.scalar_plethysm((one - q).inverse()).hall_inner(s2_)
    assert val == ((one - q) * (one - q * q)).inverse()
