from fractions import Fraction

import pytest

from wreathmac.algebra import RatFun
from wreathmac.partitions import bipartition_list, dual_index, partition_list, z_stat
from wreathmac.symfunc import (
    SymFunc1,
    SymFunc2,
    on_merged_alphabet,
    schur_to_power,
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


def partition_keys(n):
    """The one-alphabet indices of size n: 1-tuples of partitions."""
    return [(lam,) for lam in partition_list(n)]


def wreath_power(bp):
    return SymFunc2.basis_elem("p", bp)


# ---------------------------------------------------------------------------
# reference: the general matrix plethysm on per-alphabet power sums


def _merge_index(a, b):
    return tuple(tuple(sorted(x + y, reverse=True)) for x, y in zip(a, b))


def _expansion_product(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = _merge_index(ka, kb)
            out[key] = out[key] + ca * cb if key in out else ca * cb
    return out


def matrix_plethysm(expansion, M):
    """u(X) -> u(M Y) on ``{index: coeff}`` in per-alphabet power sums, for
    a matrix M of RatFun entries with a row per alphabet of u and a column
    per alphabet of the result: p_r(x_i) maps to sum_j M[i][j](q^r, t^r)
    p_r(y_j)."""
    width = len(M[0])
    out = {}
    for k, c in expansion.items():
        terms = {((),) * width: c}
        for i, lam in enumerate(k):
            for r in lam:
                image = {
                    tuple((r,) if j == col else () for j in range(width)): m.monomial_map(
                        (r, 0, 0, r)
                    )
                    for col, m in enumerate(M[i])
                    if not m.is_zero()
                }
                terms = _expansion_product(terms, image)
        for key, v in terms.items():
            out[key] = out[key] + v if key in out else v
    return {k: v for k, v in out.items() if not v.is_zero()}


def per_alphabet_power_sums(f):
    """A Schur-basis function in per-alphabet power sums: the tensor product
    of the one-alphabet Jacobi-Trudi tables."""
    out = {}
    for key, c in f.coeffs.items():
        terms = {((),) * len(key): c}
        for i, lam in enumerate(key):
            image = {
                tuple(mu if j == i else () for j in range(len(key))): RatFun.const(v)
                for mu, v in schur_to_power(lam).items()
            }
            terms = _expansion_product(terms, image)
        for k, v in terms.items():
            out[k] = out[k] + v if k in out else v
    return out


# p_r(x0) = (p^+_r + p^-_r) / 2 and p_r(x1) = (p^+_r - p^-_r) / 2: per-alphabet
# power sums of the pair to the channel power sums
HALF = RatFun.const(Fraction(1, 2))
TO_CHANNELS = [[HALF, HALF], [HALF, -HALF]]


def reference_substitute(f, M):
    """The matrix plethysm of f by M, read in the power basis of the result
    (f in one alphabet, M with one or two columns)."""
    image = matrix_plethysm(per_alphabet_power_sums(f.to_basis(f.SCHUR)), M)
    if len(M[0]) == 1:
        return SymFunc1("p", image)
    return SymFunc2("p", matrix_plethysm(image, TO_CHANNELS))


def test_wreath_power_expansion():
    f = wreath_power(((1,), ())).to_basis("s")
    assert f.coeffs == {((1,), ()): one, ((), (1,)): one}
    f = wreath_power(((), (1,))).to_basis("s")
    assert f.coeffs == {((1,), ()): one, ((), (1,)): RatFun.const(-1)}


@pytest.mark.parametrize("basis", ["s", "p"])
@pytest.mark.parametrize("target", ["s", "p"])
def test_one_alphabet_round_trips(basis, target, rng):
    coeffs = {(lam,): RatFun.const(rng.randrange(-3, 4)) for lam in partition_list(4)}
    f = SymFunc1(basis, coeffs)
    g = f.to_basis(target)
    assert g.basis == target and g == f
    assert g.to_basis(basis).coeffs == f.coeffs


@pytest.mark.parametrize("basis", ["s", "p"])
@pytest.mark.parametrize("target", ["s", "p"])
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
        SymFunc2.basis_elem("s", ((1,), ())).to_basis("wp")
    # the per-alphabet power sums of the pair are not a basis: the wreath
    # power sums are; both classes name their bases "s" and "p", and the
    # names the two-alphabet bases once had are refused
    for name in ("p2", "s2", "w"):
        with pytest.raises(ValueError):
            SymFunc2.basis_elem(name, ((1,), ()))


def test_embed_diagonal():
    # u(z) -> u[x0 + x1]: power sums map to first-slot wreath power sums
    e = on_merged_alphabet(SymFunc1.basis_elem("s", ((1,),))).to_basis("s")
    assert e.coeffs == {((1,), ()): one, ((), (1,)): one}
    e = on_merged_alphabet(SymFunc1.basis_elem("p", ((2,),))).to_basis("s")
    assert e.coeffs == {
        ((2,), ()): one,
        ((1, 1), ()): -one,
        ((), (2,)): one,
        ((), (1, 1)): -one,
    }
    assert on_merged_alphabet(SymFunc1.one()).to_basis("s").coeffs == {((), ()): one}
    for n in range(4):
        for lam in partition_list(n):
            f = SymFunc1.basis_elem("s", (lam,))
            assert on_merged_alphabet(f) == reference_substitute(f, [[one, one]])


def test_hall_inner():
    s2 = lambda bp: SymFunc2.basis_elem("s", bp)
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
    "cls, labels",
    [(SymFunc1, partition_keys), (SymFunc2, bipartition_list)],
    ids=["SymFunc1", "SymFunc2"],
)
def test_hall_inner_matches_the_schur_pairing(cls, labels, rng):
    # random operands of size <= 3, each in a random basis
    def operand():
        keys = [k for n in range(4) for k in labels(n)]
        coeffs = {k: q * rng.randrange(-2, 3) + t * rng.randrange(-2, 3) + 1 for k in keys}
        return cls(rng.choice((cls.SCHUR, cls.POWER)), coeffs)

    for _ in range(20):
        f, g = operand(), operand()
        assert f.hall_inner(g) == _schur_pairing(f, g, cls.SCHUR)


def test_hall_inner_agrees_on_first_alphabet_images(rng):
    # (lam, ()) is s_lam(x0): the two-alphabet pairing restricts to the
    # one-alphabet one
    for n in range(5):
        lams = partition_list(n)
        for _ in range(3):
            a = {(lam,): q * rng.randrange(-3, 4) + rng.randrange(2) for lam in lams}
            b = {(lam,): t * rng.randrange(-3, 4) - q for lam in lams}
            one_alphabet = SymFunc1("s", a).hall_inner(SymFunc1("s", b))
            two_alphabet = SymFunc2("s", {(k, ()): c for (k,), c in a.items()}).hall_inner(
                SymFunc2("s", {(k, ()): c for (k,), c in b.items()})
            )
            assert one_alphabet == two_alphabet


# the substitutions the engine runs, as a matrix on the pair of alphabets
# (K the exchange) and as channel values on p^+ and p^-
_P = (one - q * q).inverse()
SUBSTITUTIONS = {
    "I-qK": ([[one, -q], [-q, one]], (1 - q, 1 + q)),
    "twist": (
        [[q + t, -(1 + q * t)], [-(1 + q * t), q + t]],
        (-(1 - q) * (1 - t), (1 + q) * (1 + t)),
    ),
    "P": ([[_P, q * _P], [q * _P, _P]], ((1 - q).inverse(), (1 + q).inverse())),
    "-K": ([[zero, -one], [-one, zero]], (-one, one)),
}


def random_s2(rng, size=3):
    keys = [bp for n in range(size + 1) for bp in bipartition_list(n)]
    return SymFunc2(
        "s", {bp: q * rng.randrange(-2, 3) + t * rng.randrange(-2, 3) + 1 for bp in keys}
    )


@pytest.mark.parametrize("name", sorted(SUBSTITUTIONS))
def test_channel_values_are_the_matrix_plethysm(name, rng):
    M, channels = SUBSTITUTIONS[name]
    for _ in range(3):
        f = random_s2(rng)
        assert f.alphabet_substitute(*channels) == reference_substitute(f, M), name


def test_merged_alphabet_over_one_minus_q_is_the_matrix_plethysm(rng):
    # s_lam[(x0 + x1)/(1 - q)]: the 1x2 matrix [[c, c]], c = 1/(1 - q)
    c = (1 - q).inverse()
    for _ in range(3):
        keys = [(lam,) for n in range(4) for lam in partition_list(n)]
        f = SymFunc1("s", {k: q * rng.randrange(-2, 3) + rng.randrange(-1, 2) for k in keys})
        assert on_merged_alphabet(f.alphabet_substitute(c)) == reference_substitute(f, [[c, c]])


def test_substitute_identity_and_negation(rng):
    f = SymFunc2("s", {bp: RatFun.const(rng.randrange(1, 5)) for bp in bipartition_list(2)})
    assert f.alphabet_substitute(one, one) == f
    for n in range(4):
        for bp in bipartition_list(n):
            g = SymFunc2.basis_elem("s", bp).alphabet_substitute(-one, one).to_basis("s")
            assert g.coeffs == {dual_index(bp): RatFun.const((-1) ** n)}
    with pytest.raises(ValueError):
        f.alphabet_substitute(one)


def test_substitute_complete_by_inverse_matrix():
    # h_((1),()) (P X) = (p1(x0) + q p1(x1)) / (1 - q^2) in degree 1, with
    # P = (I - qK)^(-1)
    c = (one - q * q).inverse()
    g = SymFunc2.basis_elem("s", ((1,), ())).alphabet_substitute(*SUBSTITUTIONS["P"][1])
    assert g.to_basis("s").coeffs == {((1,), ()): c, ((), (1,)): q * c}


def test_substitute_multiplicative(rng):
    channels = (q + 2 * t, one - t * q)
    f = SymFunc2("s", {bp: RatFun.const(rng.randrange(-2, 3)) for bp in bipartition_list(1)})
    g = SymFunc2("s", {bp: RatFun.const(rng.randrange(-2, 3)) for bp in bipartition_list(2)})
    assert (f * g).alphabet_substitute(*channels) == f.alphabet_substitute(
        *channels
    ) * g.alphabet_substitute(*channels)


def test_substitute_composition_constant_matrices(rng):
    # substitutions compose by multiplying their channel values; with
    # constant values the power twist is trivial
    for _ in range(5):
        a, b = (tuple(RatFun.const(rng.randrange(-2, 3)) for _ in range(2)) for _ in range(2))
        f = SymFunc2("s", {bp: RatFun.const(rng.randrange(-2, 3)) for bp in bipartition_list(2)})
        ab = tuple(x * y for x, y in zip(a, b))
        assert f.alphabet_substitute(*a).alphabet_substitute(*b) == f.alphabet_substitute(*ab)


def test_wreath_char_values():
    assert wreath_char(((1,), ()), ((1,), ())) == 1
    assert wreath_char(((), (1,)), ((1,), ())) == 1
    assert wreath_char(((), (1,)), ((), (1,))) == -1
    for m in range(4):
        top = SymFunc2.one_row(m)
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
    # u[cZ] is the substitution by the one channel value c
    s1 = SymFunc1.basis_elem("s", ((1,),))
    f = s1.alphabet_substitute(one - q).to_basis("s")
    assert f.coeffs == {((1,),): one - q}
    assert s1.alphabet_substitute(one) == s1
    # s_(2)[Z/(1-q)] paired against h_2 = s_(2) is 1/((1-q)(1-q^2))
    s2_ = SymFunc1.basis_elem("s", ((2,),))
    val = s2_.alphabet_substitute((one - q).inverse()).hall_inner(s2_)
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
                got = SymFunc1("p", {(mu,): a}).alphabet_substitute(c)
                assert got.basis == "p" and got.coeffs == {(mu,): want}, (c.text(), mu)


def test_rectangular_substitutions_compose(rng):
    # a one-alphabet substitution b, then the merge into x0 + x1, then the
    # channel values (c+, c-): the merged function lives on p^+ alone, so
    # the composite is the merge after the substitution by b c+; and two
    # substitutions of the pair compose by multiplying channel values, also
    # when they depend on (q, t)
    def entry():
        return q * rng.randrange(-2, 3) + t * rng.randrange(-1, 2) + rng.randrange(-1, 2)

    for _ in range(3):
        b, cp, cm = entry(), entry(), entry()
        f = SymFunc1(
            rng.choice(("s", "p")),
            {(lam,): entry() for n in range(4) for lam in partition_list(n)},
        )
        merged = on_merged_alphabet(f.alphabet_substitute(b)).alphabet_substitute(cp, cm)
        assert merged == on_merged_alphabet(f.alphabet_substitute(b * cp))
        g, d = random_s2(rng, 2), (entry(), entry())
        twice = g.alphabet_substitute(cp, cm).alphabet_substitute(*d)
        assert twice == g.alphabet_substitute(cp * d[0], cm * d[1])


@pytest.mark.parametrize("cls", [SymFunc1, SymFunc2])
def test_subclasses_define_no_callable(cls):
    # every operation and both basis names live in the base class, once over
    # the tuple of per-alphabet partitions; a subclass names only its number
    # of alphabets
    own = {
        name
        for name, v in vars(cls).items()
        if callable(v) or isinstance(v, (staticmethod, classmethod, property))
    }
    assert not own, own
    assert {name for name in vars(cls) if not name.startswith("__")} == {"ALPHABETS"}
