import itertools
import sys

import pytest

from wreathmac.cli import main
from wreathmac.classtypes import parse_simple_type as pt
from wreathmac.hodge import ProblemSpec, compute_hodge, e_polynomial
from wreathmac.oracle import (
    RANK1_GENUS_LIMIT,
    count_points,
    genericity_check,
    require_countable,
    sym_char,
    twisted_class,
    twisted_type,
    wreath_group_char,
    _gl2,
)
from wreathmac.partitions import bipartition_list, partition_list, z_stat
from wreathmac.symfunc import schur_to_power, wreath_char


def test_genericity_examples():
    ok, wit = genericity_check([2, 1], 7, strong=True)
    assert ok and wit is None
    ok, wit = genericity_check([2, 3], 7, strong=False)
    assert not ok and wit["product"] == 1


def test_rank_one_counts():
    for prime in (5, 7):
        for g, k in ((0, 1), (1, 1), (0, 2)):
            got = count_points(1, g, prime, [1] * (2 * k))
            assert got == (prime - 1) ** (2 * (g + k - 1))


def test_rank_two_count_q7():
    assert count_points(2, 1, 7, [2, 1]) == 2 * 7**4 - 2 * 7**3 - 2 * 7 + 2


def test_rank_two_count_q13_both_orbits():
    prime = 13
    assert pow(5, 2, prime) == prime - 1
    got = count_points(2, 1, prime, [2, 5])
    assert got == prime**6 - 3 * prime**4 + 4 * prime**3 - 3 * prime**2 + 1


def test_twisted_orbit_sizes():
    G = _gl2(7)
    assert len(twisted_class(G, 1)) == 6  # |GL2|/|SL2| = q - 1
    assert len(twisted_class(G, 2)) == G.size // 6
    # a^2 = -1: both rational orbits, the matrices of trace 0
    assert len(twisted_class(_gl2(13), 5)) == 13**2 * 12


def test_rank_one_reach_bounds_the_digits_and_the_genus():
    # refused exactly when the count (q-1)^(2g) at 2k = 2 has more digits
    # than Python prints, or the genus is over the limit
    digits = sys.get_int_max_str_digits()
    for q, genera in ((3163, range(600, 630)), (3, range(990, 1010))):
        for g in genera:
            try:
                require_countable(1, g, q, [1, 1])
                refused = False
            except ValueError as exc:
                assert str(exc).startswith("out of reach"), exc
                refused = True
            too_long = (q - 1) ** (2 * g) >= 10**digits
            assert refused == (too_long or g > RANK1_GENUS_LIMIT), (q, g)


def test_rank_two_counts_match_the_formula_on_a_grid():
    # every strongly generic eigenvalue pair at q = 7, with the class types
    # that `wreathmac oracle` reads off the eigenvalues
    q, checked = 7, 0
    for g, eigs in itertools.product((0, 1), itertools.product(range(1, q), repeat=2)):
        if not genericity_check(list(eigs), q, strong=True)[0]:
            continue
        spec = ProblemSpec(g, 1, 2, tuple(twisted_type(a, q) for a in eigs))
        e, _ = e_polynomial(compute_hodge(spec))
        assert count_points(2, g, q, list(eigs)) == e.eval_at(q, 0), (g, eigs)
        checked += 1
    assert checked == 32


def _inverse_mod(m, q):
    a, b, c, d = m
    f = pow(a * d - b * c, -1, q)
    return (d * f % q, -b * f % q, -c * f % q, a * f % q)


def test_class_data_match_the_elementwise_reference():
    # each class is represented by its first member in the enumeration,
    # class_index reads back the class of every matrix, inverse_class holds
    # the class of each representative's inverse, and a matrix off the
    # group is refused
    G = _gl2(7)
    first = {}
    for idx, ci in enumerate(G.class_of):
        first.setdefault(int(ci), idx)
    assert [first[ci] for ci in range(G.nclasses)] == list(G.class_rep)
    assert (G.class_index(G.matrices) == G.class_of).all()
    matrices = list(zip(*(x.tolist() for x in G.matrices)))
    where = {m: idx for idx, m in enumerate(matrices)}
    for ci, ridx in enumerate(G.class_rep):
        inverse = _inverse_mod(matrices[ridx], G.q)
        assert G.inverse_class[ci] == G.class_of[where[inverse]]
    with pytest.raises(AssertionError, match="left the group"):
        G.class_index((1, 2, 2, 4))


def test_murnaghan_nakayama_matches_transition_tables():
    # pins the Jacobi-Trudi expansion of schur_to_power against the oracle's
    # independent border-strip rule
    for n in range(10):
        for lam in partition_list(n):
            for mu in partition_list(n):
                assert sym_char(lam, mu) == schur_to_power(lam).get(mu, 0) * z_stat(mu)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_wreath_characters_cross_validate(m):
    for alpha in bipartition_list(m):
        for beta in bipartition_list(m):
            assert wreath_group_char(m, alpha, beta) == wreath_char(alpha, beta)


def test_sign_character_on_negative_cycles():
    # the second-slot one-column label is the product-of-signs character
    # times the sign of the underlying permutation
    for m in (1, 2, 3):
        alpha = ((), (1,) * m)
        for beta in bipartition_list(m):
            sign_perm = (-1) ** (sum(beta[0]) - len(beta[0]) + sum(beta[1]) - len(beta[1]))
            assert wreath_group_char(m, alpha, beta) == (-1) ** len(beta[1]) * sign_perm


def test_nongeneric_divisibility_failure():
    # a blatantly non-generic configuration trips the exact-division check
    with pytest.raises(ArithmeticError):
        count_points(2, 0, 7, [2, 3])


def test_higher_genus_count_matches_formula():
    # genus-2 commutator convolution path
    count = count_points(2, 2, 7, [2, 1])
    spec = ProblemSpec(2, 1, 2, (pt("0,0:1"), pt("1,0:")))
    e, _ = e_polynomial(compute_hodge(spec))
    assert count == e.eval_at(7, 0)


@pytest.mark.parametrize("n, eigenvalues", [(1, [1, 1]), (2, [2, 3])])
def test_negative_genus_is_refused(n, eigenvalues):
    # refused before any counting, at either rank
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        count_points(n, -1, 5, eigenvalues)


@pytest.mark.parametrize("q", [1, 2, 4, 9])
def test_rank_one_refuses_a_field_size_that_is_no_odd_prime(q):
    # as at rank 2, and before any counting: 4 and 9 would fail in pow, 1
    # would divide by zero and 2 would return a count
    with pytest.raises(ValueError, match=f"^{q} is not an odd prime$"):
        count_points(1, 0, q, [1, 1])


@pytest.mark.parametrize(
    "n, g, q, eigenvalues, eigs, rule",
    [
        (2, 1, 9, [2, 1], ["2", "1"], "9 is not an odd prime"),
        (3, 1, 7, [1, 1], ["", ""], "rank 1 and 2 only, not n=3"),
        (1, -1, 5, [1, 1], ["", ""], "genus must be nonnegative"),
        (2, 1, 7, [2, 1, 3], ["2", "1", "3"], "positive even number"),
        (2, 1, 7, [7, 1], ["7", "1"], "units mod q=7"),
        (1, 1001, 3, [1, 1], ["", ""], "out of reach"),
    ],
)
def test_count_points_and_the_cli_refuse_with_one_message(
    capsys, n, g, q, eigenvalues, eigs, rule
):
    # one input rule broken each; ``wreathmac oracle`` prints the message
    # that ``count_points`` raises
    with pytest.raises(ValueError, match=rule) as refused:
        count_points(n, g, q, eigenvalues)
    argv = ["oracle", "--q", str(q), "--n", str(n), "--g", str(g)]
    for e in eigs:
        argv += ["--eigs", e]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (3, "", f"error: {refused.value}\n")


def test_four_punctures_count_matches_formula():
    # 2k = 4 pair-distribution convolution path, nonzero variety
    ok, _ = genericity_check([2, 2, 2, 3], 17, strong=True)
    assert ok
    count = count_points(2, 0, 17, [2, 2, 2, 3])
    spec = ProblemSpec(0, 2, 2, tuple(pt("0,0:1") for _ in range(4)))
    e, _ = e_polynomial(compute_hodge(spec))
    assert count == e.eval_at(17, 0) != 0


def test_weakly_generic_breaks_the_formula():
    # at q = 5 the class data is generic but not strongly generic (a squared
    # eigenvalue product hits -1); the count is then half the formula value,
    # demonstrating why strong genericity is required
    ok, wit = genericity_check([2, 1], 5, strong=False)
    assert ok
    ok, wit = genericity_check([2, 1], 5, strong=True)
    assert not ok and wit["product"] == 4
    count = count_points(2, 2, 5, [2, 1])
    spec = ProblemSpec(2, 1, 2, (pt("0,0:1"), pt("1,0:")))
    e, _ = e_polynomial(compute_hodge(spec))
    assert 2 * count == e.eval_at(5, 0)
