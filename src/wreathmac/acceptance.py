"""Acceptance suite: one callable per release criterion, with golden data
loaded from the frozen fixtures.  Used both by ``wreathmac selftest`` and by
the pytest acceptance module.  All comparisons are exact.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from functools import lru_cache
from importlib import resources

from .algebra import RatFun
from .classtypes import parse_simple_type
from .hodge import CHECK_KEYS, ProblemSpec, compute_hodge, e_polynomial
from .macdonald import macdonald_H, qt_inner
from .oracle import count_points, wreath_group_char
from .partitions import (
    PAIRING_QT,
    bipartition_list,
    brace,
    dual,
    hook_poly,
    hook_product,
    hooks,
    n_stat,
    parse_bipartition,
    parse_partition,
    partition_list,
    partitions_of,
)
from .series import (
    one_param_star_terms,
    one_param_wreath_terms,
    star_series_terms,
    wreath_series_terms,
)
from .symfunc import SymFunc1, SymFunc2, wreath_char
from .wreath import wreath_H, wreath_N


class CriterionResult(namedtuple("CriterionResult", "name passed detail elapsed")):
    # name: str; passed: bool; detail: str; elapsed: seconds (float)
    __slots__ = ()


def _fixture(name: str) -> dict:
    with resources.files("wreathmac.fixtures").joinpath(name).open() as fh:
        return json.load(fh)


def _spec_from_fixture(entry) -> ProblemSpec:
    return ProblemSpec(
        entry["g"], entry["k"], entry["n"], tuple(parse_simple_type(c) for c in entry["classes"])
    )


# ---------------------------------------------------------------------------
# criteria


def c01_wreath_golden_tables():
    fx = _fixture("wreath_reference.json")
    for core in (0, 1):
        for label, row in fx["wreath_size1"].items():
            got = wreath_H(parse_bipartition(label), core).coeffs
            want = {parse_bipartition(b): RatFun.from_json(v) for b, v in row.items()}
            if got != want:
                return False, f"size-1 family mismatch at {label} core {core}"
    for core, key in ((0, "wreath_core0_size2"), (1, "wreath_core1_size2")):
        for label, row in fx[key].items():
            got = wreath_H(parse_bipartition(label), core).coeffs
            want = {parse_bipartition(b): RatFun.from_json(v) for b, v in row.items()}
            if got != want:
                return False, f"size-2 family mismatch at {label} core {core}"
    return True, "degree-1 and degree-2 families, both cores"


def c02_pairing_golden_tables():
    fx = _fixture("wreath_reference.json")
    for core in (0, 1):
        for label, value in fx["pair_size1"].items():
            if wreath_N(parse_bipartition(label), core).total != RatFun.from_json(value):
                return False, f"size-1 pairing mismatch at {label} core {core}"
    for core, key in ((0, "pair_core0_size2"), (1, "pair_core1_size2")):
        for label, value in fx[key].items():
            if wreath_N(parse_bipartition(label), core).total != RatFun.from_json(value):
                return False, f"size-2 pairing mismatch at {label} core {core}"
    mac = fx["macdonald_deg2"]
    for label, row in mac["H"].items():
        got = macdonald_H(parse_partition(label)).coeffs
        want = {(parse_partition(b),): RatFun.from_json(v) for b, v in row.items()}
        if got != want:
            return False, f"Macdonald expansion mismatch at {label}"
    for label, value in mac["N"].items():
        lam = parse_partition(label)
        want = RatFun.from_json(value)
        if hook_product(lam, PAIRING_QT) != want:
            return False, f"Macdonald hook pairing mismatch at {label}"
        H = macdonald_H(lam)
        if qt_inner(H, H) != want:
            return False, f"Macdonald self-pairing mismatch at {label}"
    return True, "pairings incl. the core-1 label exchange; Macdonald degree 2"


def c03_two_variable_goldens():
    fx = _fixture("hodge_goldens.json")
    for key in ("hb_n4", "hb_n5"):
        entry = fx[key]
        spec = _spec_from_fixture(entry)
        result = compute_hodge(spec)
        want = RatFun.from_json(entry["zw"])
        if result.zw != want:
            return False, f"{key} polynomial mismatch"
        if result.d != entry["d"]:
            return False, f"{key} dimension mismatch"
    return True, "rank-4 and rank-5 polynomials coefficient-for-coefficient"


PROPERTY_CONFIGS = [
    (0, 2, 4, ("0,0:1 1", "0,0:1 1", "2,0:", "2,0:")),
    (0, 2, 5, ("0,0:1 1", "1,0:1", "2,0:", "2,0:")),
    (1, 1, 2, ("0,0:1", "1,0:")),
    (0, 2, 2, ("0,0:1", "0,0:1", "0,0:1", "1,0:")),
    (0, 2, 3, ("0,0:1",) * 4),
    (0, 2, 3, ("0,0:1", "0,0:1", "0,0:1", "1,0:")),
    (1, 1, 3, ("0,0:1", "1,0:")),
    (1, 1, 4, ("0,0:1 1", "2,0:")),
    (1, 1, 5, ("0,0:1 1", "1,0:1")),
    (2, 1, 1, ("0,0:", "0,0:")),
    (1, 1, 4, ("1,0:1", "0,0:2")),
    (0, 2, 4, ("1,0:1", "0,0:2", "2,0:", "2,0:")),
    (1, 1, 5, ("1,0:1", "0,0:2")),
    (0, 2, 5, ("1,0:1", "0,0:2", "2,0:", "2,0:")),
]

@lru_cache(maxsize=None)
def _config_result(cfg):
    g, k, n, classes = cfg
    spec = ProblemSpec(g, k, n, tuple(parse_simple_type(c) for c in classes))
    return spec, compute_hodge(spec)


def c04_polynomiality_properties():
    eq_report = []
    for cfg in PROPERTY_CONFIGS:
        spec, result = _config_result(cfg)
        for key in CHECK_KEYS:
            if result.checks.get(key) is not True:
                return False, f"{key} failed for {cfg}"
        eq_report.append(result.checks.get("degree_eq_d"))
    return True, f"{len(PROPERTY_CONFIGS)} configs; degree equality: {eq_report}"


def c05_e_polynomial_routes():
    for cfg in PROPERTY_CONFIGS:
        _, result = _config_result(cfg)
        try:
            _, checks = e_polynomial(result)
        except ArithmeticError as exc:
            return False, f"routes disagree for {cfg}: {exc}"
        if not checks["palindromic"]:
            return False, f"palindromicity failed for {cfg}"
    return True, f"substitution and hook-series routes agree on {len(PROPERTY_CONFIGS)} configs"


def c06_rank3_e_polynomials():
    fx = _fixture("hodge_goldens.json")
    for key in ("e_n3_all_regular", "e_n3_with_special", "e_n2_g1k1"):
        entry = fx[key]
        spec = _spec_from_fixture(entry)
        e, _ = e_polynomial(compute_hodge(spec))
        if e != RatFun.from_json(entry["e"]):
            return False, f"{key} mismatch: got {e.text()}"
    return True, "published rank-3 and rank-2 E-polynomials"


def c07_finite_field_oracle():
    got = count_points(2, 1, 7, [2, 1])
    if got != 2 * 7**4 - 2 * 7**3 - 2 * 7 + 2:
        return False, f"q=7 count {got}"
    q = 13
    got = count_points(2, 1, q, [2, 5])
    if got != q**6 - 3 * q**4 + 4 * q**3 - 3 * q**2 + 1:
        return False, f"q=13 count {got}"
    for q in (5, 7):
        for g, k in ((0, 1), (1, 1), (0, 2)):
            got = count_points(1, g, q, [1] * (2 * k))
            if got != (q - 1) ** (2 * (g + k - 1)):
                return False, f"rank-1 count mismatch at q={q} g={g} k={k}"
    return True, "rank-2 counts at q=7, q=13 and the rank-1 torus grid"


def _scalar_eval(lam, c: RatFun) -> RatFun:
    """s_lam evaluated on the scalar alphabet c: s_lam[cZ] paired with
    h_n = s_(n), since <p_mu, h_n> = 1 for every mu of size n."""
    h_n = SymFunc1.basis_elem("s", ((sum(lam),) if lam else (),))
    return SymFunc1.basis_elem("s", (lam,)).alphabet_substitute(c).hall_inner(h_n)


def _map_coeffs(f: SymFunc2, op) -> SymFunc2:
    """The function with ``op`` applied to each coefficient, compared as a
    function: a coefficient that ``op`` sends to zero is dropped."""
    return SymFunc2(f.basis, {key: op(c) for key, c in f.coeffs.items()})


def c08_specialization_lemmas():
    q = RatFun.var(0)
    one = RatFun.one()
    inv1mq = (one - q).inverse()
    t_to_qinv = (1, 0, -1, 0)
    # Macdonald specializations, sizes <= 2
    for n in range(3):
        for lam in partition_list(n):
            f = _scalar_eval(lam, inv1mq).inverse()
            H = macdonald_H(lam)
            lhs = {k: c.monomial_map(t_to_qinv) for k, c in H.coeffs.items()}
            srat = SymFunc1.basis_elem("s", (lam,)).alphabet_substitute(inv1mq).to_basis("s")
            rhs = {k: c * f for k, c in srat.coeffs.items() if not (c * f).is_zero()}
            if lhs != rhs:
                return False, f"Macdonald t=1/q specialization fails at {lam}"
            pairing = hook_product(lam, PAIRING_QT)
            if pairing.monomial_map(t_to_qinv) != RatFun.monomial((-n, 0)) * f * f:
                return False, f"Macdonald pairing specialization fails at {lam}"
    # wreath specializations, sizes <= 2, both cores
    inv1mq2 = (one - q * q).inverse()
    P = (inv1mq, (one + q).inverse())  # (I - qK)^(-1) on p^+_r and on p^-_r
    for n in range(3):
        for bp in bipartition_list(n):
            f = (
                _scalar_eval(bp[0], inv1mq2) * _scalar_eval(bp[1], q * inv1mq2)
            ).inverse()
            sPX = SymFunc2.basis_elem("s2", bp).alphabet_substitute(*P).to_basis("s2")
            for core in (0, 1):
                H = wreath_H(bp, core)
                lhs = {k: c.monomial_map(t_to_qinv) for k, c in H.coeffs.items()}
                rhs = {
                    k: c * f for k, c in sPX.coeffs.items() if not (c * f).is_zero()
                }
                if lhs != rhs:
                    return False, f"wreath t=1/q specialization fails at {bp} core {core}"
                total = wreath_N(bp, core).total
                if total.monomial_map(t_to_qinv) != RatFun.monomial((-n, 0)) * f * f:
                    return False, f"wreath pairing specialization fails at {bp} core {core}"
    # termwise series specialization at z = sqrt(q), w = 1/sqrt(q), read in
    # z: t_to_qinv sends z^a w^b to z^(a - b), and q_to_z2 the one-parameter
    # side from q to z (q -> z^2 is injective)
    q_to_z2 = (2, 0, 0, 0)
    for g, k in ((0, 1), (0, 2), (1, 1)):
        for core in (0, 1):
            two = {t.index: t for t in wreath_series_terms(core, g, k, 2)}
            onep = {t.index: t for t in one_param_wreath_terms(core, g, k, 2)}
            for bp, term in two.items():
                f = (
                    _scalar_eval(bp[0], inv1mq2) * _scalar_eval(bp[1], q * inv1mq2)
                ).inverse()
                lhs = term.coeff.monomial_map(t_to_qinv) * f.monomial_map(q_to_z2) ** (2 * k)
                if lhs != onep[bp].coeff.monomial_map(q_to_z2):
                    return False, f"series coefficient fails at {bp} core {core} g={g} k={k}"
                spec_factor = _map_coeffs(term.factor, lambda c: c.monomial_map(t_to_qinv))
                if spec_factor != _map_coeffs(onep[bp].factor, lambda c: c * f):
                    return False, f"series factor fails at {bp} core {core} g={g} k={k}"
        two = {t.index: t for t in star_series_terms(g, k, 2)}
        onep = {t.index: t for t in one_param_star_terms(g, k, 2)}
        for lam, term in two.items():
            f = _scalar_eval(lam, inv1mq).inverse()
            lhs = term.coeff.monomial_map(t_to_qinv) * f.monomial_map(q_to_z2) ** (2 * k)
            if lhs != onep[lam].coeff.monomial_map(q_to_z2):
                return False, f"diagonal series coefficient fails at {lam} g={g} k={k}"
            spec_factor = _map_coeffs(term.factor, lambda c: c.monomial_map(t_to_qinv))
            if spec_factor != _map_coeffs(onep[lam].factor, lambda c: c * f):
                return False, f"diagonal series factor fails at {lam} g={g} k={k}"
    return True, "t=1/q lemmas and termwise series specialization, sizes <= 2"


def c09_partition_identities():
    for n in range(7):
        for lam in partitions_of(n):
            total = sum(h for _, _, h in hooks(lam))
            if total != n + n_stat(lam) + n_stat(dual(lam)):
                return False, f"hook-sum identity fails at {lam}"
            q = RatFun.var(0)
            f = _scalar_eval(lam, (RatFun.one() - q).inverse())
            if f != RatFun.monomial((n_stat(lam), 0)) / hook_poly(lam):
                return False, f"principal specialization fails at {lam}"
    for n in range(11):
        # a partition's number of even hooks is its 2-weight
        labels = [brace(bp, n % 2) for bp in bipartition_list(n // 2)]
        weight = {lam: sum(h % 2 == 0 for *_, h in hooks(lam)) for lam in partitions_of(n)}
        if len(set(labels)) != len(labels):
            return False, f"2-quotient labels of size {n} collide"
        if set(labels) != {lam for lam, w in weight.items() if w == n // 2}:
            return False, f"2-quotient labels of size {n} miss the 2-core ({n % 2})"
    return True, "hook sums, principal specialization <= 6, 2-quotient labels <= 10"


def c10_character_cross_validation():
    for m in range(4):
        for alpha in bipartition_list(m):
            for beta in bipartition_list(m):
                if wreath_group_char(m, alpha, beta) != wreath_char(alpha, beta):
                    return False, f"wreath character mismatch at {alpha}, {beta}"
    return True, "wreath characters m <= 3"


CRITERIA = [
    ("01-wreath-golden-tables", c01_wreath_golden_tables),
    ("02-pairing-golden-tables", c02_pairing_golden_tables),
    ("03-two-variable-goldens", c03_two_variable_goldens),
    ("04-polynomiality-properties", c04_polynomiality_properties),
    ("05-e-polynomial-routes", c05_e_polynomial_routes),
    ("06-rank3-e-polynomials", c06_rank3_e_polynomials),
    ("07-finite-field-oracle", c07_finite_field_oracle),
    ("08-specialization-lemmas", c08_specialization_lemmas),
    ("09-partition-identities", c09_partition_identities),
    ("10-character-cross-validation", c10_character_cross_validation),
]


def run_criteria(filter_substr: str = "") -> list[CriterionResult]:
    results = []
    for name, fn in CRITERIA:
        if filter_substr and filter_substr not in name:
            continue
        start = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        results.append(CriterionResult(name, passed, detail, time.time() - start))
    return results
