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
from math import prod

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
    hook_product,
    hooks,
    n_stat,
    parse_bipartition,
    parse_partition,
    partitions_of,
)
from .series import (
    one_param_star_terms,
    one_param_wreath_terms,
    principal_schur,
    star_series_terms,
    wreath_series_terms,
)
from .symfunc import SymFunc1, SymFunc2, schur_indices, wreath_char
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


# the fixture tables of each family and its pairings, as (core, key suffix):
# the size-1 tables hold at both cores
GOLDEN_TABLES = ((0, "size1"), (1, "size1"), (0, "core0_size2"), (1, "core1_size2"))


def c01_wreath_golden_tables():
    fx = _fixture("wreath_reference.json")
    for core, key in GOLDEN_TABLES:
        for label, row in fx["wreath_" + key].items():
            got = wreath_H(parse_bipartition(label), core).coeffs
            want = {parse_bipartition(b): RatFun.from_json(v) for b, v in row.items()}
            if got != want:
                return False, f"{key} family mismatch at {label} core {core}"
    return True, "degree-1 and degree-2 families, both cores"


def c02_pairing_golden_tables():
    fx = _fixture("wreath_reference.json")
    for core, key in GOLDEN_TABLES:
        for label, value in fx["pair_" + key].items():
            if wreath_N(parse_bipartition(label), core) != RatFun.from_json(value):
                return False, f"{key} pairing mismatch at {label} core {core}"
    mac = fx["macdonald_deg2"]
    for label, row in mac["H"].items():
        got = macdonald_H((parse_partition(label),)).coeffs
        want = {(parse_partition(b),): RatFun.from_json(v) for b, v in row.items()}
        if got != want:
            return False, f"Macdonald expansion mismatch at {label}"
    for label, value in mac["N"].items():
        lam = parse_partition(label)
        want = RatFun.from_json(value)
        if hook_product(lam, PAIRING_QT) != want:
            return False, f"Macdonald hook pairing mismatch at {label}"
        H = macdonald_H((lam,))
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


def _principal(cls, b) -> tuple:
    """s_b[PX] in the Schur basis of ``cls``, and <s_b[PX], s_top>, its
    coefficient at the one-row Schur function that ``triangular_family``
    normalises on."""
    n = sum(map(sum, b))
    sPX = principal_schur(cls, b).to_basis(cls.SCHUR)
    return sPX, sPX.coeffs[cls.one_row(n)]


T_INV_Q = (1, 0, -1, 0)  # t -> 1/q
Q_TO_Z2 = (2, 0, 0, 0)  # q -> z^2

# the families of the t = 1/q lemma: name, class, largest size checked, and
# the function H and the self-pairing N of a label
LEMMA_FAMILIES = (
    ("Macdonald", SymFunc1, 6, lambda b: macdonald_H(b), lambda b: hook_product(b[0], PAIRING_QT)),
    ("wreath core 0", SymFunc2, 4, lambda b: wreath_H(b, 0), lambda b: wreath_N(b, 0)),
    ("wreath core 1", SymFunc2, 4, lambda b: wreath_H(b, 1), lambda b: wreath_N(b, 1)),
)


def c08_specialization_lemmas():
    # with f = <s_b[PX], s_top>, f H at t = 1/q is s_b[PX] and f^2 N at
    # t = 1/q is q^(-n)
    for name, cls, size, H, N in LEMMA_FAMILIES:
        for n in range(size + 1):
            for b in schur_indices(cls.ALPHABETS, n):
                sPX, f = _principal(cls, b)
                lhs = {key: c.monomial_map(T_INV_Q) * f for key, c in H(b).coeffs.items()}
                if lhs != sPX.coeffs:
                    return False, f"{name} t=1/q specialization fails at {b}"
                if N(b).monomial_map(T_INV_Q) * f * f != RatFun.monomial((-n, 0)):
                    return False, f"{name} pairing specialization fails at {b}"
    # termwise series specialisation, sizes <= 2, at z = sqrt(q), w = 1/sqrt(q)
    # read in z: T_INV_Q sends z^a w^b to z^(a - b), and Q_TO_Z2 the
    # one-parameter side from q to z (q -> z^2 is injective)
    for g, k in ((0, 1), (0, 2), (1, 1)):
        series = []
        for core in (0, 1):
            two, onep = wreath_series_terms(core, g, k, 2), one_param_wreath_terms(core, g, k, 2)
            series.append((f"wreath core {core}", SymFunc2, two, onep))
        series.append(("star", SymFunc1, star_series_terms(g, k, 2), one_param_star_terms(g, k, 2)))
        for name, cls, two, onep in series:
            onep = {term.index: term for term in onep}
            for term in two:
                ref = onep[term.index]
                _, f = _principal(cls, term.index)
                want = (ref.coeff * f ** (2 * k)).monomial_map(Q_TO_Z2)
                if term.coeff.monomial_map(T_INV_Q) != want:
                    return False, f"{name} series coefficient fails at {term.index} g={g} k={k}"
                # the constructor drops a coefficient that vanishes at t = 1/q
                lhs = {key: c.monomial_map(T_INV_Q) * f for key, c in term.factor.coeffs.items()}
                if SymFunc2(term.factor.basis, lhs).coeffs != ref.factor.coeffs:
                    return False, f"{name} series factor fails at {term.index} g={g} k={k}"
    return True, "t=1/q lemmas to size 6 (Macdonald), 4 (wreath, both cores); series to size 2"


def c09_partition_identities():
    for n in range(7):
        for lam in partitions_of(n):
            total = sum(h for _, _, h in hooks(lam))
            if total != n + n_stat(lam) + n_stat(dual(lam)):
                return False, f"hook-sum identity fails at {lam}"
            _, f = _principal(SymFunc1, (lam,))
            # s_lam[1/(1 - q)] = q^n(lam) / prod (1 - q^hook)
            hook_poly = prod((1 - RatFun.monomial((h, 0)) for *_, h in hooks(lam)), start=1)
            if f * hook_poly != RatFun.monomial((n_stat(lam), 0)):
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
