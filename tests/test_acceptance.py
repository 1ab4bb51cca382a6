"""Release gate: every acceptance criterion must pass at exact tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; the same checks back ``wreathmac selftest``.  The criteria run
once, through ``run_criteria``, and every test reads that one run.
"""

import pytest

from wreathmac import acceptance
from wreathmac.acceptance import CRITERIA, run_criteria

NAMES = [name for name, _ in CRITERIA]


@pytest.fixture(scope="module")
def results():
    return run_criteria()


@pytest.mark.parametrize("name", NAMES, ids=NAMES)
def test_criterion(name, results):
    (result,) = [r for r in results if r.name == name]
    print(f"{'PASS' if result.passed else 'FAIL'} {name}: {result.detail}")
    assert result.passed, f"{name}: {result.detail}"


def test_runner_covers_all_criteria(results):
    assert [r.name for r in results] == NAMES
    assert all(r.passed for r in results)


@pytest.mark.parametrize(
    "name, at, detail",
    [
        ("macdonald_H", (((3, 2, 1),),), "Macdonald t=1/q specialization fails at ((3, 2, 1),)"),
        (
            "wreath_H",
            (((2,), (1, 1)), 1),
            "wreath core 1 t=1/q specialization fails at ((2,), (1, 1))",
        ),
    ],
    ids=["macdonald", "wreath-core-1"],
)
def test_c08_sees_a_wrong_coefficient_in_each_family(monkeypatch, name, at, detail):
    # one Schur coefficient planted wrong at the largest size checked: the
    # lemma loop reaches every family up to its size bound
    real = getattr(acceptance, name)

    def planted(*args):
        H = real(*args)
        if args != at:
            return H
        coeffs = dict(H.coeffs)
        key = min(coeffs)
        coeffs[key] = coeffs[key] + 1
        return type(H)(H.basis, coeffs)

    monkeypatch.setattr(acceptance, name, planted)
    assert acceptance.c08_specialization_lemmas() == (False, detail)
