"""Release gate: every acceptance criterion must pass at exact tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; the same checks back ``wreathmac selftest``.  The criteria run
once, through ``run_criteria``, and every test reads that one run.
"""

import pytest

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
