"""Acceptance suite: every headline criterion at its stated tolerance.

Each test runs one named verification check at its full ranges, prints
its pass/fail line, and asserts the tolerance.  The same checks back
the CLI ``verify`` command, so an exit-0 ``dyonstark verify`` and a
green run of this module are the same statement.
"""

import pytest

from dyonstark.verify import CHECKS, CheckResult, run_check

CRITERIA = [
    "hydrogen-regression",
    "integral-closed-forms",
    "shift-formula-identity",
    "oracle-equivalence",
    "degeneracy-removal",
    "shell-splitting",
    "dipole-consistency",
    "shell-cardinality",
    "wavefunction-suites",
    "numerical-kernels",
]

INVARIANT_SUITES = [
    "specfun-invariants",
    "quadrature-invariants",
    "states-invariants",
    "stark-invariants",
    "oracle-invariants",
]


@pytest.mark.parametrize("check_id", CRITERIA)
def test_acceptance_criterion(check_id):
    result = run_check(check_id)
    print(result.line())
    for note in result.notes:
        print(f"    note: {note}")
    assert result.passed, result.line()


@pytest.mark.parametrize("check_id", INVARIANT_SUITES)
def test_invariant_suite(check_id):
    result = run_check(check_id)
    print(result.line())
    assert result.passed, result.line()


def test_registry_is_complete():
    assert set(CRITERIA) | set(INVARIANT_SUITES) == set(CHECKS)


def test_check_without_cases_fails():
    assert CheckResult("c99-stub", True, 0.0, 1e-12, cases=1).passed
    empty = CheckResult("c99-stub", True, 0.0, 1e-12)
    assert not empty.passed
    assert "cases=0" in empty.line()
