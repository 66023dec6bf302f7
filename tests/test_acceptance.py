"""Acceptance suite: every headline criterion at its stated tolerance.

Each test runs one named verification check at its full ranges, prints
its pass/fail line, and asserts the tolerance.  The same checks back
the CLI ``verify`` command, so an exit-0 ``dyonstark verify`` and a
green run of this module are the same statement.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from dyonstark import verify
from dyonstark.verify import CHECKS, CheckResult, check_key, run_check

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


# cases of every check at full ranges and at --max-n 2; a change to what a
# check compares shows up here
CASES = {
    "hydrogen-regression": (8, 8),
    "integral-closed-forms": (4620, 924),
    "shift-formula-identity": (1639, 12),
    "oracle-equivalence": (102, 14),
    "degeneracy-removal": (220, 4),
    "shell-splitting": (34, 6),
    "dipole-consistency": (136, 15),
    "shell-cardinality": (1168, 14),
    "wavefunction-suites": (571, 57),
    "numerical-kernels": (4339, 4339),
    "specfun-invariants": (3832, 3832),
    "quadrature-invariants": (16, 16),
    "states-invariants": (1006, 1003),
    "stark-invariants": (187, 11),
    "oracle-invariants": (295, 55),
}


@pytest.mark.parametrize("check_id", CRITERIA)
def test_acceptance_criterion(check_id):
    result = run_check(check_id)
    print(result.line())
    for note in result.notes:
        print(f"    note: {note}")
    assert result.passed, result.line()
    assert result.cases == CASES[check_id][0]


@pytest.mark.parametrize("check_id", INVARIANT_SUITES)
def test_invariant_suite(check_id):
    result = run_check(check_id)
    print(result.line())
    assert result.passed, result.line()
    assert result.cases == CASES[check_id][0]


@pytest.mark.parametrize("check_id", list(CASES))
def test_quick_mode_cases(check_id):
    result = run_check(check_id, max_n=2)
    assert result.passed, result.line()
    assert result.cases == CASES[check_id][1]
    # the report id selects the same check
    assert check_key(result.check_id) == check_id


def test_registry_is_complete():
    assert set(CRITERIA) | set(INVARIANT_SUITES) == set(CHECKS) == set(CASES)


def test_check_without_cases_fails():
    assert CheckResult("c99-stub", True, 0.0, 1e-12, cases=1).passed
    empty = CheckResult("c99-stub", True, 0.0, 1e-12)
    assert not empty.passed
    assert "cases=0" in empty.line()


def _drop_last_sector(sectors):
    # a one-sector shell (n = 1) keeps its sector: c04 needs one to bound off-diagonals
    return sectors[:-1] if len(sectors) > 1 else sectors


def _grow_largest_sector(sectors):
    big = max(range(len(sectors)), key=lambda i: sectors[i].dimension)
    sub = sectors[big]
    grown = replace(sub, basis=(*sub.basis, sub.basis[-1]), entries=np.pad(sub.entries, (0, 1)))
    return [*sectors[:big], grown, *sectors[big + 1:]]


def _add_a_sector(sectors):
    return [*sectors, replace(sectors[-1], m=sectors[-1].m + 1)]


@pytest.mark.parametrize("mutate", [_drop_last_sector, _grow_largest_sector, _add_a_sector])
def test_oracle_equivalence_compares_the_sector_partition(monkeypatch, mutate):
    # c04 holds the oracle's m sectors to the shell enumeration's, exactly
    shell_sectors = verify.oracle.shell_sectors
    monkeypatch.setattr(verify.oracle, "shell_sectors", lambda *args: mutate(shell_sectors(*args)))
    result = run_check("oracle-equivalence", max_n=2)
    assert not result.passed
    assert result.tol == 0.0
    assert result.max_err >= 1
    assert "sectors" in result.detail


@pytest.mark.parametrize("max_n, builds", [(2, 9), (None, 53)])
def test_oracle_equivalence_builds_each_sector_once(monkeypatch, max_n, builds):
    build, calls = verify.oracle.build_subspace, []

    def counting(*args):
        calls.append(args[:3])
        return build(*args)

    monkeypatch.setattr(verify.oracle, "build_subspace", counting)
    assert run_check("oracle-equivalence", max_n=max_n).passed
    assert len(calls) == len(set(calls)) == builds


class TestBounds:
    """The accumulator behind every check: verdict and report from one set of numbers."""

    def test_breaching_only_the_tighter_bound_fails_and_reports_it(self):
        bounds = verify._Bounds(tight=1e-12, loose=1e-6)
        bounds.add("tight", 5e-12, cases=4)
        bounds.add("loose", 1e-7, cases=4)
        result = bounds.result("c99-stub", "stub")
        assert not result.passed
        assert (result.max_err, result.tol, result.cases) == (5e-12, 1e-12, 8)
        assert result.line().startswith(
            "[FAIL] c99-stub: cases=8 max_err=5.000e-12 tol=1.0e-12 margin=5.00e+00 stub; "
        )
        assert "tight 5.00e-12 (tol 1e-12), loose 1.00e-07 (tol 1e-06)" in result.detail

    def test_one_exact_failure_fails(self):
        bounds = verify._Bounds(rel=1e-6, exact=0.0)
        for _ in range(10):
            bounds.add("rel", 1e-9)
        bounds.add("exact", 1, cases=0)
        result = bounds.result("c99-stub", "stub")
        assert not result.passed
        assert (result.max_err, result.tol, result.cases) == (1.0, 0.0, 10)
        assert "exact 1 (exact)" in result.detail

    def test_zero_cases_fails(self):
        result = verify._Bounds(rel=1e-6, exact=0.0).result("c99-stub", "stub")
        assert not result.passed
        assert (result.max_err, result.tol, result.cases) == (0.0, 1e-6, 0)

    def test_passing_reports_the_bound_closest_to_its_tolerance(self):
        bounds = verify._Bounds(loose=1e-8, tight=1e-10, exact=0.0)
        bounds.add("loose", 6e-15)
        bounds.add("tight", 4e-16)
        bounds.add("exact", 0)
        result = bounds.result("c99-stub", "stub")
        assert result.passed
        assert (result.max_err, result.tol) == (4e-16, 1e-10)

    def test_nan_sticks_and_fails(self):
        bounds = verify._Bounds(rel=1e-6)
        bounds.add("rel", math.nan)
        bounds.add("rel", 1e-9)
        result = bounds.result("c99-stub", "stub")
        assert not result.passed
        assert math.isnan(result.max_err)

    @pytest.mark.parametrize(
        "max_err, tol, margin", [(5e-12, 1e-12, 5.0), (0.0, 0.0, 0.0), (1.0, 0.0, math.inf), (0.0, 1e-6, 0.0)]
    )
    def test_margin_is_error_over_tolerance(self, max_err, tol, margin):
        assert CheckResult("c99-stub", True, max_err, tol, cases=1).margin == margin

    def test_run_check_times_the_check_once(self, monkeypatch):
        result = CheckResult("c99-stub", True, 0.0, 0.0, cases=1)
        monkeypatch.setitem(CHECKS, "stub", lambda max_n=None: result)
        clock = iter([10.0, 12.5])
        monkeypatch.setattr(verify.time, "perf_counter", lambda: next(clock))
        assert run_check("stub") is result
        assert result.elapsed_s == 2.5

    def test_check_reports_its_binding_bound(self, monkeypatch):
        # an analytic error of 5e-12 breaches c01's 1e-12 bound, not its 1e-6 one
        closed_form = verify.stark.shift_closed_form
        monkeypatch.setattr(
            verify.stark, "shift_closed_form", lambda *args: closed_form(*args) + 1.5e-11
        )
        result = run_check("hydrogen-regression")
        assert not result.passed
        assert result.tol == 1e-12
        assert result.max_err == pytest.approx(5e-12, rel=1e-3)
