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

from dyonstark import specfun, verify
from dyonstark.specfun import half
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
    "integral-closed-forms": (59895, 11979),
    "shift-formula-identity": (1639, 12),
    "oracle-equivalence": (102, 14),
    "degeneracy-removal": (220, 4),
    "shell-splitting": (34, 6),
    "dipole-consistency": (136, 15),
    "shell-cardinality": (1168, 14),
    "wavefunction-suites": (571, 40),
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


@pytest.mark.parametrize("max_n", [-1, 0, 1, 1.5])
def test_hydrogen_regression_checks_no_shell_below_n_2(max_n):
    result = run_check("hydrogen-regression", max_n=max_n)
    assert not result.passed
    assert result.cases == 0


def test_shell_splitting_fails_on_a_formula_off_by_5e_4(monkeypatch):
    # rounded to twelfths, the formula 5e-4 off still gives the exact spread
    # at n = 4, 5 and 6, so only the float comparison sees it
    shell_splitting = verify.stark.shell_splitting

    def off(n, s, field, params):
        value = shell_splitting(n, s, field, params)
        return value * (1.0 + 5e-4) if half(n).value >= 4 else value

    monkeypatch.setattr(verify.stark, "shell_splitting", off)
    result = run_check("shell-splitting")
    assert not result.passed
    assert "sector 0 (exact)" in result.detail
    assert result.tol == 1e-15
    assert result.max_err == pytest.approx(5e-4, rel=1e-6)


def test_closed_form_checks_build_no_state(monkeypatch):
    # c01, c03, c04, c05, c06, c07 and inv-stark read label arrays and exact brackets
    # alone: the integral-form shift and the operator dipole take label arrays too
    def refuse(self):
        raise AssertionError("a ParabolicState was built")

    monkeypatch.setattr(verify.states.ParabolicState, "__post_init__", refuse)
    for check_id in (
        "hydrogen-regression",
        "shift-formula-identity",
        "oracle-equivalence",
        "degeneracy-removal",
        "shell-splitting",
        "dipole-consistency",
        "stark-invariants",
    ):
        result = run_check(check_id)
        assert result.passed, result.line()
        assert result.cases == CASES[check_id][0]


@pytest.mark.parametrize("check_id", ["shift-formula-identity", "dipole-consistency"])
def test_printed_table_is_joined_by_label(monkeypatch, check_id):
    # a table whose last row carries the first row's label has the shell's row
    # count but not its label set, so every printed value joins as NaN
    shift_columns = verify.tables.shift_columns

    def relabelled(*args):
        columns = shift_columns(*args)
        for key in ("n1", "n2", "m2"):
            columns[key][-1] = columns[key][0]
        return columns

    monkeypatch.setattr(verify.tables, "shift_columns", relabelled)
    result = run_check(check_id, max_n=2)
    assert not result.passed
    assert math.isnan(result.max_err)
    assert "table nan (exact)" in result.detail


def _drop_last_sector(sectors):
    # a one-sector shell (n = 1) keeps its sector: c04 needs one to bound off-diagonals
    return sectors[:-1] if len(sectors) > 1 else sectors


def _grow_largest_sector(sectors):
    big = max(range(len(sectors)), key=lambda i: sectors[i].dimension)
    sub = sectors[big]
    grown = replace(sub, entries=np.pad(sub.entries, (0, 1)))
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


def test_oracle_equivalence_bounds_offdiagonals_by_the_largest_shift(monkeypatch):
    # 5e-11 a|e|eps off the diagonal of one sector is 1.7e-11 of the n = 2
    # hydrogen shell's largest shift (3 a|e|eps), past c04's 1e-12
    shell_sectors = verify.oracle.shell_sectors

    def perturbed(*args):
        sectors = shell_sectors(*args)
        if args[:2] != (half(2), half(0)):
            return sectors
        i = next(i for i, sub in enumerate(sectors) if sub.dimension > 1)
        entries = sectors[i].entries + 5e-11 * (1.0 - np.eye(sectors[i].dimension))
        return [*sectors[:i], replace(sectors[i], entries=entries), *sectors[i + 1:]]

    monkeypatch.setattr(verify.oracle, "shell_sectors", perturbed)
    result = run_check("oracle-equivalence", max_n=2)
    assert not result.passed
    assert result.tol == 1e-12
    assert result.max_err == pytest.approx(5e-11 / 3.0, rel=1e-3)


@pytest.mark.parametrize("max_n, builds, grams", [(2, 9, 8), (None, 53, 47)])
def test_oracle_equivalence_builds_each_sector_once(monkeypatch, max_n, builds, grams):
    # one build per sector, and one Gram pair per distinct (k, |q|) of each shell
    oracle = verify.oracle
    build, factor, calls, pairs = oracle.build_subspace, oracle.phi_grams, [], []

    def counting(*args, **kwargs):
        calls.append(args[:3])
        return build(*args, **kwargs)

    def counting_grams(k, aq, nf, params, powers):
        pairs.append((nf, params.s, k, aq))
        return factor(k, aq, nf, params, powers)

    monkeypatch.setattr(oracle, "build_subspace", counting)
    monkeypatch.setattr(oracle, "phi_grams", counting_grams)
    assert run_check("oracle-equivalence", max_n=max_n).passed
    assert len(calls) == len(set(calls)) == builds
    assert len(pairs) == len(set(pairs)) == grams


# each check that evaluates a kernel once per table still fails when the kernel
# is wrong for one label or one point


def test_numerical_kernels_fail_on_one_wrong_wigner_label(monkeypatch):
    # d^{1/2}_{1/2,-1/2} = -sin(theta/2) integrates to -4/3 over cos(theta)
    wigner_rows = verify._wigner_rows

    def perturbed(j2, m2, s2, theta):
        rows = wigner_rows(j2, m2, s2, theta)
        j2, m2, s2 = (a.ravel() for a in np.broadcast_arrays(j2, m2, s2))
        rows[(j2 == 1) & (m2 == 1) & (s2 == -1)] += 1e-8
        return rows

    monkeypatch.setattr(verify, "_wigner_rows", perturbed)
    result = run_check("numerical-kernels", max_n=2)
    assert not result.passed
    assert "wigner 2.67e-08" in result.detail


def test_specfun_invariants_fail_on_an_index_asymmetric_wigner_d(monkeypatch):
    wigner_rows = verify._wigner_rows

    def asymmetric(j2, m2, s2, theta):
        rows = wigner_rows(j2, m2, s2, theta)
        _, m2, s2 = (a.ravel() for a in np.broadcast_arrays(j2, m2, s2))
        rows[m2 > s2] *= 1.0 + 1e-8
        return rows

    monkeypatch.setattr(verify, "_wigner_rows", asymmetric)
    result = run_check("specfun-invariants", max_n=2)
    assert not result.passed
    assert result.max_err > 1e-9


@pytest.mark.parametrize("check_id, most", [("numerical-kernels", 1), ("specfun-invariants", 16)])
def test_wigner_checks_take_each_angle_array_in_one_body_call(monkeypatch, check_id, most):
    # c10: every label on the Legendre nodes at once; inv-specfun: one call per j on
    # its angles and one on the scalar 0.0; neither goes through wigner_d
    body, calls = verify._wigner_rows, []
    monkeypatch.setattr(verify, "_wigner_rows", lambda *args: calls.append(args) or body(*args))

    def refused(*args):
        raise AssertionError("wigner_d called")

    monkeypatch.setattr(verify.states, "wigner_d", refused)
    monkeypatch.setattr(specfun, "wigner_d", refused)
    assert run_check(check_id, max_n=2).passed
    assert 1 <= len(calls) <= most


def test_specfun_invariants_fail_on_one_wrong_hyp1f1_point(monkeypatch):
    # one degree of one table wrong at one point: 1F1(-7; b; 25)
    hyp1f1_table = verify.hyp1f1_table

    def perturbed(p, b, x):
        rows = hyp1f1_table(p, b, x)
        rows[7] += 1e-6 * (np.asarray(x) == 25.0)
        return rows

    monkeypatch.setattr(verify, "hyp1f1_table", perturbed)
    result = run_check("specfun-invariants", max_n=2)
    assert not result.passed
    assert result.max_err > 1e-8


def test_states_invariants_fail_on_a_wrong_coordinate_map(monkeypatch):
    to_cartesian = verify.states.parabolic_to_cartesian

    def shifted(point):
        x1, x2, x3 = to_cartesian(point)
        return x1, x2, x3 + 1e-10

    monkeypatch.setattr(verify.states, "parabolic_to_cartesian", shifted)
    result = run_check("states-invariants", max_n=2)
    assert not result.passed
    assert result.tol == 1e-12
    assert result.max_err >= 1e-10 / 3.0


def _times(factor):
    """The defect that scales a function's value by ``factor``."""
    return lambda f: lambda *args: f(*args) * factor


def _minus_m_unswapped(f):
    """The defect that builds sector -m from the factor Gram pairs of sector m in the same roles."""

    def mutant(n, s, m, field, params, *, grams=None):
        if grams is not None and half(m).twice < 0:
            grams = grams[::-1]
        return f(n, s, m, field, params, grams=grams)

    return mutant


def _jacobi_off_diagonals(change):
    """The defect that applies ``change`` to the off-diagonal entries of the closed-form J."""

    def wrap(f):
        def mutant(size, aq):
            jac = f(size, aq)
            off = ~np.eye(size, dtype=bool)
            jac[off] = change(jac[off])
            return jac

        return mutant

    return wrap


def _negated(key):
    """The defect that negates one column of a table: ``shift_columns`` or ``spectrum_table``."""
    return lambda f: lambda *args: (lambda columns: {**columns, key: -columns[key]})(f(*args))


# one defect in the code each check covers, at the smallest --max-n that
# reaches it: (check, cap, module, name, wrap), the module's ``name``
# replaced by ``wrap(name)``
MUTANTS = {
    "c01 sector entries 1e-5 high": (
        "hydrogen-regression", 2, verify.oracle, "shell_sectors",
        lambda f: lambda *args: [replace(sub, entries=sub.entries * (1.0 + 1e-5)) for sub in f(*args)],
    ),
    "c02 1e-6 |q| in the x^2 moment's bracket": (
        "integral-closed-forms", 1, verify.stark, "integral_II",
        lambda f: lambda p, q, n, params: f(p, q, n, params) + 2.0 * (params.a * n) ** 3 * 1e-6 * abs(q),
    ),
    # a sign flip of one row keeps every diagonal moment and the orthogonality of
    # the rows, so only the off-diagonals of the x and x^2 Gram matrices see it
    "c02 phi_table row 3 negated": (
        "integral-closed-forms", 1, verify.states, "phi_table",
        lambda f: lambda p_max, *args: f(p_max, *args) * np.where(np.arange(p_max + 1) == 3, -1.0, 1.0)[:, None],
    ),
    # c02 reads the Gram matrices that the oracle's sectors are built from
    "c02 phi_grams G2 1e-8 high": (
        "integral-closed-forms", 1, verify.states, "phi_grams",
        lambda f: lambda p_max, q, n, params, powers: tuple(
            g * (1.0 + 1e-8) if k == 2 else g for k, g in zip(powers, f(p_max, q, n, params, powers))
        ),
    ),
    # the one 1F1 recurrence: every wavefunction grid runs it too
    "c02 1F1 recurrence's last degree 1e-6 high": (
        "integral-closed-forms", 1, specfun, "_laguerre",
        lambda f: lambda p, b, x: (lambda rows: rows[:-1] + [rows[-1] * (1.0 + 1e-6)])(f(p, b, x)),
    ),
    # J's off-diagonals are -sqrt((p + 1)(p + |q| + 1))
    "c02 closed-form J off-diagonal sign flipped": (
        "integral-closed-forms", 1, verify, "_laguerre_jacobi", _jacobi_off_diagonals(np.negative)
    ),
    "c02 closed-form J without its square root": (
        "integral-closed-forms", 1, verify, "_laguerre_jacobi", _jacobi_off_diagonals(lambda off: -(off**2))
    ),
    "c03 bracket without its m s term": (
        "shift-formula-identity", 1.5, verify.stark, "_label_bracket",
        lambda f: lambda n2x, s2, n1, n2, m2: f(n2x, s2, n1, n2, m2) - m2 * s2,
    ),
    "c03 printed e1 column negated": (
        "shift-formula-identity", 1.5, verify.tables, "shift_columns", _negated("e1")
    ),
    "c04 sector -m built with its factors unswapped": (
        "oracle-equivalence", 2, verify.oracle, "build_subspace", _minus_m_unswapped
    ),
    "c05 bracket blind to the sign of m": (
        "degeneracy-removal", 1.5, verify.stark, "_label_bracket",
        lambda f: lambda n2x, s2, n1, n2, m2: f(n2x, s2, n1, n2, abs(m2)),
    ),
    # n = 1 is the one shell at cap 1: spread 0, formula one twelfth of a quantum
    "c06 splitting one twelfth-quantum high": (
        "shell-splitting", 1, verify.stark, "shell_splitting",
        lambda f: lambda n, s, field, params: f(n, s, field, params) + verify.stark.shift_quantum(field, params) / 12,
    ),
    "c07 separation constant 1e-9 high": (
        "dipole-consistency", 1.5, verify.stark, "_label_beta", _times(1.0 + 1e-9)
    ),
    "c07 printed dipole_z column negated": (
        "dipole-consistency", 1.5, verify.tables, "shift_columns", _negated("dipole_z")
    ),
    "c08 parabolic shell short of its last label": (
        "shell-cardinality", 1, verify.states, "parabolic_labels",
        lambda f: lambda n, s: tuple(labels[:-1] for labels in f(n, s)),
    ),
    # n = 1 has only m = 0, so the first shell a negated m shows in is n = 3/2
    "c08 printed spectrum m2 column negated": (
        "shell-cardinality", 1.5, verify.tables, "spectrum_table", _negated("m2")
    ),
    "c09 angular constant 1% high": ("wavefunction-suites", 1, verify.states, "_angular_norm", _times(1.01)),
    "inv-quadrature Laguerre weights 1e-9 heavy": (
        "quadrature-invariants", 0, verify.quadrature, "gauss_laguerre",
        lambda f: lambda order: (lambda rule: replace(rule, weights=rule.weights * (1.0 + 1e-9)))(f(order)),
    ),
    "inv-stark shift with a field-squared term": (
        "stark-invariants", 2, verify.stark, "_shift",
        lambda f: lambda unit, bracket, epsilon: f(unit, bracket, epsilon) * (1.0 + 1e-9 * epsilon),
    ),
    # a permutation of a sector's labels keeps its eigenvalues, so c04 passes
    "inv-oracle sector rows reversed": (
        "oracle-invariants", 2, verify.oracle, "shell_sectors",
        lambda f: lambda *args: [replace(sub, entries=sub.entries[::-1, ::-1]) for sub in f(*args)],
    ),
}


@pytest.mark.parametrize("check_id, max_n, module, name, wrap", MUTANTS.values(), ids=MUTANTS)
def test_check_fails_on_its_mutant(monkeypatch, check_id, max_n, module, name, wrap):
    assert run_check(check_id, max_n=max_n).passed
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    result = run_check(check_id, max_n=max_n)
    assert not result.passed, result.line()


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
        shift = verify.stark._shift
        monkeypatch.setattr(verify.stark, "_shift", lambda *args: shift(*args) + 1.5e-11)
        result = run_check("hydrogen-regression")
        assert not result.passed
        assert result.tol == 1e-12
        assert result.max_err == pytest.approx(5e-12, rel=1e-3)
