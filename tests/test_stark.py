"""Tests for the closed-form Stark theory."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyonstark import states
from dyonstark.specfun import HalfInteger, half
from dyonstark.stark import (
    FieldConfig,
    _dipole,
    _dipole_operator,
    _shift,
    _shift_integral,
    bracket_twelfths,
    dipole_operator_expectation,
    integral_I,
    integral_II,
    mean_dipole,
    shell_splitting,
    shift_closed_form,
    shift_integral_form,
    shift_columns,
    shift_quantum,
    shift_unit,
    stark_table,
)
from dyonstark.states import (
    ParabolicState,
    PhysicalParams,
    _label_beta,
    beta_eigenvalue,
    enumerate_shell_parabolic,
    parabolic_labels,
)

P0 = PhysicalParams.atomic(0)
P1 = PhysicalParams.atomic(1)
F1 = FieldConfig(1.0)


def _all_shells(s_values, n_cap):
    for s_raw in s_values:
        s = half(s_raw)
        params = PhysicalParams.atomic(s)
        n = abs(s) + 1
        while n.value <= n_cap:
            yield n, s, params
            n = n + 1


class TestIntegrals:
    def test_first_moment_examples(self):
        assert integral_I(3, 2, 6, P0) == pytest.approx(6.0)
        assert integral_I(0, 0, 1, P0) == pytest.approx(1.0)
        assert integral_I(5, -3, 2.5, PhysicalParams.atomic(0, gamma_c=2.0)) == pytest.approx(
            0.5 * 2.5
        )

    def test_second_moment_examples(self):
        assert integral_II(0, 0, 1, P0) == pytest.approx(2.0)
        assert integral_II(1, 0, 1, P0) == pytest.approx(14.0)
        assert integral_II(0, 2, 2, P0) == pytest.approx(96.0)

    @pytest.mark.parametrize("moment", [integral_I, integral_II])
    @pytest.mark.parametrize(
        "p, q, rule",
        [
            (-1, 0, "p must be a non-negative integer, got -1"),
            (1.5, 0, "p must be a non-negative integer, got 1.5"),
            (math.nan, 0, "p must be a non-negative integer, got nan"),
            ("1", 0, "p must be a non-negative integer, got 1"),
            (True, 0, "p must be a non-negative integer, got True"),
            (1, True, "q must be an integer, got True"),
            (np.array([False, True]), 0, "p must be a non-negative integer, got False"),
            (1, 0.5, "q must be an integer, got 0.5"),
            (1, -0.5, "q must be an integer, got -0.5"),
            (1, math.inf, "q must be an integer, got inf"),
            (np.array([0, 3, -2]), 0, "p must be a non-negative integer, got -2"),
            (np.array([1.0, 2.5]), 0, "p must be a non-negative integer, got 2.5"),
            (np.arange(3), np.array([0, 1.5, 2]), "q must be an integer, got 1.5"),
        ],
    )
    def test_rules_are_the_phi_kernels(self, moment, p, q, rule):
        # q = 0.5 used to truncate to 0, so integral_II(1, 0.5, 1) gave 14.0
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            moment(p, q, 1, P0)

    def test_arrays_give_a_moment_per_element(self):
        p, q = np.array([0, 1, 0, 5]), np.array([0, 0, -2, 3])
        got = integral_II(p, q, 2.5, P0)
        assert got.shape == (4,)
        assert got.tobytes() == np.array([integral_II(*pq, 2.5, P0) for pq in zip(p.tolist(), q.tolist())]).tobytes()
        # a n for every p and q: one float serves the arrays
        assert integral_I(p, q, 2.5, P0) == 2.5
        # a whole float is an integer, and the sign of q does not matter
        assert integral_II(2.0, -3.0, 1, P0) == integral_II(2, 3, 1, P0) == 92.0


class TestShifts:
    def test_hydrogen_n2_state(self):
        state = ParabolicState(1, 0, 0, 0)
        assert shift_integral_form(state, F1, P0) == pytest.approx(3.0, rel=1e-14)
        assert shift_closed_form(state, F1, P0) == pytest.approx(3.0, rel=1e-14)

    def test_monopole_ground_state(self):
        state = ParabolicState(0, 0, 1, 1)
        assert shift_closed_form(state, F1, P1) == pytest.approx(-2.5, rel=1e-14)

    def test_symmetric_state_unshifted(self):
        assert shift_integral_form(ParabolicState(1, 1, 0, 0), F1, P0) == 0.0
        assert shift_closed_form(ParabolicState(1, 1, 0, 0), F1, P0) == 0.0

    def test_zero_field(self):
        f0 = FieldConfig(0.0)
        assert shift_integral_form(ParabolicState(1, 0, 0, 0), f0, P0) == 0.0
        assert shift_closed_form(ParabolicState(1, 0, 0, 0), f0, P0) == 0.0

    def test_integral_equals_closed_everywhere(self):
        for n, s, params in _all_shells([0, 0.5, 1, 1.5, 2, 2.5, 3, -1, -2.5], 8.0):
            floor = shift_quantum(F1, params) / 12.0
            for state in enumerate_shell_parabolic(n, s):
                a = shift_integral_form(state, F1, params)
                b = shift_closed_form(state, F1, params)
                assert abs(a - b) <= 1e-12 * max(abs(b), floor)

    @given(st.floats(0.0, 50.0), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_field(self, lam, n1, n2):
        state = ParabolicState(n1, n2, 0, 0)
        base = shift_closed_form(state, F1, P0)
        assert shift_closed_form(state, FieldConfig(lam), P0) == lam * base

    def test_mirror_parity(self):
        for n, s, params in _all_shells([0, 1, 0.5, -1.5], 5.0):
            for state in enumerate_shell_parabolic(n, s):
                mirror = ParabolicState(state.n2, state.n1, -state.m, state.s)
                assert bracket_twelfths(mirror) == -bracket_twelfths(state)
                assert shift_closed_form(mirror, F1, params) == pytest.approx(
                    -shift_closed_form(state, F1, params), abs=1e-15
                )

    def test_hydrogen_limit_formula(self):
        # s = 0: shifts are (3/2) a eps |e| n (n1 - n2)
        for n, s, params in _all_shells([0], 6.0):
            for state in enumerate_shell_parabolic(n, s):
                want = 1.5 * params.a * F1.epsilon * state.n.value * (
                    state.n1 - state.n2
                )
                assert shift_closed_form(state, F1, params) == pytest.approx(want, abs=1e-14)

    def test_perturbative_ratio_diagnostic(self):
        field = FieldConfig(1e-3)
        assert field.perturbative_ratio(2, P0) == pytest.approx(1e-3 * 16)


class TestSplitting:
    def test_ground_shell_unsplit(self):
        assert shell_splitting(1, 0, F1, P0) == 0.0
        assert shell_splitting(2, 1, F1, P1) == 0.0

    def test_hydrogen_n2(self):
        assert shell_splitting(2, 0, F1, P0) == pytest.approx(6.0)

    def test_monopole_n3(self):
        assert shell_splitting(3, 1, F1, P1) == pytest.approx(9.0)

    def test_matches_extreme_like_m_components(self):
        # Delta E_n is the max over m sectors of the within-sector spread;
        # exact integer comparison in units of shift_quantum / 12
        for n, s, params in _all_shells([0, 0.5, 1, 1.5, 2, -0.5, -2], 6.0):
            quantum = shift_quantum(F1, params)
            formula = shell_splitting(n, s, F1, params)
            formula_twelfths = round(formula / quantum * 12.0)
            sectors = {}
            for state in enumerate_shell_parabolic(n, s):
                sectors.setdefault(state.m.twice, []).append(bracket_twelfths(state))
            spread = max(max(v) - min(v) for v in sectors.values())
            assert spread == formula_twelfths

    def test_full_shell_spread_at_s0(self):
        # without the monopole the m-term vanishes and the full-shell
        # spread equals the formula as well
        for n in (2, 3, 4, 5, 6):
            brackets = [bracket_twelfths(st) for st in enumerate_shell_parabolic(n, 0)]
            quantum = shift_quantum(F1, P0)
            assert max(brackets) - min(brackets) == round(
                shell_splitting(n, 0, F1, P0) / quantum * 12.0
            )


class TestDipole:
    def test_symmetric_state(self):
        assert mean_dipole(ParabolicState(1, 1, 0, 0), P0) == 0.0

    def test_hydrogen_n2(self):
        assert mean_dipole(ParabolicState(1, 0, 0, 0), P0) == pytest.approx(-3.0)

    def test_slope_identity_exact(self):
        for n, s, params in _all_shells([0, 0.5, 1, 1.5], 4.0):
            f2 = FieldConfig(2.0)
            for state in enumerate_shell_parabolic(n, s):
                slope = -(
                    shift_closed_form(state, f2, params) - shift_closed_form(state, F1, params)
                )
                assert slope == mean_dipole(state, params)

    def test_operator_route_equals_mean(self):
        for n, s, params in _all_shells([0, 0.5, 1, 1.5, -0.5, -1.5], 4.0):
            floor = abs(3.0 / (2 * params.gamma_c)) / 12
            for state in enumerate_shell_parabolic(n, s):
                a = dipole_operator_expectation(state, params)
                b = mean_dipole(state, params)
                assert abs(a - b) <= 1e-12 * max(abs(b), floor)

    def test_operator_route_at_generic_units(self):
        params = PhysicalParams(gamma_c=2.3, s=half("3/2"))
        for state in enumerate_shell_parabolic(half("7/2"), half("3/2")):
            a = dipole_operator_expectation(state, params)
            b = mean_dipole(state, params)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_hydrogen_reduction(self):
        # s = 0: mean dipole is -(3/2) n (n1 - n2) a |e|
        for state in enumerate_shell_parabolic(3, 0):
            want = -1.5 * 3 * (state.n1 - state.n2)
            assert mean_dipole(state, P0) == pytest.approx(want)


class TestStarkTable:
    def test_cardinality(self):
        assert len(stark_table(4, 0, F1, P0)) == 16
        assert len(stark_table(3, 1, F1, P1)) == 8

    def test_zero_field_all_zero(self):
        records = stark_table(2, 0, FieldConfig(0.0), P0)
        assert all(rec.e1 == 0.0 for rec in records)
        labels = [(r.state.n1, r.state.n2, r.state.m.twice) for r in records]
        assert labels == sorted(labels)

    def test_hydrogen_multiset(self):
        records = stark_table(2, 0, F1, P0)
        assert [rec.e1 for rec in records] == pytest.approx([-3.0, 0.0, 0.0, 3.0])

    def test_sorted_by_shift_then_labels(self):
        records = stark_table(3, 1, F1, P1)
        keys = [
            (bracket_twelfths(r.state), r.state.n1, r.state.n2, r.state.m.twice)
            for r in records
        ]
        assert keys == sorted(keys)

    def test_records_carry_consistent_fields(self):
        for rec in stark_table(3, 0, F1, P0):
            assert rec.e0 == pytest.approx(-1.0 / 18.0)
            assert rec.dipole_z == pytest.approx(-rec.e1 / F1.epsilon)

    def test_linearity_of_records(self):
        rec1 = stark_table(2, 0, F1, P0)
        rec2 = stark_table(2, 0, FieldConfig(2.0), P0)
        for a, b in zip(rec1, rec2):
            assert b.e1 == 2.0 * a.e1


def _column_rows(n, s, field):
    """(bracket, n1, n2, m2, e1, dipole_z) of each ``shift_columns`` row, the
    bracket from the row's state."""
    table = shift_columns(n, s, field, PhysicalParams.atomic(s))
    columns = [table[key] for key in ("n1", "n2", "m2", "e1", "dipole_z")]
    assert [column.dtype for column in columns] == [np.int64] * 3 + [np.float64] * 2
    rows = zip(*(column.tolist() for column in columns))
    return [
        (bracket_twelfths(ParabolicState(n1, n2, HalfInteger(m2), half(s))), n1, n2, m2, e1, dipole_z)
        for n1, n2, m2, e1, dipole_z in rows
    ]


class TestShiftColumns:
    """The array columns against the scalar shift of each row's state."""

    def test_columns_are_the_labels_and_shifts_alone(self):
        # the shell's n, s2 and e0 are the record table's to add
        table = shift_columns("5/2", "1/2", F1, PhysicalParams.atomic("1/2"))
        assert list(table) == ["n1", "n2", "m2", "e1", "dipole_z"]

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize(
        "n, s", [("1", "0"), ("5/2", "1/2"), ("7", "3"), ("10", "2"), ("41/2", "-3/2"), ("60", "-1")]
    )
    def test_e1_and_dipole_are_the_scalar_forms_bit_for_bit(self, n, s, epsilon):
        n, s = half(n), half(s)
        unit = shift_unit(PhysicalParams.atomic(s))
        rows = _column_rows(n, s, FieldConfig(epsilon))
        assert len(rows) == (n.twice**2 - s.twice**2) // 4
        for bracket, _, _, _, e1, dipole_z in rows:
            assert e1.hex() == _shift(unit, bracket, epsilon).hex()
            assert dipole_z.hex() == _dipole(unit, bracket).hex()

    @pytest.mark.parametrize("epsilon", [0.5, 2.0])
    @pytest.mark.parametrize("n, s", [(10, 2), (7, 3)])
    def test_tied_brackets_keep_label_order(self, n, s, epsilon):
        rows = _column_rows(n, s, FieldConfig(epsilon))
        keys = [row[:4] for row in rows]
        assert keys == sorted(keys)
        brackets = [key[0] for key in keys]
        assert len(set(brackets)) < len(brackets)  # the shell has ties to order
        if (n, s) == (10, 2):
            labels = [key[1:] for key in keys]
            # the bracket 168 of (0, 0, m = -9) and of (3, 0, m = 6)
            assert brackets[labels.index((0, 0, -18))] == brackets[labels.index((3, 0, 12))] == 168
            assert labels.index((0, 0, -18)) < labels.index((3, 0, 12))


class TestLabelBodies:
    """Each label body, on a shell's label arrays, has the bits of its
    per-state function on every state of the shell."""

    @pytest.mark.parametrize(
        "n, s", [("1", "0"), ("7/2", "1/2"), ("6", "-2"), ("21/2", "-5/2"), ("40", "3"), ("200", "0"), ("399/2", "1/2")]
    )
    def test_arrays_are_the_state_functions_bit_for_bit(self, n, s):
        n, s = half(n), half(s)
        params, field = PhysicalParams(gamma_c=0.7, s=s), FieldConfig(0.37)
        labels = (n.twice, s.twice, *parabolic_labels(n, s))
        shell = enumerate_shell_parabolic(n, s)
        for body, per_state in (
            (_shift_integral(*labels, field.epsilon, params), lambda st: shift_integral_form(st, field, params)),
            (_dipole_operator(*labels, params), lambda st: dipole_operator_expectation(st, params)),
            (_label_beta(*labels, params), lambda st: beta_eigenvalue(st, params)),
        ):
            assert body.dtype == np.float64
            assert body.tobytes() == np.array([per_state(st) for st in shell]).tobytes()


def test_dipole_operator_checks_its_shell_once(monkeypatch):
    # the shell energy is evaluated once and handed to the separation constant
    n, s = half("7/2"), half("1/2")
    labels, params = parabolic_labels(n, s), PhysicalParams.atomic(s)
    shell, calls = states._shell, []
    monkeypatch.setattr(states, "_shell", lambda *args: calls.append(args) or shell(*args))
    _dipole_operator(n.twice, s.twice, *labels, params)
    assert len(calls) == 1


class TestValidation:
    def test_field_rejects_negative(self):
        with pytest.raises(ValueError):
            FieldConfig(-0.5)
        with pytest.raises(ValueError):
            FieldConfig(math.inf)

    @pytest.mark.parametrize(
        "epsilon, rule",
        [
            (True, "epsilon must be a real number other than a bool, got True"),
            (np.True_, "epsilon must be a real number other than a bool, got np.True_"),
            ("1", "epsilon must be a real number other than a bool, got '1'"),
            (10**400, "epsilon must be a finite non-negative number, got " + "1" + "0" * 400),
        ],
    )
    def test_field_takes_the_coupling_rule(self, epsilon, rule):
        # True was stored as True, 10**400 raised OverflowError and "1" TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            FieldConfig(epsilon)

    @pytest.mark.parametrize("epsilon", [2, np.float32(0.5), np.int64(3), 0.25])
    def test_field_is_stored_as_a_float(self, epsilon):
        field = FieldConfig(epsilon)
        assert type(field.epsilon) is float
        assert field.epsilon == float(epsilon)

    @pytest.mark.parametrize("epsilon", [-0.0, np.float64(-0.0), np.float32(-0.0)])
    def test_negative_zero_field_is_stored_as_zero(self, epsilon):
        assert math.copysign(1.0, FieldConfig(epsilon).epsilon) == 1.0

    def test_state_params_s_mismatch(self):
        with pytest.raises(ValueError, match="^s=0 disagrees with params.s=1$"):
            shift_closed_form(ParabolicState(0, 0, 0, 0), F1, P1)

    def test_splitting_shell_validation(self):
        with pytest.raises(ValueError, match="n must satisfy"):
            shell_splitting(1, 1, F1, P1)
