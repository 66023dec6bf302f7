"""Tests for the closed-form Stark theory."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyonstark.specfun import half
from dyonstark.stark import (
    FieldConfig,
    bracket_twelfths,
    dipole_operator_expectation,
    integral_I,
    integral_II,
    mean_dipole,
    shell_splitting,
    shift_closed_form,
    shift_integral_form,
    shift_quantum,
    stark_table,
)
from dyonstark.states import ParabolicState, PhysicalParams, enumerate_shell_parabolic

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

    def test_rejects_negative_p(self):
        with pytest.raises(ValueError):
            integral_I(-1, 0, 1, P0)
        with pytest.raises(ValueError):
            integral_II(-2, 0, 1, P0)


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


class TestValidation:
    def test_field_rejects_negative(self):
        with pytest.raises(ValueError):
            FieldConfig(-0.5)
        with pytest.raises(ValueError):
            FieldConfig(math.inf)

    def test_state_params_s_mismatch(self):
        with pytest.raises(ValueError, match="^s=0 disagrees with params.s=1$"):
            shift_closed_form(ParabolicState(0, 0, 0, 0), F1, P1)

    def test_splitting_shell_validation(self):
        with pytest.raises(ValueError, match="n must satisfy"):
            shell_splitting(1, 1, F1, P1)
