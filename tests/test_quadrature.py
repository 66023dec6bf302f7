"""Tests for Golub-Welsch quadrature rules and the half-line driver."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_laguerre, roots_legendre

from dyonstark import oracle, quadrature, states, verify
from dyonstark.quadrature import (
    MAX_ORDER,
    gauss_laguerre,
    gauss_legendre,
    integrate_halfline,
)
from dyonstark.stark import FieldConfig
from dyonstark.states import N_MAX, ParabolicState, PhysicalParams


class TestLaguerreRule:
    def test_order_one_matches_moments(self):
        rule = gauss_laguerre(1)
        assert rule.nodes == pytest.approx([1.0], abs=1e-14)
        assert rule.weights == pytest.approx([1.0], abs=1e-14)

    def test_order_two_closed_form(self):
        rule = gauss_laguerre(2)
        assert rule.nodes == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)], abs=1e-13)
        assert rule.weights == pytest.approx(
            [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4], abs=1e-13
        )

    def test_order_three_roots_of_cubic(self):
        # L3(x) = -x^3/6 + 3x^2/2 - 3x + 1
        rule = gauss_laguerre(3)
        expected = np.sort(np.roots([-1.0 / 6.0, 1.5, -3.0, 1.0]).real)
        assert rule.nodes == pytest.approx(expected, abs=1e-12)

    def test_invariants(self):
        for order in (1, 2, 7, 40, 64):
            rule = gauss_laguerre(order)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)
            assert rule.weights.sum() == pytest.approx(1.0, rel=1e-12)

    def test_monomial_exactness(self):
        for order in range(1, 41):
            rule = gauss_laguerre(order)
            for k in range(0, 2 * order):
                got = float(np.sum(rule.weights * rule.nodes**k))
                exact = math.exp(math.lgamma(k + 1))
                assert got == pytest.approx(exact, rel=1e-10)

    def test_against_scipy(self):
        for order in (5, 23, 48):
            rule = gauss_laguerre(order)
            x_ref, w_ref = roots_laguerre(order)
            assert rule.nodes == pytest.approx(x_ref, rel=1e-11, abs=1e-12)
            assert rule.weights == pytest.approx(w_ref, rel=1e-9, abs=1e-14)

    def test_order_validation(self):
        for bad in (0, -3, MAX_ORDER + 1, 2.5):
            with pytest.raises(ValueError):
                gauss_laguerre(bad)


class TestLegendreRule:
    def test_order_one(self):
        rule = gauss_legendre(1)
        assert rule.nodes == pytest.approx([0.0], abs=1e-15)
        assert rule.weights == pytest.approx([2.0], abs=1e-15)

    def test_order_two(self):
        rule = gauss_legendre(2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-14)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_order_three_closed_form(self):
        rule = gauss_legendre(3)
        assert rule.nodes == pytest.approx([-math.sqrt(0.6), 0.0, math.sqrt(0.6)], abs=1e-14)

    def test_degree_three_exactness_at_order_two(self):
        rule = gauss_legendre(2)
        assert rule.integrate(lambda x: x**2) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert rule.integrate(lambda x: x**3) == pytest.approx(0.0, abs=1e-15)

    def test_monomial_exactness(self):
        for order in range(1, 41):
            rule = gauss_legendre(order)
            for k in range(0, 2 * order):
                got = float(np.sum(rule.weights * rule.nodes**k))
                exact = 0.0 if k % 2 else 2.0 / (k + 1)
                assert abs(got - exact) <= 1e-10 * (2.0 / (k + 1))

    def test_invariants(self):
        for order in (1, 2, 9, 40):
            rule = gauss_legendre(order)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)
            assert rule.weights.sum() == pytest.approx(2.0, rel=1e-12)

    def test_against_scipy(self):
        for order in (4, 31):
            rule = gauss_legendre(order)
            x_ref, w_ref = roots_legendre(order)
            assert rule.nodes == pytest.approx(x_ref, abs=1e-13)
            assert rule.weights == pytest.approx(w_ref, abs=1e-13)


class TestHalflineDriver:
    def test_unit_exponential(self):
        rule = gauss_laguerre(20)
        got = integrate_halfline(lambda x: np.exp(-x), rule)
        assert got == pytest.approx(1.0, rel=1e-13)

    def test_gamma_three(self):
        rule = gauss_laguerre(20)
        got = integrate_halfline(lambda x: x**2 * np.exp(-x), rule)
        assert got == pytest.approx(2.0, rel=1e-13)

    def test_slow_decay_by_substitution(self):
        # Gamma(4) * 2^4 = 96
        rule = gauss_laguerre(40)
        got = integrate_halfline(lambda x: x**3 * np.exp(-x / 2), rule)
        assert got == pytest.approx(96.0, rel=1e-10)

    def test_scale_makes_it_exact(self):
        rule = gauss_laguerre(4)
        got = integrate_halfline(lambda x: x**3 * np.exp(-x / 2), rule, scale=2.0)
        assert got == pytest.approx(96.0, rel=1e-13)

    def test_doubling_plateau(self):
        def f(x):
            return np.exp(-x) * np.cos(0.4 * x) / (1.0 + 0.1 * x)

        v40 = integrate_halfline(f, gauss_laguerre(40))
        v80 = integrate_halfline(f, gauss_laguerre(80))
        assert abs(v80 - v40) <= 1e-10 * abs(v80)

    @given(st.integers(0, 12), st.floats(0.5, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_gamma_moments_any_scale(self, k, scale):
        rule = gauss_laguerre(40)
        got = integrate_halfline(lambda x: x**k * np.exp(-x / scale), rule, scale=scale)
        exact = math.exp(math.lgamma(k + 1)) * scale ** (k + 1)
        assert got == pytest.approx(exact, rel=1e-11)

    def test_requires_laguerre(self):
        with pytest.raises(ValueError):
            integrate_halfline(lambda x: x, gauss_legendre(5))
        with pytest.raises(ValueError):
            integrate_halfline(lambda x: x, gauss_laguerre(5), scale=0.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        # a NaN scale used to return nan, and an infinite one nan after a RuntimeWarning
        rule = gauss_laguerre(5)
        with pytest.raises(ValueError, match=f"^scale must be a positive finite number, got {scale}$"):
            integrate_halfline(lambda x: np.exp(-x), rule, scale=scale)

    def test_high_order_stable(self):
        # the cap, which the largest shell's oracle sectors take
        rule = gauss_laguerre(MAX_ORDER)
        assert rule.order == N_MAX + 1
        for arr in (rule.nodes, rule.weights, rule.lifted_weights):
            assert np.all(np.isfinite(arr))
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-12)
        got = integrate_halfline(lambda x: x**2 * np.exp(-x), rule)
        assert got == pytest.approx(2.0, rel=1e-11)


RULE_KINDS = [("laguerre", gauss_laguerre), ("legendre", gauss_legendre)]


class TestRuleCache:
    @pytest.mark.parametrize("kind, make", RULE_KINDS)
    def test_one_shared_object_per_order(self, kind, make):
        rule = make(40)
        assert rule.kind == kind and rule.order == 40
        assert make(40) is rule
        assert make(np.int64(40)) is rule
        assert make(41) is not rule

    @pytest.mark.parametrize("kind, make", RULE_KINDS)
    def test_equals_a_fresh_build(self, kind, make):
        fresh = quadrature._rule.__wrapped__(kind, 48)
        rule = make(48)
        for name in ("nodes", "weights", "lifted_weights"):
            got, want = getattr(rule, name), getattr(fresh, name)
            if want is None:
                assert got is None
            else:
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["nodes", "weights", "lifted_weights"])
    def test_shared_arrays_are_read_only(self, name):
        arr = getattr(gauss_laguerre(12), name)
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0

    def test_legendre_arrays_are_read_only(self):
        rule = gauss_legendre(12)
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("make", [gauss_laguerre, gauss_legendre])
    def test_bad_order_adds_no_entry(self, make):
        before = quadrature._rule.cache_info().currsize
        # True is an int to Python, and used to give the order-1 rule
        for bad in (0, MAX_ORDER + 1, 4.5, True, False, np.True_):
            with pytest.raises(ValueError, match="^quadrature order must be an integer"):
                make(bad)
        assert quadrature._rule.cache_info().currsize == before

    def test_cold_and_warm_cache_agree_bitwise(self):
        params = PhysicalParams.atomic(0.5)
        field = FieldConfig(1.0)
        a = ParabolicState(1, 0, 0.5, 0.5)
        b = ParabolicState(2, 0, 0.5, 0.5)  # next shell up, so the element is not zero

        def values():
            return [
                oracle.matrix_element_V(a, b, field, params).hex(),
                oracle.matrix_element_V(a, a, field, params, quad_order=64).hex(),
                states.phi_pair_moment(2, 1, 3, 2, 3.0, 2.5, params, 40).hex(),
            ]

        quadrature._rule.cache_clear()
        cold = values()
        assert quadrature._rule.cache_info().currsize > 0
        assert values() == cold


class TestRuleBuildCount:
    def test_each_rule_solved_once(self, monkeypatch):
        solved = []
        original = quadrature.tridiagonal_eigen

        def counting(diag, offdiag):
            # a Laguerre Jacobi matrix starts its diagonal at 1, a Legendre one at 0
            solved.append(("laguerre" if diag[0] else "legendre", len(diag)))
            return original(diag, offdiag)

        monkeypatch.setattr(quadrature, "tridiagonal_eigen", counting)
        quadrature._rule.cache_clear()
        assert verify.check_integral_closed_forms(max_n=2).passed
        oracle.oracle_shifts(2, 0, FieldConfig(1.0), PhysicalParams.atomic(0))
        assert solved
        assert len(solved) == len(set(solved))
        assert len(solved) == quadrature._rule.cache_info().currsize


class TestRuleBits:
    # sha256 of every array of every rule below, recorded from an
    # ndarray-based QL loop; the rules' bits must not depend on how the
    # loop stores its floats
    ORDERS = [*range(1, 81), 100, 150, 200]
    DIGEST = "282fcc7e76cb0bf83213ca76773001745327c09fa20082b9cb397eac6f28a6a7"

    def test_rule_arrays_digest(self):
        h = hashlib.sha256()
        for kind in ("laguerre", "legendre"):
            for n in self.ORDERS:
                rule = quadrature._rule.__wrapped__(kind, n)
                for arr in (rule.nodes, rule.weights, rule.lifted_weights):
                    if arr is not None:
                        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        assert h.hexdigest() == self.DIGEST
