"""Tests for exact special functions: half-integers, factorials,
terminating hypergeometrics and Wigner d-functions."""

import hashlib
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp1f1

from dyonstark import specfun
from dyonstark.quadrature import gauss_legendre
from dyonstark.specfun import (
    WIGNER_J_MAX,
    HalfInteger,
    half,
    hyp1f1_poly,
    hyp1f1_table,
    ln_factorial,
    wigner_d,
)


class TestHalfInteger:
    def test_coercion(self):
        assert half(3).twice == 6
        assert half(0.5).twice == 1
        assert half("-3/2").twice == -3
        assert half("2").twice == 4
        assert half(half(1)) == HalfInteger(2)

    def test_rejects_non_half(self):
        with pytest.raises(ValueError):
            half(0.3)
        for bad in (math.inf, -math.inf, math.nan, "inf"):
            with pytest.raises(ValueError, match="finite"):
                half(bad)
        with pytest.raises(TypeError):
            half(object())

    @pytest.mark.parametrize("label", [True, False, np.True_])
    def test_bool_is_no_half_integer(self, label):
        # True used to read as 1 in every label
        for build in (half, lambda j: wigner_d(j, 0, 0, 0.3), lambda m: wigner_d(1, m, 0, 0.3)):
            with pytest.raises(TypeError, match=r"^cannot interpret (np\.)?(True|False)_? as a half-integer$"):
                build(label)

    def test_str(self):
        assert str(half(2)) == "2"
        assert str(half(-1.5)) == "-3/2"

    @given(st.integers(-200, 200), st.integers(-200, 200))
    def test_arithmetic_closed_and_exact(self, a, b):
        x, y = HalfInteger(a), HalfInteger(b)
        assert (x + y).twice == a + b
        assert (x - y).twice == a - b
        assert (-x).twice == -a
        assert abs(x).twice == abs(a)
        assert float(x + y) == (a + b) / 2

    def test_ordering(self):
        assert half(0.5) < half(1) <= half(1)
        assert max(half(-2), half(1.5)) == half(1.5)

    def test_as_int(self):
        assert half(4).as_int() == 4
        with pytest.raises(ValueError):
            half(0.5).as_int()


class TestLnFactorial:
    def test_factorial_points(self):
        assert ln_factorial(0) == 0.0
        assert ln_factorial(1) == 0.0
        assert ln_factorial(5) == pytest.approx(math.log(120.0), rel=1e-13)

    def test_range_against_running_product(self):
        acc = 0.0
        for k in range(1, 290):
            acc += math.log(k)
            assert ln_factorial(k) == pytest.approx(acc, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ln_factorial(-1)
        with pytest.raises(ValueError):
            ln_factorial(2.5)


def _hyp1f1_exact(p: int, b: Fraction, x: Fraction) -> Fraction:
    term = Fraction(1)
    total = Fraction(1)
    for k in range(p):
        term = term * (k - p) * x / ((b + k) * (k + 1))
        total += term
    return total


class TestHyp1F1:
    def test_examples(self):
        assert hyp1f1_poly(0, 2, 5.3) == 1.0
        assert hyp1f1_poly(1, 2, 1.0) == pytest.approx(0.5, rel=1e-15)
        # finite-sum oracle: 1 - 2x + x^2/2 at x = 1
        assert hyp1f1_poly(2, 1, 1.0) == pytest.approx(-0.5, rel=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hyp1f1_poly(-1, 2, 1.0)
        with pytest.raises(ValueError):
            hyp1f1_poly(2, 0.0, 1.0)

    @pytest.mark.parametrize("kernel", [hyp1f1_poly, hyp1f1_table])
    @pytest.mark.parametrize(
        "p, b, rule",
        [
            (-1, 2.0, "needs integer p >= 0, got -1"),
            (2.5, 2.0, "needs integer p >= 0, got 2.5"),
            (True, 2.0, "needs integer p >= 0, got True"),
            (math.nan, 2.0, "needs integer p >= 0, got nan"),
            (math.inf, 2.0, "needs integer p >= 0, got inf"),
            (2, 0.0, "needs b > 0, got 0.0"),
            (2, -math.inf, "needs b > 0, got -inf"),
            (2, math.nan, "needs a finite b, got nan"),
            (2, math.inf, "needs a finite b, got inf"),
        ],
    )
    def test_one_validation_for_both_forms(self, kernel, p, b, rule):
        with pytest.raises(ValueError, match=f"^{kernel.__name__} {re.escape(rule)}$"):
            kernel(p, b, [0.0, 1.0])

    @given(
        st.integers(0, 20),
        st.integers(1, 10),
        st.fractions(min_value=0, max_value=50).map(lambda f: f.limit_denominator(64)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_rational_series(self, p, b, x):
        exact = _hyp1f1_exact(p, Fraction(b), x)
        got = hyp1f1_poly(p, float(b), float(x))
        scale = max(abs(float(exact)), 1.0)
        assert abs(got - float(exact)) <= 5e-12 * scale

    def test_contiguous_relation_full_grid(self):
        # b F(-p;b;x) - b F(-(p-1);b;x) + x F(-(p-1);b+1;x) = 0
        worst = 0.0
        for p in range(1, 21):
            for b in range(1, 11):
                for x in np.linspace(0.0, 50.0, 11):
                    t1 = b * hyp1f1_poly(p, b, x)
                    t2 = b * hyp1f1_poly(p - 1, b, x)
                    t3 = x * hyp1f1_poly(p - 1, b + 1, x)
                    scale = max(abs(t1), abs(t2), abs(t3), 1.0)
                    worst = max(worst, abs(t1 - t2 + t3) / scale)
        assert worst <= 1e-10

    def test_vectorized(self):
        x = np.linspace(0, 4, 7)
        vals = hyp1f1_poly(1, 2.0, x)
        assert np.allclose(vals, 1 - x / 2, rtol=1e-14)

    @pytest.mark.parametrize("x", [2.5, np.float64(2.5), np.float32(2.5), 3, np.int64(3), np.array(2.5)])
    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_scalar_in_float_out(self, p, x):
        for b in (1.5, np.float64(1.5), 2, np.int64(2)):
            assert type(hyp1f1_poly(p, b, x)) is float

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_array_in_array_out(self, p):
        out = hyp1f1_poly(p, 1.5, [1.0, 2.0])
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (2,)

    @pytest.mark.parametrize("p", [0, 1, 2, 7, 40, 150])
    @pytest.mark.parametrize("b", [0.5, 1, 3.0, 21.0])
    def test_array_elements_equal_scalar_calls(self, p, b):
        x = np.linspace(0.0, 4.0 * p + 10.0, 41).reshape(41, 1)
        arr = hyp1f1_poly(p, b, x)
        assert arr.shape == x.shape
        scalars = np.array([[hyp1f1_poly(p, b, float(v))] for v in x[:, 0]])
        assert arr.tobytes() == scalars.tobytes()

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_degree_zero_is_one_at_inf_and_nan(self, x):
        # row 0 is x**0.0, one expression for floats and arrays
        assert hyp1f1_poly(0, 2.0, x) == 1.0
        assert hyp1f1_poly(0, 2.0, np.array([x, 1.0])).tobytes() == np.ones(2).tobytes()
        # 1F1(-2; 2; x) = 1 - x + x^2/6 grows without bound
        assert hyp1f1_poly(2, 2.0, math.inf) == math.inf

    def test_values_digest(self):
        # sha256 recorded from a recurrence run on 0-d arrays
        h = hashlib.sha256()
        xs = np.linspace(0.0, 450.0, 37)
        for p in range(0, 201, 5):
            for b in (0.5, 1.0, 1.5, 3.0, 7.25, 40.0):
                for x in (0.0, 0.3, 2 * p + 1.0, 4.0 * p + 0.7):
                    h.update(np.float64(hyp1f1_poly(p, b, x)).tobytes())
                h.update(hyp1f1_poly(p, b, xs).tobytes())
        assert h.hexdigest() == "889783bb6ecad680d069fccf25aad34f9fca610fc1c68dcb11c40e1b605f4215"


class TestHyp1F1Table:
    """One recurrence pass per table; row k has the bits of hyp1f1_poly(k, b, x)."""

    @pytest.mark.parametrize("b", [0.5, 1.0, 3.0, 21.0])
    def test_rows_are_the_single_degree_calls(self, b):
        # x from 0 through the oscillatory region x ~ 4k of every degree k <= 199
        x = np.concatenate([[0.0], np.linspace(0.3, 4.0 * 199 + 10.0, 40)])
        table = hyp1f1_table(199, b, x)
        assert table.shape == (200, x.size)
        for k in range(200):
            assert table[k].tobytes() == hyp1f1_poly(k, b, x).tobytes()

    @pytest.mark.parametrize("x", [0.0, 2.5, 4.0 * 150 + 0.7])
    def test_scalar_rows_run_on_python_floats(self, x):
        table = hyp1f1_table(150, 1.5, x)
        assert table.shape == (151,)
        assert table.tobytes() == np.array([hyp1f1_poly(k, 1.5, x) for k in range(151)]).tobytes()

    def test_shape_follows_x(self):
        x = np.linspace(0.0, 9.0, 6).reshape(3, 2)
        table = hyp1f1_table(4, 2.0, x)
        assert table.shape == (5, 3, 2)
        assert table[3].tobytes() == hyp1f1_poly(3, 2.0, x).tobytes()
        assert hyp1f1_table(0, 2.0, x).tobytes() == np.ones((1, 3, 2)).tobytes()

    @pytest.mark.parametrize("b", [1.0, 2.5, 8.0])
    def test_against_scipy(self, b):
        x = np.linspace(0.0, 4.0 * 30 + 10.0, 61)
        table = hyp1f1_table(30, b, x)
        for k in range(31):
            want = hyp1f1(-k, b, x)
            assert np.max(np.abs(table[k] - want) / np.maximum(np.abs(want), 1.0)) <= 1e-11


def _jacobi_form(j2: int, m2: int, s2: int, theta: float) -> float:
    """d^j_{ms}(theta) from its Jacobi polynomial, at 50 digits: it shares no sum with wigner_d.

    d = xi sqrt(k! (k+a+b)! / ((k+a)! (k+b)!)) sin^a(theta/2) cos^b(theta/2) P_k^(a,b)(cos theta)
    with a = |m-s|, b = |m+s|, k = j - max(|m|, |s|) and xi = 1 for s >= m, else (-1)^(s-m).
    """
    a, b = abs(m2 - s2) // 2, abs(m2 + s2) // 2
    k = (j2 - max(abs(m2), abs(s2))) // 2
    xi = 1 if s2 >= m2 else (-1) ** ((s2 - m2) // 2)
    with mpmath.workdps(50):
        f, t = mpmath.factorial, mpmath.mpf(theta) / 2
        norm = mpmath.sqrt(f(k) * f(k + a + b) / (f(k + a) * f(k + b)))
        return float(xi * norm * mpmath.sin(t) ** a * mpmath.cos(t) ** b * mpmath.jacobi(k, a, b, mpmath.cos(2 * t)))


def _d_error(j2: int, m2: int, s2: int, theta: float) -> float:
    return abs(wigner_d(HalfInteger(j2), HalfInteger(m2), HalfInteger(s2), theta) - _jacobi_form(j2, m2, s2, theta))


class TestAccuracyDomain:
    """``WIGNER_J_MAX`` is the largest j at which wigner_d keeps 1e-10 absolute accuracy.

    A sweep of every (m, s) label on 401 angles, against ``_jacobi_form``, put the
    largest error at 9.2e-11 for j = 18 and 1.3e-10 for j = 37/2; the labels here
    are that sweep's worst, at its worst angle and 0.01 either side.
    """

    AT_BOUND = [(36, -2, -2, 1.6334714919537952), (35, 7, -3, 1.4770174416131117), (33, 5, -1, 1.5551665125979326)]
    ABOVE = [(37, 7, 3, math.pi / 2), (38, 2, 6, 1.6474205378580622)]

    def test_reference_is_the_d_function(self):
        for j2, m2, s2 in [(0, 0, 0), (1, 1, -1), (2, 0, 2), (5, -3, 1), (6, 4, -2)]:
            for theta in (0.0, 0.4, 2.9, math.pi):
                assert _d_error(j2, m2, s2, theta) <= 1e-15

    def test_worst_labels_at_the_bound_meet_the_tolerance(self):
        assert WIGNER_J_MAX == 18
        for j2, m2, s2, worst in self.AT_BOUND:
            assert max(_d_error(j2, m2, s2, worst + d) for d in (-0.01, 0.0, 0.01)) <= 1e-10

    def test_just_above_the_bound_refused_and_inaccurate(self, monkeypatch):
        for j2, m2, s2, worst in self.ABOVE:
            with pytest.raises(ValueError, match=rf"^j must satisfy j <= 18, .* \(got j={HalfInteger(j2)}\)$"):
                wigner_d(HalfInteger(j2), HalfInteger(m2), HalfInteger(s2), worst)
        # lifted, the sum misses the tolerance there: the bound is the largest that holds
        monkeypatch.setattr(specfun, "WIGNER_J_MAX", 100)
        for j2, m2, s2, worst in self.ABOVE:
            assert min(_d_error(j2, m2, s2, worst + d) for d in (-0.01, 0.0, 0.01)) > 1e-10


class TestWignerD:
    def test_scalar_representation(self):
        for th in np.linspace(0, math.pi, 9):
            assert wigner_d(0, 0, 0, th) == 1.0

    def test_spin_half(self):
        for th in np.linspace(0, math.pi, 9):
            assert wigner_d(0.5, 0.5, 0.5, th) == pytest.approx(math.cos(th / 2), abs=1e-15)
            assert wigner_d(0.5, 0.5, -0.5, th) == pytest.approx(-math.sin(th / 2), abs=1e-15)

    def test_j1_is_legendre(self):
        for th in np.linspace(0, math.pi, 9):
            assert wigner_d(1, 0, 0, th) == pytest.approx(math.cos(th), abs=1e-14)

    def test_identity_at_zero(self):
        for j2 in range(0, 10):
            for m2 in range(-j2, j2 + 1, 2):
                for s2 in range(-j2, j2 + 1, 2):
                    val = wigner_d(HalfInteger(j2), HalfInteger(m2), HalfInteger(s2), 0.0)
                    assert val == pytest.approx(1.0 if m2 == s2 else 0.0, abs=1e-14)

    def test_index_swap_symmetry(self):
        thetas = np.linspace(0.0, math.pi, 11)
        for j2 in range(1, 10):
            for m2 in range(-j2, j2 + 1, 2):
                for s2 in range(-j2, j2 + 1, 2):
                    j, m, s = HalfInteger(j2), HalfInteger(m2), HalfInteger(s2)
                    phase = (-1.0) ** ((m2 - s2) // 2)
                    assert np.allclose(
                        wigner_d(j, m, s, thetas),
                        phase * wigner_d(j, s, m, thetas),
                        atol=5e-14,
                    )

    def test_orthogonality(self):
        rule = gauss_legendre(40)
        for parity in (0, 1):
            js = [HalfInteger(t) for t in range(parity, 10, 2)]
            for ja in js:
                for jb in js:
                    jmin = min(ja.twice, jb.twice)
                    for m2 in range(-jmin, jmin + 1, 2):
                        for s2 in range(-jmin, jmin + 1, 2):
                            m, s = HalfInteger(m2), HalfInteger(s2)

                            def f(t):
                                th = np.arccos(t)
                                return wigner_d(ja, m, s, th) * wigner_d(jb, m, s, th)

                            got = rule.integrate(f)
                            want = 2.0 / (ja.twice + 1.0) if ja == jb else 0.0
                            assert abs(got - want) <= 1e-10

    def test_ground_state_angular_shape(self):
        # j = |s|: single-term sum, proportional to
        # (cos th/2)^(j+m) (sin th/2)^(j-m) with positive constant
        thetas = np.linspace(0.1, math.pi - 0.1, 25)
        for s2 in (1, 2, 3, 4):
            j = HalfInteger(s2)
            for m2 in range(-s2, s2 + 1, 2):
                m = HalfInteger(m2)
                vals = wigner_d(j, m, j, thetas)
                ref = np.cos(thetas / 2) ** ((s2 + m2) / 2) * np.sin(thetas / 2) ** (
                    (s2 - m2) / 2
                )
                ratio = vals / ref
                assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= 1e-10
                assert ratio[0] > 0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            wigner_d(1, 2, 0, 0.3)
        with pytest.raises(ValueError):
            wigner_d(1, 0.5, 0, 0.3)
        with pytest.raises(ValueError):
            wigner_d(-1, 0, 0, 0.3)

    @pytest.mark.parametrize(
        "j, m, s, message",
        [
            (1, 2, 0, "|m| <= j violated: m=2, j=1"),
            (1, -2, 0, "|m| <= j violated: m=-2, j=1"),
            (0.5, -0.5, 1.5, "|s| <= j violated: s=3/2, j=1/2"),
            (1, 0, -3, "|s| <= j violated: s=-3, j=1"),
            (1, 0.5, 0, "j - m must be an integer: j=1, m=1/2"),
            (1.5, 0.5, 1, "j - s must be an integer: j=3/2, s=1"),
            (2, 1, 0.5, "j - s must be an integer: j=2, s=1/2"),
        ],
    )
    def test_projection_messages(self, j, m, s, message):
        with pytest.raises(ValueError) as exc:
            wigner_d(j, m, s, 0.3)
        assert str(exc.value) == message


def _direct_sum(j2: int, m2: int, s2: int, theta):
    """One label's d^j_{ms}(theta) as a per-label sum: its own half-angle powers,
    ``_wigner_terms`` in order from zeros, a float64 scalar's ``**`` at a 0-d theta."""
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta / 2.0)
    sn = np.sin(theta / 2.0)
    out = np.zeros_like(c)
    for amp, cos_pow, sin_pow in specfun._wigner_terms(j2, m2, s2):
        out = out + amp * c**cos_pow * sn**sin_pow
    return np.asarray(out)


def _labels(j2s):
    """Every valid (2j, 2m, 2s) of each 2j in j2s."""
    return [(j2, m2, s2) for j2 in j2s for m2 in range(-j2, j2 + 1, 2) for s2 in range(-j2, j2 + 1, 2)]


class TestWignerRows:
    """``_wigner_rows`` shares each half-angle power among the labels of one call;
    every row keeps the bits of the per-label sum."""

    # every label with j <= 9, and every seventh label of each j up to WIGNER_J_MAX
    LABELS = _labels(range(19)) + _labels(range(19, 2 * WIGNER_J_MAX + 1))[::7]
    THETAS = [
        np.arccos(gauss_legendre(40).nodes),
        np.linspace(0.0, math.pi, 7),
        0.0,
        math.pi,
        0.3,
    ]

    @pytest.mark.parametrize("theta", THETAS, ids=["legendre-40", "linspace-7", "zero", "pi", "0.3"])
    def test_rows_are_the_per_label_sums_byte_for_byte(self, theta):
        assert WIGNER_J_MAX == 18 and max(j2 for j2, _, _ in self.LABELS) == 36
        rows = specfun._wigner_rows(*np.array(self.LABELS).T, theta)
        assert rows.shape == (len(self.LABELS), *np.shape(theta))
        for row, label in zip(rows, self.LABELS):
            assert np.asarray(row).tobytes() == _direct_sum(*label, theta).tobytes(), label

    def test_int_labels_give_one_row_and_broadcast(self):
        theta = np.linspace(0.0, math.pi, 5)
        assert specfun._wigner_rows(3, 1, -1, theta).tobytes() == _direct_sum(3, 1, -1, theta).tobytes()
        # one j against arrays of m and s, in C order
        m2, s2 = np.meshgrid([-2, 0, 2], [-2, 0, 2], indexing="ij")
        rows = specfun._wigner_rows(2, m2, s2, theta)
        want = [_direct_sum(2, m, s, theta) for m, s in zip(m2.ravel().tolist(), s2.ravel().tolist())]
        assert rows.tobytes() == np.array(want).tobytes()

    def test_wigner_d_is_one_row(self):
        for j2, m2, s2 in self.LABELS[::11]:
            args = HalfInteger(j2), HalfInteger(m2), HalfInteger(s2)
            assert wigner_d(*args, self.THETAS[0]).tobytes() == _direct_sum(j2, m2, s2, self.THETAS[0]).tobytes()
            scalar = wigner_d(*args, 0.3)
            assert type(scalar) is float
            assert np.float64(scalar).tobytes() == _direct_sum(j2, m2, s2, 0.3).tobytes()
