"""Tests for the in-house tridiagonal QL and dense Jacobi eigensolvers."""

import math
import re

import numpy as np
import pytest

from dyonstark.eigen import jacobi_eigenvalues, tridiagonal_eigen
from dyonstark.oracle import build_subspace
from dyonstark.stark import FieldConfig
from dyonstark.states import PhysicalParams


def _ndarray_ql(diag, offdiag):
    """Reference: the same implicit-shift QL loop on float64 ndarrays."""
    d = np.array(diag, dtype=float)
    n = d.size
    e = np.zeros(n)
    e[: n - 1] = offdiag
    z = np.zeros(n)
    z[0] = 1.0
    eps = np.finfo(float).eps
    for l in range(n):
        iters = 0
        while True:
            for m in range(l, n - 1):
                if abs(e[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
                    break
            else:
                m = n - 1
            if m == l:
                break
            iters += 1
            assert iters <= 60
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    order = np.argsort(d, kind="stable")
    return d[order], z[order]


def _two_sided_jacobi(matrix):
    """Reference: cyclic Jacobi with a column pass then a row pass per rotation."""
    a = np.array(matrix, dtype=float)
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    norm = math.sqrt(np.sum(a * a))
    if norm == 0.0:
        return np.zeros(n)

    def offnorm():
        off = a - np.diag(np.diag(a))
        return math.sqrt(np.sum(off * off))

    for _ in range(60):
        if offnorm() <= 1e-14 * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                if abs(apq) < 1e-300:
                    a[p, q] = a[q, p] = 0.0
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
    else:
        raise AssertionError("reference Jacobi did not converge")
    return np.sort(np.diag(a))


def _random_symmetric(rng, dim, scale=1.0):
    a = scale * rng.normal(size=(dim, dim))
    return a + a.T


class TestTridiagonal:
    def test_diagonal_matrix(self):
        vals, first = tridiagonal_eigen([3.0, 1.0, 2.0], [0.0, 0.0])
        assert vals == pytest.approx([1.0, 2.0, 3.0])

    def test_two_by_two_closed_form(self):
        # [[1, 1], [1, 3]] has eigenvalues 2 -+ sqrt(2)
        vals, first = tridiagonal_eigen([1.0, 3.0], [1.0])
        assert vals == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)], abs=1e-13)

    def test_first_components_square_to_weights(self):
        # eigenvector first components are orthonormal rows: sum of squares 1
        rng = np.random.default_rng(3)
        d = rng.normal(size=12)
        e = rng.normal(size=11)
        vals, first = tridiagonal_eigen(d, e)
        assert float(np.sum(first**2)) == pytest.approx(1.0, rel=1e-12)
        full = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert vals == pytest.approx(np.linalg.eigvalsh(full), abs=1e-11)

    @pytest.mark.parametrize("n", [2, 3, 7, 30, 90])
    def test_bits_match_ndarray_loop(self, n):
        rng = np.random.default_rng(n)
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        if n > 3:
            e[n // 2] = 0.0  # a split block
        for diag, off in ((d, e), (1e-3 * d, e), (np.zeros(n), np.ones(n - 1))):
            vals, first = tridiagonal_eigen(diag, off)
            want_vals, want_first = _ndarray_ql(diag, off)
            assert vals.tobytes() == want_vals.tobytes()
            assert first.tobytes() == want_first.tobytes()

    # Edge cases pinned to the values an ndarray-based QL loop gives.
    @pytest.mark.parametrize(
        "diag, offdiag, values, first",
        [
            ([2.0], [], [2.0], [1.0]),
            ([math.nan], [], [math.nan], [1.0]),
            ([math.inf], [], [math.inf], [1.0]),
            ([math.inf, 1.0], [0.5], [1.0, math.inf], [0.0, 1.0]),
            ([1.0, math.inf, 2.0], [1.0, 1.0], [1.0, 2.0, math.inf], [1.0, 0.0, 0.0]),
            (
                [-math.inf, 1.0, 3.0],
                [0.5, 0.25],
                [-math.inf, 0.9692235935955849, 3.0307764064044154],
                [1.0, 0.0, 0.0],
            ),
        ],
    )
    def test_edge_inputs(self, diag, offdiag, values, first):
        vals, comps = tridiagonal_eigen(diag, offdiag)
        assert vals.dtype == comps.dtype == np.float64
        assert vals.tobytes() == np.array(values).tobytes()
        assert comps.tobytes() == np.array(first).tobytes()

    def test_empty_matrix(self):
        vals, first = tridiagonal_eigen([], [])
        assert vals.shape == first.shape == (0,)
        assert vals.dtype == first.dtype == np.float64

    @pytest.mark.parametrize(
        "diag, offdiag, rule",
        [
            ([1.0, 2.0, 3.0], [1.0], "offdiag must be 1-D of length n - 1 = 2, got shape (1,)"),
            ([1.0, 2.0], [1.0, 1.0], "offdiag must be 1-D of length n - 1 = 1, got shape (2,)"),
            ([1.0], [0.5], "offdiag must be 1-D of length n - 1 = 0, got shape (1,)"),
            ([], [0.5], "offdiag must be 1-D of length n - 1 = 0, got shape (1,)"),
            ([1.0, 2.0], [[1.0]], "offdiag must be 1-D of length n - 1 = 1, got shape (1, 1)"),
            ([1.0, 2.0], 1.0, "offdiag must be 1-D of length n - 1 = 1, got shape ()"),
            ([[1.0, 2.0], [3.0, 4.0]], [1.0], "diag must be 1-D, got shape (2, 2)"),
            (2.0, [], "diag must be 1-D, got shape ()"),
        ],
    )
    def test_shapes_are_checked(self, diag, offdiag, rule):
        # a length-1 or scalar offdiag used to be broadcast to every off-diagonal
        # entry, the eigenvalues of another matrix; other lengths raised numpy's
        # unnamed broadcast error
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            tridiagonal_eigen(diag, offdiag)

    @pytest.mark.parametrize(
        "diag, offdiag",
        [
            ([math.nan, 1.0], [0.5]),
            ([math.nan, 1.0], [0.0]),
            ([1.0, 2.0, math.nan], [0.0, 0.0]),
            ([1.0, 2.0], [math.nan]),
            ([1.0, 2.0], [math.inf]),
        ],
    )
    def test_non_finite_blocks_do_not_converge(self, diag, offdiag):
        with pytest.raises(RuntimeError, match="failed to converge"):
            tridiagonal_eigen(diag, offdiag)


class TestJacobi:
    def test_diagonal(self):
        assert jacobi_eigenvalues(np.diag([1.0, 2.0, 3.0])) == pytest.approx([1, 2, 3])

    def test_swap_matrix(self):
        got = jacobi_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert got == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_trace_and_frobenius_identities(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 5, 9, 17, 40):
            a = rng.normal(size=(dim, dim))
            a = a + a.T
            lam = jacobi_eigenvalues(a)
            assert float(lam.sum()) == pytest.approx(np.trace(a), rel=1e-12, abs=1e-12)
            assert float((lam**2).sum()) == pytest.approx(np.sum(a * a), rel=1e-12)

    def test_against_numpy(self):
        rng = np.random.default_rng(8)
        for dim in (4, 11, 30):
            a = rng.normal(size=(dim, dim))
            a = 0.5 * (a + a.T)
            got = jacobi_eigenvalues(a)
            want = np.linalg.eigvalsh(a)
            assert got == pytest.approx(want, abs=1e-11)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.zeros((257, 257)))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        lam = jacobi_eigenvalues(a)
        lam_scaled = jacobi_eigenvalues(1e-8 * a)
        assert lam_scaled == pytest.approx(1e-8 * lam, rel=1e-11)

    def test_bits_match_two_sided_update_on_c10_matrices(self):
        # the seven matrices of the c10 verify check
        rng = np.random.default_rng(2024)
        for dim in (2, 3, 5, 8, 13, 21, 34):
            a = _random_symmetric(rng, dim)
            assert jacobi_eigenvalues(a).tobytes() == _two_sided_jacobi(a).tobytes()

    @pytest.mark.parametrize("scale", [1e-5, 1e-3, 0.1, 1.0, 7.0, 1e3, 1e5])
    def test_bits_match_two_sided_update_across_scales(self, scale):
        rng = np.random.default_rng(17)
        for dim in (2, 4, 9, 20):
            a = _random_symmetric(rng, dim, scale)
            assert jacobi_eigenvalues(a).tobytes() == _two_sided_jacobi(a).tobytes()

    def test_bits_match_two_sided_update_on_skipped_and_dropped_entries(self):
        # the first sweep meets a[0, 1] == 0 (skipped) and then |a[0, 2]| < 1e-300
        # (set to zero without a rotation) before row 0 has been touched
        a = _random_symmetric(np.random.default_rng(23), 6)
        a[0, 1] = a[1, 0] = 0.0
        a[0, 2] = a[2, 0] = 3e-301
        assert jacobi_eigenvalues(a).tobytes() == _two_sided_jacobi(a).tobytes()

    def test_bits_match_two_sided_update_on_an_oracle_sector(self):
        # a near-diagonal sector: rotations by tiny angles only
        sub = build_subspace(40, 0, 3, FieldConfig(1.0), PhysicalParams.atomic(0))
        assert sub.dimension == 37
        assert jacobi_eigenvalues(sub.entries).tobytes() == _two_sided_jacobi(sub.entries).tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_entries(self, bad):
        a = np.eye(10)
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            jacobi_eigenvalues(a)
        a = np.eye(3)
        a[2, 2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            jacobi_eigenvalues(a)

    @pytest.mark.parametrize("size", [1e200, 1e-200])
    def test_entries_beyond_the_square_range(self, size):
        # sum(a * a) overflows at 1e200 and underflows at 1e-200 unless the
        # matrix is scaled first
        got = jacobi_eigenvalues(np.array([[0.0, size], [size, 0.0]]))
        assert got == pytest.approx([-size, size], rel=1e-15, abs=0.0)

    def test_subnormal_off_diagonal_is_dropped(self):
        # an off-diagonal entry below 1e-300 in the caller's units is set to
        # zero instead of rotated, before and after the power-of-two prescale
        got = jacobi_eigenvalues(np.array([[0.0, 1e-310], [1e-310, 0.0]]))
        assert got.tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize(
        "matrix",
        [[[1.7e308, 1e308], [1e308, -1.7e308]], [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]],
    )
    def test_rejects_eigenvalues_beyond_the_float_range(self, matrix):
        with pytest.raises(ValueError, match="beyond the float range"):
            jacobi_eigenvalues(np.array(matrix))

    def test_asymmetry_beyond_the_float_range_is_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            jacobi_eigenvalues(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]))

    def test_empty_matrix(self):
        assert jacobi_eigenvalues(np.zeros((0, 0))).shape == (0,)

    @pytest.mark.parametrize("power", [-900, -40, 40, 900])
    def test_power_of_two_scaling_is_exact(self, power):
        a = _random_symmetric(np.random.default_rng(29), 12)
        lam = jacobi_eigenvalues(a)
        assert jacobi_eigenvalues(np.ldexp(a, power)).tobytes() == np.ldexp(lam, power).tobytes()
