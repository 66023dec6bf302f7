"""In-house symmetric eigensolvers.

Two kernels shared by the quadrature construction and the numerical
cross-check pipeline:

* an implicit-shift QL iteration for symmetric tridiagonal matrices
  that also carries the first eigenvector component along (all that
  Golub-Welsch needs for quadrature weights);
* a cyclic-sweep Jacobi diagonalization for small dense symmetric
  matrices (Golub & Van Loan, *Matrix Computations*, section 8.5).

The matrices here are tiny (a few hundred rows at the very most).  The
QL loop reads and writes one element at a time, so it runs on Python
lists of floats rather than numpy arrays, which would box every element
access as a numpy scalar.  Python floats and float64 scalars perform the
same IEEE-754 double operations, and the loop evaluates every expression
in the same form and order either way, so the eigenvalues and first
components are bit for bit those of the array version.

The Jacobi loop updates whole rows, so it stays on numpy, and it makes
one symmetric update per rotation.  Its working matrix is exactly
symmetric, and the column pass of the textbook two-sided rotation leaves
rows p and q outside the 2x2 block untouched, so the row pass would
recompute those entries bit for bit.  One pass therefore writes
``c a[p] - s a[q]`` to row and column p, ``s a[p] + c a[q]`` to row and
column q, and the closed form of the two passes to the block.  The two
rows are formed in buffers allocated once per call, by the operations of
the two-sided update in its order.  Before
the sweeps the matrix is scaled by an exact power of two, so that its
norm neither overflows nor underflows; on matrices whose entries lie
well inside the float range the eigenvalues keep the two-sided loop's
bits.  Non-finite entries are refused up front.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["tridiagonal_eigen", "jacobi_eigenvalues"]

_MAX_QL_ITER = 60
_JACOBI_TOL = 1e-14  # off-diagonal norm over matrix norm at convergence
_JACOBI_MAX_SWEEPS = 60


def tridiagonal_eigen(diag, offdiag):
    """Eigenvalues and first eigenvector components of a symmetric
    tridiagonal matrix.

    ``diag`` is 1-D of length n, ``offdiag`` 1-D of length n-1 (0 when
    n is 0); other shapes raise ``ValueError``.  Returns
    ``(values, first_components)`` sorted by ascending eigenvalue; the
    components belong to orthonormal eigenvectors, so for a Jacobi
    matrix of orthonormal polynomials ``mu0 * first**2`` are the
    Gauss weights.  An empty matrix gives two empty arrays.
    """
    d = np.asarray(diag, dtype=float)
    if d.ndim != 1:
        raise ValueError(f"diag must be 1-D, got shape {d.shape}")
    n = len(d)
    off = np.asarray(offdiag, dtype=float)
    if off.shape != (max(n - 1, 0),):
        raise ValueError(f"offdiag must be 1-D of length n - 1 = {max(n - 1, 0)}, got shape {off.shape}")
    if n == 0:
        return np.zeros(0), np.zeros(0)
    d = d.tolist()
    e = off.tolist() + [0.0]
    z = [0.0] * n
    z[0] = 1.0
    eps = float(np.finfo(float).eps)
    hypot, copysign = math.hypot, math.copysign

    for l in range(n):
        iters = 0
        while True:
            for m in range(l, n - 1):
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * dd:
                    break
            else:
                m = n - 1
            if m == l:
                break
            iters += 1
            if iters > _MAX_QL_ITER:
                raise RuntimeError("tridiagonal QL failed to converge")
            try:
                g = (d[l + 1] - d[l]) / (2.0 * e[l])
            except ZeroDivisionError:
                # e[l] == 0 fails the test above only when d[l] or
                # d[l + 1] is NaN, so the quotient is NaN, as in IEEE
                g = math.nan
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
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
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0

    d = np.array(d)
    order = np.argsort(d, kind="stable")
    return d[order], np.array(z)[order]


def jacobi_eigenvalues(matrix):
    """Eigenvalues of a dense real symmetric matrix, ascending.

    Cyclic Jacobi sweeps of Givens rotations; iteration stops once the
    off-diagonal Frobenius norm falls below ``_JACOBI_TOL`` times the
    matrix norm.  Unconditionally convergent for symmetric input, which keeps
    the verification chain free of library dependencies.

    Each rotation is one symmetric update of rows and columns p and q,
    with the bits of the two-sided update (see the module docstring).
    The matrix is scaled by ``2**-e``, ``e = frexp(max |a_ij|)[1]``, and
    the eigenvalues by ``2**e``, so the norms neither overflow nor
    underflow; both scalings are exact unless a scaled entry or
    eigenvalue is subnormal.  Off-diagonal entries below 1e-300 in the
    caller's units are set to zero instead of rotated, so subnormal
    off-diagonal entries are dropped.  Raises ``ValueError`` on a
    non-square, oversize, non-finite or asymmetric matrix, and on one
    whose eigenvalues lie beyond the float range.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > 256:
        raise ValueError(f"dense Jacobi solver is limited to 256x256, got {n}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no inf or NaN)")
    scale = np.max(np.abs(a), initial=0.0)
    if not (a == a.T).all():  # exactly symmetric input, the usual case, skips the difference
        with np.errstate(over="ignore"):  # a difference beyond the float range is inf: asymmetric
            asym = np.max(np.abs(a - a.T))
        if asym > 1e-12 * max(scale, 1.0):
            raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")
    if n == 0:
        return np.zeros(0)
    exp = math.frexp(scale)[1]
    a = np.ldexp(a, -exp)
    a = 0.5 * (a + a.T)
    tiny = math.ldexp(1e-300, -exp)

    norm = math.sqrt(np.sum(a * a))
    if norm == 0.0:
        return np.zeros(n)

    def offnorm():
        off = a - np.diag(np.diag(a))
        return math.sqrt(np.sum(off * off))

    u, v, w = np.empty(n), np.empty(n), np.empty(n)
    multiply, copysign, hypot, sqrt = np.multiply, math.copysign, math.hypot, math.sqrt
    for _ in range(_JACOBI_MAX_SWEEPS):
        if offnorm() <= _JACOBI_TOL * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a.item(p, q)
                if apq == 0.0:
                    continue
                if abs(apq) < tiny:
                    a[p, q] = a[q, p] = 0.0
                    continue
                app = a.item(p, p)
                aqq = a.item(q, q)
                theta = (aqq - app) / (2.0 * apq)
                t = copysign(1.0, theta) / (abs(theta) + hypot(theta, 1.0))
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                # u = c a_p - s a_q and v = s a_p + c a_q, w a scratch row
                row_p, row_q = a[p], a[q]
                multiply(c, row_p, u)
                multiply(s, row_q, w)
                u -= w
                multiply(s, row_p, v)
                multiply(c, row_q, w)
                v += w
                a[p] = a[:, p] = u
                a[q] = a[:, q] = v
                a[p, p] = c * (c * app - s * apq) - s * (c * apq - s * aqq)
                a[q, q] = s * (s * app + c * apq) + c * (s * apq + c * aqq)
                a[p, q] = a[q, p] = 0.0
    else:
        raise RuntimeError("Jacobi iteration failed to converge")

    vals = np.sort(np.diag(a))
    # |vals| < 2**top, and the prescale is undone exactly unless 2**(top + exp) overflows
    top = math.frexp(max(-vals[0], vals[-1]))[1]
    if top + exp > 1024:
        raise ValueError(f"eigenvalues lie beyond the float range: max |eigenvalue| >= 2**{top + exp - 1}")
    return np.ldexp(vals, exp)
