"""Independent verification path for the Stark closed forms.

Nothing here trusts the analytic shift formulas: matrix elements of
V = |e| eps (xi - eta)/2 between unperturbed parabolic states are
evaluated by Gauss-Laguerre quadrature over the full volume measure
dV = (xi + eta)/4 dxi deta dphi, assembled into one dense symmetric
matrix per (shell, m) sector, and diagonalized with the in-house
Jacobi solver.  First-order degenerate perturbation theory says the
sorted eigenvalues must reproduce the closed-form shifts.

``build_subspace`` is the one sector path, and it builds each sector
from its own labels, never by enumerating the shell: as
n = n1 + n2 + max(|m|, |s|) + 1, the (n, m) sector holds the states
with n1 + n2 = n - 1 - max(|m|, |s|), n1 ascending, so its dimension is
n - max(|m|, |s|), nonzero for every m = -(n - 1), ..., n - 1.
``shell_sectors`` builds each of those sectors once, and every
shell-wide result (eigenvalues, off-diagonals) is read from its list.

Between two states the xi moment x^k Phi_{n1_a q1} Phi_{n1_b q1}, at
the scale 2 a n_a n_b / (n_a + n_b), is e^{-t} times a polynomial of
degree d = n1_a + n1_b + |q1| + k (the eta moment the same with n2
and q2).  An N-node Gauss rule is exact up to degree 2N - 1, so
N = d // 2 + 1 makes the moment exact up to rounding, not merely
converged.  ``matrix_element_V`` takes that order per element and
moment.  A sector shares one shell, so each of its two factors takes
one rule, ordered by the sector's highest-degree pair
(d = 2 (n1 + n2) + |q1| + 2).  Each factor's Phi rows, every degree
0..n1 + n2 on those nodes, come from one recurrence pass
(``phi_table``), and the four Gram matrices F diag(w x^k) F^T (k = 0, 2)
give every entry at once.  The highest order any shell up to N_MAX
needs, N_MAX + 1 nodes for (n1, n2, m) = (N_MAX - 1, 0, 0) at s = 0, is
the rule cap, so every element and sector is built; an order past the
cap raises ValueError before any Phi is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import jacobi_eigenvalues
from .quadrature import gauss_laguerre
from .specfun import HalfInteger, half
from .stark import FieldConfig
from .states import (
    ParabolicState,
    PhysicalParams,
    _check_state_params,
    _exact_order,
    _shell,
    phi_pair_moment,
    phi_table,
)

__all__ = [
    "SubspaceMatrix",
    "matrix_element_V",
    "build_subspace",
    "shell_sectors",
    "oracle_shifts",
    "offdiagonal_report",
]


@dataclass(frozen=True)
class SubspaceMatrix:
    """The perturbation restricted to one degenerate (n, m) sector; row i is the label n1 = i."""

    n: HalfInteger
    m: HalfInteger
    s: HalfInteger
    entries: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def largest_offdiagonal(self) -> float:
        """Largest |entry| off the diagonal; 0.0 for a one-state sector."""
        off = self.entries[~np.eye(self.dimension, dtype=bool)]
        return float(np.max(np.abs(off), initial=0.0))


def matrix_element_V(
    a: ParabolicState,
    b: ParabolicState,
    field: FieldConfig,
    params: PhysicalParams,
    quad_order: int | None = None,
) -> float:
    """<a| |e| eps (xi - eta)/2 |b> over dV, by product quadrature.

    States with different m are orthogonal through the phi integral and
    short-circuit to exactly zero.  Different s is a caller error: the
    two states then live in different Hamiltonians.  Without
    ``quad_order`` each moment is taken at the order that makes it exact;
    an explicit order is used as given for all four moments.
    """
    if a.s != b.s:
        raise ValueError(f"states carry different monopole numbers: {a.s} vs {b.s}")
    _check_state_params(a, params)
    _check_state_params(b, params)
    if a.m != b.m:
        return 0.0
    if field.epsilon == 0.0:
        return 0.0
    n_a, n_b = a.n.value, b.n.value
    q1, q2 = a.q1, a.q2
    g0_xi = phi_pair_moment(a.n1, b.n1, q1, 0, n_a, n_b, params, quad_order)
    g2_xi = phi_pair_moment(a.n1, b.n1, q1, 2, n_a, n_b, params, quad_order)
    g0_eta = phi_pair_moment(a.n2, b.n2, q2, 0, n_a, n_b, params, quad_order)
    g2_eta = phi_pair_moment(a.n2, b.n2, q2, 2, n_a, n_b, params, quad_order)
    pref = 2.0 / (n_a**2 * n_b**2 * params.a**3) * params.e_abs * field.epsilon / 8.0
    return pref * (g2_xi * g0_eta - g0_xi * g2_eta)


def build_subspace(n, s, m, field: FieldConfig, params: PhysicalParams) -> SubspaceMatrix:
    """Assemble the symmetric V matrix over the (n, m) sector, from its labels."""
    n, s = _shell(n, s, params)
    m = half(m)
    k2 = n.twice - 2 - max(abs(m.twice), abs(s.twice))  # 2 (n1 + n2)
    if k2 < 0 or (m.twice - s.twice) % 2:
        raise ValueError(f"shell n={n}, s={s} has no states with m={m}")
    k = k2 // 2
    entries = np.zeros((k + 1, k + 1))
    if field.epsilon != 0.0:
        nf = n.value
        scale = params.a * nf
        qs = ((m.twice - s.twice) // 2, (m.twice + s.twice) // 2)  # m - s, m + s
        # both rules first: a sector past the order cap raises before any moment
        rules = [gauss_laguerre(_exact_order(k2 + abs(q) + 2)) for q in qs]
        moments = []
        for q, rule, step in zip(qs, rules, (1, -1)):
            x = scale * rule.nodes
            w = scale * rule.lifted_weights
            # one recurrence pass per factor: xi rows by n1 ascending, eta rows by n2 = k - n1
            table = phi_table(k, q, x, nf, params)[::step]
            # G_k = F diag(w x^k) F^T for k = 0, 2; einsum sums in a fixed order, without BLAS
            moments += [np.einsum("ik,jk->ij", table * wk, table) for wk in (w, w * x**2)]
        g0_xi, g2_xi, g0_eta, g2_eta = moments
        pref = 2.0 / (nf**4 * params.a**3) * params.e_abs * field.epsilon / 8.0
        upper = np.triu(pref * (g2_xi * g0_eta - g0_xi * g2_eta))
        entries = upper + np.triu(upper, 1).T
    return SubspaceMatrix(n=n, m=m, s=s, entries=entries)


def shell_sectors(n, s, field: FieldConfig, params: PhysicalParams) -> list[SubspaceMatrix]:
    """Every (n, m) sector of the shell, built once each, m ascending.

    This is the one loop over a shell's m = -(n - 1), ..., n - 1.
    """
    n, s = _shell(n, s, params)  # the m range below is empty for n < 1
    return [
        build_subspace(n, s, HalfInteger(m2), field, params)
        for m2 in range(2 - n.twice, n.twice - 1, 2)
    ]


def oracle_shifts(
    n,
    s,
    field: FieldConfig,
    params: PhysicalParams,
) -> list[tuple[HalfInteger, np.ndarray]]:
    """Per-m-sector eigenvalues of the numerically assembled perturbation.

    Returns (m, ascending eigenvalues) pairs, m ascending.  The union
    over sectors is the oracle's answer for the full shell splitting
    pattern.
    """
    return [(sub.m, jacobi_eigenvalues(sub.entries)) for sub in shell_sectors(n, s, field, params)]


def offdiagonal_report(
    n,
    s,
    field: FieldConfig,
    params: PhysicalParams,
) -> float:
    """Largest |off-diagonal| of V over all m sectors of the shell.

    The parabolic basis diagonalizes the perturbation inside a shell,
    which is exactly why first-order shifts have a closed form; this
    reports how well the quadrature pipeline reproduces that zero.
    """
    return max(sub.largest_offdiagonal for sub in shell_sectors(n, s, field, params))
