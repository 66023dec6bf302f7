"""Independent verification path for the Stark closed forms.

Nothing here trusts the analytic shift formulas: matrix elements of
V = |e| eps (xi - eta)/2 between unperturbed parabolic states are
evaluated by Gauss-Laguerre quadrature over the full volume measure
dV = (xi + eta)/4 dxi deta dphi, assembled into one dense symmetric
matrix per (shell, m) sector, and diagonalized with the in-house
Jacobi solver.  First-order degenerate perturbation theory says the
sorted eigenvalues must reproduce the closed-form shifts.

The quadrature scale is the shell's own a*n, which turns every
integrand into a polynomial times the rule's weight: the numbers are
exact up to rounding, not merely converged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .eigen import jacobi_eigenvalues
from .quadrature import MAX_ORDER
from .specfun import HalfInteger, half
from .stark import FieldConfig
from .states import (
    ParabolicState,
    PhysicalParams,
    _check_state_params,
    enumerate_shell_parabolic,
    phi_pair_moment,
)

__all__ = [
    "SubspaceMatrix",
    "resolve_quad_order",
    "matrix_element_V",
    "build_subspace",
    "jacobi_eigenvalues",
    "oracle_shifts",
    "offdiagonal_report",
]

DEFAULT_QUAD_ORDER = 48
QUAD_ORDER_ENV = "DYONSTARK_QUAD_ORDER"


def resolve_quad_order(quad_order: int | None = None) -> int:
    """Explicit argument, else the DYONSTARK_QUAD_ORDER env var, else 48."""
    if quad_order is not None:
        return int(quad_order)
    env = os.environ.get(QUAD_ORDER_ENV)
    if not env:
        return DEFAULT_QUAD_ORDER
    try:
        value = int(env)
    except ValueError:
        value = 0
    if not 1 <= value <= MAX_ORDER:
        raise ValueError(f"{QUAD_ORDER_ENV} must be an integer in [1, {MAX_ORDER}], got {env!r}")
    return value


@dataclass(frozen=True)
class SubspaceMatrix:
    """The perturbation restricted to one degenerate (n, m) sector."""

    n: HalfInteger
    m: HalfInteger
    s: HalfInteger
    basis: tuple[ParabolicState, ...]
    entries: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _auto_order(a: ParabolicState, b: ParabolicState, quad_order: int | None) -> int:
    floor = a.n1 + a.n2 + b.n1 + b.n2 + abs(a.s.twice) + 10
    return max(resolve_quad_order(quad_order), floor)


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
    two states then live in different Hamiltonians.
    """
    if a.s != b.s:
        raise ValueError(f"states carry different monopole numbers: {a.s} vs {b.s}")
    _check_state_params(a, params)
    _check_state_params(b, params)
    if a.m != b.m:
        return 0.0
    if field.epsilon == 0.0:
        return 0.0
    order = _auto_order(a, b, quad_order)
    n_a, n_b = a.n.value, b.n.value
    q1, q2 = a.q1, a.q2
    g0_xi = phi_pair_moment(a.n1, b.n1, q1, 0, n_a, n_b, params, order)
    g2_xi = phi_pair_moment(a.n1, b.n1, q1, 2, n_a, n_b, params, order)
    g0_eta = phi_pair_moment(a.n2, b.n2, q2, 0, n_a, n_b, params, order)
    g2_eta = phi_pair_moment(a.n2, b.n2, q2, 2, n_a, n_b, params, order)
    pref = 2.0 / (n_a**2 * n_b**2 * params.a**3) * params.e_abs * field.epsilon / 8.0
    return pref * (g2_xi * g0_eta - g0_xi * g2_eta)


def _assemble(
    n: HalfInteger,
    s: HalfInteger,
    m: HalfInteger,
    basis: list[ParabolicState],
    field: FieldConfig,
    params: PhysicalParams,
    quad_order: int | None,
) -> SubspaceMatrix:
    dim = len(basis)
    entries = np.zeros((dim, dim))
    for i in range(dim):
        for jj in range(i, dim):
            val = matrix_element_V(basis[i], basis[jj], field, params, quad_order)
            entries[i, jj] = val
            entries[jj, i] = val
    return SubspaceMatrix(n=n, m=m, s=s, basis=tuple(basis), entries=entries)


def build_subspace(
    n,
    s,
    m,
    field: FieldConfig,
    params: PhysicalParams,
    quad_order: int | None = None,
) -> SubspaceMatrix:
    """Assemble the symmetric V matrix over all shell states with this m."""
    n, s, m = half(n), half(s), half(m)
    basis = [st for st in enumerate_shell_parabolic(n, s) if st.m == m]
    if not basis:
        raise ValueError(f"shell n={n}, s={s} has no states with m={m}")
    return _assemble(n, s, m, basis, field, params, quad_order)


def _all_subspaces(
    n, s, field: FieldConfig, params: PhysicalParams, quad_order: int | None
) -> list[SubspaceMatrix]:
    """Every m sector of the shell, m ascending, from one enumeration."""
    n, s = half(n), half(s)
    by_m: dict[int, list[ParabolicState]] = {}
    for st in enumerate_shell_parabolic(n, s):
        by_m.setdefault(st.m.twice, []).append(st)
    return [
        _assemble(n, s, HalfInteger(m2), by_m[m2], field, params, quad_order)
        for m2 in sorted(by_m)
    ]


def oracle_shifts(
    n,
    s,
    field: FieldConfig,
    params: PhysicalParams,
    quad_order: int | None = None,
) -> list[tuple[HalfInteger, np.ndarray]]:
    """Per-m-sector eigenvalues of the numerically assembled perturbation.

    Returns (m, ascending eigenvalues) pairs, m ascending.  The union
    over sectors is the oracle's answer for the full shell splitting
    pattern.
    """
    return [
        (sub.m, jacobi_eigenvalues(sub.entries))
        for sub in _all_subspaces(n, s, field, params, quad_order)
    ]


def offdiagonal_report(
    n,
    s,
    field: FieldConfig,
    params: PhysicalParams,
    quad_order: int | None = None,
) -> float:
    """Largest |off-diagonal| of V over all m sectors of the shell.

    The parabolic basis diagonalizes the perturbation inside a shell,
    which is exactly why first-order shifts have a closed form; this
    reports how well the quadrature pipeline reproduces that zero.
    """
    worst = 0.0
    for sub in _all_subspaces(n, s, field, params, quad_order):
        if sub.dimension < 2:
            continue
        off = sub.entries - np.diag(np.diag(sub.entries))
        worst = max(worst, float(np.max(np.abs(off))))
    return worst
