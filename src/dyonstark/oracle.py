"""Independent verification path for the Stark closed forms.

Nothing here trusts the analytic shift formulas: matrix elements of
V = eps (xi - eta)/2 (atomic units) between unperturbed parabolic states are
evaluated by Gauss-Laguerre quadrature over the full volume measure
dV = (xi + eta)/4 dxi deta dphi, assembled into one dense symmetric
matrix per (shell, m) sector, and diagonalized with the in-house
Jacobi solver.  First-order degenerate perturbation theory says the
sorted eigenvalues must reproduce the closed-form shifts.

Each sector is built from its own labels, never by enumerating the
shell: as n = n1 + n2 + max(|m|, |s|) + 1, the (n, m) sector holds the
states with n1 + n2 = n - 1 - max(|m|, |s|), n1 ascending, so its
dimension is n - max(|m|, |s|), nonzero for every m = -(n - 1), ...,
n - 1.  ``build_subspace`` builds one sector and ``shell_sectors`` each
of a shell's sectors once; every shell-wide result (eigenvalues,
off-diagonals) is read from its list.

Between two states the xi moment x^k Phi_{n1_a q1} Phi_{n1_b q1}, at
the scale 2 a n_a n_b / (n_a + n_b), is e^{-t} times a polynomial of
degree d = n1_a + n1_b + |q1| + k (the eta moment the same with n2
and q2).  An N-node Gauss rule is exact up to degree 2N - 1, so
N = d // 2 + 1 makes the moment exact up to rounding, not merely
converged.  ``matrix_element_V`` takes that order per element and
moment.  A sector shares one shell, so each of its two factors, rows
p = 0..k = n1 + n2 at |q|, is two Gram matrices F diag(w x^j) F^T
(j = 0, 2) from ``states.phi_grams``, the builder c02 checks against
the closed forms: one rule, ordered by the factor's highest-degree pair
(d = 2k + |q| + 2), and one ``phi_table`` pass.  With the other factor's
two they give every entry at once.  Phi_pq depends on |q| alone, so a
factor is the key (k, |q|), and ``shell_sectors`` builds each key's pair
once per call: sector -m has the keys of sector m, |m - s| and |m + s|,
swapped.  The eta role reads its pair reversed in both indices, since a
sector's row i has n2 = k - i; that is bit for bit the Gram matrix of
the reversed rows.  The highest order any shell up to N_MAX needs,
N_MAX + 1 nodes for (n1, n2, m) = (N_MAX - 1, 0, 0) at s = 0, is the rule
cap, so every element and sector is built; an order past the cap raises
ValueError before any Phi is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import jacobi_eigenvalues
from .specfun import HalfInteger, half
from .stark import FieldConfig
from .states import (
    ParabolicState,
    PhysicalParams,
    _check_s,
    _factor_moments,
    _shell,
    phi_grams,
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
    """<a| eps (xi - eta)/2 |b> over dV, by product quadrature.

    States with different m are orthogonal through the phi integral and
    short-circuit to exactly zero.  Different s is a caller error: the
    two states then live in different Hamiltonians.  Without
    ``quad_order`` each moment is taken at the order that makes it exact;
    an explicit order is used as given for all four moments.
    """
    if a.s != b.s:
        raise ValueError(f"states carry different monopole numbers: {a.s} vs {b.s}")
    _check_s(a.s, params)
    _check_s(b.s, params)
    if a.m != b.m:
        return 0.0
    if field.epsilon == 0.0:
        return 0.0
    norm, g0_xi, g2_xi, g0_eta, g2_eta = _factor_moments(a, b, 2, params, quad_order)
    return norm * field.epsilon / 8.0 * (g2_xi * g0_eta - g0_xi * g2_eta)


def _sector_entries(xi, eta, nf: float, field: FieldConfig, params: PhysicalParams) -> np.ndarray:
    """A sector's symmetric V from the (G0, G2) of its xi factor and of its eta factor.

    Row i is n1 = i, so the eta rows run n2 = k - i: its pair is read
    reversed in both indices, which is bit for bit the Gram matrix of the
    reversed table.
    """
    (g0_xi, g2_xi), (g0_eta, g2_eta) = xi, (g[::-1, ::-1] for g in eta)
    pref = 2.0 / (nf**4 * params.a**3) * field.epsilon / 8.0
    upper = np.triu(pref * (g2_xi * g0_eta - g0_xi * g2_eta))
    return upper + np.triu(upper, 1).T


def _sector_factors(n: HalfInteger, s: HalfInteger, m: HalfInteger) -> tuple[int, tuple[int, int]]:
    """(k, (|m - s|, |m + s|)) of the (n, m) sector: its rows n1 = 0..k, and the |q| of its xi and eta factors."""
    k2 = n.twice - 2 - max(abs(m.twice), abs(s.twice))  # 2 (n1 + n2)
    if k2 < 0 or (m.twice - s.twice) % 2:
        raise ValueError(f"shell n={n}, s={s} has no states with m={m}")
    return k2 // 2, (abs(m.twice - s.twice) // 2, abs(m.twice + s.twice) // 2)


def _sector_grams(k: int, qs, nf: float, params: PhysicalParams, built: dict) -> list:
    """The (G0, G2) pairs of a sector's xi and eta factors, read from ``built`` by (k, |q|).

    A key it lacks is built by ``phi_grams`` and stored, the larger |q|
    first: its rule has the higher order, so a sector past the rule cap
    raises before any Phi is evaluated.
    """
    for q in sorted(qs, reverse=True):
        if (k, q) not in built:
            built[k, q] = phi_grams(k, q, nf, params, (0, 2))
    return [built[k, q] for q in qs]


def build_subspace(n, s, m, field: FieldConfig, params: PhysicalParams, *, grams=None) -> SubspaceMatrix:
    """Assemble the symmetric V matrix over the (n, m) sector, from its labels.

    ``grams`` is the sector's (xi, eta) pair of factor Gram pairs when the
    caller has built them, as ``shell_sectors`` does; without it both are
    built here.  It is not read in a zero field.
    """
    n, s = _shell(n, s, params)
    m = half(m)
    k, qs = _sector_factors(n, s, m)
    entries = np.zeros((k + 1, k + 1))
    if field.epsilon != 0.0:
        if grams is None:
            grams = _sector_grams(k, qs, n.value, params, {})
        entries = _sector_entries(*grams, n.value, field, params)
    return SubspaceMatrix(n=n, m=m, s=s, entries=entries)


def shell_sectors(n, s, field: FieldConfig, params: PhysicalParams) -> list[SubspaceMatrix]:
    """Every (n, m) sector of the shell, one ``build_subspace`` each, m ascending.

    This is the one loop over a shell's m = -(n - 1), ..., n - 1.  Each
    factor's Gram pair is built once per (k, |q|) and kept for the call:
    sector -m has the keys of sector m, (|m - s|, |m + s|), swapped.
    """
    n, s = _shell(n, s, params)
    built: dict = {}
    sectors = []
    for m2 in range(2 - n.twice, n.twice - 1, 2):
        m, grams = HalfInteger(m2), None
        if field.epsilon != 0.0:
            k, qs = _sector_factors(n, s, m)
            grams = _sector_grams(k, qs, n.value, params, built)
        sectors.append(build_subspace(n, s, m, field, params, grams=grams))
    return sectors


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
