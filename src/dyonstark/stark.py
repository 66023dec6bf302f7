"""Closed-form first-order Stark theory for the charge-dyon system.

A uniform electric field epsilon along +x3 adds epsilon z to the
Hamiltonian (atomic units hbar = mu = |e| = 1, coupling gamma).  In the
parabolic basis the perturbation is diagonal within every degenerate
shell, so first-order shifts come out in closed form:

    E1 = (3 eps / 2 gamma) [ n (n1 - n2 + (|m-s|-|m+s|)/2) + m s / 3 ]

The bracket is an exact integer multiple of 1/12 once doubled quantum
numbers are used, so ties, injectivity and extreme components are all
decided in integer arithmetic, never by float comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from .specfun import HalfInteger, half
from .states import (
    ParabolicState,
    PhysicalParams,
    _check_s,
    _shell,
    beta_eigenvalue,
    energy_level,
    parabolic_labels,
)

__all__ = [
    "FieldConfig",
    "StarkShiftRecord",
    "shift_unit",
    "shift_quantum",
    "bracket_twelfths",
    "integral_I",
    "integral_II",
    "shift_integral_form",
    "shift_closed_form",
    "shell_splitting",
    "mean_dipole",
    "dipole_operator_expectation",
    "shift_columns",
    "stark_table",
]


@dataclass(frozen=True)
class FieldConfig:
    """Uniform electric field of strength epsilon along +x3."""

    epsilon: float = 0.0

    def __post_init__(self):
        if not (self.epsilon >= 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be a finite non-negative number, got {self.epsilon}")

    def perturbative_ratio(self, n, params: PhysicalParams) -> float:
        """eps a^2 n^4 / gamma: first-order shift over level spacing.

        Reported as a diagnostic only; first-order theory is credible
        while this stays well below one.  No hard cap is enforced.
        """
        nf = float(half(n).value)
        return self.epsilon * params.a**2 * nf**4 / params.gamma_c


@dataclass(frozen=True)
class StarkShiftRecord:
    """One shell state with its energy, first-order shift and dipole."""

    state: ParabolicState
    e0: float
    e1: float
    dipole_z: float


def shift_unit(params: PhysicalParams) -> float:
    """3 / (2 gamma): the shift scale per unit field."""
    return 3.0 / (2.0 * params.gamma_c)


def shift_quantum(field: FieldConfig, params: PhysicalParams) -> float:
    """3 eps / (2 gamma): the scale of every shift."""
    return shift_unit(params) * field.epsilon


def bracket_twelfths(state: ParabolicState) -> int:
    """12 [n (n1 - n2 + (|m-s|-|m+s|)/2) + m s / 3] as an exact integer.

    With doubled quantum numbers: 3 (2n)(2X) + (2m)(2s), where
    X = n1 - n2 + (|m-s| - |m+s|)/2.  Shifts are this integer times
    shift_quantum/12, which is what makes exact tie detection possible.
    """
    return _label_bracket(state.n.twice, state.s.twice, state.n1, state.n2, state.m.twice)


def _label_bracket(n2x: int, s2: int, n1: int, n2: int, m2: int) -> int:
    """``bracket_twelfths`` of the label (n1, n2, m2) in shell 2n = n2x at 2s = s2.

    m - s and m + s are integers, so |2m - 2s| - |2m + 2s| is even.
    """
    x2 = 2 * (n1 - n2) + (abs(m2 - s2) - abs(m2 + s2)) // 2
    return 3 * n2x * x2 + m2 * s2


def _shift(unit: float, bracket: int, epsilon: float) -> float:
    """The shift of a state with this bracket, ``unit`` being ``shift_unit``.

    epsilon multiplies last, so scaling the field scales the shift with
    no extra rounding: the shift at field eps equals eps times the shift
    at unit field, bitwise.
    """
    return (unit * (bracket / 12.0)) * epsilon


def _dipole(unit: float, bracket: int) -> float:
    """-d(shift)/d(eps) of ``_shift``; + 0.0 folds -0.0 into 0.0."""
    return -_shift(unit, bracket, 1.0) + 0.0


def integral_I(p: int, q: int, n, params: PhysicalParams) -> float:
    """Closed form of integral Phi_pq^2 dx: a*n for every p, q."""
    if p < 0 or p != int(p):
        raise ValueError(f"p must be a non-negative integer, got {p}")
    return params.a * float(n)


def integral_II(p: int, q: int, n, params: PhysicalParams) -> float:
    """Closed form of integral x^2 Phi_pq^2 dx.

    2 (a n)^3 [3 p (p + |q| + 1) + (|q|/2)(|q| + 3) + 1].
    """
    if p < 0 or p != int(p):
        raise ValueError(f"p must be a non-negative integer, got {p}")
    aq = abs(int(q))
    bracket = 3.0 * p * (p + aq + 1) + 0.5 * aq * (aq + 3) + 1.0
    return 2.0 * (params.a * float(n)) ** 3 * bracket


def shift_integral_form(
    state: ParabolicState, field: FieldConfig, params: PhysicalParams
) -> float:
    """First-order shift assembled from the two closed-form integrals.

    (eps / 4 a^3 n^4) (II_{n1,m-s} I_{n2,m+s} - I_{n1,m-s} II_{n2,m+s})
    """
    _check_s(state.s, params)
    nf = state.n.value
    term = integral_II(state.n1, state.q1, nf, params) * integral_I(
        state.n2, state.q2, nf, params
    ) - integral_I(state.n1, state.q1, nf, params) * integral_II(
        state.n2, state.q2, nf, params
    )
    return field.epsilon / (4.0 * params.a**3 * nf**4) * term


def shift_closed_form(
    state: ParabolicState, field: FieldConfig, params: PhysicalParams
) -> float:
    """First-order Stark shift, exact bracket times the shift quantum.

    epsilon multiplies last, so scaling the field scales the shift with
    no extra rounding: e1 at field eps equals eps times e1 at unit
    field, bitwise.
    """
    _check_s(state.s, params)
    return _shift(shift_unit(params), bracket_twelfths(state), field.epsilon)


def shell_splitting(n, s, field: FieldConfig, params: PhysicalParams) -> float:
    """Distance between the extreme shell components at like m.

    Delta E_n = (3 eps / gamma) n (n - |s| - 1): the
    separation of the mirror pair (n1, n2, m) <-> (n2, n1, m) with
    maximal |n1 - n2|, in which the m-linear fine term cancels.
    Equals the largest within-m-sector spread over the shell.
    """
    n, s = _shell(n, s, params)
    # n (n - |s| - 1) via doubled integers, exact
    prod = n.twice * (n - abs(s) - 1).twice / 4.0
    return (2.0 * shift_unit(params) * prod) * field.epsilon


def mean_dipole(state: ParabolicState, params: PhysicalParams) -> float:
    """Permanent dipole moment along x3 of the unperturbed state.

    d_z = -(3 / 2 gamma) [n (n1 - n2 + (|m-s|-|m+s|)/2) + m s/3],
    which is -dE1/d eps identically.
    """
    _check_s(state.s, params)
    return _dipole(shift_unit(params), bracket_twelfths(state))


def dipole_operator_expectation(state: ParabolicState, params: PhysicalParams) -> float:
    """Dipole along x3 evaluated from conserved-operator eigenvalues.

    d_z = 3 gamma / (4 E0) I3 - s / (2 gamma) J3,
    with I3 the dimensionless Runge-Lenz projection beta / gamma and
    J3 = m.  Must reproduce mean_dipole state by state.
    """
    _check_s(state.s, params)
    e0 = energy_level(state.n, params)
    i3 = beta_eigenvalue(state, params) / params.gamma_c
    j3 = state.m.value
    return 3.0 * params.gamma_c / (4.0 * e0) * i3 - state.s.value / (2.0 * params.gamma_c) * j3


def shift_columns(n, s, field: FieldConfig, params: PhysicalParams) -> dict[str, list]:
    """The n1, n2, m2, e0, e1 and dipole_z columns of one shell, one row
    per state, computed from the labels with no state object.

    Rows are sorted by the shift (compared exactly through the integer
    bracket, so equal shifts are true ties) and then by (n1, n2, m); with
    no field every shift is 0, and the order is (n1, n2, m) alone.
    """
    n, s = _shell(n, s, params)
    rows = [(_label_bracket(n.twice, s.twice, *label), *label) for label in parabolic_labels(n, s)]
    if field.epsilon > 0:
        rows.sort(key=itemgetter(0))  # stable: the labels are already in (n1, n2, m) order
    brackets, n1, n2, m2 = map(list, zip(*rows))
    unit = shift_unit(params)
    return {
        "n1": n1,
        "n2": n2,
        "m2": m2,
        "e0": [energy_level(n, params)] * len(rows),
        "e1": list(map(_shift, repeat(unit), brackets, repeat(field.epsilon))),
        "dipole_z": list(map(_dipole, repeat(unit), brackets)),
    }


def stark_table(
    n, s, field: FieldConfig, params: PhysicalParams
) -> list[StarkShiftRecord]:
    """One record per shell state, in ``shift_columns`` order."""
    columns = shift_columns(n, s, field, params)
    s = half(s)
    return [
        StarkShiftRecord(ParabolicState(n1, n2, HalfInteger(m2), s), e0, e1, dipole_z)
        for n1, n2, m2, e0, e1, dipole_z in zip(*columns.values())
    ]
