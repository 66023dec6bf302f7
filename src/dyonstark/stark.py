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

import numpy as np

from .specfun import HalfInteger, half
from .states import (
    ParabolicState,
    PhysicalParams,
    _check_s,
    _label_beta,
    _label_x2,
    _moment_labels,
    _real,
    _shell,
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
    """Uniform electric field of strength epsilon along +x3.

    epsilon may be any real number but a bool (numpy scalars included), as
    ``PhysicalParams.gamma_c``, and is stored as a Python float, -0.0 as 0.0.
    """

    epsilon: float = 0.0

    def __post_init__(self):
        epsilon = _real("epsilon", self.epsilon)
        if not (epsilon >= 0 and math.isfinite(epsilon)):
            raise ValueError(f"epsilon must be a finite non-negative number, got {self.epsilon!r}")
        # + 0.0 folds -0.0 into 0.0: one field, one byte stream
        object.__setattr__(self, "epsilon", epsilon + 0.0)

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


def _label_bracket(n2x: int, s2: int, n1, n2, m2):
    """``bracket_twelfths`` of the label (n1, n2, m2) in shell 2n = n2x at 2s = s2.

    The labels are ints, or int64 arrays for a bracket per element; 2X is
    ``states._label_x2``'s, the integer the separation constant takes.
    """
    return 3 * n2x * _label_x2(s2, n1, n2, m2) + m2 * s2


def _shift(unit: float, bracket, epsilon: float):
    """The shift of a state with this bracket, ``unit`` being ``shift_unit``;
    an int64 array of brackets gives a float array of shifts.

    epsilon multiplies last, so scaling the field scales the shift with
    no extra rounding: the shift at field eps equals eps times the shift
    at unit field, bitwise.
    """
    return (unit * (bracket / 12.0)) * epsilon


def _dipole(unit: float, bracket):
    """-d(shift)/d(eps) of ``_shift``; + 0.0 folds -0.0 into 0.0."""
    return -_shift(unit, bracket, 1.0) + 0.0


def integral_I(p, q, n, params: PhysicalParams) -> float:
    """Closed form of integral Phi_pq^2 dx: a*n for every p, q, so the one
    float serves arrays of p and q as well."""
    _moment_labels(p, q)
    return params.a * float(n)


def integral_II(p, q, n, params: PhysicalParams):
    """Closed form of integral x^2 Phi_pq^2 dx.

    2 (a n)^3 [3 p (p + |q| + 1) + (|q|/2)(|q| + 3) + 1]; p and q are
    numbers, or arrays for a moment per element.
    """
    p, aq = _moment_labels(p, q)
    bracket = 3.0 * p * (p + aq + 1) + 0.5 * aq * (aq + 3) + 1.0
    return 2.0 * (params.a * float(n)) ** 3 * bracket


def _shift_integral(n2x: int, s2: int, n1, n2, m2, epsilon: float, params: PhysicalParams):
    """``shift_integral_form`` of the label (n1, n2, m2) in shell 2n = n2x at 2s = s2.

    The labels are ints, or int64 arrays for a shift per element:
    (eps / 4 a^3 n^4) (II_{n1,m-s} I_{n2,m+s} - I_{n1,m-s} II_{n2,m+s}).
    """
    nf = n2x / 2.0
    q1, q2 = (m2 - s2) // 2, (m2 + s2) // 2
    term = integral_II(n1, q1, nf, params) * integral_I(n2, q2, nf, params) - integral_I(
        n1, q1, nf, params
    ) * integral_II(n2, q2, nf, params)
    return epsilon / (4.0 * params.a**3 * nf**4) * term


def shift_integral_form(
    state: ParabolicState, field: FieldConfig, params: PhysicalParams
) -> float:
    """First-order shift assembled from the two closed-form integrals
    (``_shift_integral``)."""
    _check_s(state.s, params)
    return _shift_integral(state.n.twice, state.s.twice, state.n1, state.n2, state.m.twice, field.epsilon, params)


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


def _dipole_operator(n2x: int, s2: int, n1, n2, m2, params: PhysicalParams):
    """``dipole_operator_expectation`` of the label (n1, n2, m2) in shell 2n = n2x
    at 2s = s2; the labels are ints, or int64 arrays for a dipole per element.

    d_z = 3 gamma / (4 E0) I3 - s / (2 gamma) J3,
    with I3 the dimensionless Runge-Lenz projection beta / gamma and
    J3 = m.
    """
    e0 = energy_level(HalfInteger(n2x), params)
    i3 = _label_beta(n2x, s2, n1, n2, m2, params, e0) / params.gamma_c
    j3 = m2 / 2.0
    return 3.0 * params.gamma_c / (4.0 * e0) * i3 - (s2 / 2.0) / (2.0 * params.gamma_c) * j3


def dipole_operator_expectation(state: ParabolicState, params: PhysicalParams) -> float:
    """Dipole along x3 evaluated from conserved-operator eigenvalues
    (``_dipole_operator``).  Must reproduce mean_dipole state by state."""
    _check_s(state.s, params)
    return _dipole_operator(state.n.twice, state.s.twice, state.n1, state.n2, state.m.twice, params)


def shift_columns(n, s, field: FieldConfig, params: PhysicalParams) -> dict[str, np.ndarray]:
    """The n1, n2, m2, e1 and dipole_z columns of one shell, one row per
    state, computed from the label arrays with no state object; the
    shell's n, s2 and e0 are added by ``tables``.

    n1, n2 and m2 are int64 arrays, and e1 and dipole_z float arrays.
    ``_label_bracket``, ``_shift`` and ``_dipole`` act elementwise on the
    arrays, so each bracket is exact in int64 and each shift has the bits
    of the scalar forms.  Rows are sorted by the shift (compared exactly
    through the integer bracket, so equal shifts are true ties) and then
    by (n1, n2, m); with no field every shift is 0, and the order is
    (n1, n2, m) alone.
    """
    n, s = _shell(n, s, params)
    n1, n2, m2 = parabolic_labels(n, s)
    brackets = _label_bracket(n.twice, s.twice, n1, n2, m2)
    if field.epsilon > 0:
        order = np.argsort(brackets, kind="stable")  # the labels are already in (n1, n2, m) order
        brackets, n1, n2, m2 = brackets[order], n1[order], n2[order], m2[order]
    unit = shift_unit(params)
    # a huge field or a tiny coupling overflows the shifts; the CLI refuses
    # such inputs with exit 2, so numpy need not warn first
    with np.errstate(over="ignore"):
        e1, dipole_z = _shift(unit, brackets, field.epsilon), _dipole(unit, brackets)
    return {"n1": n1, "n2": n2, "m2": m2, "e1": e1, "dipole_z": dipole_z}


def stark_table(
    n, s, field: FieldConfig, params: PhysicalParams
) -> list[StarkShiftRecord]:
    """One record per shell state, in ``shift_columns`` order."""
    columns = shift_columns(n, s, field, params)
    e0 = energy_level(n, params)
    labels = zip(columns["n1"].tolist(), columns["n2"].tolist(), columns["m2"].tolist())
    s = half(s)
    return [
        StarkShiftRecord(ParabolicState(n1, n2, HalfInteger(m2), s), e0, e1, dipole_z)
        for (n1, n2, m2), e1, dipole_z in zip(labels, columns["e1"].tolist(), columns["dipole_z"].tolist())
    ]
