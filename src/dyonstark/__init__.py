"""Bound states and the linear Stark effect of a charge bound to a Dirac dyon.

The library computes the discrete spectrum, spherical and parabolic
wavefunctions, and first-order Stark shifts of the monopole-Coulomb
(charge-dyon) problem, and cross-validates every closed form against
an independent quadrature-and-diagonalization pipeline.
"""

from .quadrature import QuadratureRule, gauss_laguerre, gauss_legendre, integrate_halfline
from .specfun import HalfInteger, half, hyp1f1_poly, wigner_d
from .stark import (
    FieldConfig,
    StarkShiftRecord,
    dipole_operator_expectation,
    integral_I,
    integral_II,
    mean_dipole,
    shell_splitting,
    shift_closed_form,
    shift_integral_form,
    stark_table,
)
from .states import (
    ParabolicPoint,
    ParabolicState,
    PhysicalParams,
    SphericalState,
    beta_eigenvalue,
    cartesian_to_parabolic,
    energy_level,
    enumerate_shell_parabolic,
    enumerate_shell_spherical,
    parabolic_psi,
    parabolic_to_cartesian,
    phi_pq,
    psi_grid,
    radial_R,
    spherical_psi,
    volume_element,
)

__version__ = "0.1.0"

__all__ = [
    "HalfInteger",
    "half",
    "hyp1f1_poly",
    "wigner_d",
    "QuadratureRule",
    "gauss_laguerre",
    "gauss_legendre",
    "integrate_halfline",
    "PhysicalParams",
    "SphericalState",
    "ParabolicState",
    "ParabolicPoint",
    "energy_level",
    "enumerate_shell_spherical",
    "enumerate_shell_parabolic",
    "beta_eigenvalue",
    "radial_R",
    "spherical_psi",
    "phi_pq",
    "parabolic_psi",
    "psi_grid",
    "parabolic_to_cartesian",
    "cartesian_to_parabolic",
    "volume_element",
    "FieldConfig",
    "StarkShiftRecord",
    "integral_I",
    "integral_II",
    "shift_integral_form",
    "shift_closed_form",
    "shell_splitting",
    "mean_dipole",
    "dipole_operator_expectation",
    "stark_table",
]
