"""Wavefunctions in both bases, and the checks that pin them down.

Spherical states carry Wigner d-functions instead of spherical
harmonics; parabolic states factor into two confluent-hypergeometric
profiles in xi = r + x3 and eta = r - x3.  Everything is normalized
under the curvilinear volume element dV = (xi + eta)/4 dxi deta dphi,
and the overlaps below check that claim by product Gauss quadrature.

Run:  python demos/02_wavefunctions.py
"""

import numpy as np

from dyonstark import (
    ParabolicPoint,
    ParabolicState,
    PhysicalParams,
    SphericalState,
    half,
    parabolic_psi,
)
from dyonstark.states import (
    parabolic_hamiltonian_residual,
    parabolic_overlap,
    spherical_overlap,
)

s = half("1/2")
params = PhysicalParams.atomic(s)

print("norms and orthogonality by product Gauss quadrature (s = 1/2):")
a = SphericalState(n=half("5/2"), j=half("3/2"), m=half("1/2"), s=s)
b = SphericalState(n=half("7/2"), j=half("3/2"), m=half("1/2"), s=s)
print(f"  <a|a> = {spherical_overlap(a, a, params):+.15f}")
print(f"  <a|b> = {spherical_overlap(a, b, params):+.3e}   (different shells)")

pa = ParabolicState(1, 0, half("1/2"), s)
pb = ParabolicState(0, 1, half("1/2"), s)
print(f"  parabolic <a|a> = {parabolic_overlap(pa, pa, params):+.15f}")
print(f"  parabolic <a|b> = {parabolic_overlap(pa, pb, params):+.3e}   (same m sector)")

print("\nSchroedinger residual |H psi - E psi| / |E psi|, bounded one separated factor at a time:")
for state in (pa, pb, ParabolicState(0, 0, half("3/2"), s)):
    res = parabolic_hamiltonian_residual(state, params)
    print(f"  (n1={state.n1}, n2={state.n2}, m={state.m}): {res:.2e}")

print("\nwavefunction values along the field axis (xi varies, eta = 0.5 a):")
for xi in np.linspace(0.5, 8.0, 6):
    val = parabolic_psi(pa, ParabolicPoint(xi, 0.5, 0.0), params)
    print(f"  xi = {xi:5.2f}:  psi = {val.real:+.6e} {val.imag:+.6e}j")

