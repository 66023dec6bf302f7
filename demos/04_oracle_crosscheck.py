"""The independent verification pipeline, shown end to end.

Nothing in the closed-form Stark module is trusted on its own: the
perturbation V = |e| eps (xi - eta)/2 is integrated numerically by
Gauss-Laguerre quadrature between unperturbed states, assembled per
degenerate (shell, m) sector, and diagonalized with a cyclic Jacobi
solver.  First-order degenerate perturbation theory then says the
eigenvalues must be the analytic shifts.

Run:  python demos/04_oracle_crosscheck.py
"""

import numpy as np

from dyonstark import FieldConfig, PhysicalParams, half, shift_closed_form
from dyonstark.oracle import build_subspace, offdiagonal_report, oracle_shifts
from dyonstark.states import enumerate_shell_parabolic

field = FieldConfig(1.0)

for s_raw, n_raw in (("0", "3"), ("1/2", "5/2")):
    s, n = half(s_raw), half(n_raw)
    params = PhysicalParams.atomic(s)
    print(f"\nshell n = {n}, s = {s}")
    # the closed-form shifts, grouped by m in one pass over the shell
    analytic = {}
    for st in enumerate_shell_parabolic(n, s):
        analytic.setdefault(st.m, []).append(shift_closed_form(st, field, params))
    for m, eigen in oracle_shifts(n, s, field, params):
        expected = np.sort(analytic[m])
        err = np.max(np.abs(eigen - expected))
        print(f"  m = {str(m):>4}: eigenvalues {np.round(eigen, 10)}")
        print(f"            analytic    {np.round(expected, 10)}   (max err {err:.2e})")
    off = offdiagonal_report(n, s, field, params)
    print(f"  largest off-diagonal element over all sectors: {off:.2e}")
    print("  (the parabolic basis diagonalizes V inside a shell; this is why")
    print("   the first-order shifts have an exact closed form)")

# one sector matrix in full, to see what gets diagonalized
sub = build_subspace(4, 0, 0, field, PhysicalParams.atomic(0))
print("\nV matrix of the n = 4, s = 0, m = 0 sector (units a|e|eps):")
print(np.array_str(sub.entries, precision=10, suppress_small=True))
