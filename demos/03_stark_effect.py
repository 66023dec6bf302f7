"""The linear Stark effect: shifts, splitting, dipole moments.

A uniform field along +x3 shifts every shell state at first order.
Unlike hydrogen, the monopole term adds m s / 3 to the shift bracket,
so the field removes the azimuthal degeneracy completely: within each
(n1, n2) group the shifts are strictly monotonic in m.

Run:  python demos/03_stark_effect.py
"""

from dyonstark import FieldConfig, HalfInteger, PhysicalParams, half, shell_splitting
from dyonstark.stark import shift_quantum
from dyonstark.tables import shifts_table


def rows(n, s, field, params):
    """(n1, n2, 2m, e1, dipole_z) of each shell state, in table order."""
    table = shifts_table(n, s, field, params)
    return zip(*(table[key].tolist() for key in ("n1", "n2", "m2", "e1", "dipole_z")))


field = FieldConfig(1.0)

for s_raw, n_raw in (("0", "2"), ("1", "2"), ("1", "3")):
    s, n = half(s_raw), half(n_raw)
    params = PhysicalParams.atomic(s)
    quantum = shift_quantum(field, params)
    print(f"\nshell n = {n}, s = {s}, field eps = {field.epsilon}")
    print(f"{'n1':>4} {'n2':>4} {'m':>5} {'E1':>12} {'dipole_z':>12} {'12*E1/quantum':>14}")
    for n1, n2, m2, e1, dipole_z in rows(n, s, field, params):
        print(
            f"{n1:>4} {n2:>4} {str(HalfInteger(m2)):>5} {e1:>12.6f} "
            f"{dipole_z:>12.6f} {round(12 * e1 / quantum):>14}"
        )
    print(f"splitting Delta E (extreme like-m pair): {shell_splitting(n, s, field, params):.6f}")

# the ground shell of a dyon is polarized even though it cannot split
# symmetrically in hydrogen: permanent dipole moments at s = 1, n = 2
print("\nground-shell permanent dipoles at s = 1 (hydrogen analog has none):")
for _, _, m2, _, dipole_z in rows(2, 1, FieldConfig(0.0), PhysicalParams.atomic(1)):
    print(f"  m = {str(HalfInteger(m2)):>3}: d_z = {dipole_z:+.6f}")
