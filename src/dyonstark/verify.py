"""Named verification checks: acceptance criteria plus invariant suites.

Every check compares an implemented quantity against an independent
route (closed form vs quadrature, analytic vs eigensolver) at a fixed
tolerance and reports a CheckResult.  The CLI ``verify`` command runs
them all and fails with a machine-readable list if any tolerance is
breached; the pytest acceptance module asserts them one by one.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import oracle, quadrature, stark, states, tables
from .eigen import jacobi_eigenvalues
from .specfun import HalfInteger, _wigner_rows, half, hyp1f1_table
from .stark import FieldConfig, shift_quantum, shift_unit
from .states import ParabolicState, PhysicalParams, SphericalState

__all__ = ["CheckResult", "CHECKS", "run_check", "check_key"]


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    max_err: float
    tol: float
    detail: str = ""
    notes: list[str] = dc_field(default_factory=list)
    cases: int = 0
    elapsed_s: float = 0.0

    def __post_init__(self):
        # a check that compared nothing has shown nothing, so it fails
        self.passed = bool(self.passed) and self.cases > 0

    @property
    def margin(self) -> float:
        """max_err / tol: at most 1 on a pass; inf for any error on an exact bound."""
        return _margin(self.max_err, self.tol)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.check_id}: cases={self.cases} max_err={self.max_err:.3e} "
            f"tol={self.tol:.1e} margin={self.margin:.2e} {self.detail}"
        )


def _margin(err: float, tol: float) -> float:
    return err / tol if tol else (0.0 if err == 0 else math.inf)


class _Bounds:
    """The named bounds err <= tol of one check; tol 0 is an exact comparison.

    Each bound keeps its worst error (a NaN sticks and fails).  The
    result reports the binding bound: the worst failed one if any bound
    fails, else the one closest to its tolerance (ties: first declared).
    """

    def __init__(self, **tols: float):
        self.tols = tols
        self.worst = dict.fromkeys(tols, 0.0)
        self.cases = 0

    def add(self, name: str, err: float, cases: int = 1) -> None:
        """Feed one comparison; ``cases=0`` for a further bound on the same case."""
        if err > self.worst[name] or math.isnan(err):
            self.worst[name] = float(err)
        self.cases += cases

    def _closeness(self, name: str) -> tuple[bool, float]:
        """(failed, err / tol) of one bound; the binding bound has the largest."""
        err, tol = self.worst[name], self.tols[name]
        ratio = _margin(err, tol)
        return not err <= tol, math.inf if math.isnan(ratio) else ratio

    def result(self, check_id: str, text: str, notes=()) -> CheckResult:
        binding = max(self.tols, key=self._closeness)
        failed, _ = self._closeness(binding)
        listed = ", ".join(
            f"{nm} {err:.2e} (tol {self.tols[nm]:.0e})" if self.tols[nm] else f"{nm} {err:g} (exact)"
            for nm, err in self.worst.items()
        )
        return CheckResult(
            check_id,
            not failed,
            self.worst[binding],
            self.tols[binding],
            f"{text}; {listed}",
            list(notes),
            cases=self.cases,
        )


def _shells(s_values, n_cap: float, max_n=None):
    """(params, n) for every shell with n <= cap, at each monopole number."""
    cap = n_cap if max_n is None else min(n_cap, float(max_n))
    for s in s_values:
        params = PhysicalParams.atomic(s)
        n = abs(params.s) + 1
        while n.value <= cap + 1e-9:
            yield params, n
            n = n + 1


def _parabolic_shells(s_values, n_cap: float, max_n=None):
    """(params, n, labels, brackets) for every shell of ``_shells``: its (n1, n2, 2m) int64 arrays from
    one ``states.parabolic_labels`` call and their exact ``stark._label_bracket`` integers, no state."""
    for params, n in _shells(s_values, n_cap, max_n):
        labels = states.parabolic_labels(n, params.s)
        yield params, n, labels, stark._label_bracket(n.twice, params.s.twice, *labels)


def _printed(column: str, n, params: PhysicalParams, labels) -> np.ndarray:
    """The unit-field ``shifts`` table's ``column`` at each of shell n's (n1, n2, 2m) ``labels``,
    joined by label: both sides sorted by label, and all NaN unless they list the same labels."""
    table = tables.shifts_table(n, params.s, FieldConfig(1.0), params)
    printed = [table[key] for key in ("n1", "n2", "m2")]
    mine, theirs = np.lexsort(labels[::-1]), np.lexsort(printed[::-1])
    joined = np.full(mine.size, math.nan)
    if mine.size == theirs.size and all(np.array_equal(a[mine], b[theirs]) for a, b in zip(labels, printed)):
        joined[mine] = table[column][theirs]
    return joined


def _rel(err: float, scale: float) -> float:
    return err / max(scale, 1e-300)


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------


def check_hydrogen_regression(max_n=None) -> CheckResult:
    """s=0, n=2 shifts are {-3, 0, 0, +3} a|e|eps from both routes.

    A cap below n = 2 leaves no shell to compare.
    """
    bounds = _Bounds(analytic=1e-12, oracle=1e-6)
    params = PhysicalParams.atomic(0)
    field = FieldConfig(1.0)
    expected = np.array([-3.0, 0.0, 0.0, 3.0])
    if max_n is None or float(max_n) >= 2:
        brackets = stark._label_bracket(4, 0, *states.parabolic_labels(2, 0))
        analytic = np.sort(stark._shift(shift_unit(params), brackets, field.epsilon))
        numeric = np.sort(
            np.concatenate([ev for _, ev in oracle.oracle_shifts(2, 0, field, params)])
        )
        for name, got in (("analytic", analytic), ("oracle", numeric)):
            bounds.add(name, _rel(float(np.max(np.abs(got - expected))), 3.0), cases=len(got))
    return bounds.result("c01-hydrogen-regression", "relative to 3 a|e|eps")


def _laguerre_jacobi(size: int, aq: int) -> np.ndarray:
    """Jacobi matrix J of the orthonormal Laguerre functions of order |q|, rows p = 0, ..., size - 1:
    x Phi_p = sum_p' J[p, p'] Phi_p' in units of a n (Abramowitz & Stegun 22.7.12)."""
    p = np.arange(size, dtype=float)
    off = -np.sqrt((p[:-1] + 1.0) * (p[:-1] + aq + 1.0))
    return np.diag(2.0 * p + aq + 1.0) + np.diag(off, 1) + np.diag(off, -1)


def check_integral_closed_forms(max_n=None) -> CheckResult:
    """Quadrature Gram matrices of 1, x and x^2 between the Phi_pq of one (n, q), built by
    ``states.phi_grams`` as the oracle's sectors are, are a n times the identity, (a n)^2 J
    and (a n)^3 J^2; their diagonals are I_pq = a n and the printed x^2 moment."""
    bounds = _Bounds(moments=1e-9, orthogonality=1e-9, position=1e-9, quadratic=1e-9)
    params = PhysicalParams.atomic(0)
    p_max = 10
    n_values = [float(k) for k in range(1, 13)] + [1.5, 3.5, 5.5]
    if max_n is not None:
        n_values = [n for n in n_values if n <= float(max_n)]
    off_diagonal = ~np.eye(p_max + 1, dtype=bool)
    for n in n_values:
        scale = params.a * n
        # the Gram matrices and both moments depend on |q| alone
        for q in range(0, 11):
            g0, g1, g2 = states.phi_grams(p_max, q, n, params, (0, 1, 2))
            # J^2 from a J one row larger, so its last diagonal entry has both neighbours
            jac = _laguerre_jacobi(p_max + 2, abs(q))
            want1 = scale**2 * jac[:-1, :-1]
            want2 = scale**3 * np.einsum("ik,kj->ij", jac, jac)[:-1, :-1]
            for g, exact in ((g0, stark.integral_I), (g2, stark.integral_II)):
                want = exact(np.arange(p_max + 1), q, n, params)
                bounds.add("moments", float(np.max(np.abs(np.diag(g) - want) / want)), cases=0)
            bounds.add("orthogonality", _rel(float(np.max(np.abs(g0[off_diagonal]))), scale), cases=g0.size)
            for name, got, want in (("position", g1, want1), ("quadratic", g2, want2)):
                err = float(np.max(np.abs(got - want)))
                bounds.add(name, _rel(err, float(np.max(np.abs(want)))), cases=got.size)
    reached = f"n <= {max(n_values):g}" if n_values else "no n"
    return bounds.result(
        "c02-integral-closed-forms",
        f"p <= {p_max}, |q| <= 10, {reached}; Gram matrices of 1, x, x^2 per (n, q) against a n, "
        "(a n)^2 J and (a n)^3 J^2, diagonals against both moments",
    )


def check_shift_formula_identity(max_n=None) -> CheckResult:
    """Integral-form and printed shifts equal the closed form on every state."""
    bounds = _Bounds(identity=1e-12, table=0.0)
    field = FieldConfig(1.0)
    for params, n, labels, brackets in _parabolic_shells([0, 0.5, 1, 1.5, 2, 2.5, 3, -0.5, -1.5, -3], 8.0, max_n):
        scale_floor = shift_quantum(field, params) / 12.0
        a = stark._shift_integral(n.twice, params.s.twice, *labels, field.epsilon, params)
        b = stark._shift(shift_unit(params), brackets, field.epsilon)
        err = np.abs(a - b) / np.maximum(np.abs(b), scale_floor)
        bounds.add("identity", float(np.max(err)), cases=brackets.size)
        bounds.add("table", float(np.max(np.abs(_printed("e1", n, params, labels) - b))), cases=0)
    return bounds.result("c03-shift-formula-identity", "every state and its printed e1, n <= 8, |s| <= 3")


def check_oracle_equivalence(max_n=None) -> CheckResult:
    """Per-sector Jacobi eigenvalues match closed-form shifts, on exactly the shell's sectors."""
    bounds = _Bounds(eigen=1e-6, offdiag=1e-12, sectors=0.0)
    field = FieldConfig(1.0)
    for params, n, (_, _, m2s), brackets in _parabolic_shells([0, 0.5, 1, 1.5], 4.0, max_n):
        shifts = stark._shift(shift_unit(params), brackets, field.epsilon)
        analytic = {m2: shifts[m2s == m2] for m2 in set(m2s.tolist())}
        scale = max(float(np.max(np.abs(shifts))), shift_quantum(field, params))
        sectors = oracle.shell_sectors(n, params.s, field, params)
        got = {sub.m.twice: jacobi_eigenvalues(sub.entries) for sub in sectors}
        # an m on one side only, or a sector of another size, breaks the partition
        sized = sorted(m2 for m2 in got.keys() & analytic if len(got[m2]) == len(analytic[m2]))
        bounds.add("sectors", len(got.keys() | analytic) - len(sized), cases=0)
        for m2 in sized:
            err = float(np.max(np.abs(got[m2] - np.sort(analytic[m2]))))
            bounds.add("eigen", _rel(err, scale), cases=len(got[m2]))
        bounds.add("offdiag", _rel(max(sub.largest_offdiagonal for sub in sectors), scale))
    return bounds.result("c04-oracle-equivalence", "eigenvalues and off-diagonals relative to the largest shift")


def check_degeneracy_removal(max_n=None) -> CheckResult:
    """For s != 0, m -> shift is injective at every fixed (n1, n2)."""
    bounds = _Bounds(collisions=0.0)
    notes = []
    for params, n, (n1, n2, _), brackets in _parabolic_shells([0.5, 1, 1.5, 2, 2.5, 3, -0.5, -1, -2], 6.0, max_n):
        by_pair: dict[tuple[int, int], list[int]] = {}
        for pair, bracket in zip(zip(n1.tolist(), n2.tolist()), brackets.tolist()):
            by_pair.setdefault(pair, []).append(bracket)
        for pair, group in by_pair.items():
            collisions = len(group) - len(set(group))
            bounds.add("collisions", collisions)
            if collisions:
                notes.append(f"collision within (n1,n2)={pair} at n={n}, s={params.s}")
        # residual collisions across different (n1, n2, m): reported, not asserted
        extra = brackets.size - len(set(brackets.tolist()))
        if extra:
            notes.append(f"shell n={n}, s={params.s}: {extra} cross-(n1,n2) shift coincidences")
    return bounds.result(
        "c05-degeneracy-removal", "(n1,n2) groups over n <= 6, exact integer comparison", notes
    )


# (gamma, eps) pairs at which c06 compares the splitting formula's float;
# at (1, 1) every factor is a short dyadic number and no rounding occurs
_SPLITTING_SCALES = ((1.0, 1.0), (0.7, 0.3), (3.1, 2.9e-4))


def check_shell_splitting(max_n=None) -> CheckResult:
    """Splitting formula equals the extreme like-m component distance.

    The closed-form shifts carry an extra m-linear term, so Delta E_n
    is the largest within-m-sector spread (the spread of the mirror
    pair (n1,n2,m) <-> (n2,n1,m), in which that term cancels).
    For s = 0 this coincides with the full-shell max - min, which is
    also asserted; for s != 0 the full-shell spread is wider and gets
    reported in the notes.

    Rounding the formula to twelfths forgives any relative error below
    1/(24 n (n - |s| - 1)), so the float the formula returns is also held
    to shift_quantum times the exact spread, at each (gamma, eps) of
    ``_SPLITTING_SCALES``.
    """
    bounds = _Bounds(sector=0.0, full=0.0, formula=1e-15)
    notes = []
    field = FieldConfig(1.0)
    for params, n, (_, _, m2s), brackets in _parabolic_shells([0, 0.5, 1, 1.5, 2, -1, -0.5], 6.0, max_n):
        s = params.s
        formula = stark.shell_splitting(n, s, field, params)
        formula_twelfths = round(formula / shift_quantum(field, params) * 12.0)
        sector_spread = max(int(np.ptp(brackets[m2s == m2])) for m2 in set(m2s.tolist()))
        bounds.add("sector", abs(sector_spread - formula_twelfths))
        for gamma, epsilon in _SPLITTING_SCALES:
            scaled, scaled_field = PhysicalParams.atomic(s, gamma_c=gamma), FieldConfig(epsilon)
            want = shift_quantum(scaled_field, scaled) * (sector_spread / 12.0)
            got = stark.shell_splitting(n, s, scaled_field, scaled)
            bounds.add("formula", _rel(abs(got - want), want), cases=0)
        if sector_spread != formula_twelfths:
            notes.append(f"n={n}, s={s}: sector spread {sector_spread} != formula {formula_twelfths}")
        full_spread = int(np.ptp(brackets))
        if s.twice == 0:
            bounds.add("full", abs(full_spread - formula_twelfths), cases=0)
        elif full_spread != sector_spread:
            notes.append(
                f"n={n}, s={s}: full-shell spread exceeds Delta E_n by {full_spread - sector_spread}/12 quanta (m-term)"
            )
    return bounds.result("c06-shell-splitting", "shells, exact twelfth-quantum integers", notes)


def check_dipole_consistency(max_n=None) -> CheckResult:
    """mean = -dE1/deps and the printed dipole_z exactly; the operator route to rounding."""
    bounds = _Bounds(operator=1e-12, slope=0.0, table=0.0)
    field, f2 = FieldConfig(1.0), FieldConfig(2.0)
    for params, n, labels, brackets in _parabolic_shells([0, 0.5, 1, 1.5, -0.5, -1], 4.0, max_n):
        unit, scale_floor = shift_unit(params), shift_quantum(field, params) / 12.0
        d_mean = stark._dipole(unit, brackets)
        slope = -(stark._shift(unit, brackets, f2.epsilon) - stark._shift(unit, brackets, field.epsilon))
        bounds.add("slope", float(np.max(np.abs(slope - d_mean))), cases=0)
        bounds.add("table", float(np.max(np.abs(_printed("dipole_z", n, params, labels) - d_mean))), cases=0)
        d_op = stark._dipole_operator(n.twice, params.s.twice, *labels, params)
        err = np.abs(d_op - d_mean) / np.maximum(np.abs(d_mean), scale_floor)
        bounds.add("operator", float(np.max(err)), cases=brackets.size)
    return bounds.result("c07-dipole-consistency", "operator, slope and printed dipole_z against the mean")


def check_shell_cardinality(max_n=None) -> CheckResult:
    """Both enumerations span the same shell, sector by sector.

    Each shell must hold n^2 - s^2 valid labels in both bases, in strict
    (2j, 2m) and (n1, n2, 2m) order; every parabolic label must derive the
    shell's 2n = 2(n1 + n2 + 1) + (|2m - 2s| + |2m + 2s|)/2; and each m sector must
    have as many parabolic as spherical labels, which is the condition for
    a unitary change of basis whichever way the two label arrays were
    built.  The printed ``spectrum`` table must list the spherical labels
    in that order, each with the shell's n, s2 and energy.
    """
    bounds = _Bounds(shell=0.0, sector=0.0, table=0.0)
    for s2 in range(-6, 7):
        s = HalfInteger(s2)
        for params, n in _shells([s], abs(s).value + 8, max_n):
            expected = (n.twice**2 - s2**2) // 4
            sph = list(zip(*(labels.tolist() for labels in states.spherical_labels(n, s))))
            par = list(zip(*(labels.tolist() for labels in states.parabolic_labels(n, s))))
            table = tables.spectrum_table(n, s, params)
            rows = list(zip(*(table[key].tolist() for key in ("n", "s2", "j2", "m2", "e0"))))
            e0 = states.energy_level(n, params)
            want = [(n.value, s2, j2, m2, e0) for j2, m2 in sph]
            bounds.add("table", float(rows != want), cases=0)
            shell_ok = (
                len(sph) == expected == len(par)
                and all(
                    abs(s2) <= j2 <= n.twice - 2 and -j2 <= m2 <= j2 and (j2 - s2) % 2 == (j2 - m2) % 2 == 0
                    for j2, m2 in sph
                )
                and all(
                    n1 >= 0 and n2 >= 0 and (m2 - s2) % 2 == 0
                    and 2 * (n1 + n2 + 1) + (abs(m2 - s2) + abs(m2 + s2)) // 2 == n.twice
                    for n1, n2, m2 in par
                )
                and all(a < b for labels in (sph, par) for a, b in zip(labels, labels[1:]))
            )
            bounds.add("shell", float(not shell_ok), cases=0)
            sph_m = Counter(m2 for _, m2 in sph)
            par_m = Counter(m2 for _, _, m2 in par)
            for m2 in sph_m.keys() | par_m.keys():
                bounds.add("sector", abs(sph_m[m2] - par_m[m2]))
    return bounds.result("c08-shell-cardinality", "m sectors and the spectrum table, |s| <= 3, n <= |s| + 8")


def _gs_angular_reference(s: HalfInteger, m: HalfInteger, theta):
    """Angular factor of the ground-state closed form, sign of s resolved."""
    j = abs(s)
    if s.twice >= 0:
        cos_pow = (j + m).value
        sin_pow = (j - m).value
        sign = 1.0
    else:
        cos_pow = (j - m).value
        sin_pow = (j + m).value
        sign = (-1.0) ** int(round(sin_pow))
    return sign * np.cos(theta / 2.0) ** cos_pow * np.sin(theta / 2.0) ** sin_pow


def check_wavefunction_suites(max_n=None) -> CheckResult:
    """Norms, orthogonality, the spherical angular constant and the ground-state closed form."""
    bounds = _Bounds(overlap=1e-8, profile=1e-10, angular=1e-12)
    for s_raw in [0, 0.5, 1, 1.5]:
        s = half(s_raw)
        params = PhysicalParams.atomic(s)
        sph: list[SphericalState] = []
        par: list[ParabolicState] = []
        for _, n in _shells([s], 4.0, max_n):
            sph.extend(states.enumerate_shell_spherical(n, s))
            par.extend(states.enumerate_shell_parabolic(n, s))
        for basis, overlap in ((sph, states.spherical_overlap), (par, states.parabolic_overlap)):
            for i, a in enumerate(basis):
                for b in basis[i:]:
                    if a.m == b.m:
                        bounds.add("overlap", abs(overlap(a, b, params) - float(a == b)))
        # the spherical unit norm divides by a constant measured with the same
        # d-functions; the closed form (Wu & Yang) does not share them
        for st in sph:
            want = math.sqrt((st.j.twice + 1) / (4.0 * math.pi))
            got = states._angular_norm(st.j.twice, st.m.twice, st.s.twice)
            bounds.add("angular", abs(got - want) / want, cases=0)

    # ground-state proportionality, angular and radial factors
    theta = np.linspace(0.15, math.pi - 0.15, 31)
    r = np.linspace(0.3, 8.0, 40)
    for s_raw in [0.5, 1, 1.5, 2, -0.5, -1, -2]:
        s = half(s_raw)
        params = PhysicalParams.atomic(s)
        n0 = abs(s) + 1
        if max_n is not None and n0.value > float(max_n):
            continue
        j = abs(s)
        profiles = []
        m = -j
        while m <= j:
            st = SphericalState(n=n0, j=j, m=m, s=s)
            psi = np.asarray(states.spherical_psi(st, 1.0, theta, 0.0, params)).real
            profiles.append(psi / _gs_angular_reference(s, m, theta))
            m = m + 1
        rad = states.radial_R(n0, j, r, params)
        profiles.append(rad / (r**j.value * np.exp(-r / (params.a * n0.value))))
        for ratio in profiles:
            bounds.add("profile", float(np.max(np.abs(ratio / ratio[0] - 1.0))))
    return bounds.result(
        "c09-wavefunction-suites",
        "overlaps abs, n <= 4; spherical constants against sqrt((2j+1)/4pi); "
        "ground-state angular and radial profiles",
    )


def check_numerical_kernels(max_n=None) -> CheckResult:
    """Gauss exactness, Jacobi identities, Wigner-d orthogonality."""
    bounds = _Bounds(quad=1e-10, jacobi=1e-12, wigner=1e-10)
    # k! and the Legendre moments 2/(k + 1), once for every degree k < 80 an order up to 40 integrates
    degrees = np.arange(80)
    lag_exact = np.array([math.exp(math.lgamma(k + 1.0)) for k in range(80)])
    leg_scale = 2.0 / (degrees + 1.0)
    leg_exact = np.where(degrees % 2, 0.0, leg_scale)
    for order in range(1, 41):
        # one row w * x**k per degree k; each row sums as np.sum of that row alone
        lag, leg = (
            np.sum([rule.weights * rule.nodes**k for k in range(2 * order)], axis=1)
            for rule in (quadrature.gauss_laguerre(order), quadrature.gauss_legendre(order))
        )
        for got, want, scale in ((lag, lag_exact, lag_exact), (leg, leg_exact, leg_scale)):
            err = np.abs(got - want[: 2 * order]) / scale[: 2 * order]
            bounds.add("quad", float(np.max(err)), cases=err.size)

    rng = np.random.default_rng(2024)
    for dim in (2, 3, 5, 8, 13, 21, 34):
        a = rng.normal(size=(dim, dim))
        a = a + a.T
        lam = jacobi_eigenvalues(a)
        tr = float(np.trace(a))
        fro2 = float(np.sum(a * a))
        bounds.add("jacobi", _rel(abs(float(lam.sum()) - tr), abs(tr) + 1.0))
        bounds.add("jacobi", _rel(abs(float((lam**2).sum()) - fro2), fro2))

    rule = quadrature.gauss_legendre(40)
    # labels in doubled integers, each (m, s) with its j increasing; one _wigner_rows pass
    # evaluates every d^j_{ms} on the nodes, and one Gram matrix holds every pair (ja, jb)
    # that shares its (m, s)
    j2s, m2s, s2s = np.array(
        [
            (j2, m2, s2)
            for m2 in range(-9, 10)
            for s2 in range(-8 - m2 % 2, 10, 2)  # m2's parity
            for j2 in range(max(abs(m2), abs(s2)), 10, 2)
        ]
    ).T
    starts = np.flatnonzero(j2s == np.maximum(np.abs(m2s), np.abs(s2s)))[1:]
    rows = _wigner_rows(j2s, m2s, s2s, np.arccos(rule.nodes))
    for j_list, d in zip(np.split(j2s, starts), np.split(rows, starts)):
        # entry (a, b) is the expression rule.integrate evaluates, summed per row
        gram = np.sum(rule.weights * (d[:, None] * d[None, :]), axis=2)
        err = np.abs(gram - np.diag(2.0 / (j_list + 1.0)))
        bounds.add("wigner", float(np.max(err)), cases=err.size)
    return bounds.result("c10-numerical-kernels", "quad and jacobi relative, wigner abs")


# ---------------------------------------------------------------------------
# invariant suites beyond the headline criteria
# ---------------------------------------------------------------------------


def check_specfun_invariants(max_n=None) -> CheckResult:
    """1F1 contiguous relation and Wigner-d symmetries."""
    bounds = _Bounds(identities=1e-10)
    xs = np.linspace(0.0, 50.0, 11)
    # one table of degrees 0..20 per b; row p has the bits of hyp1f1_poly(p, b, xs)
    tables = {b: hyp1f1_table(20, b, xs) for b in range(1, 12)}
    for p in range(1, 21):
        for b in range(1, 11):
            t1 = b * tables[b][p]
            t2 = b * tables[b][p - 1]
            t3 = xs * tables[b + 1][p - 1]
            rel = np.abs(t1 - t2 + t3) / np.maximum(np.abs([t1, t2, t3]).max(axis=0), 1.0)
            bounds.add("identities", float(np.max(rel)), cases=xs.size)
    thetas = np.linspace(0.0, math.pi, 7)
    for j2 in range(0, 8):
        # every (m, s) label of j on the angles in one pass, (m, s) at row (m, s) of
        # the grid, so the (s, m) partners are its transpose; the scalar path at the
        # theta = 0 endpoint in another
        m2, s2 = np.meshgrid(np.arange(-j2, j2 + 1, 2), np.arange(-j2, j2 + 1, 2), indexing="ij")
        endpoint = _wigner_rows(j2, m2, s2, 0.0)
        bounds.add("identities", float(np.max(np.abs(endpoint - (m2 == s2).ravel()))), cases=endpoint.size)
        d = _wigner_rows(j2, m2, s2, thetas).reshape(*m2.shape, thetas.size)
        phase = np.where((m2 - s2) // 2 % 2, -1.0, 1.0)[:, :, None]
        sym = np.abs(d - phase * d.transpose(1, 0, 2))
        bounds.add("identities", float(np.max(sym)), cases=sym.size)
    return bounds.result(
        "inv-specfun", "1F1 contiguous relation p <= 20; d-function endpoint and index symmetry"
    )


def check_quadrature_invariants(max_n=None) -> CheckResult:
    """Closed-form low orders, weight sums, convergence plateau."""
    bounds = _Bounds(rules=1e-10)
    lag2 = quadrature.gauss_laguerre(2)
    lag3 = quadrature.gauss_laguerre(3)
    leg2 = quadrature.gauss_legendre(2)
    leg3 = quadrature.gauss_legendre(3)
    for got, want in (
        (lag2.nodes, [2 - math.sqrt(2), 2 + math.sqrt(2)]),
        (lag2.weights, [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4]),
        (lag3.nodes, np.sort(np.roots([-1.0 / 6.0, 3.0 / 2.0, -3.0, 1.0]))),
        (leg2.nodes, np.array([-1, 1]) / math.sqrt(3)),
        (leg3.nodes, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)]),
    ):
        bounds.add("rules", float(np.max(np.abs(got - np.asarray(want)))))
    for order in (1, 5, 20, 40, 80):
        bounds.add("rules", abs(quadrature.gauss_laguerre(order).weights.sum() - 1.0))
        bounds.add("rules", abs(quadrature.gauss_legendre(order).weights.sum() - 2.0) / 2.0)

    def smooth(x):
        return np.exp(-x) / (1.0 + 0.3 * x)

    v1 = quadrature.integrate_halfline(smooth, quadrature.gauss_laguerre(40))
    v2 = quadrature.integrate_halfline(smooth, quadrature.gauss_laguerre(80))
    bounds.add("rules", abs(v2 - v1) / abs(v2))
    return bounds.result("inv-quadrature", "orders 1-3 closed forms, weight sums, doubling plateau")


def check_states_invariants(max_n=None) -> CheckResult:
    """Coordinate round trip, volume element, Schroedinger residual."""
    bounds = _Bounds(roundtrip=1e-12, volume=0.0, residual=1e-6)
    # the same stream as 1000 draws of size 3
    for row in np.random.default_rng(11).uniform(-3, 3, size=(1000, 3)):
        x = row.tolist()
        back = states.parabolic_to_cartesian(states.cartesian_to_parabolic(*x))
        err = max(abs(b - c) for b, c in zip(back, x))
        bounds.add("roundtrip", err / max(1.0, *map(abs, x)))

    bounds.add("volume", abs(states.volume_element(1.0, 1.0) - 0.5))

    samples = [
        (ParabolicState(1, 0, 0, 0), PhysicalParams.atomic(0)),
        (ParabolicState(0, 0, half("3/2"), half("1/2")), PhysicalParams.atomic(half("1/2"))),
        (ParabolicState(0, 1, half("1/2"), half("1/2")), PhysicalParams.atomic(half("1/2"))),
        (ParabolicState(0, 0, -1, 1), PhysicalParams.atomic(1)),
        (ParabolicState(1, 1, 0, 1), PhysicalParams.atomic(1)),
    ]
    for st, params in samples:
        if max_n is None or st.n.value <= float(max_n):
            bounds.add("residual", states.parabolic_hamiltonian_residual(st, params))
    return bounds.result("inv-states", "coordinate round trips, volume element, Schroedinger residuals")


def check_stark_invariants(max_n=None) -> CheckResult:
    """Linearity, parity, hydrogen limit of the closed-form shifts."""
    bounds = _Bounds(linearity=0.0, mirror=0.0, hydrogen=1e-12)
    for params, n, (n1, n2, m2), brackets in _parabolic_shells([0, 1, 1.5, -1], 5.0, max_n):
        unit = shift_unit(params)
        e1 = stark._shift(unit, brackets, 1.0)
        bounds.add("linearity", float(np.max(np.abs(stark._shift(unit, brackets, 3.0) - 3.0 * e1))), brackets.size)
        mirror = stark._label_bracket(n.twice, params.s.twice, n2, n1, -m2)
        bounds.add("mirror", int(np.max(np.abs(mirror + brackets))), cases=0)
        if params.s.twice == 0:
            hydrogen = 1.5 * params.a * n.value * (n1 - n2)
            err = np.abs(e1 - hydrogen) / np.maximum(np.abs(hydrogen), 1.0)
            bounds.add("hydrogen", float(np.max(err)), cases=0)
    return bounds.result("inv-stark", "exact linearity, mirror antisymmetry, hydrogen limit")


def check_oracle_invariants(max_n=None) -> CheckResult:
    """Hermiticity, derived order against a 64-node rule, sector tables, trace identity."""
    bounds = _Bounds(elements=1e-10)
    field = FieldConfig(1.0)
    for params, n in _shells([0, 1, 0.5], 3.0, max_n):
        shell = states.enumerate_shell_parabolic(n, params.s)
        scale = params.a * field.epsilon
        # the shell's table-assembled sectors by m; row i of a sector is n1 = i
        sector = {sub.m.twice: sub.entries for sub in oracle.shell_sectors(n, params.s, field, params)}
        for i, a in enumerate(shell):
            for b in shell[i:]:
                v1 = oracle.matrix_element_V(a, b, field, params)
                v2 = oracle.matrix_element_V(b, a, field, params)
                bounds.add("elements", abs(v1 - v2) / scale)
                v3 = oracle.matrix_element_V(a, b, field, params, quad_order=64)
                bounds.add("elements", abs(v3 - v1) / max(abs(v3), scale))
                if a.m == b.m:
                    bounds.add("elements", abs(sector[a.m.twice][a.n1, b.n1] - v1) / max(abs(v1), scale))
        diag_sum = sum(oracle.matrix_element_V(a, a, field, params) for a in shell)
        analytic_sum = sum(stark.shift_closed_form(a, field, params) for a in shell)
        bounds.add("elements", abs(diag_sum - analytic_sum) / max(abs(analytic_sum), scale))
    return bounds.result(
        "inv-oracle",
        "hermiticity, derived order against order 64, sectors against elements, "
        "first-order trace identity",
    )


CHECKS = {
    fn.__name__.replace("check_", "").replace("_", "-"): fn
    for fn in (
        check_hydrogen_regression,
        check_integral_closed_forms,
        check_shift_formula_identity,
        check_oracle_equivalence,
        check_degeneracy_removal,
        check_shell_splitting,
        check_dipole_consistency,
        check_shell_cardinality,
        check_wavefunction_suites,
        check_numerical_kernels,
        check_specfun_invariants,
        check_quadrature_invariants,
        check_states_invariants,
        check_stark_invariants,
        check_oracle_invariants,
    )
}


def check_key(name: str) -> str:
    """The CHECKS key that ``name`` selects: a key itself or the report id its
    check prints, ``inv-<x>`` for ``<x>-invariants`` and ``cNN-<key>`` for the
    NNth criterion; any other name is returned as it is."""
    for number, key in enumerate(CHECKS, 1):
        suite = key.removesuffix("-invariants")
        if name == (f"inv-{suite}" if suite != key else f"c{number:02d}-{key}"):
            return key
    return name


def run_check(name: str, max_n=None) -> CheckResult:
    """Run one check, named by its CHECKS key or its report id, and time it."""
    start = time.perf_counter()
    result = CHECKS[check_key(name)](max_n=max_n)
    result.elapsed_s = time.perf_counter() - start
    return result
