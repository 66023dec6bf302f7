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
from .specfun import HalfInteger, half, hyp1f1_table, wigner_d
from .stark import FieldConfig, bracket_twelfths, shift_quantum
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
    """(n, s) pairs for every shell with n <= cap, at each monopole number."""
    cap = n_cap if max_n is None else min(n_cap, float(max_n))
    for s_raw in s_values:
        s = half(s_raw)
        n = abs(s) + 1
        while n.value <= cap + 1e-9:
            yield n, s
            n = n + 1


def _parabolic_shells(s_values, n_cap: float, max_n=None):
    """(params, unit field, parabolic shell) for every shell of ``_shells``."""
    field = FieldConfig(1.0)
    for n, s in _shells(s_values, n_cap, max_n):
        yield PhysicalParams.atomic(s), field, states.enumerate_shell_parabolic(n, s)


def _printed(column: str, shell, field: FieldConfig, params: PhysicalParams) -> list[float]:
    """The printed ``shifts`` table's ``column`` for each state of the shell, by
    label; NaN for a state without a row, and for all if the row count is off."""
    table = tables.shifts_table(shell[0].n, params.s, field, params)
    labels = zip(table["n1"], table["n2"], table["m2"])
    rows = dict(zip(labels, table[column])) if len(table[column]) == len(shell) else {}
    return [rows.get((st.n1, st.n2, st.m.twice), math.nan) for st in shell]


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
        analytic = np.sort(
            [stark.shift_closed_form(st, field, params) for st in states.enumerate_shell_parabolic(2, 0)]
        )
        numeric = np.sort(
            np.concatenate([ev for _, ev in oracle.oracle_shifts(2, 0, field, params)])
        )
        for name, got in (("analytic", analytic), ("oracle", numeric)):
            bounds.add(name, _rel(float(np.max(np.abs(got - expected))), 3.0), cases=len(got))
    return bounds.result("c01-hydrogen-regression", "relative to 3 a|e|eps")


def check_integral_closed_forms(max_n=None) -> CheckResult:
    """Quadrature reproduces I_pq = a n and the printed x^2 moment."""
    bounds = _Bounds(moments=1e-9)
    params = PhysicalParams.atomic(0)
    n_values = [float(k) for k in range(1, 13)] + [1.5, 3.5, 5.5]
    if max_n is not None:
        n_values = [n for n in n_values if n <= float(max_n)]
    for n in n_values:
        for p in range(0, 11):
            for q in list(range(0, 11)) + [-1, -4, -10]:
                for power, exact in ((0, stark.integral_I), (2, stark.integral_II)):
                    want = exact(p, q, n, params)
                    got = states.phi_pair_moment(p, p, q, power, n, n, params)
                    bounds.add("moments", _rel(abs(got - want), abs(want)))
    return bounds.result("c02-integral-closed-forms", "p <= 10, |q| <= 10, n <= 12, both moments")


def check_shift_formula_identity(max_n=None) -> CheckResult:
    """Integral-form and printed shifts equal the closed form on every state."""
    bounds = _Bounds(identity=1e-12, table=0.0)
    for params, field, shell in _parabolic_shells([0, 0.5, 1, 1.5, 2, 2.5, 3, -0.5, -1.5, -3], 8.0, max_n):
        scale_floor = shift_quantum(field, params) / 12.0
        for st, printed in zip(shell, _printed("e1", shell, field, params)):
            a = stark.shift_integral_form(st, field, params)
            b = stark.shift_closed_form(st, field, params)
            bounds.add("identity", _rel(abs(a - b), max(abs(b), scale_floor)))
            bounds.add("table", abs(printed - b), cases=0)
    return bounds.result("c03-shift-formula-identity", "every state and its printed e1, n <= 8, |s| <= 3")


def check_oracle_equivalence(max_n=None) -> CheckResult:
    """Per-sector Jacobi eigenvalues match closed-form shifts, on exactly the shell's sectors."""
    bounds = _Bounds(eigen=1e-6, offdiag=1e-12, sectors=0.0)
    for params, field, shell in _parabolic_shells([0, 0.5, 1, 1.5], 4.0, max_n):
        n, s = shell[0].n, params.s
        analytic: dict[int, list[float]] = {}
        for st in shell:
            analytic.setdefault(st.m.twice, []).append(stark.shift_closed_form(st, field, params))
        scale = max(
            max(abs(v) for shifts in analytic.values() for v in shifts),
            shift_quantum(field, params),
        )
        sectors = oracle.shell_sectors(n, s, field, params)
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
    for params, _, shell in _parabolic_shells([0.5, 1, 1.5, 2, 2.5, 3, -0.5, -1, -2], 6.0, max_n):
        n, s = shell[0].n, params.s
        by_pair: dict[tuple[int, int], list[int]] = {}
        for st in shell:
            by_pair.setdefault((st.n1, st.n2), []).append(bracket_twelfths(st))
        for pair, brackets in by_pair.items():
            collisions = len(brackets) - len(set(brackets))
            bounds.add("collisions", collisions)
            if collisions:
                notes.append(f"collision within (n1,n2)={pair} at n={n}, s={s}")
        # residual collisions across different (n1, n2, m): reported, not asserted
        all_brackets = [b for brackets in by_pair.values() for b in brackets]
        extra = len(all_brackets) - len(set(all_brackets))
        if extra:
            notes.append(f"shell n={n}, s={s}: {extra} cross-(n1,n2) shift coincidences")
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
    for params, field, shell in _parabolic_shells([0, 0.5, 1, 1.5, 2, -1, -0.5], 6.0, max_n):
        n, s = shell[0].n, params.s
        formula = stark.shell_splitting(n, s, field, params)
        formula_twelfths = round(formula / shift_quantum(field, params) * 12.0)
        sectors: dict[int, list[int]] = {}
        for st in shell:
            sectors.setdefault(st.m.twice, []).append(bracket_twelfths(st))
        sector_spread = max(max(b) - min(b) for b in sectors.values())
        bounds.add("sector", abs(sector_spread - formula_twelfths))
        for gamma, epsilon in _SPLITTING_SCALES:
            scaled, scaled_field = PhysicalParams.atomic(s, gamma_c=gamma), FieldConfig(epsilon)
            want = shift_quantum(scaled_field, scaled) * (sector_spread / 12.0)
            got = stark.shell_splitting(n, s, scaled_field, scaled)
            bounds.add("formula", _rel(abs(got - want), want), cases=0)
        if sector_spread != formula_twelfths:
            notes.append(f"n={n}, s={s}: sector spread {sector_spread} != formula {formula_twelfths}")
        all_b = [b for brackets in sectors.values() for b in brackets]
        full_spread = max(all_b) - min(all_b)
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
    f2 = FieldConfig(2.0)
    for params, field, shell in _parabolic_shells([0, 0.5, 1, 1.5, -0.5, -1], 4.0, max_n):
        scale_floor = shift_quantum(field, params) / 12.0
        for st, printed in zip(shell, _printed("dipole_z", shell, field, params)):
            d_mean = stark.mean_dipole(st, params)
            slope = -(stark.shift_closed_form(st, f2, params) - stark.shift_closed_form(st, field, params))
            bounds.add("slope", abs(slope - d_mean), cases=0)
            bounds.add("table", abs(printed - d_mean), cases=0)
            d_op = stark.dipole_operator_expectation(st, params)
            bounds.add("operator", _rel(abs(d_op - d_mean), max(abs(d_mean), scale_floor)))
    return bounds.result("c07-dipole-consistency", "operator, slope and printed dipole_z against the mean")


def check_shell_cardinality(max_n=None) -> CheckResult:
    """Both enumerations span the same shell, sector by sector.

    Each shell must hold n^2 - s^2 labels in both bases; every parabolic
    label must derive the shell's n, and the labels must be distinct
    and in ``sort_key`` order; and each m sector must have as many
    parabolic as spherical labels, which is the condition for a unitary
    change of basis whichever way the two lists were built.
    """
    bounds = _Bounds(shell=0.0, sector=0.0)
    for s_twice in range(-6, 7):
        s = HalfInteger(s_twice)
        for n, _ in _shells([s], abs(s).value + 8, max_n):
            expected = (n.twice**2 - s.twice**2) // 4
            sph = states.enumerate_shell_spherical(n, s)
            par = states.enumerate_shell_parabolic(n, s)
            keys = [st.sort_key for st in par]
            shell_ok = (
                len(sph) == expected == len(par)
                and all(st.n == n for st in par)
                and all(a < b for a, b in zip(keys, keys[1:]))
            )
            bounds.add("shell", float(not shell_ok), cases=0)
            sph_m = Counter(st.m.twice for st in sph)
            par_m = Counter(st.m.twice for st in par)
            for m_twice in sph_m.keys() | par_m.keys():
                bounds.add("sector", abs(sph_m[m_twice] - par_m[m_twice]))
    return bounds.result("c08-shell-cardinality", "m sectors, |s| <= 3, n <= |s| + 8")


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
        for n, _ in _shells([s], 4.0, max_n):
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
    for order in range(1, 41):
        # one row w * x**k per degree k; each row sums as np.sum of that row alone
        lag, leg = (
            np.sum([rule.weights * rule.nodes**k for k in range(2 * order)], axis=1).tolist()
            for rule in (quadrature.gauss_laguerre(order), quadrature.gauss_legendre(order))
        )
        for k in range(0, 2 * order):
            exact = math.exp(math.lgamma(k + 1.0))
            bounds.add("quad", _rel(abs(lag[k] - exact), exact))
            exact = 0.0 if k % 2 else 2.0 / (k + 1.0)
            bounds.add("quad", _rel(abs(leg[k] - exact), 2.0 / (k + 1.0)))

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
    theta = np.arccos(rule.nodes)
    # labels in doubled integers; each d^j_{ms} is evaluated on the nodes once,
    # for all the pairs (ja, jb) that share its (m, s)
    for m2 in range(-9, 10):
        for s2 in range(-8 - m2 % 2, 10, 2):  # m2's parity
            j_list = range(max(abs(m2), abs(s2)), 10, 2)
            d = {j2: wigner_d(HalfInteger(j2), HalfInteger(m2), HalfInteger(s2), theta) for j2 in j_list}
            for ja in j_list:
                for jb in j_list:
                    want = 2.0 / (ja + 1) if ja == jb else 0.0
                    # the expression rule.integrate evaluates
                    bounds.add("wigner", abs(float(np.sum(rule.weights * (d[ja] * d[jb]))) - want))
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
        j = HalfInteger(j2)
        # each label on the angles once; (m, s) reads its partner from the (s, m) row
        d = {
            (m2, s2): wigner_d(j, HalfInteger(m2), HalfInteger(s2), thetas)
            for m2 in range(-j2, j2 + 1, 2)
            for s2 in range(-j2, j2 + 1, 2)
        }
        for (m2, s2), d_ms in d.items():
            # the scalar path, at the theta = 0 endpoint
            endpoint = wigner_d(j, HalfInteger(m2), HalfInteger(s2), 0.0)
            bounds.add("identities", abs(endpoint - (1.0 if m2 == s2 else 0.0)))
            phase = (-1.0) ** ((m2 - s2) // 2)
            sym = np.abs(d_ms - phase * d[s2, m2])
            bounds.add("identities", float(np.max(sym)), cases=thetas.size)
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
    f3 = FieldConfig(3.0)
    for params, field, shell in _parabolic_shells([0, 1, 1.5, -1], 5.0, max_n):
        for st in shell:
            e1 = stark.shift_closed_form(st, field, params)
            bounds.add("linearity", abs(stark.shift_closed_form(st, f3, params) - 3.0 * e1))
            mirror = ParabolicState(st.n2, st.n1, -st.m, st.s)
            bounds.add("mirror", abs(bracket_twelfths(mirror) + bracket_twelfths(st)), cases=0)
            if params.s.twice == 0:
                hydrogen = 1.5 * params.a * field.epsilon * st.n.value * (st.n1 - st.n2)
                bounds.add("hydrogen", abs(e1 - hydrogen) / max(abs(hydrogen), 1.0), cases=0)
    return bounds.result("inv-stark", "exact linearity, mirror antisymmetry, hydrogen limit")


def check_oracle_invariants(max_n=None) -> CheckResult:
    """Hermiticity, derived order against a 64-node rule, sector tables, trace identity."""
    bounds = _Bounds(elements=1e-10)
    for params, field, shell in _parabolic_shells([0, 1, 0.5], 3.0, max_n):
        scale = params.a * field.epsilon
        # the shell's table-assembled sectors by m; row i of a sector is n1 = i
        sector = {sub.m.twice: sub.entries for sub in oracle.shell_sectors(shell[0].n, params.s, field, params)}
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
