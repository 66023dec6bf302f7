"""Named verification checks: acceptance criteria plus invariant suites.

Every check compares an implemented quantity against an independent
route (closed form vs quadrature, analytic vs eigensolver, printed
constant vs norm integral) at a fixed tolerance and reports a
CheckResult.  The CLI ``verify`` command runs them all and fails with
a machine-readable list if any tolerance is breached; the pytest
acceptance module asserts them one by one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import oracle, quadrature, stark, states
from .eigen import jacobi_eigenvalues
from .specfun import HalfInteger, half, hyp1f1_poly, wigner_d
from .stark import FieldConfig, bracket_twelfths, shift_quantum
from .states import ParabolicState, PhysicalParams, SphericalState

__all__ = ["CheckResult", "CHECKS", "run_check", "check_ids"]


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    max_err: float
    tol: float
    detail: str = ""
    notes: list[str] = dc_field(default_factory=list)
    cases: int = 0

    def __post_init__(self):
        # checks may compute passed as a numpy bool, which json cannot encode;
        # a check that compared nothing has shown nothing, so it fails
        self.passed = bool(self.passed) and self.cases > 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.check_id}: cases={self.cases} max_err={self.max_err:.3e} "
            f"tol={self.tol:.1e} {self.detail}"
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


def _rel(err: float, scale: float) -> float:
    return err / max(scale, 1e-300)


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------


def check_hydrogen_regression(max_n=None) -> CheckResult:
    """s=0, n=2 shifts are {-3, 0, 0, +3} a|e|eps from both routes."""
    params = PhysicalParams.atomic(0)
    field = FieldConfig(1.0)
    expected = np.array([-3.0, 0.0, 0.0, 3.0])
    analytic = np.sort(
        [stark.shift_closed_form(st, field, params) for st in states.enumerate_shell_parabolic(2, 0)]
    )
    err_analytic = _rel(float(np.max(np.abs(analytic - expected))), 3.0)
    numeric = np.sort(
        np.concatenate([ev for _, ev in oracle.oracle_shifts(2, 0, field, params)])
    )
    err_oracle = _rel(float(np.max(np.abs(numeric - expected))), 3.0)
    passed = err_analytic <= 1e-12 and err_oracle <= 1e-6
    return CheckResult(
        "c01-hydrogen-regression",
        passed,
        max(err_analytic, err_oracle),
        1e-6,
        f"analytic rel {err_analytic:.2e} (tol 1e-12), oracle rel {err_oracle:.2e} (tol 1e-6)",
        cases=len(analytic) + len(numeric),
    )


def check_integral_closed_forms(max_n=None) -> CheckResult:
    """Quadrature reproduces I_pq = a n and the printed x^2 moment."""
    params = PhysicalParams.atomic(0)
    tol = 1e-9
    worst = 0.0
    count = 0
    n_values = [float(k) for k in range(1, 13)] + [1.5, 3.5, 5.5]
    if max_n is not None:
        n_values = [n for n in n_values if n <= float(max_n)]
    for n in n_values:
        for p in range(0, 11):
            for q in list(range(0, 11)) + [-1, -4, -10]:
                order = 2 * p + abs(q) + 22
                i_quad = states.phi_pair_moment(p, p, q, 0, n, n, params, order)
                i_exact = stark.integral_I(p, q, n, params)
                worst = max(worst, _rel(abs(i_quad - i_exact), abs(i_exact)))
                ii_quad = states.phi_pair_moment(p, p, q, 2, n, n, params, order)
                ii_exact = stark.integral_II(p, q, n, params)
                worst = max(worst, _rel(abs(ii_quad - ii_exact), abs(ii_exact)))
                count += 2
    return CheckResult(
        "c02-integral-closed-forms",
        worst <= tol,
        worst,
        tol,
        "p <= 10, |q| <= 10, n <= 12, both moments",
        cases=count,
    )


def check_shift_formula_identity(max_n=None) -> CheckResult:
    """Integral-form shift equals closed-form shift on every state."""
    tol = 1e-12
    worst = 0.0
    count = 0
    for n, s in _shells([0, 0.5, 1, 1.5, 2, 2.5, 3, -0.5, -1.5, -3], 8.0, max_n):
        params = PhysicalParams.atomic(s)
        field = FieldConfig(1.0)
        scale_floor = shift_quantum(field, params) / 12.0
        for st in states.enumerate_shell_parabolic(n, s):
            a = stark.shift_integral_form(st, field, params)
            b = stark.shift_closed_form(st, field, params)
            worst = max(worst, _rel(abs(a - b), max(abs(b), scale_floor)))
            count += 1
    return CheckResult(
        "c03-shift-formula-identity",
        worst <= tol,
        worst,
        tol,
        f"{count} states, n <= 8, |s| <= 3",
        cases=count,
    )


def check_oracle_equivalence(max_n=None) -> CheckResult:
    """Per-sector Jacobi eigenvalues match closed-form shifts."""
    tol = 1e-6
    off_tol = 1e-9
    worst = 0.0
    worst_off = 0.0
    count = 0
    for n, s in _shells([0, 0.5, 1, 1.5], 4.0, max_n):
        params = PhysicalParams.atomic(s)
        field = FieldConfig(1.0)
        analytic: dict[int, list[float]] = {}
        for st in states.enumerate_shell_parabolic(n, s):
            analytic.setdefault(st.m.twice, []).append(stark.shift_closed_form(st, field, params))
        scale = max(
            max(abs(v) for shifts in analytic.values() for v in shifts),
            shift_quantum(field, params),
        )
        for m, eigen in oracle.oracle_shifts(n, s, field, params):
            want = np.sort(analytic[m.twice])
            worst = max(worst, _rel(float(np.max(np.abs(eigen - want))), scale))
            count += len(eigen)
        off_scale = params.a * params.e_abs * field.epsilon
        worst_off = max(worst_off, oracle.offdiagonal_report(n, s, field, params) / off_scale)
        count += 1
    passed = worst <= tol and worst_off <= off_tol
    return CheckResult(
        "c04-oracle-equivalence",
        passed,
        max(worst, worst_off),
        tol,
        f"eigen rel {worst:.2e} (tol 1e-6), offdiag {worst_off:.2e} a|e|eps (tol 1e-9)",
        cases=count,
    )


def check_degeneracy_removal(max_n=None) -> CheckResult:
    """For s != 0, m -> shift is injective at every fixed (n1, n2)."""
    collisions = 0
    checked = 0
    notes = []
    for n, s in _shells([0.5, 1, 1.5, 2, 2.5, 3, -0.5, -1, -2], 6.0, max_n):
        shell = states.enumerate_shell_parabolic(n, s)
        by_pair: dict[tuple[int, int], list[int]] = {}
        for st in shell:
            by_pair.setdefault((st.n1, st.n2), []).append(bracket_twelfths(st))
        for pair, brackets in by_pair.items():
            checked += 1
            if len(set(brackets)) != len(brackets):
                collisions += 1
                notes.append(f"collision within (n1,n2)={pair} at n={n}, s={s}")
        # residual collisions across different (n1, n2, m): reported, not asserted
        all_brackets = [bracket_twelfths(st) for st in shell]
        extra = len(all_brackets) - len(set(all_brackets))
        if extra:
            notes.append(f"shell n={n}, s={s}: {extra} cross-(n1,n2) shift coincidences")
    return CheckResult(
        "c05-degeneracy-removal",
        collisions == 0,
        float(collisions),
        0.0,
        f"{checked} (n1,n2) groups over n <= 6, exact integer comparison",
        notes,
        cases=checked,
    )


def check_shell_splitting(max_n=None) -> CheckResult:
    """Splitting formula equals the extreme like-m component distance.

    The closed-form shifts carry an extra m-linear term, so Delta E_n
    is the largest within-m-sector spread (the spread of the mirror
    pair (n1,n2,m) <-> (n2,n1,m), in which that term cancels).
    For s = 0 this coincides with the full-shell max - min, which is
    also asserted; for s != 0 the full-shell spread is wider and gets
    reported in the notes.
    """
    mismatches = 0
    notes = []
    count = 0
    for n, s in _shells([0, 0.5, 1, 1.5, 2, -1, -0.5], 6.0, max_n):
        params = PhysicalParams.atomic(s)
        field = FieldConfig(1.0)
        shell = states.enumerate_shell_parabolic(n, s)
        quantum = shift_quantum(field, params)
        formula = stark.shell_splitting(n, s, field, params)
        formula_twelfths = round(formula / quantum * 12.0)
        sectors: dict[int, list[int]] = {}
        for st in shell:
            sectors.setdefault(st.m.twice, []).append(bracket_twelfths(st))
        sector_spread = max(max(b) - min(b) for b in sectors.values())
        count += 1
        if sector_spread != formula_twelfths:
            mismatches += 1
            notes.append(f"n={n}, s={s}: sector spread {sector_spread} != formula {formula_twelfths}")
        all_b = [bracket_twelfths(st) for st in shell]
        full_spread = max(all_b) - min(all_b)
        if s.twice == 0 and full_spread != formula_twelfths:
            mismatches += 1
            notes.append(f"n={n}, s=0: full-shell spread {full_spread} != formula {formula_twelfths}")
        elif full_spread != sector_spread:
            notes.append(
                f"n={n}, s={s}: full-shell spread exceeds Delta E_n by {full_spread - sector_spread}/12 quanta (m-term)"
            )
    return CheckResult(
        "c06-shell-splitting",
        mismatches == 0,
        float(mismatches),
        0.0,
        f"{count} shells, exact twelfth-quantum integers",
        notes,
        cases=count,
    )


def check_dipole_consistency(max_n=None) -> CheckResult:
    """mean = -dE1/deps exactly; operator route equals mean to 1e-12."""
    tol = 1e-12
    worst = 0.0
    exact_failures = 0
    count = 0
    for n, s in _shells([0, 0.5, 1, 1.5, -0.5, -1], 4.0, max_n):
        params = PhysicalParams.atomic(s)
        f1 = FieldConfig(1.0)
        f2 = FieldConfig(2.0)
        scale_floor = 3.0 * params.hbar**2 * params.e_abs / (2.0 * params.mu * params.gamma_c) / 12.0
        for st in states.enumerate_shell_parabolic(n, s):
            d_mean = stark.mean_dipole(st, params)
            slope = -(stark.shift_closed_form(st, f2, params) - stark.shift_closed_form(st, f1, params))
            if slope != d_mean:
                exact_failures += 1
            d_op = stark.dipole_operator_expectation(st, params)
            worst = max(worst, _rel(abs(d_op - d_mean), max(abs(d_mean), scale_floor)))
            count += 1
    passed = worst <= tol and exact_failures == 0
    return CheckResult(
        "c07-dipole-consistency",
        passed,
        worst,
        tol,
        f"{count} states: finite-difference slope exact ({exact_failures} failures), operator rel {worst:.2e}",
        cases=count,
    )


def check_shell_cardinality(max_n=None) -> CheckResult:
    """Both enumerations span the same shell, sector by sector.

    Each shell must hold n^2 - s^2 labels in both bases; every parabolic
    label must derive the shell's n, and the labels must be distinct
    and in ``sort_key`` order; and each m sector must have as many
    parabolic as spherical labels, which is the condition for a unitary
    change of basis whichever way the two lists were built.
    """
    failures = 0
    shells = 0
    sectors = 0
    for s_twice in range(-6, 7):
        s = HalfInteger(s_twice)
        for n, _ in _shells([s], abs(s).value + 8, max_n):
            expected = (n.twice**2 - s.twice**2) // 4
            sph = states.enumerate_shell_spherical(n, s)
            par = states.enumerate_shell_parabolic(n, s)
            keys = [st.sort_key for st in par]
            if (
                len(sph) != expected
                or len(par) != expected
                or any(st.n != n for st in par)
                or any(a >= b for a, b in zip(keys, keys[1:]))
            ):
                failures += 1
            sph_m = Counter(st.m.twice for st in sph)
            par_m = Counter(st.m.twice for st in par)
            for m_twice in sph_m.keys() | par_m.keys():
                sectors += 1
                if sph_m[m_twice] != par_m[m_twice]:
                    failures += 1
            shells += 1
    return CheckResult(
        "c08-shell-cardinality",
        failures == 0,
        float(failures),
        0.0,
        f"{sectors} m sectors in {shells} shells, |s| <= 3, n <= |s| + 8",
        cases=sectors,
    )


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
    """Norms, orthogonality and the ground-state closed form."""
    tol = 1e-8
    worst = 0.0
    pairs = 0
    for s_raw in [0, 0.5, 1, 1.5]:
        s = half(s_raw)
        params = PhysicalParams.atomic(s)
        sph: list[SphericalState] = []
        par: list[ParabolicState] = []
        for n, _ in _shells([s], 4.0, max_n):
            sph.extend(states.enumerate_shell_spherical(n, s))
            par.extend(states.enumerate_shell_parabolic(n, s))
        for i, a in enumerate(sph):
            for b in sph[i:]:
                if a.m != b.m:
                    continue
                got = states.spherical_overlap(a, b, params)
                want = 1.0 if a == b else 0.0
                worst = max(worst, abs(got - want))
                pairs += 1
        for i, a in enumerate(par):
            for b in par[i:]:
                if a.m != b.m:
                    continue
                got = states.parabolic_overlap(a, b, params)
                want = 1.0 if a == b else 0.0
                worst = max(worst, abs(got - want))
                pairs += 1

    # ground-state proportionality, angular and radial factors
    gs_tol = 1e-10
    gs_worst = 0.0
    profiles = 0
    theta = np.linspace(0.15, math.pi - 0.15, 31)
    for s_raw in [0.5, 1, 1.5, 2, -0.5, -1, -2]:
        s = half(s_raw)
        params = PhysicalParams.atomic(s)
        n0 = abs(s) + 1
        j = abs(s)
        m = -j
        while m <= j:
            st = SphericalState(n=n0, j=j, m=m, s=s)
            psi = np.asarray(states.spherical_psi(st, 1.0, theta, 0.0, params)).real
            ref = _gs_angular_reference(s, m, theta)
            ratio = psi / ref
            gs_worst = max(gs_worst, float(np.max(np.abs(ratio / ratio[0] - 1.0))))
            profiles += 1
            m = m + 1
        r = np.linspace(0.3, 8.0, 40)
        rad = states.radial_R(n0, j, r, params)
        ref_rad = r ** abs(s).value * np.exp(-r / (params.a * n0.value))
        ratio = rad / ref_rad
        gs_worst = max(gs_worst, float(np.max(np.abs(ratio / ratio[0] - 1.0))))
        profiles += 1
    passed = worst <= tol and gs_worst <= gs_tol
    return CheckResult(
        "c09-wavefunction-suites",
        passed,
        max(worst, gs_worst),
        tol,
        f"{pairs} overlaps abs {worst:.2e} (tol 1e-8); {profiles} ground-state profiles {gs_worst:.2e} (tol 1e-10)",
        cases=pairs + profiles,
    )


def check_numerical_kernels(max_n=None) -> CheckResult:
    """Gauss exactness, Jacobi identities, Wigner-d orthogonality."""
    count = 0
    worst_quad = 0.0
    for order in range(1, 41):
        lag = quadrature.gauss_laguerre(order)
        leg = quadrature.gauss_legendre(order)
        for k in range(0, 2 * order):
            got = float(np.sum(lag.weights * lag.nodes**k))
            exact = math.exp(math.lgamma(k + 1.0))
            worst_quad = max(worst_quad, _rel(abs(got - exact), exact))
            got = float(np.sum(leg.weights * leg.nodes**k))
            exact = 0.0 if k % 2 else 2.0 / (k + 1.0)
            worst_quad = max(worst_quad, _rel(abs(got - exact), 2.0 / (k + 1.0)))
            count += 2

    worst_jac = 0.0
    rng = np.random.default_rng(2024)
    for dim in (2, 3, 5, 8, 13, 21, 34):
        a = rng.normal(size=(dim, dim))
        a = a + a.T
        lam = jacobi_eigenvalues(a)
        tr = float(np.trace(a))
        fro2 = float(np.sum(a * a))
        worst_jac = max(worst_jac, _rel(abs(float(lam.sum()) - tr), abs(tr) + 1.0))
        worst_jac = max(worst_jac, _rel(abs(float((lam**2).sum()) - fro2), fro2))
        count += 2

    worst_wig = 0.0
    rule = quadrature.gauss_legendre(40)
    for twice_base in (0, 1):
        j_list = [HalfInteger(t) for t in range(twice_base, 10, 2)]
        for ja in j_list:
            for jb in j_list:
                jmin = min(ja.twice, jb.twice)
                for m2 in range(-jmin, jmin + 1, 2):
                    for s2 in range(-jmin, jmin + 1, 2):
                        def prod(t):
                            th = np.arccos(t)
                            return wigner_d(ja, HalfInteger(m2), HalfInteger(s2), th) * wigner_d(
                                jb, HalfInteger(m2), HalfInteger(s2), th
                            )

                        got = rule.integrate(prod)
                        want = 2.0 / (ja.value * 2 + 1) if ja == jb else 0.0
                        worst_wig = max(worst_wig, abs(got - want))
                        count += 1

    passed = worst_quad <= 1e-10 and worst_jac <= 1e-12 and worst_wig <= 1e-10
    return CheckResult(
        "c10-numerical-kernels",
        passed,
        max(worst_quad, worst_jac, worst_wig),
        1e-10,
        f"quad rel {worst_quad:.2e} (1e-10), jacobi rel {worst_jac:.2e} (1e-12), wigner abs {worst_wig:.2e} (1e-10)",
        cases=count,
    )


# ---------------------------------------------------------------------------
# invariant suites beyond the headline criteria
# ---------------------------------------------------------------------------


def check_specfun_invariants(max_n=None) -> CheckResult:
    """1F1 contiguous relation and Wigner-d symmetries."""
    tol = 1e-10
    worst = 0.0
    count = 0
    xs = np.linspace(0.0, 50.0, 11)
    for p in range(1, 21):
        for b in range(1, 11):
            for x in xs:
                t1 = b * hyp1f1_poly(p, b, x)
                t2 = b * hyp1f1_poly(p - 1, b, x)
                t3 = x * hyp1f1_poly(p - 1, b + 1, x)
                scale = max(abs(t1), abs(t2), abs(t3), 1.0)
                worst = max(worst, abs(t1 - t2 + t3) / scale)
                count += 1
    thetas = np.linspace(0.0, math.pi, 7)
    for j2 in range(0, 8):
        for m2 in range(-j2, j2 + 1, 2):
            for s2 in range(-j2, j2 + 1, 2):
                j, m, s = HalfInteger(j2), HalfInteger(m2), HalfInteger(s2)
                at0 = wigner_d(j, m, s, 0.0)
                worst = max(worst, abs(at0 - (1.0 if m2 == s2 else 0.0)))
                phase = (-1.0) ** ((m2 - s2) // 2)
                for th in thetas:
                    worst = max(
                        worst, abs(wigner_d(j, m, s, th) - phase * wigner_d(j, s, m, th))
                    )
                count += 1 + len(thetas)
    return CheckResult(
        "inv-specfun",
        worst <= tol,
        worst,
        tol,
        "1F1 contiguous relation p <= 20; d-function endpoint and index symmetry",
        cases=count,
    )


def check_quadrature_invariants(max_n=None) -> CheckResult:
    """Closed-form low orders, weight sums, convergence plateau."""
    tol = 1e-10
    errors = []
    lag2 = quadrature.gauss_laguerre(2)
    errors.append(float(np.max(np.abs(lag2.nodes - np.array([2 - math.sqrt(2), 2 + math.sqrt(2)])))))
    errors.append(
        float(np.max(np.abs(lag2.weights - np.array([(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4]))))
    )
    lag3 = quadrature.gauss_laguerre(3)
    cubic_roots = np.sort(np.roots([-1.0 / 6.0, 3.0 / 2.0, -3.0, 1.0]))
    errors.append(float(np.max(np.abs(lag3.nodes - cubic_roots))))
    leg2 = quadrature.gauss_legendre(2)
    errors.append(float(np.max(np.abs(leg2.nodes - np.array([-1, 1]) / math.sqrt(3)))))
    leg3 = quadrature.gauss_legendre(3)
    errors.append(float(np.max(np.abs(leg3.nodes - np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])))))
    for order in (1, 5, 20, 40, 80):
        errors.append(abs(quadrature.gauss_laguerre(order).weights.sum() - 1.0))
        errors.append(abs(quadrature.gauss_legendre(order).weights.sum() - 2.0) / 2.0)

    def smooth(x):
        return np.exp(-x) / (1.0 + 0.3 * x)

    v1 = quadrature.integrate_halfline(smooth, quadrature.gauss_laguerre(40))
    v2 = quadrature.integrate_halfline(smooth, quadrature.gauss_laguerre(80))
    errors.append(abs(v2 - v1) / abs(v2))
    worst = max(errors)
    return CheckResult(
        "inv-quadrature",
        worst <= tol,
        worst,
        tol,
        "orders 1-3 closed forms, weight sums, doubling plateau",
        cases=len(errors),
    )


def check_states_invariants(max_n=None) -> CheckResult:
    """Coordinate round trip, volume element, Schroedinger residual."""
    worst_rt = 0.0
    rng = np.random.default_rng(11)
    roundtrips = 1000
    for _ in range(roundtrips):
        x = rng.uniform(-3, 3, size=3)
        pt = states.cartesian_to_parabolic(*x)
        back = np.array(states.parabolic_to_cartesian(pt))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - x))) / max(1.0, float(np.max(np.abs(x)))))

    vol_err = abs(states.volume_element(1.0, 1.0) - 0.5)

    res_tol = 1e-6
    worst_res = 0.0
    residuals = 0
    samples = [
        (ParabolicState(1, 0, 0, 0), PhysicalParams.atomic(0)),
        (ParabolicState(0, 0, half("3/2"), half("1/2")), PhysicalParams.atomic(half("1/2"))),
        (ParabolicState(0, 1, half("1/2"), half("1/2")), PhysicalParams.atomic(half("1/2"))),
        (ParabolicState(0, 0, -1, 1), PhysicalParams.atomic(1)),
        (ParabolicState(1, 1, 0, 1), PhysicalParams.atomic(1)),
    ]
    for st, params in samples:
        if max_n is not None and st.n.value > float(max_n):
            continue
        worst_res = max(worst_res, states.parabolic_hamiltonian_residual(st, params))
        residuals += 1
    passed = worst_rt <= 1e-12 and vol_err == 0.0 and worst_res <= res_tol
    return CheckResult(
        "inv-states",
        passed,
        max(worst_rt, vol_err, worst_res),
        res_tol,
        f"roundtrip {worst_rt:.2e} (1e-12), {residuals} residuals {worst_res:.2e} (1e-6)",
        cases=roundtrips + 1 + residuals,
    )


def check_stark_invariants(max_n=None) -> CheckResult:
    """Linearity, parity, hydrogen limit of the closed-form shifts."""
    failures = 0
    count = 0
    for n, s in _shells([0, 1, 1.5, -1], 5.0, max_n):
        params = PhysicalParams.atomic(s)
        f1, f3 = FieldConfig(1.0), FieldConfig(3.0)
        for st in states.enumerate_shell_parabolic(n, s):
            count += 1
            if stark.shift_closed_form(st, f3, params) != 3.0 * stark.shift_closed_form(st, f1, params):
                failures += 1
            mirror = ParabolicState(st.n2, st.n1, -st.m, st.s)
            if bracket_twelfths(mirror) != -bracket_twelfths(st):
                failures += 1
            if s.twice == 0:
                hydrogen = 1.5 * params.a * params.e_abs * f1.epsilon * st.n.value * (st.n1 - st.n2)
                if abs(stark.shift_closed_form(st, f1, params) - hydrogen) > 1e-12 * max(abs(hydrogen), 1.0):
                    failures += 1
    return CheckResult(
        "inv-stark",
        failures == 0,
        float(failures),
        0.0,
        f"{count} states: exact linearity, mirror antisymmetry, hydrogen limit",
        cases=count,
    )


def check_oracle_invariants(max_n=None) -> CheckResult:
    """Hermiticity, derived order against a 64-node rule, trace identity."""
    tol = 1e-10
    worst = 0.0
    count = 0
    field = FieldConfig(1.0)
    for n, s in _shells([0, 1, 0.5], 3.0, max_n):
        params = PhysicalParams.atomic(s)
        shell = states.enumerate_shell_parabolic(n, s)
        scale = params.a * params.e_abs * field.epsilon
        for i, a in enumerate(shell):
            for b in shell[i:]:
                v1 = oracle.matrix_element_V(a, b, field, params)
                v2 = oracle.matrix_element_V(b, a, field, params)
                worst = max(worst, abs(v1 - v2) / scale)
                v3 = oracle.matrix_element_V(a, b, field, params, quad_order=64)
                worst = max(worst, abs(v3 - v1) / max(abs(v3), scale))
                count += 2
        diag_sum = sum(oracle.matrix_element_V(a, a, field, params) for a in shell)
        analytic_sum = sum(stark.shift_closed_form(a, field, params) for a in shell)
        worst = max(worst, abs(diag_sum - analytic_sum) / max(abs(analytic_sum), scale))
        count += 1
    return CheckResult(
        "inv-oracle",
        worst <= tol,
        worst,
        tol,
        "hermiticity, derived order against order 64, first-order trace identity",
        cases=count,
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


def check_ids() -> list[str]:
    return list(CHECKS)


def run_check(name: str, max_n=None) -> CheckResult:
    return CHECKS[name](max_n=max_n)
