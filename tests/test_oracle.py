"""Tests for the quadrature-and-diagonalization verification pipeline."""

import hashlib
import re

import numpy as np
import pytest

from dyonstark import oracle, quadrature, states
from dyonstark.oracle import (
    build_subspace,
    matrix_element_V,
    offdiagonal_report,
    oracle_shifts,
    shell_sectors,
)
from dyonstark.specfun import HalfInteger, half
from dyonstark.stark import FieldConfig, shift_closed_form, shift_quantum
from dyonstark.states import ParabolicState, PhysicalParams, enumerate_shell_parabolic, phi_pq

P0 = PhysicalParams.atomic(0)
P1 = PhysicalParams.atomic(1)
F1 = FieldConfig(1.0)


class TestMatrixElement:
    def test_m_mismatch_short_circuits(self):
        a = ParabolicState(1, 0, 0, 0)
        b = ParabolicState(0, 0, 1, 0)
        assert matrix_element_V(a, b, F1, P0) == 0.0

    def test_s_mismatch_raises(self):
        a = ParabolicState(0, 0, 0, 0)
        b = ParabolicState(0, 0, 1, 1)
        with pytest.raises(ValueError, match="monopole"):
            matrix_element_V(a, b, F1, P0)

    def test_zero_field(self):
        a = ParabolicState(1, 0, 0, 0)
        assert matrix_element_V(a, a, FieldConfig(0.0), P0) == 0.0

    def test_hydrogen_diagonal(self):
        a = ParabolicState(1, 0, 0, 0)
        assert matrix_element_V(a, a, F1, P0) == pytest.approx(3.0, rel=1e-12)

    def test_matches_closed_form_on_diagonals(self):
        for s_raw, params in ((0, P0), (1, P1), (half("1/2"), PhysicalParams.atomic(half("1/2")))):
            s = half(s_raw)
            n = abs(s) + 2
            for state in enumerate_shell_parabolic(n, s):
                got = matrix_element_V(state, state, F1, params)
                want = shift_closed_form(state, F1, params)
                assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    def test_hermiticity(self):
        shell = enumerate_shell_parabolic(3, 0)
        for i, a in enumerate(shell):
            for b in shell[i:]:
                v_ab = matrix_element_V(a, b, F1, P0)
                v_ba = matrix_element_V(b, a, F1, P0)
                assert abs(v_ab - v_ba) <= 1e-12

    def test_quadrature_order_doubling(self):
        a = ParabolicState(2, 1, 0, 0)
        v1 = matrix_element_V(a, a, F1, P0, quad_order=24)
        v2 = matrix_element_V(a, a, F1, P0, quad_order=48)
        assert abs(v2 - v1) <= 1e-10 * abs(v2)

    def test_cross_shell_element(self):
        # different shells, same m: finite coupling, hermitian
        a = ParabolicState(1, 0, 0, 0)  # n = 2
        b = ParabolicState(1, 1, 0, 0)  # n = 3
        v = matrix_element_V(a, b, F1, P0)
        assert np.isfinite(v) and v != 0.0
        assert matrix_element_V(b, a, F1, P0) == pytest.approx(v, abs=1e-13)


class TestSubspace:
    def test_dimensions(self):
        assert build_subspace(3, 0, 0, F1, P0).dimension == 3
        assert build_subspace(2, 0, 1, F1, P0).dimension == 1
        assert build_subspace(1, 0, 0, F1, P0).dimension == 1

    def test_symmetry(self):
        sub = build_subspace(4, 0, 0, F1, P0)
        assert np.max(np.abs(sub.entries - sub.entries.T)) <= 1e-12

    def test_empty_sector_raises(self):
        with pytest.raises(ValueError, match="no states"):
            build_subspace(2, 0, half(5), F1, P0)

    def test_offdiagonals_vanish(self):
        # the parabolic basis diagonalizes V inside a shell
        for n, s, params in ((3, half(0), P0), (4, half(0), P0), (3, half(1), P1)):
            scale = params.a * F1.epsilon
            assert offdiagonal_report(n, s, F1, params) <= 1e-9 * scale

    def test_offdiagonal_scales_linearly(self):
        r1 = offdiagonal_report(3, 0, F1, P0)
        r2 = offdiagonal_report(3, 0, FieldConfig(2.0), P0)
        assert r2 <= 2.0 * r1 + 1e-15


class TestOracleShifts:
    def test_unsplit_hydrogen_ground(self):
        sectors = oracle_shifts(1, 0, F1, P0)
        assert len(sectors) == 1
        assert sectors[0][1] == pytest.approx([0.0], abs=1e-15)

    def test_hydrogen_n2_multiset(self):
        sectors = oracle_shifts(2, 0, F1, P0)
        merged = np.sort(np.concatenate([ev for _, ev in sectors]))
        assert merged == pytest.approx([-3.0, 0.0, 0.0, 3.0], abs=1e-10)

    def test_monopole_ground_shell(self):
        sectors = oracle_shifts(2, 1, F1, P1)
        merged = np.sort(np.concatenate([ev for _, ev in sectors]))
        assert merged == pytest.approx([-2.5, 0.0, 2.5], abs=1e-10)

    def test_agreement_with_closed_form_per_sector(self):
        for s_raw in (0, half("1/2"), 1, half("3/2")):
            s = half(s_raw)
            params = PhysicalParams.atomic(s)
            n = abs(s) + 1
            while n.value <= 4:
                shifts = {
                    m2: sorted(
                        shift_closed_form(st, F1, params)
                        for st in enumerate_shell_parabolic(n, s)
                        if st.m.twice == m2
                    )
                    for m2 in {st.m.twice for st in enumerate_shell_parabolic(n, s)}
                }
                scale = max(max(abs(v) for vs in shifts.values() for v in vs), shift_quantum(F1, params))
                for m, eigen in oracle_shifts(n, s, F1, params):
                    want = shifts[m.twice]
                    assert np.max(np.abs(eigen - np.array(want))) <= 1e-6 * scale
                n = n + 1

    def test_trace_identity(self):
        # sum of diagonal V elements equals sum of analytic shifts
        for n, s, params in ((3, half(0), P0), (3, half(1), P1)):
            shell = enumerate_shell_parabolic(n, s)
            diag = sum(matrix_element_V(a, a, F1, params) for a in shell)
            analytic = sum(shift_closed_form(a, F1, params) for a in shell)
            scale = max(abs(analytic), shift_quantum(F1, params))
            assert abs(diag - analytic) <= 1e-8 * scale


class TestQuadOrderResolution:
    def test_explicit_wins(self):
        # an explicit order is used as given: two nodes cannot integrate the
        # degree-6 xi moment of (2, 1, 0), and no floor lifts the order
        a = ParabolicState(2, 1, 0, 0)
        want = shift_closed_form(a, F1, P0)
        assert matrix_element_V(a, a, F1, P0) == pytest.approx(want, rel=1e-12)
        assert abs(matrix_element_V(a, a, F1, P0, quad_order=2) - want) > 1e-3 * abs(want)

    # (199, 0, 0) at n = 200: the xi moment x^2 Phi^2 has degree 400, so
    # exactness takes 201 nodes, the rule cap
    @pytest.mark.parametrize(
        "n1, n2, m, s", [(0, 0, 149, 1), (0, 0, 199, 1), (96, 0, 0, 0), (199, 0, 0, 0)]
    )
    def test_large_shell_diagonals_match_closed_form(self, n1, n2, m, s):
        params = PhysicalParams.atomic(s)
        a = ParabolicState(n1, n2, m, s)
        want = shift_closed_form(a, F1, params)
        got = matrix_element_V(a, a, F1, params)
        assert abs(got - want) <= 1e-10 * max(abs(want), shift_quantum(F1, params))


def _shells(s_raw, n_max):
    s = half(s_raw)
    n = abs(s) + 1
    while n.value <= n_max:
        yield n, s
        n = n + 1


def _sector_states(sub):
    """The states of a sector's rows: row i is (n1, n2) = (i, k - i)."""
    k = sub.dimension - 1
    return [ParabolicState(n1, k - n1, sub.m, sub.s) for n1 in range(k + 1)]


class TestSectorTables:
    """Sectors assembled from one table of Phi per factor and its Gram moments."""

    @pytest.mark.parametrize("s_raw", ["0", "1/2", "-1/2", "1", "3/2", "-2"])
    def test_entries_match_the_element_route(self, s_raw):
        for n, s in _shells(s_raw, 6):
            params = PhysicalParams.atomic(s)
            scale = params.a * F1.epsilon
            for m in {st.m for st in enumerate_shell_parabolic(n, s)}:
                sub = build_subspace(n, s, m, F1, params)
                assert np.array_equal(sub.entries, sub.entries.T)
                basis = _sector_states(sub)
                for i, a in enumerate(basis):
                    for k in range(i, sub.dimension):
                        v = matrix_element_V(a, basis[k], F1, params)
                        assert abs(sub.entries[i, k] - v) <= 1e-12 * max(abs(v), scale)

    @pytest.mark.parametrize("n_raw, s_raw", [("12", "2"), ("51/2", "-3/2")])
    def test_large_shells_match_the_closed_form(self, n_raw, s_raw):
        # the c04 tolerances of ``verify``, on shells it does not reach
        n, s = half(n_raw), half(s_raw)
        params = PhysicalParams.atomic(s)
        want: dict[int, list[float]] = {}
        for st in enumerate_shell_parabolic(n, s):
            want.setdefault(st.m.twice, []).append(shift_closed_form(st, F1, params))
        scale = max(max(abs(v) for vs in want.values() for v in vs), shift_quantum(F1, params))
        for m, eigen in oracle_shifts(n, s, F1, params):
            assert np.max(np.abs(eigen - np.sort(want[m.twice]))) <= 1e-6 * scale
        assert offdiagonal_report(n, s, F1, params) <= 1e-12 * scale

    def test_same_bits_with_a_cold_or_warm_rule_cache(self):
        def run():
            return [[v.hex() for v in eigen] for _, eigen in oracle_shifts(6, 1, F1, P1)]

        quadrature._rule.cache_clear()
        cold = run()
        assert run() == cold

    def test_zero_field_gives_zero_sectors(self):
        sub = build_subspace(4, 0, 0, FieldConfig(0.0), P0)
        assert sub.dimension == 4
        assert not np.any(sub.entries)

    def test_mismatched_params_raise(self):
        with pytest.raises(ValueError, match="^s=0 disagrees with params.s=1$"):
            build_subspace(3, 0, 0, F1, P1)

    @pytest.mark.parametrize(
        "n_raw, s_raw, m_raw", [("6", "1", "0"), ("11/2", "1/2", "1/2"), ("60", "0", "0"), ("200", "0", "75")]
    )
    def test_same_bytes_as_one_phi_per_degree(self, n_raw, s_raw, m_raw):
        n, s, m = half(n_raw), half(s_raw), half(m_raw)
        sub = build_subspace(n, s, m, F1, PhysicalParams.atomic(s))
        assert sub.entries.tobytes() == _per_degree_entries(n, s, m).tobytes()

    def test_order_past_the_rule_cap_raises_before_any_moment(self, monkeypatch):
        # no shell up to N_MAX asks for more than the cap, so the order is
        # forced one past it, for the eta factor only: (n, s, m) = (3, 1, 1)
        # has q1 = 0 and q2 = 2, so its xi rule has degree 4 and its eta rule
        # degree 6, and the sector raises before a single Phi is evaluated
        def no_phi(*args, **kwargs):
            raise AssertionError("phi_table evaluated before the order check")

        monkeypatch.setattr(states, "phi_table", no_phi)
        monkeypatch.setattr(
            states, "_exact_order", lambda degree: quadrature.MAX_ORDER + 1 if degree == 6 else degree // 2 + 1
        )
        with pytest.raises(ValueError, match=r"quadrature order must be an integer in \[1, 201\], got 202"):
            build_subspace(3, 1, 1, F1, P1)


def _per_degree_entries(n, s, m):
    """A sector's entries as assembled with one phi_pq call per degree.

    A copy of the assembly that ``build_subspace`` used before one
    ``phi_table`` pass per factor replaced its per-degree calls.
    """
    params = PhysicalParams.atomic(s)
    k2 = n.twice - 2 - max(abs(m.twice), abs(s.twice))
    k = k2 // 2
    nf = n.value
    scale = params.a * nf
    moments = []
    for ps, q in [(range(k + 1), (m.twice - s.twice) // 2), (range(k, -1, -1), (m.twice + s.twice) // 2)]:
        rule = quadrature.gauss_laguerre((k2 + abs(q) + 2) // 2 + 1)
        x = scale * rule.nodes
        w = scale * rule.lifted_weights
        table = np.array([phi_pq(p, q, x, nf, params) for p in ps])
        moments += [np.einsum("ik,jk->ij", table * wk, table) for wk in (w, w * x**2)]
    g0_xi, g2_xi, g0_eta, g2_eta = moments
    pref = 2.0 / (nf**4 * params.a**3) * F1.epsilon / 8.0
    upper = np.triu(pref * (g2_xi * g0_eta - g0_xi * g2_eta))
    return upper + np.triu(upper, 1).T


def _sector_digest():
    """sha256 over the hex bits of every sector basis, entry, eigenvalue and
    largest off-diagonal of the shells n <= |s| + 6 and of (12, 2)."""
    h = hashlib.sha256()
    cases = [
        shell
        for s_raw in ("0", "1/2", "-1/2", "1", "3/2", "-2")
        for shell in _shells(s_raw, abs(half(s_raw)).value + 6)
    ]
    for n, s in [*cases, (half(12), half(2))]:
        params = PhysicalParams.atomic(s)
        h.update(f"{n} {s} {offdiagonal_report(n, s, F1, params).hex()}\n".encode())
        for m, eigen in oracle_shifts(n, s, F1, params):
            sub = build_subspace(n, s, m, F1, params)
            h.update(f"{m} {[v.hex() for v in eigen]}\n".encode())
            h.update(f"{[(b.n1, b.n2, b.m.twice) for b in _sector_states(sub)]}\n".encode())
            h.update(f"{[v.hex() for v in sub.entries.ravel()]}\n".encode())
    return h.hexdigest()


class TestSectorLabels:
    """Each sector is built from its own (n, s, m): n1 + n2 = n - 1 - max(|m|, |s|)."""

    SHELL_RULE = "n must satisfy n >= |s| + 1 with n - |s| - 1 a non-negative integer"

    @pytest.mark.parametrize("s_twice", range(-6, 7))
    def test_basis_is_the_shells_m_sector(self, s_twice):
        s = HalfInteger(s_twice)
        params = PhysicalParams.atomic(s)
        for n, _ in _shells(s, abs(s).value + 8):
            shell = enumerate_shell_parabolic(n, s)
            ms = [HalfInteger(m2) for m2 in range(2 - n.twice, n.twice - 1, 2)]
            assert {st.m for st in shell} == set(ms)
            for m in ms:
                sub = build_subspace(n, s, m, FieldConfig(0.0), params)
                assert _sector_states(sub) == [st for st in shell if st.m == m]
                assert sub.dimension == (n - max(abs(m), abs(s))).as_int()

    @pytest.mark.parametrize("n_raw, s_raw, ms", [("200", "0", ["150"]), ("399/2", "3/2", ["1/2", "-1/2"])])
    def test_basis_at_the_largest_shells(self, n_raw, s_raw, ms):
        n, s = half(n_raw), half(s_raw)
        shell = enumerate_shell_parabolic(n, s)
        for m in map(half, ms):
            sub = build_subspace(n, s, m, FieldConfig(0.0), PhysicalParams.atomic(s))
            assert _sector_states(sub) == [st for st in shell if st.m == m]

    def test_same_bits_as_the_shell_enumeration(self):
        # recorded when sectors were still grouped from the enumerated shell
        assert _sector_digest() == "50e0b6555cc714ce25f36ba2f732fb33a17484ef773a97ddb6db7cbd0187cf1d"

    @pytest.mark.parametrize("n, s, grams", [(4, 1, 7), (half("7/2"), half("1/2"), 6)])
    def test_one_build_per_m(self, monkeypatch, n, s, grams):
        # one build per m, returned in order, from one Gram pair per distinct (k, |q|) of the shell
        n, s = half(n), half(s)
        params = PhysicalParams.atomic(s)
        build, factor, calls, pairs = oracle.build_subspace, oracle.phi_grams, [], []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return build(*args, **kwargs)

        def counting_grams(k, aq, *args):
            pairs.append((k, aq))
            return factor(k, aq, *args)

        monkeypatch.setattr(oracle, "build_subspace", counting)
        monkeypatch.setattr(oracle, "phi_grams", counting_grams)
        top = n.twice - 2
        ms = [HalfInteger(m2) for m2 in range(-top, top + 1, 2)]
        factors = {
            ((n.twice - 2 - max(abs(m.twice), abs(s.twice))) // 2, abs(m.twice + sign * s.twice) // 2)
            for m in ms
            for sign in (1, -1)
        }
        assert len(factors) == grams
        assert [m for m, _ in oracle_shifts(n, s, F1, params)] == ms
        assert sorted(calls) == ms
        assert sorted(pairs) == sorted(factors)
        calls.clear()
        pairs.clear()
        offdiagonal_report(n, s, F1, params)
        assert sorted(calls) == ms
        assert sorted(pairs) == sorted(factors)

    @pytest.mark.parametrize(
        "n, s, field",
        [
            (4, 1, F1),
            (half("7/2"), half("-1/2"), F1),
            (6, 0, F1),
            (20, 0, F1),
            (half("41/2"), half("-3/2"), F1),
            (half("11/2"), half("3/2"), FieldConfig(0.0)),
        ],
    )
    def test_shell_sectors_are_the_sectors_by_m(self, n, s, field):
        params = PhysicalParams.atomic(s)
        top = half(n).twice - 2
        sectors = shell_sectors(n, s, field, params)
        assert [sub.m.twice for sub in sectors] == list(range(-top, top + 1, 2))
        for sub in sectors:
            alone = build_subspace(n, s, sub.m, field, params)
            assert (sub.n, sub.m, sub.s) == (alone.n, alone.m, alone.s)
            assert sub.entries.tobytes() == alone.entries.tobytes()
            if field.epsilon:
                # the assembly from one table per sector, eta rows reversed before the Gram
                assert sub.entries.tobytes() == _per_degree_entries(sub.n, sub.s, sub.m).tobytes()
            else:
                assert not np.any(sub.entries)
            off = np.abs(sub.entries - np.diag(np.diag(sub.entries)))
            assert sub.largest_offdiagonal == (off.max() if sub.dimension > 1 else 0.0)

    def test_sectors_build_no_state_object(self, monkeypatch):
        post_init, built = ParabolicState.__post_init__, []

        def counting(state):
            built.append(state)
            post_init(state)

        monkeypatch.setattr(ParabolicState, "__post_init__", counting)
        sectors = shell_sectors(6, 1, F1, P1)
        assert built == []
        # the count sees a state built from a sector's labels
        assert len(_sector_states(sectors[0])) == len(built) == 1

    def test_shell_sectors_check_the_shell(self):
        with pytest.raises(ValueError, match=re.escape(f"{self.SHELL_RULE} (got n=1/2, s=0)")):
            shell_sectors(half("1/2"), 0, F1, P0)

    @pytest.mark.parametrize(
        "n, s, m, message",
        [
            (3, 0, 3, "shell n=3, s=0 has no states with m=3"),
            (half("7/2"), half("-1/2"), half("-7/2"), "shell n=7/2, s=-1/2 has no states with m=-7/2"),
            (3, 0, half("1/2"), "shell n=3, s=0 has no states with m=1/2"),
            (half("5/2"), half("1/2"), 0, "shell n=5/2, s=1/2 has no states with m=0"),
            (half("5/2"), 0, half("1/2"), f"{SHELL_RULE} (got n=5/2, s=0)"),
            (0, 0, 0, f"{SHELL_RULE} (got n=0, s=0)"),
            (201, 0, 0, "n must satisfy n <= 200 (got n=201)"),
        ],
    )
    def test_messages(self, n, s, m, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_subspace(n, s, m, F1, PhysicalParams.atomic(s))

    @pytest.mark.parametrize("report", [oracle_shifts, offdiagonal_report])
    @pytest.mark.parametrize("n", [0, half("1/2")])
    def test_shell_checked_where_no_m_is_left(self, report, n):
        with pytest.raises(ValueError, match=re.escape(f"{self.SHELL_RULE} (got n={n}, s=0)")):
            report(n, 0, F1, P0)
