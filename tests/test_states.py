"""Tests for quantum-number bookkeeping, wavefunctions and coordinates."""

import cmath
import dataclasses
import hashlib
import itertools
import math
import pickle
import re
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from dyonstark import oracle, specfun, stark, states, tables
from dyonstark.quadrature import gauss_laguerre, gauss_legendre, integrate_halfline
from dyonstark.specfun import HalfInteger, half
from dyonstark.stark import FieldConfig, integral_I, integral_II
from dyonstark.states import (
    N_MAX,
    ParabolicPoint,
    ParabolicState,
    PhysicalParams,
    SphericalState,
    _angular_norm,
    beta_eigenvalue,
    cartesian_to_parabolic,
    energy_level,
    enumerate_shell_parabolic,
    enumerate_shell_spherical,
    parabolic_hamiltonian_residual,
    parabolic_labels,
    parabolic_overlap,
    parabolic_psi,
    parabolic_to_cartesian,
    phi_pair_moment,
    phi_grams,
    phi_pq,
    phi_table,
    psi_grid,
    radial_R,
    spherical_labels,
    spherical_overlap,
    spherical_psi,
    volume_element,
)

P0 = PhysicalParams.atomic(0)
PHALF = PhysicalParams.atomic(half("1/2"))
P1 = PhysicalParams.atomic(1)
ONE_LABEL = "one number, as a Phi takes one p and one q per call; got an array of shape"


class TestPhysicalParams:
    def test_bohr_radius_is_derived(self):
        p = PhysicalParams(gamma_c=4.0, s=half(0))
        assert p.a == 0.25

    def test_fields_are_the_coupling_and_the_monopole_number(self):
        assert [f.name for f in dataclasses.fields(PhysicalParams)] == ["gamma_c", "s"]

    @pytest.mark.parametrize("unit", ["hbar", "mu", "e_abs"])
    def test_units_are_not_parameters(self, unit):
        with pytest.raises(TypeError, match=unit):
            PhysicalParams(**{unit: 1.0})

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="^gamma_c must be a positive finite number, got 0.0$"):
            PhysicalParams(gamma_c=0.0)
        with pytest.raises(ValueError, match="^gamma_c must be a positive finite number, got -1.0$"):
            PhysicalParams(gamma_c=-1.0)

    @pytest.mark.parametrize("gamma_c", [True, False, np.True_])
    def test_bool_coupling_refused_by_its_rule(self, gamma_c):
        with pytest.raises(ValueError, match="^gamma_c must be a real number other than a bool, got"):
            PhysicalParams(gamma_c=gamma_c)

    @pytest.mark.parametrize("gamma_c", [np.float32(2.0), np.int64(2), 2, Fraction(2)])
    def test_real_coupling_stored_as_a_float(self, gamma_c):
        params = PhysicalParams(gamma_c=gamma_c)
        assert type(params.gamma_c) is float and params.gamma_c == 2.0
        head = tables.render_json({}, params)
        assert '"gamma": 2.0,' in head and '"a": 0.5' in head

    def test_coupling_past_the_float_range_refused(self):
        with pytest.raises(ValueError, match="^gamma_c must be a positive finite number"):
            PhysicalParams(gamma_c=10**400)

    @pytest.mark.parametrize(
        "kwargs",
        [{"gamma_c": 1e103}, {"gamma_c": 1e-103}, {"gamma_c": 1e-320}, {"gamma_c": 1e300}, {"gamma_c": 1e-300}],
    )
    def test_derived_scales_must_be_representable(self, kwargs):
        with pytest.raises(ValueError, match="a\\^3, a\\^-3 and gamma_c\\^2 must be finite and nonzero"):
            PhysicalParams(**kwargs)

    @pytest.mark.parametrize("gamma_c", [1e-102, 1e102])
    def test_edge_of_the_coupling_range(self, gamma_c):
        p = PhysicalParams.atomic(0, gamma_c=gamma_c)
        assert math.isfinite(energy_level(2, p)) and p.a**3 > 0

    def test_dirac_quantization_via_halfinteger(self):
        with pytest.raises(ValueError):
            PhysicalParams.atomic(s=0.3)


class TestEnergy:
    def test_ground_level(self):
        assert energy_level(1, P0) == pytest.approx(-0.5, rel=1e-15)

    def test_second_level(self):
        assert energy_level(2, P0) == pytest.approx(-0.125, rel=1e-15)

    def test_half_integer_ground_shell(self):
        assert energy_level(half("3/2"), PHALF) == pytest.approx(-2.0 / 9.0, rel=1e-14)

    def test_strictly_negative_and_increasing(self):
        prev = -math.inf
        for k in range(8):
            e = energy_level(half("3/2") + k, PHALF)
            assert e < 0
            assert e > prev
            prev = e

    def test_below_ground_shell_rejected(self):
        with pytest.raises(ValueError, match="n must satisfy"):
            energy_level(1, P1)
        with pytest.raises(ValueError, match="n must satisfy"):
            energy_level(2, PHALF)  # n - |s| - 1 not an integer


def _scan_shell_parabolic(n, s):
    """Reference shell: every (n1, n2, 2m) with n1, n2 <= n - |s| - 1 and
    |m| <= n whose principal level n1 + n2 + (|m-s| + |m+s|)/2 + 1 is n,
    sorted by (n1, n2, m).  An O(n^3) scan over candidate labels, one
    (n2, m) plane of them per n1, so that the cap shells take milliseconds."""
    n_r = (n - abs(s) - 1).as_int()
    n2, m_twice = np.meshgrid(np.arange(n_r + 1), np.arange(-n.twice, n.twice + 1, 2), indexing="ij")
    q_sum2 = np.abs(m_twice - s.twice) + np.abs(m_twice + s.twice)
    labels = []
    for n1 in range(n_r + 1):
        hit = 2 * (n1 + n2 + 1) + q_sum2 // 2 == n.twice
        labels += zip(itertools.repeat(n1), n2[hit].tolist(), m_twice[hit].tolist())
    return sorted(labels)


def _nested_spherical_labels(n, s):
    """Reference (2j, 2m) labels: j = |s|, ..., n - 1, then m = -j, ..., j."""
    return [(j2, m2) for j2 in range(abs(s.twice), n.twice - 1, 2) for m2 in range(-j2, j2 + 1, 2)]


def _assert_label_arrays(n, s):
    """Both label enumerations of the shell are int64 arrays of n^2 - s^2
    rows, equal to the reference scans."""
    rows = (n.twice**2 - s.twice**2) // 4
    for labels, want in (
        (parabolic_labels(n, s), _scan_shell_parabolic(n, s)),
        (spherical_labels(n, s), _nested_spherical_labels(n, s)),
    ):
        assert [(a.dtype, a.shape) for a in labels] == [(np.int64, (rows,))] * len(labels)
        assert list(zip(*(a.tolist() for a in labels))) == want


class TestEnumeration:
    def test_hydrogen_ground(self):
        assert len(enumerate_shell_spherical(1, 0)) == 1
        assert [(st.n1, st.n2, st.m.twice) for st in enumerate_shell_parabolic(1, 0)] == [
            (0, 0, 0)
        ]

    def test_s1_n2_shell(self):
        shell = enumerate_shell_spherical(2, 1)
        assert [(st.j.twice, st.m.twice) for st in shell] == [(2, -2), (2, 0), (2, 2)]
        par = enumerate_shell_parabolic(2, 1)
        assert [(st.n1, st.n2, st.m.twice) for st in par] == [
            (0, 0, -2),
            (0, 0, 0),
            (0, 0, 2),
        ]

    def test_half_integer_shell_count(self):
        assert len(enumerate_shell_spherical(half("5/2"), half("1/2"))) == 6
        assert len(enumerate_shell_parabolic(half("5/2"), half("1/2"))) == 6

    def test_hydrogen_n2_parabolic(self):
        labels = [(st.n1, st.n2, st.m.twice) for st in enumerate_shell_parabolic(2, 0)]
        assert labels == [(0, 0, -2), (0, 0, 2), (0, 1, 0), (1, 0, 0)]

    @given(st.integers(-6, 6), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_cardinality_matches(self, s_twice, k):
        s = HalfInteger(s_twice)
        n = abs(s) + 1 + k
        expected = (n.twice**2 - s.twice**2) // 4
        assert len(enumerate_shell_spherical(n, s)) == expected
        assert len(enumerate_shell_parabolic(n, s)) == expected

    @pytest.mark.parametrize("s_twice", range(-12, 13))
    def test_direct_build_matches_scan(self, s_twice):
        s = HalfInteger(s_twice)
        for k in range(20):  # every shell with n <= 20, and more
            n = abs(s) + 1 + k
            _assert_label_arrays(n, s)
            labels = _scan_shell_parabolic(n, s)
            assert enumerate_shell_parabolic(n, s) == [
                ParabolicState(n1, n2, HalfInteger(m2), s) for n1, n2, m2 in labels
            ]

    @pytest.mark.parametrize("n, s", [("200", "0"), ("399/2", "1/2"), ("399/2", "-1/2"), ("200", "3"), ("200", "-3")])
    def test_label_arrays_match_the_scans_at_the_cap(self, n, s):
        _assert_label_arrays(half(n), half(s))

    def test_builds_only_shell_labels(self, monkeypatch):
        built = []

        class Counting(ParabolicState):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        monkeypatch.setattr(states, "ParabolicState", Counting)
        shell = enumerate_shell_parabolic(60, 0)
        assert len(shell) == 3600
        assert len(built) == 3600

    def test_derived_labels_cached_without_changing_identity(self):
        st_a = ParabolicState(2, 1, half("1/2"), half("-3/2"))
        st_b = ParabolicState(2, 1, half("1/2"), half("-3/2"))
        hash_before = hash(st_a)
        assert (st_a.n, st_a.q1, st_a.q2) == (half("11/2"), 2, -1)
        assert st_a.n is st_a.n
        assert st_a == st_b
        assert hash(st_a) == hash_before == hash(st_b)
        with pytest.raises(FrozenInstanceError):
            st_a.n = half(7)
        with pytest.raises(FrozenInstanceError):
            st_a.q1 = 0

    def test_shell_size_capped(self):
        assert energy_level(N_MAX, P0) == pytest.approx(-0.5 / N_MAX**2)
        for n in (N_MAX + 1, 1e300):
            with pytest.raises(ValueError, match=f"n must satisfy n <= {N_MAX}"):
                enumerate_shell_parabolic(n, 0)
            with pytest.raises(ValueError, match=f"n must satisfy n <= {N_MAX}"):
                enumerate_shell_spherical(n, 0)
            with pytest.raises(ValueError, match=f"n must satisfy n <= {N_MAX}"):
                SphericalState(n=half(n), j=half(0), m=half(0), s=half(0))

    def test_label_invariants_enforced(self):
        with pytest.raises(ValueError, match="j must satisfy"):
            SphericalState(n=half(2), j=half(2), m=half(0), s=half(0))
        with pytest.raises(ValueError, match="m must satisfy"):
            SphericalState(n=half(2), j=half(1), m=half("1/2"), s=half(0))
        with pytest.raises(ValueError, match="m - s"):
            ParabolicState(0, 0, half("1/2"), half(0))
        with pytest.raises(ValueError, match="n1"):
            ParabolicState(-1, 0, half(0), half(0))
        with pytest.raises(ValueError, match=r"^n must satisfy n <= 200 \(got n=301\)$"):
            ParabolicState(300, 0, half(0), half(0))


# The label rules restated on exact rationals: the reference shares no
# arithmetic with the doubled integers the library validates on.
TWICE_LO, TWICE_HI = -2 * N_MAX - 4, 2 * N_MAX + 4
TWICE = st.integers(TWICE_LO, TWICE_HI)


def _moved(twice: int):
    """A doubled label as it is, moved by at most 3/2, or anywhere in the range."""
    clip = lambda t: min(max(t, TWICE_LO), TWICE_HI)  # noqa: E731
    return st.one_of(st.just(twice), st.integers(twice - 3, twice + 3), TWICE).map(clip)


def _steps(count: int):
    """0, 1, ..., count - 1 steps of one unit (none when count < 1)."""
    return st.integers(0, max(count - 1, 0))


def _shell_error(n: Fraction, s: Fraction):
    k = n - abs(s) - 1
    if k.denominator != 1 or k < 0:
        return (
            "n must satisfy n >= |s| + 1 with n - |s| - 1 a non-negative integer "
            f"(got n={n}, s={s})"
        )
    if n > N_MAX:
        return f"n must satisfy n <= {N_MAX} (got n={float(n):g})"
    return None


def _spherical_error(n: Fraction, j: Fraction, m: Fraction, s: Fraction):
    if (error := _shell_error(n, s)) is not None:
        return error
    if not abs(s) <= j <= n - 1 or (j - abs(s)).denominator != 1:
        return f"j must satisfy |s| <= j <= n - 1 with j - |s| an integer (got j={j}, n={n}, s={s})"
    if not -j <= m <= j or (j - m).denominator != 1:
        return f"m must satisfy -j <= m <= j with j - m an integer (got m={m}, j={j})"
    return None


def _parabolic_error(n1: int, n2: int, m: Fraction, s: Fraction):
    for name, value in (("n1", n1), ("n2", n2)):
        if value < 0:
            return f"{name} must be a non-negative integer, got {value!r}"
    if (m - s).denominator != 1:
        return f"m - s and m + s must be integers (got m={m}, s={s})"
    n = n1 + n2 + (abs(m - s) + abs(m + s)) / 2 + 1
    if n > N_MAX:
        return f"n must satisfy n <= {N_MAX} (got n={float(n):g})"
    return None


def _accepts_exactly(build, error):
    """``build()`` succeeds when the reference finds no error, else raises its message."""
    if error is None:
        return build()
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == error
    return None


def _fr(label) -> Fraction:
    return Fraction(str(label))


@st.composite
def _shell_labels(draw):
    """(n2, s2) near a valid shell: a shell rule is broken only by the moves."""
    s2 = draw(st.one_of(st.integers(-8, 8), TWICE))
    n2 = abs(s2) + 2 + 2 * draw(_steps(N_MAX))
    return draw(_moved(n2)), s2


@st.composite
def _spherical_labels(draw):
    n2, s2 = draw(_shell_labels())
    j2 = draw(_moved(abs(s2) + 2 * draw(_steps((n2 - abs(s2)) // 2))))
    m2 = draw(_moved(-j2 + 2 * draw(_steps(j2 + 1))))
    return n2, j2, m2, s2


class TestLabelRules:
    @given(_shell_labels())
    @example((4, 0))  # accepted
    @example((3, 0))  # n - |s| - 1 a half-integer
    @example((2, 2))  # n < |s| + 1
    @example((-4, 0))
    @example((2 * N_MAX + 2, 0))  # n > N_MAX
    @example((2 * N_MAX + 1, 1))
    @settings(max_examples=60, deadline=None)
    def test_shell_rule(self, labels):
        n2, s2 = labels
        _accepts_exactly(
            lambda: states._shell(HalfInteger(n2), HalfInteger(s2)),
            _shell_error(Fraction(n2, 2), Fraction(s2, 2)),
        )

    # every entry point that takes (n, s) with params, each through the one gate
    SHELL_ENTRIES = {
        "shift_columns": lambda n, s, params: stark.shift_columns(n, s, FieldConfig(1.0), params),
        "shell_splitting": lambda n, s, params: stark.shell_splitting(n, s, FieldConfig(1.0), params),
        "shifts_table": lambda n, s, params: tables.shifts_table(n, s, FieldConfig(1.0), params),
        "spectrum_table": tables.spectrum_table,
        "build_subspace": lambda n, s, params: oracle.build_subspace(n, s, 0, FieldConfig(1.0), params),
        "shell_sectors": lambda n, s, params: oracle.shell_sectors(n, s, FieldConfig(1.0), params),
    }

    @pytest.mark.parametrize("entry", SHELL_ENTRIES.values(), ids=SHELL_ENTRIES)
    @pytest.mark.parametrize("n, s", [(3, 1), (half("5/2"), half("1/2")), (0, 1), (201, 1)])
    def test_s_of_the_params_first(self, entry, n, s):
        # s is checked against the params before (n, s) against the shell rules
        with pytest.raises(ValueError, match=f"^s={half(s)} disagrees with params.s=0$"):
            entry(n, s, PhysicalParams.atomic(0))

    @given(_spherical_labels())
    @example((4, 2, 0, 0))  # accepted
    @example((5, 1, -1, -1))  # accepted, half-integer s
    @example((3, 0, 0, 0))  # shell rule first
    @example((4, 4, 0, 0))  # j > n - 1
    @example((6, 0, 0, 2))  # j < |s|
    @example((5, 2, 0, 1))  # j - |s| a half-integer
    @example((4, 2, 4, 0))  # m > j
    @example((4, 2, -4, 0))  # m < -j
    @example((4, 2, 1, 0))  # j - m a half-integer
    @example((2 * N_MAX, 2 * N_MAX - 2, -2 * N_MAX + 2, 0))  # the largest shell
    @settings(max_examples=60, deadline=None)
    def test_spherical_rules(self, labels):
        state = _accepts_exactly(
            lambda: SphericalState(*map(HalfInteger, labels)),
            _spherical_error(*(Fraction(t, 2) for t in labels)),
        )
        if state is not None:
            assert [_fr(state.n), _fr(state.j), _fr(state.m), _fr(state.s)] == [
                Fraction(t, 2) for t in labels
            ]

    def test_spherical_rules_on_a_box_of_small_labels(self):
        for n2, j2, m2, s2 in itertools.product(range(-1, 8), range(-3, 6), range(-5, 6), range(-2, 3)):
            _accepts_exactly(
                lambda: SphericalState(HalfInteger(n2), HalfInteger(j2), HalfInteger(m2), HalfInteger(s2)),
                _spherical_error(Fraction(n2, 2), Fraction(j2, 2), Fraction(m2, 2), Fraction(s2, 2)),
            )

    @given(st.integers(-3, N_MAX), st.integers(-3, N_MAX), TWICE, TWICE)
    @example(2, 1, 1, -3)  # accepted
    @example(0, 0, 1, 0)  # m - s a half-integer
    @example(-1, 0, 0, 0)
    @example(0, -1, 0, 0)
    @example(N_MAX - 1, 0, 0, 0)  # n = N_MAX, accepted
    @example(N_MAX, 0, 0, 0)  # n > N_MAX
    @example(0, 0, 2 * N_MAX - 1, -1)  # n = N_MAX + 1/2
    @settings(max_examples=60, deadline=None)
    def test_parabolic_rules_and_derived_labels(self, n1, n2, m2, s2):
        m, s = Fraction(m2, 2), Fraction(s2, 2)
        state = _accepts_exactly(
            lambda: ParabolicState(n1, n2, HalfInteger(m2), HalfInteger(s2)),
            _parabolic_error(n1, n2, m, s),
        )
        if state is not None:
            assert (state.q1, state.q2) == (m - s, m + s)
            assert _fr(state.n) == n1 + n2 + (abs(m - s) + abs(m + s)) / 2 + 1

    @pytest.mark.parametrize("n, s", [("7", "0"), ("13/2", "3/2"), ("9", "-2")])
    def test_enumerated_derived_labels(self, n, s):
        shell = enumerate_shell_parabolic(half(n), half(s))
        assert len(shell) == Fraction(n) ** 2 - Fraction(s) ** 2
        for state in shell:
            m = _fr(state.m)
            assert _fr(state.s) == Fraction(s)
            assert (state.q1, state.q2) == (m - Fraction(s), m + Fraction(s))
            assert _fr(state.n) == Fraction(n)
            assert _fr(state.n) == state.n1 + state.n2 + (abs(state.q1) + abs(state.q2)) / Fraction(2) + 1

    @pytest.mark.parametrize(
        "labels, error, rule",
        [
            ((True, 0, 0, 0), ValueError, "n1 must be a non-negative integer, got True"),
            ((0, True, 0, 0), ValueError, "n2 must be a non-negative integer, got True"),
            ((0, np.True_, 0, 0), ValueError, "n2 must be a non-negative integer, got np.True_"),
            ((0, 0, True, 0), TypeError, "cannot interpret True as a half-integer"),
            ((0, 0, 0, True), TypeError, "cannot interpret True as a half-integer"),
        ],
    )
    def test_bool_labels_refused_by_their_rules(self, labels, error, rule):
        # ParabolicState(True, 0, 0, 0) used to be the state (1, 0, 0)
        with pytest.raises(error, match=f"^{re.escape(rule)}$"):
            ParabolicState(*labels)

    def test_identity_sees_only_the_four_fields(self):
        state = ParabolicState(2, 1, half("1/2"), half("-3/2"))
        assert [f.name for f in dataclasses.fields(state)] == ["n1", "n2", "m", "s"]
        assert dataclasses.asdict(state) == {"n1": 2, "n2": 1, "m": {"twice": 1}, "s": {"twice": -3}}
        assert repr(state) == "ParabolicState(n1=2, n2=1, m=HalfInteger(1), s=HalfInteger(-3))"
        # derived labels that differ change neither equality nor the hash
        other = ParabolicState(2, 1, half("1/2"), half("-3/2"))
        object.__setattr__(other, "q1", 99)
        assert other == state
        assert hash(other) == hash(state) == hash((2, 1, half("1/2"), half("-3/2")))
        assert state != ParabolicState(2, 1, half("1/2"), half("3/2"))
        copied = pickle.loads(pickle.dumps(state))
        assert copied == state and hash(copied) == hash(state)
        assert (copied.q1, copied.q2, copied.n) == (2, -1, half("11/2"))
        with pytest.raises(FrozenInstanceError):
            copied.n = half(7)


class TestBetaEigenvalue:
    def test_symmetric_state_vanishes(self):
        assert beta_eigenvalue(ParabolicState(1, 1, 0, 0), P0) == 0.0

    def test_hydrogen_n2(self):
        assert beta_eigenvalue(ParabolicState(1, 0, 0, 0), P0) == pytest.approx(0.5, rel=1e-14)

    def test_mirror_antisymmetry(self):
        for s_raw, params in ((0, P0), (1, P1), (half("1/2"), PHALF)):
            s = half(s_raw)
            n = abs(s) + 3
            for state in enumerate_shell_parabolic(n, s):
                mirror = ParabolicState(state.n2, state.n1, -state.m, state.s)
                assert beta_eigenvalue(mirror, params) == pytest.approx(
                    -beta_eigenvalue(state, params), abs=1e-15
                )


class TestRadial:
    def test_hydrogen_1s_constant(self):
        # R_10 = 2 a^{-3/2} e^{-r/a}, checked at a != 1 as well
        for params in (P0, PhysicalParams.atomic(0, gamma_c=0.5)):
            a = params.a
            r = np.linspace(0.0, 6.0 * a, 13)
            want = 2.0 * a**-1.5 * np.exp(-r / a)
            assert np.allclose(radial_R(1, 0, r, params), want, rtol=1e-13)

    def test_vanishes_at_origin_for_positive_j(self):
        assert radial_R(2, 1, 0.0, P0) == 0.0
        assert radial_R(half("5/2"), half("3/2"), 0.0, PHALF) == 0.0

    def test_node_of_2s_at_two_bohr(self):
        params = PhysicalParams.atomic(0, gamma_c=2.0)  # a = 0.5
        a = params.a
        assert radial_R(2, 0, 2.0 * a, params) == pytest.approx(0.0, abs=1e-14)
        assert radial_R(2, 0, 1.9 * a, params) != pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize(
        "n_raw,j_raw,params",
        [
            (1, 0, P0),
            (2, 1, P0),
            (4, 2, P0),
            ("3/2", "1/2", PHALF),
            ("7/2", "3/2", PHALF),
            (3, 1, P1),
        ],
    )
    def test_unit_norm(self, n_raw, j_raw, params):
        n, j = half(n_raw), half(j_raw)
        rule = gauss_laguerre(64)

        def f(r):
            return radial_R(n, j, r, params) ** 2 * r**2

        got = integrate_halfline(f, rule, scale=params.a * n.value / 2.0)
        assert got == pytest.approx(1.0, rel=1e-11)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            radial_R(2, 2, 1.0, P0)
        with pytest.raises(ValueError):
            radial_R(2, half("1/2"), 1.0, P0)

    @pytest.mark.parametrize("n, j", [(True, 0), (2, True), (2, np.True_)])
    def test_bool_levels_refused(self, n, j):
        # radial_R(2, True) used to be radial_R(2, 1)
        with pytest.raises(TypeError, match=r"^cannot interpret (np\.)?True_? as a half-integer$"):
            radial_R(n, j, 1.0, P0)


class TestPhiFactor:
    def test_unit_at_origin_for_q0(self):
        assert phi_pq(0, 0, 0.0, 1, P0) == 1.0

    def test_vanishes_at_origin_for_q_nonzero(self):
        assert phi_pq(1, 1, 0.0, 3, P0) == 0.0
        assert phi_pq(0, -2, 0.0, 2, P0) == 0.0

    @pytest.mark.parametrize("n", [half("3/2"), half("21/2"), half("399/2"), half(200)])
    @pytest.mark.parametrize("q", [0, 1, -1, 7, -7, 150])
    def test_table_rows_are_the_single_degree_calls(self, q, n):
        # the nodes of a sector's rule at this level, and the origin
        nf = n.value
        x = np.concatenate([[0.0], nf * gauss_laguerre(120).nodes])
        table = phi_table(60, q, x, n, P0)
        assert table.shape == (61, x.size)
        for p in range(61):
            assert table[p].tobytes() == phi_pq(p, q, x, n, P0).tobytes()
        scalar = phi_table(60, q, 3.7 * nf, n, P0)
        assert scalar.tobytes() == np.array([phi_pq(p, q, 3.7 * nf, n, P0) for p in range(61)]).tobytes()
        # the table depends on |q| alone, so c02 evaluates each |q| once
        assert phi_table(60, -q, x, n, P0).tobytes() == table.tobytes()

    @pytest.mark.parametrize(
        "kernel", [phi_pq, phi_table, lambda p, q, x, n, params: phi_grams(p, q, n, params, (0, 2))]
    )
    @pytest.mark.parametrize(
        "p, q, n, rule",
        [
            (-1, 0, 2, "p must be a non-negative integer, got -1"),
            (1.5, 0, 2, "p must be a non-negative integer, got 1.5"),
            (True, 0, 2, "p must be a non-negative integer, got True"),
            (0, True, 2, "q must be an integer, got True"),
            (0, 1.5, 2, "q must be an integer, got 1.5"),
            (0, -0.5, 2, "q must be an integer, got -0.5"),
            (0, math.nan, 2, "q must be an integer, got nan"),
            (1, 1, 0.0, "n must be positive, got 0.0"),
            (1, 1, -2, "n must be positive, got -2"),
            (1, 1, math.nan, "n must be finite, got nan"),
            (1, 1, math.inf, "n must be finite, got inf"),
            # integral_I and integral_II take label arrays; a Phi does not
            (np.array([1]), 0, 2, f"p must be {ONE_LABEL} (1,)"),
            (np.array([0, 1, 2]), 0, 2, f"p must be {ONE_LABEL} (3,)"),
            (np.array(1), 0, 2, f"p must be {ONE_LABEL} ()"),
            (1, np.array([0]), 2, f"q must be {ONE_LABEL} (1,)"),
            (1, np.array([[0, -1], [2, 3]]), 2, f"q must be {ONE_LABEL} (2, 2)"),
        ],
    )
    def test_one_validation_for_both_forms(self, kernel, p, q, n, rule):
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            kernel(p, q, 1.0, n, P0)

    def test_norm_integral_is_a_times_n(self):
        # closed form: integral Phi_pq^2 dx = a n, spot-checked at n = 3
        got = phi_pair_moment(1, 1, 1, 0, 3.0, 3.0, P0, order=40)
        assert got == pytest.approx(3.0 * P0.a, rel=1e-12)

    def test_orthogonality_in_p(self):
        got = phi_pair_moment(0, 2, 1, 0, 3.0, 3.0, P0, order=40)
        assert got == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("power", [-1, 1.5, 2.0, True, "2", None])
    def test_power_is_a_non_negative_integer(self, power):
        # power -1 used to give 0.0 for an integral that diverges at 0, and
        # 1.5 an error that named the quadrature order
        with pytest.raises(ValueError, match=f"^power must be a non-negative integer, got {re.escape(repr(power))}$"):
            phi_pair_moment(1, 1, 1, power, 3.0, 3.0, P0)

    def test_numpy_integer_power(self):
        for power in (0, 1, 2):
            want = phi_pair_moment(2, 1, 1, power, 3.0, 2.5, P0)
            assert phi_pair_moment(2, 1, 1, np.int64(power), 3.0, 2.5, P0).hex() == want.hex()

    @pytest.mark.parametrize("power", [0, 2])
    @pytest.mark.parametrize("q", [0, -7, 60, 149])
    @pytest.mark.parametrize("p", [0, 3, 10])
    def test_default_order_reproduces_closed_forms(self, p, q, power):
        # the order derived from the degree alone must already be exact
        n = float(p + abs(q) + 1)
        closed = integral_I if power == 0 else integral_II
        got = phi_pair_moment(p, p, q, power, n, n, P0)
        assert got == pytest.approx(closed(p, q, n, P0), rel=1e-12)

    @pytest.mark.parametrize("p_max, n, q", [(60, 61, 0), (60, 200, 20), (120, 200, 5), (199, 200, 0)])
    def test_gram_matrices_are_the_laguerre_jacobi_powers(self, p_max, n, q):
        # past c02's p <= 10, n <= 12: on the exact-order rule of the x^2
        # moment, the Gram matrices of 1, x and x^2 are a n 1, (a n)^2 J and
        # (a n)^3 J^2, with J the Jacobi matrix of the orthonormal Laguerre
        # functions; J^2 comes from a J one row larger
        scale = P0.a * n
        p = np.arange(p_max + 2.0)
        off = -np.sqrt((p[:-1] + 1.0) * (p[:-1] + abs(q) + 1.0))
        jac = np.diag(2.0 * p + abs(q) + 1.0) + np.diag(off, 1) + np.diag(off, -1)
        wants = (np.eye(p_max + 1), jac[:-1, :-1], (jac @ jac)[:-1, :-1])
        for k, (gram, want) in enumerate(zip(phi_grams(p_max, q, n, P0, (0, 1, 2)), wants)):
            want = scale ** (k + 1) * want
            assert np.max(np.abs(gram - want)) <= 1e-11 * np.max(np.abs(want)), k


# sha256 over the .hex() of phi_pair_moment on c02's labels, at an explicit
# order (as matrix_element_V passes its quad_order) and at the default one
# (as c02 calls it), recorded when each moment still evaluated both of its
# factors; reusing one equal factor keeps every bit
C02_MOMENT_DIGESTS = {
    "explicit": "aa5cdb2efdbf55441ef3913a2048786f9a51558f1ffd8e78aac4aabc9f3528b7",
    "default": "43aea4eb90b79b887de8037aaaaaf3156f845f3fe31152a26021a12ad4f1b799",
}


@pytest.mark.parametrize("kind", list(C02_MOMENT_DIGESTS))
def test_c02_moment_bits_are_pinned(kind):
    values = [
        phi_pair_moment(p, p, q, power, n, n, P0, 2 * p + abs(q) + 22 if kind == "explicit" else None)
        for n in [float(k) for k in range(1, 13)] + [1.5, 3.5, 5.5]
        for p in range(0, 11)
        for q in list(range(0, 11)) + [-1, -4, -10]
        for power in (0, 2)
    ]
    digest = hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()
    assert digest == C02_MOMENT_DIGESTS[kind]


def _textbook_hydrogen_radial(n, l, r):
    if (n, l) == (1, 0):
        return 2.0 * np.exp(-r)
    if (n, l) == (2, 0):
        return (1.0 / math.sqrt(2.0)) * (1.0 - r / 2.0) * np.exp(-r / 2.0)
    if (n, l) == (2, 1):
        return (1.0 / math.sqrt(24.0)) * r * np.exp(-r / 2.0)
    if (n, l) == (3, 0):
        return (2.0 / math.sqrt(27.0)) * (1.0 - 2.0 * r / 3.0 + 2.0 * r**2 / 27.0) * np.exp(-r / 3.0)
    if (n, l) == (3, 1):
        return (8.0 / (27.0 * math.sqrt(6.0))) * r * (1.0 - r / 6.0) * np.exp(-r / 3.0)
    if (n, l) == (3, 2):
        return (4.0 / (81.0 * math.sqrt(30.0))) * r**2 * np.exp(-r / 3.0)
    raise KeyError((n, l))


class TestSphericalPsi:
    def test_phase_only_phi_dependence(self):
        state = SphericalState(n=half(3), j=half(2), m=half(1), s=half(0))
        r, th = 1.3, 0.8
        vals = [abs(spherical_psi(state, r, th, phi, P0)) for phi in (0.0, 1.1, 4.0)]
        assert max(vals) - min(vals) <= 1e-15

    def test_ground_state_real_and_isotropic(self):
        state = SphericalState(n=half(1), j=half(0), m=half(0), s=half(0))
        vals = [spherical_psi(state, 1.0, th, ph, P0) for th in (0.1, 1.2) for ph in (0.0, 2.2)]
        assert all(abs(v.imag) < 1e-16 for v in vals)
        assert max(abs(v - vals[0]) for v in vals) <= 1e-15

    def test_unit_norm_monopole_state(self):
        state = SphericalState(n=half(2), j=half(1), m=half(0), s=half(1))
        assert spherical_overlap(state, state, P1) == pytest.approx(1.0, abs=1e-10)

    def test_hydrogen_reduction_pointwise(self):
        # at s = 0 the wavefunctions are textbook hydrogen: R_nl * Y_lm
        r = np.array([0.4, 1.0, 2.5, 6.0])
        th = np.array([0.3, 1.1, 2.0, 2.8])
        ph = np.array([0.0, 0.9, 3.3, 5.1])
        for n in (1, 2, 3):
            for l in range(n):
                for m in range(-l, l + 1):
                    state = SphericalState(n=half(n), j=half(l), m=half(m), s=half(0))
                    got = spherical_psi(state, r, th, ph, P0)
                    want = _textbook_hydrogen_radial(n, l, r) * sph_harm_y(l, m, th, ph)
                    assert np.allclose(got, want, rtol=1e-10, atol=1e-13)

    def test_orthonormality_sample(self):
        shell2 = enumerate_shell_spherical(2, 0)
        shell3 = enumerate_shell_spherical(3, 0)
        for a in shell2 + shell3:
            for b in shell2 + shell3:
                if a.m != b.m:
                    continue
                want = 1.0 if a == b else 0.0
                assert spherical_overlap(a, b, P0) == pytest.approx(want, abs=1e-10)

    def test_gauge_string_value_finite(self):
        state = SphericalState(n=half(2), j=half(1), m=half(0), s=half(1))
        val = spherical_psi(state, 1.0, math.pi, 0.0, P1)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    @pytest.mark.parametrize("n, j, s", [("79/2", "37/2", "1/2"), ("95", "94", "0")])
    def test_j_above_the_d_function_domain_refused_before_any_rule(self, monkeypatch, n, j, s):
        def refuse(order):
            raise AssertionError("a quadrature rule was built")

        monkeypatch.setattr(states, "gauss_legendre", refuse)
        monkeypatch.setattr(states, "gauss_laguerre", refuse)
        state = SphericalState(n=half(n), j=half(j), m=half(s), s=half(s))  # the label itself is valid
        params = PhysicalParams.atomic(half(s))
        message = rf"^j must satisfy j <= 18, .* \(got j={j}\)$"
        for evaluate in (
            lambda: spherical_psi(state, 1.0, 0.3, 0.0, params),
            lambda: psi_grid(state, [1.0], [0.3], 0.0, params),
            lambda: spherical_overlap(state, state, params),
            lambda: _angular_norm(state.j.twice, state.m.twice, state.s.twice),
        ):
            with pytest.raises(ValueError, match=message):
                evaluate()

    def test_angular_norm_matches_monopole_harmonic(self):
        # Wu & Yang: the monopole harmonic constant is sqrt((2j+1)/(4 pi))
        for j2 in range(13):
            want = math.sqrt((j2 + 1) / (4.0 * math.pi))
            for m2 in range(-j2, j2 + 1, 2):
                for s2 in range(-j2, j2 + 1, 2):
                    assert _angular_norm(j2, m2, s2) == pytest.approx(want, rel=1e-13)


RESIDUAL_CASES = [
    (ParabolicState(1, 0, 0, 0), P0),
    (ParabolicState(0, 2, 0, 0), P0),
    (ParabolicState(0, 0, half("3/2"), half("1/2")), PHALF),
    (ParabolicState(1, 0, half("-1/2"), half("1/2")), PHALF),
    (ParabolicState(0, 0, -1, 1), P1),
    (ParabolicState(1, 1, 0, 1), P1),
]


def _product_residual(state, params):
    """max |(xi + eta)(H - E) f1 f2| / (|E| (xi + eta) |f1 f2|) on the 2-D grid.

    The same axis, stencils, margin and cut as the library's separated
    check, applied to the product: support |f1 f2| >= 0.05 max|f1| max|f2|.
    """
    _, f1, f2, _ = states._product_form(state, params)
    an = params.a * state.n.value
    h = 12.0 * an / 700
    z = h * np.arange(1, 701)
    x = z[2:-2]
    keep = x >= an
    k = 0.5  # hbar^2 / (2 mu) in atomic units
    e0 = energy_level(state.n, params)

    def factor(f, q):
        d1 = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
        d2 = (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2] + 16.0 * f[1:-3] - f[:-4]) / (12.0 * h * h)
        hf = -4.0 * k * (x * d2 + d1) + (k * q * q / x - params.gamma_c - e0 * x) * f[2:-2]
        return f[2:-2][keep], hf[keep]

    g1, g2 = f1(z), f2(z)
    (v1, h1), (v2, h2) = factor(g1, state.q1), factor(g2, state.q2)
    u = np.abs(np.outer(v1, v2))
    support = u >= 0.05 * np.max(np.abs(g1)) * np.max(np.abs(g2))
    num = np.abs(np.outer(h1, v2) + np.outer(v1, h2))
    den = abs(e0) * np.add.outer(x[keep], x[keep]) * u
    return float(np.max(num[support] / den[support]))


class TestParabolicPsi:
    def test_hydrogen_ground_unit_norm(self):
        state = ParabolicState(0, 0, 0, 0)
        assert parabolic_overlap(state, state, P0) == pytest.approx(1.0, abs=1e-10)

    def test_m_sectors_orthogonal(self):
        a = ParabolicState(0, 0, 1, 0)
        b = ParabolicState(0, 1, 0, 0)
        assert parabolic_overlap(a, b, P0) == 0.0

    def test_same_sector_orthogonality(self):
        a = ParabolicState(1, 0, 0, 0)
        b = ParabolicState(0, 1, 0, 0)
        assert parabolic_overlap(a, b, P0) == pytest.approx(0.0, abs=1e-10)
        c = ParabolicState(2, 0, 0, 0)  # different shell, same m
        assert parabolic_overlap(a, c, P0) == pytest.approx(0.0, abs=1e-10)

    def test_orthonormality_per_sector(self):
        states = []
        for n in (half("3/2"), half("5/2"), half("7/2")):
            states.extend(enumerate_shell_parabolic(n, half("1/2")))
        for a in states:
            for b in states:
                if a.m != b.m:
                    continue
                want = 1.0 if a == b else 0.0
                assert parabolic_overlap(a, b, PHALF) == pytest.approx(want, abs=1e-9)

    def test_ground_state_closed_form(self):
        # n = |s|+1 parabolic states match const r^{|s|} e^{-r/(a n)}
        # (cos th/2)^{|s|+-m'} (+-sin th/2)^{|s|-+m'} pointwise at fixed phi.
        # The azimuthal labels of the two printed bases are gauge-string
        # mirrored: the parabolic state m sits at m' = -m of the ground
        # multiplet (its eta-axis exponent is |m+s|, not |m-s|).
        for s_raw in (half("1/2"), half(1), half("-1/2"), half(2)):
            s = half(s_raw)
            params = PhysicalParams.atomic(s)
            n0 = abs(s) + 1
            for state in enumerate_shell_parabolic(n0, s):
                mp = -state.m
                xi = np.linspace(0.4, 5.0, 7)
                eta = np.linspace(0.3, 4.0, 7)
                ratios = []
                for x in xi:
                    for e in eta:
                        pt = ParabolicPoint(x, e, 0.9)
                        r = (x + e) / 2.0
                        cos_half = math.sqrt(x / (2.0 * r))
                        sin_half = math.sqrt(e / (2.0 * r))
                        if s.twice > 0:
                            ref = (
                                cos_half ** float((abs(s) + mp).value)
                                * sin_half ** float((abs(s) - mp).value)
                            )
                        else:
                            ref = (
                                cos_half ** float((abs(s) - mp).value)
                                * (-sin_half) ** float((abs(s) + mp).value)
                            )
                        ref *= r ** abs(s).value * math.exp(-r / (params.a * n0.value))
                        ratios.append(parabolic_psi(state, pt, params) / ref)
                ratios = np.array(ratios)
                assert np.max(np.abs(ratios / ratios[0] - 1.0)) <= 1e-10

    def test_schroedinger_residual(self):
        for state, params in RESIDUAL_CASES:
            assert parabolic_hamiltonian_residual(state, params) <= 1e-6

    @pytest.mark.parametrize("wrong", ["energy", "factor"])
    def test_schroedinger_residual_sees_a_non_eigenfunction(self, monkeypatch, wrong):
        # the energy of the next shell, or an xi factor one node too many
        state = ParabolicState(1, 0, half("-1/2"), half("1/2"))
        if wrong == "energy":
            level = states.energy_level
            monkeypatch.setattr(states, "energy_level", lambda n, params: level(n + 1, params))
        else:
            product_form = states._product_form

            def one_more_node(st, params):
                const, _, f2, phase = product_form(st, params)
                return const, lambda xi: phi_pq(st.n1 + 1, st.q1, xi, st.n.value, params), f2, phase

            monkeypatch.setattr(states, "_product_form", one_more_node)
        assert parabolic_hamiltonian_residual(state, PHALF) >= 1e-2

    def test_schroedinger_residual_sees_a_wrong_separation_constant(self, monkeypatch):
        # X = 1 on this state, so a negated beta is a different constant
        beta = states.beta_eigenvalue
        monkeypatch.setattr(states, "beta_eigenvalue", lambda st, params: -beta(st, params))
        assert parabolic_hamiltonian_residual(ParabolicState(1, 0, 0, 0), P0) >= 1e-2

    def test_schroedinger_residual_bounds_the_product_residual(self):
        for state, params in RESIDUAL_CASES:
            assert parabolic_hamiltonian_residual(state, params) >= _product_residual(state, params)

    @pytest.mark.parametrize(
        "state", [ParabolicState(1, 0, 0, 0), ParabolicState(1, 0, half("-1/2"), half("1/2"))]
    )
    def test_schroedinger_residual_at_generic_units(self, state):
        # gamma differs from 1, so the separation constant beta is told apart
        # from gamma beta or beta / gamma; both states have X != 0, so beta
        # itself is nonzero
        params = PhysicalParams(gamma_c=2.3, s=state.s)
        assert beta_eigenvalue(state, params) != 0.0
        r = parabolic_hamiltonian_residual(state, params)
        assert r <= 1e-6
        assert r >= _product_residual(state, params)

    def test_schroedinger_residual_allocates_no_grid(self):
        tracemalloc.start()
        try:
            parabolic_hamiltonian_residual(*RESIDUAL_CASES[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_state_params_mismatch_raises(self):
        with pytest.raises(ValueError, match="^s=0 disagrees with params.s=1$"):
            parabolic_psi(ParabolicState(0, 0, 0, 0), ParabolicPoint(1.0, 1.0), P1)


def _bits(z) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


class TestPsiGrid:
    """The grid evaluator against the scalar wavefunctions, bit for bit."""

    PARABOLIC = [
        (ParabolicState(1, 2, 1, 0), P0),
        (ParabolicState(0, 1, -1, 1), P1),
        (ParabolicState(1, 0, half("-3/2"), half("1/2")), PHALF),
    ]
    SPHERICAL = [
        (SphericalState(n=3, j=2, m=-1, s=0), P0),
        (SphericalState(n=4, j=2, m=1, s=1), P1),
        (SphericalState(n=half("7/2"), j=half("3/2"), m=half("1/2"), s=half("1/2")), PHALF),
    ]
    # the 25 x 25 grid holds points where the array-evaluated kernels round
    # differently from the scalar ones
    AXES = [([1.3], [0.7]), ([0.0, 2.5], [0.0, 1.1, 6.0]), (np.linspace(0.0, 16.0, 25), np.linspace(0.0, 16.0, 25))]

    @pytest.mark.parametrize("phi", [0.5, 7.0])
    @pytest.mark.parametrize("c1, c2", AXES)
    @pytest.mark.parametrize("state, params", PARABOLIC)
    def test_parabolic(self, state, params, c1, c2, phi):
        grid = psi_grid(state, c1, c2, phi, params)
        assert grid.shape == (len(c1), len(c2))
        nf = state.n.value
        for i, xi in enumerate(c1):
            for k, eta in enumerate(c2):
                scalar = parabolic_psi(state, ParabolicPoint(xi, eta, phi), params)
                assert _bits(grid[i, k]) == _bits(scalar)
                # the per-point formula the grid replaced
                loop = (
                    math.sqrt(2.0) / (nf**2 * params.a**1.5)
                    * phi_pq(state.n1, state.q1, xi, nf, params)
                    * phi_pq(state.n2, state.q2, eta, nf, params)
                    * (cmath.exp(1j * state.m.value * (phi % (2.0 * math.pi))) / math.sqrt(2.0 * math.pi))
                )
                assert _bits(scalar) == _bits(loop)

    @pytest.mark.parametrize("phi", [0.5, 7.0])
    @pytest.mark.parametrize("c1, c2", AXES)
    @pytest.mark.parametrize("state, params", SPHERICAL)
    def test_spherical(self, state, params, c1, c2, phi):
        c2 = [t * math.pi / 16.0 for t in c2]  # theta in [0, pi]
        grid = psi_grid(state, c1, c2, phi, params)
        assert grid.shape == (len(c1), len(c2))
        for i, r in enumerate(c1):
            for k, theta in enumerate(c2):
                assert _bits(grid[i, k]) == _bits(spherical_psi(state, r, theta, phi, params))

    def test_spherical_phi_is_not_reduced(self):
        state, params = self.SPHERICAL[1]
        reduced = psi_grid(state, [1.0], [1.0], 7.0 - 2.0 * math.pi, params)[0, 0]
        assert psi_grid(state, [1.0], [1.0], 7.0, params)[0, 0] == spherical_psi(state, 1.0, 1.0, 7.0, params)
        assert psi_grid(state, [1.0], [1.0], 7.0, params)[0, 0] == pytest.approx(reduced, rel=1e-14)

    def test_state_params_mismatch_raises(self):
        with pytest.raises(ValueError, match="^s=0 disagrees with params.s=1$"):
            psi_grid(ParabolicState(0, 0, 0, 0), [1.0], [1.0], 0.0, P1)

    @pytest.mark.parametrize("phi", [0.0, 0.5, -1e-20])
    def test_parabolic_psi_is_the_one_by_one_grid(self, phi):
        # -1e-20 reduces to 2 pi as a float, and the grid reduces that to 0:
        # psi's phase at a point whose azimuth rounds to 2 pi is the one at 0
        state, params = self.PARABOLIC[0]
        point = ParabolicPoint(1.3, 0.7, phi)
        scalar = parabolic_psi(state, point, params)
        assert type(scalar) is complex
        assert _bits(scalar) == _bits(psi_grid(state, [1.3], [0.7], point.phi, params)[0, 0])
        if phi < 0:
            assert point.phi == 2.0 * math.pi
            assert _bits(scalar) == _bits(parabolic_psi(state, ParabolicPoint(1.3, 0.7, 0.0), params))

    @pytest.mark.parametrize("state, params", PARABOLIC[:1] + SPHERICAL[:1])
    def test_grids_run_the_recurrence_c02_checks(self, monkeypatch, state, params):
        # the 1F1 of every grid value comes from specfun._laguerre, one call
        # per axis value on a Python float
        laguerre, xs = specfun._laguerre, []
        monkeypatch.setattr(specfun, "_laguerre", lambda p, b, x: xs.append(x) or laguerre(p, b, x))
        psi_grid(state, [0.5, 1.5, 2.5], [0.25, 0.75], 0.0, params)
        assert len(xs) == (5 if isinstance(state, ParabolicState) else 3)
        assert all(type(x) is float for x in xs)


class TestCoordinates:
    def test_equal_xi_eta_is_equator(self):
        assert parabolic_to_cartesian(ParabolicPoint(1.7, 1.7, 0.4))[2] == 0.0

    def test_axis_point(self):
        assert parabolic_to_cartesian(ParabolicPoint(2.0, 0.0, 2.2)) == pytest.approx(
            (0.0, 0.0, 1.0)
        )

    @given(
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(-5, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, x1, x2, x3):
        back = parabolic_to_cartesian(cartesian_to_parabolic(x1, x2, x3))
        scale = max(1e-30, abs(x1), abs(x2), abs(x3))
        assert max(abs(a - b) for a, b in zip(back, (x1, x2, x3))) <= 1e-12 * scale

    def test_volume_element_values(self):
        assert volume_element(0.0, 0.0) == 0.0
        assert volume_element(1.0, 1.0) == 0.5

    def test_volume_element_against_monte_carlo(self):
        # image of {xi, eta <= L} is {r + |x3| <= L}; dV integral = pi L^3 / 2
        leg = gauss_legendre(8)
        t = 0.5 * (leg.nodes + 1.0)  # map to [0, 1]
        w = 0.5 * leg.weights
        quad_vol = 2.0 * math.pi * float(
            np.sum(w[:, None] * w[None, :] * volume_element(t[:, None], t[None, :]))
        )
        rng = np.random.default_rng(99)
        pts = rng.uniform(-1.0, 1.0, size=(200_000, 3))
        r = np.linalg.norm(pts, axis=1)
        inside = r + np.abs(pts[:, 2]) <= 1.0
        mc_vol = 8.0 * float(np.mean(inside))
        sigma = 8.0 * math.sqrt(float(np.mean(inside)) * (1 - float(np.mean(inside))) / len(pts))
        assert quad_vol == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert abs(mc_vol - quad_vol) <= 4.0 * sigma

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            ParabolicPoint(-0.1, 1.0, 0.0)
