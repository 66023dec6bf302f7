"""Physical parameters, quantum numbers and bound-state wavefunctions.

The system is a charge moving in the field of a fixed dyon: a Coulomb
attraction -gamma/r plus a Dirac monopole whose strength enters through
the quantized monopole number s (integer or half-integer).  Shells are
labelled by a principal level n with n - |s| - 1 a non-negative
integer, so n itself is half-integer whenever s is.

Two complete bases are provided: spherical labels (n, j, m) built on
Wigner d-functions, and parabolic labels (n1, n2, m) built on confluent
hypergeometric factors in the coordinates xi = r + x3, eta = r - x3.

Normalization: the parabolic constant is the closed form printed in
``parabolic_psi``.  The spherical angular constant is measured once per
(j, m, s) by Gauss-Legendre quadrature of d^2; it agrees with the
monopole-harmonic value sqrt((2j+1)/(4 pi)) (Wu & Yang 1976) to a few
ulps.  Unit norms of both bases are checked by quadrature in the
verification suite.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import MAX_ORDER, gauss_laguerre, gauss_legendre, integrate_halfline
from .specfun import HalfInteger, _check_wigner_domain, _is_whole, _wigner_rows, half, hyp1f1_poly, hyp1f1_table, ln_factorial, wigner_d

__all__ = [
    "N_MAX",
    "PhysicalParams",
    "SphericalState",
    "ParabolicState",
    "ParabolicPoint",
    "energy_level",
    "spherical_labels",
    "enumerate_shell_spherical",
    "parabolic_labels",
    "enumerate_shell_parabolic",
    "beta_eigenvalue",
    "radial_R",
    "spherical_psi",
    "phi_pq",
    "phi_table",
    "phi_grams",
    "parabolic_psi",
    "psi_grid",
    "parabolic_to_cartesian",
    "cartesian_to_parabolic",
    "volume_element",
    "phi_pair_moment",
    "spherical_overlap",
    "parabolic_overlap",
    "parabolic_hamiltonian_residual",
]

# Largest principal level any shell may have.  A size guard: a shell holds
# n^2 - s^2 labels and every table lists them all.  It is not the domain
# in which the special functions keep double-precision accuracy.  The
# shell's (n1, n2, m) = (n - 1, 0, 0) sector at s = 0 has a xi moment
# x^2 Phi^2 of degree 2n, which an exact Gauss rule takes with n + 1
# nodes, so the rule cap fixes the largest shell at 200.
N_MAX = MAX_ORDER - 1


def _real(name: str, value) -> float:
    """``value`` as a Python float, refused unless it is a real number other than a
    bool (numpy scalars included); an int past the float range becomes inf."""
    # a bool is an int to Python, but True is no coupling and no field
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number other than a bool, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        return math.inf


@dataclass(frozen=True)
class PhysicalParams:
    """Coulomb coupling gamma_c and monopole number s of the charge-dyon pair.

    Units are atomic, hbar = mu = |e| = 1; the length scale a = 1 / gamma_c
    is always derived, never stored.  gamma_c may be any real number but a
    bool (numpy scalars included) and is stored as a Python float.
    """

    gamma_c: float = 1.0
    s: HalfInteger = HalfInteger(0)

    def __post_init__(self):
        gamma_c = _real("gamma_c", self.gamma_c)
        if not (gamma_c > 0 and math.isfinite(gamma_c)):
            raise ValueError(f"gamma_c must be a positive finite number, got {self.gamma_c!r}")
        object.__setattr__(self, "gamma_c", gamma_c)
        # energies go as gamma^2 and wavefunction norms as a^-3/2, so these
        # scales must be representable for any result to be
        try:
            a3 = self.a**3
            in_range = all(0.0 < x < math.inf for x in (self.a, a3, 1.0 / a3, self.gamma_c**2))
        except (OverflowError, ZeroDivisionError):
            in_range = False
        if not in_range:
            raise ValueError(
                "results must be finite, so a = 1 / gamma_c, a^3, a^-3 and gamma_c^2 "
                f"must be finite and nonzero (got gamma_c={self.gamma_c!r})"
            )
        object.__setattr__(self, "s", half(self.s))

    @property
    def a(self) -> float:
        """Bohr radius of the pair."""
        return 1.0 / self.gamma_c

    @classmethod
    def atomic(cls, s=0, gamma_c: float = 1.0) -> "PhysicalParams":
        """Monopole number s with a free coupling (default 1)."""
        return cls(gamma_c=gamma_c, s=half(s))


def _check_s(s: HalfInteger, params: PhysicalParams) -> None:
    """Refuse an s that is not the params': the one s rule of every entry point."""
    if s != params.s:
        raise ValueError(f"s={s} disagrees with params.s={params.s}")


def _shell(n, s, params: PhysicalParams | None = None) -> tuple[HalfInteger, HalfInteger]:
    """(n, s) as half-integers, refused unless s is the params' (if given) and
    n a shell of s up to N_MAX: the one gate of every shell entry point."""
    n, s = half(n), half(s)
    if params is not None:
        _check_s(s, params)
    k2 = n.twice - abs(s.twice) - 2  # 2 (n - |s| - 1)
    if k2 % 2 or k2 < 0:
        raise ValueError(
            f"n must satisfy n >= |s| + 1 with n - |s| - 1 a non-negative integer "
            f"(got n={n}, s={s})"
        )
    if n.twice > 2 * N_MAX:
        raise ValueError(f"n must satisfy n <= {N_MAX} (got n={n.value:g})")
    return n, s


@dataclass(frozen=True)
class SphericalState:
    """Shell label (n, j, m) at monopole number s.

    Ranges: j = |s|, |s|+1, ..., n-1 and m = -j, ..., j, all exact
    half-integer arithmetic.
    """

    n: HalfInteger
    j: HalfInteger
    m: HalfInteger
    s: HalfInteger

    def __post_init__(self):
        for name in ("n", "j", "m", "s"):
            object.__setattr__(self, name, half(getattr(self, name)))
        _shell(self.n, self.s)
        j2, m2, s2 = self.j.twice, self.m.twice, self.s.twice
        if not (abs(s2) <= j2 <= self.n.twice - 2) or (j2 - s2) % 2:
            raise ValueError(
                f"j must satisfy |s| <= j <= n - 1 with j - |s| an integer "
                f"(got j={self.j}, n={self.n}, s={self.s})"
            )
        if not (-j2 <= m2 <= j2) or (j2 - m2) % 2:
            raise ValueError(
                f"m must satisfy -j <= m <= j with j - m an integer "
                f"(got m={self.m}, j={self.j})"
            )


@dataclass(frozen=True)
class ParabolicState:
    """Parabolic label (n1, n2, m) at monopole number s.

    n1 and n2 count nodes of the xi and eta factors.  Three labels are
    derived once, at construction, as plain attributes that equality,
    hashing and ``repr`` do not see:

    - ``q1`` = m - s, the azimuthal index of the xi factor;
    - ``q2`` = m + s, the azimuthal index of the eta factor;
    - ``n`` = n1 + n2 + (|m-s| + |m+s|)/2 + 1, the principal level.
    """

    n1: int
    n2: int
    m: HalfInteger
    s: HalfInteger

    def __post_init__(self):
        n = _label_level(self.n1, self.n2, self.m, self.s)
        if n.twice > 2 * N_MAX:  # n >= |s| + 1 holds by construction: only the cap can fail
            _shell(n, self.s)
        object.__setattr__(self, "n1", int(self.n1))
        object.__setattr__(self, "n2", int(self.n2))
        object.__setattr__(self, "m", half(self.m))
        object.__setattr__(self, "s", half(self.s))
        m2, s2 = self.m.twice, self.s.twice
        object.__setattr__(self, "q1", (m2 - s2) // 2)
        object.__setattr__(self, "q2", (m2 + s2) // 2)
        object.__setattr__(self, "n", n)


def _label_level(n1, n2, m, s) -> HalfInteger:
    """n = n1 + n2 + (|m-s| + |m+s|)/2 + 1 of a valid parabolic label, uncapped."""
    for name, v in (("n1", n1), ("n2", n2)):
        # a bool is an int to Python, but True is no label
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
    m, s = half(m), half(s)
    m2, s2 = m.twice, s.twice
    if (m2 - s2) % 2:
        raise ValueError(f"m - s and m + s must be integers (got m={m}, s={s})")
    return HalfInteger(2 * (int(n1) + int(n2) + 1) + (abs(m2 - s2) + abs(m2 + s2)) // 2)


@dataclass(frozen=True)
class ParabolicPoint:
    """A point (xi, eta, phi), xi = r + x3 and eta = r - x3."""

    xi: float
    eta: float
    phi: float = 0.0

    def __post_init__(self):
        if self.xi < 0 or self.eta < 0:
            raise ValueError(f"xi and eta must be >= 0, got ({self.xi}, {self.eta})")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))


def energy_level(n, params: PhysicalParams) -> float:
    """Unperturbed shell energy -gamma^2 / (2 n^2)."""
    n, _ = _shell(n, params.s)
    nf = n.value
    return -params.gamma_c**2 / (2.0 * nf * nf)


def _runs(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run, position) of every element of consecutive runs of these sizes:
    run i covers ``sizes[i]`` elements, at positions 0, 1, ... within it."""
    run = np.arange(sizes.size).repeat(sizes)
    return run, np.arange(run.size) - (sizes.cumsum() - sizes)[run]


def spherical_labels(n, s) -> tuple[np.ndarray, np.ndarray]:
    """The (2j, 2m) labels of shell n as two int64 arrays, in (2j, 2m)
    order; n^2 - s^2 of them.

    j runs over |s|, |s| + 1, ..., n - 1, and each j holds the 2j + 1
    values m = -j, ..., j: one run per j, laid out by ``_runs`` with no
    Python loop over the labels.
    """
    n, s = _shell(n, s)
    j2 = np.arange(abs(s.twice), n.twice - 1, 2)
    run, pos = _runs(j2 + 1)
    j2 = j2[run]
    return j2, 2 * pos - j2


def enumerate_shell_spherical(n, s) -> list[SphericalState]:
    """All (j, m) states of shell n, in (2j, 2m) order
    (``spherical_labels``)."""
    n, s = half(n), half(s)
    return [
        SphericalState(n=n, j=HalfInteger(j2), m=HalfInteger(m2), s=s)
        for j2, m2 in zip(*(labels.tolist() for labels in spherical_labels(n, s)))
    ]


def parabolic_labels(n, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n1, n2, 2m) labels of shell n as three int64 arrays, in
    (n1, n2, 2m) order.

    The shell is built directly from n = n1 + n2 + max(|m|, |s|) + 1:
    for each n1 and n2 <= n - |s| - 1 - n1, k = n - 1 - n1 - n2 fixes
    |m| = k when k > |s|, and allows every |m| <= |s| with m - s an
    integer when k = |s|.  The cardinality is n^2 - s^2, as for the
    spherical enumeration.  The (n1, n2) pairs are runs, one per n1, and
    the labels of each pair a run again, both laid out by ``_runs`` with
    no Python loop over the labels.
    """
    n, s = _shell(n, s)
    n_r = (n - abs(s) - 1).as_int()
    s_abs2 = abs(s.twice)
    # the (n1, n2) pairs: n1 = 0..n_r, then n2 = 0..n_r - n1
    n1, n2 = _runs(np.arange(n_r + 1, 0, -1))
    k2 = n.twice - 2 * (1 + n1 + n2)
    # m runs from -k: to k in one step of 2k where k > |s|, and in 2|s|
    # steps of 1 where k = |s|
    two = k2 > s_abs2
    pair, pos = _runs(np.where(two, 2, s_abs2 + 1))
    return n1[pair], n2[pair], pos * np.where(two, 2 * k2, 2)[pair] - k2[pair]


def enumerate_shell_parabolic(n, s) -> list[ParabolicState]:
    """All (n1, n2, m) states of shell n, in (n1, n2, 2m) order
    (``parabolic_labels``)."""
    s = half(s)
    return [
        ParabolicState(n1, n2, HalfInteger(m2), s)
        for n1, n2, m2 in zip(*(labels.tolist() for labels in parabolic_labels(n, s)))
    ]


def beta_eigenvalue(state: ParabolicState, params: PhysicalParams) -> float:
    """Separation constant of the parabolic problem.

    Inverting the definitions of n1 and n2 gives
    beta = kappa (n1 - n2 + (|m-s| - |m+s|)/2) with
    kappa = sqrt(-2 E0) = 1 / (a n).
    """
    _check_s(state.s, params)
    return _label_beta(state.n.twice, state.s.twice, state.n1, state.n2, state.m.twice, params)


def _label_beta(n2x: int, s2: int, n1, n2, m2, params: PhysicalParams, e0: float | None = None):
    """``beta_eigenvalue`` of the label (n1, n2, m2) in shell 2n = n2x at 2s = s2.

    The labels are ints, or int64 arrays for a separation constant per
    element; q1 = (m2 - s2)/2 and q2 = (m2 + s2)/2 are integers.  ``e0``
    is the shell's ``energy_level``, evaluated here unless the caller has it.
    """
    if e0 is None:
        e0 = energy_level(HalfInteger(n2x), params)
    kappa = math.sqrt(-2.0 * e0)
    x2 = 2 * (n1 - n2) + abs((m2 - s2) // 2) - abs((m2 + s2) // 2)  # 2X, exact
    return kappa * (x2 / 2.0)


def radial_R(n, j, r, params: PhysicalParams):
    """Radial factor R_nj(r), normalized so integral R^2 r^2 dr = 1.

    R_nj(rho) = 2^{j+1} / (n^{j+2} (2j+1)!) sqrt((n+j)!/(n-j-1)!)
                rho^j e^{-rho/n} 1F1(-(n-j-1); 2j+2; 2 rho/n),
    evaluated at rho = r/a and carrying the a^{-3/2} dimension factor.
    The constant is assembled in log space.
    """
    n, j = half(n), half(j)
    if j.twice < 0:
        raise ValueError(f"j must be non-negative, got {j}")
    k = n - j - 1
    if not k.is_integer or k.twice < 0:
        raise ValueError(f"need j <= n - 1 with n - j - 1 an integer (got n={n}, j={j})")
    nf, jf = n.value, j.value
    ln_c = (
        (jf + 1.0) * math.log(2.0)
        - (jf + 2.0) * math.log(nf)
        - ln_factorial(j.twice + 1)
        + 0.5 * (ln_factorial((n + j).as_int()) - ln_factorial(k.as_int()))
    )
    a = params.a
    rho = np.asarray(r, dtype=float) / a
    if (rho < 0).any():
        raise ValueError("r must be >= 0")
    val = (
        a ** (-1.5)
        * math.exp(ln_c)
        * rho**jf
        * np.exp(-rho / nf)
        * hyp1f1_poly(k.as_int(), 2.0 * jf + 2.0, 2.0 * rho / nf)
    )
    if np.ndim(val) == 0:
        return float(val)
    return val


@lru_cache(maxsize=None)
def _angular_norm(j2: int, m2: int, s2: int) -> float:
    """Normalization constant of the angular factor d^j_{ms} e^{i m phi}.

    The theta integral of d^2 is measured by Gauss-Legendre in
    cos(theta); the constant makes the full angular factor a unit
    vector under sin(theta) dtheta dphi.
    """
    _check_wigner_domain(j2)  # every spherical evaluation passes here before any rule
    rule = gauss_legendre(j2 + 24)

    def d_sq(t):
        return _wigner_rows(j2, m2, s2, np.arccos(t))[0] ** 2

    return 1.0 / math.sqrt(2.0 * math.pi * rule.integrate(d_sq))


def spherical_psi(state: SphericalState, r, theta, phi, params: PhysicalParams):
    """Bound-state wavefunction in spherical coordinates.

    psi = N R_nj(r) d^j_{ms}(theta) e^{i m phi}; N is the angular
    normalization measured by quadrature, equal to sqrt((2j+1)/(4 pi))
    to a few ulps.  On the gauge string (theta = pi) the value is the
    continuity limit and always finite.  r, theta and phi broadcast.
    """
    const, radial, angular, phase = _product_form(state, params)
    val = const * radial(r) * angular(theta) * phase(phi)
    if np.ndim(val) == 0:
        return complex(val)
    return val


def _moment_labels(p, q):
    """(p, |q|) of a Phi_pq, refused unless p is a non-negative integer and q
    an integer (``specfun._is_whole``).  Each is a number, or a numpy array
    judged element by element; the message names the first element that fails.
    """
    for name, v, rule, least in (("p", p, "a non-negative integer", 0), ("q", q, "an integer", -math.inf)):
        for x in v.ravel().tolist() if isinstance(v, np.ndarray) else (v,):
            if not _is_whole(x) or x < least:
                raise ValueError(f"{name} must be {rule}, got {x}")
    return p, abs(q)


def _phi_axis(p, q, x, n, params: PhysicalParams):
    """Validated (|q|, z, e^{-z/2}, z^{|q|/2}) of Phi_pq at z = x/(a n)."""
    aq = int(_moment_labels(p, q)[1])
    nf = float(n)
    if nf <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not math.isfinite(nf):
        raise ValueError(f"n must be finite, got {n}")
    z = np.asarray(x, dtype=float) / (params.a * nf)
    if (z < 0).any():
        raise ValueError("x must be >= 0")
    return aq, z, np.exp(z / -2.0), z ** (aq / 2.0)


def _phi_const(p: int, aq: int) -> float:
    """(1/|q|!) sqrt((p+|q|)!/p!), from log-factorials."""
    return math.exp(-ln_factorial(aq) + 0.5 * (ln_factorial(p + aq) - ln_factorial(p)))


def phi_pq(p: int, q: int, x, n, params: PhysicalParams):
    """One-dimensional parabolic factor Phi_pq(x).

    Phi_pq(x) = (1/|q|!) sqrt((p+|q|)!/p!) e^{-x/(2an)} (x/(an))^{|q|/2}
                1F1(-p; |q|+1; x/(an))
    with n the principal level the factor belongs to.
    """
    aq, z, decay, power = _phi_axis(p, q, x, n, params)
    val = _phi_const(int(p), aq) * decay * power * hyp1f1_poly(p, aq + 1.0, z)
    if np.ndim(val) == 0:
        return float(val)
    return val


def phi_table(p_max: int, q: int, x, n, params: PhysicalParams) -> np.ndarray:
    """Phi_pq(x) for every p = 0, ..., p_max, shape (p_max + 1, *x.shape).

    One ``hyp1f1_table`` pass, with e^{-z/2} and z^{|q|/2} evaluated once;
    row p has the bits of ``phi_pq(p, q, x, n, params)``.
    """
    aq, z, decay, power = _phi_axis(p_max, q, x, n, params)
    consts = np.array([_phi_const(p, aq) for p in range(int(p_max) + 1)])
    return consts.reshape(-1, *[1] * z.ndim) * decay * power * hyp1f1_table(p_max, aq + 1.0, z)


def phi_grams(p_max: int, q: int, n, params: PhysicalParams, powers) -> tuple[np.ndarray, ...]:
    """G_k = F diag(w x^k) F^T for each k in ``powers``, F the ``phi_table`` rows
    p = 0, ..., p_max on the Gauss-Laguerre rule at the scale a n.

    The rule has the fewest nodes that make every entry exact (degree
    2 p_max + |q| + max(powers)); an order past the rule cap raises
    ValueError before any Phi is evaluated.  The matrices depend on |q| alone.
    """
    _, aq = _moment_labels(p_max, q)
    rule = gauss_laguerre(_exact_order(2 * p_max + aq + max(powers)))
    scale = params.a * float(n)
    x, w = scale * rule.nodes, scale * rule.lifted_weights
    table = phi_table(p_max, q, x, n, params)
    # einsum sums in a fixed order, without BLAS
    return tuple(np.einsum("ik,jk->ij", table * (w * x**k), table) for k in powers)


def parabolic_psi(state: ParabolicState, point: ParabolicPoint, params: PhysicalParams):
    """Bound-state wavefunction in parabolic coordinates.

    psi = sqrt(2)/(n^2 a^{3/2}) Phi_{n1,m-s}(xi) Phi_{n2,m+s}(eta)
          e^{i m phi} / sqrt(2 pi),
    unit-normalized under dV = (xi + eta)/4 dxi deta dphi.  Equal bit
    for bit to the 1 x 1 case of ``psi_grid``.
    """
    const, f1, f2, phase = _product_form(state, params)
    # the grid's order of products; point.phi is reduced already
    return const * f1(point.xi) * f2(point.eta) * phase(point.phi)


def _product_form(state, params: PhysicalParams):
    """(const, f1, f2, phase) with psi = const f1(c1) f2(c2) phase(phi).

    (c1, c2) is (xi, eta) in the parabolic basis and (r, theta) in the
    spherical one; f1 and f2 are the scalar-or-array kernels of one
    coordinate each.
    """
    _check_s(state.s, params)
    if isinstance(state, ParabolicState):
        nf = state.n.value
        const = math.sqrt(2.0) / (nf**2 * params.a**1.5)
        return (
            const,
            lambda xi: phi_pq(state.n1, state.q1, xi, nf, params),
            lambda eta: phi_pq(state.n2, state.q2, eta, nf, params),
            lambda phi: cmath.exp(1j * state.m.value * phi) / math.sqrt(2.0 * math.pi),
        )
    return (
        _angular_norm(state.j.twice, state.m.twice, state.s.twice),
        lambda r: radial_R(state.n, state.j, r, params),
        lambda theta: wigner_d(state.j, state.m, state.s, theta),
        lambda phi: np.exp(1j * state.m.value * np.asarray(phi, dtype=float)),
    )


def psi_grid(state, c1, c2, phi, params: PhysicalParams) -> np.ndarray:
    """psi on the grid c1 x c2 of one azimuthal plane, shape (len(c1), len(c2)).

    (c1, c2) is (xi, eta) for a ``ParabolicState`` and (r, theta) for a
    ``SphericalState``.  Each 1-D factor is evaluated once per axis
    value, so a grid costs O(len(c1) + len(c2)) kernel calls and
    O(len(c1) len(c2)) products.  Every entry has the bits of
    ``parabolic_psi(state, ParabolicPoint(xi, eta, phi), params)`` or
    ``spherical_psi(state, r, theta, phi, params)``; as there, the
    parabolic phi is reduced mod 2 pi and the spherical one is not.
    """
    const, f1, f2, phase = _product_form(state, params)
    if isinstance(state, ParabolicState):
        phi = ParabolicPoint(0.0, 0.0, phi).phi
    # one scalar kernel call per axis value, as every grid value must equal the
    # scalar psi's: numpy takes ** of a float64 scalar with the C library's pow,
    # but of an array with its own SIMD pow (square and sqrt at 2 and 0.5),
    # which rounds about 5 % of values differently; exp, sin and cos agree
    col = const * np.array([f1(x) for x in c1], dtype=float)
    row = np.array([f2(x) for x in c2], dtype=float)
    return col[:, None] * row[None, :] * phase(phi)


def parabolic_to_cartesian(point: ParabolicPoint) -> tuple[float, float, float]:
    """Map (xi, eta, phi) to (x1, x2, x3)."""
    rho = math.sqrt(point.xi * point.eta)
    return (
        rho * math.cos(point.phi),
        rho * math.sin(point.phi),
        0.5 * (point.xi - point.eta),
    )


def cartesian_to_parabolic(x1: float, x2: float, x3: float) -> ParabolicPoint:
    """Inverse map; phi is taken in [0, 2 pi).

    The smaller of xi, eta is recovered from xi*eta = x1^2 + x2^2
    rather than as r -+ x3, which loses all digits near the axis.
    """
    rho_sq = x1 * x1 + x2 * x2
    r = math.sqrt(rho_sq + x3 * x3)
    if x3 >= 0.0:
        xi = r + x3
        eta = rho_sq / xi if xi > 0.0 else 0.0
    else:
        eta = r - x3
        xi = rho_sq / eta
    phi = math.atan2(x2, x1) % (2.0 * math.pi)
    return ParabolicPoint(xi=xi, eta=eta, phi=phi)


def volume_element(xi, eta):
    """Density of dV = (xi + eta)/4 dxi deta dphi."""
    return (np.asarray(xi, dtype=float) + np.asarray(eta, dtype=float)) / 4.0


def _exact_order(degree: int) -> int:
    """Fewest Gauss nodes that integrate a polynomial of this degree exactly.

    An N-node Gauss rule is exact up to degree 2N - 1 (Golub & Welsch
    1969).  A degree above 2 N_MAX + 1 = 401 needs more nodes than the
    largest rule holds, and the rule build raises ValueError.
    """
    return degree // 2 + 1


def phi_pair_moment(
    p_a: int,
    p_b: int,
    q: int,
    power: int,
    n_a,
    n_b,
    params: PhysicalParams,
    order: int | None = None,
) -> float:
    """Gauss-Laguerre value of integral x^power Phi_{p_a q}(x) Phi_{p_b q}(x) dx.

    The two factors may belong to different principal levels; the
    substitution scale matches the combined exponential decay, so the
    remaining integrand is e^{-t} times a polynomial of degree
    p_a + p_b + |q| + power.  The default order is the least that
    integrates that degree exactly; an explicit order is used as given.
    Two equal factors are evaluated once.  ``power`` is a non-negative
    integer.
    """
    if isinstance(power, bool) or not isinstance(power, (int, np.integer)) or power < 0:
        raise ValueError(f"power must be a non-negative integer, got {power!r}")
    if order is None:
        order = _exact_order(p_a + p_b + abs(q) + power)
    n_a, n_b = float(n_a), float(n_b)
    scale = 2.0 * params.a * n_a * n_b / (n_a + n_b)
    rule = gauss_laguerre(order)

    def integrand(x):
        f_a = phi_pq(p_a, q, x, n_a, params)
        f_b = f_a if (p_b, n_b) == (p_a, n_a) else phi_pq(p_b, q, x, n_b, params)
        return x**power * f_a * f_b

    return integrate_halfline(integrand, rule, scale=scale)


def _factor_moments(a: ParabolicState, b: ParabolicState, power: int, params: PhysicalParams, order=None):
    """(2 / (n_a^2 n_b^2 a^3), G0_xi, Gk_xi, G0_eta, Gk_eta) between two states of one m:
    the product of their constants, and the 1 and x^power ``phi_pair_moment``s of
    their xi factors (n1, q1) and of their eta factors (n2, q2)."""
    n_a, n_b = a.n.value, b.n.value
    factors = ((a.n1, b.n1, a.q1), (a.n2, b.n2, a.q2))
    moments = [phi_pair_moment(p_a, p_b, q, k, n_a, n_b, params, order) for p_a, p_b, q in factors for k in (0, power)]
    return (2.0 / (n_a**2 * n_b**2 * params.a**3), *moments)


def spherical_overlap(
    a_state: SphericalState,
    b_state: SphericalState,
    params: PhysicalParams,
) -> float:
    """<psi_a | psi_b> by product Gauss quadrature (real by construction).

    The radial integrand is e^{-t} times a polynomial of degree
    n_a + n_b, and d_a d_b is a polynomial in cos(theta) of degree
    j_a + j_b <= n_a + n_b - 2, so one order integrates both exactly.
    """
    _check_s(a_state.s, params)
    _check_s(b_state.s, params)
    if a_state.m != b_state.m:
        return 0.0
    order = _exact_order((a_state.n + b_state.n).as_int())
    n_a = _angular_norm(a_state.j.twice, a_state.m.twice, a_state.s.twice)
    n_b = _angular_norm(b_state.j.twice, b_state.m.twice, b_state.s.twice)
    leg = gauss_legendre(order)

    def ang(t):
        d_a, d_b = _wigner_rows(
            np.array([a_state.j.twice, b_state.j.twice]), a_state.m.twice, a_state.s.twice, np.arccos(t)
        )
        return d_a * d_b

    theta_int = leg.integrate(ang)
    na_f, nb_f = a_state.n.value, b_state.n.value
    scale = params.a * na_f * nb_f / (na_f + nb_f)
    lag = gauss_laguerre(order)

    def rad(r):
        return (
            radial_R(a_state.n, a_state.j, r, params)
            * radial_R(b_state.n, b_state.j, r, params)
            * r**2
        )

    radial_int = integrate_halfline(rad, lag, scale=scale)
    return 2.0 * math.pi * n_a * n_b * theta_int * radial_int


def parabolic_overlap(
    a_state: ParabolicState,
    b_state: ParabolicState,
    params: PhysicalParams,
) -> float:
    """<psi_a | psi_b> under dV = (xi + eta)/4 dxi deta dphi."""
    _check_s(a_state.s, params)
    _check_s(b_state.s, params)
    if a_state.m != b_state.m:
        return 0.0
    pref, g0_xi, g1_xi, g0_eta, g1_eta = _factor_moments(a_state, b_state, 1, params)
    return pref * 0.25 * (g1_xi * g0_eta + g0_xi * g1_eta)


_RESIDUAL_GRID_POINTS = 700  # per axis of the residual grid
_RESIDUAL_EXTENT = 12.0  # span of each axis, in units of a*n
_RESIDUAL_SUPPORT_CUT = 0.05
_RESIDUAL_AXIS_MARGIN = 1.0


def parabolic_hamiltonian_residual(state: ParabolicState, params: PhysicalParams) -> float:
    """Bound on the relative residual |H psi - E psi| / |E psi|, one factor at a time.

    With psi = f1(xi) f2(eta), the parabolic Hamiltonian separates as

        (xi + eta)(H - E) f1 f2 = (h1 - lam f1) f2 + f1 (h2 + lam f2),
        h_i(x) = -2 (x f_i'' + f_i') + (q_i^2 / (2 x) - gamma - E x) f_i,

    with q1 = m - s, q2 = m + s and the separation constant
    lam = ``beta_eigenvalue``.  Each factor is the one ``psi_grid``
    prints, evaluated once on a 1-D axis, and its derivatives come from
    fourth-order five-point stencils, which drop the two end points of
    the axis.  The result is r1 + r2 with

        r1 = max |h1 - lam f1| / (|E| xi |f1|),
        r2 = max |h2 + lam f2| / (|E| eta |f2|),

    each over its own axis, so a wrong E, a wrong factor or a wrong beta
    all show.  Two exclusions keep the pointwise relative residual
    meaningful:
    - points where |f_i| falls below ``_RESIDUAL_SUPPORT_CUT`` times its
      maximum over the axis (nodes);
    - a margin of ``_RESIDUAL_AXIS_MARGIN`` (units of a*n) at the start
      of each axis, where odd |m -+ s| factors behave like
      sqrt(coordinate) and spoil polynomial difference stencils.  Axis
      behaviour is instead covered by the exact quadrature norm checks.

    So r1 + r2 bounds the relative residual of f1 f2 at every grid point
    (xi, eta) off both margins where |f1 f2| >= cut * max|f1| max|f2|:
    there each |f_i| passes its own cut, as the other factor is at most
    its maximum, and xi + eta is at least xi and at least eta.
    """
    _, f1, f2, _ = _product_form(state, params)
    an = params.a * state.n.value
    h = _RESIDUAL_EXTENT * an / _RESIDUAL_GRID_POINTS
    z = h * np.arange(1, _RESIDUAL_GRID_POINTS + 1)
    x = z[2:-2]  # the stencil centres
    interior = x >= _RESIDUAL_AXIS_MARGIN * an
    e0 = energy_level(state.n, params)
    lam = beta_eigenvalue(state, params)

    def factor_residual(f, q, lam_i):
        """max |h_i - lam_i f_i| / (|E| x |f_i|) over the factor's kept points."""
        d1 = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
        d2 = (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2] + 16.0 * f[1:-3] - f[:-4]) / (12.0 * h * h)
        v = f[2:-2]
        hf = -2.0 * (x * d2 + d1) + (0.5 * q * q / x - params.gamma_c - e0 * x - lam_i) * v
        keep = interior & (np.abs(v) >= _RESIDUAL_SUPPORT_CUT * np.max(np.abs(f)))
        if not np.any(keep):
            raise RuntimeError("no usable interior points; widen the grid")
        return float(np.max(np.abs(hf[keep]) / (abs(e0) * x[keep] * np.abs(v[keep]))))

    return factor_residual(f1(z), state.q1, lam) + factor_residual(f2(z), state.q2, -lam)
