"""Exact-where-possible special functions.

Everything a monopole-Coulomb bound-state calculation needs and nothing
more: log-factorials, the terminating confluent hypergeometric series
1F1(-p; b; x), and Wigner d-functions for integer and half-integer
indices.  1F1 comes from one degree recurrence, either as its last row
(``hyp1f1_poly``) or as every row 0..p of one pass (``hyp1f1_table``).

All factorial/Pochhammer products are evaluated in log space with
explicit sign bookkeeping so that indices up to ~50 stay well inside
double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HalfInteger",
    "half",
    "ln_factorial",
    "hyp1f1_poly",
    "hyp1f1_table",
    "WIGNER_J_MAX",
    "wigner_d",
]


@dataclass(frozen=True, order=True)
class HalfInteger:
    """An exact integer or half-integer, stored as twice its value.

    Quantum-number bookkeeping (degeneracies, shell membership, tie
    detection) must be exact, so labels never hold floats.  Addition,
    subtraction and negation are closed; ``value`` converts to float
    only at the point of numerical evaluation.
    """

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise TypeError(f"HalfInteger stores 2x the value as int, got {self.twice!r}")

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_int(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def __add__(self, other) -> "HalfInteger":
        return HalfInteger(self.twice + half(other).twice)

    __radd__ = __add__

    def __sub__(self, other) -> "HalfInteger":
        return HalfInteger(self.twice - half(other).twice)

    def __rsub__(self, other) -> "HalfInteger":
        return HalfInteger(half(other).twice - self.twice)

    def __neg__(self) -> "HalfInteger":
        return HalfInteger(-self.twice)

    def __abs__(self) -> "HalfInteger":
        return HalfInteger(abs(self.twice))

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInteger({self.twice})"


def half(x) -> HalfInteger:
    """Coerce an int, exact float multiple of 1/2, string or HalfInteger."""
    if isinstance(x, HalfInteger):
        return x
    # a bool is an int to Python, but True is no half-integer
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return HalfInteger(2 * int(x))
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"a half-integer must be a finite number, got {x}")
        twice = 2.0 * x
        if twice != round(twice):
            raise ValueError(f"{x} is not an exact half-integer")
        return HalfInteger(int(round(twice)))
    if isinstance(x, str):
        num, slash, den = x.strip().partition("/")
        try:
            value, den = (int(num), int(den)) if slash else (float(num), 2)
        except ValueError:
            raise ValueError(
                "a half-integer string must be an integer, an exact half-integer decimal "
                f"such as 2.5, or k/2 such as -3/2; got {x!r}"
            ) from None
        if den != 2:
            raise ValueError(f"half-integer string must have denominator 2: {x!r}")
        return HalfInteger(value) if slash else half(value)
    raise TypeError(f"cannot interpret {x!r} as a half-integer")


def ln_factorial(k: int) -> float:
    """log(k!) for a non-negative integer k."""
    if k < 0 or k != int(k):
        raise ValueError(f"factorial needs a non-negative integer, got {k}")
    return math.lgamma(k + 1.0)


def _is_whole(v) -> bool:
    """Whether v is an integral number: an int other than a bool, or a float with no fractional part."""
    # a bool is an int to Python, but True is no order
    return not isinstance(v, bool) and (
        isinstance(v, (int, np.integer)) or (isinstance(v, (float, np.floating)) and float(v).is_integer())
    )


def _hyp1f1_args(name: str, p, b, x):
    """Validated (p, b, x) of 1F1(-p; b; x): a 0-d x becomes a Python float."""
    if not _is_whole(p) or p < 0:
        raise ValueError(f"{name} needs integer p >= 0, got {p}")
    if b <= 0:
        raise ValueError(f"{name} needs b > 0, got {b}")
    if not math.isfinite(b):
        raise ValueError(f"{name} needs a finite b, got {b}")
    x = np.asarray(x, dtype=float)
    return int(p), float(b), float(x) if x.ndim == 0 else x


def _hyp1f1_scales(p: int, b: float) -> list[float]:
    """k!/(b)_k for k = 0, ..., p, the factors that turn L_k^{(b-1)} into 1F1(-k; b; .)."""
    scales = [1.0]
    for k in range(1, p + 1):
        scales.append(scales[-1] * (k / (b + k - 1.0)))
    return scales


def _laguerre_floats(p: int, b: float, x: float) -> list[float]:
    """L_k^{(b-1)}(x) for k = 0, ..., p, on Python floats.

    One step of the Laguerre three-term degree recurrence (Abramowitz &
    Stegun 22.7.12) per degree.
    """
    alpha = b - 1.0
    rows = [1.0, b - x]
    for k in range(1, p):
        rows.append(((2.0 * k + alpha + 1.0 - x) * rows[k] - (k + alpha) * rows[k - 1]) / (k + 1.0))
    return rows[: p + 1]


def _laguerre_rows(p: int, b: float, x: np.ndarray) -> np.ndarray:
    """L_k^{(b-1)}(x) for k = 0, ..., p as the rows of one array.

    The recurrence of ``_laguerre_floats``, each degree written in place
    into its own row, with one buffer for the (k + b - 1) L_{k-1} term,
    so no temporary is made per degree.  Every element takes the float
    path's operations in its order, so it has its bits.
    """
    alpha = b - 1.0
    table = np.empty((p + 1, *x.shape))
    rows = list(table)
    rows[0].fill(1.0)
    if p:
        np.subtract(b, x, rows[1])
        term = np.empty_like(x)
        for k in range(1, p):
            nxt = rows[k + 1]
            np.subtract(2.0 * k + alpha + 1.0, x, nxt)
            nxt *= rows[k]
            np.multiply(k + alpha, rows[k - 1], term)
            nxt -= term
            nxt /= k + 1.0
    return table


def hyp1f1_poly(p: int, b: float, x):
    """Terminating confluent hypergeometric polynomial 1F1(-p; b; x).

    Evaluated through the Laguerre three-term degree recurrence,
    1F1(-p; b; x) = (p!/(b)_p) L_p^{(b-1)}(x), which is exact in p
    steps and, unlike naive term-by-term summation of the series, does
    not lose digits to cancellation in the oscillatory region x ~ 4p.
    A scalar x runs the recurrence on Python floats and gives a float;
    an array x gives an array whose elements have the scalar results'
    bits, since both do the same IEEE-754 operations in the same order.
    This is the last row of ``hyp1f1_table(p, b, x)``, bit for bit.
    """
    p, b, x = _hyp1f1_args("hyp1f1_poly", p, b, x)
    scale = _hyp1f1_scales(p, b)[-1]
    if isinstance(x, float):
        return scale * _laguerre_floats(p, b, x)[-1]
    last = _laguerre_rows(p, b, x)[-1]
    last *= scale
    return last


def hyp1f1_table(p: int, b: float, x) -> np.ndarray:
    """1F1(-k; b; x) for every degree k = 0, ..., p, shape (p + 1, *x.shape).

    One pass of ``hyp1f1_poly``'s recurrence that keeps every row; row k
    has the bits of ``hyp1f1_poly(k, b, x)``.
    """
    p, b, x = _hyp1f1_args("hyp1f1_table", p, b, x)
    if isinstance(x, float):
        table = np.array(_laguerre_floats(p, b, x))
    else:
        table = _laguerre_rows(p, b, x)
    table *= np.array(_hyp1f1_scales(p, b)).reshape(-1, *[1] * np.ndim(x))
    return table


# Largest j at which the direct sum of ``wigner_d`` keeps 1e-10 absolute
# accuracy on every (m, s) label, against a 50-digit Jacobi-polynomial form.
WIGNER_J_MAX = 18


def _check_wigner_domain(j2: int) -> None:
    if j2 > 2 * WIGNER_J_MAX:
        raise ValueError(
            f"j must satisfy j <= {WIGNER_J_MAX}, the domain where the Wigner d-functions "
            f"keep 1e-10 accuracy (got j={HalfInteger(j2)})"
        )


def _check_projection(j: HalfInteger, m: HalfInteger, name: str) -> None:
    if abs(m.twice) > j.twice:
        raise ValueError(f"|{name}| <= j violated: {name}={m}, j={j}")
    if (j.twice - m.twice) % 2:
        raise ValueError(f"j - {name} must be an integer: j={j}, {name}={m}")


@lru_cache(maxsize=None)
def _wigner_terms(j2: int, m2: int, s2: int):
    """Precomputed (amplitude, cos-power, sin-power) triples for d^j_{ms}.

    Powers are in the half-angle variables; amplitudes carry the
    (-1)^{m-s+k} sign and the square-root factorial prefactor.
    """
    jm = (j2 + m2) // 2      # j + m, a non-negative integer
    jmm = (j2 - m2) // 2
    js = (j2 + s2) // 2
    jms = (j2 - s2) // 2
    ln_pref = 0.5 * (ln_factorial(jm) + ln_factorial(jmm) + ln_factorial(js) + ln_factorial(jms))
    ms = (m2 - s2) // 2      # m - s, an integer
    k_lo = max(0, -ms)
    k_hi = min(js, jmm)
    terms = []
    for k in range(k_lo, k_hi + 1):
        ln_den = (
            ln_factorial(js - k)
            + ln_factorial(k)
            + ln_factorial(jmm - k)
            + ln_factorial(ms + k)
        )
        sign = -1.0 if (ms + k) % 2 else 1.0
        amp = sign * math.exp(ln_pref - ln_den)
        cos_pow = j2 - 2 * k + (s2 - m2) // 2
        sin_pow = ms + 2 * k
        terms.append((amp, cos_pow, sin_pow))
    return tuple(terms)


def _wigner_rows(j2, m2, s2, theta) -> np.ndarray:
    """d^j_{ms}(theta) of every label, shape (labels, *theta.shape).

    The labels are doubled integers, ints or int64 arrays that broadcast
    together, one row per element in C order; they must be valid, as
    ``wigner_d`` checks.  Each half-angle power is taken once, for every
    label that uses it, with the ``**`` of one label's sum: a float64
    scalar's for a 0-d theta, numpy's array pow otherwise.  Each row sums
    its ``_wigner_terms`` in order, starting from zeros.
    """
    # one int label, as ``wigner_d`` passes, skips the broadcast: a spherical
    # grid makes one such call per angle
    if isinstance(j2, int) and isinstance(m2, int) and isinstance(s2, int):
        labels = [(j2, m2, s2)]
    else:
        labels = zip(*(np.ravel(a).tolist() for a in np.broadcast_arrays(j2, m2, s2)))
    rows = [_wigner_terms(*label) for label in labels]
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta / 2.0)
    sn = np.sin(theta / 2.0)
    cos_pows, sin_pows = {}, {}
    out = np.zeros((len(rows), *theta.shape))
    for i, terms in enumerate(rows):
        acc = out[i]
        for amp, cos_pow, sin_pow in terms:
            # each power on first use; 0**0 -> 1 handles the theta = 0, pi endpoints
            if cos_pow not in cos_pows:
                cos_pows[cos_pow] = c**cos_pow
            if sin_pow not in sin_pows:
                sin_pows[sin_pow] = sn**sin_pow
            acc = acc + amp * cos_pows[cos_pow] * sin_pows[sin_pow]
        out[i] = acc
    return out


def wigner_d(j, m, s, theta):
    """Wigner d-function d^j_{ms}(theta) by the direct finite sum.

    Indices may be integers or half-integers (all three of the same
    type); theta may be a scalar or ndarray.  Real-valued for real
    theta.  j is at most ``WIGNER_J_MAX``, the sum's accuracy domain.
    The labels are checked here; the sum is the one row of
    ``_wigner_rows``, the body every d-function evaluation goes through.
    """
    j, m, s = half(j), half(m), half(s)
    if j.twice < 0:
        raise ValueError(f"j must be non-negative, got {j}")
    _check_projection(j, m, "m")
    _check_projection(j, s, "s")
    _check_wigner_domain(j.twice)
    out = _wigner_rows(j.twice, m.twice, s.twice, theta)[0]
    if out.ndim == 0:
        return float(out)
    return out
