"""Gaussian quadrature rules and weighted-integral drivers.

Rules are generated by the Golub-Welsch method: nodes are the
eigenvalues of the Jacobi matrix of the orthonormal polynomial family,
weights come from the first eigenvector components.  Two families are
enough here: Laguerre (weight e^{-x} on [0, inf)) for the radial and
parabolic integrals, Legendre (weight 1 on [-1, 1]) for polar-angle
integrals.

Each rule is built once per ``(kind, order)`` per process and then
shared: every caller asking for the same rule gets the same object,
whose arrays are read-only so no caller can change a rule another one
holds.  Orders are capped at ``MAX_ORDER``, which bounds the cache at
2 * MAX_ORDER rules of at most MAX_ORDER nodes each (under 2 MB).  The
cap is the order the largest shell's oracle sectors need;
``states.N_MAX`` is derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .eigen import tridiagonal_eigen

__all__ = ["QuadratureRule", "gauss_laguerre", "gauss_legendre", "integrate_halfline"]

MAX_ORDER = 201


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss rule; immutable once built.

    For Laguerre rules ``lifted_weights`` holds w_i * e^{x_i}, combined
    in a way that cannot overflow at high order (w_i alone underflows
    around order 190 while e^{x_i} overflows; their product is tame).
    """

    kind: str
    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    lifted_weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        # one rule object is shared by every caller of its (kind, order)
        for arr in (self.nodes, self.weights, self.lifted_weights):
            if arr is not None:
                arr.setflags(write=False)

    def integrate(self, f) -> float:
        """Sum w_i f(x_i); the weight function is implicit in the rule."""
        return float(np.sum(self.weights * np.asarray(f(self.nodes), dtype=float)))


def _check_order(order: int) -> int:
    # a bool is an int to Python, but True is no order
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or not (1 <= order <= MAX_ORDER):
        raise ValueError(f"quadrature order must be an integer in [1, {MAX_ORDER}], got {order}")
    return int(order)


@lru_cache(maxsize=None)
def _rule(kind: str, n: int) -> QuadratureRule:
    """Golub-Welsch build of a validated rule; cached, so it runs once per (kind, n)."""
    if kind == "laguerre":
        diag = 2.0 * np.arange(n) + 1.0
        off = np.arange(1, n, dtype=float)
        nodes, first = tridiagonal_eigen(diag, off)
        weights = first**2  # zeroth moment of e^{-x} is 1
        lifted = (first * np.exp(0.5 * nodes)) ** 2
        return QuadratureRule(kind, n, nodes, weights, lifted)
    diag = np.zeros(n)
    k = np.arange(1, n, dtype=float)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, first = tridiagonal_eigen(diag, off)
    weights = 2.0 * first**2  # zeroth moment of the unit weight is 2
    return QuadratureRule(kind, n, nodes, weights)


def gauss_laguerre(order: int) -> QuadratureRule:
    """Gauss-Laguerre rule: sum w_i f(x_i) ~ integral_0^inf e^{-x} f(x) dx."""
    return _rule("laguerre", _check_order(order))


def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule: sum w_i f(x_i) ~ integral_{-1}^{1} f(x) dx."""
    return _rule("legendre", _check_order(order))


def integrate_halfline(f, rule: QuadratureRule, scale: float = 1.0) -> float:
    """Integrate a bare integrand f over [0, inf) with a Laguerre rule.

    f must carry its own exponential decay (at least as fast as
    e^{-x/scale} up to polynomial factors).  The substitution
    x = scale * t maps the integral onto the rule's weight, and the
    e^{+t_i} factor undoes the weight already present in f:

        integral_0^inf f(x) dx ~ scale * sum_i w_i e^{t_i} f(scale t_i)

    Keeping the decay inside f avoids silently double-counting the
    Laguerre weight for integrands assembled from wavefunctions.
    """
    if rule.kind != "laguerre":
        raise ValueError(f"integrate_halfline needs a laguerre rule, got {rule.kind!r}")
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be a positive finite number, got {scale}")
    vals = np.asarray(f(scale * rule.nodes), dtype=float)
    return float(scale * (rule.lifted_weights * vals).sum())
