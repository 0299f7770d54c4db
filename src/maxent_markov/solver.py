"""Maximum-entropy transition matrices under an autocorrelation constraint.

Among all detailed-balance chains on a given state space with one-step
autocorrelation ``A``, the entropy-rate maximizer has the tilted form

    W_ij = exp(lam * x_i * x_j) * v_j / (rho * v_i),   p_i = v_i**2 / sum(v**2)

where ``(rho, v)`` is the Perron pair of the symmetric positive matrix
``M_ij = exp(lam * x_i * x_j)``.  The multiplier ``lam`` is the only free
unknown (the remaining multipliers of the variational problem enforce
normalization and reversibility and are eliminated analytically); it is
matched to the target autocorrelation by a bracketed one-dimensional root
search, which is well posed because the autocorrelation is nondecreasing
in ``lam``.

For two +-1 states the construction collapses to the closed form

    W = [[(1+A)/2, (1-A)/2], [(1-A)/2, (1+A)/2]],    lam = atanh(A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .chains import (
    Distribution,
    StateSpace,
    StochasticMatrix,
    detailed_balance_residual,
    matrix_autocorrelation,
)

LAMBDA_BRACKET = 50.0
_BRACKET_CAP = 50.0 * 2**20
TARGET_TOL = 1e-12
RESIDUAL_TOL = 1e-8
BOUNDARY_MARGIN = 1e-9
_ITERATION_CAP = 10_000


class InfeasibleTargetError(ValueError):
    """The requested autocorrelation is outside the attainable range."""


class ConvergenceError(RuntimeError):
    """The solver failed to meet its tolerances; carries the best residual."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass(frozen=True)
class FeasibleRange:
    """Open interval of autocorrelations attainable by detailed-balance chains."""

    lower: float
    upper: float

    def clamp(self, value: float, margin: float) -> float:
        """Pull ``value`` to the interior of the range by ``margin``."""
        return float(min(max(value, self.lower + margin), self.upper - margin))

    def contains(self, value: float, margin: float = BOUNDARY_MARGIN) -> bool:
        return self.lower + margin < value < self.upper - margin


@dataclass(frozen=True)
class MaxEntSolution:
    """A solved maximum-entropy chain.

    ``multiplier`` is the autocorrelation multiplier of the variational
    problem; ``residual`` is the largest violation across the stationarity
    ratio conditions and the normalization, reversibility and
    autocorrelation constraints.  Accepted solutions always have
    ``residual <= 1e-8``.
    """

    matrix: StochasticMatrix
    stationary: Distribution
    multiplier: float
    residual: float
    target_autocorrelation: float


@dataclass(frozen=True)
class LagrangeResiduals:
    """Per-condition violations of a candidate solution (log domain for ratios)."""

    diagonal: float
    cross: float
    row_sums: float
    total_mass: float
    detailed_balance: float
    autocorrelation: float

    @property
    def max_violation(self) -> float:
        return max(
            self.diagonal,
            self.cross,
            self.row_sums,
            self.total_mass,
            self.detailed_balance,
            self.autocorrelation,
        )


def feasible_range(states: StateSpace) -> FeasibleRange:
    """Attainable autocorrelations: extremes of ``x_i * x_j`` over state pairs.

    The infimum is approached by alternating between the two states with
    the most negative value product, the supremum by parking in the state
    of largest squared value; both are boundary (degenerate) chains, so
    the range is open.
    """
    x = states.as_array()
    products = np.outer(x, x)
    return FeasibleRange(float(products.min()), float(products.max()))


def _perron(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron eigenpair of an entrywise-positive symmetric matrix.

    Uses the dense symmetric eigensolver; if extreme tilts make the
    leading eigenvector numerically degenerate (components underflowing
    to zero), falls back to fixed-point iteration from a positive start,
    which keeps the eigenvector strictly positive.
    """
    evals, evecs = np.linalg.eigh(m)
    v = np.abs(evecs[:, -1])
    if v.min() > 1e-12 * v.max():
        return float(evals[-1]), v
    v = np.full(m.shape[0], 1.0 / np.sqrt(m.shape[0]))
    for _ in range(_ITERATION_CAP):
        v_next = m @ v
        v_next = v_next / np.linalg.norm(v_next)
        if np.abs(v_next - v).max() <= 1e-15:
            v = v_next
            break
        v = v_next
    return float(v @ m @ v), v


def _solve_at_multiplier(lam: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries and stationary mass of the tilted chain at a fixed multiplier."""
    exponent = lam * np.outer(x, x)
    m = np.exp(exponent - exponent.max())  # shift-invariant; avoids overflow
    rho, v = _perron(m)
    entries = m * v[None, :] / (rho * v[:, None])
    entries = entries / entries.sum(axis=1, keepdims=True)
    p = v**2 / (v**2).sum()
    return entries, p


def _autocorrelation_at(lam: float, x: np.ndarray) -> float:
    entries, p = _solve_at_multiplier(lam, x)
    return float(np.einsum("i,j,i,ij->", x, x, p, entries))


def maxent_2state(target: float) -> MaxEntSolution:
    """Closed-form maximum-entropy chain for two +-1 states.

    Requires ``-1 < target < 1``; the stationary distribution is uniform
    and the stay probability of each state is ``(1 + target) / 2``.
    """
    if not -1.0 < target < 1.0:
        raise InfeasibleTargetError(
            f"autocorrelation {target} is outside the open interval (-1, 1)"
        )
    states = StateSpace.binary()
    stay = (1.0 + target) / 2.0
    entries = np.array([[stay, 1.0 - stay], [1.0 - stay, stay]])
    matrix = StochasticMatrix(entries, states)
    stationary = Distribution(np.array([0.5, 0.5]))
    multiplier = float(np.arctanh(target))
    solution = MaxEntSolution(matrix, stationary, multiplier, 0.0, float(target))
    residual = lagrange_residuals(solution, states).max_violation
    return MaxEntSolution(matrix, stationary, multiplier, residual, float(target))


def maxent_nstate(states: StateSpace, target: float) -> MaxEntSolution:
    """Maximum-entropy chain on an arbitrary state space, solved numerically.

    Raises:
        InfeasibleTargetError: target outside (or within 1e-9 of the
            boundary of) the feasible autocorrelation range.
        ConvergenceError: root search or residual tolerance not met.
    """
    x = states.as_array()
    bounds = feasible_range(states)
    if not bounds.contains(target):
        raise InfeasibleTargetError(
            f"autocorrelation {target} is not strictly inside "
            f"({bounds.lower}, {bounds.upper})"
        )

    lo, hi = -LAMBDA_BRACKET, LAMBDA_BRACKET
    f_lo = _autocorrelation_at(lo, x) - target
    f_hi = _autocorrelation_at(hi, x) - target
    while f_lo > 0 or f_hi < 0:
        # state scales far from unity need a wider bracket
        lo, hi = 2 * lo, 2 * hi
        if hi > _BRACKET_CAP:
            raise ConvergenceError(
                "could not bracket the autocorrelation multiplier", min(abs(f_lo), abs(f_hi))
            )
        f_lo = _autocorrelation_at(lo, x) - target
        f_hi = _autocorrelation_at(hi, x) - target

    lam = brentq(
        lambda l: _autocorrelation_at(l, x) - target,
        lo,
        hi,
        xtol=1e-15,
        rtol=8.9e-16,
        maxiter=_ITERATION_CAP,
    )
    entries, p = _solve_at_multiplier(lam, x)
    achieved = float(np.einsum("i,j,i,ij->", x, x, p, entries))
    if abs(achieved - target) > max(TARGET_TOL, 1e-9 * abs(target)):
        raise ConvergenceError("root search missed the target autocorrelation", abs(achieved - target))

    matrix = StochasticMatrix(entries, states)
    stationary = Distribution(p)
    solution = MaxEntSolution(matrix, stationary, float(lam), 0.0, float(target))
    residual = lagrange_residuals(solution, states).max_violation
    if residual > RESIDUAL_TOL:
        raise ConvergenceError("solution rejected", residual)
    return MaxEntSolution(matrix, stationary, float(lam), residual, float(target))


def lagrange_residuals(solution: MaxEntSolution, states: StateSpace) -> LagrangeResiduals:
    """Violations of the stationarity system and the structural constraints.

    The two ratio conditions are evaluated in the log domain over all
    state pairs; a zero transition probability inside a ratio yields an
    infinite residual rather than an error.
    """
    w = solution.matrix.entries
    p = solution.stationary.mass
    x = states.as_array()
    lam = solution.multiplier
    k = states.size

    with np.errstate(divide="ignore"):
        logw = np.log(w)

    diag = 0.0
    cross = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            d = logw[i, i] - logw[j, j] - lam * (x[i] ** 2 - x[j] ** 2)
            c = logw[i, i] + logw[j, j] - logw[i, j] - logw[j, i] - lam * (x[i] - x[j]) ** 2
            diag = max(diag, abs(d))
            cross = max(cross, abs(c))

    return LagrangeResiduals(
        diagonal=float(diag),
        cross=float(cross),
        row_sums=float(np.abs(w.sum(axis=1) - 1.0).max()),
        total_mass=float(abs(p.sum() - 1.0)),
        detailed_balance=detailed_balance_residual(solution.stationary, solution.matrix),
        autocorrelation=float(
            abs(
                matrix_autocorrelation(solution.stationary, solution.matrix)
                - solution.target_autocorrelation
            )
        ),
    )
