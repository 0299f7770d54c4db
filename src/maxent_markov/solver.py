"""Maximum-entropy transition matrices under an autocorrelation constraint.

Among all detailed-balance chains on a given state space with one-step
autocorrelation ``A``, the entropy-rate maximizer has the tilted form

    W_ij = exp(lam * x_i * x_j) * v_j / (rho * v_i),   p_i = v_i**2 / sum(v**2)

where ``(rho, v)`` is the Perron pair of the symmetric positive matrix
``M_ij = exp(lam * x_i * x_j)``.  The multiplier ``lam`` is the only free
unknown (the remaining multipliers of the variational problem enforce
normalization and reversibility and are eliminated analytically).  The
autocorrelation is ``A(lam) = d log rho / d lam`` and ``log rho`` is convex,
so ``A`` is nondecreasing and each target is a one-dimensional monotone
root.  All targets of a batch are matched together by a safeguarded Newton
iteration, one stacked eigendecomposition per pass.

For two +-1 states the construction collapses to the closed form

    W = [[(1+A)/2, (1-A)/2], [(1-A)/2, (1+A)/2]],    lam = atanh(A).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .chains import Distribution, StateSpace, StochasticMatrix

TARGET_TOL = 1e-12
RESIDUAL_TOL = 1e-8
BOUNDARY_MARGIN = 1e-9
_PASS_CAP = 200  # Newton/bisection passes; bisection alone needs ~60 after ~10 doublings


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

    def contains(self, value, margin: float = BOUNDARY_MARGIN):
        """Whether ``value`` (a number or an array) lies ``margin`` inside the range; NaN does not."""
        return (self.lower + margin < value) & (value < self.upper - margin)


@dataclass(frozen=True, eq=False)
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
        return max(astuple(self))


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


def _refined_chain(m: np.ndarray, evals: np.ndarray, evecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries ``(T, K, K)`` and stationary mass ``(T, K)`` of tilted matrices ``m``.

    ``eigh`` gives the Perron vector to absolute precision only, so tiny
    components carry large relative errors.  Two refinement steps add
    positive terms only: per component, a power step
    ``v_i <- (M v)_i / rho``, or a Jacobi step on ``(rho - M) v = 0``,
    ``v_i <- sum_(j != i) M_ij v_j / (rho - M_ii)``, where that is the
    better conditioned of the two (``v_i / max v < (rho - M_ii) / rho``: a
    small component of a state whose self-weight nearly matches ``rho``,
    which power steps would not correct).  The entries
    ``M_ij v_j / (M v)_i`` then sum to one row by row, and the mass
    ``v_i (M v)_i`` is in detailed balance with them.
    """
    k = m.shape[-1]
    rho = evals[:, -1:]
    diag = m[:, range(k), range(k)]
    off = m.copy()
    off[:, range(k), range(k)] = 0.0
    v = np.abs(evecs[..., -1])
    for _ in range(2):
        rest = (off * v[:, None, :]).sum(axis=-1)
        jacobi = v * rho < v.max(axis=-1, keepdims=True) * (rho - diag)
        v = np.where(jacobi, rest / (rho - diag), (rest + diag * v) / rho)
    mv = (m * v[:, None, :]).sum(axis=-1)
    p = v * mv
    return m * v[:, None, :] / mv[:, :, None], p / p.sum(axis=-1, keepdims=True)


def _solve_multipliers(x: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multipliers ``(T,)``, entries and stationary mass matching each target.

    The autocorrelation ``A(lam) = d log rho / d lam`` of the tilted matrix
    ``exp(lam x_i x_j)`` is nondecreasing, so each target is a monotone 1-D
    root.  Every pass runs one stacked ``eigh`` over the unsettled rows and
    takes a Newton step with the closed-form slope ``A'(lam)`` (the flux
    variance of ``x_i x_j`` plus the second-order eigenvalue perturbation
    over the non-Perron pairs), kept inside a per-target bracket that starts
    at +-1 and doubles outward; a Newton step that leaves the bracket, or is
    longer than half the previous step, is replaced by bisection.  A row
    settles when ``A`` is within rounding of its target, or the step or
    bracket is below one ulp of ``lam``, and is then frozen: each row's
    passes depend on that row alone, so a batch row equals its one-row solve
    bit for bit.  Rows still open after ``_PASS_CAP`` passes keep their last
    iterate for the checks.
    """
    eps = np.finfo(float).eps
    products = np.multiply.outer(x, x)
    settled_excess = 4 * eps * np.abs(products).max()
    t = targets.size
    lam, last_step = np.zeros(t), np.full(t, np.inf)
    lo, hi = np.full(t, -np.inf), np.full(t, np.inf)
    out_lam, out_entries, out_mass = np.empty(t), np.empty((t,) + products.shape), np.empty((t, x.size))
    rows = np.arange(t)
    for n in range(_PASS_CAP):
        if rows.size == 0:
            break
        at = lam[rows]
        exponent = at[:, None, None] * products
        m = np.exp(exponent - exponent.max(axis=(1, 2), keepdims=True))  # shift-invariant
        evals, evecs = np.linalg.eigh(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            entries, mass = _refined_chain(m, evals, evecs)
            acf = _autocorrelations(products, mass[:, :, None] * entries)
            excess = acf - targets[rows]
            # slope: sum_ij F_ij (x_i x_j - A)^2 + 2 sum_k (u_k' G v)^2 / (rho (rho - w_k)),
            # with the flux F_ij = v_i M_ij v_j / rho and G = (x_i x_j - A) M_ij
            v, rho = np.abs(evecs[..., -1]), evals[:, -1:]
            g = (products - acf[:, None, None]) * m
            spread = (v[:, :, None] * g * (products - acf[:, None, None]) * v[:, None, :]).sum(axis=(1, 2))
            coupling = (evecs[..., :-1] * (g * v[:, None, :]).sum(axis=-1)[:, :, None]).sum(axis=1)
            slope = (spread + 2 * (coupling**2 / (rho - evals[:, :-1])).sum(axis=-1)) / rho[:, 0]
            newton = at - excess / slope
            shrinks = np.abs(2 * excess) <= np.abs(last_step[rows] * slope)
        below = lo[rows] = np.where(excess < 0, at, lo[rows])
        above = hi[rows] = np.where(excess > 0, at, hi[rows])
        left = np.where(np.isfinite(below), below, 2 * np.minimum(at, -0.5))
        right = np.where(np.isfinite(above), above, 2 * np.maximum(at, 0.5))
        fallback = np.where(excess < 0, right, left)
        bracketed = np.isfinite(below) & np.isfinite(above)
        fallback[bracketed] = 0.5 * (below[bracketed] + above[bracketed])
        step = np.where((newton > left) & (newton < right) & shrinks, newton, fallback) - at
        ulp = 2 * eps * np.maximum(np.abs(at), 1.0)
        settled = (
            (n == _PASS_CAP - 1)
            | ~np.isfinite(excess)  # left to the residual checks
            | (np.abs(excess) <= settled_excess)
            | (np.abs(step) <= ulp)
            | (above - below <= ulp)
        )
        done = rows[settled]
        out_lam[done], out_entries[done], out_mass[done] = at[settled], entries[settled], mass[settled]
        lam[rows], last_step[rows] = at + step, step
        rows = rows[~settled]
    return out_lam, out_entries, out_mass


def _binary_entries(targets) -> np.ndarray:
    """Closed-form maximum-entropy entries for two +-1 states, shape (..., 2, 2).

    Each state stays with probability ``(1 + target) / 2``.
    """
    stay = (1.0 + np.asarray(targets, dtype=float)) / 2.0
    return np.stack([stay, 1.0 - stay, 1.0 - stay, stay], axis=-1).reshape(*stay.shape, 2, 2)


def _binary_solve(x: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_solve_multipliers`` for two +-1 states, in closed form: ``lam = atanh(A)`` and uniform mass."""
    return np.arctanh(targets), _binary_entries(targets), np.full((targets.size, 2), 0.5)


def maxent_2state(target: float) -> MaxEntSolution:
    """Closed-form maximum-entropy chain for two +-1 states.

    The stationary distribution is uniform and the stay probability of each
    state is ``(1 + target) / 2``.  Raises as ``maxent_nstate`` does.
    """
    return _one_solution(StateSpace.binary(), target, _binary_solve)


def maxent_nstate(states: StateSpace, target: float) -> MaxEntSolution:
    """Maximum-entropy chain on an arbitrary state space, solved numerically.

    A one-row call of the batched solve behind ``maxent_entries``.

    Raises:
        InfeasibleTargetError: target outside (or within 1e-9 of the
            boundary of) the feasible autocorrelation range.
        ConvergenceError: root search or residual tolerance not met.
    """
    return _one_solution(states, target, _solve_multipliers)


def _one_solution(states: StateSpace, target: float, solve) -> MaxEntSolution:
    """The one-target call of ``_maxent_batch`` by ``solve``, as a ``MaxEntSolution``."""
    entries, mass, multipliers, residuals = _maxent_batch(states, [target], solve)
    return MaxEntSolution(StochasticMatrix(entries[0], states), Distribution(mass[0]),
                          float(multipliers[0]), float(residuals[0]), float(target))


def _maxent_batch(states: StateSpace, targets, solve=_solve_multipliers) -> tuple[np.ndarray, ...]:
    """Checked maximum-entropy solutions for a stack of targets, by ``solve`` (default the numeric one).

    Returns entries ``(T, K, K)``, stationary mass ``(T, K)``, multipliers
    and largest Lagrange residuals ``(T,)``.  Raises as ``maxent_nstate``
    does, for the first target that fails; NaN fails every check.
    """
    x = states.as_array()
    targets = np.asarray(targets, dtype=float).reshape(-1)
    bounds = feasible_range(states)
    outside = ~bounds.contains(targets)
    if outside.any():
        raise InfeasibleTargetError(
            f"autocorrelation {targets[outside.argmax()]} is not strictly inside ({bounds.lower}, {bounds.upper})"
        )
    multipliers, entries, mass = solve(x, targets)
    conditions = _residual_rows(entries, mass, x, multipliers, targets)
    miss, residuals = conditions[:, -1], conditions.max(axis=1)
    missed = ~(miss <= np.maximum(TARGET_TOL, 1e-9 * np.abs(targets)))
    failed = missed | ~(residuals <= RESIDUAL_TOL)
    if failed.any():
        i = failed.argmax()
        if missed[i]:
            raise ConvergenceError(f"root search missed the target autocorrelation {targets[i]}", miss[i])
        raise ConvergenceError(f"solution at autocorrelation {targets[i]} rejected", residuals[i])
    return entries, mass, multipliers, residuals


def _autocorrelations(products: np.ndarray, flux: np.ndarray) -> np.ndarray:
    """``sum_ij x_i x_j p_i W_ij`` per row of a flux stack ``p_i W_ij``, shape (T, K, K)."""
    return (products * flux).sum(axis=(-2, -1))


def _residual_rows(w, p, x, lam, targets) -> np.ndarray:
    """The six ``LagrangeResiduals`` conditions per row, shape (T, 6), in field order."""
    k = x.size
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.log(w)
        d = logw[:, range(k), range(k)]
        i, j = np.triu_indices(k, 1)
        lam = lam[:, None]
        diag = np.abs(d[:, i] - d[:, j] - lam * (x[i] ** 2 - x[j] ** 2))
        cross = np.abs(d[:, i] + d[:, j] - logw[:, i, j] - logw[:, j, i] - lam * (x[i] - x[j]) ** 2)
    flux = p[:, :, None] * w
    return np.stack(
        [
            diag.max(axis=1),
            cross.max(axis=1),
            np.abs(w.sum(axis=-1) - 1.0).max(axis=1),
            np.abs(p.sum(axis=-1) - 1.0),
            np.abs(flux - flux.transpose(0, 2, 1)).max(axis=(1, 2)),
            np.abs(_autocorrelations(np.multiply.outer(x, x), flux) - targets),
        ],
        axis=1,
    )


def lagrange_residuals(solution: MaxEntSolution, states: StateSpace) -> LagrangeResiduals:
    """Violations of the stationarity system and the structural constraints.

    The two ratio conditions are evaluated in the log domain over all
    state pairs; a zero transition probability inside a ratio yields an
    infinite residual rather than an error.
    """
    row = _residual_rows(
        solution.matrix.entries[None],
        solution.stationary.mass[None],
        states.as_array(),
        np.array([solution.multiplier]),
        np.array([solution.target_autocorrelation]),
    )[0]
    return LagrangeResiduals(*(float(c) for c in row))
