import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize

from maxent_markov import (
    ConvergenceError,
    InfeasibleTargetError,
    StateSpace,
    detailed_balance_residual,
    entropy_rate,
    feasible_range,
    lagrange_residuals,
    matrix_autocorrelation,
    maxent_2state,
    maxent_nstate,
    stationary_distribution,
)
from maxent_markov import solver
from maxent_markov.solver import RESIDUAL_TOL, TARGET_TOL, LagrangeResiduals, MaxEntSolution

from conftest import detailed_balance_pair

TERNARY = StateSpace.ternary()

# every integer state space with 2..5 values in -3..3
SMALL_INTEGER_SPACES = [
    StateSpace(values) for k in range(2, 6) for values in itertools.combinations(range(-3, 4), k)
]


def scalar_oracle(states: StateSpace, target: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Multiplier, entries and stationary mass from a scalar bracket-and-brentq solve.

    The multiplier is bracketed from +-50 (doubling outward) and matched by
    ``brentq`` on the autocorrelation of the tilted chain, each evaluation
    one dense ``eigh`` with a power-iteration fallback for a numerically
    degenerate Perron vector.  It shares no code with the batched solver.
    """
    x = states.as_array()

    def perron(m):
        evals, evecs = np.linalg.eigh(m)
        v = np.abs(evecs[:, -1])
        if v.min() > 1e-12 * v.max():
            return float(evals[-1]), v
        v = np.full(m.shape[0], 1.0 / np.sqrt(m.shape[0]))
        for _ in range(10_000):
            v_next = m @ v
            v_next = v_next / np.linalg.norm(v_next)
            if np.abs(v_next - v).max() <= 1e-15:
                v = v_next
                break
            v = v_next
        return float(v @ m @ v), v

    def chain(lam):
        exponent = lam * np.outer(x, x)
        m = np.exp(exponent - exponent.max())
        rho, v = perron(m)
        entries = m * v[None, :] / (rho * v[:, None])
        entries = entries / entries.sum(axis=1, keepdims=True)
        return entries, v**2 / (v**2).sum()

    def excess(lam):
        entries, p = chain(lam)
        return float(np.einsum("i,j,i,ij->", x, x, p, entries)) - target

    lo, hi = -50.0, 50.0
    while excess(lo) > 0 or excess(hi) < 0:
        lo, hi = 2 * lo, 2 * hi
    lam = brentq(excess, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=10_000)
    return lam, *chain(lam)


def pairwise_residuals(solution: MaxEntSolution, states: StateSpace) -> LagrangeResiduals:
    """The Lagrange residuals with the ratio conditions looped over state pairs."""
    w = solution.matrix.entries
    x = states.as_array()
    lam = solution.multiplier
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    diag = cross = 0.0
    for i in range(states.size):
        for j in range(i + 1, states.size):
            d = logw[i, i] - logw[j, j] - lam * (x[i] ** 2 - x[j] ** 2)
            c = logw[i, i] + logw[j, j] - logw[i, j] - logw[j, i] - lam * (x[i] - x[j]) ** 2
            diag, cross = max(diag, abs(d)), max(cross, abs(c))
    return LagrangeResiduals(
        diagonal=float(diag),
        cross=float(cross),
        row_sums=float(np.abs(w.sum(axis=1) - 1.0).max()),
        total_mass=float(abs(solution.stationary.mass.sum() - 1.0)),
        detailed_balance=detailed_balance_residual(solution.stationary, solution.matrix),
        autocorrelation=float(
            abs(matrix_autocorrelation(solution.stationary, solution.matrix) - solution.target_autocorrelation)
        ),
    )

# Frozen output of the independent direct-optimization oracle below
# (24 SLSQP starts, ftol 1e-16) for three states and target 0.3 / -0.5.
ORACLE_W_03 = np.array(
    [
        [0.574617998944, 0.264887617574, 0.160494383482],
        [0.348158832630, 0.303682337181, 0.348158830189],
        [0.160494386672, 0.264887620982, 0.574617992346],
    ]
)
ORACLE_W_M05 = np.array(
    [
        [0.094878377665, 0.185005013451, 0.720116608884],
        [0.369306186189, 0.261387625704, 0.369306188107],
        [0.720116607971, 0.185005014177, 0.094878377852],
    ]
)


def direct_oracle(target: float, tries: int = 6, seed: int = 0) -> np.ndarray:
    """Entropy maximization over symmetric joint matrices, no multipliers.

    Parametrizes the chain by its stationary pair probabilities (a
    symmetric 3x3 matrix on the simplex), imposes the autocorrelation as
    an explicit constraint and maximizes the entropy rate directly with
    SLSQP from random starts.  Shares no code or formulation with the
    solver under test.
    """
    x = TERNARY.as_array()
    idx = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    mult = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])
    xx = np.array([x[i] * x[j] for i, j in idx])

    def to_matrix(tri):
        j = np.zeros((3, 3))
        for v, (a, b) in zip(tri, idx):
            j[a, b] = v
            j[b, a] = v
        return j

    def neg_eta(tri):
        j = to_matrix(tri)
        p = j.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(j > 0, j * np.log(j / p[:, None]), 0.0)
        return term.sum()

    cons = [
        {"type": "eq", "fun": lambda t: (mult * t).sum() - 1.0},
        {"type": "eq", "fun": lambda t: (mult * xx * t).sum() - target},
    ]
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(tries):
        t0 = rng.dirichlet(np.ones(6)) / mult
        res = minimize(
            neg_eta,
            t0,
            method="SLSQP",
            bounds=[(0, 1)] * 6,
            constraints=cons,
            options={"maxiter": 1000, "ftol": 1e-15},
        )
        if res.success and (best is None or res.fun < best.fun):
            best = res
    joint = to_matrix(best.x)
    p = joint.sum(axis=1)
    return joint / p[:, None]


class TestTwoStateClosedForm:
    @pytest.mark.parametrize("target", [0.0, 0.2, -0.4, 0.9, -0.9])
    def test_entries(self, target):
        sol = maxent_2state(target)
        stay = (1 + target) / 2
        expected = np.array([[stay, 1 - stay], [1 - stay, stay]])
        np.testing.assert_allclose(sol.matrix.entries, expected, atol=1e-15)
        np.testing.assert_allclose(sol.stationary.mass, [0.5, 0.5], atol=1e-15)
        assert sol.residual <= 1e-12

    def test_zero_target_is_uniform(self):
        np.testing.assert_array_equal(maxent_2state(0.0).matrix.entries, 0.5)

    def test_multiplier_is_atanh(self):
        assert maxent_2state(0.2).multiplier == pytest.approx(math.atanh(0.2), abs=1e-14)

    @pytest.mark.parametrize("target", [1.0, -1.0, 1.5])
    def test_infeasible(self, target):
        with pytest.raises(InfeasibleTargetError):
            maxent_2state(target)

    @pytest.mark.parametrize("target", [1 - 1e-9, -1 + 1e-9, 1 - 1e-12, float("nan")])
    def test_rejects_the_targets_the_numeric_solver_rejects(self, target):
        with pytest.raises(InfeasibleTargetError):
            maxent_nstate(StateSpace.binary(), target)
        with pytest.raises(InfeasibleTargetError):
            maxent_2state(target)

    def test_refuses_a_solution_over_the_residual_tolerance(self):
        # a leave probability of 1e-9 holds ~1e-16 of rounding: 1e-7 relative in the log-ratio conditions
        with pytest.raises(ConvergenceError, match="rejected"):
            maxent_2state(1 - 2e-9)

    @settings(max_examples=100, deadline=None)
    @given(gap=st.floats(1e-12, 1e-3), side=st.sampled_from([-1.0, 1.0]))
    @example(gap=2e-9, side=1.0)
    def test_solutions_at_the_ends_meet_the_residual_tolerance(self, gap, side):
        target = side * (1.0 - gap)
        infeasible = []
        for solve in (maxent_2state, lambda t: maxent_nstate(StateSpace.binary(), t)):
            try:
                sol = solve(target)
            except InfeasibleTargetError:
                infeasible.append(True)
                continue
            except ConvergenceError:
                infeasible.append(False)
                continue
            infeasible.append(False)
            assert sol.residual <= RESIDUAL_TOL
        assert infeasible[0] == infeasible[1]


class TestNumericSolver:
    def test_two_state_agreement_on_grid(self):
        binary = StateSpace.binary()
        for target in np.linspace(-0.95, 0.95, 39):
            numeric = maxent_nstate(binary, float(target))
            closed = maxent_2state(float(target))
            np.testing.assert_allclose(
                numeric.matrix.entries, closed.matrix.entries, atol=1e-8
            )
            assert abs(numeric.multiplier - closed.multiplier) < 1e-7

    def test_ternary_zero_target_is_uniform(self):
        sol = maxent_nstate(TERNARY, 0.0)
        np.testing.assert_allclose(sol.matrix.entries, 1 / 3, atol=1e-12)
        np.testing.assert_allclose(sol.stationary.mass, 1 / 3, atol=1e-12)
        assert sol.multiplier == pytest.approx(0.0, abs=1e-12)

    def test_ternary_against_frozen_oracle(self):
        np.testing.assert_allclose(
            maxent_nstate(TERNARY, 0.3).matrix.entries, ORACLE_W_03, atol=1e-4
        )
        np.testing.assert_allclose(
            maxent_nstate(TERNARY, -0.5).matrix.entries, ORACLE_W_M05, atol=1e-4
        )

    def test_ternary_against_live_oracle(self):
        target = 0.45
        np.testing.assert_allclose(
            maxent_nstate(TERNARY, target).matrix.entries,
            direct_oracle(target),
            atol=1e-4,
        )

    def test_ternary_against_scalar_reduction(self):
        # flip-symmetric states admit a one-variable reduction: with
        # a = exp(lam), the eigenvector ratio r solves a quadratic and the
        # autocorrelation follows in closed form -- an independent scalar check
        def acf_of_lam(lam):
            a = math.exp(lam)
            c = a + 1 / a - 1
            r = (c + math.sqrt(c * c + 8)) / 4
            rho = 2 * r + 1
            p1 = r * r / (2 * r * r + 1)
            return 2 * p1 * (a - 1 / a) / rho

        target = 0.3
        lam = brentq(lambda l: acf_of_lam(l) - target, -30, 30, xtol=1e-14)
        sol = maxent_nstate(TERNARY, target)
        assert sol.multiplier == pytest.approx(lam, abs=1e-9)

    def test_solution_invariants(self):
        for target in (-0.7, -0.2, 0.1, 0.55, 0.9):
            sol = maxent_nstate(TERNARY, target)
            assert sol.residual <= 1e-8
            acf = matrix_autocorrelation(sol.stationary, sol.matrix)
            assert abs(acf - target) <= 1e-8
            p = stationary_distribution(sol.matrix)
            np.testing.assert_allclose(p.mass, sol.stationary.mass, atol=1e-8)

    def test_monotone_stay_probability(self):
        targets = np.linspace(-0.9, 0.9, 19)
        stays = [maxent_nstate(StateSpace.binary(), float(a)).matrix.entries[0, 0] for a in targets]
        assert np.all(np.diff(stays) > 0)

    def test_flip_symmetry(self):
        # negating the target flips the sign of the multiplier, which is the
        # same as flipping the value of the *arrival* state: the solution for
        # -A is the solution for A with its columns reversed (for two states,
        # that exchanges the diagonal with the off-diagonal)
        for states in (StateSpace.binary(), TERNARY):
            for target in (0.25, 0.6):
                plus = maxent_nstate(states, target)
                minus = maxent_nstate(states, -target)
                np.testing.assert_allclose(
                    plus.matrix.entries, minus.matrix.entries[:, ::-1], atol=1e-9
                )
                np.testing.assert_allclose(
                    plus.stationary.mass, minus.stationary.mass, atol=1e-9
                )
                assert plus.multiplier == pytest.approx(-minus.multiplier, abs=1e-9)

    def test_optimality_against_random_reversible_chains(self, rng):
        target = 0.3
        sol = maxent_nstate(TERNARY, target)
        best = entropy_rate(sol.stationary, sol.matrix)
        checked = 0
        attempts = 0
        while checked < 10_000 and attempts < 200_000:
            attempts += 1
            pair = detailed_balance_pair(rng, TERNARY, target)
            if pair is None:
                continue
            w, p = pair
            assert abs(matrix_autocorrelation(p, w) - target) < 1e-9
            assert entropy_rate(p, w) <= best + 1e-6
            checked += 1
        assert checked == 10_000

    def test_boundary_rejection(self):
        with pytest.raises(InfeasibleTargetError):
            maxent_nstate(TERNARY, 1.0 - 5e-10)
        with pytest.raises(InfeasibleTargetError):
            maxent_nstate(TERNARY, -1.0)

    def test_unusual_state_scale_brackets(self):
        scaled = StateSpace((-0.1, 0.1))
        sol = maxent_nstate(scaled, 0.009)  # needs a multiplier beyond 50
        assert abs(matrix_autocorrelation(sol.stationary, sol.matrix) - 0.009) <= 1e-10


class TestBatchChecks:
    """``_maxent_batch`` raises for the first target that fails a check."""

    def test_names_the_first_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError, match="autocorrelation 2.0 is not"):
            solver._maxent_batch(TERNARY, [0.1, 2.0, 0.2, -3.0])

    def test_a_nan_target_is_infeasible(self):
        with pytest.raises(InfeasibleTargetError, match="autocorrelation nan"):
            solver._maxent_batch(TERNARY, [0.1, float("nan")])

    @pytest.mark.parametrize("first, message", [(-1, "root search missed the target autocorrelation 0.2"),
                                                (0, "solution at autocorrelation 0.2 rejected")])
    def test_names_the_first_target_that_misses_or_is_rejected(self, monkeypatch, first, message):
        rows = solver._residual_rows

        def failing(*args):
            conditions = rows(*args)
            conditions[1, first] = 1e-6  # the 2nd target fails one check ...
            conditions[3, -1 - first] = 1e-6  # ... and the 4th the other
            return conditions

        monkeypatch.setattr(solver, "_residual_rows", failing)
        with pytest.raises(ConvergenceError, match=message):
            solver._maxent_batch(TERNARY, [0.1, 0.2, 0.3, 0.4])


class TestFeasibleRange:
    def test_binary(self):
        fr = feasible_range(StateSpace.binary())
        assert (fr.lower, fr.upper) == (-1.0, 1.0)

    def test_ternary_matches_pair_enumeration(self):
        # extremal chains are two-state alternations (value product) or
        # parking in one state (value squared); enumerate all pairs
        x = TERNARY.as_array()
        products = [x[i] * x[j] for i in range(3) for j in range(3)]
        fr = feasible_range(TERNARY)
        assert fr.lower == min(products) == -1.0
        assert fr.upper == max(products) == 1.0

    def test_scaling(self):
        fr = feasible_range(StateSpace((-2.0, 2.0)))
        assert (fr.lower, fr.upper) == (-4.0, 4.0)

    def test_all_positive_states(self):
        fr = feasible_range(StateSpace((1.0, 2.0)))
        assert (fr.lower, fr.upper) == (1.0, 4.0)

    def test_contains_takes_a_number_or_an_array(self):
        fr = feasible_range(StateSpace.binary())
        assert fr.contains(0.5) and not fr.contains(1 - 1e-9) and not fr.contains(float("nan"))
        inside = fr.contains(np.array([-2.0, -1 + 2e-9, 0.0, 1 - 1e-9, np.nan]))
        assert inside.tolist() == [False, True, True, False, False]

    def test_clamp(self):
        fr = feasible_range(StateSpace.binary())
        assert fr.clamp(2.0, 1e-6) == 1.0 - 1e-6
        assert fr.clamp(-5.0, 1e-6) == -1.0 + 1e-6
        assert fr.clamp(0.3, 1e-6) == 0.3


class TestLagrangeResiduals:
    def test_uniform_with_zero_multiplier(self):
        sol = maxent_nstate(TERNARY, 0.0)
        res = lagrange_residuals(sol, TERNARY)
        assert res.max_violation <= 1e-12

    def test_closed_form_self_consistency(self):
        res = lagrange_residuals(maxent_2state(0.2), StateSpace.binary())
        assert res.cross <= 1e-12
        assert res.diagonal <= 1e-12

    def test_perturbation_is_detected(self):
        sol = maxent_nstate(TERNARY, 0.3)
        entries = np.array(sol.matrix.entries)
        entries[0, 0] += 0.01
        entries[0] /= entries[0].sum()
        from maxent_markov import Distribution, StochasticMatrix

        bad = MaxEntSolution(
            StochasticMatrix(entries, TERNARY),
            sol.stationary,
            sol.multiplier,
            sol.residual,
            sol.target_autocorrelation,
        )
        assert lagrange_residuals(bad, TERNARY).max_violation > 1e-3

    def test_zero_entry_reports_infinity(self):
        from maxent_markov import Distribution, StochasticMatrix

        w = StochasticMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), StateSpace.binary())
        sol = MaxEntSolution(w, Distribution.uniform(2), 0.5, 0.0, 1.0)
        res = lagrange_residuals(sol, StateSpace.binary())
        assert math.isinf(res.cross)


    def test_vectorized_conditions_equal_the_pair_loop(self):
        solutions = [(maxent_nstate(TERNARY, a), TERNARY) for a in (-0.5, 0.0, 0.3, 1 - 1e-6)]
        solutions += [(maxent_nstate(StateSpace((-2.0, 0.5, 1.0, 3.0)), 2.0), StateSpace((-2.0, 0.5, 1.0, 3.0)))]
        solutions += [(maxent_2state(0.2), StateSpace.binary())]
        for sol, states in solutions:
            got, expected = lagrange_residuals(sol, states), pairwise_residuals(sol, states)
            assert (got.diagonal, got.cross, got.row_sums, got.total_mass, got.detailed_balance) == (
                expected.diagonal,
                expected.cross,
                expected.row_sums,
                expected.total_mass,
                expected.detailed_balance,
            )
            # one sum over the pair fluxes, where matrix_autocorrelation uses einsum
            assert got.autocorrelation == pytest.approx(expected.autocorrelation, abs=4e-16 * 9)


class TestClampedEnds:
    """Targets ``1e-6`` inside either end of the feasible range (the estimators' clamp)."""

    def test_small_integer_spaces_solve_or_raise_the_typed_error(self):
        assert len(SMALL_INTEGER_SPACES) == 112
        solved = 0
        for states in SMALL_INTEGER_SPACES:
            bounds = feasible_range(states)
            ends = (bounds.lower + 1e-6, (bounds.lower + bounds.upper) / 2, bounds.upper - 1e-6)
            failed = False
            for target in ends:
                try:
                    sol = maxent_nstate(states, target)
                except ConvergenceError:
                    failed = True
                    continue
                assert np.all(np.isfinite(sol.matrix.entries)), (states, target)
                assert sol.residual <= RESIDUAL_TOL, (states, target)
            solved += not failed
        assert solved >= 108  # 110 at the time of writing; plain power refinement gives 102


@pytest.mark.xfail(strict=True, reason="asymmetric masses on spaces symmetric about 0 (ROADMAP item 2)")
@pytest.mark.parametrize(
    "values, target",
    [((-2, -1, 0, 1, 2), 4 - 1e-6), ((-3, -2, 0, 2, 3), 9 - 1e-3), ((-3, -1, 1, 3), 9 - 1e-6)],
)
def test_symmetric_spaces_give_flip_invariant_chains(values, target):
    # the entropy maximizer is unique, so on a space equal to its negation it commutes with x -> -x
    sol = maxent_nstate(StateSpace(values), target)
    p, entries = sol.stationary.mass, sol.matrix.entries
    assert np.abs(p - p[::-1]).max() <= 1e-15
    assert np.abs(entries - entries[::-1, ::-1]).max() <= 1e-15


class TestScalarOracle:
    """The batched Newton solve against the scalar bracket-and-brentq solve.

    Written tolerance: entries within 1e-13 at interior targets; within
    1e-9 at targets 1e-6 inside either end, where both solves must hit the
    target within ``TARGET_TOL``.
    """

    SPACES = [TERNARY, StateSpace((-2, -1, 0, 1, 2)), StateSpace((0, 1, 3)), StateSpace((-2, 0, 1)), StateSpace((-1, 2))]
    # not (-2..2): near its upper end the top two eigenvalues of the tilted
    # matrix are 5e-13 apart, so the split of mass between -2 and 2 is
    # ill-conditioned (both solves hit the target; the state-0 rows differ by 6e-4)
    END_SPACES = [TERNARY, StateSpace((0, 1, 3)), StateSpace((-2, 0, 1)), StateSpace((-1, 2)), StateSpace((-1, 0, 1, 2))]

    @pytest.mark.parametrize("states", SPACES, ids=str)
    def test_interior_targets(self, states):
        bounds = feasible_range(states)
        for target in np.linspace(bounds.lower, bounds.upper, 23)[1:-1]:
            lam, entries, _ = scalar_oracle(states, float(target))
            sol = maxent_nstate(states, float(target))
            assert np.abs(sol.matrix.entries - entries).max() <= 1e-13
            assert sol.multiplier == pytest.approx(lam, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("states", END_SPACES, ids=str)
    def test_targets_next_to_either_end(self, states):
        bounds = feasible_range(states)
        x = states.as_array()
        for target in (bounds.lower + 1e-6, bounds.upper - 1e-6, bounds.lower + 1e-7, bounds.upper - 1e-7):
            _, entries, p = scalar_oracle(states, target)
            sol = maxent_nstate(states, target)
            assert np.abs(sol.matrix.entries - entries).max() <= 1e-9
            assert abs(np.einsum("i,j,i,ij->", x, x, p, entries) - target) <= TARGET_TOL
            assert abs(matrix_autocorrelation(sol.stationary, sol.matrix) - target) <= TARGET_TOL


@st.composite
def spaces_and_targets(draw):
    """Strictly increasing spaces of 2..6 values on a tenth grid in [-3, 3], and targets.

    The targets are sorted: the two ends at ``1e-6`` inside the feasible
    range and interior points away from both ends.
    """
    ticks = draw(st.lists(st.integers(-30, 30), min_size=2, max_size=6, unique=True))
    states = StateSpace(tuple(t / 10 for t in sorted(ticks)))
    bounds = feasible_range(states)
    fractions = draw(st.lists(st.floats(0.02, 0.98), min_size=1, max_size=5))
    interior = [bounds.lower + f * (bounds.upper - bounds.lower) for f in fractions]
    return states, bounds.lower + 1e-6, sorted(interior), bounds.upper - 1e-6


def assert_is_maxent_chain(sol, states, target):
    entries, p = sol.matrix.entries, sol.stationary.mass
    np.testing.assert_allclose(entries.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)
    assert detailed_balance_residual(sol.stationary, sol.matrix) <= 1e-12
    assert sol.residual <= 1e-8
    assert lagrange_residuals(sol, states).max_violation <= 1e-8
    assert abs(matrix_autocorrelation(sol.stationary, sol.matrix) - target) <= max(TARGET_TOL, 1e-9 * abs(target))


class TestSolverProperties:
    @settings(max_examples=150, deadline=None)
    @given(spaces_and_targets())
    # targets 1 ulp apart whose multipliers come out 3 ulp inverted
    @example(case=(StateSpace((-1.2, -0.2, 0.0, 1.6)), -1.919999, [-1.8304, -1.8303999999999998], 2.5599990000000004))
    def test_solutions_are_reversible_maxent_chains(self, case):
        states, low_end, interior, high_end = case
        multipliers = []
        for target in interior:  # away from the ends every target solves
            sol = maxent_nstate(states, target)
            assert_is_maxent_chain(sol, states, target)
            multipliers.append(sol.multiplier)
        # A(lam) is nondecreasing and each solve settles within 4 ulp * max|x_i x_j| of its
        # target, so sorted targets can have inverted multipliers only within two such tolerances
        x = states.as_array()
        settled = 4 * np.finfo(float).eps * np.abs(np.multiply.outer(x, x)).max()
        for (ta, la), (tb, lb) in zip(zip(interior, multipliers), zip(interior[1:], multipliers[1:])):
            assert la <= lb or tb - ta <= 2 * settled
        for target in (low_end, high_end):  # at the ends: a solution, or the typed error
            try:
                sol = maxent_nstate(states, target)
            except ConvergenceError:
                continue
            assert_is_maxent_chain(sol, states, target)
            assert (sol.multiplier <= multipliers[0]) if target == low_end else (sol.multiplier >= multipliers[-1])


def test_solver_import_leaves_scipy_optimize_out():
    code = "import sys, maxent_markov.solver; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
