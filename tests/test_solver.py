import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from maxent_markov import (
    ConvergenceError,
    InfeasibleTargetError,
    StateSpace,
    entropy_rate,
    feasible_range,
    lagrange_residuals,
    matrix_autocorrelation,
    maxent_2state,
    maxent_nstate,
    stationary_distribution,
)
from maxent_markov.solver import MaxEntSolution

from conftest import detailed_balance_pair

TERNARY = StateSpace.ternary()

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

