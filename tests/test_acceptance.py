"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runs the full-scale experiments (grids, Monte-Carlo sweeps, multi-seed
backtests) at the sizes and tolerances the package commits to.  Slower
than the unit suites by design; everything is seeded and deterministic.
"""

import itertools
import math
import time

import numpy as np
import pytest

from maxent_markov import (
    Distribution,
    StateSpace,
    StochasticMatrix,
    autocorrelation_cycle,
    backtest,
    critical_size_map,
    generate_time_varying,
    matrix_autocorrelation,
    maxent_2state,
    maxent_error_stats,
    maxent_nstate,
    mu_curve,
    realized_centile_fractions,
    sampling_error_stats,
    simulate,
    stationary_distribution,
    step_distribution,
    symmetrized_centiles,
    tail_error,
    tracking_experiment,
)
from maxent_markov.chains import simulate_batch
from maxent_markov.forecast import TailCentiles

TERNARY = StateSpace.ternary()
BINARY = StateSpace.binary()


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_closed_form_equivalence():
    """Numeric solver reproduces the 2-state closed form to 1e-8."""
    start = time.perf_counter()
    worst = 0.0
    for target in (-0.9, -0.5, 0.0, 0.2, 0.5, 0.9):
        numeric = maxent_nstate(BINARY, target).matrix.entries
        closed = maxent_2state(target).matrix.entries
        worst = max(worst, float(np.abs(numeric - closed).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    report(1, ok, f"max deviation {worst:.2e} (tol 1e-8), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_2_two_state_favorable_fraction():
    """mu(50) = 0.15 +- 0.05 on the 100x100 open grid, concentrated near the diagonal."""
    start = time.perf_counter()
    grid_map = critical_size_map(resolution=100, cap=500)
    weighted = grid_map.weighted
    mu50 = float(np.mean(weighted >= 50))
    band = np.abs(grid_map.stay_down - grid_map.stay_up) < 0.1
    band_mean = float(weighted[band].mean())
    off_mean = float(weighted[~band].mean())
    elapsed = time.perf_counter() - start
    ok = abs(mu50 - 0.15) <= 0.05 and band_mean > off_mean and elapsed < 300
    report(
        2,
        ok,
        f"mu(50) = {mu50:.4f} (0.15 +- 0.05), diagonal band mean nc {band_mean:.1f} "
        f"vs off-band {off_mean:.1f}, runtime {elapsed:.1f}s (< 300s)",
    )


def test_criterion_3_three_state_favorable_fraction():
    """Monte-Carlo mu(50) < 0.10; high-entropy strata dominate the population."""
    start = time.perf_counter()
    sizes = (10, 20, 30, 40, 50)
    curves = mu_curve(
        3, sizes, samples=2000, replicates=200, seed=20240817, stratify=True
    )
    full = curves[-1]
    assert full.stratum == 5
    mu50 = float(full.fractions[-1])
    dominating = 0
    for curve in curves:
        if np.all(curve.fractions >= full.fractions - 1e-12):
            dominating += 1
    elapsed = time.perf_counter() - start
    ok = mu50 < 0.10 and dominating >= 4 and elapsed < 1800
    strata_mu50 = ", ".join(f"q{c.stratum}={c.fractions[-1]:.3f}" for c in curves)
    report(
        3,
        ok,
        f"full-population mu(50) = {mu50:.4f} (< 0.10), dominating strata "
        f"{dominating}/5 (need >= 4), mu(50) by stratum: {strata_mu50}, "
        f"runtime {elapsed:.0f}s (< 1800s)",
    )


def _monte_carlo_mean_errors(w: StochasticMatrix, n: int, replicates: int, rng):
    """Replicate both estimators on simulated samples; mean |error| per coefficient."""
    p = stationary_distribution(w).mass
    paths = simulate_batch(w.entries, p, n, replicates, rng)
    x = BINARY.as_array()
    values = x[paths]
    acf = (values[:, :-1] * values[:, 1:]).mean(axis=1)
    acf = np.clip(acf, -1 + 1e-6, 1 - 1e-6)
    stay = (1 + acf) / 2
    est = np.empty((replicates, 2, 2))
    est[:, 0, 0] = stay
    est[:, 0, 1] = 1 - stay
    est[:, 1, 0] = 1 - stay
    est[:, 1, 1] = stay
    maxent_err = np.abs(est - w.entries).mean(axis=0)

    codes = paths[:, :-1] * 2 + paths[:, 1:]
    offsets = (np.arange(replicates) * 4)[:, None]
    counts = np.bincount((codes + offsets).ravel(), minlength=replicates * 4)
    counts = counts.reshape(replicates, 2, 2).astype(float)
    row = counts.sum(axis=2, keepdims=True)
    freq = np.where(row > 0, counts / np.maximum(row, 1), 0.5)
    sampling_err = np.abs(freq - w.entries).mean(axis=0)
    return maxent_err, sampling_err


def test_criterion_4_analytic_error_formulas_vs_simulation():
    """Folded-normal predictions within 15% of 10^4-replicate Monte-Carlo."""
    rng = np.random.default_rng(42)
    matrices = {
        "compatible(A=0.2)": StochasticMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]), BINARY),
        "tilted": StochasticMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]), BINARY),
    }
    worst = 0.0
    worst_at = ""
    for name, w in matrices.items():
        for n in (25, 50, 100):
            mc_me, mc_samp = _monte_carlo_mean_errors(w, n, 10_000, rng)
            an_me = maxent_error_stats(w, n).means
            an_samp = sampling_error_stats(w, n).means
            rel_me = float((np.abs(mc_me - an_me) / an_me).max())
            rel_samp = float((np.abs(mc_samp - an_samp) / an_samp).max())
            for rel, tag in ((rel_me, "maxent"), (rel_samp, "sampling")):
                if rel > worst:
                    worst = rel
                    worst_at = f"{name} n={n} {tag}"
    ok = worst <= 0.15
    report(4, ok, f"worst relative deviation {worst:.3f} at {worst_at} (tol 0.15)")


def test_criterion_5_nonstationary_tracking():
    """Window-50 maxent tracks the drifting coefficient better than sampling."""
    start = time.perf_counter()
    report_data = tracking_experiment(500, 5000, 50, seeds=range(20))
    wins = int(
        (report_data.per_seed_mae["maxent"] < report_data.per_seed_mae["sampling"]).sum()
    )
    pooled_ok = report_data.mae["maxent"] < report_data.mae["sampling"]
    elapsed = time.perf_counter() - start
    ok = wins >= 18 and pooled_ok and elapsed < 60
    report(
        5,
        ok,
        f"maxent wins {wins}/20 seeds (need >= 18), pooled MAE "
        f"{report_data.mae['maxent']:.4f} vs {report_data.mae['sampling']:.4f}, "
        f"runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_6_forecast_oracle_equivalence():
    """Step distributions match exhaustive path enumeration; tail mass exact."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    worst_tail = 0.0
    x = TERNARY.as_array()
    for _ in range(100):
        entries = rng.dirichlet(np.ones(3), size=3)
        w = StochasticMatrix(entries, TERNARY)
        origin = int(rng.integers(3))
        horizon = int(rng.integers(1, 7))
        q = step_distribution(w, origin, horizon)
        sums: dict[int, float] = {}
        for path in itertools.product(range(3), repeat=horizon):
            prob = 1.0
            current = origin
            total = 0
            for nxt in path:
                prob *= entries[current, nxt]
                total += int(x[nxt])
                current = nxt
            sums[total] = sums.get(total, 0.0) + prob
        mass = q.mass
        dev = max(abs(mass.get(k, 0.0) - v) for k, v in sums.items())
        worst = max(worst, dev)
        pi = symmetrized_centiles(q)
        worst_tail = max(worst_tail, abs(float(pi.pi.sum()) - 0.2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and worst_tail <= 1e-12 and elapsed < 60
    report(
        6,
        ok,
        f"max path-enumeration deviation {worst:.2e} (tol 1e-12), max |sum pi - 0.2| "
        f"{worst_tail:.2e}, runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_7_backtest_ordering():
    """Short-window tail errors: maxent beats sampling (n <= 40) and naive (all n)."""
    start = time.perf_counter()
    sizes = (10, 20, 30, 40)
    n_seeds = 10
    process = autocorrelation_cycle(TERNARY, period=500, amplitude=0.4)
    totals = {m: np.zeros(len(sizes)) for m in ("maxent", "sampling", "naive")}
    for seed in range(n_seeds):
        series = generate_time_varying(process, 50_000, seed=seed)
        result = backtest(series, TERNARY, sizes, horizon=8, stride=25)
        for m in totals:
            totals[m] += result.delta[m]
    means = {m: totals[m] / n_seeds for m in totals}
    beats_sampling = bool(np.all(means["maxent"] < means["sampling"]))
    beats_naive = bool(np.all(means["maxent"] < means["naive"]))
    elapsed = time.perf_counter() - start
    ok = beats_sampling and beats_naive and elapsed < 600
    lines = "; ".join(
        f"n={n}: me={means['maxent'][i]:.2f} samp={means['sampling'][i]:.2f} "
        f"naive={means['naive'][i]:.2f}"
        for i, n in enumerate(sizes)
    )
    report(
        7,
        ok,
        f"{lines}; maxent<sampling: {beats_sampling}, maxent<naive: {beats_naive}, "
        f"runtime {elapsed:.0f}s (< 600s)",
    )


def test_criterion_8_realized_fraction_self_consistency():
    """Realized fractions from the predicted chain match the predicted centiles."""
    rng = np.random.default_rng(99)
    entries = rng.dirichlet(np.ones(3), size=3)
    w = StochasticMatrix(entries, TERNARY)
    horizon = 5
    origin_state = 0
    series = simulate(w, Distribution.uniform(3), 140_000, seed=555)
    origins = []
    last = -horizon - 1
    for t in range(len(series) - horizon):
        if series.indices[t] == origin_state and t >= last + horizon:
            origins.append(t)
            last = t
        if len(origins) == 10_000:
            break
    assert len(origins) == 10_000
    q = step_distribution(w, origin_state, horizon)
    realized = realized_centile_fractions(series, TERNARY, origins, horizon, q)
    se = math.sqrt(0.02 * 0.98 / len(origins))
    max_dev = float(np.abs(realized.pi - 0.02).max())
    delta = tail_error(TailCentiles(np.full(10, 0.02)), realized)
    ok = max_dev <= 3 * se
    report(
        8,
        ok,
        f"max |pihat - pi| = {max_dev:.5f} over 10^4 origins "
        f"(3 binomial SE = {3 * se:.5f}), pooled tail error {delta:.3f}",
    )
