"""Maximum-entropy estimation of Markov chains from short samples.

Estimates transition matrices either by transition counting or by the
maximum-entropy chain matching the sample one-step autocorrelation,
quantifies analytically when the second beats the first, tracks smoothly
drifting chains with sliding windows, and backtests multi-step tail
forecasts of discretized return series.
"""

import os

# OpenBLAS worker threads busy-wait ~0.1 s after they start (at numpy's
# import) and after every threaded call.  The matrices here are too small to
# gain from that, and in a short CLI run the spin burns a second core during
# the first command.  Unless the user set it, shorten it to the minimum; it
# reaches OpenBLAS only if numpy is not imported yet.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .accuracy import (
    accuracy_gain,
    critical_sample_size,
    critical_size_map,
    folded_normal_stats,
    maxent_error_stats,
    mu_curve,
    sampling_error_stats,
)
from .chains import (
    Distribution,
    ReducibleChainError,
    StateSequence,
    StateSpace,
    StochasticMatrix,
    detailed_balance_residual,
    entropy_rate,
    is_irreducible,
    matrix_autocorrelation,
    simulate,
    stationary_distribution,
)
from .estimators import (
    frequency_estimate,
    maxent_entries,
    maxent_estimate,
    sample_autocorrelation,
    sliding_window,
)
from .forecast import (
    StepDistribution,
    TailCentiles,
    backtest,
    realized_centile_fractions,
    step_distribution,
    symmetrized_centiles,
    tail_bins,
    tail_error,
)
from .ingest import (
    PriceDataError,
    PriceSeries,
    ReturnSeries,
    discretize,
    load_prices,
    load_states,
    resample,
    to_returns,
    write_states,
)
from .nonstationary import (
    TimeVaryingMatrix,
    autocorrelation_cycle,
    generate_nonstationary,
    generate_time_varying,
    toy_matrix,
    toy_process,
    tracking_experiment,
)
from .solver import (
    ConvergenceError,
    InfeasibleTargetError,
    MaxEntSolution,
    feasible_range,
    lagrange_residuals,
    maxent_2state,
    maxent_nstate,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "Distribution",
    "InfeasibleTargetError",
    "MaxEntSolution",
    "PriceDataError",
    "PriceSeries",
    "ReducibleChainError",
    "ReturnSeries",
    "StateSequence",
    "StateSpace",
    "StepDistribution",
    "StochasticMatrix",
    "TailCentiles",
    "TimeVaryingMatrix",
    "accuracy_gain",
    "autocorrelation_cycle",
    "backtest",
    "critical_sample_size",
    "critical_size_map",
    "detailed_balance_residual",
    "discretize",
    "entropy_rate",
    "feasible_range",
    "folded_normal_stats",
    "frequency_estimate",
    "generate_nonstationary",
    "generate_time_varying",
    "is_irreducible",
    "lagrange_residuals",
    "load_prices",
    "load_states",
    "matrix_autocorrelation",
    "maxent_2state",
    "maxent_entries",
    "maxent_error_stats",
    "maxent_estimate",
    "maxent_nstate",
    "mu_curve",
    "realized_centile_fractions",
    "resample",
    "sample_autocorrelation",
    "sampling_error_stats",
    "simulate",
    "sliding_window",
    "stationary_distribution",
    "step_distribution",
    "symmetrized_centiles",
    "tail_bins",
    "tail_error",
    "to_returns",
    "toy_matrix",
    "toy_process",
    "tracking_experiment",
    "write_states",
]
