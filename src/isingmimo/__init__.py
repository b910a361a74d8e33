"""MIMO detection with Ising-machine heuristics and classical baselines.

The library simulates BPSK / square M-QAM transmissions over random fading
channels, maps detection onto binary-spin or symbol-native Hamiltonians,
solves them with probabilistic or oscillator dynamics, and benchmarks the
results against zero-forcing, MMSE, and an exact sphere decoder.
"""

__version__ = "0.1.0"

from .baselines import (
    ChannelFactors,
    DetectionResult,
    SearchBudgetError,
    SingularChannelError,
    ml_exact,
    ml_exhaustive,
    mmse_detect,
    zf_detect,
)
from .channel import (
    MimoInstance,
    RealizedChannel,
    build_instance,
    channel_instances,
    complex_symbols,
    derive_rng,
    derive_seed,
    generate_channel,
    noise_sigma_sq,
    realify,
    transmit,
)
from .constellation import (
    Constellation,
    build_constellation,
    decide,
    demodulate_symbols,
    modulate_bits,
    pam_levels,
)
from .harness import (
    BerPoint,
    BetaSweepResult,
    ExperimentPlan,
    ScalingFit,
    ber_upper_bound,
    beta_sweep,
    fit_scaling_law,
    plan_experiment,
    report,
    run_ber_sweep,
)
from .ising_map import (
    IsingModel,
    build_binary_model,
    build_pdit_model,
    spin_weights,
    spins_to_symbols,
    symbols_to_spins,
)
from .solvers import (
    AnnealSchedule,
    OimParams,
    SolveOutcome,
    SolverConfig,
    default_parameters,
    solve_many,
)
