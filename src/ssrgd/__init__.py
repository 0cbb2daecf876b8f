"""Perturbed stochastic recursive gradient descent (SSRGD) for nonconvex
finite-sum and online problems, with baseline optimizers, second-order
stationarity certification, analysis-validation diagnostics, and an
experiment harness."""

from .algorithm import (
    SsrgdOutcome,
    Termination,
    derive_config,
    random_stop_decision,
    run_ssrgd,
)
from .baselines import BaselineKind, run_baseline
from .core import (
    ConfigError,
    Event,
    Mode,
    NonFiniteError,
    OptState,
    ProblemSpec,
    RunConfig,
    SfoCounter,
    TraceRecord,
    sample_minibatch,
    sample_uniform_ball,
    seeded_rng,
)
from .estimators import (
    full_gradient,
    large_batch_gradient,
    recursive_step,
    svrg_step,
)
from .problems import (
    ProblemInstance,
    load_libsvm,
    make_nonconvex_logistic,
    make_online_stream,
    make_quadratic,
    make_separable_saddle,
)
from .spectral import Certificate, certify, lambda_min_dense, lambda_min_power

__version__ = "0.1.0"

__all__ = [
    "BaselineKind",
    "Certificate",
    "ConfigError",
    "Event",
    "Mode",
    "NonFiniteError",
    "OptState",
    "ProblemInstance",
    "ProblemSpec",
    "RunConfig",
    "SfoCounter",
    "SsrgdOutcome",
    "Termination",
    "TraceRecord",
    "certify",
    "derive_config",
    "full_gradient",
    "lambda_min_dense",
    "lambda_min_power",
    "large_batch_gradient",
    "load_libsvm",
    "make_nonconvex_logistic",
    "make_online_stream",
    "make_quadratic",
    "make_separable_saddle",
    "random_stop_decision",
    "recursive_step",
    "run_baseline",
    "run_ssrgd",
    "sample_minibatch",
    "sample_uniform_ball",
    "seeded_rng",
    "svrg_step",
]
