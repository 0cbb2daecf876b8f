"""Reference optimizers on the same oracle and trace interfaces.

Four kinds: full-batch gradient descent (``gd``), its perturbed variant
(``perturbed_gd``), constant-step minibatch SGD (``sgd``), and snapshot
SVRG (``svrg``).  All return ``SsrgdOutcome`` so any analysis that consumes
an SSRGD trace consumes these unchanged.

The perturbed variant runs the same ``core.SuperEpoch`` code as the main
algorithm (gradient threshold, uniform-ball kick, f-decrease or timeout
exit) rather than the original schedule of that method, so ablations
isolate the estimator difference.  SGD uses a constant step size; its
trace rows log the exact full gradient every ``eval_every`` steps as an
out-of-band measurement that is not charged to the SFO count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, estimators
from .algorithm import SsrgdOutcome, Termination
from .core import (
    ConfigError,
    Event,
    Mode,
    ProblemSpec,
    SfoCounter,
    SuperEpoch,
    TraceRecord,
    UnsupportedOracleError,
    Vector,
)

KINDS = ("gd", "perturbed_gd", "sgd", "svrg")

# SGD draws its minibatches this many steps at a time (fewer near the end).
SGD_CHUNK = 256


@dataclass
class BaselineKind:
    """Which baseline to run and the parameters that kind needs."""

    kind: str
    step_size: float
    minibatch: int = 1
    epoch_len: int | None = None
    perturb_radius: float = 0.0
    grad_threshold: float = 0.0
    fval_threshold: float = math.inf
    super_epoch_len: int = 0
    eval_every: int = 50
    seed: int = 0
    max_iters: int | None = None

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown baseline kind {self.kind!r}; valid: {KINDS}")
        core.check_settings(self)
        if self.kind == "svrg" and self.epoch_len is None:
            raise ConfigError("svrg needs epoch_len")
        if self.kind == "perturbed_gd":
            self.super_epoch().check("perturbed_gd")

    def iters_left(self, t: int) -> float:
        """The steps ``max_iters`` leaves after t; inf without a cap."""
        return math.inf if self.max_iters is None else self.max_iters - t

    def super_epoch(self) -> SuperEpoch:
        """Super-epoch state for ``perturbed_gd``; inert (radius 0) for the other kinds."""
        radius = self.perturb_radius if self.kind == "perturbed_gd" else 0.0
        return SuperEpoch(radius, self.grad_threshold, self.fval_threshold, self.super_epoch_len)


def run_baseline(
    kind: BaselineKind,
    problem: ProblemSpec,
    sfo_budget: int,
    *,
    x0: Vector | None = None,
    full_trace: bool = True,
) -> SsrgdOutcome:
    """Run the requested baseline under an SFO budget, on the stream
    ``core.seeded_rng(kind.seed, 0)``."""
    kind.validate()
    core.check_setting("sfo_budget", sfo_budget)
    rng = core.seeded_rng(kind.seed, 0)
    x = core.initial_point(x0, problem.d)
    if kind.kind in ("gd", "perturbed_gd"):
        return _run_gd(kind, problem, sfo_budget, rng, x)
    if kind.kind == "sgd":
        return _run_sgd(kind, problem, sfo_budget, rng, x)
    return _run_svrg(kind, problem, sfo_budget, rng, x, full_trace)


def _run_gd(kind, problem, budget, rng, x):
    if problem.mode is not Mode.FINITE_SUM:
        raise UnsupportedOracleError("gd variants need the finite-sum full gradient")
    sfo = SfoCounter()
    trace: list[TraceRecord] = []
    candidates: list[tuple[int, Vector]] = []
    se = kind.super_epoch()
    t = 0
    term = Termination.BUDGET_EXHAUSTED
    while sfo.raw < budget:
        if kind.iters_left(t) <= 0:
            term = Termination.MAX_EPOCHS
            break
        g = estimators.full_gradient(problem, x, sfo=sfo)
        gn = float(np.linalg.norm(g))
        f = float(problem.value(x))
        trace.append(TraceRecord(t, f, gn, sfo.raw, se.exit_event(t, f)))
        if se.triggers(gn):
            candidates.append((t, x.copy()))
            x = se.start(rng, t, x, f)
            g = estimators.full_gradient(problem, x, sfo=sfo)
            trace.append(
                TraceRecord(t, float(problem.value(x)), float(np.linalg.norm(g)), sfo.raw, Event.PERTURBATION)
            )
        t += 1
        x = x - kind.step_size * g
        core.ensure_finite(x, "iterate", trace, t)
    return SsrgdOutcome(
        final_x=x, trace=trace, sosp_candidates=candidates,
        termination=term, sfo_raw=sfo.raw, sfo_nominal=sfo.nominal,
    )


def _run_sgd(kind, problem, budget, rng, x):
    sfo = SfoCounter()
    trace: list[TraceRecord] = []
    t = 0
    term = Termination.BUDGET_EXHAUSTED

    def measure(iteration):
        # out-of-band exact measurement, deliberately not SFO-charged
        if problem.mode is Mode.FINITE_SUM:
            gn = float(np.linalg.norm(problem.full_grad(x)))
        else:
            gn = None
        trace.append(TraceRecord(iteration, float(problem.value(x)), gn, sfo.raw, Event.NONE))

    b = kind.minibatch
    measure(0)
    while sfo.raw < budget:
        if kind.iters_left(t) <= 0:
            term = Termination.MAX_EPOCHS
            break
        steps = core.steps_left(min(SGD_CHUNK, kind.iters_left(t)), budget - sfo.raw, b)
        for batch in core.sample_minibatch(rng, problem.n, b, steps=steps):
            g = np.add.reduce(estimators.component_gradients(problem, batch, x), axis=0) / b
            sfo.add(b)
            t += 1
            x = x - kind.step_size * g
            core.ensure_finite(x, "iterate", trace, t)
            if t % kind.eval_every == 0:
                measure(t)
    if trace[-1].iteration != t:
        measure(t)
    return SsrgdOutcome(
        final_x=x, trace=trace, termination=term,
        sfo_raw=sfo.raw, sfo_nominal=sfo.nominal,
    )


def _run_svrg(kind, problem, budget, rng, x, full_trace):
    if problem.mode is not Mode.FINITE_SUM:
        raise UnsupportedOracleError("svrg needs the finite-sum full gradient")
    sfo = SfoCounter()
    trace: list[TraceRecord] = []
    t = 0
    term = Termination.BUDGET_EXHAUSTED
    f_x = None  # f at the current x once a row has evaluated it; None after x moves
    while sfo.raw < budget:
        if kind.iters_left(t) <= 0:
            term = Termination.MAX_EPOCHS
            break
        anchor_grad = estimators.full_gradient(problem, x, sfo=sfo)
        if f_x is None:
            f_x = float(problem.value(x))
        trace.append(TraceRecord(t, f_x, float(np.linalg.norm(anchor_grad)), sfo.raw, Event.EPOCH_START))
        # the block holds only the steps the budget and the cap leave (none
        # when the anchor spent the budget); the tests above then stop the run
        k = core.steps_left(min(kind.epoch_len, kind.iters_left(t)), budget - sfo.raw, 2 * kind.minibatch)
        batches = core.sample_minibatch(rng, problem.n, kind.minibatch, steps=k)
        steps = estimators.descend(problem, x, anchor_grad, kind.step_size, batches, sfo, snapshot=True)
        for x, _, _ in steps:
            t += 1
            f_x = None
            core.ensure_finite(x, "iterate", trace, t)
            if full_trace:
                f_x = float(problem.value(x))
                trace.append(TraceRecord(t, f_x, None, sfo.raw, Event.NONE))
    return SsrgdOutcome(
        final_x=x, trace=trace, termination=term,
        sfo_raw=sfo.raw, sfo_nominal=sfo.nominal,
    )
