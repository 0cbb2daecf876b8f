"""The SSRGD optimizer: perturbed stochastic recursive gradient descent.

Epoch structure: every epoch s starts by computing an anchor gradient at
x_{sm} (the exact full gradient in finite-sum mode, a large-batch estimate
online) and then runs up to ``epoch_len`` inner steps

    x_t = x_{t-1} - step_size * v_{t-1},
    v_t = recursive minibatch update of v_{t-1},

ending early, outside super epochs, with probability 1/(m-k+1) at inner
step k, which makes the stopping index uniform over the epoch.

Super epochs (``core.SuperEpoch``): when the algorithm is not already
inside one and the anchor gradient norm is at most ``grad_threshold``, it
records the trigger point, adds a perturbation drawn uniformly from the
ball of radius ``perturb_radius``, and suppresses random stopping until
either the function value has dropped by ``fval_threshold`` below the
trigger point or ``super_epoch_len`` steps have elapsed.  After a timeout
the run simply continues; the event is logged for diagnostics.

Termination is an artifact addition: an SFO budget, an optional iteration
cap, and an optional certification hook evaluated at each super-epoch
trigger point (the hook is kept out of the inner loop on
purpose; escaping saddle points needs no curvature search).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

from . import core, estimators
from .core import (
    ConfigError,
    Event,
    InvalidInputError,
    Mode,
    OptState,
    ProblemSpec,
    RunConfig,
    STEP_FACTOR_LIMIT,
    SfoCounter,
    TraceRecord,
    Vector,
)

logger = logging.getLogger("ssrgd")

DEFAULT_SFO_BUDGET = 10**12


def _ceil_sqrt(n: float) -> int:
    n = int(n)
    return max(1, math.isqrt(n - 1) + 1) if n > 1 else 1


class Termination(str, Enum):
    BUDGET_EXHAUSTED = "budget_exhausted"
    SOSP_CERTIFIED = "sosp_certified"
    MAX_ITERS = "max_iters"


@dataclass
class SsrgdOutcome:
    """Result of one optimizer run (shared by the baselines).

    ``sosp_candidates`` lists the (iteration, point) pairs at which a super
    epoch was triggered, i.e. the anchor gradient fell under the threshold.
    ``sfo_raw`` counts every component-gradient evaluation; ``sfo_nominal``
    uses the complexity-statement convention (b per estimator step).
    """

    final_x: Vector
    trace: list[TraceRecord]
    sosp_candidates: list[tuple[int, Vector]] = field(default_factory=list)
    termination: Termination = Termination.BUDGET_EXHAUSTED
    sfo_raw: int = 0
    sfo_nominal: int = 0
    certificate: Any = None


def super_epoch_params(
    problem: ProblemSpec, eps: float, delta: float, logfactor: float, step_size: float
) -> dict:
    """The four super-epoch settings for an (eps, delta) target:
    grad_threshold = eps; fval_threshold = logfactor * delta^3/rho^2;
    super_epoch_len = ceil(logfactor/(step_size * delta)); perturb_radius =
    logfactor * min(delta^3/(rho^2 eps), delta^(3/2)/(rho sqrt(L)))."""
    core.check_values(eps=eps, delta=delta, logfactor=logfactor)  # math.ceil below needs them finite
    rho = problem.lipschitz_hess
    if rho <= 0:
        raise ConfigError("second-order mode needs a positive Hessian Lipschitz constant")
    L = problem.lipschitz_grad
    try:  # a float power overflows, a product can underflow to a 0 divisor, and ceil(inf) fails
        return dict(
            perturb_radius=logfactor * min(delta**3 / (rho**2 * eps), delta**1.5 / (rho * math.sqrt(L))),
            grad_threshold=eps,
            fval_threshold=logfactor * delta**3 / rho**2,
            super_epoch_len=math.ceil(logfactor / (step_size * delta)),
        )
    except (OverflowError, ZeroDivisionError):
        raise ConfigError(
            f"eps {eps:g}, delta {delta:g}: constraint violated: the super-epoch settings are finite floats"
        ) from None


def derive_config(
    problem: ProblemSpec, eps: float, delta: float | None = None, logfactor: float = 1.0, *,
    sfo_budget: int = DEFAULT_SFO_BUDGET, seed: int = 0,
) -> RunConfig:
    """The one parameter derivation, keyed on the component count and the order.

    The anchor batch is n for a finite sum and B = logfactor * 4 sigma^2/eps^2
    online (n = inf), and m = b = ceil(sqrt(anchor)).  First order (``delta``
    None) uses logfactor = 1: step size (sqrt(5)-1)/(2L), no perturbation.
    Second order caps logfactor/L at that step size and adds
    ``super_epoch_params``.
    """
    online = problem.mode is Mode.ONLINE
    second = delta is not None
    core.check_setting("eps", eps)
    if not second:
        logfactor = 1.0
    eta = min(logfactor, STEP_FACTOR_LIMIT) / problem.lipschitz_grad
    super_epoch = super_epoch_params(problem, eps, delta, logfactor, eta) if second else {}
    anchor = problem.n
    if online:
        try:  # a float power overflows, eps**2 can underflow to 0, and ceil(inf) fails
            anchor = max(1, math.ceil(logfactor * 4.0 * problem.variance_bound**2 / eps**2))
        except (OverflowError, ZeroDivisionError):
            raise ConfigError(f"eps {eps:g}: constraint violated: 4 logfactor sigma^2/eps^2 is a finite float") from None
    m = _ceil_sqrt(anchor)
    return RunConfig(
        step_size=eta, epoch_len=m, minibatch=m, eps=eps, sfo_budget=sfo_budget, seed=seed,
        large_batch=anchor if online else None, delta=delta if second else 0.0,
        logfactor=logfactor, **super_epoch,
    )


# The benchmark workloads still call these names; ROADMAP item 1 deletes this line.
derive_config_first_order = derive_config_second_order = derive_config_online_first_order = derive_config


def random_stop_decision(rng: np.random.Generator, k: int, epoch_len: int) -> bool:
    """True with probability exactly 1/(m - k + 1); always true at k = m.

    Chaining these decisions over an epoch makes the stopping index uniform
    on {1, ..., m}.
    """
    if not 1 <= k <= epoch_len:
        raise InvalidInputError(f"inner step {k} outside [1, {epoch_len}]")
    return rng.random() < 1.0 / (epoch_len - k + 1)


def run_ssrgd(
    problem: ProblemSpec,
    cfg: RunConfig,
    *,
    x0: Vector | None = None,
    certifier: Callable[[Vector], Any] | None = None,
    full_trace: bool = True,
    step_callback: Callable[[OptState, Event], None] | None = None,
) -> SsrgdOutcome:
    """Run SSRGD until the SFO budget, the iteration cap, or a certified point.

    ``full_trace=False`` records rows only at epoch starts and events,
    which keeps long runs cheap; the algorithm's path is identical either
    way.  ``certifier`` (if given) receives each super-epoch trigger point
    and ends the run when it reports ``is_sosp``.  ``step_callback`` is
    invoked with an ``OptState`` snapshot and the step's event after every
    iterate update, including the perturbation itself.

    Each epoch is an anchor (x, g), perturbed if a super epoch starts, and
    ``estimators.descend`` over the ``core.steps_left`` of m steps that start below the SFO
    budget and ``cfg.max_iters``; an epoch so cut ends the run, as ``MAX_ITERS`` unless the
    budget is spent.  All draws come from ``core.seeded_rng(cfg.seed, 0)``: per step the
    minibatch, then (outside a super epoch) the random stop; one ``core.epoch_block`` holds a
    finite-sum epoch's, drawn lazily online or if it declines.  ``cfg.snapshot`` runs SVRG,
    the estimator anchored at (x, g) with no stop, on one ``core.sample_minibatch`` block per
    epoch.  The iterate and the gradient estimate are checked together, by one finite dot
    product; a non-finite value raises ``NonFiniteError`` naming the iterate first.
    """
    cfg.validate(problem)
    rng = core.seeded_rng(cfg.seed, 0)
    x = core.initial_point(x0, problem.d)

    online = problem.mode is Mode.ONLINE
    sfo = SfoCounter()
    trace: list[TraceRecord] = []
    candidates: list[tuple[int, Vector]] = []
    termination = Termination.BUDGET_EXHAUSTED
    certificate = None
    se = cfg.super_epoch()
    iters = cfg.max_iters or math.inf
    t = 0
    box = problem.domain_radius  # None if undeclared or once an iterate has left it
    f_x = None  # f at the current x once a row has evaluated it; None after x moves

    def anchor(xp: Vector) -> Vector:
        if online:
            g = estimators.large_batch_gradient(problem, xp, cfg.large_batch, rng, sfo=sfo)
        else:
            g = estimators.full_gradient(problem, xp, sfo=sfo)
        core.ensure_finite(g, "anchor gradient", trace, t)
        return g

    while True:
        if sfo.raw >= cfg.sfo_budget:
            break
        if t >= iters:
            termination = Termination.MAX_ITERS
            break

        v = anchor(x)
        grad_norm = float(np.linalg.norm(v))
        if f_x is None:
            f_x = float(problem.value(x))
        trace.append(TraceRecord(t, f_x, grad_norm, sfo.raw, Event.EPOCH_START))

        if se.triggers(grad_norm):
            candidates.append((t, x.copy()))
            if certifier is not None:
                cert = certifier(x)
                if getattr(cert, "is_sosp", False):
                    termination = Termination.SOSP_CERTIFIED
                    certificate = cert
                    break
            x = se.start(rng, t, x, f_x)
            v = anchor(x)
            f_x = float(problem.value(x))
            trace.append(TraceRecord(t, f_x, float(np.linalg.norm(v)), sfo.raw, Event.PERTURBATION))
            if step_callback is not None:
                step_callback(OptState(x.copy(), sfo.raw, t, f_x), Event.PERTURBATION)

        k_max = core.steps_left(min(cfg.epoch_len, iters - t), cfg.sfo_budget - sfo.raw, 2 * cfg.minibatch)
        if cfg.snapshot:  # no stop to draw: the epoch's minibatches in one call
            drawn = core.sample_minibatch(rng, problem.n, cfg.minibatch, steps=k_max), 0, None
        else:
            drawn = None if online else core.epoch_block(
                rng, problem.n, cfg.minibatch, k_max, 0 if se.active else cfg.epoch_len)
        batches, stop, commit = drawn or (
            (core.sample_minibatch(rng, problem.n, cfg.minibatch) for _ in range(k_max)), None, None)
        steps = estimators.descend(problem, x, v, cfg.step_size, batches, sfo, snapshot=cfg.snapshot)
        k = 0
        for k, (x, v, _) in enumerate(steps, 1):
            t += 1
            f_x = None
            # x.v is finite when both are; on overflow the exact checks pass
            finite = math.isfinite(np.vdot(x, v))
            if not finite:
                core.ensure_finite(x, "iterate", trace, t)
            # prefilter: |x_i| > box gives fl(x.x) >= fl(box*box), as rounding is monotone and no term < 0
            if box is not None and np.vdot(x, x) >= box * box and np.abs(x).max() > box:
                logger.warning("iterate left the declared domain box (|x|_inf=%.3g > %.3g); Lipschitz metadata"
                               " no longer guaranteed", float(np.abs(x).max()), box)
                box = None
            if not finite:
                core.ensure_finite(v, "gradient estimate", trace, t)

            event = Event.NONE
            if se.active:
                f_x = float(problem.value(x))
                event = se.exit_event(t, f_x)
            elif k == stop if drawn else random_stop_decision(rng, k, cfg.epoch_len):
                event = Event.RANDOM_STOP
            if step_callback is not None:
                step_callback(OptState(x.copy(), sfo.raw, t, f_x), event)
            if full_trace or event is not Event.NONE:
                if f_x is None:
                    f_x = float(problem.value(x))
                trace.append(TraceRecord(t, f_x, None, sfo.raw, event))
            if event is not Event.NONE:
                break
        if commit:
            commit(k)

    return SsrgdOutcome(
        final_x=x,
        trace=trace,
        sosp_candidates=candidates,
        termination=termination,
        sfo_raw=sfo.raw,
        sfo_nominal=sfo.nominal,
        certificate=certificate,
    )
