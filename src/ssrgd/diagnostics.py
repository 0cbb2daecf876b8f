"""Empirical validation of the analysis behind the optimizer.

Four experiment families:

* ``verify_variance_bound``: along a fixed trajectory whose first point has
  an exact estimate, the recursive estimator's error satisfies
  E||v_t - grad f(x_t)||^2 <= (L^2/b) * sum_j ||x_j - x_{j-1}||^2,
  and the snapshot estimator satisfies the same with the cumulative sum
  replaced by ||x_t - x_0||^2.  Monte Carlo with standard errors, or exact
  exhaustive enumeration for tiny instances.
* ``verify_epoch_decrease``: one-epoch Monte Carlo check of
  E f(x_m) <= f(x_0) - (eta/2) sum_j E||grad f(x_{j-1})||^2, plus an
  illustrative snapshot-estimator run at the same (undersized) minibatch.
* ``run_coupled_experiment``: the two-point probe of the stuck region
  around a strict saddle.  Two trajectories start ``r0`` apart along the
  most negative curvature direction and consume identical minibatch
  streams; at least one should travel ``delta/(C1 rho)`` from its start
  within the escape window.
* ``verify_localization``: iterates of a super epoch stay within
  sqrt(4 t (f(x_0) - f(x_t)) / (C' L)) of its start.

All Monte Carlo verdicts carry standard errors; a violation requires
exceeding a bound by more than three of them.  High-probability statements
(escape, localization) are reported as frequencies, never hard assertions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import algorithm, core, estimators, spectral
from .core import (
    ConfigError,
    Event,
    InvalidInputError,
    Mode,
    ProblemSpec,
    RunConfig,
    UnsupportedOracleError,
    Vector,
)
from .problems import ProblemInstance

core.SETTING_RULES["estimator"] = core.one_of("recursive", "svrg")  # see _estimator_errors
EXHAUSTIVE_LIMIT = 300_000
# Constants of the analysis: the coupled pair's offset as a share of the
# perturbation radius, and C' of the localization bound.
ZETA_PRIME = 0.1
C_PRIME = 1.0


def localization_config(problem: ProblemSpec, cfg: RunConfig) -> RunConfig:
    """``cfg`` in the localization regime: a step above 1/(2 C' L) drops to
    0.95/(2 C' L), with the super-epoch settings re-derived at that step
    from the run's own eps, delta and logfactor."""
    if cfg.step_size <= 1.0 / (2.0 * C_PRIME * problem.lipschitz_grad):
        return cfg
    eta = 0.95 / (2.0 * C_PRIME * problem.lipschitz_grad)
    return dataclasses.replace(cfg, step_size=eta, **algorithm.super_epoch_params(
        problem, cfg.eps, cfg.delta, cfg.logfactor, eta
    ))


# ---------------------------------------------------------------------------
# variance bounds


@dataclass
class VarianceCheckRow:
    t: int
    estimate: float
    bound: float
    stderr: float
    passed: bool


@dataclass
class VarianceReport:
    estimator: str
    replications: int | None  # None = exhaustive enumeration
    passed: bool
    rows: list[VarianceCheckRow]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _exact_grads(problem: ProblemSpec, xs: np.ndarray) -> np.ndarray:
    return np.stack([estimators.full_gradient(problem, x) for x in xs])


def _estimator_errors(problem, xs, grads, batches, estimator):
    """Squared estimator errors at steps 1..T, shape ``(S, T)``, of the S
    sequences of the ``(T, S, b)`` block ``batches``: one estimator call per
    step at the ``(1, d)`` points ``xs[j][None]``, row s bit for bit what
    sequence s gets alone."""
    errs, v = np.empty((batches.shape[1], len(xs) - 1)), grads[0]
    for j in range(1, len(xs)):
        if estimator == "recursive":
            v = estimators.recursive_step(problem, v, xs[j - 1][None], xs[j][None], batches[j - 1])
        else:
            v = estimators.svrg_step(problem, xs[0][None], grads[0], xs[j][None], batches[j - 1])
        errs[:, j - 1] = np.add.reduce((v - grads[j]) ** 2, axis=-1)
    return errs


def verify_variance_bound(
    problem: ProblemSpec,
    trajectory,
    minibatch: int,
    replications: int | None,
    rng: np.random.Generator | None = None,
    *,
    estimator: str = "recursive",
) -> VarianceReport:
    """Monte Carlo (or exhaustive) check of the estimator variance bound
    along a fixed trajectory starting from an exact anchor estimate.  Batch
    sequences, in ``itertools.product`` order or each a ``(T, b)`` draw, go
    through the estimators in chunks of about 2^19 / (b d^2) sequences."""
    core.check_values(off=(("replications", None),), estimator=estimator, minibatch=minibatch,
                      replications=replications)
    xs = np.asarray(trajectory, dtype=float)
    if xs.ndim != 2 or len(xs) < 2:
        raise InvalidInputError("trajectory must contain at least two points")
    if problem.mode is not Mode.FINITE_SUM:
        raise InvalidInputError("variance verification needs finite-sum mode")
    n = int(problem.n)
    b = int(minibatch)
    T = len(xs) - 1
    grads = _exact_grads(problem, xs)
    L = problem.lipschitz_grad

    steps_sq = np.sum(np.diff(xs, axis=0) ** 2, axis=1)
    if estimator == "recursive":
        bounds = (L * L / b) * np.cumsum(steps_sq)
    else:
        bounds = (L * L / b) * np.sum((xs[1:] - xs[0]) ** 2, axis=1)

    total = n ** (b * T) if replications is None else replications
    if replications is None and total > EXHAUSTIVE_LIMIT:
        raise ConfigError(f"exhaustive mode would enumerate {total} sequences (limit {EXHAUSTIVE_LIMIT})")
    if rng is None:
        rng = core.seeded_rng(0, 3)
    chunk = max(1, 2**19 // (b * xs.shape[1] ** 2))  # the quadratic oracle gathers S*b (d, d) blocks
    errs = np.empty((total, T))
    for lo in range(0, total, chunk):
        S = min(chunk, total - lo)
        if replications is None:  # sequence k's b*T indices are its base-n digits, most significant first
            k = np.arange(lo, lo + S, dtype=np.int64)[:, None]
            block = k // n ** np.arange(b * T - 1, -1, -1, dtype=np.int64) % n
        else:
            block = core.sample_minibatch(rng, n, b, steps=S * T)
        errs[lo:lo + S] = _estimator_errors(problem, xs, grads, block.reshape(S, T, b).swapaxes(0, 1), estimator)
    if replications is None:  # summed one sequence at a time: an axis-0 sum adds pairwise
        est, se = np.cumsum(errs, axis=0)[-1] / total, np.zeros(T)
    else:
        est = errs.mean(axis=0)
        se = errs.std(axis=0, ddof=1) / math.sqrt(replications) if replications > 1 else np.zeros(T)

    rows = [
        VarianceCheckRow(
            t=j + 1,
            estimate=float(est[j]),
            bound=float(bounds[j]),
            stderr=float(se[j]),
            passed=bool(est[j] <= bounds[j] + 3.0 * se[j] + 1e-12),
        )
        for j in range(T)
    ]
    return VarianceReport(
        estimator=estimator,
        replications=replications,
        rows=rows,
        passed=all(r.passed for r in rows),
    )


# ---------------------------------------------------------------------------
# per-epoch decrease


@dataclass
class EpochDecreaseReport:
    f_start: float
    mean_f_end: float
    stderr_f_end: float
    decrease_term: float  # (eta/2) * mean of sum_j ||grad f(x_{j-1})||^2
    passed: bool
    svrg_mean_f_end: float
    svrg_gap: float  # mean decrease advantage of the recursive estimator

    def to_dict(self) -> dict:
        return dict(vars(self))


def verify_epoch_decrease(
    problem: ProblemSpec,
    cfg: RunConfig,
    epochs: int,
    *,
    x0: Vector | None = None,
) -> EpochDecreaseReport:
    """Monte Carlo check of the one-epoch decrease inequality from a fixed
    start, with an illustrative snapshot-estimator run at the same b = m
    (undersized for that estimator, which needs b >= m^2).  Both draw their
    minibatches from ``core.seeded_rng(cfg.seed, 7)``."""
    if problem.mode is not Mode.FINITE_SUM:
        raise InvalidInputError("epoch-decrease verification needs finite-sum mode")
    cfg.validate(problem)
    if cfg.minibatch < cfg.epoch_len:
        raise ConfigError("verification needs minibatch >= epoch_len")
    L = problem.lipschitz_grad
    if cfg.step_size > core.STEP_FACTOR_LIMIT / L * (1 + 1e-12):
        raise ConfigError("verification needs step_size <= (sqrt(5)-1)/(2L)")
    core.check_setting("epochs", epochs)
    rng = core.seeded_rng(cfg.seed, 7)
    x_start = core.initial_point(x0, problem.d)
    eta = cfg.step_size
    m = cfg.epoch_len
    b = cfg.minibatch

    f_start = float(problem.value(x_start))
    g0 = estimators.full_gradient(problem, x_start)

    f_end = np.empty(epochs)
    f_end_svrg = np.empty(epochs)
    grad_sq_sums = np.empty(epochs)
    for rep in range(epochs):
        # recursive estimator epoch: m steps on one (m, b) block of minibatches
        gsum = float(np.sum(g0**2))
        batches = core.sample_minibatch(rng, problem.n, b, steps=m)
        for k, (x, _, _) in enumerate(estimators.descend(problem, x_start, g0, eta, batches)):
            if k < m - 1:
                gsum += float(np.sum(estimators.full_gradient(problem, x) ** 2))
        f_end[rep] = float(problem.value(x))
        grad_sq_sums[rep] = gsum
        # snapshot estimator epoch with the same (undersized) minibatch
        batches = core.sample_minibatch(rng, problem.n, b, steps=m)
        for x, _, _ in estimators.descend(problem, x_start, g0, eta, batches, snapshot=True):
            pass
        f_end_svrg[rep] = float(problem.value(x))

    mean_end = float(f_end.mean())
    se = float(f_end.std(ddof=1) / math.sqrt(epochs))
    term = 0.5 * eta * float(grad_sq_sums.mean())
    return EpochDecreaseReport(
        f_start=f_start,
        mean_f_end=mean_end,
        stderr_f_end=se,
        decrease_term=term,
        passed=bool(mean_end <= f_start - term + 3.0 * se + 1e-12),
        svrg_mean_f_end=float(f_end_svrg.mean()),
        svrg_gap=float(f_end_svrg.mean() - mean_end),
    )


# ---------------------------------------------------------------------------
# coupled two-point experiment


@dataclass
class CoupledRun:
    """One coupled pair: its first escape and f-decrease steps (None if
    never), its largest travel and f drop, each stream's batch digest, both
    trajectories (views into the lockstep positions) and their distance at
    each step."""

    escape_iter: int | None
    fdecrease_iter: int | None
    max_travel: float
    max_fdrop: float
    batch_digest: str
    batch_digest_twin: str
    x_traj: np.ndarray
    x_prime_traj: np.ndarray
    w_norms: np.ndarray


@dataclass
class CoupledReport:
    pairs: list[CoupledRun]
    escape_frequency: float
    fdecrease_frequency: float
    travel_threshold: float
    radius: float
    r0: float
    window: int
    c1: float

    def to_dict(self) -> dict:
        return {
            "escape_frequency": self.escape_frequency,
            "fdecrease_frequency": self.fdecrease_frequency,
            "travel_threshold": self.travel_threshold,
            "radius": self.radius,
            "r0": self.r0,
            "window": self.window,
            "c1": self.c1,
            "pairs": [
                {
                    "escape_iter": p.escape_iter,
                    "fdecrease_iter": p.fdecrease_iter,
                    "max_travel": p.max_travel,
                    "max_fdrop": p.max_fdrop,
                    "coupled": p.batch_digest == p.batch_digest_twin,
                }
                for p in self.pairs
            ],
        }


def _check_stacked_oracles(problem: ProblemSpec, x: np.ndarray, minibatch: int) -> None:
    """Refuse a problem whose oracles do not answer the ``(k, d)`` stack ``x``
    row by row: a ``(d,)`` answer would broadcast silently into the stack."""
    if problem.grad_diff_batch is None:
        raise UnsupportedOracleError("the lockstep coupled run needs a difference oracle")
    k, d = x.shape
    idx = np.zeros((k, minibatch), dtype=np.int64)
    for name, got, shape in (
        ("full_grad", np.shape(problem.full_grad(x)), (k, d)),
        ("value", np.shape(problem.value(x)), (k,)),
        ("grad_diff_batch", np.shape(problem.grad_diff_batch(idx, x, x)), (k, d)),
    ):
        if got != shape:
            raise UnsupportedOracleError(
                f"{name} answers a ({k}, {d}) stack with shape {got}, expected {shape}"
            )


def _run_recorded_updates(problem, x0, steps, epoch_len, minibatch, step_size, batch_rngs):
    """Plain epoch-structured update steps (anchor + recursive estimator)
    for a ``(k, d)`` stack of start points in lockstep, row i on its own
    batch stream ``batch_rngs[i]``; records every iterate.  Each epoch draws
    one block per stream and each step evaluates f once on the whole stack.
    Returns positions ``(steps+1, k, d)``, values ``(steps+1, k)`` and one
    batch digest per stream."""
    x = np.array(x0, dtype=float)
    xs = np.empty((steps + 1, *x.shape))
    fs = np.empty((steps + 1, len(x)))
    xs[0], fs[0] = x, problem.value(x)
    digests = [hashlib.sha256() for _ in batch_rngs]
    t = 0
    while t < steps:
        g = estimators.full_gradient(problem, x)
        blocks = [
            core.sample_minibatch(rng, problem.n, minibatch, steps=min(epoch_len, steps - t))
            for rng in batch_rngs
        ]
        for digest, block in zip(digests, blocks):
            digest.update(block.tobytes())
        # step j's minibatches are row j of every stream's block
        for t, (x, _, _) in enumerate(
            estimators.descend(problem, x, g, step_size, np.stack(blocks, axis=1)), t + 1
        ):
            xs[t], fs[t] = x, problem.value(x)
    return xs, fs, [digest.hexdigest() for digest in digests]


def _first(hits: np.ndarray) -> int | None:
    """The index of the first true entry, or None."""
    return int(hits.argmax()) if hits.any() else None


def run_coupled_experiment(
    instance: ProblemInstance,
    x_tilde: Vector,
    cfg: RunConfig,
    pairs: int,
    *,
    check_saddle: bool = True,
) -> CoupledReport:
    """Escape statistics for ``pairs`` coupled trajectory pairs around a saddle.

    Works in the regime of the small-stuck-region analysis, with the
    analysis' constants C1 = 20/(eta L) and zeta' = ``ZETA_PRIME``: the
    effective perturbation radius is capped at delta/(C1 rho), the pair
    offset is r0 = zeta' * r / sqrt(d) along the most negative curvature
    direction at ``x_tilde``, and the window is
    2 log(8 delta sqrt(d) / (C1 rho zeta' r)) / (eta delta) steps.
    Both trajectories replay identical minibatch streams; each pair keeps
    a digest of each stream, so the coupling is checkable, and both of its
    trajectories.

    All 2 * ``pairs`` trajectories run in lockstep as one ``(2 pairs, d)``
    stack, so the problem's ``value``, ``full_grad`` and ``grad_diff_batch``
    must answer a stack row by row (``make_separable_saddle``'s do); any
    other problem is refused with ``UnsupportedOracleError``.
    """
    problem = instance.spec
    if problem.mode is not Mode.FINITE_SUM:
        raise InvalidInputError("the coupled experiment needs finite-sum mode")
    core.check_setting("pairs", pairs)
    cfg.validate(problem)  # with the radius check below, this asks for b >= m
    core.check_setting("delta", cfg.delta)
    d = problem.d
    L = problem.lipschitz_grad
    rho = problem.lipschitz_hess
    if rho <= 0:
        raise ConfigError("needs a positive Hessian Lipschitz constant")
    eta = cfg.step_size
    delta = cfg.delta
    x_tilde = np.asarray(x_tilde, dtype=float)

    H = spectral.assemble_hessian(problem, x_tilde)
    evals, evecs = np.linalg.eigh(H)
    if check_saddle and evals[0] > -delta:
        raise InvalidInputError(
            f"x_tilde is not a saddle at the requested level: lambda_min="
            f"{evals[0]:.3g} > -{delta:g}"
        )
    e1 = evecs[:, 0]

    C1 = 20.0 / (eta * L)
    threshold = delta / (C1 * rho)
    radius = min(cfg.perturb_radius, threshold)
    if radius <= 0:
        raise ConfigError("effective perturbation radius is zero")
    r0 = ZETA_PRIME * radius / math.sqrt(d)
    window = math.ceil(
        2.0 * math.log(8.0 * delta * math.sqrt(d) / (C1 * rho * ZETA_PRIME * radius))
        / (eta * delta)
    )

    # rows 0..P-1 start the pairs, rows P..2P-1 their twins r0 * e1 away;
    # each twin gets its own generator, seeded as its pair's
    starts = np.stack([
        x_tilde + core.sample_uniform_ball(core.seeded_rng(cfg.seed, 10_000 + i), d, radius)
        for i in range(pairs)
    ])
    starts = np.concatenate([starts, starts - r0 * e1])
    _check_stacked_oracles(problem, starts, cfg.minibatch)
    streams = [core.seeded_rng(cfg.seed, 20_000 + i % pairs) for i in range(2 * pairs)]
    xs, fs, digests = _run_recorded_updates(
        problem, starts, window, cfg.epoch_len, cfg.minibatch, eta, streams
    )

    runs: list[CoupledRun] = []
    for i, j in zip(range(pairs), range(pairs, 2 * pairs)):
        # one pair at a time, so no temporary is as large as the whole stack
        x, xp = xs[:, i], xs[:, j]
        joint = np.maximum(np.linalg.norm(x - x[0], axis=1), np.linalg.norm(xp - xp[0], axis=1))
        drop = np.maximum(fs[0, i] - fs[:, i], fs[0, j] - fs[:, j])
        runs.append(
            CoupledRun(
                escape_iter=_first(joint >= threshold),
                fdecrease_iter=_first(drop >= 2.0 * cfg.fval_threshold),
                max_travel=float(joint.max()),
                max_fdrop=float(drop.max()),
                batch_digest=digests[i],
                batch_digest_twin=digests[j],
                x_traj=x, x_prime_traj=xp, w_norms=np.linalg.norm(x - xp, axis=1),
            )
        )
    escaped = sum(1 for p in runs if p.escape_iter is not None)
    fdec = sum(1 for p in runs if p.fdecrease_iter is not None)
    return CoupledReport(
        pairs=runs,
        escape_frequency=escaped / pairs,
        fdecrease_frequency=fdec / pairs,
        travel_threshold=threshold,
        radius=radius,
        r0=r0,
        window=window,
        c1=C1,
    )


# ---------------------------------------------------------------------------
# localization


@dataclass
class SuperEpochPath:
    """Iterates of one super epoch: xs[0] is the post-perturbation start."""

    start_iter: int
    xs: np.ndarray
    fs: np.ndarray
    complete: bool


@dataclass
class LocalizationRow:
    t: int
    distance: float
    bound: float
    increase: bool
    ok: bool


@dataclass
class LocalizationReport:
    rows_per_path: list[list[LocalizationRow]]
    path_passed: list[bool]
    pass_fraction: float
    increase_steps: int

    def to_dict(self) -> dict:
        return {
            "pass_fraction": self.pass_fraction,
            "paths": len(self.path_passed),
            "path_passed": self.path_passed,
            "increase_steps": self.increase_steps,
        }


def collect_super_epoch_paths(
    instance: ProblemInstance,
    cfg: RunConfig,
    seeds,
    *,
    x0: Vector | None = None,
    max_paths: int | None = None,
) -> list[SuperEpochPath]:
    """Run the optimizer over the given seeds and record the iterates of
    every super epoch (positions are not otherwise kept by the run loop),
    with the f values the run computed there."""
    problem = instance.spec
    if problem.mode is not Mode.FINITE_SUM:
        raise InvalidInputError("super-epoch path collection needs finite-sum mode")
    core.check_values(off=(("max_paths", None),), max_paths=max_paths)
    paths: list[SuperEpochPath] = []
    for seed in seeds:
        segment: list[Vector] | None = None
        fvals: list[float] = []
        start_iter = 0

        def on_step(state, event):
            nonlocal segment, fvals, start_iter
            if event is Event.PERTURBATION:
                segment, fvals, start_iter = [state.x], [state.f], state.iteration
                return
            if segment is None:
                return
            segment.append(state.x)
            fvals.append(state.f)
            if event in (Event.SUPER_EPOCH_END_FDECREASE, Event.SUPER_EPOCH_END_TIMEOUT):
                paths.append(
                    SuperEpochPath(start_iter, np.stack(segment), np.array(fvals), True)
                )
                segment = None
                fvals = []

        run_cfg = cfg if cfg.seed == seed else dataclasses.replace(cfg, seed=seed)
        algorithm.run_ssrgd(
            problem, run_cfg, x0=x0, full_trace=False, step_callback=on_step
        )
        if segment is not None and len(segment) > 1:
            paths.append(SuperEpochPath(start_iter, np.stack(segment), np.array(fvals), False))
        if max_paths is not None and len(paths) >= max_paths:
            break
    if max_paths is not None:
        paths = paths[:max_paths]
    return paths


def verify_localization(
    paths: list[SuperEpochPath],
    *,
    lipschitz_grad: float,
    step_size: float | None = None,
) -> LocalizationReport:
    """Check ||x_t - x_0|| <= sqrt(4 t (f(x_0) - f(x_t)) / (C' L)) along
    each path of the list, with C' = ``C_PRIME``.  Steps where the value
    increased are recorded and excluded (the statement presumes decrease).
    No path to check raises ``InsufficientDataError``."""
    core.check_values(off=(("step_size", None),), lipschitz_grad=lipschitz_grad, step_size=step_size)
    cap = 1.0 / (2.0 * C_PRIME * lipschitz_grad)
    if step_size is not None and step_size > cap * (1 + 1e-12):
        raise ConfigError(
            f"localization regime needs step_size <= 1/(2 C' L); got {step_size:g} > {cap:g}"
        )
    all_rows: list[list[LocalizationRow]] = []
    path_passed: list[bool] = []
    increases = 0
    for path in paths:
        xs, fs = path.xs, path.fs
        rows: list[LocalizationRow] = []
        ok_all = True
        for t in range(1, len(xs)):
            dist = float(np.linalg.norm(xs[t] - xs[0]))
            drop = float(fs[0] - fs[t])
            if drop < 0:
                rows.append(LocalizationRow(t, dist, math.nan, True, True))
                increases += 1
                continue
            bound = math.sqrt(4.0 * t * drop / (C_PRIME * lipschitz_grad))
            ok = dist <= bound * (1 + 1e-9) + 1e-15
            rows.append(LocalizationRow(t, dist, bound, False, ok))
            ok_all = ok_all and ok
        all_rows.append(rows)
        path_passed.append(ok_all)
    if not path_passed:
        raise core.InsufficientDataError("no super-epoch path to check localization on")
    return LocalizationReport(
        rows_per_path=all_rows,
        path_passed=path_passed,
        pass_fraction=sum(path_passed) / len(path_passed),
        increase_steps=increases,
    )
