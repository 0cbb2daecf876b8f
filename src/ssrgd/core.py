"""Shared domain types: oracle bundles, run configuration, RNG streams,
stochastic-first-order-oracle (SFO) accounting, and sampling primitives.

Every optimizer and diagnostic in this package is built on three contracts
defined here:

* ``ProblemSpec`` exposes component gradients, the exact full gradient
  (finite-sum mode), function values and optional Hessian-vector products,
  together with smoothness metadata (L, rho, sigma).
* ``seeded_rng`` returns counter-based (Philox) streams, so an identical
  (seed, stream_id) pair replays an identical draw sequence.  Coupled-pair
  experiments rely on this to feed two trajectories the same minibatches.
* ``SfoCounter`` tracks gradient-oracle work in two conventions: ``raw``
  counts every component-gradient evaluation performed (a recursive
  estimator step over a minibatch of b touches 2b gradients, one per
  endpoint), while ``nominal`` charges the single-evaluation convention
  used in complexity statements (b per estimator step).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

Vector = np.ndarray

# Largest step_size * L for which the per-epoch decrease argument goes
# through when the minibatch is at least the epoch length.
STEP_FACTOR_LIMIT = (math.sqrt(5.0) - 1.0) / 2.0

_REL_TOL = 1e-12

# Which values each setting the package takes in may take: (test, rule) pairs tried in
# order, and NaN fails every test.  The optimizer settings, problem metadata, generator
# parameters (by their harness keys), (eps, delta) targets, seeds, diagnostics' counts
# and the sampling and spectral primitives' arguments check against it; a word's row
# (``one_of``) is added by the module that gives the words meaning.  Cross-field rules
# and the per-step checks of sample_minibatch and random_stop_decision stay in code.
_POSITIVE = ((lambda v: v > 0, "> 0"), (lambda v: v < math.inf, "< inf"))
_NONNEGATIVE = ((lambda v: v >= 0, ">= 0"), (lambda v: v < math.inf, "< inf"))
_COUNT = ((lambda v: isinstance(v, numbers.Integral) and v >= 1, "is an integer >= 1"),)
SETTING_RULES = {
    **dict.fromkeys(("step_size", "eps", "delta", "logfactor", "perturb_radius", "grad_threshold",
                     "fval_threshold", "lipschitz_grad", "domain_radius", "delta_plant", "gamma4",
                     "box_radius"), _POSITIVE),
    **dict.fromkeys(("lipschitz_hess", "variance_bound", "sigma", "noise", "spread", "reg", "r"),
                    _NONNEGATIVE),
    **dict.fromkeys(("scale", "x0_scale"), ((lambda v: abs(v) < math.inf, "is finite"),)),
    "flip_prob": ((lambda v: 0 <= v <= 1, "in [0, 1]"),),
    "sfo_budget": ((lambda v: v >= 0, ">= 0"),),
    **dict.fromkeys(("epoch_len", "minibatch", "large_batch", "super_epoch_len", "max_epochs",
                     "max_iters", "eval_every", "n", "d", "d_cap", "iters", "replications", "pairs",
                     "max_paths", "workers"), _COUNT),
    "epochs": ((lambda v: isinstance(v, numbers.Integral) and v >= 2, "is an integer >= 2"),),
    "seed": ((lambda v: isinstance(v, numbers.Integral), "is an integer"),),
}
# The four super-epoch settings: the fields of SuperEpoch, of RunConfig and of BaselineKind
# that carry them, and the harness keys that set them, each with its row above.
SUPER_EPOCH_KEYS = ("perturb_radius", "grad_threshold", "fval_threshold", "super_epoch_len")


class Mode(str, Enum):
    FINITE_SUM = "finite_sum"
    ONLINE = "online"


class Event(str, Enum):
    """Per-iteration trace marker."""

    NONE = "none"
    EPOCH_START = "epoch_start"
    PERTURBATION = "perturbation"
    SUPER_EPOCH_END_FDECREASE = "super_epoch_end_fdecrease"
    SUPER_EPOCH_END_TIMEOUT = "super_epoch_end_timeout"
    RANDOM_STOP = "random_stop"


class SsrgdError(Exception):
    """Base class for package errors."""


class ConfigError(SsrgdError):
    """Invalid configuration or problem metadata."""


class UnsupportedOracleError(SsrgdError):
    """An oracle required by the operation is unavailable in this mode."""


class InvalidInputError(SsrgdError):
    """Caller-supplied data is outside the operation's domain."""


class DatasetError(SsrgdError):
    """External dataset could not be parsed or is unusable."""


class InsufficientDataError(SsrgdError):
    """Not enough data points for the requested analysis."""


class NonFiniteError(SsrgdError):
    """An iterate or oracle value became NaN/Inf; carries the partial trace."""

    def __init__(self, message: str, trace=None, iteration: int | None = None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
        self.iteration = iteration


@dataclass
class SfoCounter:
    """Dual-convention stochastic gradient accounting (see module docstring)."""

    raw: int = 0
    nominal: int = 0

    def add(self, raw: int, nominal: int | None = None) -> None:
        self.raw += int(raw)
        self.nominal += int(raw if nominal is None else nominal)


@dataclass
class ProblemSpec:
    """Oracle bundle plus smoothness metadata for one optimization problem.

    ``n`` is the number of components of the finite sum, and it alone sets
    the mode: ``mode`` is online exactly when n is ``math.inf``, and online
    problems draw fresh i.i.d. sample ids instead of indices into [0, n).
    ``lipschitz_grad`` and ``lipschitz_hess`` are upper bounds valid
    inside the (max-norm) box of radius ``domain_radius`` when one is
    declared, and globally otherwise.  ``component_grad_batch`` (required)
    returns the stacked gradients for an index array and is the only
    component oracle.

    ``grad_diff_batch(idx, x_new, x_old)`` is an optional difference oracle
    returning ``mean_i(grad_i(x_new) - grad_i(x_old))`` over the index
    array in one call, for problems whose per-component term cancels in
    the difference.  It answers an ``(..., b)`` index block with ``(..., d)``
    rows, or with one row when its answer does not depend on the indices,
    as the planted saddle's does.  Without it a step asks
    ``component_grad_batch`` for both endpoints as one ``(2, d)`` stack, by
    the stack contract: indices ``(..., b)`` and points ``(..., d)`` give
    ``(..., b, d)``, each ``(b, d)`` slice bit for bit the single call's.
    A step is charged 2b raw SFO (b nominal).

    Each number must pass its row of ``SETTING_RULES`` (L, rho and sigma
    are finite, as the analysis divides by them); ``n`` keeps its own rule.
    Every oracle must be a pure function of its arguments.  The online
    stream answers repeated gradient requests at one point from a one-entry
    slot, and the optimizers reuse an f value already computed at the
    current point instead of asking for it again.
    """

    n: float
    d: int
    lipschitz_grad: float
    lipschitz_hess: float
    value: Callable[[Vector], float]
    full_grad: Callable[[Vector], Vector] | None = None
    component_grad_batch: Callable[[np.ndarray, Vector], np.ndarray] | None = None
    grad_diff_batch: Callable[[np.ndarray, Vector, Vector], Vector] | None = None
    hvp: Callable[[Vector, Vector], Vector] | None = None
    variance_bound: float = 0.0
    domain_radius: float | None = None
    component_grad = None  # not a field: perfbench/tracer.py reads it and skips None

    def __post_init__(self):
        # n keeps its own rule: inf, or a positive integer of any numeric type (3.0 too)
        if self.n != math.inf and not (self.n >= 1 and int(self.n) == self.n):  # NaN fails too
            raise ConfigError("constraint violated: n is a positive integer or inf")
        check_settings(self, off=(("n", self.n),))
        if self.component_grad_batch is None:
            raise ConfigError("a problem needs a batched component oracle (component_grad_batch)")
        if self.mode is Mode.FINITE_SUM and self.full_grad is None:
            raise ConfigError("finite-sum mode needs a full-gradient oracle")

    @property
    def mode(self) -> Mode:
        return Mode.ONLINE if self.n == math.inf else Mode.FINITE_SUM


@dataclass
class RunConfig:
    """All optimizer hyperparameters for one run.

    ``logfactor`` is a single scalar standing in for the polylogarithmic
    factors the convergence statements hide: it multiplies
    ``fval_threshold``, ``super_epoch_len`` and ``perturb_radius`` and
    relaxes the step-size cap in second-order mode.  Second-order mode is
    active whenever ``perturb_radius > 0``.
    """

    step_size: float
    epoch_len: int
    minibatch: int
    eps: float
    sfo_budget: int
    seed: int = 0
    large_batch: int | None = None
    perturb_radius: float = 0.0
    grad_threshold: float = 0.0
    fval_threshold: float = math.inf
    super_epoch_len: int = 0
    delta: float = 0.0
    logfactor: float = 1.0
    max_epochs: int | None = None

    @property
    def second_order(self) -> bool:
        return self.perturb_radius > 0

    def super_epoch(self) -> SuperEpoch:
        return SuperEpoch(**{key: getattr(self, key) for key in SUPER_EPOCH_KEYS})

    def validate(self, problem: ProblemSpec) -> None:
        check_settings(self, off=(("eps", 0),))  # eps = 0 sets no gradient target
        order, step_factor = "first-order", STEP_FACTOR_LIMIT
        if self.second_order:
            if self.minibatch < self.epoch_len:
                raise ConfigError(
                    "second-order mode needs minibatch >= epoch_len "
                    f"(got b={self.minibatch}, m={self.epoch_len})"
                )
            self.super_epoch().check("second-order mode")
            order, step_factor = "second-order", max(self.logfactor, STEP_FACTOR_LIMIT)
        cap = step_factor / problem.lipschitz_grad
        if self.step_size > cap * (1 + _REL_TOL):
            raise ConfigError(f"step_size {self.step_size:g} exceeds {order} cap {cap:g}")
        if problem.mode is Mode.ONLINE and self.large_batch is None:
            raise ConfigError("online mode needs large_batch")


@dataclass
class SuperEpoch:
    """Super-epoch state machine of Li 2019, Alg. 2, run by SSRGD and perturbed GD.

    Its settings are the ``SUPER_EPOCH_KEYS``.  It triggers when none is active,
    ``perturb_radius`` is positive and the gradient norm is at most ``grad_threshold``;
    ``start`` records f~ and t_init at x~ and returns x~ plus a draw from the ball of
    radius ``perturb_radius``.  It ends once f has dropped by ``fval_threshold`` below
    f~ or, failing that, ``super_epoch_len`` steps after t_init.
    """

    perturb_radius: float
    grad_threshold: float
    fval_threshold: float
    super_epoch_len: int
    active: bool = False
    f_tilde: float = math.nan
    t_init: int = -1

    def check(self, who: str) -> None:
        """Refuse a setting left off: ``who`` needs each one to pass its row of SETTING_RULES."""
        for key in SUPER_EPOCH_KEYS:
            check_setting(key, getattr(self, key), f"{who}: ")

    def triggers(self, grad_norm: float) -> bool:
        return not self.active and self.perturb_radius > 0 and grad_norm <= self.grad_threshold

    def start(self, rng: np.random.Generator, t: int, x: Vector, f: float) -> Vector:
        self.active, self.t_init, self.f_tilde = True, t, f
        return x + sample_uniform_ball(rng, x.shape[0], self.perturb_radius)

    def exit_event(self, t: int, f: float) -> Event:
        """Close the active super epoch at (t, f) if either exit condition
        holds, the f-decrease first; ``Event.NONE`` otherwise."""
        if not self.active:
            return Event.NONE
        if self.f_tilde - f >= self.fval_threshold:
            event = Event.SUPER_EPOCH_END_FDECREASE
        elif t - self.t_init >= self.super_epoch_len:
            event = Event.SUPER_EPOCH_END_TIMEOUT
        else:
            return Event.NONE
        self.active = False
        return event


@dataclass
class OptState:
    """What a step callback receives: a copy of the iterate, its iteration
    index, the raw SFO count so far and f there if the run evaluated it
    (always inside a super epoch), else None."""

    x: Vector
    sfo_count: int
    iteration: int
    f: float | None = None


@dataclass(slots=True)
class TraceRecord:
    """One trace row: objective value, (optionally) measured gradient norm,
    cumulative raw SFO count, and the event that produced the row.

    ``grad_norm`` is the exact full gradient norm in finite-sum mode and the
    large-batch estimate online; it is only populated where the optimizer
    computed that quantity anyway (epoch starts, perturbations), never at a
    hidden extra oracle cost.
    """

    iteration: int
    f_value: float
    grad_norm: float | None
    sfo_count: int
    event: Event = Event.NONE


def one_of(*words: str) -> tuple:
    """The row of a setting that takes exactly one of ``words``."""
    return ((lambda v: v in words, f"is one of {', '.join(words)}"),)


def check_setting(key: str, value, where: str = "") -> None:
    """Refuse a value outside ``key``'s row of ``SETTING_RULES`` with a
    ConfigError that names the key and the rule it breaks."""
    for test, rule in SETTING_RULES[key]:
        if not test(value):
            raise ConfigError(f"{where}constraint violated: {key} {rule}")


def check_values(off=(), **values) -> None:
    """``check_setting`` for each keyword argument, except a (key, value)
    pair in ``off``."""
    for key, value in values.items():
        if (key, value) not in off:
            check_setting(key, value)


def check_settings(obj, off=()) -> None:
    """``check_values`` over each field of a dataclass that has a row, except
    one left at its declared default (None, or a value that means "off")."""
    check_values(off, **{f.name: getattr(obj, f.name) for f in fields(obj)
                         if f.name in SETTING_RULES and getattr(obj, f.name) != f.default})


def seeded_rng(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Deterministic counter-based stream.

    Identical (seed, stream_id) pairs yield identical draws; distinct
    stream ids give independent streams.  ``seed`` must pass its row.
    """
    check_setting("seed", seed)
    key = np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_uniform_ball(rng: np.random.Generator, d: int, r: float) -> Vector:
    """Uniform draw from the Euclidean ball of radius ``r`` in R^d.

    Isotropic direction scaled by r * U^(1/d) with U uniform on [0, 1].
    """
    check_values(d=d, r=r)
    if r == 0:
        return np.zeros(d)
    while True:
        direction = rng.standard_normal(d)
        nrm = float(np.linalg.norm(direction))
        if nrm > 0:
            break
    u = rng.random()
    return direction * (r * u ** (1.0 / d) / nrm)


def sample_minibatch(
    rng: np.random.Generator, n: float, b: int, *, steps: int | None = None
) -> np.ndarray:
    """i.i.d. uniform index multiset of size ``b``, drawn with replacement
    (the independence the variance analysis uses).  Online problems
    (``n == inf``) receive fresh i.i.d. sample ids instead of indices: the
    top 62 bits of one raw generator output each, which is what
    ``rng.integers(0, 2**62)`` draws (Lemire's method over a power-of-two
    range is a plain shift) without its per-call set-up.

    ``steps=k`` draws a ``(k, b)`` block of minibatches in one call.  Its
    rows are bit-for-bit the k minibatches that k separate calls would
    draw, and it leaves ``rng`` at the same position.  A draw too large to
    allocate is refused with ``ConfigError``.
    """
    if b < 1:
        raise ConfigError("minibatch size must be >= 1")
    online = math.isinf(n)
    if not online and int(n) < 1:
        raise ConfigError("component count must be >= 1")
    size = b if steps is None else (steps, b)
    try:  # numpy refuses a size it cannot allocate with MemoryError, one past its limits with ValueError
        ids = rng.bit_generator.random_raw(size) if online else rng.integers(0, int(n), size, np.int64)
    except (MemoryError, ValueError):
        count = b * (steps or 1)
        raise ConfigError(f"a draw of 10^{math.log10(count):.3g} indices is too large to allocate") from None
    if online:
        ids >>= np.uint64(2)
        return ids.view(np.int64)
    return ids


def epoch_block(rng: np.random.Generator, n: float, b: int, steps: int, epoch_len: int):
    """``steps`` chained finite-sum steps (``sample_minibatch(rng, n, b)``, then if ``epoch_len``
    ``random_stop_decision(rng, k, epoch_len)``), bit for bit from one ``random_raw`` call:
    ``integers`` takes 32-bit halves of raw words, low first (a spare one waits in ``has_uint32``),
    keeps the top 32 bits of half * n and rejects low bits below floor = (2^32 - n) mod n
    (Lemire 2019); ``random()`` takes a fresh word >> 11.  Returns the block, the first stop step
    (0 if none) and ``commit(k)``, which leaves ``rng`` where k steps would; or None, drawing
    nothing, if n >= 2^32, if steps * b * floor / 2^32 > 1/16, if a half is rejected, or if
    the block's words cannot be allocated.
    """
    n, bg = int(n), rng.bit_generator
    per = b if n > 1 else 0  # integers(0, 1) draws no words
    floor = (2**32 - n) % n  # 0 when n is a power of two: no half is rejected
    if n >= 2**32 or steps * per * floor > 2**28:
        return None
    saved = bg.state
    h = saved["has_uint32"]
    try:  # the per-step draw refuses a size numpy cannot allocate
        s = np.arange(steps if epoch_len else 0)
        at = ((s + 1) * per - h + 1) // 2 + s  # step s's stop word follows the words its halves take
        keep = np.ones((steps * per - h + 1) // 2 + len(at), bool)
        keep[at] = False
        raw = bg.random_raw(len(keep))
    except (MemoryError, ValueError):
        return None
    halves = raw[keep].astype("<u8", copy=False).view("<u4")
    halves = np.concatenate((np.array([saved["uinteger"]] * h, "<u4"), halves))  # the buffered half first
    scaled = halves[:steps * per] * np.uint64(n)
    if floor and np.any((scaled & np.uint64(2**32 - 1)) < floor):
        bg.state = saved
        return None
    scaled >>= np.uint64(32)
    stops = (raw[at] >> np.uint64(11)) * 2.0**-53 < 1.0 / (epoch_len - s)

    def commit(k: int) -> None:
        words = (k * per - h + 1) // 2  # a split word leaves its high half buffered
        saved["has_uint32"] = h + 2 * words - k * per
        saved["uinteger"] = int(halves[h + 2 * words - 1]) if words else saved["uinteger"]
        bg.state = saved
        bg.random_raw(words + (k if epoch_len else 0))

    block = scaled.view(np.int64).reshape(steps, per) if per else np.zeros((steps, b), np.int64)
    return block, int(stops.argmax()) + 1 if stops.any() else 0, commit


def steps_left(cap: int, sfo_left: float, cost: int) -> int:
    """How many of the next ``cap`` steps, at ``cost`` raw SFO each, start
    while some of ``sfo_left`` (which may be infinite) remains; a block of
    that many minibatches draws none that a per-step budget test would not."""
    return cap if sfo_left >= cap * cost else max(0, math.ceil(sfo_left / cost))


def initial_point(x0, d: int) -> Vector:
    """A float copy of ``x0`` (zeros when None), checked to be a finite
    vector of shape (d,)."""
    x = np.zeros(d) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (d,):
        raise InvalidInputError(f"x0 has shape {x.shape}, expected ({d},)")
    ensure_finite(x, "initial point")
    return x


def ensure_finite(x: Vector, what: str, trace=None, iteration: int | None = None) -> None:
    if not np.isfinite(x).all():
        raise NonFiniteError(f"{what} contains non-finite entries", trace, iteration)
