"""Gradient estimators.

Four estimators share the ``EstimatorState`` container:

* exact full gradient (finite-sum anchor),
* large-batch average (online anchor),
* recursive minibatch estimator
  ``v <- mean_{i in I_b}(grad_i(x_t) - grad_i(x_{t-1})) + v``,
  updated every step without a fixed snapshot,
* snapshot estimator
  ``v = mean_{i in I_b}(grad_i(x) - grad_i(anchor)) + full_grad(anchor)``.

The same index multiset is used for both evaluation points of a step.  A
problem that supplies ``grad_diff_batch`` answers the difference in one
call; otherwise the two endpoints' batched component gradients are reduced
in fixed slot order, so results are deterministic regardless of how the
oracle evaluates the batch internally.  Batch means are
``np.add.reduce(g, axis=0) / b``, which is what ``ndarray.mean`` computes.

``descend`` is the one inner loop; SSRGD, SVRG and the diagnostics use it.
It steps over minibatches its caller supplies: a ``(steps, b)`` block drawn
by one ``core.sample_minibatch`` call where nothing else draws from the
stream mid-epoch, or a lazy per-step draw where something does (SSRGD's
random stop).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    ConfigError,
    InvalidStateError,
    Mode,
    ProblemSpec,
    SfoCounter,
    UnsupportedOracleError,
    Vector,
)


@dataclass
class EstimatorState:
    """Carries the current estimate ``v`` plus what it was formed at.

    The recursive chain keeps ``prev_x`` (the point ``v`` estimates the
    gradient of); the snapshot estimator keeps the ``anchor`` point and its
    exact gradient.  No per-component gradient table is stored.
    """

    v: Vector
    prev_x: Vector | None = None
    anchor: Vector | None = None
    anchor_grad: Vector | None = None


def component_gradients(problem: ProblemSpec, indices, x: Vector) -> np.ndarray:
    """Stacked component gradients, shape (len(indices), d), in slot order."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ConfigError("empty minibatch")
    return np.asarray(problem.component_grad_batch(idx, x), dtype=float)


def _mean_grad_diff(problem: ProblemSpec, batch, x_new: Vector, x_old: Vector, sfo) -> Vector:
    """``mean_i(grad_i(x_new) - grad_i(x_old))`` over ``batch``: one difference
    oracle call when the problem has one, two batched gradients otherwise.
    Charges 2b raw SFO (both endpoints, same indices) and b nominal."""
    idx = np.asarray(batch, dtype=np.int64)
    if idx.size == 0:
        raise ConfigError("empty minibatch")
    if problem.grad_diff_batch is not None:
        diff = np.asarray(problem.grad_diff_batch(idx, x_new, x_old), dtype=float)
    else:
        b = idx.size
        diff = np.add.reduce(component_gradients(problem, idx, x_new), axis=0) / b
        diff = diff - np.add.reduce(component_gradients(problem, idx, x_old), axis=0) / b
    if sfo is not None:
        sfo.add(2 * idx.size, idx.size)
    return diff


def full_gradient(problem: ProblemSpec, x: Vector, sfo: SfoCounter | None = None) -> Vector:
    """Exact mean of all component gradients; costs n oracle evaluations."""
    if problem.mode is not Mode.FINITE_SUM or problem.full_grad is None:
        raise UnsupportedOracleError("full gradient needs a finite-sum problem")
    g = np.asarray(problem.full_grad(x), dtype=float)
    if sfo is not None:
        sfo.add(int(problem.n))
    return g


def large_batch_gradient(
    problem: ProblemSpec,
    x: Vector,
    batch_size: int,
    rng: np.random.Generator,
    sfo: SfoCounter | None = None,
) -> Vector:
    """Average of ``batch_size`` fresh i.i.d. component gradients (online anchor)."""
    if problem.mode is not Mode.ONLINE:
        raise UnsupportedOracleError("large-batch anchor is an online-mode operation")
    if batch_size is None or batch_size < 1:
        raise ConfigError("large batch size must be >= 1")
    idx = core.sample_minibatch(rng, problem.n, int(batch_size))
    grads = component_gradients(problem, idx, x)
    if sfo is not None:
        sfo.add(int(batch_size))
    return np.add.reduce(grads, axis=0) / int(batch_size)


def recursive_step(
    problem: ProblemSpec,
    state: EstimatorState,
    x_new: Vector,
    batch,
    sfo: SfoCounter | None = None,
) -> EstimatorState:
    """Advance the recursive estimator to ``x_new`` using one minibatch.

    Requires ``state.v`` to have been formed at ``state.prev_x``.
    """
    if state.prev_x is None:
        raise InvalidStateError("recursive estimator state is missing prev_x")
    state.v = state.v + _mean_grad_diff(problem, batch, x_new, state.prev_x, sfo)
    state.prev_x = np.array(x_new, dtype=float)
    return state


def svrg_step(
    problem: ProblemSpec,
    state: EstimatorState,
    x: Vector,
    batch,
    sfo: SfoCounter | None = None,
) -> Vector:
    """Snapshot estimate of the gradient at ``x``; the snapshot is not advanced."""
    if state.anchor is None or state.anchor_grad is None:
        raise InvalidStateError("snapshot estimator state is missing the anchor pair")
    return _mean_grad_diff(problem, batch, x, state.anchor, sfo) + state.anchor_grad


def descend(
    problem: ProblemSpec, state: EstimatorState, x: Vector, step_size: float,
    batches: Iterable[np.ndarray], sfo: SfoCounter | None = None,
) -> Iterator[tuple[Vector, Vector, np.ndarray]]:
    """The epoch kernel.  For each index array in ``batches`` it moves ``x`` by
    ``-step_size * v`` and advances the estimator at the new point on that
    minibatch: recursive when ``state.prev_x`` is set, snapshot otherwise.
    Yields ``(x_k, v_k, batch_k)`` and takes the next batch only when
    resumed, so the caller decides when to stop, and a lazy ``batches``
    leaves the caller's own draws in their place."""
    for batch in batches:
        x = x - step_size * state.v
        if state.prev_x is not None:
            recursive_step(problem, state, x, batch, sfo)
        else:
            state.v = svrg_step(problem, state, x, batch, sfo)
        yield x, state.v, batch
