"""Gradient estimators.

Four estimators, each a function of the values it reads:

* exact full gradient (finite-sum anchor),
* large-batch average (online anchor),
* recursive minibatch estimator
  ``v <- mean_{i in I_b}(grad_i(x_t) - grad_i(x_{t-1})) + v``,
  updated every step without a fixed snapshot,
* snapshot estimator
  ``v = mean_{i in I_b}(grad_i(x) - grad_i(anchor)) + full_grad(anchor)``.

The same index multiset is used for both evaluation points of a step, in
one oracle call: ``grad_diff_batch`` when the problem has it, otherwise
``component_grad_batch`` on the point stack ``[x_old, x_new]`` (the stack
contract of ``ProblemSpec``), each endpoint's rows reduced in fixed slot
order, so results do not depend on how the oracle evaluates the batch.
Batch means are ``np.add.reduce(g, axis=-2) / b``, as ``ndarray.mean``.

``descend`` is the one epoch shape: from an anchor point and its gradient
it runs the recursive (SSRGD) or the snapshot (SVRG) steps over minibatches
its caller supplies: a ``(steps, b)`` block from ``core.sample_minibatch``
(or, with SSRGD's random stops, ``core.epoch_block``) where the stream allows
one, else a lazy per-step draw (online SSRGD and the epochs the block declines).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from . import core
from .core import (
    ConfigError,
    Mode,
    ProblemSpec,
    SfoCounter,
    UnsupportedOracleError,
    Vector,
)


def component_gradients(problem: ProblemSpec, indices, x: Vector) -> np.ndarray:
    """Stacked component gradients, shape (len(indices), d), in slot order."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ConfigError("empty minibatch")
    return np.asarray(problem.component_grad_batch(idx, x), dtype=float)


def _mean_grad_diff(problem: ProblemSpec, batch, x_new: Vector, x_old: Vector, sfo) -> Vector:
    """``mean_i(grad_i(x_new) - grad_i(x_old))`` over ``batch`` in one oracle
    call, charged 2b raw SFO (both endpoints, same indices) and b nominal."""
    idx = np.asarray(batch, dtype=np.int64)
    if idx.size == 0:
        raise ConfigError("empty minibatch")
    if problem.grad_diff_batch is not None:
        diff = np.asarray(problem.grad_diff_batch(idx, x_new, x_old), dtype=float)
    else:
        x = np.empty((2,) + x_new.shape)  # np.stack costs four times as much
        x[0], x[1] = x_old, x_new
        g = np.asarray(problem.component_grad_batch(idx, x), dtype=float)
        if g.shape != (2,) + idx.shape + x.shape[-1:]:
            raise UnsupportedOracleError(f"component_grad_batch answers a {x.shape} point stack with"
                                         f" shape {g.shape}, against the stack contract")
        g_old, g_new = np.add.reduce(g, axis=-2) / idx.shape[-1]
        diff = g_new - g_old
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
    core.check_setting("large_batch", batch_size)
    idx = core.sample_minibatch(rng, problem.n, int(batch_size))
    grads = component_gradients(problem, idx, x)
    if sfo is not None:
        sfo.add(int(batch_size))
    return np.add.reduce(grads, axis=0) / int(batch_size)


def recursive_step(
    problem: ProblemSpec, v: Vector, x_old: Vector, x_new: Vector, batch,
    sfo: SfoCounter | None = None,
) -> Vector:
    """The recursive estimate at ``x_new`` from ``v``, the estimate at
    ``x_old``, on one minibatch."""
    return v + _mean_grad_diff(problem, batch, x_new, x_old, sfo)


def svrg_step(
    problem: ProblemSpec, anchor: Vector, anchor_grad: Vector, x: Vector, batch,
    sfo: SfoCounter | None = None,
) -> Vector:
    """Snapshot estimate of the gradient at ``x`` from ``anchor`` and its
    exact gradient ``anchor_grad``."""
    return _mean_grad_diff(problem, batch, x, anchor, sfo) + anchor_grad


def descend(
    problem: ProblemSpec, x: Vector, g: Vector, step_size: float,
    batches: Iterable[np.ndarray], sfo: SfoCounter | None = None, *, snapshot: bool = False,
) -> Iterator[tuple[Vector, Vector, np.ndarray]]:
    """The epoch kernel from ``x`` and its anchor gradient ``g``.  For each
    index array in ``batches`` it moves ``x`` by ``-step_size * v`` and
    advances the estimator at the new point on that minibatch: the recursive
    one from (x, g), or with ``snapshot`` the one anchored at (x, g).  Yields
    ``(x_k, v_k, batch_k)`` and takes the next batch only when resumed, so the
    caller decides when to stop and a lazy ``batches`` keeps its draws in place.

    ``x`` and ``g`` may also be ``(k, d)`` stacks, each batch then a ``(k, b)``
    block with row i's minibatch in row i, when the problem's oracles answer
    stacks row by row; the coupled escape experiment runs in lockstep so."""
    anchor, v = x, g
    for batch in batches:
        x_old, x = x, x - step_size * v
        if snapshot:
            v = svrg_step(problem, anchor, g, x, batch, sfo)
        else:
            v = recursive_step(problem, v, x_old, x, batch, sfo)
        yield x, v, batch
