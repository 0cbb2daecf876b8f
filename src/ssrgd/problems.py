"""Benchmark problems with exact smoothness metadata.

Every generator returns a ``ProblemInstance`` whose declared Lipschitz
constants are honest upper bounds inside the declared domain box (or
globally when no box is needed), so that a violated variance bound in the
diagnostics signals an implementation bug rather than sloppy metadata.

The planted-saddle construction splits a deterministic objective into n
components by adding per-component linear terms that sum to zero exactly,
which keeps the full gradient analytic (and exactly zero at the saddle)
while making the component variance tunable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import (
    ConfigError,
    DatasetError,
    ProblemSpec,
    Vector,
)

# max |d^2/dz^2 log(1+e^-z)| is attained at z = log(2 +- sqrt(3))
SIGMOID_D2_MAX = 1.0 / (6.0 * math.sqrt(3.0))
# max |d^3/dx^3 x^2/(1+x^2)| ~ 4.67 near |x| = 0.33; rounded up
RATIONAL_REG_D3_MAX = 5.0
# The logistic benchmark's feature design: the largest feature variance,
# the ratio of largest to smallest, and the row-norm clip
LOGISTIC_FEATURE_SCALE = 8.0
LOGISTIC_CONDITION = 160.0
LOGISTIC_ROW_CAP = 3.2


@dataclass
class ProblemInstance:
    """A problem plus everything a test or experiment needs to judge it."""

    spec: ProblemSpec
    saddle_points: list[tuple[Vector, float]] = field(default_factory=list)
    base: "ProblemInstance | None" = None


def make_quadratic(
    d: int,
    n: int,
    seed: int = 0,
    *,
    scale: float = 1.0,
    spread: float = 0.5,
    matrix: np.ndarray | None = None,
) -> ProblemInstance:
    """Finite sum of quadratics f_i(x) = 0.5 x' A_i x with mean matrix A.

    ``matrix`` fixes A directly (symmetric); otherwise A = scale * I.  Each
    A_i = A + spread * S_i with symmetric zero-mean S_i centered so the
    component mean equals A exactly.  Useful wherever a problem with
    closed-form gradients and an exactly known spectrum is wanted.
    """
    core.check_values(d=d, n=n, scale=scale, spread=spread)
    rng = core.seeded_rng(seed, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        if matrix is None:
            A = scale * np.eye(d)
        else:
            A = np.array(matrix, dtype=float)
            if A.shape != (d, d):
                raise ConfigError(f"matrix must be ({d}, {d})")
            A = 0.5 * (A + A.T)
        comps = np.empty((n, d, d))
        if n > 1 and spread > 0:
            raw = rng.standard_normal((n, d, d))
            raw = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
            raw -= raw.mean(axis=0)
            comps = A[None, :, :] + spread * raw
        else:
            comps[:] = A[None, :, :]
    if not np.isfinite(comps).all():
        raise ConfigError(f"scale {scale:g} and spread {spread:g} overflow the components")

    L = float(max(np.max(np.abs(np.linalg.eigvalsh(Ai))) for Ai in comps))

    def value(x):
        return 0.5 * float(x @ (A @ x))

    def full_grad(x):
        return A @ x

    def component_grad_batch(idx, x):
        return np.matmul(comps[idx], x[..., None, :, None])[..., 0]

    def hvp(x, vec):
        return A @ vec

    spec = ProblemSpec(
        n=n,
        d=d,
        lipschitz_grad=L,
        lipschitz_hess=0.0,
        value=value,
        full_grad=full_grad,
        component_grad_batch=component_grad_batch,
        hvp=hvp,
    )
    return ProblemInstance(spec=spec)


def make_separable_saddle(
    d: int,
    n: int,
    delta_plant: float,
    noise: float = 0.1,
    seed: int = 0,
    *,
    gamma4: float = 1.0,
    box_radius: float = 1.0,
) -> ProblemInstance:
    """Quartic-regularized quadratic with a strict saddle planted at the origin.

    f(x) = 0.5 x' D x + (gamma4/4) sum_j x_j^4 with
    D = diag(1, ..., 1, -delta_plant).  The origin has zero gradient and
    smallest Hessian eigenvalue exactly -delta_plant; the global minima sit
    at x = (0, ..., 0, +-sqrt(delta_plant/gamma4)) with value
    -delta_plant^2/(4 gamma4).  Components add zero-mean linear noise, so
    the full gradient stays exact.

    Inside the max-norm box of radius R = box_radius the constants
    L = max(1, delta_plant) + 3 gamma4 R^2 and rho = 6 gamma4 R sqrt(d)
    are valid upper bounds.

    ``value``, ``full_grad`` and ``grad_diff_batch`` also take a ``(k, d)``
    stack of points (with a ``(k, b)`` index block) and answer row by row,
    each row bit for bit what the single point gets, so the coupled escape
    experiment can run all its trajectories in lockstep.
    """
    core.check_values(d=d, n=n, delta_plant=delta_plant, noise=noise, gamma4=gamma4,
                      box_radius=box_radius)
    if d < 2:
        raise ConfigError("planted saddle needs d >= 2")
    try:  # the saddle's depth delta_plant^2/(4 gamma4) is a float; a float power overflows with an exception
        delta_plant**2 / (4.0 * gamma4)
    except OverflowError:
        raise ConfigError("constraint violated: delta_plant^2 is a finite float") from None

    D = np.ones(d)
    D[-1] = -delta_plant
    rng = core.seeded_rng(seed, 0)
    if n > 1 and noise > 0:
        z = noise * rng.standard_normal((n, d))
        z -= z.mean(axis=0)
    else:
        z = np.zeros((n, d))

    R = box_radius
    L = max(1.0, delta_plant) + 3.0 * gamma4 * R * R
    rho = 6.0 * gamma4 * R * math.sqrt(d)

    def value(x):
        return 0.5 * np.vecdot(x, D * x) + 0.25 * gamma4 * np.add.reduce(x**4, axis=-1)

    def full_grad(x):
        return D * x + gamma4 * x**3

    component_grad_batch, grad_diff_batch = _noisy_gradients(full_grad, lambda idx: z[idx])

    def hvp(x, vec):
        return D * vec + 3.0 * gamma4 * (x * x) * vec

    spec = ProblemSpec(
        n=n,
        d=d,
        lipschitz_grad=L,
        lipschitz_hess=rho,
        value=value,
        full_grad=full_grad,
        component_grad_batch=component_grad_batch,
        grad_diff_batch=grad_diff_batch,
        hvp=hvp,
        domain_radius=R,
    )
    return ProblemInstance(
        spec=spec,
        saddle_points=[(np.zeros(d), -delta_plant)],
    )


def _point_slot(fn):
    """One-entry cache of the pure function ``fn(x)``, keyed on x's shape and
    float64 bytes, not its identity, so a caller may change x in place, and a
    ``(1, d)`` stack does not get the answer its ``(d,)`` row got.  The held
    result is shared between calls, so it must never reach a caller who
    could change it."""
    held: list = [None, None]  # shape and float64 bytes of the last x, fn(x) there

    def cached(x):
        a = np.asarray(x, dtype=float)
        key = a.shape, a.tobytes()
        if key != held[0]:
            held[:] = key, fn(x)
        return held[1]

    return cached


def _noisy_gradients(full_grad, noise):
    """The component oracles of a problem whose component i is the exact
    gradient plus ``noise(i)``, a term that does not depend on x, so that it
    cancels exactly in a difference.  A recursive step's old endpoint is the
    previous step's new one, and an epoch's anchor sits where the last epoch
    ended, so consecutive requests repeat a point: one ``_point_slot`` holds
    the gradient, and a difference asks for the old endpoint first, as it is
    the one the slot already holds."""
    grad = _point_slot(full_grad)

    def component_grad_batch(idx, x):
        return grad(x)[..., None, :] + noise(idx)

    def grad_diff_batch(idx, x_new, x_old):
        g_old = grad(x_old)
        return grad(x_new) - g_old

    return component_grad_batch, grad_diff_batch


def _logistic_instance(A: np.ndarray, y: np.ndarray, reg: float) -> ProblemInstance:
    """The nonconvex logistic problem on rows ``A`` and labels ``y``.

    Work is done once per point.  One ``_point_slot`` holds the margins
    ``Ay @ x``, which ``value``, ``full_grad`` and ``hvp`` read, so an epoch
    start's anchor and its f share one product.  The component oracle
    answers point stacks (``ProblemSpec``).  Callers always get fresh arrays.
    f is ``max(-m, 0) + log1p(exp(-|m|))`` per margin m, which never overflows.
    """
    core.check_values(reg=reg)
    n, d = A.shape
    Ay = A * y[:, None]
    row_norms = np.linalg.norm(A, axis=1)
    L = float(np.max(row_norms) ** 2 / 4.0 + 2.0 * reg)
    rho = float(SIGMOID_D2_MAX * np.max(row_norms) ** 3 + RATIONAL_REG_D3_MAX * reg)
    margins = _point_slot(lambda x: Ay @ x)

    def reg_value(x):
        return reg * float(np.add.reduce(x * x / (1.0 + x * x)))

    def reg_hess_diag(x):
        x2 = x * x
        return reg * (2.0 - 6.0 * x2) / (1.0 + x2) ** 3

    def value(x):
        m = margins(x)
        loss = np.maximum(-m, 0.0) + np.log1p(np.exp(-np.abs(m)))
        return float(np.add.reduce(loss) / n) + reg_value(x)

    def full_grad(x):
        s = 1.0 / (1.0 + np.exp(margins(x)))  # sigmoid(-margin)
        return -(Ay.T @ s) / n + reg * 2.0 * x / (1.0 + x * x) ** 2

    def component_grad_batch(idx, x):
        g = Ay.take(idx, axis=0)
        w = np.matmul(g, x[..., None])  # a margin column per point of the stack
        np.exp(w, out=w)
        w += 1.0
        np.divide(-1.0, w, out=w)  # -sigmoid(-margin): (-1)/d is -(1/d) exactly
        g = g * w
        g += (reg * 2.0 * x / (1.0 + x * x) ** 2)[..., None, :]
        return g

    def hvp(x, vec):
        s = 1.0 / (1.0 + np.exp(-margins(x)))
        w = s * (1.0 - s)
        return A.T @ (w * (A @ vec)) / n + reg_hess_diag(x) * vec

    spec = ProblemSpec(
        n=n,
        d=d,
        lipschitz_grad=L,
        lipschitz_hess=rho,
        value=value,
        full_grad=full_grad,
        component_grad_batch=component_grad_batch,
        hvp=hvp,
    )
    return ProblemInstance(spec=spec)


def make_nonconvex_logistic(
    n: int,
    d: int,
    reg: float = 0.01,
    seed: int = 0,
    *,
    flip_prob: float = 0.05,
) -> ProblemInstance:
    """Logistic losses with a bounded nonconvex coordinate regularizer.

    f_i(x) = log(1 + exp(-y_i a_i' x)) + reg * sum_j x_j^2/(1 + x_j^2).

    Feature variances are log-spaced from ``LOGISTIC_FEATURE_SCALE`` down
    over a ratio of ``LOGISTIC_CONDITION``, and rows are clipped to norm
    ``LOGISTIC_ROW_CAP``, which pins the worst-row smoothness
    constant independently of n.  Labels come from a planted weight vector
    whose mass concentrates on the weak directions (so the fit spends a
    long stretch at every gradient scale rather than contracting at a
    single exponential rate), with ``flip_prob`` labels flipped to keep the
    minimizer finite.  All derivative bounds hold globally:
    L = max_i ||a_i||^2/4 + 2 reg, rho = max_i ||a_i||^3/(6 sqrt(3)) + 5 reg.
    """
    core.check_values(n=n, d=d, flip_prob=flip_prob)
    rng = core.seeded_rng(seed, 0)
    j = np.arange(d)
    decay = j / (d - 1) if d > 1 else np.zeros(1)
    variances = LOGISTIC_FEATURE_SCALE * np.exp(-math.log(LOGISTIC_CONDITION) * decay)
    A = rng.standard_normal((n, d)) * np.sqrt(variances)[None, :]
    norms = np.linalg.norm(A, axis=1)
    clipped = norms > LOGISTIC_ROW_CAP
    A[clipped] *= (LOGISTIC_ROW_CAP / norms[clipped])[:, None]
    w_true = (1.0 + 0.15 * rng.standard_normal(d)) * variances**-0.75
    w_true *= 3.0 / np.linalg.norm(w_true * np.sqrt(variances))
    y = np.sign(A @ w_true + 0.2 * rng.standard_normal(n))
    y[y == 0] = 1.0
    if flip_prob > 0:
        y[rng.random(n) < flip_prob] *= -1.0
    return _logistic_instance(A, y, reg)


# splitmix64's constants: the golden-ratio stream gamma, the finalizer's two
# (shift, multiplier) rounds, and the multiplier that mixes the stream seed into an id
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_ROUNDS = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
                    (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_SEED_MIX = 0xD1342543DE82EF95


def _splitmix_uniforms(z: np.ndarray) -> np.ndarray:
    """U[0,1) from splitmix64's finalizer over the uint64 array ``z``, which
    it overwrites (array integer ops wrap silently, which is the point)."""
    t = np.empty_like(z)
    for shift, mult in _SPLITMIX_ROUNDS:
        z ^= np.right_shift(z, shift, out=t)
        z *= mult
    z ^= np.right_shift(z, np.uint64(31), out=t)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u /= 2**53
    return u


def _ball_noise_map(d: int, radius: float, seed: int):
    """The map from sample ids to uniform-in-ball noise vectors of one
    stream: an id array of shape ``(..., b)`` gets ``(..., b, d)``, each
    row bit for bit what that id gets alone.

    Box-Muller gaussians from hashed uniforms give the isotropic direction;
    the radius is scaled by U^(1/d).  Stateless, so the same (seed, id)
    always reproduces the same noise without constructing a generator per
    id, which matters inside estimator inner loops.  Pair p of coordinates
    (2p, 2p+1) reads lanes 3p and 3p+1, lane 2 is the radius draw, and one
    hash pass covers all of them; the seed key and the lane offsets are
    worked out here, once per stream.
    """
    key = np.uint64(seed % 2**64 * _SEED_MIX % 2**64)
    pairs = (d + 1) // 2
    lanes = 3 * np.arange(pairs)
    # lane l's stream offset, gamma * (2 l + 1) mod 2^64 (a ufunc wraps silently)
    offsets = np.multiply(_GOLDEN_GAMMA, 2 * np.concatenate([lanes, lanes + 1, [2]]).astype(np.uint64) + 1)

    def noise(ids) -> np.ndarray:
        u = _splitmix_uniforms(np.add((np.asarray(ids, dtype=np.uint64) ^ key)[..., None], offsets))
        r = np.sqrt(-2.0 * np.log(np.maximum(u[..., :pairs], 1e-300)))
        theta = 2.0 * np.pi * u[..., pairs:-1]
        z = np.empty(u.shape[:-1] + (d,))
        np.multiply(r, np.cos(theta), out=z[..., 0::2])
        z[..., 1::2] = (r * np.sin(theta))[..., : d // 2]
        norms = np.sqrt(np.add.reduce(z * z, axis=-1))  # np.linalg.norm's own sum
        norms[norms == 0] = 1.0
        z *= (radius * u[..., -1] ** (1.0 / d) / norms)[..., None]
        return z

    return noise


def make_online_stream(base: ProblemInstance, sigma: float, seed: int = 0) -> ProblemInstance:
    """Online wrapper: component i returns grad f(x) plus bounded noise.

    The noise for sample id i is drawn uniformly from the ball of radius
    sigma keyed by (seed, i), so ||grad_i - grad|| <= sigma holds for every
    sample and the noise is exactly mean-zero in distribution.  Function
    values and Hessian-vector products stay exact (evaluation-side
    oracles); the exact full gradient is withheld, as online estimators
    must not see it.  Repeated gradient requests at one point are answered
    from a one-entry slot holding the base gradient at the last point asked
    for, which relies on the base ``full_grad`` being a pure function of x.
    The stream answers a ``(k, d)`` point stack only when the base
    ``full_grad`` does: the planted saddle's does, the logistic one's takes
    a single point.
    """
    core.check_values(sigma=sigma, seed=seed)
    bspec = base.spec
    if bspec.full_grad is None:
        raise ConfigError("online stream needs a base with an exact gradient")
    d = bspec.d
    component_grad_batch, grad_diff_batch = _noisy_gradients(
        lambda x: bspec.full_grad(x),  # sees a later-patched oracle
        _ball_noise_map(d, sigma, seed),
    )

    spec = ProblemSpec(
        n=math.inf,
        d=d,
        lipschitz_grad=bspec.lipschitz_grad,
        lipschitz_hess=bspec.lipschitz_hess,
        value=bspec.value,
        full_grad=None,
        component_grad_batch=component_grad_batch,
        grad_diff_batch=grad_diff_batch,
        hvp=bspec.hvp,
        variance_bound=sigma,
        domain_radius=bspec.domain_radius,
    )
    return ProblemInstance(
        spec=spec,
        saddle_points=list(base.saddle_points),
        base=base,
    )


def load_libsvm(path, d_cap: int, reg: float = 0.1) -> ProblemInstance:
    """Parse whitespace-separated ``label idx:val`` sparse lines (1-based
    indices), materialize dense features, and wrap them as a nonconvex
    logistic instance.  Labels map to +1 (label > 0) / -1."""
    core.check_values(d_cap=d_cap)
    rows: list[tuple[float, dict[int, float]]] = []
    max_idx = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise DatasetError(f"line {lineno}: bad label {tokens[0]!r}")
            feats: dict[int, float] = {}
            for tok in tokens[1:]:
                try:
                    idx_str, val_str = tok.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise DatasetError(f"line {lineno}: bad feature token {tok!r}")
                if idx < 1:
                    raise DatasetError(f"line {lineno}: feature index {idx} must be >= 1")
                feats[idx] = val
                max_idx = max(max_idx, idx)
            rows.append((label, feats))
    if not rows:
        raise DatasetError(f"{path}: no samples found")
    if max_idx > d_cap:
        raise DatasetError(
            f"{path}: feature dimension {max_idx} exceeds cap {d_cap}"
        )
    d = max(1, max_idx)
    n = len(rows)
    A = np.zeros((n, d))
    y = np.empty(n)
    for r, (label, feats) in enumerate(rows):
        y[r] = 1.0 if label > 0 else -1.0
        for idx, val in feats.items():
            A[r, idx - 1] = val
    return _logistic_instance(A, y, reg)
