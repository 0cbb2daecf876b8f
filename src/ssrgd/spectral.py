"""Second-order stationarity certification.

A point x passes when its measured gradient norm is at most eps and the
smallest Hessian eigenvalue estimate, minus the estimator's slack, is at
least -delta.  Up to ``DENSE_CAP`` dimensions the Hessian is assembled
column by column from Hessian-vector products and solved densely (zero
slack); larger problems fall back to ``POWER_ITERS`` steps of shifted power
iteration on L*I - H, with L the problem's ``lipschitz_grad``, which never
needs the matrix itself.

Certification lives outside the optimizer loop by design: the optimizer
escapes saddle points without any curvature search, and these routines only
judge the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algorithm, core, estimators
from .core import ConfigError, Mode, ProblemSpec, UnsupportedOracleError, Vector

DENSE_CAP = 200
POWER_ITERS = 800
# multiplies the random-start power-method tail bound (0.5 log d + 3)/iters;
# deliberately conservative, see lambda_min_power
POWER_SLACK_CONST = 2.0


@dataclass
class Certificate:
    grad_norm: float
    lambda_min_est: float
    lambda_min_ci: float
    is_fosp: bool
    is_sosp: bool
    method: str  # "dense" | "shifted_power"


def assemble_hessian(problem: ProblemSpec, x: Vector) -> np.ndarray:
    """Build the (symmetrized) Hessian from d Hessian-vector products."""
    if problem.hvp is None:
        raise UnsupportedOracleError("certification needs a Hessian-vector oracle")
    d = problem.d
    H = np.empty((d, d))
    e = np.zeros(d)
    for j in range(d):
        e[j] = 1.0
        H[:, j] = problem.hvp(x, e)
        e[j] = 0.0
    return 0.5 * (H + H.T)


def lambda_min_dense(problem: ProblemSpec, x: Vector) -> float:
    """Exact smallest eigenvalue of the assembled Hessian (d up to ``DENSE_CAP`` only)."""
    if problem.d > DENSE_CAP:
        raise ConfigError(
            f"d={problem.d} exceeds the dense cap {DENSE_CAP}; use lambda_min_power"
        )
    return float(np.linalg.eigvalsh(assemble_hessian(problem, x))[0])


def lambda_min_power(
    problem: ProblemSpec,
    x: Vector,
    iters: int = POWER_ITERS,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Smallest-eigenvalue estimate via power iteration on L*I - H.

    Returns ``(est, slack)``.  ``est`` is an *upper* bound on the true
    lambda_min: the shift makes the operator positive semidefinite, so its
    top eigenvalue is L - lambda_min and the Rayleigh quotient only ever
    under-shoots it.  ``slack`` bounds the gap via the standard
    random-start tail (after k steps the relative error is below
    (0.5 log d + log(1/zeta))/k with probability 1 - zeta), so
    ``est - slack`` is the lower bound a certificate may rely on.
    """
    if problem.hvp is None:
        raise UnsupportedOracleError("power iteration needs a Hessian-vector oracle")
    L = problem.lipschitz_grad
    core.check_values(iters=iters)
    if rng is None:
        rng = core.seeded_rng(0, 17)
    d = problem.d
    q = rng.standard_normal(d)
    q /= np.linalg.norm(q)
    for _ in range(iters):
        z = L * q - problem.hvp(x, q)
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            break  # H == L*I on this vector; Rayleigh below settles it
        q = z / nz
    rayleigh = float(q @ (L * q - problem.hvp(x, q)))
    slack = POWER_SLACK_CONST * max(rayleigh, 1e-12) * (0.5 * math.log(max(d, 2)) + 3.0) / iters
    return L - rayleigh, slack


def certify(problem: ProblemSpec, x: Vector, eps: float, delta: float) -> Certificate:
    """Populate a second-order certificate for the point x.

    Finite-sum problems measure the exact gradient; online problems use a
    large-batch estimate over ``derive_config``'s ceil(4 sigma^2/eps^2)
    samples drawn from ``core.seeded_rng(0, 29)``, the stream that then
    starts an online power iteration.  eps and delta must pass their rows
    of ``core.SETTING_RULES``, except that eps = 0 on a finite sum asks for
    an exact stationary point.
    The eigenvalue method is dense up to ``DENSE_CAP`` dimensions and
    shifted power iteration of ``POWER_ITERS`` steps beyond it.
    """
    core.check_values(off=(("eps", 0),), eps=eps, delta=delta)  # derive_config refuses eps = 0 online
    if problem.mode is Mode.ONLINE:
        rng = core.seeded_rng(0, 29)
        B = algorithm.derive_config(problem, eps).large_batch
        g = estimators.large_batch_gradient(problem, x, B, rng)
    else:
        rng, g = None, estimators.full_gradient(problem, x)
    grad_norm = float(np.linalg.norm(g))
    is_fosp = grad_norm <= eps
    if problem.d <= DENSE_CAP:
        lam = lambda_min_dense(problem, x)
        slack = 0.0
        method = "dense"
    else:
        lam, slack = lambda_min_power(problem, x, iters=POWER_ITERS, rng=rng)
        method = "shifted_power"
    return Certificate(
        grad_norm=grad_norm,
        lambda_min_est=lam,
        lambda_min_ci=slack,
        is_fosp=is_fosp,
        is_sosp=bool(is_fosp and lam - slack >= -delta),
        method=method,
    )
