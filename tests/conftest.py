import numpy as np

from ssrgd.core import Mode, ProblemSpec


def scalar_quadratic(a_values) -> ProblemSpec:
    """d=1 finite sum with f_i(x) = a_i x^2 / 2; mean curvature drives f."""
    a = np.asarray(a_values, dtype=float)
    n = len(a)
    abar = a.mean()

    return ProblemSpec(
        n=n,
        d=1,
        lipschitz_grad=float(np.max(np.abs(a))),
        lipschitz_hess=0.0,
        mode=Mode.FINITE_SUM,
        value=lambda x: 0.5 * abar * float(x[0] ** 2),
        component_grad=lambda i, x: a[i] * x,
        full_grad=lambda x: abar * x,
        component_grad_batch=lambda idx, x: a[idx, None] * x[None, :],
        hvp=lambda x, v: abar * v,
    )


def counting(fn):
    """``fn`` wrapped so that ``.calls`` counts its invocations."""

    def wrapped(*args):
        wrapped.calls += 1
        return fn(*args)

    wrapped.calls = 0
    return wrapped


def random_quadratic_family(d, n, seed, spread=0.6):
    """Component matrices A_i (symmetric, exactly centered on their mean)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, d, d))
    raw = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
    base = rng.standard_normal((d, d))
    base = 0.5 * (base + base.T)
    comps = base[None] + spread * (raw - raw.mean(axis=0))
    return comps


def quadratic_problem_from_components(comps) -> ProblemSpec:
    comps = np.asarray(comps, dtype=float)
    n, d, _ = comps.shape
    A = comps.mean(axis=0)
    L = float(max(np.max(np.abs(np.linalg.eigvalsh(C))) for C in comps))
    return ProblemSpec(
        n=n,
        d=d,
        lipschitz_grad=L,
        lipschitz_hess=0.0,
        mode=Mode.FINITE_SUM,
        value=lambda x: 0.5 * float(x @ (A @ x)),
        component_grad=lambda i, x: comps[i] @ x,
        full_grad=lambda x: A @ x,
        component_grad_batch=lambda idx, x: comps[idx] @ x,
        hvp=lambda x, v: A @ v,
    )

