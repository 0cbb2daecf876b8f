import numpy as np

from ssrgd import core, estimators, problems
from ssrgd.core import ProblemSpec


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
        value=lambda x: 0.5 * abar * float(x[0] ** 2),
        full_grad=lambda x: abar * x,
        component_grad_batch=lambda idx, x: a[idx, None] * x[..., None, :],
        hvp=lambda x, v: abar * v,
    )


def assert_same_outcome(a, b) -> None:
    """Two optimizer outcomes agree bit for bit: every trace row, the final
    point, both SFO counts, the termination and the super-epoch candidates."""
    assert a.trace == b.trace
    assert np.array_equal(a.final_x, b.final_x)
    assert (a.sfo_raw, a.sfo_nominal, a.termination) == (b.sfo_raw, b.sfo_nominal, b.termination)
    assert [t for t, _ in a.sosp_candidates] == [t for t, _ in b.sosp_candidates]
    assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(a.sosp_candidates, b.sosp_candidates))


def on_stream(monkeypatch, rng, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with ``core.seeded_rng`` handing out ``rng``: a
    function that makes its own stream draws from the one the test gives it."""
    with monkeypatch.context() as patch:
        patch.setattr(core, "seeded_rng", lambda *_: rng)
        return fn(*args, **kwargs)


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
        value=lambda x: 0.5 * float(x @ (A @ x)),
        full_grad=lambda x: A @ x,
        component_grad_batch=lambda idx, x: np.matmul(comps[idx], x[..., None, :, None])[..., 0],
        hvp=lambda x, v: A @ v,
    )


def logistic_rows(A, y, reg, idx, x):
    """Row i of the logistic batch oracle on (A, y, reg), for each i in
    ``idx``, as the full gradient of the one-row problem on (A[i], y[i]),
    which reaches it through another code path (``Ay.T @ s / n``)."""
    return np.stack([
        problems._logistic_instance(A[i:i + 1], y[i:i + 1], reg).spec.full_grad(x) for i in idx
    ])


def online_rows(base, sigma, seed, idx, x):
    """Rows of the online stream over ``base``: the base gradient plus each
    id's hashed noise."""
    return base.spec.full_grad(x)[None, :] + problems._ball_noise_map(base.spec.d, sigma, seed)(idx)


def reference_epoch(problem, x, g, step_size, rng, b, steps, sfo, *, snapshot=False):
    """The inner loop as each optimizer and diagnostic wrote it out from the
    anchor (x, g): move, draw, then advance the recursive estimator, or with
    ``snapshot`` the one anchored at (x, g)."""
    out = []
    anchor, v = x, g
    for _ in range(steps):
        x_old, x = x, x - step_size * v
        batch = core.sample_minibatch(rng, problem.n, b)
        if snapshot:
            v = estimators.svrg_step(problem, anchor, g, x, batch, sfo=sfo)
        else:
            v = estimators.recursive_step(problem, v, x_old, x, batch, sfo=sfo)
        out.append((x, v, batch))
    return out
