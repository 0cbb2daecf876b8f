import dataclasses
import itertools
import math

import numpy as np
import pytest

from ssrgd import core, estimators
from ssrgd.algorithm import derive_config, run_ssrgd
from ssrgd.baselines import BaselineKind, run_baseline
from ssrgd.core import ConfigError, NonFiniteError, ProblemSpec, UnsupportedOracleError
from ssrgd.problems import make_nonconvex_logistic, make_online_stream, make_quadratic

from conftest import (
    counting, quadratic_problem_from_components, random_quadratic_family, reference_epoch,
    scalar_quadratic,
)


class TestFullGradient:
    def test_scalar_closed_form(self):
        # a = (1, 2, 3), x = 2: mean curvature 2 -> gradient 4
        prob = scalar_quadratic([1.0, 2.0, 3.0])
        g = estimators.full_gradient(prob, np.array([2.0]))
        assert g[0] == pytest.approx(4.0, abs=1e-15)

    def test_zero_point(self):
        prob = scalar_quadratic([1.0, 2.0, 3.0])
        assert np.array_equal(estimators.full_gradient(prob, np.zeros(1)), np.zeros(1))

    def test_matches_component_mean(self):
        comps = random_quadratic_family(d=3, n=4, seed=8)
        prob = quadratic_problem_from_components(comps)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        direct = np.mean([comps[i] @ x for i in range(4)], axis=0)
        assert np.linalg.norm(estimators.full_gradient(prob, x) - direct) < 1e-12

    def test_online_refuses(self):
        inst = make_online_stream(make_quadratic(3, 2, seed=0), 0.5)
        with pytest.raises(UnsupportedOracleError):
            estimators.full_gradient(inst.spec, np.zeros(3))

    def test_sfo_is_n(self):
        prob = scalar_quadratic([1.0, 2.0, 3.0])
        sfo = core.SfoCounter()
        estimators.full_gradient(prob, np.zeros(1), sfo=sfo)
        assert sfo.raw == 3 and sfo.nominal == 3


def _hashed_normals(ids, d):
    """Deterministic id -> N(0,1)^d map (splitmix64 + Box-Muller), vectorized."""
    out = np.empty((len(ids), d))
    base = np.asarray(ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(d):
            z = base + np.uint64(0x9E3779B97F4A7C15) * np.uint64(2 * j + 1)
            for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
                z ^= z >> np.uint64(shift)
                z *= np.uint64(mult)
            z ^= z >> np.uint64(31)
            u1 = (z >> np.uint64(11)).astype(float) / 2**53
            z2 = z * np.uint64(0xD1342543DE82EF95) + np.uint64(1)
            z2 ^= z2 >> np.uint64(29)
            u2 = (z2 >> np.uint64(11)).astype(float) / 2**53
            out[:, j] = np.sqrt(-2.0 * np.log(np.clip(u1, 1e-300, None))) * np.cos(
                2.0 * np.pi * u2
            )
    return out


def gaussian_online_problem(d, sigma):
    """Online oracle grad_i(x) = x + sigma * z_i with z_i standard normal."""

    def comp_batch(idx, x):
        return x[None, :] + sigma * _hashed_normals(idx, d)

    return ProblemSpec(
        n=math.inf,
        d=d,
        lipschitz_grad=1.0,
        lipschitz_hess=0.0,
        value=lambda x: 0.5 * float(x @ x),
        component_grad_batch=comp_batch,
        variance_bound=sigma * math.sqrt(d),
    )


class TestRefusals:
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: estimators.component_gradients(make_quadratic(d=2, n=4).spec, [], np.zeros(2)),
                     "empty minibatch", id="empty-minibatch"),
    ])
    def test_refusal(self, call, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            call()


class TestLargeBatchGradient:
    def test_single_sample_equals_component(self):
        prob = gaussian_online_problem(3, 1.0)
        v = estimators.large_batch_gradient(prob, np.zeros(3), 1, core.seeded_rng(4, 0))
        idx = core.sample_minibatch(core.seeded_rng(4, 0), math.inf, 1)
        assert np.array_equal(v, _hashed_normals(idx, 3)[0])  # x + sigma z_i at x = 0, sigma = 1

    def test_zero_variance_exact(self):
        inst = make_online_stream(make_quadratic(4, 3, seed=2), 0.0)
        x = np.arange(4.0)
        v = estimators.large_batch_gradient(inst.spec, x, 7, core.seeded_rng(5, 0))
        assert np.allclose(v, inst.base.spec.full_grad(x), atol=1e-15)

    def test_concentration(self):
        # ||mean of B standard gaussians|| <= 4/sqrt(B) in >= 99% of trials (d=1)
        prob = gaussian_online_problem(1, 1.0)
        rng = core.seeded_rng(6, 0)
        B = 10_000
        hits = 0
        trials = 200
        for _ in range(trials):
            v = estimators.large_batch_gradient(prob, np.zeros(1), B, rng)
            hits += np.linalg.norm(v) <= 4.0 / math.sqrt(B)
        assert hits / trials >= 0.99

    def test_invalid_batch(self):
        prob = gaussian_online_problem(2, 1.0)
        with pytest.raises(ConfigError):
            estimators.large_batch_gradient(prob, np.zeros(2), 0, core.seeded_rng(0, 0))

    def test_finite_sum_refuses(self):
        prob = scalar_quadratic([1.0])
        with pytest.raises(UnsupportedOracleError):
            estimators.large_batch_gradient(prob, np.zeros(1), 3, core.seeded_rng(0, 0))


class TestRecursiveStep:
    def test_hand_arithmetic(self):
        # a = (1,2,3), prev_x = 1, v = 2, x_new = 0.5, batch = components {2,3}
        # v_new = 2 + ((2+3)*0.5 - (2+3)*1)/2 = 0.75
        prob = scalar_quadratic([1.0, 2.0, 3.0])
        v = estimators.recursive_step(prob, np.array([2.0]), np.array([1.0]), np.array([0.5]), [1, 2])
        assert v[0] == pytest.approx(0.75, abs=1e-15)

    def test_zero_displacement(self):
        prob = scalar_quadratic([1.0, 2.0, 3.0])
        v = estimators.recursive_step(prob, np.array([1.7]), np.array([0.3]), np.array([0.3]), [0, 2])
        assert v[0] == 1.7

    def test_full_cover_telescopes(self):
        comps = random_quadratic_family(d=2, n=5, seed=3)
        prob = quadratic_problem_from_components(comps)
        x_old = np.array([1.0, -2.0])
        x_new = np.array([0.25, 0.5])
        v = estimators.recursive_step(
            prob, estimators.full_gradient(prob, x_old), x_old, x_new, list(range(5))
        )
        assert np.linalg.norm(v - estimators.full_gradient(prob, x_new)) < 1e-12

    def test_empty_batch_raises(self):
        prob = scalar_quadratic([1.0])
        with pytest.raises(ConfigError):
            estimators.recursive_step(prob, np.zeros(1), np.zeros(1), np.ones(1), [])

    def test_sfo_two_b_raw_b_nominal(self):
        prob = scalar_quadratic([1.0, 2.0])
        sfo = core.SfoCounter()
        estimators.recursive_step(prob, np.zeros(1), np.zeros(1), np.ones(1), [0, 1, 1], sfo=sfo)
        assert sfo.raw == 6 and sfo.nominal == 3


class TestSvrgStep:
    def test_at_snapshot(self):
        prob = scalar_quadratic([1.0, 2.0, 3.0])
        anchor = np.array([1.0])
        g = estimators.full_gradient(prob, anchor)
        v = estimators.svrg_step(prob, anchor, g, anchor, [0, 1])
        assert np.array_equal(v, g)

    def test_hand_arithmetic(self):
        # snapshot x~ = 1 (grad 2), x = 2, batch = component {1} twice:
        # v = (1*2 - 1*1) + 2 = 3
        prob = scalar_quadratic([1.0, 2.0, 3.0])
        anchor = np.array([1.0])
        g = estimators.full_gradient(prob, anchor)
        v = estimators.svrg_step(prob, anchor, g, np.array([2.0]), [0, 0])
        assert v[0] == pytest.approx(3.0, abs=1e-15)

    def test_full_pass_exact(self):
        comps = random_quadratic_family(d=2, n=4, seed=5)
        prob = quadratic_problem_from_components(comps)
        anchor = np.array([0.5, 1.5])
        g = estimators.full_gradient(prob, anchor)
        x = np.array([-1.0, 2.0])
        v = estimators.svrg_step(prob, anchor, g, x, list(range(4)))
        assert np.linalg.norm(v - estimators.full_gradient(prob, x)) < 1e-12


def enumerate_batches(n, b):
    return [np.array(t, dtype=np.int64) for t in itertools.product(range(n), repeat=b)]


class TestUnbiasedness:
    """Exhaustive enumeration over all b-tuples: E[v] must equal the exact
    gradient at the new point when v was exact at the old point."""

    @pytest.mark.parametrize("n,b,d", [(2, 1, 1), (3, 2, 2), (4, 2, 3), (4, 1, 2)])
    def test_recursive(self, n, b, d):
        comps = random_quadratic_family(d=d, n=n, seed=n * 10 + b)
        prob = quadratic_problem_from_components(comps)
        rng = np.random.default_rng(0)
        x_old = rng.standard_normal(d)
        x_new = rng.standard_normal(d)
        g_old = estimators.full_gradient(prob, x_old)
        vs = [
            estimators.recursive_step(prob, g_old, x_old, x_new, batch)
            for batch in enumerate_batches(n, b)
        ]
        mean_v = np.mean(vs, axis=0)
        assert np.linalg.norm(mean_v - estimators.full_gradient(prob, x_new)) < 1e-12

    @pytest.mark.parametrize("n,b,d", [(2, 1, 1), (3, 2, 2), (4, 2, 3)])
    def test_svrg(self, n, b, d):
        comps = random_quadratic_family(d=d, n=n, seed=n * 17 + b)
        prob = quadratic_problem_from_components(comps)
        rng = np.random.default_rng(1)
        anchor = rng.standard_normal(d)
        x = rng.standard_normal(d)
        g = estimators.full_gradient(prob, anchor)
        vs = [estimators.svrg_step(prob, anchor, g, x, batch) for batch in enumerate_batches(n, b)]
        assert np.linalg.norm(np.mean(vs, axis=0) - estimators.full_gradient(prob, x)) < 1e-12


class TestVarianceBounds:
    """The estimator error along a fixed trajectory obeys the stated bound:
    exhaustive enumeration (exact) on tiny instances, Monte Carlo with a
    three-standard-error allowance on larger ones."""

    def _trajectory(self, prob, steps, scale=0.4, seed=0):
        rng = np.random.default_rng(seed)
        xs = [rng.standard_normal(prob.d)]
        for _ in range(steps):
            xs.append(xs[-1] + scale * rng.standard_normal(prob.d))
        return np.stack(xs)

    @pytest.mark.parametrize("n,b,steps", [(3, 1, 3), (4, 1, 3), (2, 2, 2)])
    def test_recursive_exhaustive(self, n, b, steps):
        comps = random_quadratic_family(d=2, n=n, seed=n + b)
        prob = quadratic_problem_from_components(comps)
        xs = self._trajectory(prob, steps, seed=n)
        grads = [estimators.full_gradient(prob, x) for x in xs]
        L = prob.lipschitz_grad
        per_step = enumerate_batches(n, b)
        errors = np.zeros(steps)
        count = 0
        for seq in itertools.product(per_step, repeat=steps):
            v = grads[0]
            for j, batch in enumerate(seq, start=1):
                v = estimators.recursive_step(prob, v, xs[j - 1], xs[j], batch)
                errors[j - 1] += np.sum((v - grads[j]) ** 2)
            count += 1
        errors /= count
        bound = (L**2 / b) * np.cumsum(np.sum(np.diff(xs, axis=0) ** 2, axis=1))
        assert np.all(errors <= bound + 1e-12)

    def test_svrg_exhaustive(self):
        n, b = 3, 1
        comps = random_quadratic_family(d=2, n=n, seed=21)
        prob = quadratic_problem_from_components(comps)
        xs = self._trajectory(prob, 3, seed=2)
        g0 = estimators.full_gradient(prob, xs[0])
        L = prob.lipschitz_grad
        for j in range(1, len(xs)):
            gj = estimators.full_gradient(prob, xs[j])
            errs = [
                np.sum((estimators.svrg_step(prob, xs[0], g0, xs[j], batch) - gj) ** 2)
                for batch in enumerate_batches(n, b)
            ]
            bound = (L**2 / b) * np.sum((xs[j] - xs[0]) ** 2)
            assert np.mean(errs) <= bound + 1e-12

    def test_recursive_monte_carlo(self):
        # On quadratics the error chain is linear:
        #   e_j = e_{j-1} + (mean_batch A_i - A) dx_j,  e_0 = 0,
        # which vectorizes over replications; a subsample is cross-checked
        # against the real recursive_step below.
        n, b, steps, reps = 12, 3, 5, 100_000
        comps = random_quadratic_family(d=4, n=n, seed=33)
        prob = quadratic_problem_from_components(comps)
        xs = self._trajectory(prob, steps, seed=4)
        grads = [estimators.full_gradient(prob, x) for x in xs]
        L = prob.lipschitz_grad
        A = comps.mean(axis=0)
        deltas = np.diff(xs, axis=0)
        rng = core.seeded_rng(100, 0)
        idx = rng.integers(0, n, size=(reps, steps, b))
        errs = np.zeros((reps, steps))
        e = np.zeros((reps, prob.d))
        for j in range(steps):
            dev_dot = (comps - A) @ deltas[j]  # (n, d): (A_i - A) dx_j
            e = e + dev_dot[idx[:, j, :]].mean(axis=1)
            errs[:, j] = np.sum(e * e, axis=1)
        est = errs.mean(axis=0)
        se = errs.std(axis=0, ddof=1) / math.sqrt(reps)
        bound = (L**2 / b) * np.cumsum(np.sum(deltas**2, axis=1))
        assert np.all(est <= bound + 3 * se)
        # chain formula agrees with the implementation on sampled sequences
        for rep in range(0, 2000, 97):
            v = grads[0]
            for j in range(steps):
                v = estimators.recursive_step(prob, v, xs[j], xs[j + 1], idx[rep, j])
            assert np.sum((v - grads[steps]) ** 2) == pytest.approx(
                errs[rep, steps - 1], rel=1e-9, abs=1e-12
            )

    def test_svrg_monte_carlo(self):
        # snapshot error at x_t is ||(mean_batch A_i - A)(x_t - x_0)||^2,
        # independent across steps; vectorized over replications and
        # cross-checked against svrg_step on a subsample
        n, b, steps, reps = 10, 3, 4, 100_000
        comps = random_quadratic_family(d=3, n=n, seed=55)
        prob = quadratic_problem_from_components(comps)
        xs = self._trajectory(prob, steps, seed=7)
        grads = [estimators.full_gradient(prob, x) for x in xs]
        L = prob.lipschitz_grad
        A = comps.mean(axis=0)
        rng = core.seeded_rng(101, 0)
        idx = rng.integers(0, n, size=(reps, steps, b))
        anchor = xs[0]
        for j in range(steps):
            offset = xs[j + 1] - anchor
            dev_dot = (comps - A) @ offset  # (n, d)
            errs_j = np.sum(dev_dot[idx[:, j, :]].mean(axis=1) ** 2, axis=1)
            est = errs_j.mean()
            se = errs_j.std(ddof=1) / math.sqrt(reps)
            bound = (L**2 / b) * float(np.sum(offset**2))
            assert est <= bound + 3 * se
            for rep in range(0, reps, 25_000):
                v = estimators.svrg_step(prob, anchor, grads[0], xs[j + 1], idx[rep, j])
                assert np.sum((v - grads[j + 1]) ** 2) == pytest.approx(
                    errs_j[rep], rel=1e-9, abs=1e-12
                )


class TestDescend:
    def _setup(self):
        prob = quadratic_problem_from_components(random_quadratic_family(d=3, n=7, seed=13))
        x0 = np.array([1.0, -0.5, 2.0])
        return prob, x0, estimators.full_gradient(prob, x0)

    @pytest.mark.parametrize("recursive", [True, False])
    def test_matches_reference_loop(self, recursive):
        prob, x0, g0 = self._setup()
        sfo, ref_sfo = core.SfoCounter(), core.SfoCounter()
        rng, ref_rng = core.seeded_rng(9, 0), core.seeded_rng(9, 0)
        block = core.sample_minibatch(rng, prob.n, 3, steps=6)
        steps = estimators.descend(prob, x0, g0, 0.2, block, sfo, snapshot=not recursive)
        got = [next(steps) for _ in range(6)]
        want = reference_epoch(prob, x0, g0, 0.2, ref_rng, 3, 6, ref_sfo, snapshot=not recursive)
        for (x, v, batch), (rx, rv, rbatch) in zip(got, want):
            assert np.array_equal(x, rx) and np.array_equal(v, rv)
            assert np.array_equal(batch, rbatch)
        assert (sfo.raw, sfo.nominal) == (ref_sfo.raw, ref_sfo.nominal) == (36, 18)
        assert rng.random() == ref_rng.random()

    def test_draws_only_when_resumed(self):
        prob, x0, g0 = self._setup()
        rng = core.seeded_rng(4, 0)
        batches = (core.sample_minibatch(rng, prob.n, 3) for _ in itertools.count())
        steps = estimators.descend(prob, x0, g0, 0.2, batches)
        _, _, first = next(steps)
        between = rng.random()  # e.g. run_ssrgd's random-stop draw
        _, _, second = next(steps)
        ref = core.seeded_rng(4, 0)
        assert np.array_equal(first, core.sample_minibatch(ref, 7, 3))
        assert between == ref.random()
        assert np.array_equal(second, core.sample_minibatch(ref, 7, 3))


    @pytest.mark.parametrize("recursive", [True, False])
    def test_a_point_stack_descends_row_by_row(self, recursive):
        # without a difference oracle a (k, d) stack still takes one
        # component call per step, and row i is bit for bit its own descent
        prob = make_nonconvex_logistic(n=64, d=5, seed=2).spec
        X = 0.5 + 0.1 * np.arange(15.0).reshape(3, 5)
        G = np.stack([estimators.full_gradient(prob, x) for x in X])
        block = core.sample_minibatch(core.seeded_rng(1, 0), prob.n, 4, steps=15).reshape(5, 3, 4)
        got = list(estimators.descend(prob, X, G, 0.2, block, snapshot=not recursive))
        for i in range(3):
            want = estimators.descend(prob, X[i], G[i], 0.2, block[:, i], snapshot=not recursive)
            for (x, v, _), (rx, rv, _) in zip(got, want, strict=True):
                assert np.array_equal(x[i], rx) and np.array_equal(v[i], rv)


class TestComponentOracle:
    def test_batched_oracle_is_required(self):
        with pytest.raises(ConfigError, match="component_grad_batch"):
            ProblemSpec(
                n=3, d=1, lipschitz_grad=1.0, lipschitz_hess=0.0,
                value=lambda x: 0.0, full_grad=lambda x: x,
            )

    def test_one_oracle_call_per_batch(self):
        prob = scalar_quadratic([1.0, 2.0, 3.0])
        oracle = counting(prob.component_grad_batch)
        prob = dataclasses.replace(prob, component_grad_batch=oracle)
        grads = estimators.component_gradients(prob, [2, 0, 2], np.array([2.0]))
        assert oracle.calls == 1
        assert np.array_equal(grads, [[6.0], [2.0], [6.0]])

    def test_stacked_difference_asks_once_for_old_then_new_endpoint(self):
        # one component call answers both endpoints, the one a recursive step
        # shares with the last step in row 0
        prob = quadratic_problem_from_components(random_quadratic_family(d=3, n=6, seed=2))
        asked = []

        def recording(idx, x):
            asked.append(np.array(x))
            return prob.component_grad_batch(idx, x)

        spec = dataclasses.replace(prob, component_grad_batch=recording, grad_diff_batch=None)
        x_old, x_new, idx = np.array([1.0, -2.0, 0.5]), np.array([0.25, 0.5, -1.0]), [4, 0, 4, 2]
        v = estimators.recursive_step(spec, np.zeros(3), x_old, x_new, idx)
        assert [a.tolist() for a in asked] == [[x_old.tolist(), x_new.tolist()]]
        g = estimators.component_gradients
        want = (np.add.reduce(g(prob, idx, x_new), axis=0) / 4
                - np.add.reduce(g(prob, idx, x_old), axis=0) / 4)
        assert np.array_equal(v, want)


@pytest.mark.parametrize("step", ["recursive_step", "svrg_step"])
def test_one_component_call_per_inner_step(step, monkeypatch):
    """Anchors go through ``full_grad``, so a first-order run on a problem
    without a difference oracle asks its component oracle once per inner
    step, both endpoints in one stack, for the SFO it was charged before."""
    spec = make_nonconvex_logistic(n=256, d=10, seed=1).spec
    x0 = 0.5 * np.ones(spec.d)

    def run(problem):
        if step == "recursive_step":
            return run_ssrgd(problem, derive_config(problem, 0.05, sfo_budget=30_000, seed=3), x0=x0)
        kind = BaselineKind("svrg", step_size=0.1, minibatch=8, epoch_len=10)
        return run_baseline(kind, problem, 30_000, x0=x0)

    plain = run(spec)
    oracle, steps = counting(spec.component_grad_batch), counting(getattr(estimators, step))
    monkeypatch.setattr(estimators, step, steps)
    out = run(dataclasses.replace(spec, component_grad_batch=oracle))
    assert steps.calls > 0 and oracle.calls == steps.calls
    assert (out.sfo_raw, out.sfo_nominal) == (plain.sfo_raw, plain.sfo_nominal)


def test_svrg_non_finite_oracle_stops_at_the_same_iterate():
    """An oracle that turns NaN on its 4th call poisons v at step 4 (one
    stacked call per snapshot step), so the iterate is NaN at step 5."""
    prob = scalar_quadratic([1.0, 2.0, 3.0])
    clean = prob.component_grad_batch

    def poisoned(idx, x):
        poisoned.calls += 1
        g = clean(idx, x)
        return g * np.nan if poisoned.calls >= 4 else g

    poisoned.calls = 0
    prob = dataclasses.replace(prob, component_grad_batch=poisoned)
    kind = BaselineKind("svrg", step_size=0.1, minibatch=2, epoch_len=10)
    with pytest.raises(NonFiniteError, match="^iterate contains non-finite entries$") as info:
        run_baseline(kind, prob, 10_000, x0=np.array([1.0]))
    assert info.value.iteration == 5
    assert [row.iteration for row in info.value.trace] == [0, 1, 2, 3, 4]
    assert all(math.isfinite(row.f_value) for row in info.value.trace)
