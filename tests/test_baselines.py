import math

import numpy as np
import pytest

import ssrgd
from ssrgd import baselines, core, estimators
from ssrgd.baselines import BaselineKind, run_baseline
from ssrgd.core import ConfigError, Event, UnsupportedOracleError
from ssrgd.harness import _baseline_from_params, resolve_settings, sfo_at_first_fosp

from conftest import (
    assert_same_outcome, quadratic_problem_from_components, random_quadratic_family, reference_epoch,
    scalar_quadratic,
)


def run_on_own_stream(monkeypatch, bk, prob, budget, x0):
    """``run_baseline``'s outcome and the generator it drew from, which it
    makes itself as ``core.seeded_rng(bk.seed, 0)``."""
    made, seeded = [], core.seeded_rng
    with monkeypatch.context() as patch:
        patch.setattr(core, "seeded_rng", lambda *args: made.append(seeded(*args)) or made[-1])
        out = run_baseline(bk, prob, budget, x0=x0)
    (rng,) = made
    return out, rng


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            BaselineKind(kind="adam", step_size=0.1).validate()

    def test_svrg_needs_epoch_len(self):
        with pytest.raises(ConfigError, match="epoch_len"):
            BaselineKind(kind="svrg", step_size=0.1, minibatch=2).validate()

    def test_pgd_needs_window_params(self):
        with pytest.raises(ConfigError):
            BaselineKind(kind="perturbed_gd", step_size=0.1).validate()


class TestRepeatable:
    @pytest.mark.parametrize("kind", baselines.KINDS)
    def test_the_same_kind_runs_the_same_path(self, kind):
        # harness.run_cell runs a (BaselineKind, SFO budget) pair once per
        # row of a plan and hands its outcome to every cell of the row
        def run():
            if kind == "perturbed_gd":
                inst = ssrgd.make_separable_saddle(d=6, n=16, delta_plant=0.3, noise=0.1, seed=0)
                x0 = np.zeros(6)
            else:
                inst = ssrgd.make_nonconvex_logistic(n=64, d=5, seed=2)
                x0 = 0.5 * np.ones(5)
            resolved = resolve_settings({"kind": kind, "delta": 0.3}, inst.spec, 0.05)
            bk = _baseline_from_params(inst.spec, 7, *resolved)
            return run_baseline(bk, inst.spec, 3_000, x0=x0)

        a = run()
        assert_same_outcome(a, run())
        assert bool(a.sosp_candidates) is (kind == "perturbed_gd")


class TestInfiniteBudget:
    """An infinite budget with an iteration cap runs every kind to the cap,
    on the same path as a budget that is never reached."""

    @pytest.mark.parametrize("kind", ["gd", "sgd", "svrg"])
    def test_runs_to_the_cap(self, kind):
        # sgd and svrg used to die in math.ceil(inf) with an OverflowError
        inst = ssrgd.make_nonconvex_logistic(n=64, d=5, seed=0)
        bk = BaselineKind(kind=kind, step_size=0.1, minibatch=4, epoch_len=5, max_iters=37, seed=1)
        out = run_baseline(bk, inst.spec, math.inf, x0=np.ones(5))
        assert out.termination.value == "max_epochs"
        # gd writes each row before its step, the others after it
        assert out.trace[-1].iteration == (36 if kind == "gd" else 37)
        assert_same_outcome(out, run_baseline(bk, inst.spec, 10**12, x0=np.ones(5)))


class TestGd:
    def test_one_step_on_unit_quadratic(self):
        # f(x) = x^2/2, step 1: exact minimizer after one step from any start
        prob = scalar_quadratic([1.0])
        bk = BaselineKind(kind="gd", step_size=1.0, max_iters=1)
        out = run_baseline(bk, prob, 100, x0=np.array([7.5]))
        assert out.final_x[0] == 0.0

    def test_stays_at_exact_saddle(self):
        inst = ssrgd.make_separable_saddle(d=6, n=16, delta_plant=0.3, noise=0.1, seed=0)
        bk = BaselineKind(kind="gd", step_size=0.2 / inst.spec.lipschitz_grad, max_iters=300)
        out = run_baseline(bk, inst.spec, 10**6, x0=np.zeros(6))
        assert np.linalg.norm(out.final_x) == 0.0
        assert all(r.f_value == out.trace[0].f_value for r in out.trace)

    def test_sfo_n_per_step(self):
        prob = scalar_quadratic([1.0, 2.0, 3.0])
        bk = BaselineKind(kind="gd", step_size=0.1, max_iters=10)
        out = run_baseline(bk, prob, 10**6, x0=np.array([1.0]))
        assert out.sfo_raw == 10 * 3

    def test_online_rejected(self):
        inst = ssrgd.make_online_stream(ssrgd.make_quadratic(2, 2, seed=0), 1.0)
        bk = BaselineKind(kind="gd", step_size=0.1)
        with pytest.raises(UnsupportedOracleError):
            run_baseline(bk, inst.spec, 100)


class TestPerturbedGd:
    def test_escapes_saddle(self):
        # from the exact saddle, the gradient check fires immediately and the
        # kick's unstable component is amplified deterministically
        inst = ssrgd.make_separable_saddle(d=6, n=16, delta_plant=0.3, noise=0.05, seed=0)
        L = inst.spec.lipschitz_grad
        f_saddle = inst.spec.value(np.zeros(6))
        fthresh = 1e-3
        escapes = 0
        for seed in range(20):
            bk = BaselineKind(
                kind="perturbed_gd", step_size=0.9 / L, perturb_radius=1e-2,
                grad_threshold=0.05, fval_threshold=fthresh, super_epoch_len=400,
                seed=seed, max_iters=1200,
            )
            out = run_baseline(bk, inst.spec, 10**7, x0=np.zeros(6))
            escapes += out.trace[-1].f_value < f_saddle - fthresh
        assert escapes >= 18

    def test_candidates_recorded(self):
        inst = ssrgd.make_separable_saddle(d=4, n=8, delta_plant=0.3, noise=0.05, seed=1)
        bk = BaselineKind(
            kind="perturbed_gd", step_size=0.2 / inst.spec.lipschitz_grad,
            perturb_radius=1e-2, grad_threshold=0.05, fval_threshold=1e-3,
            super_epoch_len=200, seed=3, max_iters=600,
        )
        out = run_baseline(bk, inst.spec, 10**6, x0=np.zeros(4))
        assert out.sosp_candidates
        assert any(r.event is Event.PERTURBATION for r in out.trace)


class TestSgd:
    def test_budget_and_counts(self):
        prob = scalar_quadratic([1.0, 2.0, 3.0, 4.0])
        bk = BaselineKind(kind="sgd", step_size=0.05, minibatch=2, eval_every=10, seed=0)
        out = run_baseline(bk, prob, 1000, x0=np.array([2.0]))
        assert out.sfo_raw >= 1000  # stops at the first check past the budget
        assert out.sfo_raw == out.sfo_nominal
        steps = out.sfo_raw // 2
        assert steps * 2 == out.sfo_raw

    def test_trace_schema_reusable(self):
        # the same first-FOSP extraction that reads optimizer traces works
        inst = ssrgd.make_quadratic(d=3, n=8, seed=0, spread=0.2)
        bk = BaselineKind(kind="sgd", step_size=0.3, minibatch=2, eval_every=25, seed=1)
        out = run_baseline(bk, inst.spec, 40_000, x0=2.0 * np.ones(3))
        hit = sfo_at_first_fosp(out.trace, 0.2)
        assert hit is not None


class TestSgdChunks:
    """SGD draws its minibatches SGD_CHUNK steps at a time; the path, the
    counts and the stream position match drawing one minibatch per step."""

    @staticmethod
    def reference(prob, x, step_size, b, steps, rng):
        for _ in range(steps):
            batch = core.sample_minibatch(rng, prob.n, b)
            x = x - step_size * estimators.component_gradients(prob, batch, x).mean(axis=0)
        return x

    @pytest.mark.parametrize("budget, max_iters, steps", [
        # a budget cut inside the second chunk: 599 raw SFO at b = 2 is 300 steps
        (2 * (baselines.SGD_CHUNK + 44) - 1, None, baselines.SGD_CHUNK + 44),
        # an iteration cap just past the first chunk boundary
        (10**9, baselines.SGD_CHUNK + 3, baselines.SGD_CHUNK + 3),
    ])
    def test_matches_per_step_draws(self, budget, max_iters, steps, monkeypatch):
        prob = quadratic_problem_from_components(random_quadratic_family(d=3, n=7, seed=13))
        x0 = np.array([1.0, -0.5, 2.0])
        bk = BaselineKind(
            kind="sgd", step_size=0.05, minibatch=2, eval_every=40, seed=9, max_iters=max_iters
        )
        out, rng = run_on_own_stream(monkeypatch, bk, prob, budget, x0)
        ref_rng = core.seeded_rng(9, 0)
        assert np.array_equal(out.final_x, self.reference(prob, x0, 0.05, 2, steps, ref_rng))
        assert out.sfo_raw == 2 * steps and out.trace[-1].iteration == steps
        assert rng.random() == ref_rng.random()


class TestSvrg:
    # n = 7: an anchor costs 7 raw SFO, a step at b = 3 costs 6
    @pytest.mark.parametrize("budget, max_iters, epochs", [
        (10**6, 10, [5, 5]),  # the cap on an epoch boundary
        (10**6, 7, [5, 2]),  # the cap inside the second epoch
        (57, None, [5, 3]),  # the budget runs out inside the second epoch
        (40, None, [5, 0]),  # the second anchor already exceeds the budget
    ])
    def test_block_epochs_match_per_step_draws(self, budget, max_iters, epochs, monkeypatch):
        prob = quadratic_problem_from_components(random_quadratic_family(d=3, n=7, seed=13))
        x0 = np.array([1.0, -0.5, 2.0])
        bk = BaselineKind(kind="svrg", step_size=0.2, minibatch=3, epoch_len=5, seed=9, max_iters=max_iters)
        out, rng = run_on_own_stream(monkeypatch, bk, prob, budget, x0)
        ref_rng = core.seeded_rng(9, 0)
        x, sfo = x0, core.SfoCounter()
        for steps in epochs:
            g = estimators.full_gradient(prob, x, sfo)
            epoch = reference_epoch(prob, x, g, 0.2, ref_rng, 3, steps, sfo, snapshot=True)
            x = ([(x, g, None)] + epoch)[-1][0]
        assert np.array_equal(out.final_x, x)
        assert (out.sfo_raw, out.sfo_nominal) == (sfo.raw, sfo.nominal)
        assert rng.random() == ref_rng.random()

    def test_anchor_far_past_the_budget_ends_the_run(self, monkeypatch):
        # one anchor costs 64 raw SFO against a budget of 10: the budget is
        # overspent by more than a step's cost, so the epoch has no steps
        inst = ssrgd.make_quadratic(d=3, n=64, seed=0)
        bk = BaselineKind(kind="svrg", step_size=0.1, minibatch=2, epoch_len=8, seed=9)
        out, rng = run_on_own_stream(monkeypatch, bk, inst.spec, 10, np.ones(3))
        assert (out.sfo_raw, len(out.trace), out.termination.value) == (64, 1, "budget_exhausted")
        assert np.array_equal(out.final_x, np.ones(3))
        assert rng.random() == core.seeded_rng(9, 0).random()

    def test_snapshot_norm_matches_exact(self):
        inst = ssrgd.make_quadratic(d=3, n=10, seed=2, spread=0.3)
        bk = BaselineKind(kind="svrg", step_size=0.2 / inst.spec.lipschitz_grad,
                          minibatch=3, epoch_len=3, seed=5)
        out = run_baseline(bk, inst.spec, 5_000, x0=np.ones(3))
        snapshots = [r for r in out.trace if r.event is Event.EPOCH_START]
        assert snapshots
        # replay the trajectory to recover snapshot points is overkill here:
        # the recorded grad_norm was computed from the stored anchor gradient,
        # so compare it against an independent recomputation along the trace
        # via the estimator contract on the first snapshot (x0 known).
        g0 = estimators.full_gradient(inst.spec, np.ones(3))
        assert snapshots[0].grad_norm == pytest.approx(float(np.linalg.norm(g0)), abs=1e-12)

    def test_converges_on_quadratic(self):
        inst = ssrgd.make_quadratic(d=4, n=16, seed=3, spread=0.3)
        bk = BaselineKind(kind="svrg", step_size=0.3 / inst.spec.lipschitz_grad,
                          minibatch=4, epoch_len=4, seed=6)
        out = run_baseline(bk, inst.spec, 60_000, x0=3.0 * np.ones(4))
        assert np.linalg.norm(out.final_x) < 0.05

    def test_sfo_accounting(self):
        # raw: n per snapshot + 2b per inner step; nominal: n + b per step
        prob = scalar_quadratic([1.0, 2.0, 3.0, 4.0, 5.0])
        bk = BaselineKind(kind="svrg", step_size=0.05, minibatch=2, epoch_len=3,
                          seed=0, max_iters=6)
        out = run_baseline(bk, prob, 10**6, x0=np.array([1.0]))
        # 2 epochs of 3 steps: raw = 2*5 + 6*(2*2), nominal = 2*5 + 6*2
        assert out.sfo_raw == 10 + 24
        assert out.sfo_nominal == 10 + 12
