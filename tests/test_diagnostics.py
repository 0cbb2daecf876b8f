import dataclasses
import hashlib
import math

import numpy as np
import pytest

import ssrgd
from ssrgd import core, diagnostics, estimators
from ssrgd.core import ConfigError, InvalidInputError
from ssrgd.diagnostics import SuperEpochPath
from ssrgd.estimators import EstimatorState

from conftest import quadratic_problem_from_components, random_quadratic_family, reference_epoch


def short_trajectory(prob, steps, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(prob.d)]
    for _ in range(steps):
        xs.append(xs[-1] + scale * rng.standard_normal(prob.d))
    return np.stack(xs)


class TestVarianceVerifier:
    def _problem(self, n=4, d=2, seed=7):
        return quadratic_problem_from_components(random_quadratic_family(d, n, seed))

    def test_monte_carlo_passes(self):
        prob = self._problem(n=6, d=3)
        xs = short_trajectory(prob, 4, seed=1)
        rep = diagnostics.verify_variance_bound(
            prob, xs, minibatch=2, replications=4000, rng=core.seeded_rng(0, 0)
        )
        assert rep.passed and len(rep.rows) == 4

    def test_stationary_trajectory(self):
        prob = self._problem()
        x = np.ones(2)
        xs = np.stack([x, x, x])
        rep = diagnostics.verify_variance_bound(
            prob, xs, minibatch=2, replications=50, rng=core.seeded_rng(2, 0)
        )
        assert all(r.estimate == 0.0 and r.bound == 0.0 for r in rep.rows)

    def test_exhaustive_matches_monte_carlo(self):
        prob = self._problem(n=3, d=2)
        xs = short_trajectory(prob, 3, seed=3)
        exact = diagnostics.verify_variance_bound(prob, xs, minibatch=1, replications=None)
        mc = diagnostics.verify_variance_bound(
            prob, xs, minibatch=1, replications=60_000, rng=core.seeded_rng(3, 0)
        )
        assert exact.passed
        for re_, rm in zip(exact.rows, mc.rows):
            assert rm.estimate == pytest.approx(re_.estimate, abs=4 * max(rm.stderr, 1e-12))

    def test_svrg_estimator_mode(self):
        prob = self._problem(n=4, d=2, seed=9)
        xs = short_trajectory(prob, 3, seed=4)
        rep = diagnostics.verify_variance_bound(
            prob, xs, minibatch=1, replications=None, estimator="svrg"
        )
        assert rep.passed

    def test_short_trajectory_rejected(self):
        prob = self._problem()
        with pytest.raises(InvalidInputError):
            diagnostics.verify_variance_bound(prob, np.zeros((1, 2)), 1, 10)

    def test_exhaustive_blowup_guard(self):
        prob = self._problem(n=4)
        xs = short_trajectory(prob, 12, seed=5)
        with pytest.raises(ConfigError, match="exhaustive"):
            diagnostics.verify_variance_bound(prob, xs, minibatch=4, replications=None)


class TestEpochDecrease:
    def test_convex_quadratic_holds(self):
        inst = ssrgd.make_quadratic(d=4, n=16, seed=1, spread=0.4)
        cfg = ssrgd.derive_config(inst.spec, 0.1, seed=0)
        rep = diagnostics.verify_epoch_decrease(
            inst.spec, cfg, epochs=1500, rng=core.seeded_rng(5, 0),
            x0=2.0 * np.ones(4),
        )
        assert rep.passed
        assert rep.mean_f_end < rep.f_start

    def test_tight_at_minimum(self):
        inst = ssrgd.make_quadratic(d=3, n=9, seed=2, spread=0.3)
        cfg = ssrgd.derive_config(inst.spec, 0.1, seed=0)
        rep = diagnostics.verify_epoch_decrease(
            inst.spec, cfg, epochs=50, rng=core.seeded_rng(6, 0), x0=np.zeros(3)
        )
        assert rep.f_start == 0.0
        assert rep.decrease_term == 0.0
        assert rep.mean_f_end == pytest.approx(0.0, abs=1e-20)
        assert rep.passed

    def test_svrg_contrast_recorded(self):
        inst = ssrgd.make_quadratic(d=4, n=36, seed=3, spread=0.5)
        cfg = ssrgd.derive_config(inst.spec, 0.1, seed=0)
        rep = diagnostics.verify_epoch_decrease(
            inst.spec, cfg, epochs=800, rng=core.seeded_rng(7, 0),
            x0=1.5 * np.ones(4),
        )
        # illustrative only: the undersized-snapshot run is recorded, with no
        # pass/fail attached
        assert math.isfinite(rep.svrg_mean_f_end)
        assert math.isfinite(rep.svrg_gap)

    def test_block_epochs_match_per_step_draws(self):
        inst = ssrgd.make_quadratic(d=3, n=9, seed=2, spread=0.3)
        prob = inst.spec
        cfg = ssrgd.derive_config(prob, 0.1, seed=0)
        x0, m, b, eta = np.ones(3), cfg.epoch_len, cfg.minibatch, cfg.step_size
        rng, ref_rng = core.seeded_rng(6, 0), core.seeded_rng(6, 0)
        rep = diagnostics.verify_epoch_decrease(prob, cfg, 5, rng, x0=x0)
        g0 = estimators.full_gradient(prob, x0)
        f_end, f_end_svrg, gsums = [], [], []

        def epoch_end(state):
            steps = reference_epoch(prob, state, x0, eta, ref_rng, b, m, None)
            return [x for x, _, _ in steps]

        for _ in range(5):
            xs = epoch_end(EstimatorState(v=g0, prev_x=x0))
            gsum = float(np.sum(g0**2))
            for x in xs[:-1]:
                gsum += float(np.sum(estimators.full_gradient(prob, x) ** 2))
            gsums.append(gsum)
            f_end.append(float(prob.value(xs[-1])))
            xs = epoch_end(EstimatorState(v=g0, anchor=x0, anchor_grad=g0))
            f_end_svrg.append(float(prob.value(xs[-1])))
        assert rep.mean_f_end == float(np.mean(f_end))
        assert rep.stderr_f_end == float(np.std(f_end, ddof=1) / math.sqrt(5))
        assert rep.decrease_term == 0.5 * eta * float(np.mean(gsums))
        assert rep.svrg_mean_f_end == float(np.mean(f_end_svrg))
        assert rng.random() == ref_rng.random()

    def test_precondition_checks(self):
        inst = ssrgd.make_quadratic(d=2, n=9, seed=4)
        cfg = ssrgd.derive_config(inst.spec, 0.1)
        bad = dataclasses.replace(cfg, minibatch=cfg.epoch_len - 1)
        with pytest.raises(ConfigError):
            diagnostics.verify_epoch_decrease(inst.spec, bad, 10)


class TestCoupledExperiment:
    def _setup(self, delta_plant=0.3, seed=0):
        inst = ssrgd.make_separable_saddle(
            d=10, n=64, delta_plant=delta_plant, noise=0.1, seed=seed
        )
        cfg = ssrgd.derive_config(
            inst.spec, 0.05, 0.3, 8.0, sfo_budget=10**9, seed=seed
        )
        return inst, cfg

    def test_pair_construction(self):
        inst, cfg = self._setup()
        rep = diagnostics.run_coupled_experiment(
            inst, inst.saddle_points[0][0], cfg, 3, store_trajectories=True
        )
        for pair in rep.pairs:
            assert pair.w_norms[0] == pytest.approx(rep.r0, rel=1e-12)
            assert pair.batch_digest == pair.batch_digest_twin
        assert rep.radius <= rep.travel_threshold

    def test_block_epochs_match_per_step_draws(self):
        """The recorded updates draw one block per epoch (a short last one);
        iterates, batch digest and stream position match per-step draws."""
        inst, cfg = self._setup()
        prob, x0 = inst.spec, inst.saddle_points[0][0] + 0.01
        m, b, eta, window = cfg.epoch_len, cfg.minibatch, cfg.step_size, 2 * cfg.epoch_len + 3
        rng, ref_rng = core.seeded_rng(4, 20_000), core.seeded_rng(4, 20_000)
        xs, fs, digest = diagnostics._run_recorded_updates(prob, x0, window, m, b, eta, rng)
        ref_xs, h, x = [x0], hashlib.sha256(), x0
        while len(ref_xs) <= window:
            state = EstimatorState(v=estimators.full_gradient(prob, x), prev_x=x)
            k = min(m, window + 1 - len(ref_xs))
            for x, _, batch in reference_epoch(prob, state, x, eta, ref_rng, b, k, None):
                h.update(batch.tobytes())
                ref_xs.append(x)
        assert np.array_equal(xs, np.stack(ref_xs))
        assert np.array_equal(fs, [prob.value(x) for x in ref_xs])
        assert digest == h.hexdigest()
        assert rng.random() == ref_rng.random()

    def test_pair_digest_is_the_per_step_stream(self):
        inst, cfg = self._setup()
        rep = diagnostics.run_coupled_experiment(inst, inst.saddle_points[0][0], cfg, 2)
        for i, pair in enumerate(rep.pairs):
            rng, h = core.seeded_rng(cfg.seed, 20_000 + i), hashlib.sha256()
            for _ in range(rep.window):
                h.update(core.sample_minibatch(rng, inst.spec.n, cfg.minibatch).tobytes())
            assert pair.batch_digest == pair.batch_digest_twin == h.hexdigest()

    def test_saddle_escape_frequency(self):
        inst, cfg = self._setup()
        rep = diagnostics.run_coupled_experiment(inst, inst.saddle_points[0][0], cfg, 30)
        assert rep.escape_frequency >= 0.9

    def test_flat_control_low_frequency(self):
        inst, cfg = self._setup(delta_plant=1e-9)
        rep = diagnostics.run_coupled_experiment(
            inst, inst.saddle_points[0][0], cfg, 30, check_saddle=False
        )
        assert rep.escape_frequency < 0.2

    def test_non_saddle_rejected(self):
        inst, cfg = self._setup(delta_plant=1e-9)
        with pytest.raises(InvalidInputError, match="not a saddle"):
            diagnostics.run_coupled_experiment(inst, inst.saddle_points[0][0], cfg, 2)

    def test_deterministic(self):
        inst, cfg = self._setup()
        a = diagnostics.run_coupled_experiment(inst, inst.saddle_points[0][0], cfg, 5)
        b = diagnostics.run_coupled_experiment(inst, inst.saddle_points[0][0], cfg, 5)
        assert [p.escape_iter for p in a.pairs] == [p.escape_iter for p in b.pairs]
        assert [p.max_travel for p in a.pairs] == [p.max_travel for p in b.pairs]


class TestLocalization:
    def test_single_gd_step_closed_form(self):
        # f = L x^2 / 2: dist = eta L |x0|, drop = L^2 eta x0^2 (1 - eta L / 2);
        # the bound holds with margin for eta <= 1/(2L)
        L = 2.0
        inst = ssrgd.make_quadratic(d=1, n=1, seed=0, matrix=[[L]], spread=0.0)
        eta = 1.0 / (2 * L) * 0.9
        x0 = np.array([1.0])
        x1 = x0 - eta * inst.spec.full_grad(x0)
        path = SuperEpochPath(
            0, np.stack([x0, x1]),
            np.array([inst.spec.value(x0), inst.spec.value(x1)]), True,
        )
        rep = diagnostics.verify_localization(
            path, lipschitz_grad=L, step_size=eta
        )
        assert rep.pass_fraction == 1.0
        row = rep.rows_per_path[0][0]
        assert row.distance == pytest.approx(eta * L, rel=1e-12)
        drop = inst.spec.value(x0) - inst.spec.value(x1)
        assert row.bound == pytest.approx(math.sqrt(4 * drop / L), rel=1e-12)

    def test_increase_steps_excluded(self):
        xs = np.array([[0.0], [1.0]])
        fs = np.array([0.0, 1.0])  # the value went up
        rep = diagnostics.verify_localization(
            SuperEpochPath(0, xs, fs, True), lipschitz_grad=1.0
        )
        assert rep.increase_steps == 1 and rep.pass_fraction == 1.0

    def test_step_size_precondition(self):
        with pytest.raises(ConfigError, match="1/\\(2 C' L\\)"):
            diagnostics.verify_localization(
                [], lipschitz_grad=1.0, step_size=0.9
            )

    def test_planted_saddle_super_epochs(self):
        inst = ssrgd.make_separable_saddle(d=10, n=64, delta_plant=0.3, noise=0.1, seed=0)
        L = inst.spec.lipschitz_grad
        cfg = ssrgd.derive_config(
            inst.spec, 0.05, 0.3, 8.0, sfo_budget=60_000, seed=0
        )
        eta = 0.95 / (2.0 * L)
        cfg = dataclasses.replace(
            cfg, step_size=eta,
            super_epoch_len=math.ceil(cfg.logfactor / (eta * 0.3)),
        )
        paths = diagnostics.collect_super_epoch_paths(
            inst, cfg, seeds=range(8), x0=np.zeros(10), max_paths=20
        )
        assert len(paths) >= 10
        rep = diagnostics.verify_localization(
            paths, lipschitz_grad=L, step_size=eta
        )
        assert rep.pass_fraction >= 0.9
