import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import ssrgd
from ssrgd import core, diagnostics, estimators, spectral
from ssrgd.core import ConfigError, InsufficientDataError, InvalidInputError, UnsupportedOracleError
from ssrgd.diagnostics import SuperEpochPath

from conftest import counting, quadratic_problem_from_components, random_quadratic_family, reference_epoch


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


def variance_reference(problem, xs, b, replications, rng, estimator):
    """The estimates and standard errors of ``verify_variance_bound`` from one
    estimator call per step of each batch sequence, summed in sequence order."""
    grads = np.stack([estimators.full_gradient(problem, x) for x in xs])
    T = len(xs) - 1

    def errors(batches):
        errs, v = np.empty(T), grads[0]
        for j in range(1, T + 1):
            if estimator == "recursive":
                v = estimators.recursive_step(problem, v, xs[j - 1], xs[j], batches[j - 1])
            else:
                v = estimators.svrg_step(problem, xs[0], grads[0], xs[j], batches[j - 1])
            errs[j - 1] = float(np.sum((v - grads[j]) ** 2))
        return errs

    if replications is None:
        acc, total = np.zeros(T), 0
        for seq in itertools.product(itertools.product(range(int(problem.n)), repeat=b), repeat=T):
            acc += errors([np.array(step, dtype=np.int64) for step in seq])
            total += 1
        return acc / total, np.zeros(T)
    errs = np.array([errors(core.sample_minibatch(rng, problem.n, b, steps=T)) for _ in range(replications)])
    return errs.mean(axis=0), errs.std(axis=0, ddof=1) / math.sqrt(replications)


class TestStackedVarianceVerifier:
    """All batch sequences of a chunk go through one estimator call per step;
    every estimate and standard error is bit for bit the per-sequence loop's."""

    @pytest.mark.parametrize("kind", ["logistic", "saddle"])  # the stacked path and the difference oracle
    @pytest.mark.parametrize("T", [1, 3])
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("estimator", ["recursive", "svrg"])
    @pytest.mark.parametrize("replications", [None, 200])
    def test_matches_the_per_sequence_loop(self, kind, T, b, estimator, replications):
        n = 6 if T == 1 else 3  # exhaustive: 6, 36, 27 and 729 sequences
        if kind == "logistic":
            spec = ssrgd.make_nonconvex_logistic(n=n, d=4, reg=0.05, seed=T + b).spec
        else:
            spec = ssrgd.make_separable_saddle(d=4, n=n, delta_plant=0.3, noise=0.5, seed=T + b).spec
        xs = short_trajectory(spec, T, seed=10 * T + b)
        rep = diagnostics.verify_variance_bound(spec, xs, b, replications, core.seeded_rng(b, 3),
                                                estimator=estimator)
        est, se = variance_reference(spec, xs, b, replications, core.seeded_rng(b, 3), estimator)
        assert [(r.estimate, r.stderr) for r in rep.rows] == list(zip(est.tolist(), se.tolist()))

    def test_chunks_bound_the_quadratic_gather(self):
        # its oracle gathers a (d, d) block per index: 30000 sequences in one
        # call would hold 30000 * 20 * 20 floats, 92 MB, at once
        spec = ssrgd.make_quadratic(d=20, n=50, seed=1, spread=0.5).spec
        xs = short_trajectory(spec, 1)
        tracemalloc.start()
        try:
            diagnostics.verify_variance_bound(spec, xs, 1, 30_000, core.seeded_rng(0, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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

        def epoch_end(snapshot):
            steps = reference_epoch(prob, x0, g0, eta, ref_rng, b, m, None, snapshot=snapshot)
            return [x for x, _, _ in steps]

        for _ in range(5):
            xs = epoch_end(snapshot=False)
            gsum = float(np.sum(g0**2))
            for x in xs[:-1]:
                gsum += float(np.sum(estimators.full_gradient(prob, x) ** 2))
            gsums.append(gsum)
            f_end.append(float(prob.value(xs[-1])))
            xs = epoch_end(snapshot=True)
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


def epoch_decrease_with(**changes):
    inst = ssrgd.make_quadratic(d=2, n=9, seed=4)
    cfg = dataclasses.replace(ssrgd.derive_config(inst.spec, 0.1), **changes)
    diagnostics.verify_epoch_decrease(inst.spec, cfg, 10)


def coupled_with(**changes):
    inst = ssrgd.make_separable_saddle(d=4, n=8, delta_plant=0.3, seed=0)
    cfg = dataclasses.replace(ssrgd.derive_config(inst.spec, 0.05, 0.3, 8.0), **changes)
    diagnostics.run_coupled_experiment(inst, np.zeros(4), cfg, 2)


class TestDiagnosticsValidateTheirConfig:
    """Each diagnostic runs ``cfg.validate`` first.  Before, these ran on: a
    NaN step size to a NaN mean_f_end, a NaN epoch length into a TypeError, a
    coupled NaN step size into a ValueError, and a NaN f threshold with the
    f-decrease exit never reached."""

    @pytest.mark.parametrize("run, key", [
        (epoch_decrease_with, "step_size"),
        (epoch_decrease_with, "epoch_len"),
        (coupled_with, "step_size"),
        (coupled_with, "fval_threshold"),
    ])
    def test_nan_setting_is_refused(self, run, key):
        with pytest.raises(ConfigError, match=f"^constraint violated: {key} "):
            run(**{key: math.nan})


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

    @staticmethod
    def _reference_trajectory(prob, x0, window, cfg, rng):
        """One trajectory on its own, its minibatches drawn step by step:
        (positions, values, batch digest)."""
        xs, h, x = [x0], hashlib.sha256(), x0
        while len(xs) <= window:
            g = estimators.full_gradient(prob, x)
            k = min(cfg.epoch_len, window + 1 - len(xs))
            for x, _, batch in reference_epoch(prob, x, g, cfg.step_size, rng, cfg.minibatch, k, None):
                h.update(batch.tobytes())
                xs.append(x)
        return np.stack(xs), np.array([prob.value(x) for x in xs]), h.hexdigest()

    @pytest.mark.parametrize("streams", [(4,), (4, 9)])
    @pytest.mark.parametrize("epochs, extra", [(0, 1), (1, -1), (1, 0), (2, 0), (2, 3)])
    def test_block_epochs_match_per_step_draws(self, epochs, extra, streams):
        """The recorded updates draw one block per epoch and stream (a short
        last one); each row's iterates and values, each stream's digest and
        position match that row run alone on per-step draws, for windows of
        1, m - 1, m, 2m and 2m + 3 steps, on a one-row stack and on a
        two-row stack with different streams."""
        inst, cfg = self._setup()
        prob = inst.spec
        window = epochs * cfg.epoch_len + extra
        x0 = inst.saddle_points[0][0] + 0.01 * np.arange(1, len(streams) + 1)[:, None]
        rngs = [core.seeded_rng(seed, 20_000) for seed in streams]
        xs, fs, digests = diagnostics._run_recorded_updates(
            prob, x0, window, cfg.epoch_len, cfg.minibatch, cfg.step_size, rngs
        )
        assert xs.shape == (window + 1, len(streams), prob.d)
        assert fs.shape == (window + 1, len(streams))
        for row, seed in enumerate(streams):
            ref_rng = core.seeded_rng(seed, 20_000)
            ref_xs, ref_fs, ref_digest = self._reference_trajectory(prob, x0[row], window, cfg, ref_rng)
            assert np.array_equal(xs[:, row], ref_xs)
            assert np.array_equal(fs[:, row], ref_fs)
            assert digests[row] == ref_digest
            assert rngs[row].random() == ref_rng.random()

    def test_lockstep_pairs_match_one_pair_at_a_time(self):
        """Every pair's trajectories, digests and statistics equal those of
        the pair run on its own, one trajectory after the other."""
        inst, cfg = self._setup()
        prob, saddle = inst.spec, inst.saddle_points[0][0]
        rep = diagnostics.run_coupled_experiment(inst, saddle, cfg, 4, store_trajectories=True)
        e1 = np.linalg.eigh(spectral.assemble_hessian(prob, saddle))[1][:, 0]
        for i, pair in enumerate(rep.pairs):
            ball = core.sample_uniform_ball(core.seeded_rng(cfg.seed, 10_000 + i), prob.d, rep.radius)
            x0 = saddle + ball
            xs, fs, dig = self._reference_trajectory(
                prob, x0, rep.window, cfg, core.seeded_rng(cfg.seed, 20_000 + i)
            )
            xsp, fsp, digp = self._reference_trajectory(
                prob, x0 - rep.r0 * e1, rep.window, cfg, core.seeded_rng(cfg.seed, 20_000 + i)
            )
            joint = np.maximum(np.linalg.norm(xs - xs[0], axis=1), np.linalg.norm(xsp - xsp[0], axis=1))
            drop = np.maximum(fs[0] - fs, fsp[0] - fsp)
            hit = np.nonzero(joint >= rep.travel_threshold)[0]
            fhit = np.nonzero(drop >= 2.0 * cfg.fval_threshold)[0]
            assert np.array_equal(pair.x_traj, xs) and np.array_equal(pair.x_prime_traj, xsp)
            assert np.array_equal(pair.w_norms, np.linalg.norm(xs - xsp, axis=1))
            assert (pair.batch_digest, pair.batch_digest_twin) == (dig, digp)
            assert pair.escape_iter == (int(hit[0]) if hit.size else None)
            assert pair.fdecrease_iter == (int(fhit[0]) if fhit.size else None)
            assert pair.max_travel == float(joint.max())
            assert pair.max_fdrop == float(drop.max())
        assert any(pair.escape_iter is not None for pair in rep.pairs)

    def test_problem_without_a_difference_oracle_refused(self):
        inst, cfg = self._setup()
        inst.spec.grad_diff_batch = None
        with pytest.raises(UnsupportedOracleError, match="difference oracle"):
            diagnostics.run_coupled_experiment(inst, inst.saddle_points[0][0], cfg, 2)

    @pytest.mark.parametrize("oracle", ["full_grad", "value", "grad_diff_batch"])
    def test_oracle_that_answers_a_stack_in_the_wrong_shape_refused(self, oracle):
        # a mean over the stack's rows would broadcast back into it silently
        inst, cfg = self._setup()
        answer = getattr(inst.spec, oracle)
        setattr(inst.spec, oracle, lambda *args: np.mean(answer(*args), axis=0))
        with pytest.raises(UnsupportedOracleError, match=f"{oracle} answers a \\(4, 10\\) stack"):
            diagnostics.run_coupled_experiment(inst, inst.saddle_points[0][0], cfg, 2)

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

    def test_no_path_is_insufficient_data(self):
        with pytest.raises(InsufficientDataError, match="no super-epoch path"):
            diagnostics.verify_localization([], lipschitz_grad=1.0)

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

    def test_collecting_makes_no_value_call_of_its_own(self):
        # each path's f values are the ones the run computed at its iterates
        inst = ssrgd.make_separable_saddle(d=6, n=16, delta_plant=0.3, noise=0.05, seed=0)
        cfg = ssrgd.derive_config(inst.spec, 0.05, 0.3, 8.0, sfo_budget=20_000, seed=0)
        spec = inst.spec
        spec.value = counting(spec.value)
        paths = diagnostics.collect_super_epoch_paths(inst, cfg, seeds=range(3), x0=np.zeros(6))
        collected, spec.value.calls = spec.value.calls, 0
        for seed in range(3):
            ssrgd.run_ssrgd(spec, dataclasses.replace(cfg, seed=seed), x0=np.zeros(6), full_trace=False)
        assert len(paths) >= 3
        assert collected == spec.value.calls
        for path in paths:
            assert np.array_equal(path.fs, [spec.value(x) for x in path.xs])
