import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssrgd
from ssrgd import baselines, core, diagnostics
from ssrgd.core import (
    ConfigError, Event, InvalidInputError, Mode, ProblemSpec, RunConfig, SuperEpoch, UnsupportedOracleError,
)

from conftest import scalar_quadratic, svrg_config


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = core.seeded_rng(42, 0).random(100)
        b = core.seeded_rng(42, 0).random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = core.seeded_rng(42, 0).random(100)
        b = core.seeded_rng(42, 1).random(100)
        assert not np.array_equal(a, b)

    def test_uniform_mean(self):
        # law of large numbers: mean of 1e6 U[0,1) draws within [0.49, 0.51]
        draws = core.seeded_rng(7, 0).random(10**6)
        assert 0.49 <= draws.mean() <= 0.51

    def test_negative_seed_allowed(self):
        assert core.seeded_rng(-3, 0).random() == core.seeded_rng(-3, 0).random()


class TestUniformBall:
    def test_zero_radius(self):
        x = core.sample_uniform_ball(core.seeded_rng(0, 0), 5, 0.0)
        assert np.array_equal(x, np.zeros(5))

    def test_support(self):
        rng = core.seeded_rng(3, 0)
        for _ in range(1000):
            assert np.linalg.norm(core.sample_uniform_ball(rng, 3, 2.0)) <= 2.0

    def test_mean_norm_d2(self):
        # E||xi|| = r * d/(d+1) = 2/3 for d=2, r=1
        rng = core.seeded_rng(11, 0)
        norms = np.array(
            [np.linalg.norm(core.sample_uniform_ball(rng, 2, 1.0)) for _ in range(10**6)]
        )
        assert abs(norms.mean() - 2.0 / 3.0) < 0.005

    def test_bad_args(self):
        rng = core.seeded_rng(0, 0)
        with pytest.raises(ConfigError):
            core.sample_uniform_ball(rng, 0, 1.0)
        with pytest.raises(ConfigError):
            core.sample_uniform_ball(rng, 3, -1.0)


class TestSampleMinibatch:
    def test_single_component(self):
        idx = core.sample_minibatch(core.seeded_rng(0, 0), 1, 3)
        assert list(idx) == [0, 0, 0]

    def test_slot_uniformity(self):
        rng = core.seeded_rng(5, 0)
        draws = np.stack([core.sample_minibatch(rng, 4, 2) for _ in range(250_000)])
        for slot in range(2):
            freqs = np.bincount(draws[:, slot], minlength=4) / len(draws)
            assert np.all(np.abs(freqs - 0.25) < 0.002)

    def test_replacement_permits_duplicates(self):
        rng = core.seeded_rng(1, 0)
        seen_dup = any(
            len(set(core.sample_minibatch(rng, 10, 10))) < 10 for _ in range(50)
        )
        assert seen_dup

    def test_online_ids(self):
        idx = core.sample_minibatch(core.seeded_rng(2, 0), math.inf, 5)
        assert idx.shape == (5,) and np.all(idx >= 0)

    @pytest.mark.parametrize("steps", [None, 4])
    def test_online_ids_are_the_top_62_bits_of_raw_draws(self, steps):
        rng, twin, old = (core.seeded_rng(6, 0) for _ in range(3))
        size = 9 if steps is None else (steps, 9)
        ids = core.sample_minibatch(rng, math.inf, 9, steps=steps)
        assert ids.dtype == np.int64 and np.array_equal(ids, twin.bit_generator.random_raw(size) >> 2)
        # the same ids as the bounded draw, and the stream where one raw output per id leaves it
        assert np.array_equal(ids, old.integers(0, 2**62, size=size, dtype=np.int64))
        nxt = [g.bit_generator.random_raw(3).tolist() for g in (rng, twin, old)]
        assert nxt[0] == nxt[1] == nxt[2]

    @pytest.mark.parametrize("n, b, k", [
        (4096, 64, 64), (256, 16, 40), (256, 1, 50), (64, 8, 8), (4096, 63, 10), (math.inf, 7, 9),
    ])
    def test_block_rows_are_the_separate_draws(self, n, b, k):
        rng, ref = core.seeded_rng(3, 0), core.seeded_rng(3, 0)
        block = core.sample_minibatch(rng, n, b, steps=k)
        assert block.shape == (k, b) and block.dtype == np.int64
        assert np.array_equal(block, [core.sample_minibatch(ref, n, b) for _ in range(k)])
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("n, b, steps, size", [
        (64, 10**15, None, "10^15"), (64, 10**15, 1, "10^15"), (64, 10**5, 10**10, "10^15"),
        (math.inf, 10**15, None, "10^15"), (math.inf, 10**200, None, "10^200"), (64, 10**200, 2, "10^200"),
    ])
    def test_a_draw_too_large_to_allocate_is_refused(self, n, b, steps, size):
        # numpy's MemoryError (8 PB is past any address space) or ValueError
        # (past its size limit) becomes a ConfigError, and nothing is drawn
        rng = core.seeded_rng(3, 0)
        before = _philox_state(rng)
        with pytest.raises(ConfigError) as refused:
            core.sample_minibatch(rng, n, b, steps=steps)
        assert str(refused.value) == f"a draw of {size} indices is too large to allocate"
        assert _philox_state(rng) == before


def _philox_state(rng):
    """The bit generator's whole state, comparable with ==."""
    st = rng.bit_generator.state
    return (tuple(st["state"]["counter"]), tuple(st["buffer"]), st["buffer_pos"], st["has_uint32"],
            st["uinteger"])


def _chained_epoch(rng, n, b, steps, epoch_len):
    """What ``core.epoch_block`` replays: per step a minibatch, then (with
    ``epoch_len``) the random stop; the rows drawn and the stop step (0 if none)."""
    rows = []
    for k in range(1, steps + 1):
        rows.append(core.sample_minibatch(rng, n, b))
        if epoch_len and ssrgd.random_stop_decision(rng, k, epoch_len):
            return rows, k
    return rows, 0


def _next_draws(rng):
    """Ten further draws that read both the 32-bit half buffer and fresh words."""
    return [rng.integers(0, 1000, size=3).tolist(), rng.random(), rng.integers(0, 7).item(),
            rng.integers(0, 2**31 + 11, size=2).tolist(), rng.random(), rng.integers(0, 5, size=1).tolist(),
            rng.standard_normal(2).tolist(), rng.integers(0, 2**40), rng.random(), rng.integers(0, 9)]


class TestEpochBlock:
    """``core.epoch_block`` against the per-step chain it replays: the same
    rows, the same stop, and (after ``commit``) the same stream."""

    @staticmethod
    def check(seed, n, b, steps, epoch_len, buffered, take=None):
        """One case; returns whether the block declined.  ``take`` (no stops)
        is how many steps run before commit, as a super epoch's exit decides."""
        rng, ref = core.seeded_rng(seed, 0), core.seeded_rng(seed, 0)
        if buffered:  # one bounded draw leaves the high half of a word buffered
            assert rng.integers(0, 10) == ref.integers(0, 10)
            assert rng.bit_generator.state["has_uint32"] == 1
        before = _philox_state(rng)
        drawn = core.epoch_block(rng, n, b, steps, epoch_len)
        if drawn is None:
            assert _philox_state(rng) == before
            return True
        block, stop, commit = drawn
        assert block.shape == (steps, b) and block.dtype == np.int64
        rows, want_stop = _chained_epoch(ref, n, b, steps if take is None else take, epoch_len)
        assert stop == want_stop
        assert np.array_equal(block[:len(rows)], np.reshape(rows, (len(rows), b)))
        commit(len(rows))
        assert _philox_state(rng) == _philox_state(ref)
        assert _next_draws(rng) == _next_draws(ref)
        return False

    @pytest.mark.parametrize("n, b, m, steps", [
        (4096, 64, 64, 64), (4096, 64, 64, 17), (4096, 63, 64, 64), (1000, 7, 9, 9), (999, 1, 8, 8),
        (1, 5, 6, 6), (1, 4, 4, 2), (2**32 - 5, 7, 8, 8), (2**32 - 5, 8, 8, 5), (3, 2, 40, 40),
    ])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_stops_match_the_chain(self, n, b, m, steps, buffered):
        for seed in range(200):
            assert not self.check(seed, n, b, steps, m, buffered)

    @pytest.mark.parametrize("n, b, steps", [(4096, 64, 64), (64, 9, 9), (1, 3, 4), (2**32 - 5, 5, 6)])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_without_stops_commit_takes_the_steps_run(self, n, b, steps, buffered):
        for seed in range(200):
            assert not self.check(seed, n, b, steps, 0, buffered, take=seed % (steps + 1))

    @pytest.mark.parametrize("epoch_len", [0, 2])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_rejections_decline_and_draw_nothing(self, epoch_len, buffered):
        # n = 2^32 - 2^27 rejects a half whose low 32 bits of half * n fall below
        # floor = 2^27, one in 32: a two-half epoch expects 1/16 of a rejection,
        # the most a block may, so it replays unless one of its halves is rejected
        n = 2**32 - 2**27
        declined = [self.check(seed, n, 2, 1, epoch_len and 1, buffered) for seed in range(400)]
        assert 5 < sum(declined) < 60
        # over 1/16 of a rejection expected: declined before any draw
        assert all(self.check(seed, n, 3, 1, epoch_len and 1, buffered) for seed in range(20))
        assert all(self.check(seed, 2**31 + 11, 1, 1, epoch_len and 1, buffered) for seed in range(20))
        assert all(self.check(seed, 2**31 + 11, 16, 2, epoch_len, buffered) for seed in range(20))

    def test_forced_rejection_declines(self):
        # the first raw word of this stream has a low half that Lemire's method rejects for n
        rng = core.seeded_rng(0, 0)
        low = int(rng.bit_generator.random_raw()) & 0xFFFFFFFF
        n = next(n for n in range(2, 2**20) if (low * n) % 2**32 < (2**32 - n) % n)
        ref = core.seeded_rng(0, 0)
        ref.integers(0, n)  # the rejected low half, then the high half: none left buffered
        assert ref.bit_generator.state["has_uint32"] == 0
        assert self.check(0, n, 2, 3, 3, False)

    @pytest.mark.parametrize("b, steps, epoch_len", [(10**15, 1, 1), (1, 10**15, 0), (10**15, 10**15, 10**15)])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_a_block_too_large_to_allocate_declines(self, b, steps, epoch_len, buffered):
        # the per-step draw then refuses the minibatch's size
        assert self.check(0, 64, b, steps, epoch_len, buffered)

    @pytest.mark.parametrize("n", [2**32, 2**32 + 1, 2**40])
    def test_wide_ranges_decline(self, n):
        rng = core.seeded_rng(1, 0)
        before = _philox_state(rng)
        assert core.epoch_block(rng, n, 4, 4, 4) is None
        assert _philox_state(rng) == before


class TestStepsLeft:
    """The one budget cut: the steps of a block of ``cap`` that start below
    the budget, at ``cost`` raw SFO each."""

    @pytest.mark.parametrize("sfo_left, want", [
        (math.inf, 8), (10**12, 8), (80, 8), (81, 8),  # the budget covers the block
        (79, 8), (73, 8), (72, 8), (71, 8), (70, 7), (1, 1),  # the last steps start below it
        (0, 0), (-1, 0), (-10**6, 0),  # an anchor spent it, or more
    ])
    def test_cut(self, sfo_left, want):
        assert core.steps_left(8, sfo_left, 10) == want

    @pytest.mark.parametrize("cap, cost, spent", [(1, 1, 0), (5, 6, 7), (8, 16, 64), (40, 2, 3)])
    def test_matches_a_per_step_budget_test(self, cap, cost, spent):
        for budget in range(spent + cap * cost + 3):
            taken, sfo = 0, spent
            while taken < cap and sfo < budget:
                taken, sfo = taken + 1, sfo + cost
            assert core.steps_left(cap, budget - spent, cost) == taken


class TestRunConfigValidation:
    def test_first_order_step_cap(self):
        prob = scalar_quadratic([1.0, 2.0])
        cfg = RunConfig(step_size=1.0, epoch_len=1, minibatch=1, eps=0.1, sfo_budget=10)
        with pytest.raises(ConfigError):
            cfg.validate(prob)

    def test_second_order_requires_b_ge_m(self):
        prob = scalar_quadratic([1.0, 2.0])
        cfg = RunConfig(
            step_size=0.1, epoch_len=4, minibatch=2, eps=0.1, sfo_budget=10,
            perturb_radius=0.5, grad_threshold=0.1, fval_threshold=0.1,
            super_epoch_len=10, delta=0.1,
        )
        with pytest.raises(ConfigError, match="minibatch >= epoch_len"):
            cfg.validate(prob)

    def test_online_needs_large_batch(self):
        inst = ssrgd.make_online_stream(ssrgd.make_quadratic(3, 2, seed=0), 1.0)
        cfg = RunConfig(step_size=0.1, epoch_len=2, minibatch=2, eps=0.1, sfo_budget=10)
        with pytest.raises(ConfigError, match="large_batch"):
            cfg.validate(inst.spec)

    def test_snapshot_needs_a_finite_sum(self):
        # the error an online svrg cell reports, with or without a large batch
        inst = ssrgd.make_online_stream(ssrgd.make_quadratic(3, 2, seed=0), 1.0)
        for large_batch in (None, 8):
            cfg = svrg_config(0.1, minibatch=2, epoch_len=2, sfo_budget=10, large_batch=large_batch)
            with pytest.raises(UnsupportedOracleError, match="^svrg needs the finite-sum full gradient$"):
                cfg.validate(inst.spec)


class TestNanSettingsRefused:
    """NaN passes the `<= 0` tests, so each setting is checked as `not > 0`."""

    def test_run_config_budget(self):
        # run_ssrgd used to ignore the budget and run to the cap
        inst = ssrgd.make_nonconvex_logistic(n=64, d=5, seed=0)
        cfg = dataclasses.replace(ssrgd.derive_config(inst.spec, 0.01), sfo_budget=math.nan, max_iters=2000)
        with pytest.raises(ConfigError, match="sfo_budget"):
            ssrgd.run_ssrgd(inst.spec, cfg)

    @pytest.mark.parametrize("kind", ["gd", "sgd", "svrg"])
    def test_baseline_budget(self, kind):
        # it used to return a zero-step run marked budget_exhausted
        inst = ssrgd.make_nonconvex_logistic(n=64, d=5, seed=0)
        with pytest.raises(ConfigError, match="sfo_budget"):
            if kind == "svrg":
                ssrgd.run_ssrgd(inst.spec, svrg_config(0.1, minibatch=2, epoch_len=4, sfo_budget=math.nan))
            else:
                baselines.run_baseline(baselines.BaselineKind(kind=kind, step_size=0.1, minibatch=2), inst.spec,
                                       math.nan)

    def test_step_size(self):
        # the run used to die at iteration 1 with a NonFiniteError that blamed the iterate
        inst = ssrgd.make_nonconvex_logistic(n=64, d=5, seed=0)
        cfg = dataclasses.replace(ssrgd.derive_config(inst.spec, 0.01), step_size=math.nan)
        with pytest.raises(ConfigError, match="step_size"):
            ssrgd.run_ssrgd(inst.spec, cfg)
        with pytest.raises(ConfigError, match="step_size"):
            ssrgd.run_ssrgd(inst.spec, svrg_config(math.nan, minibatch=2, epoch_len=4, sfo_budget=1000))
        for kind in baselines.KINDS:
            bk = baselines.BaselineKind(kind=kind, step_size=math.nan, minibatch=2)
            with pytest.raises(ConfigError, match="step_size"):
                baselines.run_baseline(bk, inst.spec, 1000)


def coupled_with_nan_delta():
    inst = ssrgd.make_separable_saddle(d=4, n=8, delta_plant=0.3, seed=0)
    cfg = ssrgd.derive_config(inst.spec, 0.05, 0.3, 8.0)
    diagnostics.run_coupled_experiment(inst, np.zeros(4), dataclasses.replace(cfg, delta=math.nan), 2)


class TestNanArguments:
    """Argument checks that NaN fails (each reads its row of core.SETTING_RULES),
    where `r < 0` let NaN through to a NaN draw or a math.ceil crash."""

    @pytest.mark.parametrize("call, message", [
        (lambda: core.sample_uniform_ball(core.seeded_rng(0, 0), 3, math.nan), "constraint violated: r >= 0"),
        (coupled_with_nan_delta, "constraint violated: delta > 0"),
    ])
    def test_nan_is_refused(self, call, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            call()


class TestRefusals:
    """Refusals of the core types and primitives that no other test reaches."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: core.sample_minibatch(core.seeded_rng(0, 0), 4, 0),
                     "minibatch size must be >= 1", id="minibatch-0"),
        pytest.param(lambda: core.sample_minibatch(core.seeded_rng(0, 0), 0, 2),
                     "component count must be >= 1", id="n-0"),
        pytest.param(lambda: ProblemSpec(n=4, d=2, lipschitz_grad=1.0, lipschitz_hess=0.0, value=lambda x: 0.0,
                                         component_grad_batch=lambda idx, x: np.zeros((len(idx), 2))),
                     "finite-sum mode needs a full-gradient oracle", id="no-full-grad"),
    ])
    def test_refusal(self, call, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            call()


class TestSuperEpoch:
    def _started(self, length=3, fval_threshold=1.0):
        se = SuperEpoch(0.1, 0.5, fval_threshold, length)
        se.start(core.seeded_rng(0, 0), 10, np.zeros(3), 5.0)
        return se

    def test_start_records_trigger_and_perturbs_within_radius(self):
        se = SuperEpoch(0.1, 0.5, 1.0, 3)
        x = np.array([1.0, 2.0, 3.0])
        y = se.start(core.seeded_rng(4, 0), 7, x, 2.5)
        assert se.active and se.t_init == 7 and se.f_tilde == 2.5
        assert 0 < np.linalg.norm(y - x) <= 0.1

    def test_fdecrease_wins_when_both_conditions_hold(self):
        se = self._started()
        # f dropped by 2 >= 1 and t - t_init = 3 >= 3
        assert se.exit_event(13, 3.0) is Event.SUPER_EPOCH_END_FDECREASE
        assert not se.active

    def test_fdecrease_before_timeout(self):
        se = self._started()
        assert se.exit_event(11, 4.5) is Event.NONE and se.active
        assert se.exit_event(12, 4.0) is Event.SUPER_EPOCH_END_FDECREASE

    def test_timeout_fires_exactly_at_length(self):
        se = self._started(length=3)
        assert se.exit_event(12, 5.0) is Event.NONE and se.active
        assert se.exit_event(13, 5.0) is Event.SUPER_EPOCH_END_TIMEOUT
        assert not se.active

    def test_no_exit_while_inactive(self):
        se = SuperEpoch(0.1, 0.5, 1.0, 3)
        assert se.exit_event(100, -1e9) is Event.NONE

    def test_trigger_rules(self):
        se = SuperEpoch(0.1, 0.5, 1.0, 3)
        assert se.triggers(0.5) and not se.triggers(0.51)
        se.start(core.seeded_rng(0, 0), 0, np.zeros(2), 0.0)
        assert not se.triggers(0.0)  # already active
        assert not SuperEpoch(0.0, 0.5, 1.0, 3).triggers(0.0)  # radius 0

    @pytest.mark.parametrize(
        "settings, key",
        [
            ((0.0, 0.5, 1.0, 3), "perturb_radius"),
            ((0.1, 0.0, 1.0, 3), "grad_threshold"),
            ((0.1, 0.5, math.inf, 3), "fval_threshold"),
            ((0.1, 0.5, 1.0, 0), "super_epoch_len"),
        ],
    )
    def test_check_names_the_setting(self, settings, key):
        with pytest.raises(ConfigError, match=f"^who: constraint violated: {key} "):
            SuperEpoch(*settings).check("who")

    @pytest.mark.parametrize("key", ["perturb_radius", "grad_threshold"])
    def test_nan_setting_is_refused(self, key):
        # NaN passes `<= 0` and `< 0`, and would leave the super epoch off
        settings = {"perturb_radius": 0.5, "grad_threshold": 0.1, key: math.nan}
        cfg = RunConfig(
            step_size=0.1, epoch_len=2, minibatch=2, eps=0.1, sfo_budget=10,
            fval_threshold=0.1, super_epoch_len=10, delta=0.1, **settings,
        )
        with pytest.raises(ConfigError, match=key):
            cfg.validate(scalar_quadratic([1.0, 2.0]))
        with pytest.raises(ConfigError, match=f"^who: constraint violated: {key} > 0$"):
            cfg.super_epoch().check("who")


class TestInitialPointShape:
    """Every optimizer entry point refuses a start of the wrong dimension."""

    def test_run_ssrgd(self):
        inst = ssrgd.make_separable_saddle(d=5, n=16, delta_plant=0.4, seed=0)
        cfg = ssrgd.derive_config(inst.spec, 0.05, 0.3, sfo_budget=1000)
        with pytest.raises(InvalidInputError, match=r"\(4,\)"):
            ssrgd.run_ssrgd(inst.spec, cfg, x0=np.zeros(4))

    def test_run_baseline(self):
        inst = ssrgd.make_separable_saddle(d=5, n=16, delta_plant=0.4, seed=0)
        kind = baselines.BaselineKind(kind="gd", step_size=0.1)
        with pytest.raises(InvalidInputError, match=r"\(4,\)"):
            baselines.run_baseline(kind, inst.spec, 1000, x0=np.zeros(4))

    def test_verify_epoch_decrease(self):
        inst = ssrgd.make_nonconvex_logistic(64, 5, seed=0)
        cfg = ssrgd.derive_config(inst.spec, 0.1)
        with pytest.raises(InvalidInputError, match=r"\(4,\)"):
            diagnostics.verify_epoch_decrease(inst.spec, cfg, 2, x0=np.zeros(4))

    def test_non_finite_start_rejected(self):
        inst = ssrgd.make_nonconvex_logistic(64, 5, seed=0)
        kind = baselines.BaselineKind(kind="gd", step_size=0.1)
        with pytest.raises(ssrgd.NonFiniteError, match="initial point"):
            baselines.run_baseline(kind, inst.spec, 1000, x0=np.full(5, np.nan))


class TestSfoAccounting:
    def test_exact_counts_instrumented_run(self):
        # raw SFO = (#full gradients) * n + (#recursive steps) * 2b
        calls = {"full": 0, "comp": 0}
        base = scalar_quadratic([1.0, 2.0, 3.0, 4.0])
        orig_full, orig_batch = base.full_grad, base.component_grad_batch

        def counting_full(x):
            calls["full"] += 1
            return orig_full(x)

        def counting_batch(idx, x):
            calls["comp"] += len(idx) * (x.size // x.shape[-1])  # rows times stack depth
            return orig_batch(idx, x)

        base.full_grad = counting_full
        base.component_grad_batch = counting_batch
        cfg = RunConfig(
            step_size=0.1, epoch_len=5, minibatch=3, eps=0.0, sfo_budget=10**9,
            seed=9, max_iters=60,
        )
        out = ssrgd.run_ssrgd(base, cfg, x0=np.array([5.0]))
        n_steps = sum(1 for r in out.trace if r.grad_norm is None)
        assert calls["comp"] == 2 * 3 * n_steps
        assert out.sfo_raw == calls["full"] * 4 + calls["comp"]
        assert out.sfo_nominal == calls["full"] * 4 + calls["comp"] // 2

    def test_counter_monotone(self):
        prob = scalar_quadratic([1.0, 2.0])
        cfg = RunConfig(step_size=0.1, epoch_len=3, minibatch=3, eps=0.0,
                        sfo_budget=500, seed=1)
        out = ssrgd.run_ssrgd(prob, cfg, x0=np.array([1.0]))
        counts = [r.sfo_count for r in out.trace]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestReproducibility:
    def test_identical_runs_bitwise(self):
        inst = ssrgd.make_nonconvex_logistic(64, 5, seed=3)
        cfg = ssrgd.derive_config(inst.spec, 0.05, sfo_budget=20_000, seed=17)
        a = ssrgd.run_ssrgd(inst.spec, cfg)
        b = ssrgd.run_ssrgd(inst.spec, cfg)
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert ra == rb
        assert np.array_equal(a.final_x, b.final_x)


class TestFiniteness:
    def test_nan_oracle_aborts_with_trace(self):
        prob = scalar_quadratic([1.0, 2.0])
        orig = prob.component_grad_batch
        state = {"calls": 0}

        def exploding(idx, x):
            state["calls"] += 1
            g = orig(idx, x)
            return np.full(g.shape, np.nan) if state["calls"] > 3 else g

        prob.component_grad_batch = exploding
        cfg = RunConfig(step_size=0.1, epoch_len=4, minibatch=2, eps=0.0,
                        sfo_budget=10**6, seed=2)
        with pytest.raises(ssrgd.NonFiniteError) as err:
            ssrgd.run_ssrgd(prob, cfg, x0=np.array([1.0]))
        assert len(err.value.trace) >= 1


def _breaks_a_rule(n, d, L, rho, sigma, batch, full) -> bool:
    """The rules of ``ProblemSpec.__post_init__``, written independently:
    a problem is a finite sum exactly when n is not inf, and L, rho and
    sigma are finite in either mode, as the analysis divides by them."""
    finite_n = n != math.inf
    bad_n = finite_n and not (n >= 1 and n == int(n))
    bad_mode = finite_n and not full
    bad_constants = not (0 < L < math.inf and 0 <= rho < math.inf and 0 <= sigma < math.inf)
    return d < 1 or bad_n or bad_constants or not batch or bad_mode


SPEC_NUMBERS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1e-300, -1.0, math.nan, math.inf]
)


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(-3, 10**6) | st.sampled_from([math.inf, -math.inf, 0.0, 0.5, 2.5, 3.0, math.nan])
    | st.floats(-10.0, 1e6),
    d=st.integers(-2, 50),
    L=SPEC_NUMBERS,
    rho=SPEC_NUMBERS,
    sigma=SPEC_NUMBERS,
    batch=st.booleans(),
    full=st.booleans(),
)
def test_problem_spec_rejects_exactly_the_broken_rules(n, d, L, rho, sigma, batch, full):
    def build():
        return ProblemSpec(
            n=n, d=d, lipschitz_grad=L, lipschitz_hess=rho, value=lambda x: 0.0,
            full_grad=(lambda x: x) if full else None,
            component_grad_batch=(lambda idx, x: np.tile(x, (len(idx), 1))) if batch else None,
            variance_bound=sigma,
        )

    if _breaks_a_rule(n, d, L, rho, sigma, batch, full):
        with pytest.raises(ConfigError):
            build()
    else:
        spec = build()
        assert spec.n == n
        assert spec.mode is (Mode.ONLINE if n == math.inf else Mode.FINITE_SUM)
