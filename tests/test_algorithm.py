import dataclasses
import itertools
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssrgd
from ssrgd import algorithm, baselines, core, spectral
from ssrgd.core import ConfigError, Event, RunConfig
from ssrgd.algorithm import Termination

from conftest import assert_same_outcome, counting, online_rows, scalar_quadratic

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def identical_quadratic(d, n, x_scale=1.0):
    """n identical components 0.5||x||^2: the recursive estimator is exact."""
    return ssrgd.make_quadratic(d=d, n=n, seed=0, spread=0.0)


class TestDeriveFirstOrder:
    def test_spec_values(self):
        inst = ssrgd.make_quadratic(d=2, n=10_000, seed=0, spread=0.0)
        cfg = ssrgd.derive_config(inst.spec, 0.1)
        assert cfg.epoch_len == 100 and cfg.minibatch == 100
        assert cfg.step_size == pytest.approx(GOLDEN, rel=1e-15)
        assert cfg.perturb_radius == 0 and cfg.grad_threshold == 0
        assert not cfg.second_order

    def test_single_component(self):
        inst = ssrgd.make_quadratic(d=2, n=1, seed=0, spread=0.0)
        cfg = ssrgd.derive_config(inst.spec, 0.1)
        assert cfg.epoch_len == 1 and cfg.minibatch == 1

    def test_step_scales_with_L(self):
        inst = ssrgd.make_quadratic(d=2, n=9, seed=0, scale=10.0, spread=0.0)
        cfg = ssrgd.derive_config(inst.spec, 0.1)
        assert cfg.step_size == pytest.approx((math.sqrt(5) - 1) / 20, rel=1e-12)


class TestDeriveSecondOrder:
    def _problem(self, L=1.0, rho=1.0, n=10_000):
        return core.ProblemSpec(
            n=n, d=4, lipschitz_grad=L, lipschitz_hess=rho,
            value=lambda x: 0.0, component_grad_batch=lambda idx, x: np.tile(x, (len(idx), 1)),
            full_grad=lambda x: x,
        )

    def test_spec_example(self):
        cfg = ssrgd.derive_config(self._problem(), 0.1, 0.3, 1.0)
        assert cfg.epoch_len == 100 and cfg.minibatch == 100
        assert cfg.grad_threshold == 0.1
        assert cfg.fval_threshold == pytest.approx(0.027, rel=1e-12)
        # r = min(delta^3/(rho^2 eps), delta^1.5/(rho sqrt(L))) = min(0.27, 0.164)
        assert cfg.perturb_radius == pytest.approx(min(0.27, 0.3**1.5), rel=1e-12)
        assert cfg.step_size == pytest.approx(GOLDEN, rel=1e-15)
        assert cfg.super_epoch_len == math.ceil(1.0 / (GOLDEN * 0.3)) == 6

    def test_classical_regime(self):
        # delta = sqrt(rho * eps): eps = 0.01, rho = 1 -> delta = 0.1, F = 1e-3
        cfg = ssrgd.derive_config(self._problem(), 0.01, 0.1, 1.0)
        assert cfg.fval_threshold == pytest.approx(1e-3, rel=1e-12)

    def test_logfactor_scaling(self):
        base = ssrgd.derive_config(self._problem(), 0.1, 0.3, 1.0)
        dbl = ssrgd.derive_config(self._problem(), 0.1, 0.3, 2.0)
        assert dbl.fval_threshold == pytest.approx(2 * base.fval_threshold, rel=1e-12)
        assert dbl.perturb_radius == pytest.approx(2 * base.perturb_radius, rel=1e-12)
        assert dbl.super_epoch_len == math.ceil(2.0 / (dbl.step_size * 0.3))
        # step size stays at the cap once logfactor/L exceeds it
        assert dbl.step_size == base.step_size

    def test_rho_zero_rejected(self):
        with pytest.raises(ConfigError, match="Hessian Lipschitz"):
            ssrgd.derive_config(self._problem(rho=0.0), 0.1, 0.3)

    def test_validates(self):
        prob = self._problem()
        cfg = ssrgd.derive_config(prob, 0.1, 0.3, 4.0)
        cfg.validate(prob)


class TestDeriveOnline:
    def test_first_order_batches(self):
        inst = ssrgd.make_online_stream(ssrgd.make_quadratic(3, 2, seed=0), 1.0)
        cfg = ssrgd.derive_config(inst.spec, 0.1)
        assert cfg.large_batch == 400
        assert cfg.epoch_len == cfg.minibatch == 20
        cfg.validate(inst.spec)

    def test_second_order_batches(self):
        base = ssrgd.make_separable_saddle(d=4, n=8, delta_plant=0.3, seed=0)
        inst = ssrgd.make_online_stream(base, 1.0)
        cfg = ssrgd.derive_config(inst.spec, 0.1, 0.3, 1.0)
        assert cfg.large_batch == 400 and cfg.second_order
        cfg.validate(inst.spec)


class TestDeriveRejections:
    """The checks of the one derivation, finite-sum and online alike."""

    def test_first_order_finite_sum_needs_positive_eps(self):
        inst = ssrgd.make_quadratic(d=2, n=16, seed=0)
        for eps in (0.0, -0.1, math.nan):
            with pytest.raises(ConfigError, match="constraint violated: eps > 0"):
                ssrgd.derive_config(inst.spec, eps)

    def test_online_second_order_needs_positive_logfactor(self):
        base = ssrgd.make_separable_saddle(d=4, n=8, delta_plant=0.3, seed=0)
        inst = ssrgd.make_online_stream(base, 1.0)
        for lf in (0.0, -1.0, math.nan):  # NaN online used to die in math.ceil
            with pytest.raises(ConfigError, match="constraint violated: logfactor > 0"):
                ssrgd.derive_config(inst.spec, 0.1, 0.3, lf)

    @pytest.mark.parametrize("online", [False, True])
    def test_second_order_needs_finite_logfactor(self, online):
        inst = ssrgd.make_separable_saddle(d=4, n=8, delta_plant=0.3, seed=0)
        spec = ssrgd.make_online_stream(inst, 1.0).spec if online else inst.spec
        with pytest.raises(ConfigError, match="constraint violated: logfactor < inf"):
            ssrgd.derive_config(spec, 0.1, 0.3, math.inf)

    @pytest.mark.parametrize("online", [False, True])
    def test_second_order_needs_positive_delta(self, online):
        inst = ssrgd.make_separable_saddle(d=4, n=8, delta_plant=0.3, seed=0)
        spec = ssrgd.make_online_stream(inst, 1.0).spec if online else inst.spec
        for delta in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError, match="constraint violated: delta > 0"):
                ssrgd.derive_config(spec, 0.1, delta, 8.0)


def _spec(online, n, L, rho, sigma):
    return core.ProblemSpec(
        n=math.inf if online else n, d=3, lipschitz_grad=L, lipschitz_hess=rho,
        value=lambda x: 0.0, component_grad_batch=lambda idx, x: np.tile(x, (len(idx), 1)),
        full_grad=None if online else (lambda x: x), variance_bound=sigma,
    )


@settings(max_examples=300, deadline=None)
@given(
    online=st.booleans(),
    second=st.booleans(),
    eps=st.floats(1e-3, 1.0),
    delta=st.floats(1e-3, 1.0),
    logfactor=st.floats(0.05, 32.0),
    L=st.floats(1e-2, 1e3),
    rho=st.floats(1e-2, 1e2),
    sigma=st.floats(0.0, 5.0),
    n=st.integers(1, 10**7),
)
def test_derivation_properties(online, second, eps, delta, logfactor, L, rho, sigma, n):
    spec = _spec(online, n, L, rho, sigma)
    if second:
        cfg = ssrgd.derive_config(spec, eps, delta, logfactor)
    else:
        cfg = ssrgd.derive_config(spec, eps)
    cfg.validate(spec)
    lf = logfactor if second else 1.0
    anchor = max(1, math.ceil(lf * 4.0 * sigma**2 / eps**2)) if online else n
    assert cfg.large_batch == (anchor if online else None)
    m = math.isqrt(anchor - 1) + 1 if anchor > 1 else 1
    assert m * m >= anchor > (m - 1) ** 2
    assert cfg.epoch_len == cfg.minibatch == m
    assert cfg.second_order is second
    assert 0 < cfg.step_size * L <= GOLDEN * (1 + 1e-12)
    if second:
        assert cfg.step_size * L <= lf * (1 + 1e-12)
        assert cfg.grad_threshold == eps and cfg.delta == delta
        assert cfg.super_epoch_len >= 1 and 0 < cfg.fval_threshold < math.inf
    else:
        assert cfg.perturb_radius == 0 and cfg.logfactor == 1.0


class TestRandomStop:
    def test_always_stops_at_epoch_end(self):
        rng = core.seeded_rng(0, 0)
        assert all(ssrgd.random_stop_decision(rng, 4, 4) for _ in range(1000))

    def test_m1(self):
        rng = core.seeded_rng(1, 0)
        assert ssrgd.random_stop_decision(rng, 1, 1)

    def test_uniform_stopping_index(self):
        # telescoping: P(stop at k) = 1/m for every k
        rng = core.seeded_rng(2, 0)
        m, trials = 4, 10**6
        counts = np.zeros(m, dtype=int)
        draws = rng.random((trials, m))
        for row in draws:
            for k in range(1, m + 1):
                if row[k - 1] < 1.0 / (m - k + 1):
                    counts[k - 1] += 1
                    break
        freqs = counts / trials
        assert np.all(np.abs(freqs - 0.25) < 0.005)
        expected = trials / m
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 16.266  # chi-square df=3 critical value at p = 0.001

    def test_bad_k(self):
        with pytest.raises(core.InvalidInputError):
            ssrgd.random_stop_decision(core.seeded_rng(0, 0), 5, 4)


class TestRunFirstOrder:
    def test_contraction_matches_exact_gd(self):
        # identical components make the estimator exact, so the run is plain
        # gradient descent: x_{t+1} = (1 - eta) x_t, reproduced step by step
        inst = identical_quadratic(3, 4)
        cfg = ssrgd.derive_config(inst.spec, 0.01, sfo_budget=600, seed=5)
        x0 = 10.0 * np.ones(3)
        out = ssrgd.run_ssrgd(inst.spec, cfg, x0=x0)
        steps = sum(1 for r in out.trace if r.grad_norm is None)
        x_ref = x0.copy()
        for _ in range(steps):
            x_ref = x_ref - cfg.step_size * x_ref
        assert np.allclose(out.final_x, x_ref, rtol=1e-12, atol=0)
        fvals = [r.f_value for r in out.trace]
        assert all(b <= a + 1e-15 for a, b in zip(fvals, fvals[1:]))

    def test_reaches_small_gradient(self):
        inst = identical_quadratic(3, 4)
        cfg = ssrgd.derive_config(inst.spec, 0.01, sfo_budget=10**5, seed=3)
        out = ssrgd.run_ssrgd(inst.spec, cfg, x0=10.0 * np.ones(3))
        assert np.linalg.norm(inst.spec.full_grad(out.final_x)) <= 0.01
        assert out.sfo_raw <= 10**5

    def test_no_perturbation_events_when_disabled(self):
        # start at the stationary point: the gradient check would fire, but
        # perturbation is off in first-order mode
        inst = identical_quadratic(2, 4)
        cfg = ssrgd.derive_config(inst.spec, 0.01, sfo_budget=2000, seed=1)
        out = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.zeros(2))
        assert all(r.event is not Event.PERTURBATION for r in out.trace)
        assert not out.sosp_candidates

    def test_budget_zero_empty_trace(self):
        inst = identical_quadratic(2, 4)
        cfg = ssrgd.derive_config(inst.spec, 0.01, sfo_budget=0)
        out = ssrgd.run_ssrgd(inst.spec, cfg)
        assert out.trace == [] and out.termination is Termination.BUDGET_EXHAUSTED

    def test_max_epochs(self):
        inst = identical_quadratic(2, 4)
        cfg = ssrgd.derive_config(inst.spec, 0.01, sfo_budget=10**9)
        cfg.max_epochs = 7
        out = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.ones(2))
        assert out.termination is Termination.MAX_EPOCHS
        assert sum(1 for r in out.trace if r.event is Event.EPOCH_START) == 7

    def test_online_mode_runs(self):
        base = ssrgd.make_quadratic(d=4, n=2, seed=0, spread=0.0)
        inst = ssrgd.make_online_stream(base, 0.5, seed=1)
        cfg = ssrgd.derive_config(inst.spec, 0.2, sfo_budget=40_000, seed=2)
        out = ssrgd.run_ssrgd(inst.spec, cfg, x0=3.0 * np.ones(4))
        assert np.linalg.norm(base.spec.full_grad(out.final_x)) <= 0.2
        # trace grad norms are the large-batch estimates at epoch starts
        starts = [r for r in out.trace if r.event is Event.EPOCH_START]
        assert starts and all(r.grad_norm is not None for r in starts)

    def test_infinite_budget_runs_to_the_epoch_cap(self):
        inst = ssrgd.make_nonconvex_logistic(n=64, d=5, seed=0)
        cfg = dataclasses.replace(ssrgd.derive_config(inst.spec, 0.01), max_epochs=5)
        out = ssrgd.run_ssrgd(inst.spec, dataclasses.replace(cfg, sfo_budget=math.inf), x0=np.ones(5))
        assert_same_outcome(out, ssrgd.run_ssrgd(inst.spec, cfg, x0=np.ones(5)))
        assert out.termination is Termination.MAX_EPOCHS and out.sfo_raw == 784


def _recorded_run(spec, cfg, x0):
    """A full-trace run and its step-callback sequence as (iteration, raw
    SFO, event, bytes of x)."""
    steps = []

    def record(state, event):
        steps.append((state.iteration, state.sfo_count, event, state.x.tobytes()))

    return ssrgd.run_ssrgd(spec, cfg, x0=x0, full_trace=True, step_callback=record), steps


def _cut_by_budget(trace, budget):
    """How a budget cuts a run whose full trace is ``trace``: the rows kept
    and whether the cut ended it.  The budget is tested before each anchor
    and before each inner step, against the raw SFO spent before it; the
    epoch cap, tested first at an epoch's top, ends the run only when no
    budget test has."""
    spent = 0
    for i, row in enumerate(trace):
        if row.event is not Event.PERTURBATION and spent >= budget:
            return trace[:i], True
        spent = row.sfo_count
    return trace, False


class TestBudgetCut:
    """``core.steps_left`` cuts each epoch at the budget: a budgeted run is
    a prefix of the same run without a budget, and ends where a per-step
    budget test would end it."""

    @staticmethod
    def check_prefix(spec, cfg, x0, budgets, reach):
        unbounded, seq = _recorded_run(spec, cfg, x0)
        assert unbounded.sfo_raw > max(budgets) or cfg.max_epochs is not None
        for budget in budgets:
            out, got = _recorded_run(spec, dataclasses.replace(cfg, sfo_budget=budget), x0)
            rows, cut = _cut_by_budget(unbounded.trace, budget)
            assert out.trace == rows
            assert got == seq[:len(got)]
            assert len(got) == sum(r.event is not Event.EPOCH_START for r in rows)
            assert out.sfo_raw == (rows[-1].sfo_count if rows else 0)
            assert np.array_equal(out.final_x, np.frombuffer(got[-1][3]) if got else x0)
            assert out.termination is (Termination.BUDGET_EXHAUSTED if cut else unbounded.termination)
            reach.add((cut, out.termination))

    @pytest.mark.parametrize("max_epochs", [None, 1, 2])
    def test_first_order_cut_is_a_prefix(self, max_epochs):
        inst = ssrgd.make_nonconvex_logistic(n=64, d=5, seed=0)
        cfg = ssrgd.derive_config(inst.spec, 0.01)
        a, cost = 64, 2 * cfg.minibatch  # m = b = 8
        cap = 60 if max_epochs is None else max_epochs
        budgets = [0, a, a + 1, a + 3 * cost - 1, a + 3 * cost, a + cfg.epoch_len * cost, 300, 1000]
        reach = set()
        for seed in range(6):
            run_cfg = dataclasses.replace(cfg, seed=seed, max_epochs=cap, sfo_budget=10**12)
            self.check_prefix(inst.spec, run_cfg, np.ones(5), budgets, reach)
        if max_epochs is None:
            assert reach == {(True, Termination.BUDGET_EXHAUSTED)}
        else:  # both endings, and a cut on the capped epoch itself
            assert {(True, Termination.BUDGET_EXHAUSTED), (False, Termination.MAX_EPOCHS)} <= reach

    @pytest.mark.parametrize("max_epochs", [None, 1, 2])
    def test_second_order_cut_is_a_prefix(self, max_epochs):
        inst = ssrgd.make_separable_saddle(d=4, n=16, delta_plant=0.5, seed=0)
        cfg = ssrgd.derive_config(inst.spec, 0.05, 0.3, 1.0)
        assert (cfg.epoch_len, cfg.minibatch) == (4, 4)
        # anchor and perturbation 32 raw SFO, then m = 4 steps of 8
        budgets = [16, 32, 55, 56, 64, 65, 500, 3000]
        reach = set()
        for seed in range(4):
            run_cfg = dataclasses.replace(
                cfg, seed=seed, max_epochs=max_epochs or 400, sfo_budget=10**12)
            self.check_prefix(inst.spec, run_cfg, np.zeros(4), budgets, reach)
        assert (True, Termination.BUDGET_EXHAUSTED) in reach

    @pytest.mark.parametrize("budget", [49, 52, 56])
    def test_cut_on_the_capped_epoch_reports_the_budget(self, budget):
        # the cut leaves 3 of the 4 steps of the only epoch allowed
        inst = ssrgd.make_separable_saddle(d=4, n=16, delta_plant=0.5, seed=0)
        cfg = ssrgd.derive_config(inst.spec, 0.05, 0.3, 1.0, sfo_budget=budget)
        out = ssrgd.run_ssrgd(inst.spec, dataclasses.replace(cfg, max_epochs=1), x0=np.zeros(4))
        assert [r.event for r in out.trace] == [Event.EPOCH_START, Event.PERTURBATION] + [Event.NONE] * 3
        assert out.termination is Termination.BUDGET_EXHAUSTED

    def test_super_epoch_through_step_m_goes_on(self):
        # 65 raw SFO leave room for all m = 4 steps (32 + 4 * 8 = 64); the
        # super epoch is still active at step m, so the next epoch starts
        inst = ssrgd.make_separable_saddle(d=4, n=16, delta_plant=0.5, seed=0)
        cfg = ssrgd.derive_config(inst.spec, 0.05, 0.3, 1.0, sfo_budget=65)
        out = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.zeros(4))
        events = [Event.EPOCH_START, Event.PERTURBATION] + [Event.NONE] * 4 + [Event.EPOCH_START]
        assert [r.event for r in out.trace] == events
        assert out.sfo_raw == 80 and out.termination is Termination.BUDGET_EXHAUSTED
        capped = ssrgd.run_ssrgd(inst.spec, dataclasses.replace(cfg, max_epochs=1), x0=np.zeros(4))
        assert len(capped.trace) == 6 and capped.termination is Termination.MAX_EPOCHS


def scripted_problem(L, anchor, diffs):
    """d = 2, f = 0: the anchor gradient is fixed and step k's recursive
    difference is ``diffs[k - 1]``, so a test can place a non-finite or a
    huge value exactly."""
    steps = iter(diffs)
    return ssrgd.ProblemSpec(
        n=4, d=2, lipschitz_grad=L, lipschitz_hess=0.0,
        value=lambda x: 0.0, full_grad=lambda x: np.array(anchor, dtype=float),
        component_grad_batch=lambda idx, x: np.zeros((len(idx), 2)),
        grad_diff_batch=lambda idx, x_new, x_old: np.array(next(steps), dtype=float),
    )


class TestFusedFinitenessCheck:
    """``run_ssrgd`` checks the iterate and the estimate with one dot product
    and falls back to the per-vector checks only when it is not finite."""

    def run(self, prob, step_size, x0=(0.0, 0.0), budget=10**6):
        cfg = RunConfig(step_size=step_size, epoch_len=4, minibatch=2, eps=0.0, sfo_budget=budget)
        return ssrgd.run_ssrgd(prob, cfg, x0=np.array(x0))

    def test_nan_estimate_names_the_estimate(self):
        prob = scripted_problem(1.0, [1.0, 1.0], [[0.0, 0.0], [0.0, math.nan]])
        with pytest.raises(ssrgd.NonFiniteError, match="^gradient estimate contains") as info:
            self.run(prob, 0.1)
        assert info.value.iteration == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("diff", [[0.0, 0.0], [math.nan, 0.0]])
    def test_inf_iterate_is_named_first(self, diff):
        # L = 1e-200 allows step 1e199, so the first move overflows x to -inf
        prob = scripted_problem(1e-200, [1e150, 0.0], [diff])
        with pytest.raises(ssrgd.NonFiniteError, match="^iterate contains") as info:
            self.run(prob, 1e199)
        assert info.value.iteration == 1
        assert [row.iteration for row in info.value.trace] == [0]

    def test_overflowing_dot_of_finite_vectors_passes(self):
        anchor = [1e10, 1e10]
        prob = scripted_problem(1.0, anchor, itertools.repeat([0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = self.run(prob, 0.1, x0=(1e300, 1e300), budget=200)
        assert np.all(np.isfinite(out.final_x)) and out.final_x[0] == 1e300
        assert np.vdot(out.final_x, anchor) == math.inf  # the fallback ran


class TestDomainBoxWarning:
    """``run_ssrgd`` warns once when an iterate leaves the box inside which
    the declared L and rho hold, and not at all while it stays inside."""

    def run(self, caplog, box_radius, x0):
        inst = ssrgd.make_separable_saddle(d=3, n=8, delta_plant=0.3, seed=0, box_radius=box_radius)
        cfg = ssrgd.derive_config(inst.spec, 1e-3, sfo_budget=4000)
        with caplog.at_level(logging.WARNING, logger="ssrgd"):
            out = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.array(x0), full_trace=False)
        return out, [r.getMessage() for r in caplog.records]

    def test_leaving_the_box_warns_exactly_once(self, caplog):
        # from just off the planted saddle the run descends to a minimum at
        # |x_3| = sqrt(0.3), outside a box of radius 0.2, and stays there
        out, warned = self.run(caplog, 0.2, [0.0, 0.0, 0.1])
        assert np.max(np.abs(out.final_x)) > 0.5
        assert len(warned) == 1
        assert warned[0].startswith("iterate left the declared domain box (|x|_inf=") and "> 0.2)" in warned[0]

    def test_staying_inside_logs_nothing(self, caplog):
        out, logged = self.run(caplog, 1.0, [0.5, -0.5, 0.0])
        assert np.max(np.abs(out.final_x)) < 0.5
        assert logged == []


def walk_super_epochs(trace):
    """Yield (trigger_row, perturb_row, exit_row) spans found in a trace."""
    spans = []
    current = None
    for i, row in enumerate(trace):
        if row.event is Event.PERTURBATION:
            trigger = next(
                r for r in reversed(trace[:i])
                if r.event is Event.EPOCH_START and r.iteration == row.iteration
            )
            current = (trigger, row)
        elif row.event in (Event.SUPER_EPOCH_END_FDECREASE, Event.SUPER_EPOCH_END_TIMEOUT):
            assert current is not None
            spans.append((current[0], current[1], row))
            current = None
    return spans


class TestSuperEpochs:
    def _run(self, seed=0, budget=150_000):
        inst = ssrgd.make_separable_saddle(d=10, n=64, delta_plant=0.3, noise=0.1, seed=0)
        cfg = ssrgd.derive_config(
            inst.spec, 0.05, 0.3, 8.0, sfo_budget=budget, seed=seed
        )
        out = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.zeros(10), full_trace=True)
        return inst, cfg, out

    def test_perturbation_cost_bound(self):
        # every perturbation event: f(x0) <= f(x~) + G r + (L/2) r^2
        inst, cfg, out = self._run(seed=11)
        L = inst.spec.lipschitz_grad
        spans = walk_super_epochs(out.trace)
        assert spans
        for trigger, pert, _ in spans:
            lhs = pert.f_value
            rhs = trigger.f_value + cfg.grad_threshold * cfg.perturb_radius \
                + 0.5 * L * cfg.perturb_radius**2
            assert lhs <= rhs

    def test_exit_conditions_consistent(self):
        inst, cfg, out = self._run(seed=12)
        spans = walk_super_epochs(out.trace)
        assert spans
        for trigger, pert, exit_row in spans:
            if exit_row.event is Event.SUPER_EPOCH_END_FDECREASE:
                assert trigger.f_value - exit_row.f_value >= cfg.fval_threshold
            else:
                assert exit_row.iteration - trigger.iteration >= cfg.super_epoch_len

    def test_every_perturbation_preceded_by_threshold_pass(self):
        inst, cfg, out = self._run(seed=13)
        for trigger, pert, _ in walk_super_epochs(out.trace):
            assert trigger.grad_norm <= cfg.grad_threshold

    def test_escape_smoke(self):
        # full-scale version is acceptance criterion 5
        escaped = 0
        for seed in range(5):
            inst, cfg, out = self._run(seed=seed)
            it, pt = out.sosp_candidates[-1]
            cert = spectral.certify(inst.spec, pt, 0.05, 0.3)
            escaped += cert.is_sosp and np.linalg.norm(pt) > 0.2
        assert escaped >= 4

    def test_certifier_hook_terminates(self):
        # a convex bowl certifies at the first trigger
        inst = ssrgd.make_quadratic(d=3, n=16, seed=1, spread=0.1)
        prob = inst.spec
        cfg = RunConfig(
            step_size=0.5 / prob.lipschitz_grad, epoch_len=4, minibatch=4,
            eps=0.5, sfo_budget=10**6, seed=4, perturb_radius=0.05,
            grad_threshold=0.5, fval_threshold=0.05, super_epoch_len=50,
            delta=0.5,
        )
        out = ssrgd.run_ssrgd(
            prob, cfg, x0=0.2 * np.ones(3),
            certifier=lambda x: spectral.certify(prob, x, 0.5, 0.5),
        )
        assert out.termination is Termination.SOSP_CERTIFIED
        assert out.certificate is not None and out.certificate.is_sosp

    def test_certifier_rejects_saddle_and_run_continues(self):
        inst = ssrgd.make_separable_saddle(d=6, n=16, delta_plant=0.4, noise=0.05, seed=2)
        prob = inst.spec
        # delta tighter than the planted curvature: the saddle must fail
        cfg = ssrgd.derive_config(prob, 0.05, 0.2, 8.0,
                                  sfo_budget=60_000, seed=3)
        out = ssrgd.run_ssrgd(
            prob, cfg, x0=np.zeros(6),
            certifier=lambda x: spectral.certify(prob, x, 0.05, 0.2),
        )
        # first candidate is the saddle itself; termination only via a
        # genuinely curved point or the budget
        if out.termination is Termination.SOSP_CERTIFIED:
            assert np.linalg.norm(out.final_x) > 0.2


class TestOnlineSecondOrder:
    def test_escapes_saddle_via_estimates(self):
        # the trigger check sees only the large-batch estimate norm, yet the
        # run still leaves the saddle and certifies against the exact oracle
        base = ssrgd.make_separable_saddle(d=6, n=16, delta_plant=0.3, noise=0.05, seed=0)
        inst = ssrgd.make_online_stream(base, 0.05, seed=3)
        cfg = ssrgd.derive_config(
            inst.spec, 0.05, 0.3, 8.0, sfo_budget=150_000, seed=1
        )
        out = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.zeros(6), full_trace=False)
        assert out.sosp_candidates
        _, pt = out.sosp_candidates[-1]
        cert = spectral.certify(base.spec, pt, 0.05, 0.3)
        assert cert.is_sosp and np.linalg.norm(pt) > 0.2


class TestDeterminism:
    def test_bitwise_identical_second_order(self):
        inst = ssrgd.make_separable_saddle(d=6, n=16, delta_plant=0.3, noise=0.1, seed=0)
        cfg = ssrgd.derive_config(inst.spec, 0.05, 0.3, 8.0,
                                  sfo_budget=40_000, seed=21)
        a = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.zeros(6))
        b = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.zeros(6))
        assert a.trace == b.trace
        assert np.array_equal(a.final_x, b.final_x)
        assert a.sfo_raw == b.sfo_raw

    @pytest.mark.parametrize("case", ["first", "second", "online"])
    def test_eps_alone_does_not_move_the_run(self, case):
        # harness.run_cell shares one run between the cells of an eps sweep
        # whose run configs differ only in eps; eps-derived settings (the
        # second-order thresholds, the online large batch) are held fixed here
        if case == "second":
            inst = ssrgd.make_separable_saddle(d=6, n=16, delta_plant=0.3, noise=0.1, seed=0)
            cfg = ssrgd.derive_config(inst.spec, 0.05, 0.3, 8.0, sfo_budget=20_000, seed=6)
            x0 = np.zeros(6)
        else:
            inst = ssrgd.make_nonconvex_logistic(n=64, d=5, seed=2)
            if case == "online":
                inst = ssrgd.make_online_stream(inst, 0.5, seed=3)
            cfg = ssrgd.derive_config(inst.spec, 0.1, sfo_budget=4_000, seed=4)
            x0 = 0.5 * np.ones(5)
        a, *others = (
            ssrgd.run_ssrgd(inst.spec, dataclasses.replace(cfg, eps=eps), x0=x0)
            for eps in (cfg.eps, 0.5 * cfg.eps, 0.0, 10.0)
        )
        for b in others:
            assert_same_outcome(a, b)
        assert any(r.event is Event.PERTURBATION for r in a.trace) is (case == "second")

    def test_trace_mode_does_not_change_path(self):
        inst = ssrgd.make_separable_saddle(d=6, n=16, delta_plant=0.3, noise=0.1, seed=0)
        cfg = ssrgd.derive_config(inst.spec, 0.05, 0.3, 8.0,
                                  sfo_budget=40_000, seed=22)
        a = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.zeros(6), full_trace=True)
        b = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.zeros(6), full_trace=False)
        assert np.array_equal(a.final_x, b.final_x)
        assert a.sfo_raw == b.sfo_raw


def slot_free(inst, seed):
    """The online spec (built with noise seed ``seed``) with oracles that
    ask the base for every gradient."""
    bspec, sigma = inst.base.spec, inst.spec.variance_bound
    return dataclasses.replace(
        inst.spec,
        component_grad_batch=lambda idx, x: online_rows(inst.base, sigma, seed, idx, x),
        grad_diff_batch=lambda idx, x_new, x_old: bspec.full_grad(x_new) - bspec.full_grad(x_old),
    )


class TestOnlineSlotParity:
    @pytest.mark.parametrize("second", [False, True])
    def test_run_matches_slot_free_oracles(self, second):
        if second:
            base = ssrgd.make_separable_saddle(d=6, n=16, delta_plant=0.3, noise=0.05, seed=0)
            noise_seed = 3
            inst = ssrgd.make_online_stream(base, 0.05, seed=noise_seed)
            cfg = ssrgd.derive_config(
                inst.spec, 0.05, 0.3, 8.0, sfo_budget=30_000, seed=1
            )
            x0 = np.zeros(6)
        else:
            base = ssrgd.make_nonconvex_logistic(n=256, d=10, seed=0)
            noise_seed = 1
            inst = ssrgd.make_online_stream(base, 0.5, seed=noise_seed)
            cfg = ssrgd.derive_config(inst.spec, 0.1, sfo_budget=10_000, seed=4)
            x0 = 0.5 * np.ones(10)
        a = ssrgd.run_ssrgd(inst.spec, cfg, x0=x0)
        b = ssrgd.run_ssrgd(slot_free(inst, noise_seed), cfg, x0=x0)
        assert_same_outcome(a, b)
        assert any(r.event is Event.PERTURBATION for r in a.trace) is second


class TestFunctionValueReuse:
    """A row that already evaluated f at the current x serves the next
    epoch-start row: f is evaluated once per distinct trace iteration."""

    def test_ssrgd_epoch_trace(self):
        inst = ssrgd.make_nonconvex_logistic(n=256, d=10, seed=1)
        spec = dataclasses.replace(inst.spec, value=counting(inst.spec.value))
        cfg = ssrgd.derive_config(spec, 0.05, sfo_budget=20_000, seed=5)
        x0 = 0.5 * np.ones(10)
        points = {0: x0}

        def record(state, event):
            points[state.iteration] = state.x

        out = ssrgd.run_ssrgd(spec, cfg, x0=x0, full_trace=False, step_callback=record)
        iterations = {r.iteration for r in out.trace}
        assert spec.value.calls == len(iterations) < len(out.trace)
        assert all(r.f_value == inst.spec.value(points[r.iteration]) for r in out.trace)

    def test_svrg_full_trace(self):
        inst = ssrgd.make_nonconvex_logistic(n=256, d=10, seed=1)
        kind = baselines.BaselineKind(
            "svrg", step_size=0.1 / inst.spec.lipschitz_grad, minibatch=8, epoch_len=16
        )
        runs = {}
        for full_trace in (True, False):
            spec = dataclasses.replace(inst.spec, value=counting(inst.spec.value))
            out = baselines.run_baseline(
                kind, spec, 8_000, x0=0.5 * np.ones(10), full_trace=full_trace
            )
            runs[full_trace] = out.trace, spec.value.calls
        (full, full_calls), (epochs, epoch_calls) = runs[True], runs[False]
        f_at = {}
        for r in full:
            assert f_at.setdefault(r.iteration, r.f_value) == r.f_value
        assert full_calls == len(f_at) < len(full)
        # the path does not depend on the trace mode
        assert epoch_calls == len(epochs) > 1
        assert all(r.f_value == f_at[r.iteration] for r in epochs)


@settings(max_examples=25, deadline=None)
@given(
    online=st.booleans(),
    n=st.integers(1, 64),
    eps=st.floats(0.05, 0.5),
    budget=st.integers(0, 4000),
    seed=st.integers(0, 2**31 - 1),
)
def test_sfo_accounting(online, n, eps, budget, seed):
    """Raw SFO is anchors plus 2b per recursive step, nominal charges b, so
    raw never exceeds twice nominal."""
    inst = ssrgd.make_quadratic(d=3, n=n, seed=seed % 97, spread=0.3)
    if online:
        inst = ssrgd.make_online_stream(inst, 0.5, seed=seed)
    cfg = algorithm.derive_config(inst.spec, eps, sfo_budget=budget, seed=seed)
    out = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.ones(3))
    anchors = sum(r.event is Event.EPOCH_START for r in out.trace)
    steps = len(out.trace) - anchors
    assert steps == (out.trace[-1].iteration if out.trace else 0)
    anchor = cfg.large_batch if online else n
    b = cfg.minibatch
    assert out.sfo_raw == anchors * anchor + 2 * b * steps
    assert out.sfo_nominal == anchors * anchor + b * steps
    assert out.sfo_raw <= 2 * out.sfo_nominal
    assert out.sfo_raw >= budget or out.termination is not Termination.BUDGET_EXHAUSTED
