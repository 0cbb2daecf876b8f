"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Budgets given to the optimizer here are often far
smaller than each criterion's allowance; succeeding under a smaller budget
proves the stated bound a fortiori while keeping the suite fast.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

import ssrgd
from ssrgd import core, diagnostics, estimators, spectral
from ssrgd.core import Event
from ssrgd.harness import (
    _trace_to_csv,
    parse_config,
    run_plan,
    scaling_report,
    sfo_at_first_fosp,
)

from conftest import quadratic_problem_from_components, random_quadratic_family


def report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: estimator exactness by exhaustive enumeration


def test_criterion_01_estimator_exactness():
    t0 = time.time()
    worst_bias = 0.0
    bound_ok = True
    for n, b, d in ((2, 1, 1), (3, 1, 2), (3, 2, 2), (4, 2, 3), (4, 1, 3)):
        comps = random_quadratic_family(d=d, n=n, seed=n * 7 + b)
        prob = quadratic_problem_from_components(comps)
        rng = np.random.default_rng(n + b)
        xs = [rng.standard_normal(d)]
        for _ in range(3):
            xs.append(xs[-1] + 0.4 * rng.standard_normal(d))
        grads = [estimators.full_gradient(prob, x) for x in xs]
        L = prob.lipschitz_grad
        batches = [np.array(t, dtype=np.int64) for t in itertools.product(range(n), repeat=b)]

        # one-step unbiasedness, both estimators
        vs = []
        svs = []
        for batch in batches:
            vs.append(estimators.recursive_step(prob, grads[0], xs[0], xs[1], batch))
            svs.append(estimators.svrg_step(prob, xs[0], grads[0], xs[1], batch))
        worst_bias = max(
            worst_bias,
            float(np.linalg.norm(np.mean(vs, axis=0) - grads[1])),
            float(np.linalg.norm(np.mean(svs, axis=0) - grads[1])),
        )

        # exact variance along the 3-step trajectory (enumerate sequences)
        if len(batches) ** 3 <= 5000:
            errs = np.zeros(3)
            errs_svrg = np.zeros(3)
            for seq in itertools.product(batches, repeat=3):
                v = grads[0]
                for jj, batch in enumerate(seq, start=1):
                    v = estimators.recursive_step(prob, v, xs[jj - 1], xs[jj], batch)
                    errs[jj - 1] += np.sum((v - grads[jj]) ** 2)
                for jj, batch in enumerate(seq, start=1):
                    v = estimators.svrg_step(prob, xs[0], grads[0], xs[jj], batch)
                    errs_svrg[jj - 1] += np.sum((v - grads[jj]) ** 2)
            errs /= len(batches) ** 3
            errs_svrg /= len(batches) ** 3
            steps_sq = np.array(
                [np.sum((xs[j] - xs[j - 1]) ** 2) for j in range(1, 4)]
            )
            rec_bound = (L**2 / b) * np.cumsum(steps_sq)
            svrg_bound = (L**2 / b) * np.array(
                [np.sum((xs[j] - xs[0]) ** 2) for j in range(1, 4)]
            )
            bound_ok = bound_ok and bool(
                np.all(errs <= rec_bound + 1e-12)
                and np.all(errs_svrg <= svrg_bound + 1e-12)
            )
    elapsed = time.time() - t0
    ok = worst_bias < 1e-12 and bound_ok and elapsed < 10.0
    report(1, ok, f"exhaustive bias {worst_bias:.2e}, bounds hold, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 2-4: first-order convergence and oracle-complexity scaling

N_C2 = 4096
D_C2 = 20
REG_C2 = 0.01
X0_C2 = 0.4 / math.sqrt(D_C2)  # per-coordinate start offset


def _logistic_x0(d):
    return X0_C2 * np.ones(d)


def test_criterion_02_first_order_convergence():
    t0 = time.time()
    eps = 0.01
    allowance = 50 * (N_C2 + math.sqrt(N_C2) / eps**2)
    hits = 0
    worst = 0
    for seed in range(20):
        inst = ssrgd.make_nonconvex_logistic(N_C2, D_C2, REG_C2, seed)
        cfg = ssrgd.derive_config(inst.spec, eps, sfo_budget=4_000_000, seed=seed)
        out = ssrgd.run_ssrgd(inst.spec, cfg, x0=_logistic_x0(D_C2), full_trace=False)
        sfo = sfo_at_first_fosp(out.trace, eps)
        if sfo is not None and sfo <= allowance:
            hits += 1
            worst = max(worst, sfo)
    elapsed = time.time() - t0
    ok = hits >= 19 and elapsed < 120.0
    report(2, ok, f"{hits}/20 seeds reached eps={eps} (worst SFO {worst} vs "
                  f"allowance {allowance:.0f}), {elapsed:.0f}s")


def _run_sweep(tmp_path, axis, grid, eps, budget, seeds):
    cfg = tmp_path / f"{axis}.ini"
    cfg.write_text(
        f"""
[problem]
kind = nonconvex_logistic
n = {N_C2}
d = {D_C2}
reg = {REG_C2}
seed = 0
x0 = ones
x0_scale = {X0_C2!r}

[optimizer]
kind = ssrgd
order = first
eps = {eps}
sfo_budget = {budget}
trace = epoch

[sweep]
axis = {axis}
grid = {", ".join(str(v) for v in grid)}

[output]
dir = {tmp_path / ("runs_" + axis)}
seeds = {", ".join(str(s) for s in seeds)}
"""
    )
    return run_plan(parse_config(cfg))


def test_criterion_03_eps_scaling(tmp_path):
    t0 = time.time()
    agg = _run_sweep(tmp_path, "eps", [0.1, 0.05, 0.025, 0.0125], 0.0125,
                     3_000_000, range(10))
    rep = scaling_report(agg, "eps")
    elapsed = time.time() - t0
    ok = 1.6 <= rep["slope"] <= 2.4 and not agg["failed"] and elapsed < 600.0
    report(3, ok, f"SFO-to-FOSP vs 1/eps slope {rep['slope']:.3f} "
                  f"(ci [{rep['ci_low']:.2f}, {rep['ci_high']:.2f}]), {elapsed:.0f}s")


def test_criterion_04_n_scaling():
    # datasets are redrawn per seed so the fit averages over the data
    # distribution rather than one dataset's quirks
    t0 = time.time()
    eps = 0.05
    cells = []
    for n in (1024, 4096, 16384):
        for seed in range(10):
            inst = ssrgd.make_nonconvex_logistic(n, D_C2, REG_C2, seed)
            cfg = ssrgd.derive_config(inst.spec, eps,
                                      sfo_budget=2_000_000, seed=seed)
            out = ssrgd.run_ssrgd(inst.spec, cfg, x0=_logistic_x0(D_C2),
                                  full_trace=False)
            cells.append({
                "run_id": f"n{n}s{seed}", "seed": seed, "n": n, "eps": eps,
                "sfo_to_fosp": sfo_at_first_fosp(out.trace, eps),
                "failed": False, "optimizer": "ssrgd", "problem": "logistic",
            })
    assert all(c["sfo_to_fosp"] is not None for c in cells)
    rep = scaling_report({"cells": cells, "failed": []}, "n", subtract_n=True)
    elapsed = time.time() - t0
    ok = 0.3 <= rep["slope"] <= 0.7 and elapsed < 900.0
    report(4, ok, f"(SFO-to-FOSP - n) vs n slope {rep['slope']:.3f} "
                  f"(ci [{rep['ci_low']:.2f}, {rep['ci_high']:.2f}]), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criteria 5-6: saddle escape and the perturbation-cost bound

SADDLE_D = 10
SADDLE_PLANT = 0.3
SADDLE_EPS = 0.05
SADDLE_DELTA = 0.3
SADDLE_LOGFACTOR = 8.0


@pytest.fixture(scope="module")
def saddle_escape_runs():
    inst = ssrgd.make_separable_saddle(
        d=SADDLE_D, n=64, delta_plant=SADDLE_PLANT, noise=0.1, seed=0
    )
    runs = []
    for seed in range(20):
        cfg = ssrgd.derive_config(
            inst.spec, SADDLE_EPS, SADDLE_DELTA, SADDLE_LOGFACTOR,
            sfo_budget=150_000, seed=seed,
        )
        out = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.zeros(SADDLE_D), full_trace=True)
        runs.append((cfg, out))
    return inst, runs


def test_criterion_05_saddle_escape(saddle_escape_runs):
    t0 = time.time()
    inst, runs = saddle_escape_runs
    certified = 0
    for cfg, out in runs:
        # the saddle itself sits exactly on the |lambda_min| = delta boundary,
        # so judge the last trigger point, which post-escape lies in a basin
        it, point = out.sosp_candidates[-1]
        cert = spectral.certify(inst.spec, point, SADDLE_EPS, SADDLE_DELTA)
        certified += cert.is_sosp and np.linalg.norm(point) > 0.2
    # plain gradient descent from the exact saddle never moves
    bk = ssrgd.BaselineKind(kind="gd", step_size=0.2 / inst.spec.lipschitz_grad,
                            max_iters=500)
    gd = ssrgd.run_baseline(bk, inst.spec, 10**6, x0=np.zeros(SADDLE_D))
    gd_moved = float(np.linalg.norm(gd.final_x - np.zeros(SADDLE_D)))
    elapsed = time.time() - t0
    ok = certified >= 18 and gd_moved == 0.0
    report(5, ok, f"{certified}/20 runs certified ({SADDLE_EPS}, {SADDLE_DELTA})-SOSP "
                  f"away from the saddle; GD displacement {gd_moved}, {elapsed:.0f}s")


def test_criterion_06_perturbation_cost_bound(saddle_escape_runs):
    inst, runs = saddle_escape_runs
    L = inst.spec.lipschitz_grad
    events = 0
    violations = 0
    for cfg, out in runs:
        trace = out.trace
        for i, row in enumerate(trace):
            if row.event is not Event.PERTURBATION:
                continue
            trigger = next(
                r for r in reversed(trace[:i])
                if r.event is Event.EPOCH_START and r.iteration == row.iteration
            )
            events += 1
            bound = trigger.f_value + cfg.grad_threshold * cfg.perturb_radius \
                + 0.5 * L * cfg.perturb_radius**2
            if not row.f_value <= bound:
                violations += 1
    ok = events > 0 and violations == 0
    report(6, ok, f"{events} perturbation events, {violations} bound violations")


# ---------------------------------------------------------------------------
# criterion 7: random-stop uniformity


def test_criterion_07_random_stop_uniformity():
    m, trials = 16, 10**5
    rng = core.seeded_rng(77, 0)
    counts = np.zeros(m, dtype=int)
    draws = rng.random((trials, m))
    for row in draws:
        for k in range(1, m + 1):
            if row[k - 1] < 1.0 / (m - k + 1):
                counts[k - 1] += 1
                break
    max_dev = float(np.max(np.abs(counts / trials - 1.0 / m)))
    ok = max_dev < 0.005
    report(7, ok, f"max per-index deviation from 1/{m}: {max_dev:.4f}")


# ---------------------------------------------------------------------------
# criterion 8: coupled two-point experiment


def test_criterion_08_coupled_two_point():
    t0 = time.time()
    inst = ssrgd.make_separable_saddle(d=10, n=64, delta_plant=SADDLE_PLANT,
                                       noise=0.1, seed=0)
    cfg = ssrgd.derive_config(
        inst.spec, SADDLE_EPS, SADDLE_DELTA, SADDLE_LOGFACTOR, seed=0
    )
    rep = diagnostics.run_coupled_experiment(inst, inst.saddle_points[0][0], cfg, 100)
    # control: curvature planted at machine scale, same thresholds
    flat = ssrgd.make_separable_saddle(d=10, n=64, delta_plant=1e-9, noise=0.1, seed=0)
    cfg_flat = ssrgd.derive_config(
        flat.spec, SADDLE_EPS, SADDLE_DELTA, SADDLE_LOGFACTOR, seed=0
    )
    rep_flat = diagnostics.run_coupled_experiment(
        flat, flat.saddle_points[0][0], cfg_flat, 100, check_saddle=False
    )
    coupled_ok = all(p.batch_digest == p.batch_digest_twin for p in rep.pairs)
    elapsed = time.time() - t0
    ok = rep.escape_frequency >= 0.9 and rep_flat.escape_frequency < 0.2 and coupled_ok
    report(8, ok, f"escape frequency {rep.escape_frequency:.2f} at the saddle vs "
                  f"{rep_flat.escape_frequency:.2f} flat control "
                  f"(threshold {rep.travel_threshold:.2e}, window {rep.window}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: localization


def test_criterion_09_localization():
    t0 = time.time()
    inst = ssrgd.make_separable_saddle(d=10, n=64, delta_plant=SADDLE_PLANT,
                                       noise=0.1, seed=0)
    L = inst.spec.lipschitz_grad
    base = ssrgd.derive_config(
        inst.spec, SADDLE_EPS, SADDLE_DELTA, SADDLE_LOGFACTOR,
        sfo_budget=120_000, seed=0,
    )
    eta = 0.95 / (2.0 * L)  # the localization statement needs eta <= 1/(2 C' L)
    cfg = dataclasses.replace(
        base, step_size=eta,
        super_epoch_len=math.ceil(base.logfactor / (eta * SADDLE_DELTA)),
    )
    paths = diagnostics.collect_super_epoch_paths(
        inst, cfg, seeds=range(40), x0=np.zeros(10), max_paths=50
    )
    rep = diagnostics.verify_localization(
        paths, lipschitz_grad=L, step_size=eta
    )
    elapsed = time.time() - t0
    ok = len(paths) >= 50 and rep.pass_fraction >= 0.9
    report(9, ok, f"{len(paths)} super epochs, bound held on "
                  f"{rep.pass_fraction:.0%} of them, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 10: online mode


def test_criterion_10_online_mode():
    t0 = time.time()
    eps, sigma = 0.1, 1.0
    base = ssrgd.make_quadratic(d=10, n=2, seed=0, spread=0.0)  # L = 1, f* = 0
    inst = ssrgd.make_online_stream(base, sigma, seed=7)
    x0 = np.zeros(10)
    x0[0] = math.sqrt(2.0)  # f(x0) = 1, so L * (f(x0) - f*) = 1
    allowance = 20 * (sigma**2 / eps**2 + sigma / eps**3 * 1.0)
    hits = 0
    worst = 0
    for seed in range(20):
        cfg = ssrgd.derive_config(
            inst.spec, eps, sfo_budget=40_000, seed=seed
        )
        checkpoints = []
        def on_step(state, event, checkpoints=checkpoints, m=cfg.epoch_len, b=cfg.minibatch):
            if state.iteration % m == 0:
                # nominal count: anchors charge alike, steps charge b not 2b
                checkpoints.append(
                    (state.sfo_count - state.iteration * b, state.x)
                )
        ssrgd.run_ssrgd(inst.spec, cfg, x0=x0, full_trace=False, step_callback=on_step)
        for nominal, x in checkpoints:
            # out-of-band exact gradient the optimizer never sees
            if np.linalg.norm(base.spec.full_grad(x)) <= eps:
                if nominal <= allowance:
                    hits += 1
                    worst = max(worst, nominal)
                break
    elapsed = time.time() - t0
    ok = hits >= 18 and elapsed < 300.0
    report(10, ok, f"{hits}/20 online runs reached eps={eps} "
                   f"(worst nominal SFO {worst} vs allowance {allowance:.0f}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 11: certification cross-check


def test_criterion_11_certification_crosscheck():
    t0 = time.time()
    hits = 0
    total = 100
    size_rng = np.random.default_rng(4242)
    for case in range(total):
        d = int(size_rng.integers(5, 101))
        M = size_rng.standard_normal((d, d))
        M = 0.5 * (M + M.T)
        inst = ssrgd.make_quadratic(d=d, n=1, seed=0, matrix=M, spread=0.0)
        dense = float(np.linalg.eigvalsh(M)[0])
        est, slack = spectral.lambda_min_power(
            inst.spec, np.zeros(d), iters=800, rng=core.seeded_rng(case, 11)
        )
        hits += abs(est - dense) <= slack
    elapsed = time.time() - t0
    ok = hits >= 95
    report(11, ok, f"power-vs-dense agreement within slack on {hits}/{total} "
                   f"instances, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 12: determinism


def test_criterion_12_determinism(saddle_escape_runs):
    inst, runs = saddle_escape_runs
    cfg, first = runs[3]
    again = ssrgd.run_ssrgd(inst.spec, cfg, x0=np.zeros(SADDLE_D), full_trace=True)
    saddle_same = _trace_to_csv(first.trace) == _trace_to_csv(again.trace)

    log_inst = ssrgd.make_nonconvex_logistic(256, 8, REG_C2, seed=5)
    log_cfg = ssrgd.derive_config(log_inst.spec, 0.05,
                                  sfo_budget=30_000, seed=9)
    a = ssrgd.run_ssrgd(log_inst.spec, log_cfg, x0=_logistic_x0(8))
    b = ssrgd.run_ssrgd(log_inst.spec, log_cfg, x0=_logistic_x0(8))
    logistic_same = _trace_to_csv(a.trace) == _trace_to_csv(b.trace)
    ok = saddle_same and logistic_same
    report(12, ok, f"byte-identical traces on repeat: saddle={saddle_same}, "
                   f"logistic={logistic_same}")
