"""Metric names, units and how each is computed.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` declares;
a test keeps the two in step.  End-to-end metrics come from untraced units,
per-layer metrics from traced units (one value per traced unit, reported as
the median over the traced units of a run).

Timings are host-speed normalized.  On a shared machine the same code runs
up to about 1.5 times slower for tens of seconds at a time, so raw wall
times of two runs of one commit can differ by more than any useful bound.
Each timed call is therefore bracketed by two calibrations, each the
median of passes of a fixed loop (``calibration_pass``) that mixes the
package's hot-path ingredients: a small matrix-vector product, an ``exp``
over its result, a short Python loop and the float formatting of trace
output.  A pass takes about 5 ms, and its time swings by a third from one
pass to the next, so each calibration runs for ``CAL_SHARE`` of the call's
duration (at least three passes).  The call's time is scaled by
``REF_NOMINAL_S`` / (mean of the two calibrations): the result is in
seconds on a host where one pass takes ``REF_NOMINAL_S``.  The loop is
benchmark code, so a change to the package moves the normalized time
exactly as much as the raw time at a fixed host speed.  Raw times stay in
the result file.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from ssrgd.core import Event

from .tracer import ROOT

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("run_ms_p50", "ms", "lower", 0.25),
    ("us_per_iter", "us", "lower", 0.25),
    ("sfo_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def _fn(span, *kinds):
    units = {
        "calls": ("count", "lower"),
        "us_per_call": ("us", "lower"),
        "ms_per_call": ("ms", "lower"),
        "self_share": ("ratio", "lower"),
        "rows": ("count", "lower"),
        "ms": ("ms", "lower"),
    }
    return [(f"{span}.{k}",) + units[k] for k in kinds]


# (name, unit, better)
PER_LAYER = [
    *_fn("core.sample_minibatch", "calls", "us_per_call", "self_share"),
    *_fn("core.ensure_finite", "calls", "us_per_call", "self_share"),
    *_fn("core.sample_uniform_ball", "calls"),
    *_fn("estimators.recursive_step", "calls", "us_per_call", "self_share"),
    *_fn("estimators.component_gradients", "calls", "rows", "self_share"),
    *_fn("estimators.full_gradient", "calls", "us_per_call"),
    *_fn("estimators.large_batch_gradient", "calls", "us_per_call"),
    *_fn("estimators.svrg_step", "calls"),
    ("estimators.nominal_per_raw", "ratio", "higher"),
    *_fn("problems.component_grad_batch", "calls", "rows"),
    ("problems.component_grad_batch.us_per_row", "us", "lower"),
    *_fn("problems.component_grad_batch", "self_share"),
    *_fn("problems.full_grad", "calls", "us_per_call"),
    *_fn("problems.value", "calls"),
    ("problems.value.per_iter", "calls/iter", "lower"),
    *_fn("problems.value", "us_per_call", "self_share"),
    *_fn("problems.hvp", "calls", "us_per_call"),
    *_fn("algorithm.run_ssrgd", "self_share"),
    ("algorithm.epochs", "count", "lower"),
    ("algorithm.iters_per_epoch", "iter/epoch", "higher"),
    *_fn("algorithm.random_stop_decision", "calls"),
    ("algorithm.perturbations", "count", "lower"),
    ("algorithm.super_epoch_fdecrease", "count", "higher"),
    ("algorithm.super_epoch_timeout", "count", "lower"),
    ("algorithm.sfo_to_eps", "sfo", "lower"),
    *_fn("baselines.run_baseline", "calls", "ms_per_call", "self_share"),
    *_fn("spectral.certify", "calls", "us_per_call", "self_share"),
    ("spectral.certify.accept_ratio", "ratio", "higher"),
    ("spectral.certify.overclaims", "count", "lower"),
    *_fn("spectral.lambda_min_power", "calls"),
    *_fn("spectral.assemble_hessian", "calls"),
    *_fn("diagnostics.run_coupled_experiment", "ms", "self_share"),
    *_fn("harness.parse_config", "ms"),
    *_fn("harness.build_problem", "calls", "ms_per_call"),
    *_fn("harness.run_cell", "calls", "self_share"),
    *_fn("harness.run_plan", "self_share"),
    *_fn("harness.read_trace_csv", "ms"),
    *_fn("harness.emit_plots", "ms"),
    ("harness.bytes_written", "B", "lower"),
    ("harness.files_written", "count", "lower"),
    *_fn("svgplot.line_chart", "calls", "ms_per_call"),
    ("trace_overhead", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
TIME_UNITS = ("s", "ms", "us")

REF_NOMINAL_S = 0.005
CALIBRATION_STEPS = 500
_CAL_A = np.linspace(-1.0, 1.0, 64 * 20).reshape(64, 20)
_CAL_W = np.ones(20)


def calibration_pass() -> float:
    """Seconds taken by a fixed loop: the yardstick for host speed."""
    t0 = time.perf_counter()
    acc = 0.0
    rows = []
    for i in range(CALIBRATION_STEPS):
        z = _CAL_A @ _CAL_W
        acc += float(np.exp(-z).sum())
        for j in range(10):
            acc += j * 0.5
        rows.append(f"{i},{acc!r},{z[3]!r}")
        if len(rows) > 50:
            rows.clear()
    return time.perf_counter() - t0


CAL_SHARE = 0.05


def calibrate(budget_s: float = 0.0) -> float:
    """Median of calibration passes run for ``budget_s`` seconds, at least three."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < 3 or time.perf_counter() - t0 < budget_s:
        passes.append(calibration_pass())
    return statistics.median(passes)


def normalized(seconds: float, ref: float) -> float:
    """``seconds`` measured while a calibration pass took ``ref``, rescaled
    to a host where one pass takes ``REF_NOMINAL_S``."""
    return seconds * REF_NOMINAL_S / ref


def median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def tail(values) -> tuple[float, float] | None:
    """(percentile, value) for the highest of p99.9/p99/p95/p90/p75/p50
    with at least ten samples above it, or None when there are too few."""
    values = sorted(v for v in values if not math.isnan(v))
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        k = math.ceil(len(values) * p / 100.0) - 1
        if k >= 0 and len(values) - 1 - k >= 10:
            return p, values[k]
    return None


def end_to_end(units: list, setup_times: list[float], peak_rss_mb: float, norm=True) -> dict:
    """End-to-end metrics from untraced units, each a list of ``Op``;
    ``setup_times`` are already normalized.  ``norm=False`` gives raw times.

    Per-iteration and per-SFO rates are ratios of sums over a unit's runs,
    so runs with more or fewer iterations weigh in by their size."""

    def t(op):
        return normalized(op.seconds, op.ref) if norm else op.seconds

    def runs(ops):
        return [op for op in ops if op.kind == "run" and not math.isnan(op.seconds)]

    return {
        "setup_s": median(setup_times),
        "wall_s": median(sum(t(op) for op in ops) for ops in units),
        "run_ms_p50": median(t(op) * 1e3 for ops in units for op in runs(ops)),
        "us_per_iter": median(
            sum(map(t, runs(ops))) / sum(op.iters for op in runs(ops)) * 1e6 for ops in units
        ),
        "sfo_per_s": median(
            sum(op.sfo for op in runs(ops)) / sum(map(t, runs(ops))) for ops in units
        ),
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def layer_metrics(tracer, ops, judge) -> dict:
    """Per-layer metrics of one traced unit; times are normalized with the
    median calibration pass of the unit's operations.

    ``judge(spec, x, eps, delta)`` re-checks an accepted certificate against
    dense eigenvalues; it runs after the tracer's patches are restored.
    """
    calls, total, own = tracer.calls, tracer.total, tracer.self_time
    wall = total[ROOT]
    out = {}
    for name, _unit, _better in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls[span]
        elif kind == "us_per_call":
            out[name] = _ratio(total[span], calls[span]) * 1e6
        elif kind == "ms_per_call":
            out[name] = _ratio(total[span], calls[span]) * 1e3
        elif kind == "ms":
            out[name] = total[span] * 1e3
        elif kind == "self_share":
            out[name] = _ratio(own[span], wall)
        elif kind == "rows":
            out[name] = tracer.rows[span]

    batch = "problems.component_grad_batch"
    out[f"{batch}.us_per_row"] = _ratio(total[batch], tracer.rows[batch]) * 1e6

    runs = tracer.kept["algorithm.run_ssrgd"]
    events = [r.event for _, _, o in runs for r in o.trace]
    epochs = events.count(Event.EPOCH_START)
    iters = tracer.edges[("algorithm.run_ssrgd", "core.sample_minibatch")]
    out["algorithm.epochs"] = epochs
    out["algorithm.iters_per_epoch"] = _ratio(iters, epochs)
    out["algorithm.perturbations"] = events.count(Event.PERTURBATION)
    out["algorithm.super_epoch_fdecrease"] = events.count(Event.SUPER_EPOCH_END_FDECREASE)
    out["algorithm.super_epoch_timeout"] = events.count(Event.SUPER_EPOCH_END_TIMEOUT)
    out["problems.value.per_iter"] = _ratio(
        tracer.edges[("algorithm.run_ssrgd", "problems.value")], iters
    )
    to_eps = []
    for args, kwargs, o in runs:
        eps = _arg(args, kwargs, 1, "cfg").eps
        hit = [r.sfo_count for r in o.trace if r.grad_norm is not None and r.grad_norm <= eps]
        if hit:
            to_eps.append(hit[0])
    out["algorithm.sfo_to_eps"] = statistics.median(to_eps) if to_eps else 0
    out["estimators.nominal_per_raw"] = _ratio(
        sum(o.sfo_nominal for _, _, o in runs), sum(o.sfo_raw for _, _, o in runs)
    )

    certs = tracer.kept["spectral.certify"]
    accepted = [
        [_arg(args, kwargs, i, name) for i, name in enumerate(("problem", "x", "eps", "delta"))]
        for args, kwargs, cert in certs if cert.is_sosp
    ]
    out["spectral.certify.accept_ratio"] = _ratio(len(accepted), len(certs))
    out["spectral.certify.overclaims"] = sum(not judge(*call)[0] for call in accepted)

    out["harness.bytes_written"] = sum(op.info.get("bytes_written", 0) for op in ops)
    out["harness.files_written"] = sum(op.info.get("files_written", 0) for op in ops)
    scale = normalized(1.0, median(op.ref for op in ops))
    return {k: v * scale if UNITS[k] in TIME_UNITS else v for k, v in out.items()}
