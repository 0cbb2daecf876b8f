"""Tests of the benchmark itself: span arithmetic, patch restoration, and
agreement between the printed metric names and BENCHMARK.json."""

import argparse
import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import metrics, run, tracer, workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_synthetic_spans():
    t = tracer.Tracer()
    # A [0, 10] holds B [1, 5] (which holds C [2, 4]) and B [6, 7]
    t.begin("A", 0.0)
    t.begin("B", 1.0)
    t.begin("C", 2.0)
    t.end(4.0)
    t.end(5.0)
    t.begin("B", 6.0)
    t.end(7.0)
    t.end(10.0)
    assert t.calls == {"A": 1, "B": 2, "C": 1}
    assert t.total == {"A": 10.0, "B": 5.0, "C": 2.0}
    assert t.self_time == {"A": 5.0, "B": 3.0, "C": 2.0}
    assert t.edges == {(None, "A"): 1, ("A", "B"): 2, ("B", "C"): 1}


def test_wrapped_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def boom():
        clock.now += 3.0
        raise ValueError("boom")

    wrapped = t.wrap("outer.boom", boom)
    t.begin(tracer.ROOT, 0.0)
    with pytest.raises(ValueError):
        wrapped()
    clock.now = 4.0
    t.end()
    assert t.total["outer.boom"] == 3.0
    assert t.self_time[tracer.ROOT] == 1.0


class TinyLogistic(workloads.FsLogistic):
    """fs_logistic at a budget small enough for a unit test."""

    EPS = 1.0
    BUDGET = 20_000


def _package_attributes():
    out = {}
    for module_name, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"ssrgd.{module_name}")
        for name in names:
            out[(module_name, name)] = getattr(module, name)
    return out


def test_patches_are_restored_after_a_traced_run():
    before = _package_attributes()
    wl = TinyLogistic(0)
    spec = wl.instance.spec
    fields = {f: getattr(spec, f) for f in tracer.SPEC_FIELDS}
    untraced, traced, layers = run.measure(wl, 0.0, trace=True)
    assert len(untraced) == 1 and len(traced) == 1
    assert all(op.failure is None for ops in untraced + traced for op in ops)
    assert layers[0]["estimators.recursive_step.calls"] > 0
    assert layers[0]["problems.component_grad_batch.calls"] > 0
    after = _package_attributes()
    assert all(after[k] is v for k, v in before.items())
    assert all(getattr(spec, f) is fn for f, fn in fields.items())
    assert not any(hasattr(v, "perfbench_span") for v in after.values())


def test_same_seed_gives_identical_outputs():
    def fingerprints(seed):
        untraced, _, _ = run.measure(TinyLogistic(seed), 0.0, trace=False)
        return {op.key: (op.fingerprint, op.sfo, op.iters) for op in untraced[0]}

    assert fingerprints(3) == fingerprints(3)
    assert fingerprints(3) != fingerprints(4)


class Raising(workloads.Workload):
    """One operation that sees the patched package, then raises."""

    name = "raising"

    def unit(self, index, timed):
        def boom():
            from ssrgd import core

            assert hasattr(core.sample_minibatch, "perfbench_span")
            raise RuntimeError("operation failed")

        return [self.op("run", "boom", timed, boom, lambda result, op: None)]


def test_patches_are_restored_when_a_traced_operation_raises():
    before = _package_attributes()
    untraced, traced, _ = run.measure(Raising(), 0.0, trace=True)
    assert traced[0][0].failure == "RuntimeError: operation failed"
    assert _package_attributes() == before


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_declares_the_metrics_the_code_computes():
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]]
    assert len(names) == len(set(names))
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER
    ]
    for w in bench["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    wl = TinyLogistic(0)
    untraced, traced, layers = run.measure(wl, 0.0, trace=bool(trace))
    args = argparse.Namespace(seed=0, seconds=0.0, trace=trace)
    env = {"blas_threads": {"OPENBLAS_NUM_THREADS": "1"}}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result, _ = run.report("fs_logistic", args, env, untraced, traced, layers,
                               ([0.3], [0.3]))
    printed = buf.getvalue()
    section = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in _benchmark_json()[section]]
    assert list(result["metrics"]) == names
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in _benchmark_json()[section]:
        assert m["name"] in printed
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(result["metrics"][m["name"]]["value"])


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert metrics.tail(range(19)) is None
    assert metrics.tail(range(20)) == (50.0, 9)
    assert metrics.tail(range(100)) == (90.0, 89)
