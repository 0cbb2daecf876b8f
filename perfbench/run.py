"""Benchmark entry point for the ssrgd package.

    python3 perfbench/run.py --workload fs_logistic --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

Runs one workload (or ``all`` of them, each in a fresh process) in a closed
loop: one client in one process issues each operation after the previous
one has finished.  BLAS threads are pinned to 1 in this process and its
children.  Units of work repeat until ``--seconds`` have passed; with
``--trace 1`` untraced and traced units alternate, so the tracer's
overhead is measured in the same run.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``).
A result file with the environment and provenance is written under
``.perfbench_out/results/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT_DIR / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_UNTRACED_UNITS = 3
NAMES = ("fs_logistic", "online_stream", "saddle_certify", "cli_session")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", dest="setup_only",
                   help="build the workload's inputs and exit (times set-up in a fresh process)")
    return p.parse_args(argv)


def git_sha() -> str | None:
    head = ROOT_DIR / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT_DIR / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT_DIR / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "machine": platform.machine(),
        "platform": platform.platform(),
        "seed": seed,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def time_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and normalized wall times of fresh processes that import the
    package, build the workload's inputs and exit; one per repeat."""
    from perfbench.metrics import CAL_SHARE, calibrate, normalized

    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate(CAL_SHARE * (raw[-1] if raw else 0.0))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT_DIR, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}")
        raw.append(seconds)
        norm.append(normalized(seconds, (before + calibrate(CAL_SHARE * seconds)) / 2))
    return raw, norm


def measure(workload, seconds: float, trace: bool):
    """Run units until ``seconds`` have passed; returns (untraced units,
    traced units, per-layer metric dicts of the traced units)."""
    from perfbench import metrics, tracer, workloads

    tr = tracer.Tracer()
    last = [0.0]  # duration of the previous call, which sizes the calibration before the next

    def calibrated(fn):
        before = metrics.calibrate(metrics.CAL_SHARE * last[0])
        t0 = time.perf_counter()
        result = fn()
        last[0] = time.perf_counter() - t0
        return last[0], (before + metrics.calibrate(metrics.CAL_SHARE * last[0])) / 2, result

    def traced(fn):
        def call():
            patcher = tracer.Patcher()
            try:
                tracer.instrument_package(tr, patcher)
                for inst in workload.instances():
                    tracer.instrument_instance(tr, patcher, inst)
                tr.begin(tracer.ROOT)
                try:
                    return fn()
                finally:
                    tr.end()
            finally:
                patcher.restore()

        return calibrated(call)

    fingerprints: dict = {}
    untraced_units, traced_units, layers = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        done = len(untraced_units) >= (1 if trace else MIN_UNTRACED_UNITS)
        if trace:
            done = done and len(traced_units) >= 1
        if done and time.perf_counter() - start >= seconds:
            break
        is_traced = trace and index % 2 == 1
        tr.reset()
        ops = workload.unit(index, traced if is_traced else calibrated)
        for op in ops:
            if op.failure is None:
                ref = fingerprints.setdefault((op.kind, op.key), op.fingerprint)
                if ref != op.fingerprint:
                    op.failure = "output differs from an earlier repeat of the same input"
        if is_traced:
            traced_units.append(ops)
            layers.append(metrics.layer_metrics(tr, ops, workloads.dense_judge))
        else:
            untraced_units.append(ops)
        index += 1
    return untraced_units, traced_units, layers


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(name, args, env, untraced, traced, layers, setup):
    """Print the human-readable lines and return (result, record)."""
    from perfbench import metrics, workloads
    from perfbench.metrics import median, normalized

    raw_setup, norm_setup = setup
    all_ops = [op for ops in untraced + traced for op in ops]
    failures = [op for op in all_ops if op.failure is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = metrics.end_to_end(untraced, norm_setup, peak_rss_mb)
    raw = metrics.end_to_end(untraced, raw_setup, peak_rss_mb, norm=False)
    primary = [op for ops in untraced for op in ops if op.kind == "run" and not math.isnan(op.seconds)]
    n = len(primary)
    counts = {
        "setup_s": f"median of {len(norm_setup)} fresh set-up processes",
        "wall_s": f"median of {len(untraced)} units",
        "run_ms_p50": f"median of {n} operations",
        "us_per_iter": f"median of {len(untraced)} units ({n} operations)",
        "sfo_per_s": f"median of {len(untraced)} units ({n} operations)",
        "peak_rss_mb": "whole process",
    }
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"(closed loop, 1 client, 1 process, BLAS threads "
          f"{env['blas_threads']['OPENBLAS_NUM_THREADS']})")
    ref = median(op.ref for ops in untraced for op in ops)
    print(f"  host speed: calibration pass {ref * 1e3:.4g} ms (nominal "
          f"{metrics.REF_NOMINAL_S * 1e3:g} ms); times below are normalized, raw in brackets")
    for key, unit, _better, _bound in metrics.END_TO_END:
        bracket = f"[{fmt(raw[key])}]" if unit in metrics.TIME_UNITS or key == "sfo_per_s" else ""
        print(f"  {key:<14} {fmt(e2e[key]):>12} {unit:<4} {bracket:<14} {counts[key]}")
    run_ms = [normalized(op.seconds, op.ref) * 1e3 for op in primary]
    t = metrics.tail(run_ms)
    print("  run_ms tail    " + (f"p{t[0]:g} = {t[1]:.6g} ms (n={n})" if t
                                 else f"n/a: {n} operations, 20 needed"))
    extra = {}
    for kind in sorted({op.kind for ops in untraced for op in ops} - {"run"}):
        extra[f"{kind}_ms_p50"] = median(
            normalized(op.seconds, op.ref) * 1e3 for ops in untraced for op in ops if op.kind == kind)
    run_s = sum(run_ms) / 1e3
    if name == "cli_session" and run_s:
        extra["cells_per_s"] = workloads.PLAN_CELLS * n / run_s
    if name == "saddle_certify" and run_s:
        extra["verified_sosp_per_s"] = sum(bool(op.info.get("verified_sosp")) for op in primary) / run_s
    extra["failed_frac"] = len(failures) / max(1, len(all_ops))
    for key, value in extra.items():
        print(f"  {key:<19} {fmt(value):>12}")
    print(f"  checks: {len(all_ops) - len(failures)} passed, {len(failures)} failed "
          f"of {len(all_ops)} operations")
    for reason in sorted({op.failure for op in failures}):
        print(f"    FAILED: {reason}")

    layer = {}
    if traced:
        def unit_time(ops):
            return sum(normalized(op.seconds, op.ref) for op in ops)

        layer = {key: median(d[key] for d in layers) for key in layers[0]}
        layer["trace_overhead"] = median(map(unit_time, traced)) / median(map(unit_time, untraced)) - 1.0
        print(f"  per-layer metrics: median of {len(traced)} traced units "
              f"(untraced units: {len(untraced)})")
        for key, unit, _better in metrics.PER_LAYER:
            print(f"    {key:<46} {fmt(layer[key]):>12} {unit}")

    chosen = [m[0] for m in (metrics.PER_LAYER if args.trace else metrics.END_TO_END)]
    values = layer if args.trace else e2e
    result = {
        "correct": not failures,
        "attempted": len(all_ops),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": metrics.UNITS[k]} for k in chosen},
    }
    record = {
        "workload": name,
        "environment": env,
        "args": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace},
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "calibration_pass_s": ref,
        "reported": extra,
        "per_layer": layer,
        "setup_times_s": {"raw": raw_setup, "normalized": norm_setup},
        "failures": [{"kind": op.kind, "key": op.key, "reason": op.failure} for op in failures],
        "operations": [dataclasses.asdict(op) for op in all_ops],
        "result": result,
    }
    return result, record


def run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    rows = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT_DIR, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exited {proc.returncode} without a result")
            return 1
        rows[name] = json.loads(lines[-1])
    print("summary:")
    for name, res in rows.items():
        print(f"  {name:<15} checks {res['attempted'] - res['failed']}/{res['attempted']} passed"
              f"  correct={res['correct']}")
    print(json.dumps({"workloads": rows}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT_DIR / "src" / "ssrgd" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT_DIR / 'src' / 'ssrgd'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["SSRGD_WORKERS"] = "1"
    sys.path[:0] = [str(ROOT_DIR / "src"), str(ROOT_DIR)]
    if args.workload == "all":
        return run_all(args)

    import ssrgd
    from perfbench import workloads

    if Path(ssrgd.__file__).resolve().parent != ROOT_DIR / "src" / "ssrgd":
        print(f"perfbench: imported ssrgd from {ssrgd.__file__}, not from src/", file=sys.stderr)
        return 2
    workdir = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    if args.setup_only:
        workloads.build(args.workload, args.seed, workdir).close()
        return 0

    env = environment(args.seed)
    setup = time_setup(args.workload, args.seed)
    workload = workloads.build(args.workload, args.seed, workdir)
    try:
        workload.warmup()
        untraced, traced, layers = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    result, record = report(args.workload, args, env, untraced, traced, layers, setup)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"  result file: {path.relative_to(ROOT_DIR)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
