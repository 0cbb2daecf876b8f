"""Fixed-seed parity fingerprint of the optimizer, the baselines, the
diagnostics and a plan.

Prints one sha256 per run and a combined sha256 over all of them.  A change
that claims to keep behaviour bit-identical prints the same lines as its
parent; a change that moves one run shows which.  Run it in each checkout:

    python3 tools/fingerprint.py             # every run
    python3 tools/fingerprint.py svrg diag   # runs whose name starts so
    python3 tools/fingerprint.py --paths     # every run, f values left out
    python3 tools/fingerprint.py --pin > FINGERPRINTS.txt   # both views, with the build

``--paths`` digests the same runs without their f values: final points, SFO
counts, events, gradient norms, candidates and certificates stay in, every
trace f, ``f_final``, f-valued report field and the f chart go.  A change
that moves f only at rounding level prints the parent's ``--paths`` lines,
which shows that no path moved.

``FINGERPRINTS.txt`` at the repository root pins both views, with the numpy
version and BLAS build they were made on; ``tests/test_tools.py`` checks
that they reproduce.  The package is imported from the ``src/`` next to this
script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ssrgd import algorithm, baselines, core, diagnostics, harness, problems, spectral  # noqa: E402

# report and summary fields that hold f values or differences of them
F_KEYS = frozenset({
    "f_final", "f_start", "mean_f_end", "stderr_f_end", "svrg_mean_f_end", "svrg_gap", "max_fdrop",
})
F_CHART = "trace_f_vs_sfo.svg"


def without_f(obj):
    """JSON-like ``obj`` with every ``F_KEYS`` entry taken out, at any depth."""
    if isinstance(obj, dict):
        return {k: without_f(v) for k, v in obj.items() if k not in F_KEYS}
    if isinstance(obj, list):
        return [without_f(v) for v in obj]
    return obj


def outcome_digest(out, paths: bool = False) -> str:
    """Every trace row, the final point, both SFO counts, the termination,
    the super-epoch candidates and the certificate; with ``paths``, the
    rows' f values are left out."""
    h = hashlib.sha256()
    for r in out.trace:
        f = "" if paths else f"{r.f_value!r},"
        h.update(f"{r.iteration},{f}{r.grad_norm!r},{r.sfo_count},{r.event.value}\n".encode())
    h.update(np.asarray(out.final_x, dtype=float).tobytes())
    h.update(f"{out.sfo_raw},{out.sfo_nominal},{out.termination.value}\n".encode())
    for it, point in out.sosp_candidates:
        h.update(f"{it}:".encode() + np.asarray(point, dtype=float).tobytes())
    h.update(repr(out.certificate).encode())
    return h.hexdigest()


def _ssrgd(inst, eps, delta=None, logfactor=1.0, *, budget, seed, x0, full_trace, certify=False):
    spec = inst.spec
    cfg = algorithm.derive_config(spec, eps, delta, logfactor, sfo_budget=budget, seed=seed)
    certifier = None
    if certify:
        judge = inst.base.spec if inst.base is not None else spec
        def certifier(x):
            return spectral.certify(judge, x, eps, delta)
    return algorithm.run_ssrgd(spec, cfg, x0=x0, certifier=certifier, full_trace=full_trace)


def _baseline(inst, kind, *, budget, seed, x0, full_trace=True, **params):
    """A baseline section's run at eps 0.05, set up as ``harness.run_cell`` sets it up."""
    resolved = harness.resolve_settings({"kind": kind, "sfo_budget": budget, **params}, inst.spec, 0.05)
    if kind == "svrg":
        cfg = harness.build_run_config(inst.spec, seed, *resolved)
        return algorithm.run_ssrgd(inst.spec, cfg, x0=x0, full_trace=full_trace)
    bk = harness._baseline_from_params(inst.spec, seed, *resolved)
    return baselines.run_baseline(bk, inst.spec, budget, x0=x0)


def _digest(*parts, paths: bool = False) -> str:
    """sha256 over arrays (their float64 bytes) and anything else (its JSON,
    without f values when ``paths``)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(json.dumps(without_f(part) if paths else part, sort_keys=True).encode())
    return h.hexdigest()


def _coupled(saddle, paths):
    cfg = algorithm.derive_config(saddle.spec, 0.05, 0.3, 8.0, sfo_budget=10**9, seed=18)
    rep = diagnostics.run_coupled_experiment(saddle, saddle.saddle_points[0][0], cfg, 3)
    return _digest(rep.to_dict(), *(
        part for p in rep.pairs
        for part in (p.x_traj, p.x_prime_traj, p.w_norms, [p.batch_digest, p.batch_digest_twin])
    ), paths=paths)


def _epoch_decrease(logistic, paths):
    cfg = algorithm.derive_config(logistic.spec, 0.05, seed=19)
    rep = diagnostics.verify_epoch_decrease(logistic.spec, cfg, 20, x0=0.5 * np.ones(logistic.spec.d))
    return _digest(rep.to_dict(), paths=paths)


def _localization(saddle, paths):
    cfg = diagnostics.localization_config(
        saddle.spec, algorithm.derive_config(saddle.spec, 0.05, 0.3, 8.0, sfo_budget=8_000, seed=20)
    )
    runs = diagnostics.collect_super_epoch_paths(
        saddle, cfg, seeds=range(20, 23), x0=np.zeros(saddle.spec.d)
    )
    return _digest(*(part for p in runs
                     for part in ([p.start_iter, p.complete], p.xs, None if paths else p.fs)))


def _variance(paths):
    inst = problems.make_quadratic(d=2, n=3, seed=21, spread=0.6)
    steps = np.random.default_rng(21).standard_normal((4, 2))
    xs = np.cumsum(0.3 * steps, axis=0)
    reports = [
        diagnostics.verify_variance_bound(
            inst.spec, xs, 1, reps, core.seeded_rng(21, 3), estimator=estimator
        ).to_dict()
        for estimator in ("recursive", "svrg")
        for reps in (None, 500)
    ]
    return _digest(reports, paths=paths)


PLAN = """\
[problem:logistic]
kind = nonconvex_logistic
n = 64
d = 6
seed = 2

[problem:saddle]
kind = separable_saddle
d = 6
n = 16
delta_plant = 0.3
x0 = saddle

[optimizer:first]
kind = ssrgd
order = first
eps = 0.05
sfo_budget = 4000
trace = full

[optimizer:second]
kind = ssrgd
order = second
eps = 0.05
delta = 0.3
logfactor = 8
sfo_budget = 4000
trace = epoch

[optimizer:svrg]
kind = svrg
eps = 0.05
sfo_budget = 4000

[output]
dir = {out}
seeds = 0, 1
plot = true
"""


def _plan_bytes(path: Path, data: bytes) -> bytes | None:
    """A plan file's bytes without f values: ``F_KEYS`` out of its JSON, the
    ``f`` column out of its CSV; the f chart is left out whole (None)."""
    if path.suffix == ".json":
        return json.dumps(without_f(json.loads(data)), sort_keys=True).encode()
    if path.suffix == ".csv":
        col = harness.CSV_HEADER.index("f")
        return b"\n".join(
            b",".join(v for i, v in enumerate(line.split(b",")) if i != col)
            for line in data.split(b"\n")
        )
    return None if path.name == F_CHART else data


def _plan(paths: bool = False) -> dict[str, str]:
    """Bytes of every file an ``ssrgd run`` plan writes, one digest per suffix,
    from a new temporary directory each call.  With ``paths`` each file goes
    through ``_plan_bytes``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "runs"
        config = Path(tmp) / "plan.ini"
        config.write_text(PLAN.format(out=root), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = harness.main(["run", str(config), "--workers", "1"])
        digests = {}
        for p in sorted(p for p in root.rglob("*") if p.is_file()):
            h = digests.setdefault(f"plan/*{p.suffix}", hashlib.sha256(f"exit {code}\n".encode()))
            data = p.read_bytes()
            if paths:
                data = _plan_bytes(p, data)
            if data is not None:
                h.update(p.relative_to(root).as_posix().encode() + b"\0" + data)
        return {name: h.hexdigest() for name, h in digests.items()}


def _runs():
    """(name, zero-argument run) pairs in print order."""
    logistic = problems.make_nonconvex_logistic(n=256, d=10, reg=0.01, seed=1)
    saddle = problems.make_separable_saddle(d=6, n=16, delta_plant=0.3, noise=0.1, seed=0)
    online_logistic = problems.make_online_stream(logistic, 0.5, seed=3)
    online_saddle = problems.make_online_stream(saddle, 0.05, seed=3)
    xl, xs = 0.5 * np.ones(10), np.zeros(6)
    return [
        ("ssrgd/fs/first/full", lambda: _ssrgd(
            logistic, 0.05, budget=20_000, seed=4, x0=xl, full_trace=True)),
        ("ssrgd/fs/first/epoch", lambda: _ssrgd(
            logistic, 0.05, budget=20_000, seed=5, x0=xl, full_trace=False)),
        ("ssrgd/fs/second/full", lambda: _ssrgd(
            saddle, 0.05, 0.3, 8.0, budget=20_000, seed=6, x0=xs, full_trace=True)),
        ("ssrgd/fs/second/certified", lambda: _ssrgd(
            saddle, 0.05, 0.2, 8.0, budget=40_000, seed=7, x0=xs, full_trace=False,
            certify=True)),
        ("ssrgd/online/first/full", lambda: _ssrgd(
            online_logistic, 0.1, budget=10_000, seed=8, x0=xl, full_trace=True)),
        ("ssrgd/online/first/epoch", lambda: _ssrgd(
            online_logistic, 0.1, budget=10_000, seed=9, x0=xl, full_trace=False)),
        ("ssrgd/online/second/epoch", lambda: _ssrgd(
            online_saddle, 0.05, 0.3, 8.0, budget=40_000, seed=10, x0=xs, full_trace=False)),
        ("ssrgd/online/second/certified", lambda: _ssrgd(
            online_saddle, 0.05, 0.2, 8.0, budget=60_000, seed=11, x0=xs, full_trace=False,
            certify=True)),
        ("gd/logistic", lambda: _baseline(logistic, "gd", budget=20_000, seed=12, x0=xl)),
        ("perturbed_gd/saddle", lambda: _baseline(
            saddle, "perturbed_gd", budget=4_000, seed=13, x0=xs, delta=0.3)),
        ("sgd/logistic", lambda: _baseline(
            logistic, "sgd", budget=4_000, seed=14, x0=xl, minibatch=8, eval_every=20)),
        ("sgd/online", lambda: _baseline(
            online_logistic, "sgd", budget=4_000, seed=15, x0=xl, minibatch=8, eval_every=20)),
        ("svrg/logistic/full", lambda: _baseline(logistic, "svrg", budget=8_000, seed=16, x0=xl)),
        ("svrg/saddle/epoch", lambda: _baseline(
            saddle, "svrg", budget=4_000, seed=17, x0=xs, full_trace=False)),
    ]


def _diagnostics(paths):
    """(name, zero-argument digest) pairs for the diagnostics' own loops."""
    saddle = problems.make_separable_saddle(d=6, n=16, delta_plant=0.3, noise=0.1, seed=0)
    logistic = problems.make_nonconvex_logistic(n=64, d=6, reg=0.01, seed=1)
    return [
        ("diag/coupled", lambda: _coupled(saddle, paths)),
        ("diag/epoch_decrease", lambda: _epoch_decrease(logistic, paths)),
        ("diag/localization", lambda: _localization(saddle, paths)),
        ("diag/variance", lambda: _variance(paths)),
    ]


def fingerprint(prefixes=(), paths: bool = False) -> list[str]:
    """``name digest`` lines for the selected runs, then ``combined digest``;
    ``paths`` leaves every f value out."""
    def wanted(name):
        return not prefixes or any(name.startswith(p) for p in prefixes)

    lines = [f"{name} {outcome_digest(run(), paths)}" for name, run in _runs() if wanted(name)]
    lines += [f"{name} {digest()}" for name, digest in _diagnostics(paths) if wanted(name)]
    if wanted("plan"):
        lines += [f"{name} {digest}" for name, digest in _plan(paths).items()]
    combined = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines + [f"combined {combined}"]


def build() -> list[str]:
    """The numpy version and the BLAS build string, one line each."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", blas.get("version", "unknown"))
    return [f"numpy {np.__version__}", f"blas {blas['name']} {' '.join(config.split())}"]


def pinned() -> list[str]:
    """The lines of ``FINGERPRINTS.txt``: the build, then both views."""
    return [
        "# python3 tools/fingerprint.py --pin > FINGERPRINTS.txt",
        *build(), "[full]", *fingerprint(), "[paths]", *fingerprint(paths=True),
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("prefixes", nargs="*", help="print only runs whose name starts so")
    p.add_argument("--paths", action="store_true", help="leave every f value out")
    p.add_argument("--pin", action="store_true",
                   help="print the build and every run in both views (FINGERPRINTS.txt)")
    args = p.parse_args(argv)
    if args.pin and (args.prefixes or args.paths):
        p.error("--pin prints every run in both views; it takes no other argument")
    lines = pinned() if args.pin else fingerprint(args.prefixes, args.paths)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
