"""The benchmark's workloads.

Each workload builds its inputs from one integer seed in ``__init__`` (the
set-up), then runs *units* of work: a fixed list of operations, each an
optimizer run or one CLI command, issued one after another by a single
client (closed loop).  ``unit(index, timed)`` runs one unit; ``timed(fn)``
is supplied by the runner, times the call and, in a traced unit, installs
the tracer around it.  Every operation's output is checked after its timed
call; a failed check, an exception or a nonzero exit code marks the
operation failed.

The program sees only the generated inputs: problem sizes and tolerances
are fixed per workload, and the seed picks the problem data and the
optimizer seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ssrgd import algorithm, harness, problems, spectral
from ssrgd.algorithm import Termination
from ssrgd.core import Event, Mode

RUNS_PER_UNIT = 8


@dataclass
class Op:
    """One operation's timing and check outcome.

    ``key`` names the input; repeats of the same key must produce the same
    ``fingerprint`` (the determinism check).  ``ref`` is the calibration
    pass time measured around the call (see ``metrics``).  ``iters`` and
    ``sfo`` are the optimizer iterations and raw SFO count the operation
    performed.
    """

    kind: str
    key: str
    seconds: float
    ref: float = float("nan")
    failure: str | None = None
    iters: int = 0
    sfo: int = 0
    fingerprint: str = ""
    info: dict = field(default_factory=dict)


class Workload:
    name = ""
    why = ""

    def instances(self) -> list:
        """Problem instances built at set-up, whose oracles a traced unit wraps."""
        return []

    def warmup(self) -> None:
        """One untimed operation, so lazy imports and caches are warm."""

    def unit(self, index: int, timed) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove files the workload wrote."""

    @staticmethod
    def op(kind: str, key: str, timed, fn, check) -> Op:
        try:
            seconds, ref, result = timed(fn)
        except Exception as exc:  # an operation's failure is a measurement
            return Op(kind, key, float("nan"), failure=f"{type(exc).__name__}: {exc}")
        op = Op(kind, key, seconds, ref)
        try:
            check(result, op)
        except Exception as exc:
            op.failure = f"check raised {type(exc).__name__}: {exc}"
        return op


# ---------------------------------------------------------------------------
# optimizer workloads


def outcome_digest(out) -> str:
    h = hashlib.sha256()
    for r in out.trace:
        h.update(f"{r.iteration},{r.f_value!r},{r.grad_norm!r},{r.sfo_count},{r.event.value}\n".encode())
    h.update(np.asarray(out.final_x, dtype=float).tobytes())
    h.update(f"{out.sfo_raw},{out.sfo_nominal},{out.termination.value}".encode())
    return h.hexdigest()


class OptimizerWorkload(Workload):
    """``RUNS_PER_UNIT`` run_ssrgd calls per unit, one per optimizer seed;
    the order rotates from unit to unit."""

    certify = False

    def __init__(self, seed: int):
        self.seed = seed
        self.run_seeds = [seed * RUNS_PER_UNIT + k for k in range(RUNS_PER_UNIT)]
        self.instance = self.build()
        self.cfgs = [self.config(s) for s in self.run_seeds]

    def instances(self):
        return [self.instance]

    def solve(self, cfg):
        spec = self.instance.spec
        certifier = None
        if self.certify:
            def certifier(x):
                return spectral.certify(spec, x, cfg.eps, cfg.delta)
        return algorithm.run_ssrgd(
            spec, cfg, x0=self.x0, certifier=certifier, full_trace=False
        )

    def anchor_cost(self, cfg) -> int:
        spec = self.instance.spec
        return cfg.large_batch if spec.mode is Mode.ONLINE else int(spec.n)

    def account(self, cfg, out, op: Op) -> None:
        """Split the raw SFO count into anchors and recursive steps; the
        split must be exact, and gives the iteration count."""
        anchors = sum(r.event in (Event.EPOCH_START, Event.PERTURBATION) for r in out.trace)
        anchor_sfo = anchors * self.anchor_cost(cfg)
        inner, rest = divmod(out.sfo_raw - anchor_sfo, 2 * cfg.minibatch)
        op.iters, op.sfo = inner, out.sfo_raw
        op.fingerprint = outcome_digest(out)
        if rest or inner < 0 or out.sfo_nominal != anchor_sfo + inner * cfg.minibatch:
            op.failure = (
                f"SFO count raw={out.sfo_raw} nominal={out.sfo_nominal} does not split "
                f"into {anchors} anchors and steps of {cfg.minibatch}"
            )

    def warmup(self) -> None:
        self.solve(self.cfgs[0])

    def unit(self, index, timed):
        k = index % len(self.cfgs)
        ops = []
        for cfg in self.cfgs[k:] + self.cfgs[:k]:
            def check(out, op, cfg=cfg):
                self.account(cfg, out, op)
                if op.failure is None:
                    self.check(cfg, out, op)
            ops.append(self.op("run", str(cfg.seed), timed, lambda cfg=cfg: self.solve(cfg), check))
        return ops


class FsLogistic(OptimizerWorkload):
    name = "fs_logistic"
    why = ("first-order finite-sum SSRGD: minibatch recursive steps, sampling and "
           "finiteness checks; no certification")
    EPS = 0.01
    BUDGET = 1_000_000

    def build(self):
        self.x0 = 0.5 * np.ones(20)
        return problems.make_nonconvex_logistic(n=4096, d=20, reg=0.01, seed=self.seed)

    def config(self, run_seed):
        return algorithm.derive_config_first_order(
            self.instance.spec, self.EPS, sfo_budget=self.BUDGET, seed=run_seed
        )

    def check(self, cfg, out, op):
        reached = [r.sfo_count for r in out.trace
                   if r.grad_norm is not None and r.grad_norm <= cfg.eps]
        if not reached:
            op.failure = f"gradient norm never reached eps={cfg.eps} within {cfg.sfo_budget} SFO"
        else:
            op.info["sfo_to_eps"] = reached[0]


class OnlineStream(OptimizerWorkload):
    name = "online_stream"
    why = ("online first-order SSRGD: the hashed-noise batch oracle and the "
           "large-batch anchor instead of the full gradient")
    EPS = 0.1
    SIGMA = 0.5
    BUDGET = 10_000

    def build(self):
        self.x0 = 0.5 * np.ones(20)
        base = problems.make_nonconvex_logistic(n=4096, d=20, reg=0.01, seed=self.seed)
        return problems.make_online_stream(base, self.SIGMA, seed=self.seed)

    def config(self, run_seed):
        return algorithm.derive_config_online_first_order(
            self.instance.spec, self.EPS, sfo_budget=self.BUDGET, seed=run_seed
        )

    def check(self, cfg, out, op):
        # exact base objective and gradient, measured out of band: the
        # optimizer's SFO counter is closed once run_ssrgd has returned
        base = self.instance.base.spec
        f0, f1 = base.value(self.x0), base.value(out.final_x)
        op.info["exact_grad_norm"] = float(np.linalg.norm(base.full_grad(out.final_x)))
        if out.termination is not Termination.BUDGET_EXHAUSTED:
            op.failure = f"ended by {out.termination.value}, not by its SFO budget"
        elif not f1 < f0:
            op.failure = f"f(final)={f1!r} is not below f(x0)={f0!r}"


def dense_judge(spec, x, eps: float, delta: float) -> tuple[bool, float, float]:
    """(is an (eps, delta)-SOSP, exact gradient norm, dense lambda_min), from
    the exact gradient and ``eigvalsh`` of the Hessian assembled column by
    column from Hessian-vector products."""
    x = np.asarray(x, dtype=float)
    grad_norm = float(np.linalg.norm(spec.full_grad(x)))
    H = np.column_stack([spec.hvp(x, e) for e in np.eye(spec.d)])
    lam = float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])
    return grad_norm <= eps and lam >= -delta, grad_norm, lam


class SaddleCertify(OptimizerWorkload):
    name = "saddle_certify"
    why = ("second-order SSRGD on a d=256 planted saddle with spectral.certify at "
           "every trigger point: power iteration and the super-epoch state machine")
    certify = True
    EPS = 0.05
    DELTA = 0.3
    LOGFACTOR = 8.0
    BUDGET = 50_000

    def build(self):
        self.x0 = np.zeros(256)
        return problems.make_separable_saddle(d=256, n=64, delta_plant=0.4, seed=self.seed)

    def config(self, run_seed):
        return algorithm.derive_config_second_order(
            self.instance.spec, self.EPS, self.DELTA, self.LOGFACTOR,
            sfo_budget=self.BUDGET, seed=run_seed,
        )

    def check(self, cfg, out, op):
        ok, grad_norm, lam = dense_judge(self.instance.spec, out.final_x, cfg.eps, cfg.delta)
        op.info["verified_sosp"] = ok
        if out.termination is Termination.SOSP_CERTIFIED and not ok:
            op.failure = (
                f"certificate over-claim: certified point has gradient norm {grad_norm:.4g} "
                f"(eps={cfg.eps}) and dense lambda_min {lam:.4g} (-delta={-cfg.delta})"
            )


# ---------------------------------------------------------------------------
# CLI session

PLAN = """\
[problem:logistic]
kind = nonconvex_logistic
n = 256
d = 20
seed = {seed}

[problem:saddle]
kind = separable_saddle
d = 10
n = 64
delta_plant = 0.3
seed = {seed}
x0 = saddle

[optimizer:ssrgd_first]
kind = ssrgd
order = first
sfo_budget = 10000
trace = full

[optimizer:ssrgd_second]
kind = ssrgd
order = second
delta = 0.3
logfactor = 8
sfo_budget = 10000
trace = full

[optimizer:svrg]
kind = svrg
sfo_budget = 10000
trace = full

[optimizer:sgd]
kind = sgd
minibatch = 16
sfo_budget = 10000

[optimizer:gd]
kind = gd
sfo_budget = 10000

[sweep]
axis = eps
grid = 0.1, 0.05, 0.025

[output]
dir = {out}
seeds = {seeds}
plot = true
"""

COUPLED = """\
[problem]
kind = separable_saddle
d = 10
n = 64
delta_plant = 0.3
seed = {seed}

[optimizer]
kind = ssrgd
order = second
"""

PLAN_CELLS = 120  # 2 problems x 5 optimizers x 3 eps values x 4 seeds
PAIRS = 50
MIN_ESCAPE = 0.9


class CliSession(Workload):
    name = "cli_session"
    why = ("one research session through harness.main: a 120-cell plan with plots, "
           "then a coupled-escape diagnosis; trace I/O, baselines, diagnostics")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.out = self.workdir / "runs"
        self.workdir.mkdir(parents=True, exist_ok=True)
        seeds = ", ".join(str(seed * 4 + k) for k in range(4))
        self.plan = self.workdir / "plan.ini"
        self.plan.write_text(PLAN.format(seed=seed, out=self.out, seeds=seeds), encoding="utf-8")
        self.coupled = self.workdir / "coupled.ini"
        self.coupled.write_text(COUPLED.format(seed=seed + 1), encoding="utf-8")
        self.run_argv = ["run", str(self.plan), "--workers", "1"]
        self.diagnose_argv = [
            "diagnose", "coupled", "--config", str(self.coupled),
            "--pairs", str(PAIRS), "--seed", str(seed),
        ]

    @staticmethod
    def main(argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = harness.main(argv)
        return code, buf.getvalue()

    def warmup(self) -> None:
        self.main(self.diagnose_argv)

    def check_run(self, result, op: Op) -> None:
        code, text = result
        try:
            if code != 0:
                op.failure = f"ssrgd run exited {code}"
                return
            files = sorted(p for p in self.out.rglob("*") if p.is_file())
            traces = [p for p in files if p.name == "trace.csv"]
            h = hashlib.sha256()
            for p in traces:
                data = p.read_bytes()
                h.update(p.parent.name.encode() + b"\0" + data)
                # iterations recorded in the trace: the last row's iter column
                op.iters += int(data.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",", 1)[0])
            aggregate = json.loads((self.out / "aggregate.json").read_text(encoding="utf-8"))
            op.sfo = int(aggregate["total_sfo_raw"])
            op.fingerprint = h.hexdigest()
            op.info["files_written"] = len(files)
            op.info["bytes_written"] = sum(p.stat().st_size for p in files)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        printed = json.loads(text)
        if printed["cells"] != PLAN_CELLS or len(traces) != PLAN_CELLS:
            op.failure = f"{printed['cells']} cells and {len(traces)} traces, expected {PLAN_CELLS}"
        elif printed["failed"] != []:
            op.failure = f"failed cells: {printed['failed']}"

    def check_diagnose(self, result, op: Op) -> None:
        code, text = result
        if code != 0:
            op.failure = f"ssrgd diagnose exited {code}"
            return
        op.fingerprint = hashlib.sha256(text.encode()).hexdigest()
        report = json.loads(text)
        op.info["escape_frequency"] = report["escape_frequency"]
        if len(report["pairs"]) != PAIRS or not all(p["coupled"] for p in report["pairs"]):
            op.failure = "not every pair replayed the same minibatch stream"
        elif report["escape_frequency"] < MIN_ESCAPE:
            op.failure = f"escape frequency {report['escape_frequency']} < {MIN_ESCAPE}"

    def unit(self, index, timed):
        return [
            self.op("run", "run", timed, lambda: self.main(self.run_argv), self.check_run),
            self.op("diagnose", "diagnose", timed, lambda: self.main(self.diagnose_argv),
                    self.check_diagnose),
        ]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (FsLogistic, OnlineStream, SaddleCertify, CliSession)}


def build(name: str, seed: int, workdir: Path) -> Workload:
    cls = WORKLOADS[name]
    return cls(seed, workdir) if cls is CliSession else cls(seed)
