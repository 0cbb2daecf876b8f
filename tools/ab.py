"""In-process A/B timing of this checkout against another source tree.

Loads ``src/ssrgd`` from another checkout (the parent) and from this one
(the change) side by side, as the packages ``ab_parent`` and ``ab_change``,
and binds a copy of this checkout's ``perfbench/workloads.py`` to each, so
both sides build exactly the benchmark's inputs (seed 0).  It loads this
checkout a second time too, as ``ab_control``, so the change's ratio
against an identical tree, the harness's own noise floor, is measured
beside the ratio against the parent.  Round after round it runs one unit
of each workload on each of the three sides, which go through all six
orders, one a round (a multiple of six rounds balances them exactly), since
a side that always ran between the other two read slower on ``plan``:

* ``fs``: ``fs_logistic``, eight first-order finite-sum ``run_ssrgd`` runs;
* ``online``: ``online_stream``, ``ONLINE_UNITS`` units of eight first-order
  online runs each; a round's value is the median of their µs per iteration;
* ``plan``: ``cli_session``, ``ssrgd run`` on a 120-cell plan, then
  ``ssrgd diagnose coupled``;
* ``certify``: ``saddle_certify``, eight second-order runs on a d=256
  planted saddle that certify every trigger point by power iteration;
* ``setup``: ``SETUP_PROCESSES`` fresh interpreters per side, one after
  another, that each put that tree's ``src/`` first, import
  ``perfbench/workloads.py`` and build ``fs_logistic``'s inputs, as
  ``perfbench/run.py --setup-only`` does; a round's value is their median.

Separate benchmark processes on a shared host drift by up to 40% between
runs; taking turns in one process cancels most of that.  For each workload
it prints the quartiles of µs per iteration (seconds for ``plan`` and
``setup``) on each side, the change/parent ratio of the medians, how many
rounds the change was faster, and whether both sides computed identical
results (``result_digest``: the same results with every f value left out,
so a change that moves f only at rounding level still reads ``yes``; for
``plan`` that covers every file the plan wrote; for ``setup`` the built
run configs, start point and gradient there).

    python3 tools/ab.py --parent ../parent
    python3 tools/ab.py --parent ../parent --rounds 16
    python3 tools/ab.py --parent . --rounds 1 --scale 0.01   # smoke run
    python3 tools/ab.py --parent ../parent --rounds 12 --out BENCH_<label>.json

``--scale`` multiplies every SFO budget and the number of coupled pairs;
``setup`` builds the same inputs at any scale.
BLAS threads are pinned to 1, as in the benchmark.  ``--out`` also writes
the table as JSON: per workload each side's per-round values and quartiles,
the ratio, the wins and ``identical``; then the rounds, the scale, the
numpy and BLAS build (``fingerprint.build``) and, for each tree, its git sha
(``dirty`` when its ``src/`` differs from its HEAD, null outside a checkout)
and its ``src/`` line count (``src_lines``, as ``cat src/ssrgd/*.py | wc -l``).
A second table gives the control against the change, and ``--out`` stores
those rows under ``control``, each with the fields of a ``workloads`` row
but ``change`` and ``control`` in place of ``parent`` and ``change``.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import importlib
import importlib.util
import itertools
import json
import logging
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parents[1]
SEED = 0
WORKLOADS = {"fs": "fs_logistic", "online": "online_stream", "plan": "cli_session",
             "certify": "saddle_certify"}
ROWS = {**WORKLOADS, "setup": "fs_logistic"}
SETUP_PROCESSES = 3  # one process's start-up time is too noisy on a shared host
ONLINE_UNITS = 3  # so is one online unit, about 0.3 s of work
# run in a fresh interpreter: argv is the tree's src/, this checkout and a work directory
SETUP = """\
import dataclasses, hashlib, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from perfbench import workloads
wl = workloads.build("fs_logistic", 0, Path(sys.argv[3]))
h = hashlib.sha256(repr([dataclasses.astuple(cfg) for cfg in wl.cfgs]).encode())
h.update(wl.x0.tobytes() + wl.instance.spec.full_grad(wl.x0).tobytes())
wl.close()
print(h.hexdigest())
"""


def import_file(name: str, path: Path, package_dir: Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)]
    )
    if spec is None:
        raise SystemExit(f"ab: nothing to import at {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(root: Path, name: str):
    """Import ``root/src/ssrgd`` as the package ``name`` and return
    ``perfbench/workloads.py`` loaded against it."""
    pkg = root.resolve() / "src" / "ssrgd"
    import_file(name, pkg / "__init__.py", pkg)
    for sub in ("harness", "spectral"):  # the package's __init__ does not import these
        importlib.import_module(f"{name}.{sub}")
    # workloads.py imports ``ssrgd``: while it loads, that name is this side
    aliases = {"ssrgd" + key[len(name):]: module for key, module in sys.modules.items()
               if key == name or key.startswith(name + ".")}
    saved = {key: sys.modules.pop(key) for key in aliases if key in sys.modules}
    sys.modules.update(aliases)
    try:
        return import_file(f"{name}_workloads", HERE / "perfbench" / "workloads.py")
    finally:
        for key in aliases:
            del sys.modules[key]
        sys.modules.update(saved)  # the tree ``fingerprint`` imported as ``ssrgd``


fingerprint = import_file("ab_fingerprint", HERE / "tools" / "fingerprint.py")


def result_digest(workload: str, ops, results, files=()) -> str:
    """sha256 over each operation's key, SFO count, iterations and failure,
    then each result without f values: for ``fs`` and ``online`` the run's
    ``fingerprint.outcome_digest(..., paths=True)``, for ``plan`` the exit
    code and the printed JSON (its ``out_dir`` differs by side), then the
    ``files_digest`` of each plan's output."""
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.key},{op.sfo},{op.iters},{op.failure}\n".encode())
    for result in results:
        if workload == "plan":
            code, text = result
            printed = fingerprint.without_f(json.loads(text))
            printed.pop("out_dir", None)
            h.update(f"{code},{json.dumps(printed, sort_keys=True)}\n".encode())
        else:
            h.update(f"{fingerprint.outcome_digest(result, paths=True)}\n".encode())
    for digest in files:
        h.update(f"{digest}\n".encode())
    return h.hexdigest()


def files_digest(root: Path) -> str:
    """sha256 over every file under a plan's output directory ``root``: its
    relative path and its bytes without f values (``fingerprint._plan_bytes``)."""
    h = hashlib.sha256()
    for p in sorted(p for p in root.rglob("*") if p.is_file()):
        data = fingerprint._plan_bytes(p, p.read_bytes())
        if data is not None:
            h.update(p.relative_to(root).as_posix().encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


class Side:
    """One tree's benchmark workloads; ``run(workload, index)`` runs one
    round (one unit, ``ONLINE_UNITS`` units of ``online`` or
    ``SETUP_PROCESSES`` set-up processes) and returns (measure, result
    digest)."""

    def __init__(self, name: str, root: Path, scale: float, workdir: Path):
        self.root, self.workdir = root.resolve(), workdir
        bench = load_workloads(root, name)
        self.results = []  # what each timed call of the current unit returned
        self.files = []  # files_digest of each plan the current unit ran
        self.workloads = {}
        for short, long in WORKLOADS.items():
            cls = bench.WORKLOADS[long]
            if cls is bench.CliSession:
                self.workloads[short] = wl = cls(SEED, workdir / name)
                plan = configparser.ConfigParser()
                plan.read(wl.plan, encoding="utf-8")
                for section in plan.sections():
                    if "sfo_budget" in plan[section]:
                        plan[section]["sfo_budget"] = str(scaled(plan[section].getint("sfo_budget"), scale))
                with open(wl.plan, "w", encoding="utf-8") as f:
                    plan.write(f)
                pairs = wl.diagnose_argv.index("--pairs") + 1
                wl.diagnose_argv[pairs] = str(scaled(int(wl.diagnose_argv[pairs]), scale))

                def check_run(result, op, wl=wl, check=wl.check_run):
                    self.files.append(files_digest(wl.out))  # check deletes the output
                    check(result, op)

                wl.check_run = check_run
            else:
                budget = scaled(cls.BUDGET, scale)
                self.workloads[short] = type(cls.__name__, (cls,), {"BUDGET": budget})(SEED)

    def timed(self, fn):
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        self.results.append(result)
        return seconds, math.nan, result

    def setup(self) -> tuple[float, str]:
        """Median wall seconds of ``SETUP_PROCESSES`` set-up processes, and
        the digests they printed."""
        argv = [sys.executable, "-c", SETUP, str(self.root / "src"), str(HERE), str(self.workdir)]
        times, digests = [], []
        for _ in range(SETUP_PROCESSES):
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=self.workdir, capture_output=True, text=True, timeout=120)
            times.append(time.perf_counter() - start)
            if done.returncode != 0:
                raise SystemExit(f"ab: set-up in {self.root} exited {done.returncode}: {done.stderr[-2000:]}")
            digests.append(done.stdout.strip())
        return statistics.median(times), " ".join(digests)

    def run(self, workload: str, index: int) -> tuple[float, str]:
        """Round ``index`` of ``workload``: (its value, the result digests)."""
        if workload == "setup":
            return self.setup()
        if workload == "online":
            units = [self.run_unit(workload, index * ONLINE_UNITS + k) for k in range(ONLINE_UNITS)]
            return statistics.median(v for v, _ in units), " ".join(d for _, d in units)
        return self.run_unit(workload, index)

    def run_unit(self, workload: str, index: int) -> tuple[float, str]:
        self.results, self.files = [], []
        ops = self.workloads[workload].unit(index, self.timed)
        digest = result_digest(workload, ops, self.results, self.files)
        seconds = sum(op.seconds for op in ops)
        if workload == "plan":
            return seconds, digest
        return seconds / max(1, sum(op.iters for op in ops)) * 1e6, digest

    def close(self) -> None:
        for wl in self.workloads.values():
            wl.close()


def quartiles(xs) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(sides: list[tuple[str, Side]], rounds: int) -> tuple[dict, dict]:
    """Round after round, one round of every row on each side, the sides in
    the next of their orders each round, so over all their orders every
    side runs in every place equally often.  Returns each row's per-round
    values and result digests, by side label."""
    times = {w: {label: [] for label, _ in sides} for w in ROWS}
    digests = {w: {label: [] for label, _ in sides} for w in ROWS}
    for w in WORKLOADS:  # untimed warm-up: imports, caches, first allocations
        for _, side in sides:
            side.workloads[w].warmup()
    orders = list(itertools.permutations(sides))
    for r in range(rounds):
        for w in ROWS:
            for label, side in orders[r % len(orders)]:
                value, digest = side.run(w, r)
                times[w][label].append(value)
                digests[w][label].append(digest)
    return times, digests


def pair_rows(times: dict, digests: dict, base: str, other: str) -> dict:
    """Per workload: the two sides' per-round values and their quartiles,
    the ``other``/``base`` ratio of the medians, the rounds ``other`` was
    faster and whether every round computed identical results on both."""
    results = {}
    for w, workload in ROWS.items():
        b, o = times[w][base], times[w][other]
        bq, oq = quartiles(b), quartiles(o)
        results[w] = {
            "workload": workload, "unit": "s" if w in ("plan", "setup") else "us/iter",
            base: {"q1": bq[0], "median": bq[1], "q3": bq[2], "runs": b},
            other: {"q1": oq[0], "median": oq[1], "q3": oq[2], "runs": o},
            "ratio": oq[1] / bq[1], "wins": sum(ov < bv for bv, ov in zip(b, o)),
            "identical": digests[w][base] == digests[w][other],
        }
    return results


def table(results: dict, rounds: int, base: str, other: str) -> list[str]:
    lines = [f"{'workload':<9}{'unit':<9}{base + ' (q1 med q3)':>28}{other + ' (q1 med q3)':>28}"
             f"{'ratio':>8}{'wins':>7}  identical"]
    for w, r in results.items():
        bq, oq = ("%8.4g %8.4g %8.4g" % (r[side]["q1"], r[side]["median"], r[side]["q3"])
                  for side in (base, other))
        wins = f"{r['wins']}/{rounds}"
        lines.append(
            f"{w:<9}{r['unit']:<9}{bq:>28}{oq:>28}"
            f"{r['ratio']:>8.3f}{wins:>7}  {'yes' if r['identical'] else 'NO'}"
        )
    return lines


def tree_version(root: Path) -> str | None:
    """The sha of the git HEAD of the checkout at ``root``, ``dirty`` when its
    ``src/`` differs from that commit, or None when ``root`` is no checkout."""
    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        except OSError:  # no git on this host
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    if git("rev-parse", "--show-toplevel") != str(root.resolve()):
        return None
    return "dirty" if git("status", "--porcelain", "--", "src") else git("rev-parse", "HEAD")


def src_lines(root: Path) -> int:
    """Newlines in the tree's ``src/ssrgd/*.py``, which ``cat src/ssrgd/*.py | wc -l`` counts."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "ssrgd").glob("*.py"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout root of the baseline tree")
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--scale", type=float, default=1.0, help="multiplies budgets and pair count")
    p.add_argument("--out", type=Path, default=None, help="also write the results as JSON here")
    args = p.parse_args(argv)
    if args.rounds < 1 or not args.scale > 0:  # NaN fails too
        p.error("--rounds must be >= 1 and --scale > 0")
    logging.basicConfig(level=logging.WARNING)  # the harness's own INFO lines stay quiet
    with tempfile.TemporaryDirectory(prefix="ab_") as tmp:
        sides = [("parent", Side("ab_parent", args.parent, args.scale, Path(tmp))),
                 ("change", Side("ab_change", HERE, args.scale, Path(tmp))),
                 ("control", Side("ab_control", HERE, args.scale, Path(tmp)))]
        try:
            times, digests = compare(sides, args.rounds)
        finally:
            for _, side in sides:
                side.close()
    results = pair_rows(times, digests, "parent", "change")
    control = pair_rows(times, digests, "change", "control")
    print("\n".join(table(results, args.rounds, "parent", "change")))
    print("\n".join(table(control, args.rounds, "change", "control")))
    if args.out is not None:
        record = {
            "rounds": args.rounds, "scale": args.scale, "build": fingerprint.build(),
            "parent": {"git": tree_version(args.parent), "src_lines": src_lines(args.parent)},
            "change": {"git": tree_version(HERE), "src_lines": src_lines(HERE)},
            "workloads": results, "control": control,
        }
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
