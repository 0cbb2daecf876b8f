"""In-process A/B timing of this checkout against another source tree.

Loads ``src/ssrgd`` from another checkout (the parent) and from this one
(the change) side by side, as the packages ``ab_parent`` and ``ab_change``,
and binds a copy of this checkout's ``perfbench/workloads.py`` to each, so
both sides build exactly the benchmark's inputs (seed 0).  Round after
round it runs one unit of each workload on each side, and the side that
goes first alternates:

* ``fs``: ``fs_logistic``, eight first-order finite-sum ``run_ssrgd`` runs;
* ``online``: ``online_stream``, eight first-order online runs;
* ``plan``: ``cli_session``, ``ssrgd run`` on a 120-cell plan, then
  ``ssrgd diagnose coupled``.

Separate benchmark processes on a shared host drift by up to 40% between
runs; alternating in one process cancels most of that.  For each workload
it prints the quartiles of µs per iteration (seconds for ``plan``) on each
side, the change/parent ratio of the medians, how many rounds the change
was faster, and whether both sides computed identical results (the
benchmark's operation fingerprints, SFO counts and check outcomes).

    python3 tools/ab.py --parent ../parent
    python3 tools/ab.py --parent ../parent --rounds 16
    python3 tools/ab.py --parent . --rounds 1 --scale 0.01   # smoke run

``--scale`` multiplies every SFO budget and the number of coupled pairs.
BLAS threads are pinned to 1, as in the benchmark.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import importlib
import importlib.util
import logging
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parents[1]
SEED = 0
WORKLOADS = {"fs": "fs_logistic", "online": "online_stream", "plan": "cli_session"}


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
    sys.modules.update(aliases)
    try:
        return import_file(f"{name}_workloads", HERE / "perfbench" / "workloads.py")
    finally:
        for key in aliases:
            del sys.modules[key]


def scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


class Side:
    """One tree's benchmark workloads; ``run(workload, index)`` runs one
    unit and returns (measure, result digest)."""

    def __init__(self, name: str, root: Path, scale: float, workdir: Path):
        bench = load_workloads(root, name)
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
            else:
                budget = scaled(cls.BUDGET, scale)
                self.workloads[short] = type(cls.__name__, (cls,), {"BUDGET": budget})(SEED)

    @staticmethod
    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, math.nan, result

    def run(self, workload: str, index: int) -> tuple[float, str]:
        ops = self.workloads[workload].unit(index, self.timed)
        h = hashlib.sha256()
        for op in ops:
            h.update(f"{op.key},{op.fingerprint},{op.sfo},{op.iters},{op.failure}\n".encode())
        seconds = sum(op.seconds for op in ops)
        if workload == "plan":
            return seconds, h.hexdigest()
        return seconds / max(1, sum(op.iters for op in ops)) * 1e6, h.hexdigest()

    def close(self) -> None:
        for wl in self.workloads.values():
            wl.close()


def quartiles(xs) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: Side, change: Side, rounds: int) -> list[str]:
    times = {w: {"parent": [], "change": []} for w in WORKLOADS}
    same = {w: True for w in WORKLOADS}
    for w in WORKLOADS:  # untimed warm-up: imports, caches, first allocations
        parent.workloads[w].warmup()
        change.workloads[w].warmup()
    for r in range(rounds):
        order = [("parent", parent), ("change", change)]
        if r % 2:
            order.reverse()
        for w in WORKLOADS:
            digests = {}
            for label, side in order:
                value, digests[label] = side.run(w, r)
                times[w][label].append(value)
            same[w] = same[w] and digests["parent"] == digests["change"]
    lines = [f"{'workload':<9}{'unit':<9}{'parent (q1 med q3)':>28}{'change (q1 med q3)':>28}"
             f"{'ratio':>8}{'wins':>7}  identical"]
    for w in WORKLOADS:
        p, c = times[w]["parent"], times[w]["change"]
        pq, cq = quartiles(p), quartiles(c)
        wins = sum(cv < pv for pv, cv in zip(p, c))
        unit = "s" if w == "plan" else "us/iter"
        lines.append(
            f"{w:<9}{unit:<9}{'%8.4g %8.4g %8.4g' % pq:>28}{'%8.4g %8.4g %8.4g' % cq:>28}"
            f"{cq[1] / pq[1]:>8.3f}{f'{wins}/{rounds}':>7}  {'yes' if same[w] else 'NO'}"
        )
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout root of the baseline tree")
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--scale", type=float, default=1.0, help="multiplies budgets and pair count")
    args = p.parse_args(argv)
    if args.rounds < 1 or args.scale <= 0:
        p.error("--rounds must be >= 1 and --scale > 0")
    logging.basicConfig(level=logging.WARNING)  # the harness's own INFO lines stay quiet
    with tempfile.TemporaryDirectory(prefix="ab_") as tmp:
        parent = Side("ab_parent", args.parent, args.scale, Path(tmp))
        change = Side("ab_change", HERE, args.scale, Path(tmp))
        try:
            print("\n".join(compare(parent, change, args.rounds)))
        finally:
            parent.close()
            change.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
