"""A/B timing of this checkout against another, by the benchmark itself.

For each workload of ``perfbench/run.py`` it runs ``--pairs`` pairs of

    python3 perfbench/run.py --workload W --seed 0 --seconds S

one run in the parent checkout and one in this one, each a fresh process
with its own tree's ``perfbench/``; the side that goes first alternates
from pair to pair.  From each run it reads the metrics on the last line of
standard output and the operations in its result file.  For every
end-to-end metric of ``BENCHMARK.json`` it prints both sides' quartiles,
the change/parent ratio of the medians and the pairs the change won in the
metric's ``better`` direction (ties count for neither), beside each side's
failed operations and whether both computed identical results (in every
pair the operations match in kind, key, fingerprint, SFO count,
iterations and failure).  The parent's own quartiles are the noise floor
a ratio has to clear.  Path parity with f values left out is
``tools/fingerprint.py --paths``'s job.

    python3 tools/ab.py --parent ../parent
    python3 tools/ab.py --parent ../parent --pairs 4 --seconds 5
    python3 tools/ab.py --parent ../parent --out BENCH_<label>.json

``--seconds`` defaults to ``BENCHMARK.json``'s ``run_seconds``.  ``--out``
also writes the table as JSON: per workload and metric both sides' runs
and quartiles, the ratio and the wins; per workload the failed counts and
``identical``; then the pairs, the seconds, the numpy and BLAS build
(``fingerprint.build``) and, for each tree, its git sha (``dirty`` when
its ``src/`` differs from its HEAD, null outside a checkout) and its
``src/`` line count (``src_lines``, as ``cat src/ssrgd/*.py | wc -l``).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE / "tools")]

import fingerprint  # noqa: E402
from perfbench.run import NAMES  # noqa: E402

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seconds: float) -> dict:
    """One benchmark run in the checkout ``root``: its end-to-end metric
    values, its failed count and the set of its operations' outcomes."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=seconds + 900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"ab: {workload} in {root} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    path = next(line.split(": ", 1)[1] for line in lines if line.startswith("  result file: "))
    ops = json.loads((root / path).read_text(encoding="utf-8"))["operations"]
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "ops": {(op["kind"], op["key"], op["fingerprint"], op["sfo"], op["iters"], op["failure"])
                for op in ops},
    }


def quartiles(xs) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def benchmark() -> dict:
    return json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))


def compare(runs: dict, end_to_end: list[dict]) -> dict:
    """One workload's row from its runs by side, pair i being the i-th run
    of each side, over the ``end_to_end`` metrics of ``BENCHMARK.json``."""
    metrics = {}
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        values = {side: [run["metrics"][name] for run in runs[side]] for side in SIDES}
        row = {"unit": m["unit"], "better": m["better"]}
        for side, xs in values.items():
            q1, median, q3 = quartiles(xs)
            row[side] = {"q1": q1, "median": median, "q3": q3, "runs": xs}
        row["ratio"] = row["change"]["median"] / row["parent"]["median"]
        row["wins"] = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
        metrics[name] = row
    return {
        "metrics": metrics,
        "failed": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
        "identical": all(p["ops"] == c["ops"] for p, c in zip(runs["parent"], runs["change"])),
    }


def measure(parent: Path, pairs: int, seconds: float, names=NAMES) -> dict:
    """The ``--out`` record: ``pairs`` pairs of runs of each workload in
    ``names``, the parent first in even pairs and the change in odd ones."""
    roots = {"parent": parent.resolve(), "change": HERE}
    end_to_end = benchmark()["end_to_end"]
    workloads = {}
    for name in names:
        runs = {side: [] for side in SIDES}
        for i in range(pairs):
            for side in SIDES[::-1] if i % 2 else SIDES:
                runs[side].append(run_once(roots[side], name, seconds))
            print(f"ab: {name} pair {i + 1}/{pairs} done", file=sys.stderr, flush=True)
        workloads[name] = compare(runs, end_to_end)
    return {
        "pairs": pairs, "seconds": seconds, "build": fingerprint.build(),
        **{side: {"git": tree_version(root), "src_lines": src_lines(root)} for side, root in roots.items()},
        "workloads": workloads,
    }


def table(record: dict) -> list[str]:
    lines = [f"{'workload':<15}{'metric':<13}{'unit':<5}{'parent (q1 med q3)':>31}"
             f"{'change (q1 med q3)':>31}{'ratio':>8}{'wins':>7}  identical  failed"]
    for name, row in record["workloads"].items():
        same = "yes" if row["identical"] else "NO"
        failed = f"{row['failed']['parent']}/{row['failed']['change']}"
        for metric, m in row["metrics"].items():
            p, c = ("%9.4g %9.4g %9.4g" % (m[side]["q1"], m[side]["median"], m[side]["q3"])
                    for side in SIDES)
            wins = f"{m['wins']}/{record['pairs']}"
            lines.append(f"{name:<15}{metric:<13}{m['unit']:<5}{p:>31}{c:>31}"
                         f"{m['ratio']:>8.3f}{wins:>7}  {same:<9}  {failed}")
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
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=benchmark()["run_seconds"], help="each run's --seconds")
    p.add_argument("--out", type=Path, default=None, help="also write the results as JSON here")
    args = p.parse_args(argv)
    if args.pairs < 1 or not 0 <= args.seconds < math.inf:  # NaN fails too
        p.error("--pairs must be >= 1 and --seconds finite and >= 0")
    record = measure(args.parent, args.pairs, args.seconds)
    print("\n".join(table(record)))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
