"""How firmly the stochastic acceptance gates pass: criteria 2, 3 and 4 rerun
at several run-seed offsets.

For each offset it runs

    SSRGD_GATE_SEED_OFFSET=<offset> python3 -m pytest tests/test_acceptance.py -s \\
        -k "test_criterion_02_first_order_convergence or test_criterion_03_eps_scaling
            or test_criterion_04_n_scaling"

in a fresh process.  ``tests/test_acceptance.py`` adds the offset to those
criteria's run seeds only; their data seeds, sizes and bounds stay as
Tier-1 runs them (offset 0).  From each run it reads the ``[criterion N]``
lines the suite prints, and for each criterion it prints the statistic at
every offset, its spread (mean, sample standard deviation, min, max) and the
pass rate: criterion 2's seeds that reach eps within the allowance and the
worst SFO among them, the fitted slopes of criteria 3 and 4.

    python3 tools/gate_audit.py
    python3 tools/gate_audit.py --offsets 0 1000 --out GATES.json

``--out`` also writes the table as JSON: per criterion its test, its bound,
every offset's statistics and verdict, the spread of each statistic and
the pass rate; then the offsets and the numpy and BLAS build
(``fingerprint.build``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE / "tools")]

import fingerprint  # noqa: E402

OFFSET_VARIABLE = "SSRGD_GATE_SEED_OFFSET"
REPORT = re.compile(r"\[criterion +(\d+)\] (PASS|FAIL) - (.*)$")
SLOPE = re.compile(r"slope (?P<slope>-?\d+\.\d+) \(ci")
# per criterion: its test, its bound as the test states it, and the pattern
# of its detail text whose named groups are the statistics (integers or floats)
CRITERIA = {
    2: ("test_criterion_02_first_order_convergence", ">= 19 of 20 seeds reach eps within the allowance",
        re.compile(r"^(?P<hits>\d+)/\d+ seeds reached eps=\S+ \(worst SFO (?P<worst_sfo>\d+) vs ")),
    3: ("test_criterion_03_eps_scaling", "1.6 <= slope <= 2.4", SLOPE),
    4: ("test_criterion_04_n_scaling", "0.3 <= slope <= 0.7", SLOPE),
}


def parse_reports(text: str) -> dict[int, dict]:
    """Each audited criterion's verdict and statistics from one pytest run's
    standard output; a criterion whose line is missing is left out."""
    found = {}
    for line in text.splitlines():
        m = REPORT.search(line)
        if m is None or int(m[1]) not in CRITERIA:
            continue
        stats = CRITERIA[int(m[1])][2].search(m[3])
        if stats is None:
            raise ValueError(f"criterion {m[1]}: unreadable report {m[3]!r}")
        found[int(m[1])] = {"passed": m[2] == "PASS",
                            **{k: json.loads(v) for k, v in stats.groupdict().items()}}
    return found


def run_offset(offset: int) -> dict[int, dict]:
    """One fresh pytest process with the run seeds moved by ``offset``."""
    tests = " or ".join(test for test, _, _ in CRITERIA.values())
    argv = [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s", "-q", "-p", "no:cacheprovider",
            "-k", tests]
    env = {**os.environ, OFFSET_VARIABLE: str(offset)}
    done = subprocess.run(argv, cwd=HERE, env=env, capture_output=True, text=True, timeout=3600)
    found = parse_reports(done.stdout)
    if set(found) != set(CRITERIA):
        raise SystemExit(f"gate_audit: offset {offset} exited {done.returncode} without every report:\n"
                         f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return found


def spread(xs) -> dict:
    return {"mean": statistics.fmean(xs), "std": statistics.stdev(xs) if len(xs) > 1 else 0.0,
            "min": min(xs), "max": max(xs)}


def summarize(offsets, runs: list[dict[int, dict]]) -> dict:
    """The ``--out`` record from the reports of each offset, in order."""
    criteria = {}
    for c in CRITERIA:
        test, bound, pattern = CRITERIA[c]
        rows = [{"offset": offset, **found[c]} for offset, found in zip(offsets, runs)]
        criteria[str(c)] = {
            "test": test, "bound": bound, "runs": rows,
            "spread": {k: spread([row[k] for row in rows]) for k in pattern.groupindex},
            "pass_rate": sum(row["passed"] for row in rows) / len(rows),
        }
    return {"offsets": list(offsets), "build": fingerprint.build(), "criteria": criteria}


def table(record: dict) -> list[str]:
    lines = []
    for c, row in record["criteria"].items():
        lines.append(f"criterion {c} ({row['bound']}): pass rate {row['pass_rate']:.2f}")
        for run in row["runs"]:
            stats = "  ".join(f"{k} {run[k]:g}" for k in row["spread"])
            lines.append(f"  offset {run['offset']:>6}  {'PASS' if run['passed'] else 'FAIL'}  {stats}")
        for k, s in row["spread"].items():
            lines.append(f"  {k}: mean {s['mean']:.4g}  std {s['std']:.4g}  min {s['min']:g}  max {s['max']:g}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--offsets", type=int, nargs="+", default=list(range(0, 10_000, 1000)),
                   help="run-seed offsets, one pytest process each")
    p.add_argument("--out", type=Path, default=None, help="also write the results as JSON here")
    args = p.parse_args(argv)
    runs = []
    for offset in args.offsets:
        runs.append(run_offset(offset))
        print(f"gate_audit: offset {offset} done", file=sys.stderr, flush=True)
    record = summarize(args.offsets, runs)
    print("\n".join(table(record)))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
