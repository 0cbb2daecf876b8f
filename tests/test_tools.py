import dataclasses
import importlib.util
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
BENCHMARK = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = BENCHMARK["end_to_end"]


def fingerprint(*names) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *names], capture_output=True, text=True, timeout=120, check=True
    )
    return done.stdout.splitlines()


def test_fingerprint_repeats_exactly():
    names = ("ssrgd/online/first", "svrg/saddle", "diag", "plan")
    first = fingerprint(*names)
    assert first == fingerprint(*names)
    labels = [line.split()[0] for line in first]
    assert labels == [
        "ssrgd/online/first/full", "ssrgd/online/first/epoch", "svrg/saddle/epoch",
        "diag/coupled", "diag/epoch_decrease", "diag/localization", "diag/variance",
        "plan/*.json", "plan/*.csv", "plan/*.svg", "combined",
    ]
    assert all(len(line.split()[1]) == 64 for line in first)


def test_fingerprints_match_the_pinned_file():
    # Digests are bit-level, so a numpy or BLAS other than the recorded one
    # may move them; the message then names both builds.
    recorded = (SCRIPT.parents[1] / "FINGERPRINTS.txt").read_text(encoding="utf-8").splitlines()
    fresh = fingerprint("--pin")
    moved, view = [], ""
    for old, new in itertools.zip_longest(recorded, fresh):
        if old is not None and old.startswith("["):
            view = old
        if old != new:
            moved.append(f"  {view} pinned {old!r}\n  {view} now    {new!r}")
    build = [line for line in recorded if line.startswith(("numpy ", "blas "))]
    assert not moved, (
        f"{len(moved)} FINGERPRINTS.txt line(s) moved (recorded on {'; '.join(build)}):\n"
        + "\n".join(moved)
    )


def load_tool(name: str = "fingerprint"):
    spec = importlib.util.spec_from_file_location(f"{name}_tool", SCRIPT.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_paths_repeats_exactly():
    names = ("ssrgd/fs/first", "gd", "diag/epoch_decrease", "diag/localization", "plan")
    first = fingerprint("--paths", *names)
    assert first == fingerprint("--paths", *names)
    full = fingerprint(*names)
    assert [line.split()[0] for line in first] == [line.split()[0] for line in full] == [
        "ssrgd/fs/first/full", "ssrgd/fs/first/epoch", "gd/logistic",
        "diag/epoch_decrease", "diag/localization",
        "plan/*.json", "plan/*.csv", "plan/*.svg", "combined",
    ]
    # every one of these digests covers f values in the full view
    assert all(a != b for a, b in zip(first, full))


def test_paths_digest_ignores_f_and_nothing_else():
    fp = load_tool()
    inst = fp.problems.make_nonconvex_logistic(n=64, d=4, seed=1)
    out = fp._ssrgd(inst, 0.05, budget=3_000, seed=2, x0=0.5 * np.ones(4), full_trace=True)
    other_f = [dataclasses.replace(r, f_value=r.f_value + 1.0) for r in out.trace]
    shifted = dataclasses.replace(out, trace=other_f)
    assert fp.outcome_digest(shifted, paths=True) == fp.outcome_digest(out, paths=True)
    assert fp.outcome_digest(shifted) != fp.outcome_digest(out)
    moved = dataclasses.replace(out, final_x=out.final_x + 1e-15)
    assert fp.outcome_digest(moved, paths=True) != fp.outcome_digest(out, paths=True)
    report = {"f_final": 1.0, "sfo_raw": 5, "cells": [{"max_fdrop": 0.1, "escape_iter": 3}]}
    assert fp.without_f(report) == {"sfo_raw": 5, "cells": [{"escape_iter": 3}]}


@pytest.fixture(scope="module")
def ab():
    return load_tool("ab")


def canned(value=2.0, failed=0, fingerprint="f0"):
    """One benchmark run as ``ab.run_once`` returns it: every end-to-end
    metric at ``value`` and one operation."""
    return {"metrics": {m["name"]: value for m in E2E}, "failed": failed,
            "ops": {("run", "0", fingerprint, 640, 10, None)}}


@pytest.mark.parametrize("metric", [m["name"] for m in E2E])
def test_ab_wins_follow_the_metrics_better_direction(ab, metric):
    better = {m["name"]: m["better"] for m in E2E}[metric]
    assert better == ("higher" if metric == "sfo_per_s" else "lower")
    runs = {"parent": [canned(2.0)] * 3, "change": [canned(1.0), canned(3.0), canned(1.0)]}
    row = ab.compare(runs, E2E)["metrics"][metric]
    assert row["wins"] == (2 if better == "lower" else 1)
    assert row["better"] == better and row["ratio"] == 0.5
    assert row["parent"]["runs"] == [2.0] * 3 and row["change"]["runs"] == [1.0, 3.0, 1.0]


def test_ab_ties_count_for_neither_side(ab):
    row = ab.compare({"parent": [canned(2.0), canned(1.0)], "change": [canned(2.0), canned(1.0)]}, E2E)
    assert all(m["wins"] == 0 and m["ratio"] == 1.0 for m in row["metrics"].values())


def test_ab_one_run_gives_equal_quartiles(ab):
    row = ab.compare({"parent": [canned(2.0)], "change": [canned(3.0)]}, E2E)
    for m in row["metrics"].values():
        assert m["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0, "runs": [2.0]}
        assert m["change"] == {"q1": 3.0, "median": 3.0, "q3": 3.0, "runs": [3.0]}


def test_ab_one_differing_fingerprint_breaks_identical(ab):
    parent = [canned(), canned()]
    assert ab.compare({"parent": parent, "change": [canned(3.0), canned(1.0)]}, E2E)["identical"] is True
    assert ab.compare({"parent": parent, "change": [canned(), canned(fingerprint="f1")]}, E2E)["identical"] is False


def test_ab_failed_counts_carry_through(ab):
    row = ab.compare({"parent": [canned(failed=0), canned(failed=2)],
                      "change": [canned(failed=1), canned(failed=0)]}, E2E)
    assert row["failed"] == {"parent": 2, "change": 1}


def test_ab_one_pair_of_this_tree_against_itself(ab):
    record = json.loads(json.dumps(ab.measure(ab.HERE, 1, 0.0, ["online_stream"])))  # as --out writes it
    assert set(record) == {"pairs", "seconds", "build", "parent", "change", "workloads"}
    assert (record["pairs"], record["seconds"]) == (1, 0.0)
    assert record["build"] == load_tool("fingerprint").build()
    assert record["parent"] == record["change"] and set(record["parent"]) == {"git", "src_lines"}
    src = sorted((ab.HERE / "src" / "ssrgd").glob("*.py"))
    assert record["parent"]["src_lines"] == len(b"".join(p.read_bytes() for p in src).splitlines())
    row = record["workloads"]["online_stream"]
    assert list(record["workloads"]) == ["online_stream"] and set(row) == {"metrics", "failed", "identical"}
    assert row["identical"] is True and row["failed"] == {"parent": 0, "change": 0}
    assert list(row["metrics"]) == [m["name"] for m in E2E]
    for m in row["metrics"].values():
        assert set(m) == {"unit", "better", "parent", "change", "ratio", "wins"}
        for side in ("parent", "change"):
            assert set(m[side]) == {"q1", "median", "q3", "runs"} and len(m[side]["runs"]) == 1
            assert m[side]["q1"] == m[side]["median"] == m[side]["q3"] == m[side]["runs"][0] > 0
        assert m["ratio"] == m["change"]["median"] / m["parent"]["median"] and m["wins"] in (0, 1)
    header, *rows = ab.table(record)
    assert header.split()[:3] == ["workload", "metric", "unit"]
    assert [r.split()[:2] for r in rows] == [["online_stream", name] for name in row["metrics"]]
    assert all(r.split()[-2:] == ["yes", "0/0"] for r in rows)


@pytest.mark.parametrize("flag", [("--pairs", "0"), ("--seconds", "-1"), ("--seconds", "nan")])
def test_ab_refuses_no_pairs_and_bad_seconds(ab, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        ab.main(["--parent", ".", *flag])
    assert exc.value.code == 2 and "--pairs must be >= 1 and --seconds finite and >= 0" in capsys.readouterr().err


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # Under warnings as errors, Hypothesis's failure report raised a
    # DeprecationWarning out of a pytest hook: INTERNALERROR, and no later test ran.
    settings = (SCRIPT.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    filters = re.search(r"^filterwarnings = .*$", settings, re.MULTILINE).group(0)
    (tmp_path / "pyproject.toml").write_text(f"[tool.pytest.ini_options]\n{filters}\n", encoding="utf-8")
    (tmp_path / "test_a.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 5\n", encoding="utf-8"
    )
    (tmp_path / "test_b.py").write_text("def test_passes():\n    pass\n", encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
