import dataclasses
import importlib.util
import itertools
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


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


def test_ab_smoke_same_tree_on_both_sides(tmp_path):
    root = SCRIPT.parents[1]
    out = tmp_path / "BENCH_smoke.json"
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "ab.py"), "--parent", str(root), "--rounds", "1", "--scale", "0.01",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    header, *rows = done.stdout.splitlines()
    assert header.split()[:2] == ["workload", "unit"]
    assert [row.split()[:2] for row in rows] == [
        ["fs", "us/iter"], ["online", "us/iter"], ["plan", "s"], ["certify", "us/iter"], ["setup", "s"]
    ]
    for row in rows:
        *_, ratio, wins, identical = row.split()
        assert float(ratio) > 0 and wins in ("0/1", "1/1") and identical == "yes"
    record = json.loads(out.read_text(encoding="utf-8"))
    assert set(record) == {"rounds", "scale", "build", "parent", "change", "workloads"}
    assert (record["rounds"], record["scale"]) == (1, 0.01)
    assert record["build"] == load_tool("fingerprint").build()
    assert record["parent"] == record["change"] and set(record["parent"]) == {"git", "src_lines"}
    src = sorted((root / "src" / "ssrgd").glob("*.py"))
    assert record["parent"]["src_lines"] == len(b"".join(p.read_bytes() for p in src).splitlines())
    assert list(record["workloads"]) == ["fs", "online", "plan", "certify", "setup"]
    assert record["workloads"]["certify"]["workload"] == "saddle_certify"
    assert record["workloads"]["setup"]["workload"] == "fs_logistic"
    for w, row in zip(record["workloads"].values(), rows):
        assert set(w) == {"workload", "unit", "parent", "change", "ratio", "wins", "identical"}
        for side in ("parent", "change"):
            assert set(w[side]) == {"q1", "median", "q3", "runs"} and len(w[side]["runs"]) == 1
            assert w[side]["q1"] == w[side]["median"] == w[side]["q3"] == w[side]["runs"][0] > 0
        assert w["ratio"] == w["change"]["median"] / w["parent"]["median"]
        assert w["wins"] in (0, 1) and w["identical"] is True
        assert row.split()[-2] == f"{w['wins']}/1"


@pytest.mark.parametrize("scale", ["nan", "0", "-1"])
def test_ab_refuses_a_scale_that_is_not_positive(scale, capsys):
    with pytest.raises(SystemExit) as exc:
        load_tool("ab").main(["--parent", ".", "--scale", scale])
    assert exc.value.code == 2 and "--scale > 0" in capsys.readouterr().err


def test_ab_online_round_is_the_median_of_its_units():
    ab = load_tool("ab")
    seen = []

    def run_unit(workload, index):
        seen.append((workload, index))
        return float((7 * index) % 11), f"u{index}"

    side = SimpleNamespace(run_unit=run_unit)
    k = ab.ONLINE_UNITS
    units = range(2 * k, 3 * k)
    value, digest = ab.Side.run(side, "online", 2)
    assert seen == [("online", i) for i in units]
    assert value == statistics.median((7 * i) % 11 for i in units)
    assert digest == " ".join(f"u{i}" for i in units)
    seen.clear()
    assert ab.Side.run(side, "fs", 2) == (3.0, "u2") and seen == [("fs", 2)]


def test_ab_result_digest_ignores_f_and_nothing_else():
    ab = load_tool("ab")
    fp = ab.fingerprint
    inst = fp.problems.make_nonconvex_logistic(n=64, d=4, seed=1)
    out = fp._ssrgd(inst, 0.05, budget=3_000, seed=2, x0=0.5 * np.ones(4), full_trace=True)
    ops = [SimpleNamespace(key="2", sfo=out.sfo_raw, iters=40, failure=None)]
    base = ab.result_digest("fs", ops, [out])
    other_f = [dataclasses.replace(r, f_value=r.f_value * (1 + 1e-16) + 1e-9) for r in out.trace]
    assert ab.result_digest("fs", ops, [dataclasses.replace(out, trace=other_f)]) == base
    moved = dataclasses.replace(out, final_x=out.final_x + 1e-15)
    assert ab.result_digest("fs", ops, [moved]) != base
    failed = [SimpleNamespace(key="2", sfo=out.sfo_raw, iters=40, failure="check")]
    assert ab.result_digest("fs", failed, [out]) != base

    def plan(out_dir, max_fdrop, escaped):
        printed = {"cells": 2, "failed": [], "out_dir": out_dir}
        report = {"escape_frequency": escaped, "pairs": [{"max_fdrop": max_fdrop}]}
        return [(0, json.dumps(printed)), (0, json.dumps(report))]

    ops = [SimpleNamespace(key="run", sfo=10, iters=5, failure=None)]
    base = ab.result_digest("plan", ops, plan("/a/runs", 0.5, 1.0))
    assert ab.result_digest("plan", ops, plan("/b/runs", 0.25, 1.0)) == base
    assert ab.result_digest("plan", ops, plan("/a/runs", 0.5, 0.9)) != base
    assert ab.result_digest("plan", ops, plan("/a/runs", 0.5, 1.0), ["0" * 64]) != base


def test_ab_plan_files_digest_ignores_f_and_nothing_else(tmp_path):
    ab = load_tool("ab")

    def digest(f_value, sfo, f_final):
        cell = tmp_path / "runs" / "c0ffee"
        cell.mkdir(parents=True, exist_ok=True)
        (cell / "trace.csv").write_text(f"iter,f,grad_norm,sfo,event\n0,{f_value},0.5,{sfo},epoch_start\n")
        (cell / "summary.json").write_text(json.dumps({"f_final": f_final, "sfo_raw": sfo}))
        return ab.files_digest(tmp_path / "runs")

    base = digest(1.0, 64, 1.0)
    assert digest(1.0 + 1e-15, 64, 0.5) == base
    assert digest(1.0, 65, 1.0) != base
    (tmp_path / "runs" / "aggregate.json").write_text("{}")
    assert digest(1.0, 64, 1.0) != base


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
