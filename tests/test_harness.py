import contextlib
import dataclasses
import functools
import inspect
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import types
import typing
import xml.etree.ElementTree as ET
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssrgd
from ssrgd import baselines, core, diagnostics, harness, svgplot
from ssrgd.baselines import BaselineKind
from ssrgd.core import ConfigError, Event, Mode, RunConfig
from ssrgd.harness import (
    ExperimentPlan,
    build_problem,
    build_run_config,
    emit_plots,
    parse_config,
    read_trace_csv,
    run_plan,
    scaling_report,
    sfo_at_first_fosp,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

MINIMAL = """
[problem]
kind = quadratic
n = 16
d = 3
spread = 0.2

[optimizer]
kind = ssrgd
eps = 0.05
sfo_budget = 4000

[output]
dir = {out}
seeds = 0
"""


def write_config(tmp_path, text, name="plan.ini"):
    p = tmp_path / name
    p.write_text(text.format(out=tmp_path / "runs"))
    return p


def run_config(oparams, inst):
    """The RunConfig of a section at seed 0, resolved as ``run_cell`` resolves it."""
    return build_run_config(inst.spec, 0, *harness.resolve_settings(oparams, inst.spec, None))


def baseline_kind(oparams, inst, seed, eps):
    """The BaselineKind of a section at a cell's seed and eps, resolved as ``run_cell`` resolves it."""
    return harness._baseline_from_params(inst.spec, seed, *harness.resolve_settings(oparams, inst.spec, eps))


def output_bytes(plan) -> dict:
    """Bytes of every file under the plan's output directory, by relative path."""
    root = Path(plan.out_dir)
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def written_traces(plan, agg) -> dict:
    """The trace of each successful cell of a finished plan, read back from its file."""
    root = Path(plan.out_dir)
    return {c["run_id"]: read_trace_csv(root / c["run_id"] / "trace.csv")
            for c in agg["cells"] if not c["failed"]}


def written_charts(plan, agg) -> dict:
    """``emit_plots``' input for a finished plan: the chart columns of each
    written trace, built by the helper ``run_plan`` builds them with."""
    return {rid: harness.chart_columns(trace) for rid, trace in written_traces(plan, agg).items()}


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MINIMAL))
        assert len(plan.problems) == 1 and len(plan.optimizers) == 1
        inst = build_problem(plan.problems[0][1])
        cfg = run_config(plan.optimizers[0][1], inst)
        assert cfg.step_size == pytest.approx(GOLDEN / inst.spec.lipschitz_grad, rel=1e-12)
        assert cfg.epoch_len == cfg.minibatch == 4  # ceil(sqrt(16))
        assert cfg.perturb_radius == 0

    def test_eps_grid_cell_count(self, tmp_path):
        text = MINIMAL + "\n[sweep]\naxis = eps\ngrid = 0.1, 0.05, 0.025\n"
        plan = parse_config(write_config(tmp_path, text))
        assert len(plan.cells()) == 3  # 1 problem x 1 optimizer x 3 eps x 1 seed

    def test_negative_step_rejected(self, tmp_path):
        text = MINIMAL.replace("eps = 0.05", "eps = 0.05\nstep_size = -0.1")
        with pytest.raises(ConfigError, match="step_size > 0"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_key_suggests(self, tmp_path):
        text = MINIMAL.replace("eps = 0.05", "eps = 0.05\nepoch_lenn = 4")
        with pytest.raises(ConfigError, match="epoch_len"):
            parse_config(write_config(tmp_path, text))

    def test_type_mismatch(self, tmp_path):
        text = MINIMAL.replace("n = 16", "n = sixteen")
        with pytest.raises(ConfigError, match="expected int"):
            parse_config(write_config(tmp_path, text))

    def test_missing_problem_section(self, tmp_path):
        text = "[optimizer]\nkind = ssrgd\n\n[output]\ndir = {out}\n"
        with pytest.raises(ConfigError, match=r"\[problem\]"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_section(self, tmp_path):
        text = MINIMAL + "\n[plotting]\nstyle = fancy\n"
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_optimizer_kind(self, tmp_path):
        text = MINIMAL.replace("kind = ssrgd", "kind = lbfgs")
        with pytest.raises(ConfigError, match="unknown optimizer kind"):
            parse_config(write_config(tmp_path, text))

    def test_cell_cap(self, tmp_path):
        text = MINIMAL.replace("seeds = 0", "seeds = " + ",".join(map(str, range(20))))
        text += "\n[sweep]\naxis = eps\ngrid = " + ",".join(["0.1"] * 60)
        plan = parse_config(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="cap"):
            plan.cells()


MULTI = """
[problem:bowl]
kind = quadratic
n = 16
d = 3
spread = 0.2

[problem:bumpy]
kind = nonconvex_logistic
n = 64
d = 5

[optimizer:main]
kind = ssrgd
eps = 0.05
sfo_budget = 3000

[optimizer:gd]
kind = gd
eps = 0.05
sfo_budget = 3000

[output]
dir = {out}
seeds = 0, 1, 2
"""


class TestRunPlan:
    def test_cell_counts_and_files(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MULTI))
        agg = run_plan(plan)
        assert len(agg["cells"]) == 12  # 2 problems x 2 optimizers x 3 seeds
        out = Path(plan.out_dir)
        traces = list(out.glob("*/trace.csv"))
        summaries = list(out.glob("*/summary.json"))
        assert len(traces) == 12 and len(summaries) == 12
        assert (out / "aggregate.json").is_file()
        assert agg["failed"] == []

    def test_idempotent_byte_identical(self, tmp_path):
        # every artifact of a plan, summaries, aggregate and plots included
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1\nplot = true")
        plan = parse_config(write_config(tmp_path, text))
        agg1 = run_plan(plan)
        rid = agg1["cells"][0]["run_id"]
        first = output_bytes(plan)
        agg2 = run_plan(plan)
        assert output_bytes(plan) == first
        assert agg2["cells"][0]["run_id"] == rid
        assert {"aggregate.json", f"{rid}/summary.json", f"{rid}/trace.csv",
                "trace_f_vs_sfo.svg"} <= set(first)

    def test_same_bytes_in_two_directories(self, tmp_path):
        # no file of a plan, charts included, records where it was written
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1\nplot = true")
        text += "\n[sweep]\naxis = eps\ngrid = 0.2, 0.1, 0.05\n"
        outputs = []
        for name in ("a", "b"):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(text.format(out=tmp_path / name / "runs"))
            plan = parse_config(cfg)
            run_plan(plan)
            outputs.append(output_bytes(plan))
        assert outputs[0] == outputs[1]
        assert {"aggregate.json", "plots.json", "scaling_fit.svg"} <= set(outputs[0])

    def test_plots_are_drawn_without_reading_a_trace_file(self, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError(f"run_plan read {path}")

        monkeypatch.setattr(harness, "read_trace_csv", refuse)
        text = MULTI.replace("seeds = 0, 1, 2", "seeds = 0, 1, 2\nplot = true")
        plan = parse_config(write_config(tmp_path, text))
        agg = run_plan(plan)
        assert agg["failed"] == []
        assert json.loads((Path(plan.out_dir) / "plots.json").read_text()) == [
            "escape_rate.svg", "trace_f_vs_sfo.svg", "trace_gradnorm_vs_sfo.svg",
        ]

    def test_csv_round_trip(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MINIMAL))
        agg = run_plan(plan)
        rid = agg["cells"][0]["run_id"]
        path = Path(plan.out_dir) / rid / "trace.csv"
        records = read_trace_csv(path)
        text = harness._trace_to_csv(records)
        assert text == path.read_text()

    def test_aggregate_sfo_consistency(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MULTI))
        agg = run_plan(plan)
        assert agg["total_sfo_raw"] == sum(c["sfo_raw"] for c in agg["cells"])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failed_cell_isolated(self, tmp_path):
        # a diverging step size must fail its own cells only; the quadratic
        # explodes to overflow while bounded-gradient cells stay finite
        text = MULTI.replace(
            "kind = quadratic\nn = 16\nd = 3\nspread = 0.2",
            "kind = quadratic\nn = 16\nd = 3\nspread = 0.2\nx0 = ones",
        ).replace(
            "[optimizer:gd]\nkind = gd\neps = 0.05\nsfo_budget = 3000",
            "[optimizer:gd]\nkind = gd\neps = 0.05\nsfo_budget = 3000\nstep_size = 800.0",
        )
        plan = parse_config(write_config(tmp_path, text))
        agg = run_plan(plan)
        failed_cells = [c for c in agg["cells"] if c.get("failed")]
        assert len(failed_cells) == 3  # gd on the quadratic, all seeds
        assert {(c["problem"], c["optimizer"]) for c in failed_cells} == {("bowl", "gd")}
        ok = [c for c in agg["cells"] if not c.get("failed")]
        assert len(ok) == 9

    def test_run_id_content_hash_stable(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MINIMAL))
        ids1 = [c.run_id for c in plan.cells()]
        plan2 = parse_config(write_config(tmp_path, MINIMAL, name="again.ini"))
        assert ids1 == [c.run_id for c in plan2.cells()]


def synthetic_aggregate(axis, law):
    cells = []
    grid = [0.1, 0.05, 0.025, 0.0125] if axis == "eps" else [1024, 4096, 16384]
    for seed in range(3):
        for v in grid:
            cells.append(
                {
                    "run_id": f"x{seed}{v}",
                    "seed": seed,
                    "eps": v if axis == "eps" else 0.05,
                    "n": 4096 if axis == "eps" else v,
                    "sfo_to_fosp": law(v),
                    "sfo_raw": 1,
                    "failed": False,
                    "optimizer": "main",
                    "problem": "p",
                }
            )
    return {"cells": cells, "failed": [], "sweep": {"axis": axis, "grid": grid}}


class TestScalingReport:
    def test_inverse_square_law(self):
        agg = synthetic_aggregate("eps", lambda e: 7.0 / e**2)
        rep = scaling_report(agg, "eps")
        assert rep["slope"] == pytest.approx(2.0, abs=1e-9)

    def test_sqrt_law(self):
        agg = synthetic_aggregate("n", lambda n: 3.0 * math.sqrt(n))
        rep = scaling_report(agg, "n")
        assert rep["slope"] == pytest.approx(0.5, abs=1e-9)

    def test_sqrt_law_after_subtracting_n(self):
        agg = synthetic_aggregate("n", lambda n: n + 3.0 * math.sqrt(n))
        rep = scaling_report(agg, "n", subtract_n=True)
        assert rep["slope"] == pytest.approx(0.5, abs=1e-9)

    def test_subtract_n_is_refused_on_the_eps_axis(self, tmp_path, capsys):
        # the flag subtracts the full-gradient term n, which an eps sweep does not vary
        agg = synthetic_aggregate("eps", lambda e: 7.0 / e**2)
        with pytest.raises(ConfigError, match="^--subtract-n applies to axis 'n' only, not 'eps'$"):
            scaling_report(agg, "eps", subtract_n=True)
        path = tmp_path / "agg.json"
        path.write_text(json.dumps(agg))
        assert harness.main(["scaling", str(path), "--axis", "eps", "--subtract-n"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "config error: --subtract-n applies to axis 'n' only, not 'eps'\n"

    def test_insufficient_points(self):
        agg = synthetic_aggregate("eps", lambda e: 1.0 / e)
        agg["cells"] = [c for c in agg["cells"] if c["eps"] > 0.03]
        with pytest.raises(ssrgd.core.InsufficientDataError):
            scaling_report(agg, "eps")

    def test_confidence_interval_present(self):
        agg = synthetic_aggregate("eps", lambda e: 5.0 / e**2)
        rep = scaling_report(agg, "eps")
        assert rep["ci_low"] <= rep["slope"] <= rep["ci_high"]

    def test_cells_of_several_pairs_are_refused(self, tmp_path, capsys):
        agg = synthetic_aggregate("eps", lambda e: 7.0 / e**2)
        agg["cells"] += [{**c, "optimizer": "gd", "sfo_to_fosp": 1.0 / c["eps"]} for c in agg["cells"]]
        with pytest.raises(ConfigError, match=r"one \(problem, optimizer\) pair, got p/gd, p/main$"):
            scaling_report(agg, "eps")
        path = tmp_path / "agg.json"
        path.write_text(json.dumps(agg))
        assert harness.main(["scaling", str(path), "--axis", "eps"]) == 2
        assert "p/gd, p/main" in capsys.readouterr().err
        # failed cells and cells that never reached eps do not enter the fit
        for c in agg["cells"][len(agg["cells"]) // 2:]:
            if c["seed"]:
                c["failed"] = True
            else:
                c["sfo_to_fosp"] = None
        assert scaling_report(agg, "eps")["slope"] == pytest.approx(2.0, abs=1e-9)


class TestEmitPlots:
    def test_empty_aggregate_no_files(self, tmp_path):
        files = emit_plots({"cells": [], "failed": []}, {}, tmp_path)
        assert files == []
        assert json.loads((tmp_path / "plots.json").read_text()) == []

    def test_single_cell_two_svgs(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MINIMAL))
        agg = run_plan(plan)
        files = emit_plots(agg, written_charts(plan, agg), tmp_path / "plots")
        assert len(files) == 2
        for f in files:
            root = ET.fromstring(Path(f).read_text())
            assert root.tag.endswith("svg")

    def test_svgs_embed_run_ids(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MINIMAL))
        agg = run_plan(plan)
        files = emit_plots(agg, written_charts(plan, agg), tmp_path / "plots")
        rid = agg["cells"][0]["run_id"]
        assert all(rid in Path(f).read_text() for f in files)

    def test_no_scaling_plot_across_pairs(self, tmp_path):
        text = MINIMAL.replace("seeds = 0", "seeds = 0\nplot = true").replace(
            "[output]", "[optimizer:gd]\nkind = gd\nsfo_budget = 4000\n\n[output]"
        ) + "\n[sweep]\naxis = eps\ngrid = 0.2, 0.1, 0.05\n"
        plan = parse_config(write_config(tmp_path, text))
        agg = run_plan(plan)
        assert {c["optimizer"] for c in agg["cells"] if c["sfo_to_fosp"]} == {"optimizer", "gd"}
        assert json.loads((Path(plan.out_dir) / "plots.json").read_text()) == [
            "trace_f_vs_sfo.svg", "trace_gradnorm_vs_sfo.svg",
        ]

    def test_zero_sfo_to_fosp_draws_no_fit(self, tmp_path, capsys):
        # sgd started at the saddle, where the gradient is zero, meets every
        # eps before its first oracle call
        text = """
[problem]
kind = separable_saddle
d = 4
n = 16
x0 = saddle

[optimizer]
kind = sgd
sfo_budget = 200

[sweep]
axis = eps
grid = 0.2, 0.1, 0.05

[output]
dir = {out}
seeds = 0
plot = true
"""
        assert harness.main(["run", str(write_config(tmp_path, text))]) == 0
        out = tmp_path / "runs"
        agg = json.loads((out / "aggregate.json").read_text())
        assert [c["sfo_to_fosp"] for c in agg["cells"]] == [0, 0, 0]
        assert "scaling_fit.svg" not in json.loads((out / "plots.json").read_text())
        assert harness.main(["scaling", str(out / "aggregate.json"), "--axis", "eps"]) == 2
        assert "InsufficientDataError" in capsys.readouterr().err

    def test_scaling_plot_spans_grid(self, tmp_path):
        text = MINIMAL + "\n[sweep]\naxis = eps\ngrid = 0.2, 0.1, 0.05\n"
        plan = parse_config(write_config(tmp_path, text))
        agg = run_plan(plan)
        files = emit_plots(agg, written_charts(plan, agg), tmp_path / "plots")
        scaling = [f for f in files if Path(f).name == "scaling_fit.svg"]
        assert scaling
        root = ET.fromstring(Path(scaling[0]).read_text())
        assert float(root.attrib["data-xmin"]) == pytest.approx(1 / 0.2)
        assert float(root.attrib["data-xmax"]) == pytest.approx(1 / 0.05)

    @settings(max_examples=200, deadline=None)
    @example(text="a&b <c> \"d\" 'e' &amp; é ∇f δ³")
    @given(text=st.text(alphabet=st.sampled_from("&<>\"'; #xé€𝛿"), max_size=24) | st.text(max_size=24))
    def test_escape_matches_saxutils(self, text):
        from xml.sax.saxutils import escape

        assert svgplot.escape(text) == escape(text)


def reference_line_chart(series, *, title, xlabel, ylabel, logy=False, run_ids=()):
    """``svgplot.line_chart`` as it was before it streamed its input: a list
    of (x, y) tuples per series, then one pass over the lists per extent."""
    cleaned = []
    for label, xs, ys in series:
        pts = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if x is not None and y is not None
            and math.isfinite(x) and math.isfinite(y)
            and (not logy or y > 0)
        ]
        if pts:
            cleaned.append((label, pts))
    if not cleaned:
        xlo = xhi = ylo = yhi = 1.0
    else:
        xlo = min(p[0] for _, pts in cleaned for p in pts)
        xhi = max(p[0] for _, pts in cleaned for p in pts)
        ylo = min(p[1] for _, pts in cleaned for p in pts)
        yhi = max(p[1] for _, pts in cleaned for p in pts)
    frame = svgplot._Frame(xlo, max(xhi, xlo * (1 + 1e-9) + 1e-12), ylo, max(yhi, ylo + 1e-12), False, logy)
    xticks = svgplot._nice_ticks(xlo, xhi)
    yticks = svgplot._log_ticks(ylo, yhi) if logy else svgplot._nice_ticks(ylo, yhi)

    parts = svgplot._preamble(run_ids, xmin=xlo, xmax=xhi, ymin=ylo, ymax=yhi, series=len(cleaned))
    svgplot._axes(parts, frame, xticks, yticks, title, xlabel, ylabel)
    for k, (label, pts) in enumerate(cleaned):
        color = svgplot.PALETTE[k % len(svgplot.PALETTE)]
        coords = " ".join(f"{frame.px(x):.2f},{frame.py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = svgplot.MARGIN_T + 16 + 15 * k
        parts.append(
            f'<line x1="{svgplot.WIDTH - svgplot.MARGIN_R - 150}" y1="{ly - 4}" '
            f'x2="{svgplot.WIDTH - svgplot.MARGIN_R - 130}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{svgplot.WIDTH - svgplot.MARGIN_R - 125}" y="{ly}" font-size="11">'
            f'{svgplot.escape(str(label))}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def chart_outcome(chart, series, logy):
    """A chart's text, or the type and message of what it raised."""
    try:
        return chart(series, title="t", xlabel="x", ylabel="y", logy=logy, run_ids=["r<1>"])
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


NAN, INF = math.nan, math.inf
# Each case is drawn with and without logy.  Every x above 2**53 sits in a
# wide span: the tick loop never advances by a step below the float spacing
# of the axis values.
LINE_CHART_CASES = {
    "none": [("a", [1, 2, None, 4, 5], [1.0, None, 3.0, 2.0, None])],
    "nan-inf": [("a", [0, 1, 2, 3, 4, 5], [1.0, NAN, INF, -INF, 2.0, 0.5]),
                ("b", [NAN, INF, -INF, 6], [1.0, 1.0, 1.0, 0.25])],
    "nonpositive-y": [("a", [1, 2, 3, 4, 5], [0.0, -1.0, 1e-3, 10.0, -0.0]),
                      ("b", [2, 3], [-2.0, 0.5])],
    "signed-zero-ties": [("a", [0.0, -0.0, 1.0, 2.0], [-0.0, 0.0, 2.0, -0.0]),
                         ("b", [-0.0, 2.0, 0.0], [0.0, -0.0, -0.0])],
    "signed-zero-ties-reversed": [("a", [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]),
                                  ("b", [0.0, -0.0], [-1.0, 0.0])],
    "no-finite-point": [("a", [NAN, 1, INF], [1.0, INF, 2.0]), ("b", [1, 2, 3], [3.0, 4.0, 1.0]),
                        ("c", [], [])],
    "only-empty-series": [("a", [NAN], [NAN]), ("b", [], [])],
    "no-series": [],
    "above-2**53": [("a", [2**53 + 1, 2**53 + 3, 2**60 + 1, 7], [1.0, 2.0, 3.0, 0.5]),
                    ("b", [2**53, 2**62 + 5], [0.25, 4.0])],
}


def run_child(code: str, timeout: float = 120) -> str:
    """The standard output of ``python -c code`` in a fresh interpreter that
    imports this package; it fails after ``timeout`` seconds rather than hang."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout)
    assert child.returncode == 0, child.stderr
    return child.stdout


class TestLineChart:
    """``svgplot.line_chart`` streams each series twice and builds no point
    list; its text must stay byte for byte the list-building chart's."""

    @pytest.mark.parametrize("logy", [False, True])
    @pytest.mark.parametrize("case", sorted(LINE_CHART_CASES))
    def test_equals_the_list_building_chart(self, case, logy):
        series = LINE_CHART_CASES[case]
        expected = chart_outcome(reference_line_chart, series, logy)
        assert chart_outcome(svgplot.line_chart, series, logy) == expected
        assert isinstance(expected, str) and ET.fromstring(expected).tag.endswith("svg")
        if all(None not in xs and None not in ys for _, xs, ys in series):
            # the float64 columns ``emit_plots`` passes draw the same chart
            columns = [(label, array("d", xs), array("d", ys)) for label, xs, ys in series]
            assert chart_outcome(svgplot.line_chart, columns, logy) == expected

    def test_signed_zero_ties_keep_the_first_extreme(self):
        first = ET.fromstring(svgplot.line_chart(LINE_CHART_CASES["signed-zero-ties"],
                                                 title="t", xlabel="x", ylabel="y"))
        assert (first.attrib["data-xmin"], first.attrib["data-ymin"]) == ("0.0", "-0.0")
        assert first.attrib["data-ymax"] == "2.0"
        second = ET.fromstring(svgplot.line_chart(LINE_CHART_CASES["signed-zero-ties-reversed"],
                                                  title="t", xlabel="x", ylabel="y"))
        assert (second.attrib["data-xmin"], second.attrib["data-ymax"]) == ("-0.0", "0.0")

    @settings(max_examples=200, deadline=None)
    @given(
        series=st.lists(st.tuples(
            st.text(max_size=3),
            st.lists(st.sampled_from([None, NAN, INF, -INF, 0.0, -0.0, -1.0, 1e-3, 2.5, 7, 1e4, 2**53 + 1]),
                     max_size=8),
            st.lists(st.sampled_from([None, NAN, INF, -INF, 0.0, -0.0, -3.0, 1e-3, 0.5, 2, 1e5]),
                     max_size=8),
        ), max_size=4),
        logy=st.booleans(),
    )
    def test_equals_the_list_building_chart_on_mixed_series(self, series, logy):
        assert chart_outcome(svgplot.line_chart, series, logy) == chart_outcome(reference_line_chart, series, logy)

    @pytest.mark.parametrize("ys", [[1e8, 1e8 + 1.5e-8, 1e8], [1e16, 1e16], [1e300, 1e300]],
                             ids=["spread-of-an-ulp", "flat-at-1e16", "flat-at-1e300"])
    def test_axis_near_the_float_spacing_draws(self, ys):
        # a tick step below the float spacing leaves v += step unchanged, and
        # a pad of 1.0 gives a flat axis at 1e16 no span; in a child process
        # capped at 1 GiB, a tick loop that never ends fails instead of hanging
        code = ("import resource\nresource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
                f"from ssrgd import svgplot\nprint(svgplot.line_chart([('a', {list(range(len(ys)))}, {ys!r})],"
                " title='t', xlabel='x', ylabel='y'))")
        svg = run_child(code, timeout=20)
        root = ET.fromstring(svg)
        assert (root.attrib["data-ymin"], root.attrib["data-ymax"]) == (repr(min(ys)), repr(max(ys)))
        assert "nan" not in svg and "inf" not in svg and svg.count("<polyline") == 1

    def test_axis_near_the_float_spacing_draws_in_process(self):
        # the spread-of-an-ulp case above in this process, where a line-coverage
        # run sees the tick loop's exit; an alarm turns a loop that never ends
        # into a failure within a second, before its tick list grows large
        def overdue(signum, frame):
            raise TimeoutError("line_chart did not return within 1 s")

        previous = signal.signal(signal.SIGALRM, overdue)
        signal.alarm(1)
        try:
            svg = svgplot.line_chart([("a", [0, 1, 2], [1e8, 1e8 + 1.5e-8, 1e8])], title="t", xlabel="x", ylabel="y")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert ET.fromstring(svg).attrib["data-ymax"] == repr(1e8 + 1.5e-8)
        assert "nan" not in svg and "inf" not in svg and svg.count("<polyline") == 1

    @pytest.mark.parametrize("xs, ys", [
        ([0, 1], [-1e308, 1e308]), ([-1e308, 1e308], [0, 1]), ([-1.7e308, 1.7e308], [-1.7e308, 1.7e308]),
    ])
    def test_span_past_the_float_range_draws(self, xs, ys):
        # hi - lo is inf: the ticks took floor(log10(inf)) and raised OverflowError,
        # and the frame would have placed every point at nan
        svg = svgplot.line_chart([("a", xs, ys)], title="t", xlabel="x", ylabel="y")
        assert ET.fromstring(svg).attrib["data-ymax"] == repr(float(ys[1]))
        assert "nan" not in svg and "inf" not in svg
        assert '<polyline points="70.00,425.00 700.00,40.00"' in svg  # corner to corner

    @pytest.mark.parametrize("ys, logy", [
        ([-5.9e191, 1.7976931348623157e308], False), ([1e-3, 1.7976931348623157e308], True),
        ([1.7976931348623157e308] * 2, False),
    ], ids=["nice-ticks", "log-ticks", "flat-at-the-largest-float"])
    def test_ticks_ending_near_the_largest_float_draw(self, ys, logy):
        # from a step of 1 up the ticks are ints, and an end of hi + 1e-12 * span
        # past the float range is inf: every int passed it, so the loop ran until
        # memory ran out; the log ticks raised OverflowError at 10.0 ** 309
        code = ("import resource\nresource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
                f"from ssrgd import svgplot\nprint(svgplot.line_chart([('a', [0, 1], {ys!r})], logy={logy},"
                " title='t', xlabel='x', ylabel='y'))")
        svg = run_child(code, timeout=20)
        assert ET.fromstring(svg).attrib["data-ymax"] == repr(ys[1])
        assert "nan" not in svg and "inf" not in svg and svg.count("<polyline") == 1


class TestChartColumns:
    def test_cells_that_share_a_run_share_one_column_entry(self, tmp_path, monkeypatch):
        # first-order SSRGD never reads eps, so each seed's three cells share one run
        built, charts = [], {}
        chart_columns = harness.chart_columns

        def counted(trace):
            built.append(chart_columns(trace))
            return built[-1]

        monkeypatch.setattr(harness, "chart_columns", counted)
        monkeypatch.setattr(harness, "emit_plots", lambda agg, given, out: charts.update(given))
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1\nplot = true")
        plan = parse_config(write_config(tmp_path, text + "\n[sweep]\naxis = eps\ngrid = 0.2, 0.1, 0.05\n"))
        agg = run_plan(plan)
        assert len(charts) == 6 and len(built) == 2
        for seed, entry in zip((0, 1), built):
            assert all(charts[c["run_id"]] is entry for c in agg["cells"] if c["seed"] == seed)
        assert written_charts(plan, agg) == charts

    def test_columns_hold_what_the_two_charts_draw(self):
        trace = [core.TraceRecord(0, 2.0, 0.5, 0), core.TraceRecord(1, NAN, None, 3),
                 core.TraceRecord(2, 1.0, INF, 2**53 + 1)]
        cols = harness.chart_columns(trace)
        assert (cols.sfo.typecode, cols.f.typecode, cols.g_sfo.typecode, cols.g.typecode) == ("d",) * 4
        assert cols.sfo.tolist() == [0.0, 3.0, float(2**53 + 1)]
        assert cols.f.tolist()[::2] == [2.0, 1.0] and math.isnan(cols.f[1])
        assert (cols.g_sfo.tolist(), cols.g.tolist()) == ([0.0, float(2**53 + 1)], [0.5, INF])
        assert harness.chart_columns([]) == (array("d"),) * 4

    def test_plotting_holds_little_per_plotted_point(self, tmp_path):
        # 20 one-cell rows of 2500 gd steps, each step a row with f and a
        # measured norm: 100k plotted points.  Holding each cell's TraceRecord
        # list and a tuple per plotted point peaked near 176 bytes a point;
        # the chart columns peak near 44.
        text = ("[problem]\nkind = quadratic\nn = 1\nd = 1\n\n[optimizer]\nkind = gd\nsfo_budget = 2500\n\n"
                "[output]\ndir = {out}\nseeds = " + ", ".join(map(str, range(20))) + "\nplot = true\n")
        plan = parse_config(write_config(tmp_path, text))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            agg = run_plan(plan)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert not agg["failed"]
        points = sum(len(cols.f) + len(cols.g) for cols in written_charts(plan, agg).values())
        assert points == 100_000
        assert peak < 100 * points


class TestCli:
    def test_run_and_scaling(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL + "\n[sweep]\naxis = eps\ngrid = 0.2, 0.1, 0.05\n")
        assert harness.main(["run", str(cfg)]) == 0
        agg_path = tmp_path / "runs" / "aggregate.json"
        assert agg_path.is_file()
        capsys.readouterr()
        assert harness.main(["scaling", str(agg_path), "--axis", "eps"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "slope" in rep

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[optimizer]\nkind = ssrgd\n")
        assert harness.main(["run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_rejected_cell_setting_fails_only_its_cell(self, tmp_path, capsys):
        # a step size above the cap is refused when the cell's run config is
        # validated; the other cell must still run and be written
        text = MINIMAL.replace(
            "[output]",
            "[optimizer:hot]\nkind = ssrgd\neps = 0.05\nsfo_budget = 4000\n"
            "step_size = 100\n\n[output]",
        )
        assert harness.main(["run", str(write_config(tmp_path, text))]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["cells"] == 2 and len(report["failed"]) == 1
        out = tmp_path / "runs"
        agg = json.loads((out / "aggregate.json").read_text())
        bad = [c for c in agg["cells"] if c["failed"]]
        good = [c for c in agg["cells"] if not c["failed"]]
        assert [c["optimizer"] for c in bad] == ["hot"]
        assert "step_size" in bad[0]["error"]
        assert len(good) == 1 and good[0]["sfo_raw"] > 0
        assert (out / good[0]["run_id"] / "trace.csv").read_text().count("\n") > 1

    def test_svrg_on_online_problem_fails_only_its_cell(self, tmp_path, capsys):
        # svrg needs the finite-sum full gradient: on an online stream its
        # cell must fail with a package error while the sgd cell is written
        text = """
[problem]
kind = quadratic
n = 16
d = 3
sigma = 0.5

[optimizer:sgd]
kind = sgd
eps = 0.05
sfo_budget = 2000

[optimizer:svrg]
kind = svrg
eps = 0.05
sfo_budget = 2000

[output]
dir = {out}
seeds = 0
"""
        assert harness.main(["run", str(write_config(tmp_path, text))]) == 1
        agg = json.loads((tmp_path / "runs" / "aggregate.json").read_text())
        by_opt = {c["optimizer"]: c for c in agg["cells"]}
        assert by_opt["svrg"]["failed"] and by_opt["svrg"]["error"] == "svrg needs the finite-sum full gradient"
        assert agg["failed"] == [by_opt["svrg"]["run_id"]]
        assert not by_opt["sgd"]["failed"] and by_opt["sgd"]["sfo_raw"] > 0
        trace = tmp_path / "runs" / by_opt["sgd"]["run_id"] / "trace.csv"
        assert trace.read_text().count("\n") > 1

    def test_cell_out_of_memory_fails_alone(self, tmp_path, monkeypatch):
        # an online certificate's large batch can outgrow the memory left; the
        # MemoryError used to end the plan in a traceback with no aggregate
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 288. MiB for an array with shape (3428211, 11)")

        monkeypatch.setattr(harness.spectral, "certify", out_of_memory)
        text = MINIMAL.replace("[output]", "[optimizer:gd]\nkind = gd\nsfo_budget = 100\n\n[output]")
        assert harness.main(["run", str(write_config(tmp_path, text))]) == 1
        cells = json.loads((tmp_path / "runs" / "aggregate.json").read_text())["cells"]
        assert [c["error"] for c in cells] == ["Unable to allocate 288. MiB for an array with shape (3428211, 11)"] * 2

    def test_sgd_without_measurements_exits_2_before_any_cell(self, tmp_path, capsys):
        # eval_every = 0 would divide by zero inside the run; the section parse
        # refuses it against core.SETTING_RULES, so no cell runs, the gd one included
        text = MINIMAL.replace(
            "[optimizer]\nkind = ssrgd\neps = 0.05\nsfo_budget = 4000",
            "[optimizer:sgd]\nkind = sgd\neval_every = 0\nsfo_budget = 2000\n\n"
            "[optimizer:gd]\nkind = gd\nsfo_budget = 2000",
        )
        assert harness.main(["run", str(write_config(tmp_path, text))]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: [optimizer:sgd] constraint violated: eval_every is an integer >= 1"
        ]
        assert not (tmp_path / "runs").exists()

    def test_certify_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        ckpt = tmp_path / "x.npy"
        np.save(ckpt, np.zeros(3))
        assert harness.main(["certify", str(cfg), str(ckpt), "--eps", "0.1", "--delta", "0.5"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["is_sosp"] is True

    @pytest.mark.parametrize("name, vector, why", [
        ("short.npy", np.zeros(2), "shape (2,), expected (3,)"),
        ("nan.npy", np.array([0.0, np.nan, 0.0]), "non-finite"),
        ("missing.npy", None, "No such file"),
    ])
    def test_certify_rejects_bad_checkpoint(self, tmp_path, capsys, name, vector, why):
        cfg = write_config(tmp_path, MINIMAL)
        ckpt = tmp_path / name
        if vector is not None:
            np.save(ckpt, vector)
        assert harness.main(["certify", str(cfg), str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: checkpoint {ckpt}: ") and why in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, text, why", [
        ("missing.json", None, "No such file"),
        ("garbled.json", "not json", "Expecting value"),
        ("object.json", '{"foo": 1}', "not an object whose 'cells' is a list of objects"),
        ("list.json", "[1, 2]", "not an object whose 'cells' is a list of objects"),
        ("cells.json", '{"cells": [1]}', "not an object whose 'cells' is a list of objects"),
        ("fosp-word.json", '{"cells": [{"sfo_to_fosp": "x", "eps": 0.1}]}',
         "constraint violated: sfo_to_fosp is a finite number >= 0 or null"),
        ("fosp-infinite.json", '{"cells": [{"sfo_to_fosp": Infinity, "eps": 0.1}]}',
         "constraint violated: sfo_to_fosp is a finite number >= 0 or null"),
        ("fosp-negative.json", '{"cells": [{"sfo_to_fosp": -1, "eps": 0.1}]}',
         "constraint violated: sfo_to_fosp is a finite number >= 0 or null"),
        ("eps-word.json", '{"cells": [{"sfo_to_fosp": 10, "eps": "x"}]}', "constraint violated: eps > 0"),
        ("eps-zero.json", '{"cells": [{"sfo_to_fosp": 10, "eps": 0}]}', "constraint violated: eps > 0"),
        ("n-float.json", '{"cells": [{"sfo_to_fosp": 10, "n": 1.5}]}', "constraint violated: n is an integer >= 1"),
        ("seed-word.json", '{"cells": [{"sfo_to_fosp": 10, "eps": 0.1, "seed": "0"}]}',
         "constraint violated: seed is an integer"),
        # an integer past the float range reads as inf; float() of it raised OverflowError
        ("fosp-huge.json", '{"cells": [{"sfo_to_fosp": 1%s, "eps": 0.1}]}' % ("0" * 400),
         "constraint violated: sfo_to_fosp is a finite number >= 0 or null"),
        ("eps-huge.json", '{"cells": [{"sfo_to_fosp": 10, "eps": 1%s}]}' % ("0" * 400), "constraint violated: eps < inf"),
        ("n-huge.json", '{"cells": [{"sfo_to_fosp": 10, "n": 1%s}]}' % ("0" * 400),
         "constraint violated: n is an integer >= 1"),
    ])
    def test_scaling_rejects_unreadable_aggregate(self, tmp_path, capsys, name, text, why):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert harness.main(["scaling", str(path), "--axis", "eps"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: aggregate {path}: ") and why in err
        assert err.count("\n") == 1

    def test_scaling_refuses_a_subnormal_eps(self, tmp_path, capsys):
        # log(1 / 5e-324) is log(inf): np.polyfit raised LinAlgError, a traceback
        cells = [{"eps": eps, "n": 16, "seed": 0, "sfo_to_fosp": 100 * k} for k, eps in enumerate((5e-324, 0.1, 0.01), 1)]
        path = tmp_path / "aggregate.json"
        path.write_text(json.dumps({"cells": cells}))
        assert harness.main(["scaling", str(path), "--axis", "eps"]) == 2
        assert capsys.readouterr().err == "config error: constraint violated: 1/eps is a finite float\n"
        with pytest.raises(ConfigError, match=r"^constraint violated: 1/eps is a finite float$"):
            harness.scaling_report({"cells": cells}, "eps")

    def test_subnormal_eps_sweep_plots_without_its_fit(self, tmp_path):
        # the run wrote its cells, then emit_plots' fit raised LinAlgError: exit 1, no plots.json
        text = ("[problem]\nkind = separable_saddle\nd = 4\nn = 16\nx0 = saddle\n\n"
                "[optimizer]\nkind = ssrgd\nsfo_budget = 2000\n\n[sweep]\naxis = eps\ngrid = 5e-324, 0.1, 0.01\n\n"
                "[output]\ndir = {out}\nplot = true\nseeds = 0\n")
        assert harness.main(["run", str(write_config(tmp_path, text))]) == 0
        runs = tmp_path / "runs"
        assert json.loads((runs / "plots.json").read_text()) == ["trace_f_vs_sfo.svg", "trace_gradnorm_vs_sfo.svg"]
        assert [c["eps"] for c in json.loads((runs / "aggregate.json").read_text())["cells"]] == [5e-324, 0.1, 0.01]

    def test_plan_over_the_cell_cap_creates_nothing(self, tmp_path, capsys):
        text = MINIMAL.replace("seeds = 0", "seeds = 0\nmax_cells = 2")
        text += "\n[sweep]\naxis = eps\ngrid = 0.2, 0.1, 0.05\n"
        assert harness.main(["run", str(write_config(tmp_path, text))]) == 2
        assert "above the cap 2" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_diagnose_variance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        rc = harness.main([
            "diagnose", "variance", "--config", str(cfg),
            "--steps", "2", "--minibatch", "2", "--replications", "200",
        ])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is True


SADDLE_PLAN = """
[problem]
kind = separable_saddle
d = 6
n = 16
delta_plant = 0.3
noise = 0.05
seed = 0
x0 = saddle

[optimizer]
kind = ssrgd
order = second
eps = 0.05
delta = 0.3
logfactor = 8.0
sfo_budget = 30000

[output]
dir = {out}
seeds = 0, 1
"""


class TestCertificateDelta:
    def test_second_order_cell_certifies_at_its_derived_delta(self, tmp_path):
        # no delta key: the run targets sqrt(rho * eps) ~ 0.857, and a point
        # next to the planted saddle (lambda_min = -0.3) passes at that delta
        text = SADDLE_PLAN.replace("delta = 0.3\n", "").replace("logfactor = 8.0\n", "")
        text = text.replace("sfo_budget = 30000", "sfo_budget = 200").replace("seeds = 0, 1", "seeds = 0")
        plan = parse_config(write_config(tmp_path, text))
        (cell,) = run_plan(plan)["cells"]
        inst = build_problem(plan.problems[0][1])
        delta = math.sqrt(inst.spec.lipschitz_hess * 0.05)
        assert run_config(plan.optimizers[0][1], inst).delta == delta
        cert = cell["certificate"]
        assert cert["delta"] == delta
        assert cert["lambda_min_est"] == pytest.approx(-0.3, abs=1e-2)
        assert cert["is_fosp"] and cert["is_sosp"]
        assert cell["sfo_to_sosp"] is not None

    def test_explicit_delta_is_recorded(self, tmp_path):
        plan = parse_config(write_config(tmp_path, SADDLE_PLAN.replace("seeds = 0, 1", "seeds = 0")))
        (cell,) = run_plan(plan)["cells"]
        assert cell["certificate"]["delta"] == 0.3


class TestSfoToSosp:
    def test_perturbed_gd_cell_reports_the_sfo_of_its_trigger_row(self, tmp_path):
        # at delta 0.5 the planted saddle (lambda_min = -0.3) is a second-order
        # point with margin, so the first candidate, the start x0 = saddle,
        # certifies; gradient descent writes no epoch-start rows
        text = SADDLE_PLAN.replace(
            "kind = ssrgd\norder = second\neps = 0.05\ndelta = 0.3\nlogfactor = 8.0\nsfo_budget = 30000",
            "kind = perturbed_gd\neps = 0.05\ndelta = 0.5\nsfo_budget = 2000",
        )
        plan = parse_config(write_config(tmp_path, text))
        agg = run_plan(plan)
        traces = written_traces(plan, agg)
        assert len(agg["cells"]) == 2 and not agg["failed"]
        for cell in agg["cells"]:
            trigger = traces[cell["run_id"]][0]
            assert (trigger.iteration, trigger.grad_norm) == (0, 0.0)
            assert cell["sfo_to_sosp"] == trigger.sfo_count == 16


class TestBaselineDefaults:
    def test_perturbed_gd_defaults_are_the_super_epoch_params(self):
        inst = ssrgd.make_separable_saddle(d=10, n=64, delta_plant=0.4, seed=0)
        bk = baseline_kind({"kind": "perturbed_gd", "delta": 0.3}, inst, 0, 0.05)
        derived = ssrgd.algorithm.super_epoch_params(inst.spec, 0.05, 0.3, 1.0, bk.step_size)
        assert derived == {
            key: getattr(bk, key)
            for key in ("perturb_radius", "grad_threshold", "fval_threshold", "super_epoch_len")
        }
        assert bk.perturb_radius == pytest.approx(1.5e-3, rel=1e-12)
        assert bk.fval_threshold == pytest.approx(7.5e-5, rel=1e-12)
        assert bk.grad_threshold == 0.05 and bk.super_epoch_len == 15


ONLINE_SADDLE = """
[problem]
kind = separable_saddle
d = 6
n = 16
sigma = 0.05

[optimizer]
kind = ssrgd
"""

FINITE_SADDLE = ONLINE_SADDLE.replace("sigma = 0.05\n", "")


class TestOneDerivation:
    """A setting a section leaves unset comes from ``derive_config`` (or, for
    delta, from the one second-order rule); a key the section sets wins."""

    @pytest.mark.parametrize("eps", ["0", "-0.1", "nan"])
    def test_online_certify_without_positive_eps_exits_2(self, tmp_path, capsys, eps):
        ckpt = tmp_path / "ck.npy"
        np.save(ckpt, np.zeros(6))
        cfg = write_config(tmp_path, ONLINE_SADDLE, name="on.ini")
        assert harness.main(["certify", str(cfg), str(ckpt), "--eps", eps]) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: constraint violated: eps > 0"]

    @pytest.mark.parametrize("online, flag, value, message", [
        (True, "--delta", "-1", "constraint violated: delta > 0"),
        (True, "--delta", "nan", "constraint violated: delta > 0"),
        (False, "--delta", "-1", "constraint violated: delta > 0"),
        (False, "--delta", "nan", "constraint violated: delta > 0"),
        (False, "--eps", "-1", "constraint violated: eps > 0"),
        (False, "--eps", "nan", "constraint violated: eps > 0"),
        # an infinite delta used to certify the planted saddle (lambda_min = -0.3)
        (True, "--delta", "inf", "constraint violated: delta < inf"),
        (False, "--delta", "inf", "constraint violated: delta < inf"),
    ])
    def test_certify_out_of_range_target_exits_2(self, tmp_path, capsys, online, flag, value, message):
        ckpt = tmp_path / "ck.npy"
        np.save(ckpt, np.zeros(6))
        cfg = write_config(tmp_path, ONLINE_SADDLE if online else FINITE_SADDLE, name="c.ini")
        assert harness.main(["certify", str(cfg), str(ckpt), f"{flag}={value}"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]

    def test_finite_sum_certify_at_eps_zero_exits_0(self, tmp_path, capsys):
        ckpt = tmp_path / "ck.npy"
        np.save(ckpt, np.zeros(6))
        cfg = write_config(tmp_path, FINITE_SADDLE, name="c.ini")
        assert harness.main(["certify", str(cfg), str(ckpt), "--eps", "0"]) == 0
        cert = json.loads(capsys.readouterr().out)
        # the origin is the planted saddle: exactly stationary, negative curvature
        assert (cert["grad_norm"], cert["is_fosp"], cert["is_sosp"]) == (0.0, True, False)

    @pytest.mark.parametrize("flag, message", [
        ("--eps", "constraint violated: eps > 0"),
        ("--delta", "constraint violated: delta > 0"),
        ("--logfactor", "constraint violated: logfactor > 0"),
    ])
    def test_diagnose_coupled_nan_target_exits_2(self, tmp_path, capsys, flag, message):
        cfg = write_config(tmp_path, FINITE_SADDLE, name="c.ini")
        assert harness.main(["diagnose", "coupled", "--config", str(cfg), flag, "nan"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]

    def test_diagnose_coupled_infinite_logfactor_exits_2(self, tmp_path, capsys):
        # used to die in math.ceil with an OverflowError traceback
        cfg = write_config(tmp_path, FINITE_SADDLE, name="c.ini")
        assert harness.main(["diagnose", "coupled", "--config", str(cfg), "--logfactor", "inf"]) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: constraint violated: logfactor < inf"]

    @pytest.mark.parametrize("given, unset", [
        ("epoch_len = 8", "minibatch"), ("epoch_len = 16", "minibatch"), ("minibatch = 4", "epoch_len"),
    ])
    def test_svrg_derives_each_setting_the_section_leaves_unset(self, tmp_path, given, unset):
        text = f"[problem]\nkind = nonconvex_logistic\nn = 256\n\n[optimizer]\nkind = svrg\n{given}\n"
        plan = parse_config(write_config(tmp_path, text))
        inst = build_problem(plan.problems[0][1])
        cfg = run_config(plan.optimizers[0][1], inst)
        key, value = given.split(" = ")
        assert getattr(cfg, key) == int(value)
        assert getattr(cfg, unset) == ssrgd.derive_config(inst.spec, 0.01).minibatch == 16
        assert cfg.snapshot and cfg.step_size == 0.1 / inst.spec.lipschitz_grad

    def test_online_svrg_cell_fails_for_want_of_the_full_gradient(self, tmp_path):
        text = ONLINE_SADDLE.replace("kind = ssrgd", "kind = svrg\nsfo_budget = 1000")
        (cell,) = parse_config(write_config(tmp_path, text)).cells()
        summary, _ = harness._run_cell_safely(cell, {})
        assert summary["failed"]
        assert summary["error"] == "svrg needs the finite-sum full gradient"

    def test_second_order_ssrgd_and_perturbed_gd_certify_at_one_derived_delta(self, tmp_path):
        # neither section sets delta: both target sqrt(rho * eps), and
        # perturbed_gd's super-epoch settings are derived at that target
        text = SADDLE_PLAN.replace("delta = 0.3\n", "").replace("sfo_budget = 30000", "sfo_budget = 200")
        text = text.replace("[output]", "[optimizer:pgd]\nkind = perturbed_gd\neps = 0.05\n"
                            "sfo_budget = 200\n\n[output]")
        plan = parse_config(write_config(tmp_path, text))
        agg = run_plan(plan)
        inst = build_problem(plan.problems[0][1])
        delta = math.sqrt(inst.spec.lipschitz_hess * 0.05)
        assert not agg["failed"] and len(agg["cells"]) == 4
        assert [c["certificate"]["delta"] for c in agg["cells"]] == [delta] * 4
        assert run_config(plan.optimizers[0][1], inst).delta == delta
        bk = baseline_kind(plan.optimizers[1][1], inst, 0, 0.05)
        derived = ssrgd.algorithm.super_epoch_params(inst.spec, 0.05, delta, 1.0, bk.step_size)
        assert derived == {key: getattr(bk, key) for key in core.SUPER_EPOCH_KEYS}

    def test_perturbed_gd_derives_the_super_epoch_settings_it_leaves_unset(self):
        inst = ssrgd.make_separable_saddle(d=10, n=64, delta_plant=0.4, seed=0)
        oparams = {"kind": "perturbed_gd", "delta": 0.3, "perturb_radius": 0.01, "step_size": 0.05}
        bk = baseline_kind(oparams, inst, 0, 0.05)
        derived = ssrgd.algorithm.super_epoch_params(inst.spec, 0.05, 0.3, 1.0, 0.05)
        assert (bk.perturb_radius, bk.step_size) == (0.01, 0.05)
        assert derived["perturb_radius"] != 0.01
        assert {key: getattr(bk, key) for key in core.SUPER_EPOCH_KEYS} == {
            **derived, "perturb_radius": 0.01
        }


class TestParseRefusals:
    # Each bad section used to end the plan with a traceback and no aggregate.json:
    # make_quadratic(scale=nan) and the overflowing quadratic raised numpy's
    # LinAlgError, sigma = inf raised an OverflowError in derive_config, and
    # delta_plant = 1e200 an OverflowError computing the saddle's known f*.
    @pytest.mark.parametrize("section, key", [
        ("kind = quadratic\nn = 16\nd = 3\nscale = nan\n", "scale"),
        ("kind = quadratic\nn = 16\nd = 3\nscale = 1e308\nspread = 1e308\n", "spread"),
        ("kind = nonconvex_logistic\nn = 16\nd = 3\nsigma = inf\n", "sigma"),
        ("kind = separable_saddle\nn = 4\nd = 3\ndelta_plant = 1e200\n", "delta_plant"),
    ], ids=["nan-scale", "overflowing-quadratic", "infinite-sigma", "overflowing-delta-plant"])
    def test_problem_with_a_nan_parameter_fails_only_its_cells(self, tmp_path, capsys, section, key):
        text = MINIMAL.replace("[optimizer]", f"[problem:bad]\n{section}\n[optimizer]")
        assert harness.main(["run", str(write_config(tmp_path, text))]) == 1
        agg = json.loads((tmp_path / "runs" / "aggregate.json").read_text())
        by_problem = {c["problem"]: c for c in agg["cells"]}
        assert by_problem["bad"]["failed"] and key in by_problem["bad"]["error"]
        assert agg["failed"] == [by_problem["bad"]["run_id"]]
        good = by_problem["problem"]
        assert not good["failed"] and good["sfo_raw"] > 0
        assert (tmp_path / "runs" / good["run_id"] / "trace.csv").read_text().count("\n") > 1

    # A target that passes its row but leaves the float range in the derivation
    # used to end the plan with a ZeroDivisionError or OverflowError traceback.
    @pytest.mark.parametrize("problem, bad, key", [
        ("kind = nonconvex_logistic\nn = 16\nd = 3\nsigma = 0.5", "eps = 5e-324", "eps"),
        ("kind = nonconvex_logistic\nn = 16\nd = 3\nsigma = 0.5", "eps = 1e-310", "eps"),
        ("kind = separable_saddle\nn = 16\nd = 3\ndelta_plant = 0.4",
         "eps = 0.05\norder = second\ndelta = 5e-324", "delta"),
        ("kind = separable_saddle\nn = 16\nd = 3\ndelta_plant = 0.4",
         "eps = 0.05\norder = second\ndelta = 1e-310", "delta"),
    ], ids=["online-eps-5e-324", "online-eps-1e-310", "delta-5e-324", "delta-1e-310"])
    def test_target_at_the_float_edge_fails_only_its_cells(self, tmp_path, problem, bad, key):
        text = MINIMAL.replace("kind = quadratic\nn = 16\nd = 3\nspread = 0.2", problem).replace(
            "[output]", f"[optimizer:bad]\nkind = ssrgd\n{bad}\nsfo_budget = 4000\n\n[output]")
        assert harness.main(["run", str(write_config(tmp_path, text))]) == 1
        agg = json.loads((tmp_path / "runs" / "aggregate.json").read_text())
        by_optimizer = {c["optimizer"]: c for c in agg["cells"]}
        bad_cell = by_optimizer["bad"]
        assert bad_cell["failed"] and "constraint violated" in bad_cell["error"] and key in bad_cell["error"]
        assert agg["failed"] == [bad_cell["run_id"]]
        good = by_optimizer["optimizer"]
        assert not good["failed"] and good["sfo_raw"] > 0

    @pytest.mark.parametrize("sweep, message", [
        ("axis = eps\ngrid = -0.1, 0.05, 0", "[sweep] constraint violated: eps > 0"),
        ("axis = eps\ngrid = 0.1, 0.05, nan", "[sweep] constraint violated: eps > 0"),
        ("axis = eps\ngrid = 0.1, inf", "[sweep] constraint violated: eps < inf"),
        ("axis = n\ngrid = 16.2, 16.7, 0.5", "[sweep] constraint violated: n is an integer >= 1"),
        ("axis = n\ngrid = 16, 32, 0", "[sweep] constraint violated: n is an integer >= 1"),
        ("axis = n\ngrid = 16, inf", "[sweep] constraint violated: n is an integer >= 1"),
    ])
    def test_grid_value_outside_its_axis_exits_2(self, tmp_path, capsys, sweep, message):
        path = write_config(tmp_path, MINIMAL + f"\n[sweep]\n{sweep}\n")
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        assert harness.main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_accepted_n_grid_keeps_its_parsed_values(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MINIMAL + "\n[sweep]\naxis = n\ngrid = 16, 32.0\n"))
        assert plan.sweep == ("n", [16.0, 32.0])

    @pytest.mark.parametrize("key", ["eps", "delta", "step_size"])
    def test_nan_where_a_positive_key_is_expected_exits_2(self, tmp_path, capsys, key):
        path = write_config(tmp_path, MINIMAL.replace("eps = 0.05\n", f"{key} = nan\n"))
        message = f"[optimizer] constraint violated: {key} > 0"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        assert harness.main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["", "order = first\n"])
    def test_logfactor_in_first_order_exits_2(self, tmp_path, capsys, order):
        path = write_config(tmp_path, MINIMAL.replace("eps = 0.05\n", f"eps = 0.05\n{order}logfactor = 8\n"))
        message = "[optimizer] logfactor is read only with order = second"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        assert harness.main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("kind, key", [
        ("ssrgd", "perturb_radius"),
        ("ssrgd", "grad_threshold"),
        ("ssrgd", "fval_threshold"),
        ("perturbed_gd", "perturb_radius"),
    ])
    def test_nan_super_epoch_setting_exits_2(self, tmp_path, capsys, kind, key):
        # NaN used to pass the `<= 0` checks, and the cells ran with no perturbation
        head = "kind = ssrgd\norder = second\nlogfactor = 8.0\n" if kind == "ssrgd" else f"kind = {kind}\n"
        text = SADDLE_PLAN.replace("kind = ssrgd\norder = second\n", head).replace(
            "logfactor = 8.0\nsfo_budget", f"{key} = nan\nsfo_budget"
        )
        path = write_config(tmp_path, text)
        message = f"[optimizer] constraint violated: {key} > 0"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        assert harness.main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_infinite_logfactor_exits_2(self, tmp_path, capsys):
        # used to fail its cell with an OverflowError, and the plan with exit 1
        path = write_config(tmp_path, SADDLE_PLAN.replace("logfactor = 8.0\n", "logfactor = inf\n"))
        message = "[optimizer] constraint violated: logfactor < inf"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        assert harness.main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


# What each row of core.SETTING_RULES admits, written out from the paper's
# ranges (integer m, b >= 1, positive finite step and thresholds, finite
# L, rho and sigma) rather than read back from the table
POSITIVE_KEYS = ("step_size", "eps", "delta", "logfactor", "perturb_radius", "grad_threshold", "fval_threshold")
COUNT_KEYS = ("epoch_len", "minibatch", "large_batch", "super_epoch_len", "max_iters", "eval_every")
OPTIMIZER_ROWS = (*POSITIVE_KEYS, "sfo_budget", *COUNT_KEYS, "seed")
# Rows that a function argument reads, not a section key or a dataclass field:
# sample_uniform_ball's radius, lambda_min_power's length, the diagnostics'
# counts and run_plan's workers
ARGUMENT_ROWS = ("r", "iters", "replications", "epochs", "pairs", "max_paths", "workers")
# The rows of the words a section key or an argument takes, with those words
WORD_ROWS = {"order": ("first", "second"), "trace": ("full", "epoch"), "x0": ("zeros", "ones", "saddle"),
             "axis": ("eps", "n"), "estimator": ("recursive", "svrg")}


def admitted(key, value) -> bool:
    if key in WORD_ROWS:
        return value in WORD_ROWS[key]
    if key == "sfo_budget":
        return value >= 0  # inf too; NaN fails
    if key == "seed":
        return isinstance(value, int)
    if key in (*COUNT_KEYS, "n", "d", "d_cap", "iters", "replications", "pairs", "max_paths", "workers"):
        return isinstance(value, int) and value >= 1
    if key == "epochs":  # a ddof=1 standard error needs two
        return isinstance(value, int) and value >= 2
    if key in ("lipschitz_hess", "variance_bound", "sigma", "noise", "spread", "reg", "r"):
        return 0 <= value < math.inf
    if key in ("scale", "x0_scale"):
        return -math.inf < value < math.inf
    if key == "flip_prob":
        return 0 <= value <= 1
    return 0 < value < math.inf


def library_settings():
    """A problem with a step-size cap of 6180, and one RunConfig and one
    BaselineKind on it that pass every check, with every numeric field set
    (the super-epoch ones too, so a positive perturb_radius passes)."""
    spec = ssrgd.make_quadratic(d=2, n=4, scale=1e-4, spread=0.0).spec
    cfg = RunConfig(step_size=0.1, epoch_len=4, minibatch=4, eps=0.1, sfo_budget=100, large_batch=8,
                    grad_threshold=0.1, fval_threshold=0.1, super_epoch_len=5, delta=0.1, max_iters=3)
    bk = BaselineKind(kind="sgd", step_size=0.1, minibatch=2, perturb_radius=0.1, grad_threshold=0.1,
                      fval_threshold=0.1, super_epoch_len=5, eval_every=10, max_iters=20)
    return spec, cfg, bk


class TestSettingRules:
    """core.SETTING_RULES decides every numeric optimizer setting, and the
    library and the CLI refuse the same values by it."""

    def test_every_numeric_setting_has_a_row_and_every_row_a_setting(self):
        def numeric(hint):  # int or float, or a union with one; a Callable returning float is not
            union = typing.get_origin(hint) in (typing.Union, types.UnionType)
            return bool({int, float} & set(typing.get_args(hint) if union else (hint,)))

        # ProblemSpec's n keeps its own rule (a positive integer or inf); the n row is the generators'
        fields = {name for cls in (RunConfig, BaselineKind, core.ProblemSpec)
                  for name, hint in typing.get_type_hints(cls).items() if numeric(hint)}
        tables = (harness._OPTIMIZER_KEYS, harness.PROBLEM_KEYS, *(row for _, row in harness.PROBLEMS.values()))
        keys = {key for table in tables for key, default in table.items() if key_type(default) in (int, float)}
        assert set(core.SETTING_RULES) == fields | keys | set(ARGUMENT_ROWS) | set(WORD_ROWS)
        assert set(OPTIMIZER_ROWS) < set(core.SETTING_RULES)

    @pytest.mark.parametrize("key", sorted(OPTIMIZER_ROWS))
    @settings(max_examples=30, deadline=None)
    @given(value=st.one_of(st.integers(-10**3, 10**3), st.floats(-1e3, 1e3),
                           st.sampled_from([math.nan, math.inf, -math.inf, -0.0])))
    @example(value=math.nan)
    @example(value=math.inf)
    @example(value=-math.inf)
    @example(value=0)
    @example(value=-1)
    @example(value=2.5)
    def test_library_and_cli_refuse_the_same_values(self, key, value):
        spec, cfg, bk = library_settings()
        for obj in (cfg, bk):
            if key not in {f.name for f in dataclasses.fields(obj)}:
                continue
            default = {f.name: f.default for f in dataclasses.fields(obj)}[key]
            # a field left at its declared default passes, and so does RunConfig's eps = 0 (no target)
            passes = admitted(key, value) or value == default or (obj is cfg and key == "eps" and value == 0)
            changed = dataclasses.replace(obj, **{key: value})
            validate = changed.validate if obj is bk else functools.partial(changed.validate, spec)
            if passes:
                validate()
            else:
                with pytest.raises(ConfigError, match=rf"\b{key}\b"):
                    validate()
        if key == "sfo_budget":  # run_baseline reads the row for its budget argument
            if admitted(key, value):
                baselines.run_baseline(bk, spec, value)
            else:
                with pytest.raises(ConfigError, match=key):
                    baselines.run_baseline(bk, spec, value)
        if key == "seed":  # no section reads it: the plan's [output] seeds are parsed as integers
            return
        # a one-cell plan of the first kind that reads the key, with no default exemption
        kind = next((k for k, reads in harness.OPTIMIZERS.items() if key in reads), "ssrgd")
        order = "order = second\n" if key == "logfactor" else ""
        text = f"{value!r}" if isinstance(value, float) else str(value)
        plan = ("[problem]\nkind = quadratic\n\n[optimizer]\n"
                f"kind = {kind}\n{order}{key} = {text}\n\n[output]\ndir = {{out}}\nseeds = 0\n")
        # a key typed int (each count row, and sfo_budget) is parsed as an integer,
        # which refuses 2.5, NaN and inf before the row is read: the sfo_budget
        # row admits inf and non-integral budgets, but the parse does not
        integral = key_type(harness._OPTIMIZER_KEYS[key]) is int
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), plan)
            if admitted(key, value) and (isinstance(value, int) or not integral):
                ((_, params),) = parse_config(path).optimizers
                assert params[key] == value
            else:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    assert harness.main(["run", str(path)]) == 2
                assert err.getvalue().startswith("config error: [optimizer] ") and key in err.getvalue()
                assert not (Path(tmp) / "runs").exists()


def libsvm_with_cap(d_cap):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "one.svm"
        path.write_text("1 1:0.5\n-1 1:0.25\n", encoding="utf-8")
        return ssrgd.problems.load_libsvm(path, d_cap=d_cap)


def spec_with(**changes):
    return core.ProblemSpec(**{
        "n": 4, "d": 2, "lipschitz_grad": 1.0, "lipschitz_hess": 0.0, "value": lambda x: 0.0,
        "full_grad": lambda x: x, "component_grad_batch": lambda idx, x: np.tile(x, (len(idx), 1)), **changes,
    })


QUADRATIC = ssrgd.make_quadratic(d=2, n=4)
SADDLE = ssrgd.make_separable_saddle(d=3, n=4, delta_plant=0.3)
# The diagnostics' settings on these problems: b = m = 2 at the golden step, and
# the coupled run's second-order target (a 213-step window)
FIRST_ORDER = ssrgd.derive_config(QUADRATIC.spec, 0.1)
SECOND_ORDER = ssrgd.derive_config(SADDLE.spec, 0.05, 0.3, 8.0, sfo_budget=2_000)
STILL_PATH = diagnostics.SuperEpochPath(0, np.zeros((2, 2)), np.zeros(2), True)
# A sweep along which both eps and n vary, so either axis fits
TWO_AXES = {"cells": [{"run_id": str(k), "seed": 0, "eps": 0.1 / 2**k, "n": 64 * 4**k, "sfo_to_fosp": 100 * 4**k,
                       "failed": False, "optimizer": "o", "problem": "p"} for k in range(3)]}


def one_cell_plan(workers):
    with tempfile.TemporaryDirectory() as tmp:  # one row: no worker pool is started
        run_plan(ExperimentPlan([("p", {"kind": "quadratic", "n": 4, "d": 2})],
                                [("o", {"kind": "gd", "max_iters": 1})], [0], None, tmp, False, 1), workers)


def optimizer_section(key):
    """A reader of ``key`` in an ``ssrgd`` section, whose refusal drops the section prefix."""
    def read(value):
        try:
            harness._parse_optimizer("optimizer", {"kind": "ssrgd", key: str(value)})
        except ConfigError as exc:
            raise ConfigError(str(exc).removeprefix("[optimizer] ")) from None
    return read


# Each row beyond the optimizer settings, with each function that reads it,
# called with every other argument valid.  Before the diagnostics' counts and
# run_plan's workers had rows, a NaN or fractional count reached numpy as a
# TypeError (and NaN workers ran serially); verify_localization took an L of
# 0 or -1 to a ZeroDivisionError or a math domain error, and NaN to
# pass_fraction 0.0.
ROW_READERS = {
    "n": [lambda v: ssrgd.make_quadratic(d=2, n=v), lambda v: ssrgd.make_nonconvex_logistic(n=v, d=2),
          lambda v: ssrgd.make_separable_saddle(d=2, n=v, delta_plant=0.3)],
    "d": [lambda v: ssrgd.make_quadratic(d=v, n=2), lambda v: ssrgd.make_nonconvex_logistic(n=4, d=v),
          lambda v: spec_with(d=v), lambda v: core.sample_uniform_ball(core.seeded_rng(0, 0), v, 1.0)],
    **{key: [lambda v, key=key: ssrgd.make_quadratic(d=2, n=4, **{key: v})] for key in ("scale", "spread")},
    **{key: [lambda v, key=key: ssrgd.make_separable_saddle(**{"d": 2, "n": 4, "delta_plant": 0.3, key: v})]
       for key in ("delta_plant", "noise", "gamma4", "box_radius")},
    **{key: [lambda v, key=key: ssrgd.make_nonconvex_logistic(n=8, d=2, **{key: v})] for key in ("reg", "flip_prob")},
    "d_cap": [libsvm_with_cap],
    "sigma": [lambda v: ssrgd.make_online_stream(QUADRATIC, v)],
    **{key: [lambda v, key=key: spec_with(**{key: v})] for key in ("lipschitz_hess", "variance_bound", "domain_radius")},
    "lipschitz_grad": [lambda v: spec_with(lipschitz_grad=v),
                       lambda v: diagnostics.verify_localization([STILL_PATH], lipschitz_grad=v)],
    "x0_scale": [lambda v: harness.initial_point({"kind": "quadratic", "x0": "ones", "x0_scale": v}, QUADRATIC)],
    "r": [lambda v: core.sample_uniform_ball(core.seeded_rng(0, 0), 2, v)],
    "iters": [lambda v: ssrgd.spectral.lambda_min_power(QUADRATIC.spec, np.zeros(2), iters=v)],
    "replications": [lambda v: diagnostics.verify_variance_bound(QUADRATIC.spec, np.zeros((2, 2)), 1, v)],
    "estimator": [lambda v: diagnostics.verify_variance_bound(QUADRATIC.spec, np.zeros((2, 2)), 1, 2, estimator=v)],
    "epochs": [lambda v: diagnostics.verify_epoch_decrease(QUADRATIC.spec, FIRST_ORDER, v)],
    "pairs": [lambda v: diagnostics.run_coupled_experiment(SADDLE, np.zeros(3), SECOND_ORDER, v)],
    "max_paths": [lambda v: diagnostics.collect_super_epoch_paths(
        SADDLE, diagnostics.localization_config(SADDLE.spec, SECOND_ORDER), [0], x0=np.zeros(3), max_paths=v)],
    "workers": [one_cell_plan],
    **{key: [optimizer_section(key)] for key in ("order", "trace")},
    "x0": [lambda v: harness.initial_point({"kind": "separable_saddle", "x0": v}, SADDLE)],
    "axis": [lambda v: scaling_report(TWO_AXES, v)],
}
# The readers of the (eps, delta) targets, which used to take an infinite one
TARGET_READERS = {
    "derive_config": lambda eps, delta: ssrgd.derive_config(SADDLE.spec, eps, delta),
    "super_epoch_params": lambda eps, delta: ssrgd.algorithm.super_epoch_params(SADDLE.spec, eps, delta, 1.0, 0.1),
    "certify": lambda eps, delta: ssrgd.spectral.certify(SADDLE.spec, np.zeros(3), eps, delta),
}


class TestRowReaders:
    """Every function that reads a row of core.SETTING_RULES beyond the
    optimizer settings refuses what the row refuses, by name, and takes
    what it admits."""

    def test_every_new_row_has_a_reader(self):
        assert set(ROW_READERS) == set(core.SETTING_RULES) - set(OPTIMIZER_ROWS)

    @pytest.mark.parametrize("key, reader", [
        pytest.param(key, reader, id=f"{key}-{i}") for key, readers in ROW_READERS.items()
        for i, reader in enumerate(readers)
    ])
    @settings(max_examples=30, deadline=None)  # small integers, so that a valid n or d builds fast
    @given(value=st.one_of(st.integers(-20, 20), st.floats(-1e3, 1e3),
                           st.sampled_from([math.nan, math.inf, -math.inf, -0.0])))
    @example(value=math.nan)
    @example(value=math.inf)
    @example(value=-math.inf)
    @example(value=0)
    @example(value=-1)
    @example(value=2.5)
    @example(value=1)
    def test_reader_refuses_exactly_what_the_row_refuses(self, key, reader, value):
        if admitted(key, value):
            reader(value)
        else:
            with pytest.raises(ConfigError, match=rf"^constraint violated: {key} "):
                reader(value)

    @pytest.mark.parametrize("key, reader", [
        pytest.param(key, reader, id=f"{key}-{i}") for key in WORD_ROWS for i, reader in enumerate(ROW_READERS[key])
    ])
    def test_word_reader_takes_exactly_its_words(self, key, reader):
        for word in WORD_ROWS[key]:
            reader(word)
        for other in ("", WORD_ROWS[key][0].upper(), None):
            with pytest.raises(ConfigError, match=rf"^constraint violated: {key} is one of "):
                reader(other)

    @pytest.mark.parametrize("reader", TARGET_READERS)
    @pytest.mark.parametrize("key", ["eps", "delta"])
    @pytest.mark.parametrize("value, rule", [(math.inf, "< inf"), (-math.inf, "> 0"), (math.nan, "> 0")])
    def test_targets_refuse_what_their_rows_refuse(self, reader, key, value, rule):
        targets = {"eps": 0.1, "delta": 0.3, key: value}
        with pytest.raises(ConfigError, match=f"^constraint violated: {key} {re.escape(rule)}$"):
            TARGET_READERS[reader](**targets)
        TARGET_READERS[reader](**{**targets, key: 0.2})


class Captured(Exception):
    """Carries what a patched optimizer entry was given out of ``run_cell``."""


class TestDefaultBudget:
    @pytest.mark.parametrize("kind", harness.OPTIMIZERS)
    def test_cell_without_sfo_budget_runs_at_ten_million(self, tmp_path, monkeypatch, kind):
        def run_ssrgd(spec, cfg, **kwargs):
            raise Captured(cfg.sfo_budget)

        def run_baseline(bk, spec, budget, **kwargs):
            raise Captured(budget)

        monkeypatch.setattr(harness.algorithm, "run_ssrgd", run_ssrgd)
        monkeypatch.setattr(harness.baselines, "run_baseline", run_baseline)
        text = SADDLE_PLAN.replace("kind = ssrgd", f"kind = {kind}").replace("sfo_budget = 30000\n", "")
        if kind != "ssrgd":  # keys only ssrgd reads
            text = text.replace("order = second\n", "").replace("logfactor = 8.0\n", "")
        (cell, _) = parse_config(write_config(tmp_path, text)).cells()
        with pytest.raises(Captured) as got:
            harness.run_cell(cell, {})
        assert got.value.args == (10**7,)


# An eps sweep over every optimizer kind (ssrgd in both orders) on a finite
# sum, an online stream and the planted saddle; gd, perturbed_gd and svrg
# fail on the online stream, which has no full gradient.
SWEEP_ALL_KINDS = """
[problem:logistic]
kind = nonconvex_logistic
n = 64
d = 5
seed = 2

[problem:online]
kind = nonconvex_logistic
n = 64
d = 5
seed = 2
sigma = 0.5

[problem:saddle]
kind = separable_saddle
d = 6
n = 16
x0 = saddle

[optimizer:first]
kind = ssrgd
sfo_budget = 2000

[optimizer:second]
kind = ssrgd
order = second
delta = 0.3
logfactor = 8
sfo_budget = 2000
trace = epoch

[optimizer:pgd]
kind = perturbed_gd
delta = 0.3
sfo_budget = 1000

[optimizer:gd]
kind = gd
sfo_budget = 1000

[optimizer:sgd]
kind = sgd
minibatch = 4
eval_every = 10
sfo_budget = 1000

[optimizer:svrg]
kind = svrg
sfo_budget = 1000

[sweep]
axis = eps
grid = 0.1, 0.05, 0.025

[output]
dir = {out}
seeds = 0, 1
"""


class TestSharedRuns:
    def test_each_cell_writes_what_its_lone_run_gives(self, tmp_path, monkeypatch):
        runs = []
        for module, name in ((harness.algorithm, "run_ssrgd"), (harness.baselines, "run_baseline")):
            def counted(*args, _run=getattr(module, name), **kwargs):
                runs.append(args)
                return _run(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        plan = parse_config(write_config(tmp_path, SWEEP_ALL_KINDS))
        cells = plan.cells()
        agg = run_plan(plan)
        # second-order ssrgd, perturbed_gd and online ssrgd (its large batch)
        # read eps, and a run that raises is not stored, so each seed's 54
        # cells hold 10 (logistic: 1 + 3 + 3 + 1 + 1 + 1) + 16 (online:
        # 3 + 3 + 3 + 3 + 1 + 3) + 10 (saddle) = 36 runs
        assert len(cells) == 108 and len(runs) == 72
        failed = [c.run_id for c in cells if c.problem_name == "online"
                  and c.optimizer_name in ("gd", "pgd", "svrg")]
        assert len(failed) == 18
        assert [c["run_id"] for c in agg["cells"]] == [c.run_id for c in cells]
        assert agg["failed"] == failed
        written = output_bytes(plan)
        assert json.loads(written["aggregate.json"]) == agg
        for cell in cells:
            summary, trace = harness._run_cell_safely(cell, {})
            assert written[f"{cell.run_id}/summary.json"].decode() == (
                json.dumps(summary, indent=2, sort_keys=True) + "\n"
            )
            assert written[f"{cell.run_id}/trace.csv"].decode() == harness._trace_to_csv(trace)


    def test_each_distinct_trace_is_serialized_once_per_row(self, tmp_path, monkeypatch):
        rows, calls = [], []
        real_row, real_csv = harness._run_row, harness._trace_to_csv

        def spy_row(cells):
            results = real_row(cells)
            rows.append([(cell.run_id, trace) for cell, (_, trace) in zip(cells, results)])
            return results

        def spy_csv(trace):
            calls.append(id(trace))
            return real_csv(trace)

        monkeypatch.setattr(harness, "_run_row", spy_row)
        monkeypatch.setattr(harness, "_trace_to_csv", spy_csv)
        plan = parse_config(write_config(tmp_path, SWEEP_ALL_KINDS))
        run_plan(plan)
        traces = {id(trace) for row in rows for _, trace in row}  # every trace is still alive
        assert sorted(calls) == sorted(traces)
        assert len(traces) < sum(len(row) for row in rows) == 108
        written = output_bytes(plan)
        for run_id, trace in (cell for row in rows for cell in row):
            assert written[f"{run_id}/trace.csv"].decode() == real_csv(trace)

    def test_each_row_builds_its_problem_once_per_n(self, tmp_path, monkeypatch):
        built = []

        def counted(params, n_override=None, _build=harness.build_problem):
            built.append(n_override)
            return _build(params, n_override)

        monkeypatch.setattr(harness, "build_problem", counted)
        plan = parse_config(write_config(tmp_path, SWEEP_ALL_KINDS))
        run_plan(plan)
        # 3 problems x 6 optimizers x 2 seeds = 36 rows of 3 eps values each
        assert len(plan.cells()) == 108 and built == [None] * 36
        built.clear()
        text = MINIMAL.replace("seeds = 0", "seeds = 0, 1") + "\n[sweep]\naxis = n\ngrid = 16, 32\n"
        agg = run_plan(parse_config(write_config(tmp_path, text)))
        assert built == [16.0, 32.0, 16.0, 32.0]
        assert [c["n"] for c in agg["cells"]] == [16, 16, 32, 32]  # plan order: n, then seed


class TestParallelWorkers:
    def test_worker_pool_matches_serial(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MULTI))
        run_plan(plan, workers=1)
        serial = output_bytes(plan)
        run_plan(plan, workers=2)
        assert output_bytes(plan) == serial
        assert sum(name.endswith("/trace.csv") for name in serial) == 12
        assert sum(name.endswith("/summary.json") for name in serial) == 12

    def test_eps_sweep_pool_matches_serial(self, tmp_path):
        # the pool's tasks are rows, each with its own run table
        plan = parse_config(write_config(tmp_path, SWEEP_ALL_KINDS))
        run_plan(plan, workers=1)
        serial = output_bytes(plan)
        run_plan(plan, workers=2)
        assert output_bytes(plan) == serial
        assert sum(name.endswith("/trace.csv") for name in serial) == 108
        assert sum(name.endswith("/summary.json") for name in serial) == 108

    def test_workers_flag_leaves_the_environment_alone(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SSRGD_WORKERS", raising=False)
        cfg = write_config(tmp_path, MINIMAL)  # one cell: no pool is started
        assert harness.main(["run", str(cfg), "--workers", "3"]) == 0
        assert "SSRGD_WORKERS" not in os.environ
        assert harness.main(["run", str(cfg), "--workers", "0"]) == 2
        assert "config error: constraint violated: workers is an integer >= 1" in capsys.readouterr().err


class TestDiagnoseCli:
    def test_coupled(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SADDLE_PLAN, name="saddle.ini")
        rc = harness.main([
            "diagnose", "coupled", "--config", str(cfg), "--pairs", "4",
            "--eps", "0.05", "--delta", "0.3", "--logfactor", "8.0",
        ])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["escape_frequency"] >= 0.75
        assert all(p["coupled"] for p in rep["pairs"])

    def test_out_writes_the_printed_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SADDLE_PLAN, name="saddle.ini")
        out = tmp_path / "coupled.json"
        assert harness.main([
            "diagnose", "coupled", "--config", str(cfg), "--pairs", "2", "--out", str(out),
        ]) == 0
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

    @pytest.mark.parametrize("target", ["missing/coupled.json", "."])
    def test_unwritable_out_exits_2_before_the_experiment(self, tmp_path, capsys, monkeypatch, target):
        # a directory that does not exist, or a directory itself: the report
        # could not be written, so the experiment must not run first
        ran = []
        monkeypatch.setattr(
            "ssrgd.diagnostics.run_coupled_experiment", lambda *args, **kwargs: ran.append(args)
        )
        cfg = write_config(tmp_path, SADDLE_PLAN, name="saddle.ini")
        out = tmp_path / target
        assert harness.main([
            "diagnose", "coupled", "--config", str(cfg), "--pairs", "2", "--out", str(out),
        ]) == 2
        stdout, err = capsys.readouterr()
        assert ran == [] and stdout == ""
        assert err.startswith(f"config error: --out {out}:") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_problem_without_a_difference_oracle_exits_2(self, tmp_path, capsys, monkeypatch):
        # the lockstep run needs stacked oracles; UnsupportedOracleError is a
        # package error, so the CLI reports it in one line
        build = harness.build_problem

        def without_diff(section):
            inst = build(section)
            inst.spec.grad_diff_batch = None
            return inst

        monkeypatch.setattr(harness, "build_problem", without_diff)
        cfg = write_config(tmp_path, SADDLE_PLAN, name="saddle.ini")
        assert harness.main(["diagnose", "coupled", "--config", str(cfg), "--pairs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: UnsupportedOracleError: ") and err.count("\n") == 1

    def test_package_error_is_one_line_and_exit_2(self, tmp_path, capsys):
        # the planted saddle has lambda_min = -0.3, so it is no saddle at delta 0.5
        cfg = write_config(tmp_path, SADDLE_PLAN, name="saddle.ini")
        assert harness.main(["diagnose", "coupled", "--config", str(cfg), "--delta", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInputError: x_tilde is not a saddle")
        assert err.count("\n") == 1

    def test_other_exceptions_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a package error")

        monkeypatch.setattr("ssrgd.diagnostics.run_coupled_experiment", broken)
        cfg = write_config(tmp_path, SADDLE_PLAN, name="saddle.ini")
        with pytest.raises(RuntimeError, match="not a package error"):
            harness.main(["diagnose", "coupled", "--config", str(cfg)])

    def test_localization(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SADDLE_PLAN, name="saddle.ini")
        rc = harness.main([
            "diagnose", "localization", "--config", str(cfg),
            "--super-epochs", "3", "--budget", "30000",
        ])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["paths"] >= 3

    def test_localization_derives_the_super_epoch_at_the_capped_step(self, tmp_path, monkeypatch):
        # the default flags derive a step above 1/(2L); at the capped step
        # 0.95/(2L) the super epoch lasts 225 steps, not the uncapped step's 173
        seen = []

        def collect(inst, cfg, **kwargs):
            seen.append((inst.spec, cfg))
            return []

        monkeypatch.setattr("ssrgd.diagnostics.collect_super_epoch_paths", collect)
        text = SADDLE_PLAN.replace("d = 6\nn = 16\n", "d = 10\nn = 64\n")
        cfg = write_config(tmp_path, text, name="saddle.ini")
        # the stub collects no path, which the verdict refuses
        assert harness.main(["diagnose", "localization", "--config", str(cfg)]) == 2
        ((spec, run_cfg),) = seen
        eta = 0.95 / (2.0 * spec.lipschitz_grad)
        derived = ssrgd.algorithm.super_epoch_params(spec, 0.05, 0.3, 8.0, eta)
        assert run_cfg.step_size == eta and run_cfg.super_epoch_len == 225
        assert {key: getattr(run_cfg, key) for key in derived} == derived

    def test_localization_without_a_path_exits_2(self, tmp_path, capsys):
        # a zero budget runs no super epoch from the saddle: nothing to judge
        cfg = write_config(tmp_path, SADDLE_PLAN, name="saddle.ini")
        assert harness.main(["diagnose", "localization", "--config", str(cfg), "--budget", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: InsufficientDataError: no super-epoch path")
        assert err.count("\n") == 1

    def test_epoch_decrease(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL, name="plain.ini")
        rc = harness.main([
            "diagnose", "epoch-decrease", "--config", str(cfg),
            "--replications", "200",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize("subcommand", ["variance", "epoch-decrease", "coupled", "localization"])
    def test_online_config_exits_2(self, tmp_path, capsys, subcommand):
        # sigma turns the planted saddle into an online stream, which has no
        # full gradient; each diagnostic refuses it by name
        text = SADDLE_PLAN.replace("x0 = saddle", "x0 = saddle\nsigma = 0.05")
        cfg = write_config(tmp_path, text, name="online.ini")
        assert harness.main(["diagnose", subcommand, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite-sum" in err and err.count("\n") == 1

    @pytest.mark.parametrize("flags, why", [
        (["variance", "--minibatch", "0"], "constraint violated: minibatch is an integer >= 1"),
        (["variance", "--replications", "0"], "constraint violated: replications is an integer >= 1"),
        (["coupled", "--pairs", "0"], "constraint violated: pairs is an integer >= 1"),
        (["coupled", "--pairs", "-2"], "constraint violated: pairs is an integer >= 1"),
        (["localization", "--super-epochs", "0"], "--super-epochs: constraint violated: max_paths is an integer >= 1"),
        (["epoch-decrease", "--replications", "1"], "--replications: constraint violated: epochs is an integer >= 2"),
    ])
    def test_empty_or_zero_sized_request_exits_2(self, tmp_path, capsys, flags, why):
        cfg = write_config(tmp_path, SADDLE_PLAN, name="saddle.ini")
        assert harness.main(["diagnose", *flags, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and why in err and err.count("\n") == 1

    def test_scaling_subtract_n_flag(self, tmp_path, capsys):
        agg = synthetic_aggregate("n", lambda n: n + 3.0 * math.sqrt(n))
        path = tmp_path / "agg.json"
        path.write_text(json.dumps(agg))
        rc = harness.main(["scaling", str(path), "--axis", "n", "--subtract-n"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["slope"] == pytest.approx(0.5, abs=1e-9)


class TestDiagnoseReportKeys:
    """Each ``ssrgd diagnose`` report prints its keys in one fixed order."""

    @pytest.mark.parametrize("flags, config, keys, row_key, row_keys", [
        (["variance", "--steps", "2", "--replications", "20"], MINIMAL,
         ["estimator", "replications", "passed", "rows"], "rows", ["t", "estimate", "bound", "stderr", "passed"]),
        (["epoch-decrease", "--replications", "2"], MINIMAL,
         ["f_start", "mean_f_end", "stderr_f_end", "decrease_term", "passed", "svrg_mean_f_end", "svrg_gap"],
         None, None),
        (["coupled", "--pairs", "2"], SADDLE_PLAN,
         ["escape_frequency", "fdecrease_frequency", "travel_threshold", "radius", "r0", "window", "c1", "pairs"],
         "pairs", ["escape_iter", "fdecrease_iter", "max_travel", "max_fdrop", "coupled"]),
        (["localization", "--super-epochs", "1", "--budget", "3000"], SADDLE_PLAN,
         ["pass_fraction", "paths", "path_passed", "increase_steps"], None, None),
    ])
    def test_key_order(self, tmp_path, capsys, flags, config, keys, row_key, row_keys):
        cfg = write_config(tmp_path, config)
        assert harness.main(["diagnose", *flags[:1], "--config", str(cfg), *flags[1:]]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert list(rep) == keys
        if row_key is not None:
            assert rep[row_key] and all(list(row) == row_keys for row in rep[row_key])


def test_super_epoch_keys_name_one_setting_each():
    # the four settings keep one name: the fields of SuperEpoch, RunConfig and
    # BaselineKind that hold them, their rows of SETTING_RULES and the harness keys
    keys = core.SUPER_EPOCH_KEYS
    assert [f.name for f in dataclasses.fields(core.SuperEpoch) if f.default is dataclasses.MISSING] == list(keys)
    assert all(key in core.SETTING_RULES for key in keys)
    assert set(harness.OPTIMIZERS["perturbed_gd"]) == {"step_size", "max_iters", *keys}
    values = dict(zip(keys, (0.25, 0.125, 0.5, 7)))
    cfg = RunConfig(step_size=0.1, epoch_len=2, minibatch=2, eps=0.1, sfo_budget=10, **values)
    bk = BaselineKind(kind="perturbed_gd", step_size=0.1, **values)
    for holder in (cfg, bk):
        se = holder.super_epoch()
        assert {key: getattr(holder, key) for key in keys} == {key: getattr(se, key) for key in keys} == values


class TestOversizedDraws:
    """A draw too large to allocate fails only its own cell: numpy's
    MemoryError or ValueError becomes a ConfigError that names its size."""

    @pytest.mark.parametrize("problem, optimizer, size", [
        ("", "kind = ssrgd\nminibatch = 1000000000000000\nepoch_len = 1", "10^15"),
        ("", "kind = sgd\nminibatch = 1000000000000000", "10^15"),
        ("sigma = 0.5\n", "kind = ssrgd\nlarge_batch = 1000000000000000", "10^15"),
        ("sigma = 0.5\n", "kind = ssrgd\neps = 1e-100", "10^200"),  # an anchor of about 1e200 ids
    ])
    def test_one_cell_plan_exits_1_with_the_aggregate(self, tmp_path, capsys, problem, optimizer, size):
        text = (f"[problem]\nkind = nonconvex_logistic\nn = 64\nd = 5\n{problem}\n"
                f"[optimizer]\n{optimizer}\nsfo_budget = 1000\n\n[output]\ndir = {{out}}\n")
        assert harness.main(["run", str(write_config(tmp_path, text))]) == 1
        (cell,) = json.loads((tmp_path / "runs" / "aggregate.json").read_text(encoding="utf-8"))["cells"]
        assert cell["failed"] and cell["error"] == f"a draw of {size} indices is too large to allocate"
        assert "Traceback" not in capsys.readouterr().err


class TestEscapeRateChart:
    def test_emitted_for_multi_seed_certified_cells(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MULTI))
        agg = run_plan(plan)
        files = emit_plots(agg, written_charts(plan, agg), tmp_path / "plots")
        names = {Path(f).name for f in files}
        assert "escape_rate.svg" in names
        root = ET.fromstring(
            (tmp_path / "plots" / "escape_rate.svg").read_text()
        )
        assert int(root.attrib["data-bars"]) >= 1


class TestSfoExtraction:
    def test_first_fosp_uses_measured_rows(self):
        trace = [
            harness.TraceRecord(0, 1.0, 0.5, 10, Event.EPOCH_START),
            harness.TraceRecord(1, 0.9, None, 20, Event.NONE),
            harness.TraceRecord(2, 0.5, 0.09, 30, Event.EPOCH_START),
        ]
        assert sfo_at_first_fosp(trace, 0.1) == 30
        assert sfo_at_first_fosp(trace, 0.01) is None


def key_type(default):
    return default if isinstance(default, type) else type(default)


def value_strategy(key, default):
    """Values of a problem key's type that every generator accepts at small n and d."""
    if key == "x0":
        return st.sampled_from(["zeros", "ones", "saddle"])
    typ = key_type(default)
    if typ is int:
        return st.integers(2, 6)
    if typ is float:
        return st.floats(0.05, 1.0)
    return st.text("abcdefghijklmnopqrstuvwxyz0123456789_./-", min_size=1, max_size=12)


@st.composite
def problem_sections(draw):
    kind = draw(st.sampled_from(sorted(harness.PROBLEMS)))
    row = harness.PROBLEMS[kind][1]
    keys = {**harness.PROBLEM_KEYS, **row}
    required = [k for k, v in row.items() if isinstance(v, type)]
    optional = sorted(set(keys) - {"kind", *required})
    chosen = required + draw(st.lists(st.sampled_from(optional), unique=True))
    return {"kind": kind, **{k: draw(value_strategy(k, keys[k])) for k in chosen}}


def section_text(params, name="problem") -> str:
    lines = [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in params.items()]
    return f"[{name}]\n" + "\n".join(lines) + "\n\n[optimizer]\nkind = ssrgd\n"


README_ENTRY = re.compile(r"`(\w+)`(?: = ([^\s,]+))?(?: \(generator ([^)]+)\))?")


def readme_table(header) -> dict:
    """The README table under ``header``: its first cell -> its last, by row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split(f"\n{header}\n", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    return {cells[0]: cells[-1] for cells in (line.strip("| ").split(" | ") for line in lines)}


class TestProblemRegistry:
    @settings(max_examples=150, deadline=None)
    @given(params=problem_sections())
    def test_sections_round_trip_and_build(self, params):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "plan.ini"
            path.write_text(section_text(params), encoding="utf-8")
            plan = parse_config(path)
        assert plan.problems == [("problem", params)]
        if params["kind"] == "libsvm":
            return
        inst = build_problem(plan.problems[0][1])
        row = harness.PROBLEMS[params["kind"]][1]
        assert inst.spec.d == params.get("d", row["d"])
        if "sigma" in params:
            assert inst.spec.mode is Mode.ONLINE and inst.spec.variance_bound == params["sigma"]
        else:
            assert inst.spec.n == params.get("n", row["n"])

    @pytest.mark.parametrize("kind", sorted(harness.PROBLEMS))
    def test_row_keys_are_generator_keywords(self, kind):
        generator, row = harness.PROBLEMS[kind]
        keywords = {
            name for name, p in inspect.signature(generator).parameters.items()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        }
        assert set(row) <= keywords

    def test_key_of_another_kind_is_rejected_naming_the_kind(self, tmp_path):
        rejected = 0
        for kind, (_, row) in harness.PROBLEMS.items():
            for other, (_, other_row) in harness.PROBLEMS.items():
                for key in set(other_row) - set(row) - set(harness.PROBLEM_KEYS):
                    params = {"kind": kind, "path": str(tmp_path)} if kind == "libsvm" else {"kind": kind}
                    value = "x" if isinstance(other_row[key], type) else other_row[key]
                    path = write_config(tmp_path, section_text({**params, key: value}, name="problem:p"))
                    with pytest.raises(ConfigError, match=rf"^\[problem:p\] \(kind = {kind}\) unknown key {key!r}"):
                        parse_config(path)
                    rejected += 1
        assert rejected >= 20

    def test_libsvm_builds_through_the_harness(self, tmp_path):
        data = tmp_path / "tiny.svm"
        data.write_text("1 1:0.5 3:1.0\n-1 2:0.25\n+1 1:1.0 2:-0.5\n-1 3:2.0\n", encoding="utf-8")
        text = f"[problem:svm]\nkind = libsvm\npath = {data}\nd_cap = 8\nreg = 0.2\n\n[optimizer]\nkind = gd\n"
        plan = parse_config(write_config(tmp_path, text))
        assert plan.problems == [("svm", {"kind": "libsvm", "path": str(data), "d_cap": 8, "reg": 0.2})]
        inst = build_problem(plan.problems[0][1])
        direct = ssrgd.problems.load_libsvm(data, d_cap=8, reg=0.2)
        assert (inst.spec.n, inst.spec.d, inst.spec.mode) == (4, 3, Mode.FINITE_SUM)
        x = np.array([0.3, -0.2, 0.1])
        assert inst.spec.value(x) == direct.spec.value(x)
        online = build_problem({**plan.problems[0][1], "sigma": 0.1, "seed": 3})
        assert online.spec.mode is Mode.ONLINE and online.base.spec.d == 3

    def test_n_sweep_over_a_kind_without_n_is_refused(self, tmp_path):
        data = tmp_path / "tiny.svm"
        data.write_text("1 1:0.5\n-1 2:0.25\n", encoding="utf-8")
        text = (
            "[sweep]\naxis = n\ngrid = 16, 64, 256\n\n[problem:quad]\nkind = quadratic\n\n"
            f"[problem:svm]\nkind = libsvm\npath = {data}\n\n[optimizer]\nkind = gd\n"
        )
        with pytest.raises(ConfigError, match=r"^\[problem:svm\] kind libsvm has no n "):
            parse_config(write_config(tmp_path, text))
        assert len(parse_config(write_config(tmp_path, text.replace("axis = n", "axis = eps"))).cells()) == 6

    def test_libsvm_without_path_is_refused(self, tmp_path):
        text = "[problem]\nkind = libsvm\nd_cap = 8\n\n[optimizer]\nkind = gd\n"
        with pytest.raises(ConfigError, match=r"^\[problem\] kind libsvm needs 'path'$"):
            parse_config(write_config(tmp_path, text))

    def test_readme_lists_each_kind_with_its_keys_and_defaults(self):
        rows = readme_table("| problem kind | generator | keys and harness defaults |")
        tables = {"every kind": (None, harness.PROBLEM_KEYS)}
        tables.update({f"`{kind}`": value for kind, value in harness.PROBLEMS.items()})
        assert set(rows) == set(tables)
        for label, (generator, keys) in tables.items():
            listed = {key: (default, theirs) for key, default, theirs in README_ENTRY.findall(rows[label])}
            assert list(listed) == list(keys), label
            takes = inspect.signature(generator).parameters if generator else {}
            for key, (default, theirs) in listed.items():
                ours = keys[key]
                assert default == ("" if isinstance(ours, type) else str(ours)), (label, key)
                own = takes[key].default if key in takes else inspect.Parameter.empty
                differs = own is not inspect.Parameter.empty and own != ours
                assert theirs == (str(own) if differs else ""), (label, key)
        # the optimizer table: the keys each kind reads, in order, with defaults
        rows = readme_table("| optimizer kind | keys and defaults |")
        tables = {"every kind": ("kind", "eps", "delta", "sfo_budget")}
        tables.update({f"`{kind}`": keys for kind, keys in harness.OPTIMIZERS.items()})
        assert set(rows) == set(tables)
        for label, keys in tables.items():
            listed = {key: default for key, default, _ in README_ENTRY.findall(rows[label])}
            assert list(listed) == list(keys), label
            for key, default in listed.items():
                ours = harness._OPTIMIZER_KEYS[key]
                assert default == ("" if isinstance(ours, type) else str(ours)), (label, key)
        # the accepted values: each key sits in the row whose last cell states its rule
        rows = readme_table("| setting | accepted values |")
        accepted = {key: text for keys, text in rows.items() for key in re.findall(r"`(\w+)`", keys)}
        assert accepted == {key: " and ".join(rule for _, rule in rules) for key, rules in core.SETTING_RULES.items()}


def optimizer_value(key) -> str:
    """A valid config value for an optimizer key."""
    default = harness._OPTIMIZER_KEYS[key]
    return {int: "3", float: "0.5"}[default] if isinstance(default, type) else str(default)


class TestOptimizerKeys:
    """An optimizer section is read against the keys of its own kind."""

    @pytest.mark.parametrize("kind", harness.OPTIMIZERS)
    def test_key_the_kind_does_not_read_exits_2_naming_section_and_kind(self, tmp_path, capsys, kind):
        reads = {"kind", "eps", "delta", "sfo_budget", *harness.OPTIMIZERS[kind]}
        unread = [key for key in harness._OPTIMIZER_KEYS if key not in reads]
        assert unread
        for key in unread:
            text = MINIMAL.replace("[optimizer]\nkind = ssrgd", f"[optimizer:o]\nkind = {kind}")
            text = text.replace("sfo_budget = 4000\n", f"sfo_budget = 4000\n{key} = {optimizer_value(key)}\n")
            path = write_config(tmp_path, text)
            with pytest.raises(ConfigError, match=rf"^\[optimizer:o\] \(kind = {kind}\) unknown key {key!r}"):
                parse_config(path)
        assert harness.main(["run", str(path)]) == 2
        assert f"[optimizer:o] (kind = {kind}) unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("kind", harness.OPTIMIZERS)
    def test_every_key_the_kind_reads_parses_and_only_given_keys_are_kept(self, tmp_path, kind):
        for key in harness.OPTIMIZERS[kind]:
            # logfactor is read only in second order, so it comes with its order key
            extra = "order = second\n" if key == "logfactor" else ""
            text = f"[problem]\nkind = quadratic\n\n[optimizer]\nkind = {kind}\n{extra}{key} = {optimizer_value(key)}\n"
            ((_, params),) = parse_config(write_config(tmp_path, text)).optimizers
            assert set(params) == {"kind", key} | ({"order"} if extra else set())


OUTPUT = MINIMAL[MINIMAL.index("[output]"):]
SWEEP = MINIMAL + "\n[sweep]\naxis = eps\ngrid = 0.1\n"


class TestRefusals:
    """Each refusal of the config parser and the harness entry points, by
    message, and the edge branches no other test reaches."""

    @pytest.mark.parametrize("text, message", [
        pytest.param(MINIMAL.replace("seeds = 0", "seeds = 0\nplot = maybe"),
                     "[output] key 'plot': expected bool, got 'maybe'", id="bool"),
        pytest.param(SWEEP.replace("grid = 0.1", "grid = 0.1, x"),
                     "[sweep] grid must be a comma-separated number list", id="grid"),
        pytest.param(SWEEP.replace("grid = 0.1", "grid = ,"), "[sweep] grid must be nonempty", id="empty-grid"),
        pytest.param(SWEEP.replace("axis = eps", "axis = d"),
                     "[sweep] constraint violated: axis is one of eps, n", id="axis"),
        pytest.param(SWEEP.replace("axis = eps\n", ""),
                     "[sweep] constraint violated: axis is one of eps, n", id="no-axis"),
        pytest.param(MINIMAL[:MINIMAL.index("[optimizer]")] + OUTPUT,
                     "missing required section [optimizer] (or [optimizer:<name>])", id="no-optimizer"),
        pytest.param(MINIMAL.replace("seeds = 0", "seeds = 0, a"),
                     "[output] seeds must be a comma-separated integer list", id="seeds"),
        pytest.param(MINIMAL.replace("seeds = 0", "seeds = ,"), "[output] seeds must be nonempty", id="empty-seeds"),
        pytest.param(MINIMAL.replace("kind = quadratic\n", ""), "[problem] missing required key 'kind'", id="no-kind"),
        pytest.param(MINIMAL.replace("spread = 0.2", "x0 = twos"),
                     "[problem] constraint violated: x0 is one of zeros, ones, saddle", id="x0"),
        pytest.param(MINIMAL.replace("kind = ssrgd", "kind = ssrgd\norder = third"),
                     "[optimizer] constraint violated: order is one of first, second", id="order"),
        pytest.param(MINIMAL.replace("kind = ssrgd", "kind = ssrgd\ntrace = none"),
                     "[optimizer] constraint violated: trace is one of full, epoch", id="trace"),
    ])
    def test_config_refusal(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_config(tmp_path, text))

    def test_missing_and_unparsable_config(self, tmp_path):
        missing = tmp_path / "missing.ini"
        with pytest.raises(ConfigError, match=f"^config file not found: {re.escape(str(missing))}$"):
            parse_config(missing)
        path = write_config(tmp_path, "[problem\nkind = quadratic\n")
        with pytest.raises(ConfigError, match=f"^could not parse {re.escape(str(path))}: "):
            parse_config(path)

    def test_saddle_start_without_a_saddle(self):
        with pytest.raises(ConfigError, match="^problem lists no saddle points for x0 = saddle$"):
            harness.initial_point({"kind": "quadratic", "x0": "saddle"}, QUADRATIC)

    def test_trace_file_with_another_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: unexpected CSV header ['a', 'b']") + "$"):
            read_trace_csv(path)

    def test_diagnose_coupled_without_a_saddle_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        assert harness.main(["diagnose", "coupled", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: coupled diagnostics need a problem with a listed saddle\n"

    def test_scaling_skips_cells_off_the_axis_and_seeds_with_under_three_points(self):
        law = lambda n: 5.0 * math.sqrt(n)  # noqa: E731
        agg = synthetic_aggregate("n", law)
        extra = [{**agg["cells"][0], "run_id": "online", "n": None},  # an online cell has no n
                 *({**cell, "run_id": f"s9-{k}", "seed": 9} for k, cell in enumerate(agg["cells"][:2]))]
        rep = scaling_report({**agg, "cells": agg["cells"] + extra}, "n")
        assert rep == scaling_report(agg, "n")
        assert len(rep["per_seed_slopes"]) == 3

    def test_chart_of_one_x_value_spans_a_unit_range(self):
        # a flat axis gets one decade, so no coordinate divides by zero
        svg = svgplot.scatter_fit_chart([10, 10], [1.0, 2.0], 0.5, 0.0, title="t", xlabel="x", ylabel="y")
        assert ET.fromstring(svg).tag.endswith("svg") and "nan" not in svg and "inf" not in svg


class TestColdImport:
    def test_harness_import_loads_no_unused_module(self):
        # urllib, http.client, ssl and email came in with xml.sax.saxutils;
        # diagnostics loads for ``ssrgd diagnose`` and difflib for an unknown key
        unused = ["xml.sax", "urllib.request", "http.client", "ssl", "email", "difflib", "ssrgd.diagnostics"]
        code = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import ssrgd.harness\n"
            f"print(json.dumps([m for m in {unused!r} if m in sys.modules and m not in before]))\n"
        )
        assert json.loads(run_child(code)) == []


def test_no_input_ends_in_a_traceback_or_a_hang():
    # the Hypothesis properties of robustness_properties.py, in a child process
    # that caps its own memory; the deadline turns a hang into a failure
    script = Path(__file__).with_name("robustness_properties.py")
    assert run_child(f"import runpy\nrunpy.run_path({str(script)!r}, run_name='__main__')", timeout=120) == "ok\n"
