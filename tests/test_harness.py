import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import ssrgd
from ssrgd import harness
from ssrgd.core import ConfigError, Event
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


def output_bytes(plan) -> dict:
    """Bytes of every file under the plan's output directory, by relative path."""
    root = Path(plan.out_dir)
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MINIMAL))
        assert len(plan.problems) == 1 and len(plan.optimizers) == 1
        inst = build_problem(plan.problems[0][1])
        cfg = build_run_config(plan.optimizers[0][1], inst, seed=0, eps_override=None)
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

    def test_insufficient_points(self):
        agg = synthetic_aggregate("eps", lambda e: 1.0 / e)
        agg["cells"] = [c for c in agg["cells"] if c["eps"] > 0.03]
        with pytest.raises(ssrgd.core.InsufficientDataError):
            scaling_report(agg, "eps")

    def test_confidence_interval_present(self):
        agg = synthetic_aggregate("eps", lambda e: 5.0 / e**2)
        rep = scaling_report(agg, "eps")
        assert rep["ci_low"] <= rep["slope"] <= rep["ci_high"]


class TestEmitPlots:
    def test_empty_aggregate_no_files(self, tmp_path):
        files = emit_plots({"cells": [], "failed": []}, tmp_path)
        assert files == []
        assert json.loads((tmp_path / "plots.json").read_text()) == []

    def test_single_cell_two_svgs(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MINIMAL))
        agg = run_plan(plan)
        files = emit_plots(agg, tmp_path / "plots")
        assert len(files) == 2
        for f in files:
            root = ET.fromstring(Path(f).read_text())
            assert root.tag.endswith("svg")

    def test_svgs_embed_run_ids(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MINIMAL))
        agg = run_plan(plan)
        files = emit_plots(agg, tmp_path / "plots")
        rid = agg["cells"][0]["run_id"]
        assert all(rid in Path(f).read_text() for f in files)

    def test_scaling_plot_spans_grid(self, tmp_path):
        text = MINIMAL + "\n[sweep]\naxis = eps\ngrid = 0.2, 0.1, 0.05\n"
        plan = parse_config(write_config(tmp_path, text))
        agg = run_plan(plan)
        files = emit_plots(agg, tmp_path / "plots")
        scaling = [f for f in files if Path(f).name == "scaling_fit.svg"]
        assert scaling
        root = ET.fromstring(Path(scaling[0]).read_text())
        assert float(root.attrib["data-xmin"]) == pytest.approx(1 / 0.2)
        assert float(root.attrib["data-xmax"]) == pytest.approx(1 / 0.05)


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
        assert by_opt["svrg"]["failed"] and "svrg" in by_opt["svrg"]["error"]
        assert agg["failed"] == [by_opt["svrg"]["run_id"]]
        assert not by_opt["sgd"]["failed"] and by_opt["sgd"]["sfo_raw"] > 0
        trace = tmp_path / "runs" / by_opt["sgd"]["run_id"] / "trace.csv"
        assert trace.read_text().count("\n") > 1

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
        assert build_run_config(plan.optimizers[0][1], inst, 0, None).delta == delta
        cert = cell["certificate"]
        assert cert["delta"] == delta
        assert cert["lambda_min_est"] == pytest.approx(-0.3, abs=1e-2)
        assert cert["is_fosp"] and cert["is_sosp"]
        assert cell["sfo_to_sosp"] is not None

    def test_explicit_delta_is_recorded(self, tmp_path):
        plan = parse_config(write_config(tmp_path, SADDLE_PLAN.replace("seeds = 0, 1", "seeds = 0")))
        (cell,) = run_plan(plan)["cells"]
        assert cell["certificate"]["delta"] == 0.3


class TestBaselineDefaults:
    def test_perturbed_gd_defaults_are_the_super_epoch_params(self):
        inst = ssrgd.make_separable_saddle(d=10, n=64, delta_plant=0.4, seed=0)
        bk = harness._baseline_from_params({"kind": "perturbed_gd", "delta": 0.3}, inst, 0, 0.05)
        derived = ssrgd.algorithm.super_epoch_params(inst.spec, 0.05, 0.3, 1.0, bk.step_size)
        assert derived == {
            key: getattr(bk, key)
            for key in ("perturb_radius", "grad_threshold", "fval_threshold", "super_epoch_len")
        }
        assert bk.perturb_radius == pytest.approx(1.5e-3, rel=1e-12)
        assert bk.fval_threshold == pytest.approx(7.5e-5, rel=1e-12)
        assert bk.grad_threshold == 0.05 and bk.super_epoch_len == 15


class TestParallelWorkers:
    def test_worker_pool_matches_serial(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MULTI))
        run_plan(plan, workers=1)
        serial = output_bytes(plan)
        run_plan(plan, workers=2)
        assert output_bytes(plan) == serial
        assert sum(name.endswith("/trace.csv") for name in serial) == 12
        assert sum(name.endswith("/summary.json") for name in serial) == 12


    @pytest.mark.parametrize("value", ["two", "0", "-1", "1.5", ""])
    def test_bad_worker_env_is_a_config_error(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("SSRGD_WORKERS", value)
        assert harness.main(["run", str(write_config(tmp_path, MINIMAL))]) == 2
        assert f"SSRGD_WORKERS must be an integer >= 1, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


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

        monkeypatch.setattr(harness.diagnostics, "run_coupled_experiment", broken)
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

    def test_epoch_decrease(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL, name="plain.ini")
        rc = harness.main([
            "diagnose", "epoch-decrease", "--config", str(cfg),
            "--replications", "200",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_scaling_subtract_n_flag(self, tmp_path, capsys):
        agg = synthetic_aggregate("n", lambda n: n + 3.0 * math.sqrt(n))
        path = tmp_path / "agg.json"
        path.write_text(json.dumps(agg))
        rc = harness.main(["scaling", str(path), "--axis", "n", "--subtract-n"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["slope"] == pytest.approx(0.5, abs=1e-9)


class TestEscapeRateChart:
    def test_emitted_for_multi_seed_certified_cells(self, tmp_path):
        plan = parse_config(write_config(tmp_path, MULTI))
        agg = run_plan(plan)
        files = emit_plots(agg, tmp_path / "plots")
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
