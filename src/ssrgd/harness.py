"""Experiment harness and command-line interface.

Config files are INI text with explicit sections; the standard parameter
derivations fill everything not overridden.  Example::

    [problem:train]
    kind = nonconvex_logistic
    n = 4096
    d = 20

    [optimizer:main]
    kind = ssrgd
    eps = 0.01

    [sweep]
    axis = eps
    grid = 0.1, 0.05, 0.025

    [output]
    dir = runs
    seeds = 0, 1, 2
    plot = true

One cell is run per (problem x optimizer x sweep point x seed), and the
cells that differ only in the sweep point share each optimizer run they
have in common.  Each cell writes ``<dir>/<run_id>/trace.csv`` (header
``iter,f,grad_norm,sfo,event``) and ``summary.json`` as its row's results
arrive; then the plan writes one
``aggregate.json`` and, with ``plot = true``, charts drawn from the
columns kept of each run (``chart_columns``).  Run ids are content hashes
of the cell description and no file names its own directory, so a plan
writes the same bytes in any directory.
Workers: ``ssrgd run --workers`` (default 1).

CLI subcommands: ``run``, ``scaling``, ``certify``, ``diagnose``.  Exit
codes: 0 full success, 1 any failed cell, 2 config error.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import functools
import hashlib
import inspect
import io
import json
import logging
import math
import sys
import typing
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algorithm, baselines, core, estimators, problems, spectral, svgplot
from .baselines import BaselineKind
from .core import ConfigError, Event, RunConfig, SsrgdError, TraceRecord

logger = logging.getLogger("ssrgd")

CSV_HEADER = ["iter", "f", "grad_norm", "sfo", "event"]

# Each problem kind: its generator, and {key: harness default} for the
# keyword arguments the harness passes it.  A key's type is its default's
# type; a type in place of a default means the key has none, and must be
# given.  The harness defaults are not always the generator's own (the
# logistic ``reg`` and ``flip_prob``).
PROBLEMS = {
    "nonconvex_logistic": (
        problems.make_nonconvex_logistic, {"n": 256, "d": 20, "reg": 0.1, "flip_prob": 0.1}
    ),
    "separable_saddle": (problems.make_separable_saddle, {
        "n": 256, "d": 10, "delta_plant": 0.3, "noise": 0.1, "gamma4": 1.0, "box_radius": 1.0,
    }),
    "quadratic": (problems.make_quadratic, {"n": 256, "d": 10, "scale": 1.0, "spread": 0.5}),
    "libsvm": (problems.load_libsvm, {"path": str, "d_cap": 10_000, "reg": 0.1}),
}
# Keys every problem section takes.  ``kind`` picks the row of PROBLEMS;
# ``seed`` also goes to the generator when it takes one; ``sigma``, when
# given, wraps the problem as an online stream of that noise radius.
PROBLEM_KEYS = {"kind": str, "seed": 0, "sigma": float, "x0": "zeros", "x0_scale": 1.0}
core.SETTING_RULES["x0"] = core.one_of("zeros", "ones", "saddle")  # see initial_point

# Optimizer and output sections follow the same convention.  An optimizer
# setting typed here without a default is derived when a section leaves it
# unset (``build_run_config``, ``_baseline_from_params``).  ``OPTIMIZERS``
# holds the keys each kind reads besides kind, eps, delta and sfo_budget.
_OPTIMIZER_KEYS = {
    "kind": str,
    "order": "first",
    "eps": 0.01,
    "delta": 0.1,
    "logfactor": 1.0,
    "step_size": float,
    "epoch_len": int,
    "minibatch": int,
    "large_batch": int,
    "perturb_radius": float,
    "grad_threshold": float,
    "fval_threshold": float,
    "super_epoch_len": int,
    "sfo_budget": 10**7,
    "max_iters": int,
    "eval_every": int,
    "trace": "full",
}
core.SETTING_RULES.update(order=core.one_of("first", "second"), trace=core.one_of("full", "epoch"))
OPTIMIZERS = {
    "ssrgd": ("order", "logfactor", "trace", "step_size", "epoch_len", "minibatch",
              "large_batch", "max_iters", *core.SUPER_EPOCH_KEYS),
    "gd": ("step_size", "max_iters"),
    "perturbed_gd": ("step_size", "max_iters", *core.SUPER_EPOCH_KEYS),
    "sgd": ("step_size", "minibatch", "eval_every", "max_iters"),
    "svrg": ("step_size", "minibatch", "epoch_len", "max_iters", "trace"),
}

_SWEEP_KEYS = {"axis": str, "grid": str}
core.SETTING_RULES["axis"] = core.one_of("eps", "n")
_OUTPUT_KEYS = {"dir": "runs", "plot": False, "seeds": "0", "max_cells": 1000}


@dataclass
class Cell:
    problem_name: str
    problem: dict
    optimizer_name: str
    optimizer: dict
    seed: int
    sweep_axis: str | None = None
    sweep_value: float | None = None

    def summary_header(self) -> dict:
        """The keys every ``summary.json`` starts with, failed cells included."""
        return {
            "run_id": self.run_id,
            "problem": self.problem_name,
            "optimizer": self.optimizer_name,
            "seed": self.seed,
            "sweep_axis": self.sweep_axis,
            "sweep_value": self.sweep_value,
        }

    @property
    def run_id(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ExperimentPlan:
    problems: list[tuple[str, dict]]
    optimizers: list[tuple[str, dict]]
    seeds: list[int]
    sweep: tuple[str, list[float]] | None
    out_dir: str
    plot: bool
    max_cells: int

    def cells(self) -> list[Cell]:
        out = []
        sweep_points: list[tuple[str | None, float | None]]
        if self.sweep is None:
            sweep_points = [(None, None)]
        else:
            axis, grid = self.sweep
            sweep_points = [(axis, v) for v in grid]
        for pname, pparams in self.problems:
            for oname, oparams in self.optimizers:
                for axis, value in sweep_points:
                    for seed in self.seeds:
                        out.append(Cell(pname, pparams, oname, oparams, seed, axis, value))
        if len(out) > self.max_cells:
            raise ConfigError(
                f"plan expands to {len(out)} cells, above the cap {self.max_cells}"
            )
        return out


def _suggest(key: str, valid) -> str:
    import difflib  # only an unknown key pays for it

    close = difflib.get_close_matches(key, list(valid), n=1)
    return f"; closest valid key: {close[0]!r}" if close else ""


def _with_defaults(params: dict, keys: dict) -> dict:
    """``params`` over the defaults in a key table (a type stands for none)."""
    return {**{k: v for k, v in keys.items() if not isinstance(v, type)}, **params}


def _parse_section(where: str, section, keys: dict) -> dict:
    """Values of a section typed by a key table; ``where`` leads each error."""
    out = {}
    for key, raw in section.items():
        if key not in keys:
            raise ConfigError(f"{where} unknown key {key!r}{_suggest(key, keys)}")
        typ = keys[key] if isinstance(keys[key], type) else type(keys[key])
        try:
            if typ is bool:
                low = raw.strip().lower()
                if low not in ("true", "false", "1", "0", "yes", "no"):
                    raise ValueError(raw)
                out[key] = low in ("true", "1", "yes")
            else:
                out[key] = typ(raw)
        except ValueError:
            raise ConfigError(f"{where} key {key!r}: expected {typ.__name__}, got {raw!r}")
    return out


def parse_config(path) -> ExperimentPlan:
    """Parse and validate an experiment config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"could not parse {path}: {exc}")

    problem_sections: list[tuple[str, dict]] = []
    optimizer_sections: list[tuple[str, dict]] = []
    sweep: tuple[str, list[float]] | None = None
    out: dict = {}
    for section in parser.sections():
        if section == "problem" or section.startswith("problem:"):
            name = section.partition(":")[2] or "problem"
            problem_sections.append((name, _parse_problem(section, parser[section])))
        elif section == "optimizer" or section.startswith("optimizer:"):
            name = section.partition(":")[2] or "optimizer"
            optimizer_sections.append((name, _parse_optimizer(section, parser[section])))
        elif section == "sweep":
            params = _parse_section("[sweep]", parser[section], _SWEEP_KEYS)
            axis = params.get("axis")
            core.check_setting("axis", axis, "[sweep] ")
            try:
                grid = [float(v) for v in params.get("grid", "").split(",") if v.strip()]
            except ValueError:
                raise ConfigError("[sweep] grid must be a comma-separated number list")
            if not grid:
                raise ConfigError("[sweep] grid must be nonempty")
            for value in grid:  # each one is a cell's eps or n, and n is read as an integer
                value = int(value) if axis == "n" and value.is_integer() else value
                core.check_setting(axis, value, "[sweep] ")
            sweep = (axis, grid)
        elif section == "output":
            out = _parse_section("[output]", parser[section], _OUTPUT_KEYS)
        else:
            raise ConfigError(
                f"unknown section [{section}]; expected problem/optimizer/sweep/output"
            )
    if not problem_sections:
        raise ConfigError("missing required section [problem] (or [problem:<name>])")
    if not optimizer_sections:
        raise ConfigError("missing required section [optimizer] (or [optimizer:<name>])")
    if sweep is not None and sweep[0] == "n":
        for section in parser.sections():
            kind = parser[section].get("kind")
            if section.partition(":")[0] == "problem" and "n" not in PROBLEMS[kind][1]:
                raise ConfigError(f"[{section}] kind {kind} has no n for the [sweep] axis n")
    out = _with_defaults(out, _OUTPUT_KEYS)
    try:
        seeds = [int(v) for v in out["seeds"].split(",") if v.strip()]
    except ValueError:
        raise ConfigError("[output] seeds must be a comma-separated integer list")
    if not seeds:
        raise ConfigError("[output] seeds must be nonempty")
    return ExperimentPlan(
        problems=problem_sections,
        optimizers=optimizer_sections,
        seeds=seeds,
        sweep=sweep,
        out_dir=out["dir"],
        plot=out["plot"],
        max_cells=out["max_cells"],
    )


def _section_kind(section: str, raw, kinds) -> str:
    """The ``kind`` of a problem or optimizer section, one of ``kinds``."""
    kind = raw.get("kind")
    if kind is None:
        raise ConfigError(f"[{section}] missing required key 'kind'")
    if kind not in kinds:
        what = section.partition(":")[0]
        raise ConfigError(f"[{section}] unknown {what} kind {kind!r}; valid: {tuple(kinds)}")
    return kind


def _parse_problem(section: str, raw) -> dict:
    """A problem section, read against the keys of its own kind."""
    kind = _section_kind(section, raw, PROBLEMS)
    row = PROBLEMS[kind][1]
    params = _parse_section(f"[{section}] (kind = {kind})", raw, {**PROBLEM_KEYS, **row})
    for key, default in row.items():
        if isinstance(default, type) and key not in params:
            raise ConfigError(f"[{section}] kind {kind} needs {key!r}")
    core.check_setting("x0", params.get("x0", PROBLEM_KEYS["x0"]), f"[{section}] ")
    return params


def _parse_optimizer(section: str, raw) -> dict:
    """An optimizer section, read against the keys of its own kind."""
    kind = _section_kind(section, raw, OPTIMIZERS)
    reads = ("kind", "eps", "delta", "sfo_budget", *OPTIMIZERS[kind])
    keys = {key: _OPTIMIZER_KEYS[key] for key in reads}
    params = _parse_section(f"[{section}] (kind = {kind})", raw, keys)
    for key, value in params.items():
        if key in core.SETTING_RULES:
            core.check_setting(key, value, f"[{section}] ")
    if "logfactor" in params and params.get("order") != "second":
        raise ConfigError(f"[{section}] logfactor is read only with order = second")
    return params


def build_problem(params: dict, n_override: int | None = None) -> problems.ProblemInstance:
    """Instantiate the problem a config section describes."""
    generator, row = PROBLEMS[params["kind"]]
    values = _with_defaults(params, {**PROBLEM_KEYS, **row})
    if n_override is not None:
        values["n"] = int(n_override)
    takes = inspect.signature(generator).parameters
    inst = generator(**{key: value for key, value in values.items() if key in takes})
    if "sigma" in params:
        inst = problems.make_online_stream(inst, params["sigma"], seed=values["seed"])
    return inst


def initial_point(params: dict, inst: problems.ProblemInstance) -> np.ndarray:
    values = _with_defaults(params, PROBLEM_KEYS)
    preset, d = values["x0"], inst.spec.d
    core.check_setting("x0", preset)
    if preset == "zeros":
        return np.zeros(d)
    if preset == "ones":
        core.check_setting("x0_scale", values["x0_scale"])
        return values["x0_scale"] * np.ones(d)
    if not inst.saddle_points:
        raise ConfigError("problem lists no saddle points for x0 = saddle")
    return inst.saddle_points[0][0].copy()


def resolve_settings(oparams: dict, spec, eps: float | None) -> tuple[dict, float, float | None]:
    """An optimizer section's settings over the key table's defaults (such as the
    SFO budget), its eps unless a sweep gives one, and the delta its run targets:
    for ``perturbed_gd`` or ``order = second`` the ``delta`` key, else
    sqrt(rho * eps), else the key table's 0.1 when rho = 0; None otherwise."""
    settings = _with_defaults(oparams, _OPTIMIZER_KEYS)
    eps = float(settings["eps"] if eps is None else eps)
    if settings["kind"] != "perturbed_gd" and settings["order"] != "second":
        return settings, eps, None
    return settings, eps, oparams.get("delta", math.sqrt(spec.lipschitz_hess * eps) or _OPTIMIZER_KEYS["delta"])


def build_run_config(spec, seed: int, settings: dict, eps: float, delta: float | None) -> RunConfig:
    """Derived defaults for the problem at a cell's eps and run delta (``svrg``: a 0.1/L
    step and the snapshot estimator), then the settings ``resolve_settings`` gave as overrides."""
    cfg = algorithm.derive_config(spec, eps, delta, settings["logfactor"], seed=seed)
    if settings["kind"] == "svrg":
        cfg = dataclasses.replace(cfg, step_size=0.1 / spec.lipschitz_grad, snapshot=True)
    derived_from = ("eps", "delta", "logfactor")  # inputs of the derivation, not overrides
    overrides = {f.name: settings[f.name] for f in dataclasses.fields(RunConfig)
                 if f.name in settings and f.name not in derived_from}
    return dataclasses.replace(cfg, **overrides)


def _trace_to_csv(trace: list[TraceRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in trace:
        writer.writerow([
            row.iteration,
            repr(row.f_value),
            "" if row.grad_norm is None else repr(row.grad_norm),
            row.sfo_count,
            row.event.value,
        ])
    return buf.getvalue()


def read_trace_csv(path) -> list[TraceRecord]:
    """Inverse of the trace writer; round-trips losslessly."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ConfigError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            records.append(
                TraceRecord(
                    iteration=int(row[0]),
                    f_value=float(row[1]),
                    grad_norm=None if row[2] == "" else float(row[2]),
                    sfo_count=int(row[3]),
                    event=Event(row[4]),
                )
            )
    return records


class ChartColumns(typing.NamedTuple):
    """What the two trace charts draw of one run, as float64 columns: the
    SFO count and f of every row (``sfo``, ``f``), and the SFO count and
    gradient norm of the rows that measured one (``g_sfo``, ``g``)."""

    sfo: array
    f: array
    g_sfo: array
    g: array


def chart_columns(trace: list[TraceRecord]) -> ChartColumns:
    """The ``ChartColumns`` of a trace: 32 bytes per row at most, where the
    trace holds a ``TraceRecord`` per row."""
    measured = [row for row in trace if row.grad_norm is not None]
    return ChartColumns(
        array("d", [row.sfo_count for row in trace]),
        array("d", [row.f_value for row in trace]),
        array("d", [row.sfo_count for row in measured]),
        array("d", [row.grad_norm for row in measured]),
    )


def sfo_at_first_fosp(trace: list[TraceRecord], eps: float) -> int | None:
    """Raw SFO count at the first measured gradient norm <= eps."""
    for row in trace:
        if row.grad_norm is not None and row.grad_norm <= eps:
            return row.sfo_count
    return None


def run_cell(cell: Cell, runs: dict) -> tuple[dict, list[TraceRecord]]:
    """Execute one cell; returns (summary dict, trace records).

    ``runs`` is the run table of the cell's row (see ``run_plan``); its
    key is what the optimizer receives that may differ within a row:
    the run config of SSRGD or SVRG with eps fixed, or the baseline kind and
    its SFO budget, plus the n of an ``axis = n`` sweep.  A stored
    outcome is read instead of run again; a run that raises is not stored.
    First-order finite-sum SSRGD, ``gd``, ``sgd`` and ``svrg`` never read
    eps, so the cells of an eps sweep share their run.  The table also keeps
    the row's problem instance under ``("problem", n)``; its oracles are
    pure functions of the point, so sharing it changes no result.
    """
    n_override = cell.sweep_value if cell.sweep_axis == "n" else None
    if ("problem", n_override) not in runs:
        runs["problem", n_override] = build_problem(cell.problem, n_override)
    inst = runs["problem", n_override]
    x0 = initial_point(cell.problem, inst)
    settings, eps, run_delta = resolve_settings(
        cell.optimizer, inst.spec, cell.sweep_value if cell.sweep_axis == "eps" else None
    )
    okind = settings["kind"]

    summary: dict = {
        **cell.summary_header(),
        "kind": okind,
        "n": None if math.isinf(inst.spec.n) else int(inst.spec.n),
        "d": inst.spec.d,
        "failed": False,
    }

    # a second-order cell is certified at its run's delta, a first-order one at the key's
    delta = run_delta or settings["delta"]
    if okind in baselines.KINDS:
        kind = _baseline_from_params(inst.spec, cell.seed, settings, eps, run_delta)
        key = (n_override, dataclasses.astuple(kind), settings["sfo_budget"])
        run = functools.partial(baselines.run_baseline, kind, inst.spec, settings["sfo_budget"])
    else:
        cfg = build_run_config(inst.spec, cell.seed, settings, eps, run_delta)
        # run_ssrgd reads cfg.eps only to check it, and 0 passes that check;
        # eps-derived settings (second order, online) stay in the key
        key = (n_override, dataclasses.astuple(dataclasses.replace(cfg, eps=0.0)))
        run = functools.partial(algorithm.run_ssrgd, inst.spec, cfg, full_trace=settings["trace"] == "full")
    if key not in runs:
        runs[key] = run(x0=x0)
    outcome = runs[key]

    first_fosp = sfo_at_first_fosp(outcome.trace, eps)
    cert = None
    sfo_at_sosp = None
    if inst.spec.hvp is not None and inst.spec.d <= spectral.DENSE_CAP:
        cert = spectral.certify(inst.spec, outcome.final_x, eps, delta)
        for it, point in outcome.sosp_candidates:
            cand = spectral.certify(inst.spec, point, eps, delta)
            if cand.is_sosp:
                # the trigger row: the first at the candidate's iteration with a
                # measured gradient norm (SSRGD's epoch start, perturbed GD's step)
                sfo_at_sosp = next(row.sfo_count for row in outcome.trace
                                   if row.iteration == it and row.grad_norm is not None)
                break

    summary.update(
        {
            "eps": eps,
            "sfo_to_fosp": first_fosp,
            "sfo_to_sosp": sfo_at_sosp,
            "sfo_raw": outcome.sfo_raw,
            "sfo_nominal": outcome.sfo_nominal,
            "termination": outcome.termination.value,
            "f_final": outcome.trace[-1].f_value if outcome.trace else None,
            "final_grad_norm": _last_grad_norm(outcome.trace),
            "certificate": {**dataclasses.asdict(cert), "delta": delta} if cert is not None else None,
        }
    )
    return summary, outcome.trace


def _last_grad_norm(trace: list[TraceRecord]) -> float | None:
    for row in reversed(trace):
        if row.grad_norm is not None:
            return row.grad_norm
    return None


def _baseline_from_params(spec, seed, settings, eps, delta) -> BaselineKind:
    """The resolved settings' fields over derived ones, over ``BaselineKind``'s: a 0.9/L
    (``gd``, ``perturbed_gd``) or 0.1/L (``sgd``) step, and ``perturbed_gd``'s
    super-epoch settings at the run delta."""
    kind = settings["kind"]
    given = {f.name: settings[f.name] for f in dataclasses.fields(BaselineKind) if f.name in settings}
    derived = {"step_size": (0.9 if kind in ("gd", "perturbed_gd") else 0.1) / spec.lipschitz_grad}
    if kind == "perturbed_gd" and any(key not in given for key in core.SUPER_EPOCH_KEYS):
        step = given.get("step_size", derived["step_size"])
        derived.update(algorithm.super_epoch_params(spec, eps, delta, 1.0, step))
    return BaselineKind(**{**derived, **given, "seed": seed})


def run_plan(plan: ExperimentPlan, workers: int = 1) -> dict:
    """Run every cell, write each one's trace and summary as its row's
    results arrive, then write the aggregate (cells in plan order) and,
    with ``plot``, the charts.

    A row is the cells with the same problem section, optimizer section
    and seed, which differ only in the sweep value.  It is one task, serial
    or in the worker pool, and its cells share one run table (``run_cell``),
    so each distinct optimizer run happens once per row; every cell still
    gets the files a lone ``run_cell`` would give it.

    ``workers`` is ``ssrgd run --workers``.  A cell that aborts with a
    package error (a non-finite oracle value, or a setting its run config
    rejects) is marked failed in the aggregate, with its error, without
    stopping the other cells.
    """
    core.check_setting("workers", workers)
    cells = plan.cells()  # a refused plan leaves no directory behind
    out_root = Path(plan.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)

    rows: dict[str, list[int]] = {}  # plan indices of each row's cells
    for i, cell in enumerate(cells):
        key = json.dumps([cell.problem, cell.optimizer, cell.seed], sort_keys=True)
        rows.setdefault(key, []).append(i)
    summaries, charts = [None] * len(cells), {}
    with contextlib.ExitStack() as stack:
        run = map
        if workers > 1 and len(rows) > 1:
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        tasks = ([cells[i] for i in row] for row in rows.values())
        for row, results in zip(rows.values(), run(_run_row, tasks)):
            # cells that share a run get one trace object, so one CSV text and one column entry
            csv_text: dict[int, str] = {}
            columns: dict[int, ChartColumns] = {}
            for i, (summary, trace) in zip(row, results):
                cell_dir = out_root / summary["run_id"]
                cell_dir.mkdir(exist_ok=True)
                if id(trace) not in csv_text:
                    csv_text[id(trace)] = _trace_to_csv(trace)
                (cell_dir / "trace.csv").write_text(csv_text[id(trace)], encoding="utf-8")
                (cell_dir / "summary.json").write_text(
                    json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
                )
                summaries[i] = summary
                if plan.plot and not summary["failed"]:
                    if id(trace) not in columns:
                        columns[id(trace)] = chart_columns(trace)
                    charts[summary["run_id"]] = columns[id(trace)]

    aggregate = {
        "cells": summaries,
        "failed": [s["run_id"] for s in summaries if s["failed"]],
        "total_sfo_raw": sum(s.get("sfo_raw", 0) or 0 for s in summaries),
        "sweep": None if plan.sweep is None else {"axis": plan.sweep[0], "grid": plan.sweep[1]},
    }
    (out_root / "aggregate.json").write_text(
        json.dumps(aggregate, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if plan.plot:
        emit_plots(aggregate, charts, out_root)
    return aggregate


def _run_row(cells: list[Cell]) -> list[tuple[dict, list[TraceRecord]]]:
    """Run the cells of one row against one run table."""
    runs: dict = {}
    return [_run_cell_safely(cell, runs) for cell in cells]


def _run_cell_safely(cell: Cell, runs: dict) -> tuple[dict, list[TraceRecord]]:
    try:
        return run_cell(cell, runs)
    except (SsrgdError, MemoryError) as exc:  # an array too large for the memory left fails its cell alone
        logger.error("cell %s aborted: %s", cell.run_id, exc)
        summary = {
            **cell.summary_header(),
            "failed": True,
            "error": str(exc),
            "sfo_raw": 0,
        }
        return summary, getattr(exc, "trace", [])


def scaling_report(aggregate: dict, axis: str, subtract_n: bool = False) -> dict:
    """Least-squares exponent of SFO-to-FOSP against the sweep axis.

    For ``axis='eps'`` the fit is log(sfo) vs log(1/eps) (expected slope 2);
    for ``axis='n'`` it is log(sfo), optionally minus the one-off full
    gradient term n, vs log(n) (expected slope 1/2 after subtraction).
    The confidence interval comes from per-seed slopes.  Nonpositive counts
    are left out; the fitted cells must share one (problem, optimizer) pair.
    """
    core.check_setting("axis", axis)
    if subtract_n and axis != "n":
        raise ConfigError(f"--subtract-n applies to axis 'n' only, not {axis!r}")
    per_seed: dict[int, dict[float, float]] = {}
    pairs = set()
    for s in aggregate["cells"]:
        if s.get("failed") or s.get("sfo_to_fosp") is None:
            continue
        xval = s.get("eps") if axis == "eps" else s.get("n")
        if xval is None:
            continue
        if axis == "eps" and 1.0 / float(xval) == math.inf:  # a subnormal eps
            raise ConfigError("constraint violated: 1/eps is a finite float")
        y = float(s["sfo_to_fosp"])
        if subtract_n:
            y -= float(s["n"])
        if y <= 0:
            continue
        pairs.add(f"{s.get('problem')}/{s.get('optimizer')}")
        per_seed.setdefault(int(s.get("seed", 0)), {})[float(xval)] = y
    if len(pairs) > 1:
        raise ConfigError(
            f"scaling fit needs one (problem, optimizer) pair, got {', '.join(sorted(pairs))}"
        )

    xs_all = sorted({x for d in per_seed.values() for x in d})
    if len(xs_all) < 3:
        raise core.InsufficientDataError(
            f"need >= 3 sweep points on axis {axis!r}, found {len(xs_all)}"
        )

    def to_logx(x):
        return math.log(1.0 / x) if axis == "eps" else math.log(x)

    seed_slopes = []
    for seed, d in sorted(per_seed.items()):
        if len(d) < 3:
            continue
        lx = np.array([to_logx(x) for x in sorted(d)])
        ly = np.array([math.log(d[x]) for x in sorted(d)])
        seed_slopes.append(float(np.polyfit(lx, ly, 1)[0]))

    mean_y = {
        x: float(np.mean([d[x] for d in per_seed.values() if x in d])) for x in xs_all
    }
    lx = np.array([to_logx(x) for x in xs_all])
    ly = np.array([math.log(mean_y[x]) for x in xs_all])
    slope, intercept = (float(v) for v in np.polyfit(lx, ly, 1))

    if len(seed_slopes) >= 2:
        arr = np.array(seed_slopes)
        half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(len(arr))
        ci = (float(arr.mean()) - half, float(arr.mean()) + half)
    else:
        ci = (slope, slope)
    return {
        "axis": axis,
        "subtract_n": subtract_n,
        "slope": slope,
        "intercept": intercept,
        "ci_low": ci[0],
        "ci_high": ci[1],
        "per_seed_slopes": seed_slopes,
        "points": [{"x": x, "mean_sfo": mean_y[x]} for x in xs_all],
    }


def emit_plots(aggregate: dict, charts: dict[str, ChartColumns], out_dir) -> list[str]:
    """Write self-contained SVG charts for an aggregate; returns their paths.

    ``charts`` maps each successful cell's run id to its run's
    ``chart_columns``, the only part of a trace the charts draw; ``run_plan``
    keeps one entry per run, shared by the cells of that run.  Always:
    objective vs SFO and measured gradient norm vs SFO (log y) when there is
    at least one successful cell.  A scaling fit is added for sweeps with
    >= 3 points of one (problem, optimizer) pair, and a certified-rate bar
    chart when several seeds carry certificates.  ``plots.json`` lists the
    chart file names.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = [s for s in aggregate["cells"] if not s.get("failed")]
    written: list[str] = []
    run_ids = [s["run_id"] for s in cells]

    def write(name: str, svg: str) -> None:
        (out_dir / name).write_text(svg, encoding="utf-8")
        written.append(str(out_dir / name))

    f_series, g_series = [], []
    for s in cells:
        col = charts[s["run_id"]]
        label = f"{s['optimizer']}/{s['problem']}/s{s['seed']}"
        f_series.append((label, col.sfo, col.f))
        if col.g:
            g_series.append((label, col.g_sfo, col.g))

    if f_series:
        write("trace_f_vs_sfo.svg", svgplot.line_chart(
            f_series, title="objective vs oracle work", xlabel="SFO (raw)", ylabel="f", run_ids=run_ids,
        ))
    if g_series:
        write("trace_gradnorm_vs_sfo.svg", svgplot.line_chart(
            g_series, title="measured gradient norm vs oracle work",
            xlabel="SFO (raw)", ylabel="||grad f||", logy=True, run_ids=run_ids,
        ))

    sweep = aggregate.get("sweep")
    if sweep and len(sweep.get("grid", [])) >= 3:
        try:
            rep = scaling_report(aggregate, sweep["axis"])
        except (core.InsufficientDataError, ConfigError):
            pass  # too few points, or cells of several (problem, optimizer) pairs
        else:
            xs = [(1.0 / pt["x"]) if sweep["axis"] == "eps" else pt["x"] for pt in rep["points"]]
            ys = [pt["mean_sfo"] for pt in rep["points"]]
            write("scaling_fit.svg", svgplot.scatter_fit_chart(
                xs, ys, rep["slope"], rep["intercept"] / math.log(10),
                title=f"oracle complexity scaling ({sweep['axis']})",
                xlabel="1/eps" if sweep["axis"] == "eps" else "n",
                ylabel="SFO to eps-FOSP", run_ids=run_ids,
            ))

    with_cert = [s for s in cells if s.get("certificate")]
    seeds = {s["seed"] for s in cells}
    if with_cert and len(seeds) >= 2:
        groups: dict[str, list[bool]] = {}
        for s in with_cert:
            groups.setdefault(s["optimizer"], []).append(bool(s["certificate"]["is_sosp"]))
        labels = sorted(groups)
        values = [sum(groups[k]) / len(groups[k]) for k in labels]
        write("escape_rate.svg", svgplot.bar_chart(
            labels, values, title="certified second-order rate",
            ylabel="fraction of runs", run_ids=[s["run_id"] for s in with_cert],
        ))

    (out_dir / "plots.json").write_text(
        json.dumps(sorted(Path(p).name for p in written), indent=2) + "\n", encoding="utf-8"
    )
    return written


# ---------------------------------------------------------------------------
# CLI


def _cmd_run(args) -> int:
    plan = parse_config(args.config)
    aggregate = run_plan(plan, args.workers)
    print(json.dumps({
        "cells": len(aggregate["cells"]),
        "failed": aggregate["failed"],
        "out_dir": plan.out_dir,
    }, indent=2))
    return 1 if aggregate["failed"] else 0


def _cmd_scaling(args) -> int:
    try:  # an integer past the float range reads as inf, which the checks below refuse
        aggregate = json.loads(Path(args.aggregate).read_text(encoding="utf-8"),
                               parse_int=lambda text: int(text) if abs(float(text)) < math.inf else float(text))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"aggregate {args.aggregate}: {exc}") from exc
    cells = aggregate.get("cells") if isinstance(aggregate, dict) else None
    if not isinstance(cells, list) or not all(isinstance(c, dict) for c in cells):
        raise ConfigError(f"aggregate {args.aggregate}: not an object whose 'cells' is a list of objects")
    where = f"aggregate {args.aggregate}: "
    for cell in cells:  # the fields scaling_report reads as numbers; a non-number checks as NaN
        fosp = cell.get("sfo_to_fosp")
        if fosp is not None and not (isinstance(fosp, (int, float)) and 0 <= fosp < math.inf):
            raise ConfigError(f"{where}constraint violated: sfo_to_fosp is a finite number >= 0 or null")
        for key in ("eps", "n", "seed"):
            if cell.get(key) is not None:
                core.check_setting(key, cell[key] if isinstance(cell[key], (int, float)) else math.nan, where)
    rep = scaling_report(aggregate, args.axis, subtract_n=args.subtract_n)
    print(json.dumps(rep, indent=2))
    return 0


def _cmd_certify(args) -> int:
    inst = _first_instance(args.problem)
    try:
        x = core.initial_point(np.load(args.checkpoint), inst.spec.d)
    except (OSError, ValueError, SsrgdError) as exc:
        raise ConfigError(f"checkpoint {args.checkpoint}: {exc}") from exc
    cert = spectral.certify(inst.spec, x, args.eps, args.delta)
    print(json.dumps(dataclasses.asdict(cert), indent=2))
    return 0


def _first_instance(path):
    return build_problem(parse_config(path).problems[0][1])


def _cmd_diagnose(args) -> int:
    from . import diagnostics  # only this command reads it

    out = Path(args.out) if args.out else None
    if out is not None and (out.is_dir() or not out.parent.is_dir()):
        # refused before the experiment runs, so no report is lost at the end
        raise ConfigError(f"--out {out}: not a file in an existing directory")
    inst = _first_instance(args.config)
    spec = inst.spec
    if args.subcommand == "variance":
        x = np.zeros(spec.d)
        xs = [x]
        for _ in range(args.steps):
            x = x - 0.5 / spec.lipschitz_grad * estimators.full_gradient(spec, x)
            xs.append(x)
        report = diagnostics.verify_variance_bound(
            spec, np.stack(xs), args.minibatch, args.replications,
            core.seeded_rng(args.seed, 3),
        ).to_dict()
    elif args.subcommand == "epoch-decrease":
        cfg = algorithm.derive_config(spec, 0.01, seed=args.seed)
        core.check_setting("epochs", args.replications, "--replications: ")  # named by the flag the user set
        report = diagnostics.verify_epoch_decrease(spec, cfg, args.replications).to_dict()
    else:  # coupled or localization, both around the first listed saddle
        if not inst.saddle_points:
            raise ConfigError(f"{args.subcommand} diagnostics need a problem with a listed saddle")
        saddle = inst.saddle_points[0][0]
        cfg = algorithm.derive_config(
            spec, args.eps, args.delta, args.logfactor, seed=args.seed, sfo_budget=args.budget
        )
        if args.subcommand == "coupled":
            report = diagnostics.run_coupled_experiment(inst, saddle, cfg, args.pairs).to_dict()
        else:
            core.check_setting("max_paths", args.super_epochs, "--super-epochs: ")
            cfg = diagnostics.localization_config(spec, cfg)
            paths = diagnostics.collect_super_epoch_paths(
                inst, cfg, seeds=range(args.seed, args.seed + args.super_epochs),
                x0=saddle, max_paths=args.super_epochs,
            )
            report = diagnostics.verify_localization(
                paths, lipschitz_grad=spec.lipschitz_grad, step_size=cfg.step_size
            ).to_dict()
    text = json.dumps(report, indent=2)
    if out is not None:
        out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssrgd", description="experiment harness for perturbed recursive gradient descent"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment plan")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_sc = sub.add_parser("scaling", help="fit oracle-complexity exponents")
    p_sc.add_argument("aggregate")
    p_sc.add_argument("--axis", choices=("eps", "n"), required=True)
    p_sc.add_argument("--subtract-n", action="store_true", dest="subtract_n")
    p_sc.set_defaults(func=_cmd_scaling)

    p_ct = sub.add_parser("certify", help="certify a checkpoint as a second-order point")
    p_ct.add_argument("problem", help="config file whose first [problem] section is used")
    p_ct.add_argument("checkpoint", help=".npy parameter vector")
    p_ct.add_argument("--eps", type=float, default=0.01)
    p_ct.add_argument("--delta", type=float, default=0.1)
    p_ct.set_defaults(func=_cmd_certify)

    p_dg = sub.add_parser("diagnose", help="run an analysis-validation experiment")
    p_dg.add_argument("subcommand", choices=("variance", "epoch-decrease", "coupled", "localization"))
    p_dg.add_argument("--config", required=True)
    p_dg.add_argument("--seed", type=int, default=0)
    p_dg.add_argument("--steps", type=int, default=3)
    p_dg.add_argument("--minibatch", type=int, default=2)
    p_dg.add_argument("--replications", type=int, default=2000)
    p_dg.add_argument("--pairs", type=int, default=50)
    p_dg.add_argument("--super-epochs", type=int, default=20, dest="super_epochs")
    p_dg.add_argument("--eps", type=float, default=0.05)
    p_dg.add_argument("--delta", type=float, default=0.3)
    p_dg.add_argument("--logfactor", type=float, default=8.0)
    p_dg.add_argument("--budget", type=int, default=200_000,
                      help="SFO budget per collection run (localization)")
    p_dg.add_argument("--out", default=None)
    p_dg.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SsrgdError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
