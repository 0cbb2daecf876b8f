"""Outside-in span tracer for the ssrgd package.

The tracer never edits the package.  It replaces public functions with
timing wrappers *as attributes of the module that defines them*, which is
where the package's own callers look them up (``core.sample_minibatch``,
``estimators.recursive_step``, ``spectral.certify``, ...), and it wraps
the oracle fields of ``ProblemSpec`` instances (the ``problems`` layer).
Every replaced attribute is recorded by a ``Patcher`` and put back by
``Patcher.restore``.

Spans are aggregated as they close instead of being stored one by one: a
traced optimizer run makes millions of calls.  For each span name the
tracer keeps the call count, the total time, and the self time (duration
minus the part covered by child spans), plus call counts per
(parent, child) edge.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

ROOT = "workload"

# Public functions per layer, traced as ``<module>.<function>``.  Some have
# no metric of their own; their spans keep their time out of their
# callers' self time.
FUNCTIONS = {
    "core": ("sample_minibatch", "ensure_finite", "sample_uniform_ball"),
    "estimators": (
        "component_gradients", "full_gradient", "large_batch_gradient",
        "recursive_step", "svrg_step",
    ),
    "algorithm": ("run_ssrgd", "random_stop_decision"),
    "baselines": ("run_baseline",),
    "spectral": ("certify", "lambda_min_power", "lambda_min_dense", "assemble_hessian"),
    "diagnostics": ("run_coupled_experiment",),
    "harness": (
        "main", "parse_config", "build_problem", "run_cell", "run_plan",
        "emit_plots", "read_trace_csv",
    ),
    "svgplot": ("line_chart", "scatter_fit_chart", "bar_chart"),
}

# ProblemSpec oracle fields, traced as ``problems.<field>``.
SPEC_FIELDS = ("value", "component_grad", "component_grad_batch", "full_grad", "hvp")

# Calls whose arguments or results the benchmark inspects after the run.
KEEP = ("algorithm.run_ssrgd", "spectral.certify")

# Row counts of the batched oracles, read from their index argument.
ROWS = {
    "estimators.component_gradients": lambda args: len(args[1]),
    "problems.component_grad_batch": lambda args: len(args[0]),
}


class Tracer:
    """Aggregating span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.edges: Counter = Counter()
        self.rows: Counter = Counter()
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[list] = []  # [name, start, time covered by children]

    def begin(self, name: str, t: float | None = None) -> None:
        self._stack.append([name, self.clock() if t is None else t, 0.0])

    def end(self, t: float | None = None) -> None:
        name, start, covered = self._stack.pop()
        duration = (self.clock() if t is None else t) - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - covered
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        self.edges[(parent, name)] += 1

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)``
        runs once the span has closed."""
        rows = ROWS.get(name)
        keep = name in KEEP

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if rows is not None:
                self.rows[name] += rows(args)
            if keep:
                self.kept[name].append((args, kwargs, result))
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.perfbench_span = name
        return traced


class Patcher:
    """Remembers every attribute it replaces and puts them all back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)


def instrument_instance(tracer: Tracer, patcher: Patcher, instance) -> None:
    """Wrap the oracle fields of a ProblemInstance's spec and of its base."""
    while instance is not None:
        spec = instance.spec
        for field in SPEC_FIELDS:
            fn = getattr(spec, field)
            if fn is not None and not hasattr(fn, "perfbench_span"):
                patcher.set(spec, field, tracer.wrap(f"problems.{field}", fn))
        instance = instance.base


def instrument_package(tracer: Tracer, patcher: Patcher, package: str = "ssrgd") -> None:
    """Wrap every function in ``FUNCTIONS``; problems built by the harness
    get their oracle fields wrapped as they are returned."""

    def built(args, kwargs, instance):
        instrument_instance(tracer, patcher, instance)

    for module_name, names in FUNCTIONS.items():
        module = importlib.import_module(f"{package}.{module_name}")
        for name in names:
            span = f"{module_name}.{name}"
            after = built if span == "harness.build_problem" else None
            patcher.set(module, name, tracer.wrap(span, getattr(module, name), after))
