"""Hypothesis properties: every input ends in a result or a refusal, never a
traceback or a hang.

    PYTHONPATH=src python3 tests/robustness_properties.py

Run as a script, in its own process: it first caps its own address space at
1 GiB, so an allocation that runs away fails an example instead of taxing
the machine.  ``tests/test_harness.py`` runs it under a deadline, which
turns a hang into a failure.  The examples are derandomized, so every run
tries the same inputs.  It exits 0 and prints ``ok`` when all three hold:

* ``svgplot.line_chart`` on any float series returns a chart or raises
  ``ValueError``;
* ``ssrgd scaling`` on any JSON file exits 0 or 2;
* a one-cell plan at admitted settings, with ``sfo_budget = 1000``, exits 0
  or 1 and writes ``aggregate.json``.
"""

import contextlib
import io
import json
import logging
import resource
import tempfile
from pathlib import Path

resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ssrgd import harness, svgplot  # noqa: E402

logging.disable(logging.CRITICAL)  # each refused cell logs an error


def fixed(examples):
    return settings(max_examples=examples, deadline=None, database=None, derandomize=True)


def quietly(argv):
    """``harness.main(argv)`` with its standard output and error dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return harness.main(argv)


@fixed(150)
@given(series=st.lists(st.tuples(st.text(max_size=2), st.lists(st.floats(), max_size=6),
                                 st.lists(st.floats(), max_size=6)), max_size=3),
       logy=st.booleans())
def line_chart_draws_or_refuses(series, logy):
    try:
        svgplot.line_chart(series, title="t", xlabel="x", ylabel="y", logy=logy)
    except ValueError:
        pass


FIELD = (st.none() | st.booleans() | st.text(max_size=2) | st.floats() | st.integers()
         | st.sampled_from([5e-324, 0.1, 4, 1e300, 10**400]))
JSON = st.recursive(FIELD, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=2), inner, max_size=3), max_leaves=6)
ANY_CELL = st.fixed_dictionaries({}, optional=dict.fromkeys(
    ("eps", "n", "seed", "sfo_to_fosp", "failed", "problem", "optimizer"), FIELD))
# a cell of one (problem, optimizer) pair whose fields are mostly numbers a fit reads
FIT_CELL = st.fixed_dictionaries(
    {"eps": st.sampled_from([5e-324, 1e-3, 0.01, 0.1, 1.0, 1e300]) | st.floats(min_value=5e-324),
     "n": st.sampled_from([1, 16, 256, 4096]) | st.integers(1), "seed": st.integers(-1, 2) | st.integers(),
     "sfo_to_fosp": st.integers(1, 10**6) | st.none() | st.floats(0) | st.just(10**400)},
    optional={"failed": st.booleans()})
AGGREGATES = (JSON | st.fixed_dictionaries({"cells": st.lists(FIT_CELL, min_size=3, max_size=8)})
              | st.fixed_dictionaries({"cells": st.lists(FIT_CELL | ANY_CELL | JSON, max_size=6)}))


@fixed(150)
@given(aggregate=AGGREGATES, axis=st.sampled_from(["eps", "n"]), subtract_n=st.booleans())
def scaling_exits_0_or_2(aggregate, axis, subtract_n):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "aggregate.json"
        path.write_text(json.dumps(aggregate))
        code = quietly(["scaling", str(path), "--axis", axis, *(["--subtract-n"] * subtract_n)])
    assert code in (0, 2), code


# Values each key's row of core.SETTING_RULES admits, from the smallest to the largest
# float; counts stay small, or are too large to draw, so that every plan runs quickly
POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308) | st.sampled_from([1e-3, 0.05, 0.3, 1.0])
COUNT = st.integers(1, 64) | st.sampled_from([10**15, 2**62])
OPTIMIZER = {
    "order": st.sampled_from(["first", "second"]), "trace": st.sampled_from(["full", "epoch"]),
    **dict.fromkeys(("logfactor", "eps", "delta", "step_size", "perturb_radius", "grad_threshold",
                     "fval_threshold"), POSITIVE),
    **dict.fromkeys(("epoch_len", "minibatch", "large_batch", "super_epoch_len", "max_iters", "eval_every"), COUNT),
}
SIZE = {"n": st.integers(1, 64), "d": st.integers(1, 6)}
PROBLEM = {
    "nonconvex_logistic": {**SIZE, "reg": POSITIVE, "flip_prob": st.floats(0, 1)},
    "separable_saddle": {**SIZE, "delta_plant": POSITIVE, "noise": st.floats(0, 1e3), "gamma4": POSITIVE,
                         "box_radius": POSITIVE},
    "quadratic": {**SIZE, "scale": st.floats(-1e3, 1e3), "spread": st.floats(0, 1e3)},
}


def section(name, values):
    return f"[{name}]\n" + "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                                   for key, value in values.items())


@st.composite
def plans(draw):
    pkind = draw(st.sampled_from(sorted(PROBLEM)))
    problem = {"kind": pkind, "x0": draw(st.sampled_from(["zeros", "ones", "saddle"])),
               **draw(st.fixed_dictionaries({}, optional=PROBLEM[pkind]))}
    if draw(st.booleans()):
        problem["sigma"] = draw(st.floats(0, 10))
    okind = draw(st.sampled_from(sorted(harness.OPTIMIZERS)))
    reads = ("eps", "delta", *harness.OPTIMIZERS[okind])
    optimizer = {"kind": okind, **draw(st.fixed_dictionaries({}, optional={key: OPTIMIZER[key] for key in reads}))}
    if optimizer.get("order") != "second":
        optimizer.pop("logfactor", None)  # read only in second order
    return section("problem", problem) + section("optimizer", {**optimizer, "sfo_budget": 1000}), draw(st.booleans())


@fixed(25)
@given(plan=plans())
def plan_exits_0_or_1(plan):
    text, plot = plan
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "runs"
        path = Path(tmp) / "plan.ini"
        path.write_text(text + section("output", {"dir": out, "seeds": 0, "plot": str(plot).lower()}))
        code = quietly(["run", str(path)])
        assert code in (0, 1) and (out / "aggregate.json").is_file(), (code, text)


if __name__ == "__main__":
    line_chart_draws_or_refuses()
    scaling_exits_0_or_2()
    plan_exits_0_or_1()
    print("ok")
