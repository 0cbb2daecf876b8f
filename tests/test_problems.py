import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import ssrgd
from ssrgd import core, estimators, harness, problems
from ssrgd.core import ConfigError, DatasetError, ProblemSpec, UnsupportedOracleError
from ssrgd.problems import (
    load_libsvm,
    make_nonconvex_logistic,
    make_online_stream,
    make_quadratic,
    make_separable_saddle,
)
from ssrgd.spectral import assemble_hessian, lambda_min_dense

from conftest import counting, logistic_rows, online_rows


def fd_gradient_check(spec, x, n_dirs=20, h=1e-6, rtol=1e-5, rng=None):
    """Central finite differences of the value oracle vs the gradient oracle."""
    rng = rng or np.random.default_rng(0)
    g = spec.full_grad(x)
    for _ in range(n_dirs):
        u = rng.standard_normal(spec.d)
        u /= np.linalg.norm(u)
        fd = (spec.value(x + h * u) - spec.value(x - h * u)) / (2 * h)
        assert fd == pytest.approx(float(g @ u), rel=rtol, abs=1e-7)


def fd_hvp_check(spec, x, n_dirs=10, h=1e-5, rtol=1e-4, rng=None):
    rng = rng or np.random.default_rng(1)
    for _ in range(n_dirs):
        u = rng.standard_normal(spec.d)
        u /= np.linalg.norm(u)
        hv = spec.hvp(x, u)
        fd = (spec.full_grad(x + h * u) - spec.full_grad(x - h * u)) / (2 * h)
        assert np.linalg.norm(fd - hv) <= rtol * max(1.0, np.linalg.norm(hv))


def lipschitz_ratio_check(spec, radius, pairs=10_000, seed=0):
    """Sampled-pair component gradient ratios never exceed the declared L."""
    rng = np.random.default_rng(seed)
    n = int(spec.n)
    box = radius if radius is not None else 2.0
    xs = rng.uniform(-box, box, size=(pairs, spec.d))
    ys = rng.uniform(-box, box, size=(pairs, spec.d))
    idx = rng.integers(0, n, size=(pairs, 1))
    worst = 0.0
    for i in range(pairs):
        gx = spec.component_grad_batch(idx[i], xs[i])[0]
        gy = spec.component_grad_batch(idx[i], ys[i])[0]
        denom = np.linalg.norm(xs[i] - ys[i])
        if denom > 1e-12:
            worst = max(worst, float(np.linalg.norm(gx - gy) / denom))
    assert worst <= spec.lipschitz_grad * (1 + 1e-12), (worst, spec.lipschitz_grad)


GENERATORS = {
    "logistic": lambda **kw: make_nonconvex_logistic(**{"n": 8, "d": 3, **kw}),
    "saddle": lambda **kw: make_separable_saddle(**{"d": 3, "n": 4, "delta_plant": 0.3, **kw}),
    "quadratic": lambda **kw: make_quadratic(**{"d": 3, "n": 4, **kw}),
    "online": lambda **kw: make_online_stream(make_quadratic(d=3, n=4), **{"sigma": 0.5, **kw}),
}


class TestGeneratorParameters:
    """Each generator checks its own parameters, in a form NaN fails, and
    names the parameter; NaN used to build a problem (flip_prob, noise,
    spread), fail later with a message about L (reg, gamma4, box_radius)
    or raise numpy's LinAlgError (scale)."""

    @pytest.mark.parametrize("generator, key, value", [
        *[(g, key, math.nan) for g, key in [
            ("logistic", "n"), ("logistic", "d"), ("logistic", "reg"), ("logistic", "flip_prob"),
            ("saddle", "n"), ("saddle", "delta_plant"), ("saddle", "noise"), ("saddle", "gamma4"),
            ("saddle", "box_radius"), ("quadratic", "n"), ("quadratic", "d"), ("quadratic", "scale"),
            ("quadratic", "spread"), ("online", "sigma"),
        ]],
        ("logistic", "flip_prob", -1.0), ("logistic", "flip_prob", 1.5), ("quadratic", "scale", math.inf),
    ])
    def test_out_of_range_parameter_is_refused_by_name(self, generator, key, value):
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            GENERATORS[generator](**{key: value})

    def test_libsvm_shares_the_logistic_reg_check(self, tmp_path):
        data = tmp_path / "tiny.svm"
        data.write_text("1 1:0.5\n-1 2:0.25\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="constraint violated: reg >= 0"):
            load_libsvm(data, d_cap=4, reg=math.nan)


class TestSeparableSaddle:
    def test_saddle_construction(self):
        inst = make_separable_saddle(d=5, n=12, delta_plant=0.4, noise=0.2, seed=3)
        x0, lam = inst.saddle_points[0]
        assert np.linalg.norm(inst.spec.full_grad(x0)) <= 1e-10
        assert lambda_min_dense(inst.spec, x0) == pytest.approx(-0.4, abs=1e-8)
        assert lam == -0.4

    def test_components_average_exactly(self):
        inst = make_separable_saddle(d=4, n=9, delta_plant=0.3, noise=0.5, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=4)
            mean_g = inst.spec.component_grad_batch(np.arange(9), x).mean(axis=0)
            assert np.linalg.norm(mean_g - inst.spec.full_grad(x)) < 1e-12

    def test_global_minima_d2(self):
        # f(x) = (x1^2 - 0.5 x2^2)/2 + (x1^4 + x2^4)/4: minima (0, +-sqrt(.5))
        inst = make_separable_saddle(d=2, n=4, delta_plant=0.5, noise=0.0, seed=0)
        spec = inst.spec
        xm = np.array([0.0, math.sqrt(0.5)])
        assert spec.value(xm) == pytest.approx(-0.0625, abs=1e-12)
        assert np.linalg.norm(spec.full_grad(xm)) < 1e-12
        # coarse grid search: nothing beats the closed-form minimum
        grid = np.linspace(-1.0, 1.0, 81)
        best = min(
            spec.value(np.array([a, b])) for a in grid for b in grid
        )
        assert best >= -0.0625 - 1e-9

    def test_metadata_valid(self):
        inst = make_separable_saddle(d=3, n=6, delta_plant=0.3, noise=0.3, seed=5)
        fd_gradient_check(inst.spec, np.array([0.3, -0.5, 0.7]))
        fd_hvp_check(inst.spec, np.array([-0.2, 0.4, 0.1]))
        lipschitz_ratio_check(inst.spec, inst.spec.domain_radius)

    @pytest.mark.parametrize("d", [2, 7, 33])
    def test_oracles_answer_a_stack_row_by_row(self, d):
        # each row bit for bit what the point alone gets, and for value what
        # the scalar formula f = 0.5 x'Dx + (gamma4/4) sum x^4 gives
        gamma4, spec = 1.5, make_separable_saddle(d=d, n=8, delta_plant=0.3, gamma4=1.5, seed=1).spec
        D = np.ones(d)
        D[-1] = -0.3
        rng = np.random.default_rng(d)
        X = rng.standard_normal((40, d)) * rng.uniform(0.01, 2.0, size=(40, 1))
        f, g = spec.value(X), spec.full_grad(X)
        diff = spec.grad_diff_batch(np.zeros((40, 3), dtype=np.int64), X, X[::-1])
        assert f.shape == (40,) and g.shape == diff.shape == (40, d)
        for i, x in enumerate(X):
            assert f[i] == spec.value(x) == 0.5 * float(x @ (D * x)) + 0.25 * gamma4 * float(np.add.reduce(x**4))
            assert np.array_equal(g[i], spec.full_grad(x))
            assert np.array_equal(diff[i], spec.full_grad(x) - spec.full_grad(X[-1 - i]))

    def test_rejects_nonpositive_plant(self):
        with pytest.raises(ConfigError):
            make_separable_saddle(d=3, n=4, delta_plant=0.0)
        with pytest.raises(ConfigError):
            make_separable_saddle(d=3, n=4, delta_plant=-0.1)

    def test_rejects_d1(self):
        with pytest.raises(ConfigError):
            make_separable_saddle(d=1, n=4, delta_plant=0.3)


class TestNonconvexLogistic:
    def test_value_at_origin(self):
        inst = make_nonconvex_logistic(n=30, d=6, reg=0.1, seed=0)
        assert inst.spec.value(np.zeros(6)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_convex_case_gradient(self):
        inst = make_nonconvex_logistic(n=40, d=8, reg=0.0, seed=1)
        rng = np.random.default_rng(3)
        fd_gradient_check(inst.spec, rng.standard_normal(8), rng=rng)

    def test_gradient_fd_random_instance(self):
        inst = make_nonconvex_logistic(n=50, d=10, reg=0.1, seed=2)
        rng = np.random.default_rng(4)
        for _ in range(5):
            fd_gradient_check(inst.spec, rng.standard_normal(10), rng=rng)

    def test_hvp_fd(self):
        inst = make_nonconvex_logistic(n=30, d=7, reg=0.2, seed=3)
        rng = np.random.default_rng(5)
        fd_hvp_check(inst.spec, rng.standard_normal(7), rng=rng)

    def test_component_mean_is_full(self):
        inst = make_nonconvex_logistic(n=25, d=5, reg=0.1, seed=4)
        x = np.linspace(-1, 1, 5)
        mean_g = inst.spec.component_grad_batch(np.arange(25), x).mean(axis=0)
        assert np.linalg.norm(mean_g - inst.spec.full_grad(x)) < 1e-10

    def test_batch_oracle_matches_loop(self):
        # each row against the full gradient of its own one-row problem
        rng = np.random.default_rng(5)
        n, d, reg = 20, 4, 0.1
        A = rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        spec = problems._logistic_instance(A, y, reg).spec
        for trial in range(10):
            x = 1.5 * rng.standard_normal(d)
            idx = rng.integers(0, 6 if trial % 2 else n, size=8)  # odd trials repeat indices
            want = logistic_rows(A, y, reg, idx, x)
            assert np.allclose(spec.component_grad_batch(idx, x), want, rtol=1e-13, atol=1e-15), trial

    def test_declared_L_holds(self):
        inst = make_nonconvex_logistic(n=40, d=6, reg=0.1, seed=6)
        lipschitz_ratio_check(inst.spec, 3.0)


class TestOnlineStream:
    def test_sigma_zero_deterministic(self):
        base = make_quadratic(d=4, n=3, seed=0)
        inst = make_online_stream(base, 0.0)
        x = np.arange(4.0)
        for i in (0, 5, 99):
            row = inst.spec.component_grad_batch(np.array([i]), x)[0]
            assert np.array_equal(row, base.spec.full_grad(x))

    def test_noise_norm_bounded(self):
        base = make_quadratic(d=5, n=3, seed=1)
        inst = make_online_stream(base, 0.7, seed=2)
        x = np.ones(5)
        noise = inst.spec.component_grad_batch(np.arange(500), x) - base.spec.full_grad(x)
        assert np.all(np.linalg.norm(noise, axis=1) <= 0.7 + 1e-12)

    def test_rows_are_base_gradient_plus_hashed_noise(self):
        base = make_nonconvex_logistic(n=64, d=7, seed=4)
        inst = make_online_stream(base, 0.3, seed=9)
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.standard_normal(7)
            idx = rng.integers(0, 2**62, size=12, dtype=np.int64)
            idx[6:] = idx[:6]  # repeated ids get the same noise
            want = online_rows(base, 0.3, 9, idx, x)
            assert np.array_equal(inst.spec.component_grad_batch(idx, x), want)

    def test_mean_concentrates(self):
        base = make_quadratic(d=4, n=3, seed=2)
        inst = make_online_stream(base, 1.0, seed=3)
        x = 0.5 * np.ones(4)
        g = base.spec.full_grad(x)
        N = 100_000
        grads = inst.spec.component_grad_batch(np.arange(N), x)
        err = np.linalg.norm(grads.mean(axis=0) - g)
        assert err <= 3.0 / math.sqrt(N)

    def test_mode_and_metadata(self):
        base = make_quadratic(d=3, n=2, seed=3)
        inst = make_online_stream(base, 0.5)
        assert inst.spec.mode is core.Mode.ONLINE
        assert math.isinf(inst.spec.n)
        assert inst.spec.full_grad is None
        assert inst.spec.variance_bound == 0.5
        assert inst.base is base


class TestLibsvm(object):
    def test_hand_written_file(self, tmp_path):
        p = tmp_path / "tiny.svm"
        p.write_text("1 1:0.5 3:2.0\n-1 2:1.5\n1 1:-1.0 2:0.25 3:0.75\n")
        inst = load_libsvm(p, d_cap=3)
        assert inst.spec.n == 3 and inst.spec.d == 3
        assert inst.spec.value(np.zeros(3)) == pytest.approx(math.log(2.0), rel=1e-12)
        # hand transcription oracle: grad at 0 is -mean(y_i a_i)/2
        ys = np.array([1.0, -1.0, 1.0])
        feats = np.array([[0.5, 0.0, 2.0], [0.0, 1.5, 0.0], [-1.0, 0.25, 0.75]])
        expected = -np.mean(ys[:, None] * feats, axis=0) / 2.0
        assert np.allclose(inst.spec.full_grad(np.zeros(3)), expected, atol=1e-12)

    def test_single_line_example(self, tmp_path):
        # "1 1:0.5 3:2.0" with d_cap=3 -> y=1, a=(0.5, 0, 2.0)
        p = tmp_path / "one.svm"
        p.write_text("1 1:0.5 3:2.0\n")
        inst = load_libsvm(p, d_cap=3)
        assert inst.spec.d == 3 and inst.spec.n == 1
        g = inst.spec.full_grad(np.zeros(3))
        assert np.allclose(g, -np.array([0.5, 0.0, 2.0]) / 2.0, atol=1e-12)

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "bad.svm"
        p.write_text("1 1:0.5\n-1 2:oops\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_libsvm(p, d_cap=5)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.svm"
        p.write_text("")
        with pytest.raises(DatasetError, match="no samples"):
            load_libsvm(p, d_cap=5)

    def test_dim_cap(self, tmp_path):
        p = tmp_path / "wide.svm"
        p.write_text("1 10:1.0\n")
        with pytest.raises(DatasetError, match="exceeds cap"):
            load_libsvm(p, d_cap=5)


class TestQuadratic:
    def test_components_centered(self):
        inst = make_quadratic(d=3, n=7, seed=9, spread=0.8)
        x = np.array([1.0, -2.0, 0.5])
        mean_g = inst.spec.component_grad_batch(np.arange(7), x).mean(axis=0)
        assert np.linalg.norm(mean_g - inst.spec.full_grad(x)) < 1e-12

    def test_hessian_assembly(self):
        M = np.array([[2.0, 0.3], [0.3, 1.0]])
        inst = make_quadratic(d=2, n=1, seed=0, matrix=M, spread=0.0)
        H = assemble_hessian(inst.spec, np.zeros(2))
        assert np.allclose(H, M, atol=1e-15)


def reference_hashed_uniforms(ids, lane):
    """Deterministic id -> U[0,1) map (splitmix64) of one lane, written
    apart from the package's in-place pass."""
    with np.errstate(over="ignore"):  # uint64 wrap-around is the point
        z = ids.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15) * np.asarray(
            2 * lane + 1, dtype=np.uint64
        )
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z = z ^ (z >> np.uint64(shift))
            z = z * np.uint64(mult)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) / 2**53


def reference_hashed_ball_noise(ids, d, radius, seed):
    """Per-lane loop form of ``problems._ball_noise_map(d, radius, seed)`` on a
    1-D id array."""
    with np.errstate(over="ignore"):
        ids = np.asarray(ids, dtype=np.uint64) ^ np.uint64(seed % 2**64) * np.uint64(
            0xD1342543DE82EF95
        )
    z = np.empty((len(ids), d))
    for p in range((d + 1) // 2):
        u1 = np.clip(reference_hashed_uniforms(ids, 3 * p), 1e-300, None)
        u2 = reference_hashed_uniforms(ids, 3 * p + 1)
        r = np.sqrt(-2.0 * np.log(u1))
        z[:, 2 * p] = r * np.cos(2.0 * np.pi * u2)
        if 2 * p + 1 < d:
            z[:, 2 * p + 1] = r * np.sin(2.0 * np.pi * u2)
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0] = 1.0
    scale = radius * reference_hashed_uniforms(ids, 2) ** (1.0 / d) / norms
    return z * scale[:, None]


class TestHashedNoise:
    @pytest.mark.parametrize("shape", [(64,), (4, 16)], ids=["ids", "id-block"])
    @pytest.mark.parametrize("seed", [5, 2**64 + 5, 3 * 2**64 - 1])
    @pytest.mark.parametrize("d", [1, 2, 7, 20, 33, 256])
    def test_lane_vectorized_matches_loop(self, d, seed, shape):
        ids = np.random.default_rng(d).integers(0, 2**62, size=64, dtype=np.int64)
        ids[:3] = (0, 1, 2**62 - 1)
        expected = reference_hashed_ball_noise(ids, d, 0.7, seed)
        got = problems._ball_noise_map(d, 0.7, seed)(ids.reshape(shape))
        assert got.shape == shape + (d,)
        assert np.array_equal(got.reshape(64, d), expected)

    def test_online_oracle_answers_an_id_block_row_for_row(self):
        spec = make_online_stream(make_nonconvex_logistic(n=128, d=7, seed=1), 0.5, seed=2).spec
        block = core.sample_minibatch(np.random.default_rng(0), spec.n, 10, steps=4)
        x = 0.3 * np.ones(spec.d)
        got = spec.component_grad_batch(block, x)
        assert got.shape == (4, 10, spec.d)
        for row, ids in zip(got, block):
            assert np.array_equal(row, spec.component_grad_batch(ids, x))


def two_call_difference(spec, idx, x_new, x_old):
    return (spec.component_grad_batch(idx, x_new).mean(axis=0)
            - spec.component_grad_batch(idx, x_old).mean(axis=0))


class TestDifferenceOracle:
    @pytest.mark.parametrize("make", [
        lambda: make_online_stream(make_nonconvex_logistic(n=128, d=20, seed=1), 0.5, seed=2),
        lambda: make_separable_saddle(d=10, n=32, delta_plant=0.4, noise=0.3, seed=3),
    ])
    def test_matches_two_call_reference(self, make):
        spec = make().spec
        rng = np.random.default_rng(0)
        for _ in range(5):
            idx = core.sample_minibatch(rng, spec.n, 64)
            x_old = 0.5 * rng.standard_normal(spec.d)
            x_new = x_old + 0.1 * rng.standard_normal(spec.d)
            got = spec.grad_diff_batch(idx, x_new, x_old)
            ref = two_call_difference(spec, idx, x_new, x_old)
            assert got.shape == (spec.d,)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_online_run_matches_fallback_path(self):
        inst = make_online_stream(make_nonconvex_logistic(n=256, d=20, seed=0), 0.5, seed=1)
        spec = inst.spec
        cfg = ssrgd.derive_config(spec, 0.1, sfo_budget=10_000, seed=4)
        x0 = 0.5 * np.ones(spec.d)
        fused = ssrgd.run_ssrgd(spec, cfg, x0=x0)
        # the stream's component oracle answers one point, not a stack, so the
        # reference spells the two calls out as its difference oracle
        def two_calls(idx, x_new, x_old):
            return two_call_difference(spec, idx, x_new, x_old)

        fallback = ssrgd.run_ssrgd(dataclasses.replace(spec, grad_diff_batch=two_calls), cfg, x0=x0)
        assert [r.event for r in fused.trace] == [r.event for r in fallback.trace]
        assert len(fused.trace) == len(fallback.trace)
        assert (fused.sfo_raw, fused.sfo_nominal) == (fallback.sfo_raw, fallback.sfo_nominal)
        assert np.allclose(fused.final_x, fallback.final_x, rtol=0, atol=1e-12)


class TestOnlineGradientSlot:
    """The online stream answers repeated requests at one point from one slot."""

    def make(self):
        base = make_nonconvex_logistic(n=128, d=10, seed=1)
        inst = make_online_stream(base, 0.5, seed=2)
        base.spec.full_grad = counting(base.spec.full_grad)
        return base.spec, inst.spec

    def test_epoch_of_k_steps_costs_k_plus_one_base_gradients(self):
        bspec, spec = self.make()
        rng = np.random.default_rng(0)
        x = 0.5 * np.ones(spec.d)
        v = estimators.large_batch_gradient(spec, x, 64, rng)
        k = 7
        for _ in range(k):
            x_old, x = x, x - 0.1 * v
            v = estimators.recursive_step(spec, v, x_old, x, core.sample_minibatch(rng, spec.n, 8))
        assert bspec.full_grad.calls == k + 1
        # the next epoch's anchor sits at the last step's point
        estimators.large_batch_gradient(spec, x, 64, rng)
        assert bspec.full_grad.calls == k + 1

    def test_in_place_change_of_x_does_not_poison_the_slot(self):
        bspec, spec = self.make()
        idx = np.arange(5)
        noise = problems._ball_noise_map(spec.d, 0.5, 2)(idx)
        x = 0.3 * np.ones(spec.d)
        spec.component_grad_batch(idx, x)
        x[0] += 1.0  # same array object, new value
        got = spec.component_grad_batch(idx, x)
        assert np.array_equal(got, bspec.full_grad(x)[None, :] + noise)
        assert bspec.full_grad.calls == 3

    def test_returned_arrays_are_not_the_slot(self):
        bspec, spec = self.make()
        idx = np.arange(5)
        x = 0.3 * np.ones(spec.d)
        g = bspec.full_grad(x)
        spec.component_grad_batch(idx, x)[:] = np.nan
        spec.grad_diff_batch(idx, x, x)[:] = np.nan
        assert np.array_equal(spec.grad_diff_batch(idx, x, x), np.zeros(spec.d))
        noise = problems._ball_noise_map(spec.d, 0.5, 2)(idx)
        assert np.array_equal(spec.component_grad_batch(idx, x), g[None, :] + noise)
        assert bspec.full_grad.calls == 2


def one_feature_logistic(column) -> core.ProblemSpec:
    """A d=1 logistic spec with labels 1 and reg 0: its margins at x = [t]
    are exactly ``column * t``."""
    a = np.asarray(column, dtype=float)
    return problems._logistic_instance(a[:, None], np.ones(len(a)), 0.0).spec


class TestLogisticOracles:
    def test_value_matches_the_logaddexp_reference(self):
        edge = [0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0]
        m = np.concatenate([edge, 3.0 * np.random.default_rng(0).standard_normal(2000)])
        ref = np.logaddexp(0.0, -m)
        unit = one_feature_logistic([1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            per_row = np.array([unit.value(np.array([mi])) for mi in m])
            mean = one_feature_logistic(m).value(np.ones(1))
        assert np.all(np.abs(per_row - ref) <= 1e-15 * np.abs(ref))
        assert abs(mean - np.mean(ref)) <= 1e-15 * abs(np.mean(ref))

    def test_per_index_gradient_is_the_batched_row_where_margins_overflow_exp(self):
        spec = make_nonconvex_logistic(n=64, d=5, seed=0).spec
        x = 400.0 * np.ones(5)
        with np.errstate(over="ignore"):
            batch = spec.component_grad_batch(np.arange(64), x)
            for i in range(64):
                row = spec.component_grad_batch(np.array([i]), x)[0]
                assert np.isfinite(row).all()
                # a whole-batch call forms its margins in one BLAS product,
                # which can round differently from a one-row product
                assert np.allclose(row, batch[i], rtol=1e-14, atol=0)


class TestLogisticSlots:
    """The logistic oracles share a per-point slot; every answer must be what
    a freshly built instance gives."""

    IDX = np.array([3, 3, 40, 7, 95])

    def make(self):
        return make_nonconvex_logistic(n=96, d=7, reg=0.05, seed=3).spec

    def ask(self, spec, kind, x):
        vec = np.linspace(-1.0, 1.0, spec.d)
        return {
            "value": lambda: spec.value(x),
            "full_grad": lambda: spec.full_grad(x),
            "hvp": lambda: spec.hvp(x, vec),
            "batch": lambda: spec.component_grad_batch(self.IDX, x),
            "component": lambda: spec.component_grad_batch(np.array([40]), x)[0],
        }[kind]()

    def test_interleaved_calls_match_a_fresh_instance(self):
        spec = self.make()
        rng = np.random.default_rng(7)
        kinds = ["value", "full_grad", "hvp", "batch", "component"]
        x = 0.3 * np.ones(spec.d)
        # moves: 0 keeps the point, 1 changes x in place, 2 copies it, 3 steps
        # away; at each point every kind is asked, in an order rotated so that
        # over 20 points each move meets each order
        for step in range(20):
            move = step % 4
            if move == 1:
                x[step % spec.d] += 0.25
            elif move == 2:
                x = x.copy()
            elif move == 3:
                x = x + 0.1 * rng.standard_normal(spec.d)
            for kind in kinds[step % 5:] + kinds[:step % 5]:
                got = self.ask(spec, kind, x)
                assert np.array_equal(got, self.ask(self.make(), kind, x)), (step, kind)

    def test_mutating_a_returned_gradient_leaves_the_next_answer_alone(self):
        spec = self.make()
        x = 0.4 * np.ones(spec.d)
        for kind in ("full_grad", "hvp", "batch", "component"):
            self.ask(spec, kind, x)[...] = np.nan
            for again in ("full_grad", "value", "hvp", "batch", "component"):
                want = self.ask(self.make(), again, x)
                assert np.array_equal(self.ask(spec, again, x), want), (kind, again)


class TestLogisticBatchKernel:
    """The in-place batch oracle gives the bits of the textbook formula and
    leaves its rows alone."""

    def test_matches_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(11)
        n, d, reg = 50, 6, 0.05
        A = rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        spec = problems._logistic_instance(A, y, reg).spec
        Ay = A * y[:, None]

        def formula(idx, x):
            rows = Ay[idx]
            reg_grad = reg * 2.0 * x / (1.0 + x * x) ** 2
            return rows * (-(1.0 / (1.0 + np.exp(rows @ x))))[:, None] + reg_grad

        for trial in range(30):
            x = 2.0 * rng.standard_normal(d)
            # odd trials draw from every row, even ones from five, so most
            # batches repeat an index
            idx = rng.integers(0, n if trial % 2 else 5, size=1 + trial)
            got = spec.component_grad_batch(idx, x)
            assert np.array_equal(got, formula(idx, x)), trial
            got[...] = np.nan
            assert np.array_equal(spec.component_grad_batch(idx, x), formula(idx, x)), trial
        # every row is still what it was built as
        everything = np.arange(n)
        x = rng.standard_normal(d)
        assert np.array_equal(spec.component_grad_batch(everything, x), formula(everything, x))


def parent_logistic_rows(Ay, reg, idx, x):
    """The logistic component oracle at one point as it was written before
    it answered point stacks."""
    g = Ay.take(idx, axis=0)
    w = np.exp(g @ x)
    w += 1.0
    np.divide(-1.0, w, out=w)
    g *= w[:, None]
    g += reg * 2.0 * x / (1.0 + x * x) ** 2
    return g


def stack_contract_problem(kind, d, tmp_path, monkeypatch):
    """A built-in problem without a difference oracle, and its component
    oracle at one point in the parent's formula."""
    if kind == "quadratic":
        spec = make_quadratic(d, 40, seed=d, spread=0.7).spec
        # a product with a basis vector reads each matrix entry exactly
        comps = np.stack([spec.component_grad_batch(np.arange(40), e) for e in np.eye(d)], axis=-1)
        return spec, lambda idx, x: comps[idx] @ x
    built, logistic = [], problems._logistic_instance

    def recording(A, y, reg):
        built.append((A * y[:, None], reg))
        return logistic(A, y, reg)

    monkeypatch.setattr(problems, "_logistic_instance", recording)
    if kind == "logistic":
        spec = make_nonconvex_logistic(n=96, d=d, reg=0.05, seed=d).spec
    else:
        rng = np.random.default_rng(d)
        path = tmp_path / "data.svm"
        path.write_text("".join(
            f"{rng.choice([-1, 1])} " + " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(row)) + "\n"
            for row in rng.standard_normal((80, d))
        ))
        spec = load_libsvm(path, d_cap=d).spec
    [(Ay, reg)] = built
    return spec, lambda idx, x: parent_logistic_rows(Ay, reg, idx, x)


def check_stack_contract(spec, parent, d, b):
    """``spec``'s component oracle answers single points as ``parent`` does,
    and point stacks (with one index array or a block of them) slice by
    slice as single calls."""
    rng = np.random.default_rng(100 * d + b)
    high = 2**62 if spec.n == math.inf else spec.n  # online sample ids take 62 bits
    X = rng.standard_normal((3, d))
    idx = rng.integers(0, high, b)
    for x in X:
        assert np.array_equal(spec.component_grad_batch(idx, x), parent(idx, x))
    pair = spec.component_grad_batch(idx, X[:2])
    assert pair.shape == (2, b, d)
    for k in range(2):
        assert np.array_equal(pair[k], spec.component_grad_batch(idx, X[k])), k
    block = rng.integers(0, high, (3, b))
    rows = spec.component_grad_batch(block, X)
    assert rows.shape == (3, b, d)
    for k in range(3):
        assert np.array_equal(rows[k], spec.component_grad_batch(block[k], X[k])), k


class TestStackContract:
    """Every built-in component oracle answers point stacks, each ``(b, d)``
    slice bit for bit the single call's answer (``ProblemSpec``); the online
    stream does over the planted saddle, whose ``full_grad`` takes stacks."""

    @pytest.mark.parametrize("kind", ["logistic", "libsvm", "quadratic"])
    @pytest.mark.parametrize("d", [1, 5, 20])
    @pytest.mark.parametrize("b", [1, 7, 64])
    def test_stacks_answer_as_single_calls(self, kind, d, b, tmp_path, monkeypatch):
        spec, parent = stack_contract_problem(kind, d, tmp_path, monkeypatch)
        check_stack_contract(spec, parent, d, b)

    @pytest.mark.parametrize("kind", ["saddle", "online"])
    @pytest.mark.parametrize("d", [2, 5, 20])
    @pytest.mark.parametrize("b", [1, 7, 64])
    def test_noisy_components_answer_stacks(self, kind, d, b, monkeypatch):
        # component i is the exact gradient plus a noise row that does not depend on x
        made, noisy = [], problems._noisy_gradients
        monkeypatch.setattr(problems, "_noisy_gradients", lambda grad, noise: made.append((grad, noise))
                            or noisy(grad, noise))
        inst = make_separable_saddle(d=d, n=40, delta_plant=0.3, seed=d)
        if kind == "online":
            inst = make_online_stream(inst, 0.5, seed=d)
        grad, noise = made[-1]
        check_stack_contract(inst.spec, lambda idx, x: grad(x)[None, :] + noise(idx), d, b)

    @staticmethod
    def ignoring_the_stack(d):
        return ProblemSpec(
            n=16, d=d, lipschitz_grad=1.0, lipschitz_hess=0.0,
            value=lambda x: 0.5 * float(x @ x), full_grad=lambda x: x,
            component_grad_batch=lambda idx, x: np.tile(x, (len(idx), 1)),
        )

    @pytest.mark.parametrize("b", [1, 2, 5])
    def test_an_oracle_that_ignores_the_stack_is_refused(self, b):
        spec = self.ignoring_the_stack(3)
        x_old, x_new = np.ones(3), np.full(3, 0.5)
        with pytest.raises(UnsupportedOracleError, match="stack contract"):
            estimators.recursive_step(spec, np.zeros(3), x_old, x_new, np.arange(b))

    def test_in_a_plan_only_that_problems_cell_fails(self, tmp_path, capsys, monkeypatch):
        build = harness.build_problem

        def swapping(params, n_override=None):
            inst = build(params, n_override)
            if params.get("seed") == 5:
                inst.spec = self.ignoring_the_stack(inst.spec.d)
            return inst

        monkeypatch.setattr(harness, "build_problem", swapping)
        plan = tmp_path / "plan.ini"
        plan.write_text(
            "[problem]\nkind = quadratic\nn = 16\nd = 3\nspread = 0.2\n\n"
            "[problem:bad]\nkind = quadratic\nn = 16\nd = 3\nseed = 5\n\n"
            "[optimizer]\nkind = ssrgd\neps = 0.05\nsfo_budget = 4000\n\n"
            f"[output]\ndir = {tmp_path / 'runs'}\nseeds = 0\n"
        )
        assert harness.main(["run", str(plan)]) == 1
        capsys.readouterr()
        cells = json.loads((tmp_path / "runs" / "aggregate.json").read_text())["cells"]
        by_problem = {c["problem"]: c for c in cells}
        assert by_problem["bad"]["failed"] and "stack contract" in by_problem["bad"]["error"]
        good = by_problem["problem"]
        assert not good["failed"] and good["sfo_raw"] > 0


class TestSaddleDifferenceSlot:
    """The saddle's difference oracle reads a one-entry slot of the gradient."""

    IDX = np.array([0, 3, 3, 9])

    def make(self):
        return make_separable_saddle(d=6, n=16, delta_plant=0.3, noise=0.1, seed=0).spec

    def test_matches_two_gradients_bit_for_bit(self):
        spec, fresh = self.make(), self.make()
        rng = np.random.default_rng(5)
        x, y = 0.3 * rng.standard_normal(6), 0.3 * rng.standard_normal(6)
        # x changes in place every third step, y moves to a new array every
        # third; the four endpoint pairs are asked in a rotated order
        for step in range(24):
            if step % 3 == 1:
                x[step % 6] += 0.125
            elif step % 3 == 2:
                y = y + 0.1 * rng.standard_normal(6)
            pairs = [(x, y), (y, x), (x, x), (y, y)]
            for new, old in pairs[step % 4:] + pairs[:step % 4]:
                want = fresh.full_grad(new.copy()) - fresh.full_grad(old.copy())
                got = spec.grad_diff_batch(self.IDX, new, old)
                assert np.array_equal(got, want), step
                got[...] = np.nan

    def test_a_point_and_its_one_row_stack_get_answers_of_their_own_shape(self):
        # x and x[None] have the same bytes; the variance verifier asks at (1, d) stacks
        spec = self.make()
        x = 0.3 * np.ones(6)
        for point in (x, x[None], x, x[None]):
            assert spec.grad_diff_batch(self.IDX, point, point).shape == point.shape
            assert spec.component_grad_batch(self.IDX, point).shape == point.shape[:-1] + (4, 6)

    def test_k_recursive_steps_compute_k_plus_one_gradients(self, monkeypatch):
        slot, grads = problems._point_slot, []

        def counted_slot(fn):
            grads.append(counting(fn))
            return slot(grads[-1])

        monkeypatch.setattr(problems, "_point_slot", counted_slot)
        spec = self.make()
        (grad,) = grads
        rng = np.random.default_rng(0)
        x = 0.5 * np.ones(spec.d)
        # the anchor is the spec's full_grad, outside the slot
        v = estimators.full_gradient(spec, x)
        k = 7
        for _ in range(k):
            x_old, x = x, x - 0.1 * v
            v = estimators.recursive_step(spec, v, x_old, x, core.sample_minibatch(rng, spec.n, 8))
        assert grad.calls == k + 1
