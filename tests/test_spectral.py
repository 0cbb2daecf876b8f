import dataclasses
import math

import numpy as np
import pytest

import ssrgd
from ssrgd import core, spectral
from ssrgd.core import ConfigError, UnsupportedOracleError
from ssrgd.problems import make_online_stream, make_quadratic, make_separable_saddle

from conftest import on_stream


def random_symmetric_problem(d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d))
    M = 0.5 * (M + M.T) * scale
    inst = make_quadratic(d=d, n=1, seed=0, matrix=M, spread=0.0)
    return inst.spec, M


class TestRefusals:
    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: spectral.lambda_min_power(
            dataclasses.replace(make_quadratic(d=2, n=4).spec, hvp=None), np.zeros(2)),
            UnsupportedOracleError, "power iteration needs a Hessian-vector oracle", id="power-without-hvp"),
    ])
    def test_refusal(self, call, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            call()


class TestDense:
    def test_identity_hessian(self):
        inst = make_quadratic(d=6, n=1, seed=0, spread=0.0)
        for x in (np.zeros(6), np.ones(6)):
            assert spectral.lambda_min_dense(inst.spec, x) == pytest.approx(1.0, abs=1e-12)

    def test_planted_saddle(self):
        inst = make_separable_saddle(d=7, n=8, delta_plant=0.35, noise=0.1, seed=1)
        lam = spectral.lambda_min_dense(inst.spec, np.zeros(7))
        assert lam == pytest.approx(-0.35, abs=1e-8)

    def test_matches_reference_eigensolver(self):
        spec, M = random_symmetric_problem(10, seed=4)
        lam = spectral.lambda_min_dense(spec, np.zeros(10))
        ref = float(np.linalg.eigvalsh(M)[0])
        assert lam == pytest.approx(ref, abs=1e-8)

    def test_cap_refuses(self, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_CAP", 10)
        spec, _ = random_symmetric_problem(12, seed=5)
        with pytest.raises(ConfigError, match="lambda_min_power"):
            spectral.lambda_min_dense(spec, np.zeros(12))

    def test_non_finite_hessian_raises(self):
        # eigvalsh raised LinAlgError ("Eigenvalues did not converge") on a NaN entry
        spec = dataclasses.replace(make_quadratic(d=3, n=4).spec, hvp=lambda x, v: np.full(3, math.nan))
        with pytest.raises(ssrgd.NonFiniteError, match="^Hessian contains non-finite entries$"):
            spectral.certify(spec, np.zeros(3), 0.1, 0.1)

    def test_needs_hvp(self):
        spec, _ = random_symmetric_problem(4, seed=6)
        spec.hvp = None
        with pytest.raises(UnsupportedOracleError):
            spectral.lambda_min_dense(spec, np.zeros(4))


class TestPower:
    def test_two_by_two(self):
        M = np.diag([1.0, -0.5])
        inst = make_quadratic(d=2, n=1, seed=0, matrix=M, spread=0.0)
        assert inst.spec.lipschitz_grad == 1.0  # the shift
        est, slack = spectral.lambda_min_power(
            inst.spec, np.zeros(2), iters=500, rng=core.seeded_rng(0, 1),
        )
        assert est == pytest.approx(-0.5, abs=1e-3)
        assert abs(est - (-0.5)) <= slack

    def test_identity(self):
        inst = make_quadratic(d=4, n=1, seed=0, spread=0.0)
        assert inst.spec.lipschitz_grad == 1.0  # the shift
        est, slack = spectral.lambda_min_power(
            inst.spec, np.zeros(4), iters=300, rng=core.seeded_rng(1, 1),
        )
        assert abs(est - 1.0) <= slack + 1e-9

    def test_agreement_sweep_d50(self):
        hits = 0
        for seed in range(20):
            spec, M = random_symmetric_problem(50, seed=100 + seed)
            dense = float(np.linalg.eigvalsh(M)[0])
            est, slack = spectral.lambda_min_power(
                spec, np.zeros(50), iters=800, rng=core.seeded_rng(seed, 2)
            )
            hits += abs(est - dense) <= slack
        assert hits >= 19

    def test_estimate_never_below_truth_minus_slack(self):
        # the shifted Rayleigh quotient can only undershoot the top eigenvalue,
        # so the estimate upper-bounds the true lambda_min
        spec, M = random_symmetric_problem(20, seed=7)
        dense = float(np.linalg.eigvalsh(M)[0])
        est, _ = spectral.lambda_min_power(
            spec, np.zeros(20), iters=200, rng=core.seeded_rng(3, 3)
        )
        assert est >= dense - 1e-10


class TestCertify:
    def test_convex_minimum_is_sosp(self):
        inst = make_quadratic(d=5, n=4, seed=1, spread=0.1)
        cert = spectral.certify(inst.spec, np.zeros(5), 0.01, 0.1)
        assert cert.is_fosp and cert.is_sosp and cert.method == "dense"
        assert cert.lambda_min_ci == 0.0

    def test_saddle_fails_tight_delta(self):
        inst = make_separable_saddle(d=6, n=8, delta_plant=0.3, noise=0.05, seed=2)
        cert = spectral.certify(inst.spec, np.zeros(6), 0.05, 0.1)
        assert cert.is_fosp and not cert.is_sosp

    def test_large_gradient_fails_fosp(self):
        inst = make_quadratic(d=4, n=2, seed=2, spread=0.0)
        x = np.ones(4)  # grad norm 2 at eps = 1
        cert = spectral.certify(inst.spec, x, 1.0, 10.0)
        assert not cert.is_fosp and not cert.is_sosp

    def test_monotone_in_targets(self):
        inst = make_separable_saddle(d=5, n=8, delta_plant=0.25, noise=0.1, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = 0.3 * rng.standard_normal(5)
            base = spectral.certify(inst.spec, x, 0.05, 0.1)
            looser = spectral.certify(inst.spec, x, 0.1, 0.3)
            if base.is_fosp:
                assert looser.is_fosp
            if base.is_sosp:
                assert looser.is_sosp

    def test_power_method_used_above_cap(self, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_CAP", 10)
        spec, M = random_symmetric_problem(30, seed=9)
        cert = spectral.certify(spec, np.zeros(30), 1.0, 5.0)
        assert cert.method == "shifted_power"
        assert cert.lambda_min_ci > 0

    @pytest.mark.parametrize("iters", [50, 100, 200])
    def test_power_certificate_never_overclaims(self, iters, monkeypatch):
        # lambda_min = -0.12 < -delta; est is an upper bound on lambda_min,
        # so only est - slack may be compared against -delta
        monkeypatch.setattr(spectral, "DENSE_CAP", 10)
        monkeypatch.setattr(spectral, "POWER_ITERS", iters)
        diag = np.linspace(-0.12, 1.0, 50)
        inst = make_quadratic(d=50, n=1, seed=0, matrix=np.diag(diag), spread=0.0)
        cert = spectral.certify(inst.spec, np.zeros(50), 0.01, 0.1)
        assert cert.method == "shifted_power" and cert.is_fosp
        assert not cert.is_sosp
        assert cert.lambda_min_ci == spectral.lambda_min_power(inst.spec, np.zeros(50), iters=iters)[1]

    def test_online_uses_large_batch(self, monkeypatch):
        base = make_quadratic(d=4, n=2, seed=4, spread=0.0)
        inst = make_online_stream(base, 0.5, seed=5)
        cert = on_stream(monkeypatch, core.seeded_rng(4, 4), spectral.certify, inst.spec, np.zeros(4), 0.1, 0.5)
        assert cert.is_fosp and cert.is_sosp


    @pytest.mark.parametrize("sigma, eps", [(0.05, 0.01), (0.5, 0.1), (2.0, 0.3), (0.0, 0.05)])
    def test_online_batch_is_derive_config_large_batch(self, monkeypatch, sigma, eps):
        inst = make_online_stream(make_separable_saddle(d=6, n=16, delta_plant=0.3, seed=0), sigma, seed=1)
        sizes = []
        real = spectral.estimators.large_batch_gradient

        def spy(problem, x, batch_size, rng, **kwargs):
            sizes.append(batch_size)
            return real(problem, x, batch_size, rng, **kwargs)

        monkeypatch.setattr(spectral.estimators, "large_batch_gradient", spy)
        spectral.certify(inst.spec, np.zeros(6), eps, 0.1)
        assert sizes == [ssrgd.derive_config(inst.spec, eps).large_batch]

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan])
    def test_online_needs_positive_eps(self, eps):
        inst = make_online_stream(make_separable_saddle(d=6, n=16, delta_plant=0.3, seed=0), 0.05, seed=1)
        with pytest.raises(ConfigError, match="constraint violated: eps > 0"):
            spectral.certify(inst.spec, np.zeros(6), eps, 0.1)

    @pytest.mark.parametrize("eps, delta, message", [
        (-0.1, 0.1, "constraint violated: eps > 0"), (math.nan, 0.1, "constraint violated: eps > 0"),
        (0.01, 0.0, "constraint violated: delta > 0"), (0.01, -1.0, "constraint violated: delta > 0"),
        (0.01, math.nan, "constraint violated: delta > 0"),
    ])
    def test_finite_sum_refuses_out_of_range_targets(self, eps, delta, message):
        inst = make_quadratic(d=5, n=4, seed=1, spread=0.1)
        with pytest.raises(ConfigError, match=message):
            spectral.certify(inst.spec, np.zeros(5), eps, delta)

    def test_finite_sum_accepts_eps_zero(self):
        inst = make_quadratic(d=5, n=4, seed=1, spread=0.1)
        assert spectral.certify(inst.spec, np.zeros(5), 0.0, 0.1).is_sosp


class TestAgreementSweep:
    def test_dense_power_within_slack_d_up_to_100(self):
        # full version appears in the acceptance suite (criterion 11)
        hits = total = 0
        rng = np.random.default_rng(11)
        for seed in range(30):
            d = int(rng.integers(5, 101))
            spec, M = random_symmetric_problem(d, seed=200 + seed)
            dense = float(np.linalg.eigvalsh(M)[0])
            est, slack = spectral.lambda_min_power(
                spec, np.zeros(d), iters=800, rng=core.seeded_rng(seed, 6)
            )
            total += 1
            hits += abs(est - dense) <= slack
        assert hits / total >= 0.95
