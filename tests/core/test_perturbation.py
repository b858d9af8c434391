"""Tests for the DP and GeoDP perturbation primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    clip_gradients,
    perturb_dp,
    perturb_dp_batch,
    perturb_geodp,
    perturb_geodp_batch,
)
from repro.geometry import (
    direction_mse,
    direction_sensitivity,
    gradient_mse,
    to_spherical_batch,
)


class TestClipGradients:
    def test_matches_eq6(self, rng):
        grads = rng.normal(size=(20, 10)) * 5
        clipped = clip_gradients(grads, 1.0)
        norms = np.linalg.norm(grads, axis=1)
        expected = grads / np.maximum(1.0, norms / 1.0)[:, None]
        assert np.allclose(clipped, expected)

    def test_norm_bound(self, rng):
        clipped = clip_gradients(rng.normal(size=(50, 8)) * 100, 0.5)
        assert np.all(np.linalg.norm(clipped, axis=1) <= 0.5 + 1e-12)


class TestPerturbDp:
    def test_zero_noise_is_identity_on_clipped(self, rng):
        grads = rng.normal(size=(10, 6)) * 0.01
        out = perturb_dp_batch(grads, 1.0, 0.0, 32, rng)
        assert np.allclose(out, grads)

    def test_noise_statistics(self):
        grads = np.zeros((1, 200_000))
        out = perturb_dp_batch(grads, 2.0, 1.5, 4, rng=0)
        # std = C * sigma / B = 2 * 1.5 / 4 = 0.75
        assert np.std(out) == pytest.approx(0.75, rel=0.02)
        assert np.mean(out) == pytest.approx(0.0, abs=0.01)

    def test_unbiased_on_gradient(self, rng):
        grad = rng.normal(size=50) * 0.001
        reps = np.stack([perturb_dp(grad, 1.0, 1.0, 8, rng) for _ in range(3000)])
        assert np.allclose(reps.mean(axis=0), grad, atol=0.01)

    def test_single_vector_wrapper(self, rng):
        grad = rng.normal(size=12)
        out = perturb_dp(grad, 1.0, 0.5, 16, rng=0)
        assert out.shape == (12,)

    def test_clip_flag(self, rng):
        grads = rng.normal(size=(5, 4)) * 100
        unclipped = perturb_dp_batch(grads, 1.0, 0.0, 1, rng, clip=False)
        assert np.allclose(unclipped, grads)

    def test_batch_size_shrinks_noise(self):
        grads = np.zeros((1, 100_000))
        small = perturb_dp_batch(grads, 1.0, 1.0, 10, rng=0)
        large = perturb_dp_batch(grads, 1.0, 1.0, 1000, rng=0)
        assert np.std(large) < np.std(small)

    def test_invalid_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            perturb_dp_batch(np.ones((1, 3)), 1.0, 1.0, 0)


class TestPerturbGeoDp:
    def test_zero_noise_round_trips(self, rng):
        grads = rng.normal(size=(10, 8)) * 0.01
        out = perturb_geodp_batch(grads, 1.0, 0.0, 32, 0.5, rng)
        assert np.allclose(out, grads, atol=1e-10)

    def test_direction_noise_scale(self, rng):
        """Angle noise std must be Delta theta * sigma / B (total mode)."""
        d, beta, sigma, batch = 40, 0.2, 0.5, 64
        grad = rng.normal(size=d)
        grad /= np.linalg.norm(grad)
        _, theta0 = to_spherical_batch(grad[None, :] )
        deltas = []
        for _ in range(2000):
            out = perturb_geodp(grad, 10.0, sigma, batch, beta, rng, clip=False)
            _, theta = to_spherical_batch(out[None, :])
            deltas.append(theta[0] - theta0[0])
        observed = np.std(np.stack(deltas)[:, : d // 2], axis=0).mean()
        expected = direction_sensitivity(d, beta) * sigma / batch
        assert observed == pytest.approx(expected, rel=0.1)

    def test_per_angle_mode_scales(self, rng):
        d, beta, sigma, batch = 40, 0.2, 0.5, 64
        grad = rng.normal(size=d)
        grad /= np.linalg.norm(grad)
        _, theta0 = to_spherical_batch(grad[None, :])
        deltas = []
        for _ in range(2000):
            out = perturb_geodp(
                grad, 10.0, sigma, batch, beta, rng, clip=False,
                sensitivity_mode="per_angle",
            )
            _, theta = to_spherical_batch(out[None, :])
            deltas.append(theta[0] - theta0[0])
        observed = np.std(np.stack(deltas)[:, : d // 2], axis=0).mean()
        expected = beta * np.pi * sigma / batch  # polar angles
        assert observed == pytest.approx(expected, rel=0.1)

    def test_unbiased_direction(self, rng):
        """Lemma 1: GeoDP's angle noise is unbiased on the direction."""
        grad = rng.normal(size=20)
        _, theta0 = to_spherical_batch(grad[None, :])
        thetas = []
        for _ in range(4000):
            out = perturb_geodp(grad, 10.0, 0.3, 16, 0.05, rng, clip=False)
            _, theta = to_spherical_batch(out[None, :])
            thetas.append(theta[0])
        mean_theta = np.stack(thetas).mean(axis=0)
        assert np.allclose(mean_theta, theta0[0], atol=0.02)

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="sensitivity_mode"):
            perturb_geodp_batch(np.ones((1, 3)), 1.0, 1.0, 1, 0.5, sensitivity_mode="x")

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            perturb_geodp_batch(np.ones((1, 3)), 1.0, 1.0, 1, 0.0)


class TestHeadlineComparison:
    """The paper's core empirical claims at the primitive level."""

    def _mses(self, rng, beta, d=400, sigma=1.0, batch=1024):
        from repro.data import synthetic_gradient_batch

        grads = clip_gradients(synthetic_gradient_batch(60, d, rng), 0.1)
        _, theta0 = to_spherical_batch(grads)
        dp = perturb_dp_batch(grads, 0.1, sigma, batch, rng, clip=False)
        geo = perturb_geodp_batch(grads, 0.1, sigma, batch, beta, rng, clip=False)
        _, theta_dp = to_spherical_batch(dp)
        _, theta_geo = to_spherical_batch(geo)
        return {
            "dp_theta": direction_mse(theta_dp, theta0),
            "geo_theta": direction_mse(theta_geo, theta0),
            "dp_g": gradient_mse(dp, grads),
            "geo_g": gradient_mse(geo, grads),
        }

    def test_small_beta_wins_directions(self, rng):
        """Lemma 1: there exists beta with GeoDP direction MSE < DP's."""
        m = self._mses(rng, beta=0.005)
        assert m["geo_theta"] < m["dp_theta"]

    def test_small_beta_can_win_both(self, rng):
        """Fig 3(c): small beta lets GeoDP win direction AND gradient MSE."""
        m = self._mses(rng, beta=0.003)
        assert m["geo_theta"] < m["dp_theta"]
        assert m["geo_g"] < m["dp_g"]

    def test_beta_one_loses_directions_in_high_dim(self, rng):
        """The paper's own caveat: beta = 1 + high d -> GeoDP loses."""
        m = self._mses(rng, beta=1.0)
        assert m["geo_theta"] > m["dp_theta"]

    def test_geo_direction_mse_improves_with_batch(self, rng):
        small = self._mses(rng, beta=0.01, batch=256)
        large = self._mses(rng, beta=0.01, batch=8192)
        assert large["geo_theta"] < small["geo_theta"]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_direction_mse_monotone_in_beta(self, seed):
        rng = np.random.default_rng(seed)
        mses = [self._mses(rng, beta=b)["geo_theta"] for b in (0.01, 0.1, 1.0)]
        assert mses[0] < mses[1] < mses[2]


class TestClampToRegion:
    def test_clamp_keeps_angles_in_region(self, rng):
        from repro.geometry.bounding import per_angle_sensitivity

        grads = rng.normal(size=(20, 10))
        beta = 0.3
        out = perturb_geodp_batch(
            grads, 1.0, 0.0, 1024, beta, rng, clamp_to_region=True
        )
        _, thetas = to_spherical_batch(out)
        half = beta * np.pi / 2
        assert np.all(thetas[:, :-1] >= np.pi / 2 - half - 1e-9)
        assert np.all(thetas[:, :-1] <= np.pi / 2 + half + 1e-9)
        assert np.all(np.abs(thetas[:, -1]) <= beta * np.pi + 1e-9)

    def test_no_clamp_is_default_identity_at_zero_noise(self, rng):
        grads = rng.normal(size=(5, 8)) * 0.01
        out = perturb_geodp_batch(grads, 1.0, 0.0, 32, 0.1, rng)
        assert np.allclose(out, grads, atol=1e-10)

    def test_clamp_biases_outside_directions(self, rng):
        """Clamping distorts directions outside the beta-region (the price
        of an unconditional sensitivity bound)."""
        grads = rng.normal(size=(10, 8))
        clamped = perturb_geodp_batch(
            grads, 10.0, 0.0, 32, 0.1, rng, clip=False, clamp_to_region=True
        )
        assert not np.allclose(clamped, grads, atol=1e-3)


class TestZeroNoiseConsumesNoRandomness:
    """sigma=0 must be a pure clipping path: no rng draws, so a noise-free
    reference run leaves every RNG stream exactly where it started."""

    def test_dp_batch_rng_untouched(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        grads = np.random.default_rng(1).normal(size=(8, 5))
        perturb_dp_batch(grads, 1.0, 0.0, 4, rng)
        assert rng.bit_generator.state == before

    def test_geodp_batch_rng_untouched(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        grads = np.random.default_rng(1).normal(size=(8, 5))
        perturb_geodp_batch(grads, 1.0, 0.0, 4, 0.1, rng)
        assert rng.bit_generator.state == before

    def test_dp_zero_noise_is_pure_clipping(self):
        rng = np.random.default_rng(0)
        grads = np.random.default_rng(1).normal(size=(8, 5)) * 3
        out = perturb_dp_batch(grads, 1.0, 0.0, 4, rng)
        assert np.array_equal(out, clip_gradients(grads, 1.0))

    def test_dp_zero_noise_no_clip_does_not_alias_input(self):
        rng = np.random.default_rng(0)
        grads = np.random.default_rng(1).normal(size=(4, 3))
        out = perturb_dp_batch(grads, 1.0, 0.0, 4, rng, clip=False)
        assert out is not grads
        out[0, 0] += 1.0
        assert grads[0, 0] != out[0, 0]

    def test_geodp_zero_noise_matches_spherical_round_trip(self):
        """The sigma=0 GeoDP path still goes through spherical coordinates,
        so it stays numerically identical to the sigma->0 limit."""
        rng = np.random.default_rng(0)
        grads = np.random.default_rng(1).normal(size=(6, 5)) * 0.01
        out = perturb_geodp_batch(grads, 1.0, 0.0, 4, 0.1, rng)
        assert np.allclose(out, grads, atol=1e-10)


class TestAngleNoiseScaling:
    """The two-scalar angle-noise scaling is bit-identical to the array
    oracle ``per_angle_sensitivity(d, beta)[None, :] / B`` (and to the
    scalar total sensitivity), on the fused hot path and the clamped path."""

    C, SIGMA, B, BETA = 1.0, 1.3, 16, 0.2

    def _dir_scale(self, d, mode):
        from repro.geometry.bounding import per_angle_sensitivity

        if mode == "total":
            return direction_sensitivity(d, self.BETA) / self.B
        return per_angle_sensitivity(d, self.BETA)[None, :] / self.B

    @pytest.mark.parametrize("mode", ["total", "per_angle"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_hot_path_matches_array_oracle(self, m, mode):
        from repro.backend import use_backend
        from repro.backend.reference import ReferenceBackend

        grads = np.random.default_rng(5).normal(size=(m, 30))
        rng = np.random.default_rng(11)
        clipped = clip_gradients(grads, self.C)
        mag_noise = rng.standard_normal(m) * self.SIGMA * (self.C / self.B)
        theta_noise = rng.standard_normal((m, 29))
        theta_noise *= self.SIGMA
        theta_noise *= self._dir_scale(30, mode)
        want = ReferenceBackend().geodp_perturb(clipped, mag_noise, theta_noise)

        with use_backend("reference"):
            got = perturb_geodp_batch(
                grads, self.C, self.SIGMA, self.B, self.BETA, 11, sensitivity_mode=mode
            )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["total", "per_angle"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_clamped_path_matches_array_oracle(self, m, mode):
        from repro.backend import use_backend
        from repro.geometry import to_cartesian_batch
        from repro.geometry.bounding import bound_angles

        grads = np.random.default_rng(6).normal(size=(m, 12))
        rng = np.random.default_rng(12)
        with use_backend("reference"):
            mags, thetas = to_spherical_batch(clip_gradients(grads, self.C))
            thetas = bound_angles(thetas, self.BETA)
            mag_noise = rng.normal(0.0, self.SIGMA, size=mags.shape)
            noisy_mag = mags + (self.C / self.B) * mag_noise
            noisy_theta = thetas + self._dir_scale(12, mode) * rng.normal(
                0.0, self.SIGMA, size=thetas.shape
            )
            want = to_cartesian_batch(noisy_mag, noisy_theta)
            got = perturb_geodp_batch(
                grads, self.C, self.SIGMA, self.B, self.BETA, 12,
                sensitivity_mode=mode, clamp_to_region=True,
            )
        assert np.array_equal(got, want)

    def test_one_dimensional_gradient_rejected(self):
        with pytest.raises(ValueError, match="d must be >= 2"):
            perturb_geodp_batch(
                np.ones((2, 1)), 1.0, 1.0, 4, 0.1, 0, sensitivity_mode="per_angle"
            )
