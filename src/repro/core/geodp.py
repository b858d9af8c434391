"""GeoDP-SGD optimizer (the paper's Algorithm 1).

Per iteration:

1. clip each per-sample gradient and average: ``g_tilde`` (steps 5);
2. convert ``g_tilde`` to hyper-spherical coordinates ``(|g|, theta)``
   (step 6);
3. the bounding factor ``beta`` fixes the direction sensitivity
   ``Delta theta = sqrt(d+2) * beta * pi`` (step 7);
4. perturb magnitude and direction separately (step 8):
   ``|g|* = |g| + (C/B) n_sigma``,
   ``theta* = theta + (Delta theta / B) n_sigma``;
5. convert back and descend (steps 9-10).

With the same noise multiplier as DP-SGD, the direction — which Theorem 1
shows is what actually drives model efficiency — receives unbiased,
``beta``-controllable noise instead of the biased accumulation classic DP
induces (Lemma 1).

:class:`GeoDpRelease` is the mechanism (steps 6-9); :class:`GeoDpSgdOptimizer`
composes it with momentum SGD in a
:class:`~repro.core.private.PrivateOptimizer`.
"""

from __future__ import annotations

import numpy as np

from repro.backend import workspace
from repro.core.perturbation import perturb_geodp
from repro.core.private import PrivateOptimizer
from repro.core.sgd import SgdOptimizer
from repro.geometry.bounding import (
    delta_prime_upper_bound,
    direction_sensitivity,
    per_angle_sensitivity,
)
from repro.privacy.clipping import ClippingStrategy
from repro.utils.validation import check_probability

__all__ = ["GeoDpRelease", "GeoDpOptimizer", "GeoDpSgdOptimizer"]


class GeoDpRelease:
    """Algorithm 1 steps 6-9: geometric noise on magnitude and direction.

    ``sensitivity_mode`` selects the direction-noise calibration
    (``"total"`` as stated in Algorithm 1, ``"per_angle"`` as the paper's
    reported results imply; see :func:`repro.core.perturbation.perturb_geodp_batch`).
    """

    #: Mechanism label written into ledger entries.
    mechanism = "geodp"

    def __init__(self, beta: float, sensitivity_mode: str):
        self.beta = check_probability("beta", beta)
        if sensitivity_mode not in ("total", "per_angle"):
            raise ValueError(
                f"sensitivity_mode must be 'total' or 'per_angle', got {sensitivity_mode!r}"
            )
        self.sensitivity_mode = sensitivity_mode
        #: Beta and calibration mode, so a ledger audit sees the mechanism.
        self.ledger_meta = {"beta": self.beta, "sensitivity_mode": sensitivity_mode}

    @property
    def delta_prime(self) -> float:
        """Lemma 2's bound on the extra delta of the direction release."""
        return delta_prime_upper_bound(self.beta)

    def perturb(self, opt, clipped_sum: np.ndarray, denominator: int) -> np.ndarray:
        """Average one clipped sum and perturb it geometrically."""
        # Workspace-pooled average (bit-identical to ``clipped_sum /
        # denominator``), recycled once the release no longer references it.
        avg = workspace.take(clipped_sum.shape)
        np.divide(clipped_sum, denominator, out=avg)
        noisy = perturb_geodp(
            avg,
            opt.clipping.sensitivity(),
            opt.noise_multiplier,
            denominator,
            self.beta,
            opt.rng,
            clip=False,  # per-sample clipping already bounded the average
            sensitivity_mode=self.sensitivity_mode,
            tracer=opt.tracer,
        )
        workspace.give(avg)
        return noisy

    def sparse_release(self, opt, dense_sum: np.ndarray, sparse, denominator: int) -> np.ndarray:
        """Geometric noise on the active subvector ``[dense, touched rows]``.

        The dense average and the touched rows are perturbed jointly as one
        averaged gradient (Algorithm 1 on the active coordinates); untouched
        rows accrue deferred Gaussian cover noise through ``sparse.lazy``.
        """
        from repro.sparse.release import geodp_sparse_release

        return geodp_sparse_release(opt, dense_sum, sparse, denominator)

    def telemetry_extras(self, opt, d: int, denominator: int) -> dict[str, float]:
        """GeoDP's spherical noise split: magnitude vs direction noise std."""
        sigma = opt.noise_multiplier
        if self.sensitivity_mode == "total":
            dir_sens = direction_sensitivity(d, self.beta)
        else:
            dir_sens = float(np.mean(per_angle_sensitivity(d, self.beta)))
        return {
            "geodp_beta": self.beta,
            "geodp_magnitude_noise_scale": sigma * opt.clipping.sensitivity() / denominator,
            "geodp_direction_noise_scale": sigma * dir_sens / denominator,
        }


class GeoDpOptimizer(PrivateOptimizer):
    """A :class:`PrivateOptimizer` on a :class:`GeoDpRelease`: GeoDP attributes."""

    @property
    def beta(self) -> float:
        """The bounding factor ``beta``."""
        return self.release.beta

    @property
    def sensitivity_mode(self) -> str:
        """Direction-noise calibration, ``"total"`` or ``"per_angle"``."""
        return self.release.sensitivity_mode

    def direction_sensitivity(self, d: int) -> float:
        """``Delta theta`` for a ``d``-dimensional gradient at this ``beta``."""
        return direction_sensitivity(d, self.beta)

    def _repr_fields(self) -> str:
        return f", beta={self.beta}"


class GeoDpSgdOptimizer(GeoDpOptimizer):
    """GeoDP-SGD on flat parameter vectors (Algorithm 1).

    ``momentum`` applies classical momentum to the released gradient; every
    other argument is as for :class:`~repro.core.dpsgd.DpSgdOptimizer`.
    """

    def __init__(
        self,
        learning_rate: float,
        clipping: float | ClippingStrategy,
        noise_multiplier: float,
        beta: float,
        rng=None,
        *,
        accountant=None,
        sample_rate: float | None = None,
        sensitivity_mode: str = "total",
        lot_size: int | None = None,
        momentum: float = 0.0,
        recorder=None,
        tracer=None,
        ledger=None,
        grad_mode: str = "materialize",
    ):
        super().__init__(
            SgdOptimizer(learning_rate, momentum=momentum),
            GeoDpRelease(beta, sensitivity_mode),
            clipping, noise_multiplier, rng, accountant=accountant,
            sample_rate=sample_rate, lot_size=lot_size, recorder=recorder,
            tracer=tracer, ledger=ledger, grad_mode=grad_mode,
        )
