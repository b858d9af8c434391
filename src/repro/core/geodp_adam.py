"""GeoDP-Adam: the paper's named future-work direction (§VII).

"As for future work, we plan to study the impact of mainstream training
optimizations, such as Adam optimizer [54], on GeoDP."  This module
implements the natural composition: the per-iteration released quantity is
GeoDP's geometrically perturbed averaged gradient (identical privacy
analysis to GeoDP-SGD), which then drives Adam's moment estimates instead
of a plain SGD step.
"""

from __future__ import annotations

from repro.core.geodp import GeoDpOptimizer, GeoDpRelease
from repro.core.sgd import AdamOptimizer
from repro.privacy.clipping import ClippingStrategy

__all__ = ["GeoDpAdamOptimizer"]


class GeoDpAdamOptimizer(GeoDpOptimizer):
    """Adam driven by GeoDP-perturbed gradients.

    ``beta1`` / ``beta2`` / ``eps`` configure the Adam update; every other
    argument is as for :class:`~repro.core.geodp.GeoDpSgdOptimizer`.  On the
    sparse path Adam's moments cover the dense block only; touched embedding
    rows take a plain SGD step (lazily-noised rows cannot keep per-row
    moments without densifying the state).
    """

    def __init__(
        self,
        learning_rate: float,
        clipping: float | ClippingStrategy,
        noise_multiplier: float,
        beta: float,
        rng=None,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        accountant=None,
        sample_rate: float | None = None,
        sensitivity_mode: str = "per_angle",
        lot_size: int | None = None,
        recorder=None,
        tracer=None,
        ledger=None,
        grad_mode: str = "materialize",
    ):
        super().__init__(
            AdamOptimizer(learning_rate, beta1=beta1, beta2=beta2, eps=eps),
            GeoDpRelease(beta, sensitivity_mode),
            clipping, noise_multiplier, rng, accountant=accountant,
            sample_rate=sample_rate, lot_size=lot_size, recorder=recorder,
            tracer=tracer, ledger=ledger, grad_mode=grad_mode,
        )
