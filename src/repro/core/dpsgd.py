"""Classic DP-SGD optimizer (Abadi et al. 2016; paper Eq. 8).

Per iteration: clip each per-sample gradient to norm ``C``, sum, add
``N(0, sigma^2 C^2 I)``, divide by ``B``, and take an SGD step.  Privacy is
tracked by an optional :class:`~repro.privacy.accountant.RdpAccountant`.

:class:`GaussianRelease` is the mechanism; :class:`DpSgdOptimizer` composes
it with momentum SGD in a :class:`~repro.core.private.PrivateOptimizer`.
"""

from __future__ import annotations

import numpy as np

from repro.backend import workspace
from repro.core.private import PrivateOptimizer
from repro.core.sgd import SgdOptimizer
from repro.privacy.clipping import ClippingStrategy

__all__ = ["GaussianRelease", "DpSgdOptimizer"]


class GaussianRelease:
    """The Gaussian mechanism: ``(clipped_sum + N(0, sigma^2 C^2 I)) / B``."""

    #: Mechanism label written into ledger entries.
    mechanism = "gaussian"
    #: The Gaussian release adds no δ beyond the accountant's.
    delta_prime = 0.0
    #: No ledger annotations beyond sigma, sensitivity and sample rate.
    ledger_meta = None

    def perturb(self, opt, clipped_sum: np.ndarray, denominator: int) -> np.ndarray:
        """Noise and average one clipped sum into a workspace buffer.

        Same RNG stream and element-wise arithmetic as ``(clipped_sum +
        rng.normal(0, scale, shape)) / denominator``, with zero steady-state
        allocation.
        """
        scale = opt.noise_multiplier * opt.clipping.sensitivity()
        noisy = workspace.take(clipped_sum.shape)
        if scale == 0:
            noisy.fill(0.0)
        else:
            opt.rng.standard_normal(out=noisy)
            noisy *= scale
        np.add(clipped_sum, noisy, out=noisy)
        noisy /= denominator
        return noisy

    def sparse_release(self, opt, dense_sum: np.ndarray, sparse, denominator: int) -> np.ndarray:
        """Dense block through :meth:`perturb`, touched rows from row streams."""
        from repro.sparse.release import gaussian_sparse_release

        noisy = opt.noisy_gradient_presummed(dense_sum, denominator)
        gaussian_sparse_release(opt, sparse, denominator)
        return noisy

    def telemetry_extras(self, opt, d: int, denominator: int) -> None:
        """No scheme-specific release diagnostics."""
        return None


class DpSgdOptimizer(PrivateOptimizer):
    """Differentially private SGD on flat parameter vectors.

    Parameters
    ----------
    learning_rate:
        Step size ``eta``.
    clipping / noise_multiplier / accountant / sample_rate / lot_size /
    recorder / tracer / ledger / grad_mode:
        See :class:`~repro.core.private.PrivateOptimizer`.
    momentum:
        Classical momentum on the released gradient (post-processing, so
        the privacy analysis is unchanged).
    """

    def __init__(
        self,
        learning_rate: float,
        clipping: float | ClippingStrategy,
        noise_multiplier: float,
        rng=None,
        *,
        accountant=None,
        sample_rate: float | None = None,
        lot_size: int | None = None,
        momentum: float = 0.0,
        recorder=None,
        tracer=None,
        ledger=None,
        grad_mode: str = "materialize",
    ):
        super().__init__(
            SgdOptimizer(learning_rate, momentum=momentum), GaussianRelease(),
            clipping, noise_multiplier, rng, accountant=accountant,
            sample_rate=sample_rate, lot_size=lot_size, recorder=recorder,
            tracer=tracer, ledger=ledger, grad_mode=grad_mode,
        )
