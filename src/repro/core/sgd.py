"""Update rules (SGD with momentum, Adam) and DP-Adam.

The paper's noise-free baseline is mini-batch SGD without momentum (§II-B).
:class:`SgdOptimizer` and :class:`AdamOptimizer` are also the update rules a
:class:`~repro.core.private.PrivateOptimizer` applies to each release; DP-Adam
[54] is the "future work" direction the paper names.
"""

from __future__ import annotations

import numpy as np

from repro.backend import workspace
from repro.core.private import PrivateOptimizer
from repro.privacy.clipping import ClippingStrategy
from repro.utils.validation import check_in_range, check_positive

__all__ = ["SgdOptimizer", "AdamOptimizer", "DpAdamOptimizer"]


def _copy_or_none(value) -> np.ndarray | None:
    """Defensive copy of an optional state array (checkpoint helper)."""
    return None if value is None else np.asarray(value, dtype=np.float64).copy()


class SgdOptimizer:
    """Plain SGD, optionally with classical momentum."""

    requires_per_sample = False

    def __init__(self, learning_rate: float, *, momentum: float = 0.0):
        self.learning_rate = check_positive("learning_rate", learning_rate)
        self.momentum = check_in_range("momentum", momentum, 0.0, 1.0, inclusive_high=False)
        self._velocity: np.ndarray | None = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One (momentum-)SGD update on the mean gradient."""
        if self.momentum == 0.0:
            return params - self.learning_rate * grad
        if self._velocity is None:
            self._velocity = workspace.zeros(params.shape, np.result_type(params, grad))
        self._velocity *= self.momentum
        self._velocity += grad
        return params - self.learning_rate * self._velocity

    def state_dict(self) -> dict:
        """Mutable optimizer state for checkpointing (see :mod:`repro.checkpoint`)."""
        return {"velocity": _copy_or_none(self._velocity)}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._velocity = _copy_or_none(state["velocity"])

    def __repr__(self) -> str:
        return f"SgdOptimizer(lr={self.learning_rate}, momentum={self.momentum})"


class AdamOptimizer:
    """Adam (Kingma & Ba 2015) on mean gradients."""

    requires_per_sample = False

    def __init__(
        self,
        learning_rate: float = 1e-3,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.learning_rate = check_positive("learning_rate", learning_rate)
        self.beta1 = check_in_range("beta1", beta1, 0.0, 1.0, inclusive_high=False)
        self.beta2 = check_in_range("beta2", beta2, 0.0, 1.0, inclusive_high=False)
        self.eps = check_positive("eps", eps)
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One Adam update on the mean gradient.

        ``m`` and ``v`` advance in place and the two temporaries come from
        the :mod:`repro.backend.workspace` arena.  Every line applies the
        same IEEE operation, in the same order, as the textbook expression

            m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
            params - lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)

        so the update is bit-identical to it.
        """
        if self._m is None:
            dtype = np.result_type(grad, 1.0)
            self._m = workspace.zeros(grad.shape, dtype)
            self._v = workspace.zeros(grad.shape, dtype)
        self._t += 1
        m, v = self._m, self._v
        with workspace.scratch(m.shape, m.dtype) as m_hat, workspace.scratch(
            v.shape, v.dtype
        ) as v_hat:
            np.multiply(grad, 1 - self.beta1, out=m_hat)
            m *= self.beta1
            m += m_hat
            np.square(grad, out=v_hat)
            v_hat *= 1 - self.beta2
            v *= self.beta2
            v += v_hat
            np.divide(m, 1 - self.beta1**self._t, out=m_hat)
            np.divide(v, 1 - self.beta2**self._t, out=v_hat)
            np.sqrt(v_hat, out=v_hat)
            v_hat += self.eps
            m_hat *= self.learning_rate
            m_hat /= v_hat
            return params - m_hat

    def state_dict(self) -> dict:
        """Mutable optimizer state for checkpointing (see :mod:`repro.checkpoint`)."""
        return {
            "m": _copy_or_none(self._m),
            "v": _copy_or_none(self._v),
            "t": int(self._t),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._m = _copy_or_none(state["m"])
        self._v = _copy_or_none(state["v"])
        self._t = int(state["t"])

    def __repr__(self) -> str:
        return f"AdamOptimizer(lr={self.learning_rate})"


class DpAdamOptimizer(PrivateOptimizer):
    """DP-Adam: per-sample clip + Gaussian noise, then Adam moments (ref [54]).

    The privacy analysis is identical to DP-SGD (the noisy averaged gradient
    is the only data-dependent quantity entering the moments), so the same
    accountant and ledger apply.  ``beta1`` / ``beta2`` / ``eps`` configure
    the Adam update; every other argument is as for
    :class:`~repro.core.dpsgd.DpSgdOptimizer`.
    """

    def __init__(
        self,
        learning_rate: float,
        clipping: float | ClippingStrategy,
        noise_multiplier: float,
        rng=None,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        accountant=None,
        sample_rate: float | None = None,
        lot_size: int | None = None,
        recorder=None,
        tracer=None,
        ledger=None,
        grad_mode: str = "materialize",
    ):
        from repro.core.dpsgd import GaussianRelease

        super().__init__(
            AdamOptimizer(learning_rate, beta1=beta1, beta2=beta2, eps=eps),
            GaussianRelease(),
            clipping, noise_multiplier, rng, accountant=accountant,
            sample_rate=sample_rate, lot_size=lot_size, recorder=recorder,
            tracer=tracer, ledger=ledger, grad_mode=grad_mode,
        )
