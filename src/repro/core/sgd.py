"""Non-private optimizers and DP-Adam.

The paper's noise-free baseline is mini-batch SGD without momentum (§II-B);
Momentum/Adam are provided as substrate for the "future work" direction the
paper names (DP-Adam [54]) and for the ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.backend import workspace
from repro.privacy.clipping import ClippingStrategy, FlatClipping
from repro.utils.rng import as_rng
from repro.utils.validation import check_in_range, check_matrix, check_positive

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


class DpAdamOptimizer(AdamOptimizer):
    """DP-Adam: per-sample clip + Gaussian noise, then Adam moments (ref [54]).

    The privacy analysis is identical to DP-SGD (the noisy averaged gradient
    is the only data-dependent quantity entering the moments), so the same
    accountant applies.
    """

    requires_per_sample = True

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
    ):
        super().__init__(learning_rate, beta1=beta1, beta2=beta2, eps=eps)
        if isinstance(clipping, (int, float)):
            clipping = FlatClipping(float(clipping))
        self.clipping = clipping
        self.noise_multiplier = check_positive(
            "noise_multiplier", noise_multiplier, strict=False
        )
        self.rng = as_rng(rng)
        self.accountant = accountant
        self.sample_rate = sample_rate
        if accountant is not None and sample_rate is None:
            raise ValueError("sample_rate is required when an accountant is attached")

    def step(self, params: np.ndarray, per_sample_grads) -> np.ndarray:
        """Clip + noise the batch gradient, then apply Adam."""
        grads = check_matrix("per_sample_grads", per_sample_grads)
        batch_size = grads.shape[0]
        clipped = self.clipping.clip(grads)
        summed = clipped.sum(axis=0)
        scale = self.noise_multiplier * self.clipping.sensitivity()
        noise = self.rng.normal(0.0, scale, size=summed.shape) if scale > 0 else 0.0
        noisy_avg = (summed + noise) / batch_size
        if self.accountant is not None:
            self.accountant.step(max(self.noise_multiplier, 1e-12), self.sample_rate)
        return super().step(params, noisy_avg)

    def state_dict(self) -> dict:
        """Adam moments plus noise stream, clipping and accountant state."""
        from repro.utils.rng import get_rng_state

        state = super().state_dict()
        state["rng"] = get_rng_state(self.rng)
        state["clipping"] = self.clipping.state_dict()
        state["accountant"] = (
            None if self.accountant is None else self.accountant.state_dict()
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        from repro.utils.rng import set_rng_state

        super().load_state_dict({k: state[k] for k in ("m", "v", "t")})
        set_rng_state(self.rng, state["rng"])
        self.clipping.load_state_dict(state["clipping"])
        if state["accountant"] is not None:
            if self.accountant is None:
                raise ValueError("snapshot has accountant state but none is attached")
            self.accountant.load_state_dict(state["accountant"])

    def __repr__(self) -> str:
        return (
            f"DpAdamOptimizer(lr={self.learning_rate}, clipping={self.clipping!r}, "
            f"sigma={self.noise_multiplier})"
        )
