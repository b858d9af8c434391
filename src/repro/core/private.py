"""One private optimizer: clip, release, account, update.

DP-SGD (paper Eq. 8) and GeoDP (Algorithm 1) differ in one step: how the
averaged clipped gradient is perturbed.  :class:`PrivateOptimizer` holds
everything else once and composes

* a **release** (:class:`~repro.core.dpsgd.GaussianRelease`,
  :class:`~repro.core.geodp.GeoDpRelease`) with ``perturb(opt, clipped_sum,
  denominator)``, ``sparse_release(opt, dense_sum, sparse, denominator)``,
  the ledger ``mechanism`` / ``ledger_meta``, ``telemetry_extras(opt, d,
  denominator)`` and ``delta_prime``;
* an **update rule** (:class:`~repro.core.sgd.SgdOptimizer` with momentum,
  :class:`~repro.core.sgd.AdamOptimizer`), post-processing of the release
  that never changes the privacy analysis.

``DpSgdOptimizer``, ``GeoDpSgdOptimizer``, ``DpAdamOptimizer`` and
``GeoDpAdamOptimizer`` are thin named constructors of this class.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.backend import workspace
from repro.core.ghost import check_grad_mode
from repro.privacy.clipping import ClippingStrategy, FlatClipping
from repro.telemetry.diagnostics import record_clipping, record_release
from repro.telemetry.tracing import joint_span
from repro.utils.rng import as_rng, get_rng_state, set_rng_state
from repro.utils.validation import check_matrix, check_positive

__all__ = ["PrivateOptimizer"]


class PrivateOptimizer:
    """Differentially private training step on flat parameter vectors.

    Parameters
    ----------
    update_rule / release:
        The composed parts (see the module docstring).  ``learning_rate``
        reads and writes through to the update rule.
    clipping:
        A clipping threshold ``C`` (float — flat clipping, Eq. 6) or any
        :class:`~repro.privacy.clipping.ClippingStrategy`.
    noise_multiplier:
        Noise multiplier ``sigma``.
    accountant / sample_rate:
        When both are given, every release steps the accountant once.
    lot_size:
        Fixed denominator for the average.  Required for Poisson sampling,
        where dividing by the realised batch size would break the
        sensitivity analysis; also used with gradient accumulation.
        ``None`` divides by the actual batch size (fixed-size batches).
    recorder / tracer:
        Optional :class:`~repro.telemetry.MetricsRecorder` (clipping and
        release diagnostics) and :class:`~repro.telemetry.tracing.Tracer`
        (clip / noise spans).  Observational: neither touches the RNG.
    ledger:
        Optional :class:`~repro.privacy.ledger.ReleaseLedger`; every
        release appends one hash-chained entry, auditable with
        :func:`~repro.privacy.ledger.verify_ledger`.
    grad_mode:
        ``"materialize"`` (default) asks the trainer for the ``(B, P)``
        per-sample gradients; ``"ghost"`` for :meth:`ghost_clipped_sum`
        (O(P) gradient memory, same release; ``docs/performance.md``).
    """

    #: Trainer uses this to decide which gradient API to call.
    requires_per_sample = True

    def __init__(
        self,
        update_rule,
        release,
        clipping: float | ClippingStrategy,
        noise_multiplier: float,
        rng=None,
        *,
        accountant=None,
        sample_rate: float | None = None,
        lot_size: int | None = None,
        recorder=None,
        tracer=None,
        ledger=None,
        grad_mode: str = "materialize",
    ):
        self.update_rule = update_rule
        self.release = release
        self.recorder = recorder
        self.tracer = tracer
        self.ledger = ledger
        self.grad_mode = check_grad_mode(grad_mode)
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
        if lot_size is not None and lot_size < 1:
            raise ValueError(f"lot_size must be >= 1, got {lot_size}")
        self.lot_size = lot_size
        #: Noisy averaged gradient of the most recent step (diagnostics).
        #: The next step recycles its buffer unless a caller still holds it.
        self.last_noisy_gradient: np.ndarray | None = None

    @property
    def learning_rate(self) -> float:
        """The update rule's step size (settable, e.g. by a schedule)."""
        return self.update_rule.learning_rate

    @learning_rate.setter
    def learning_rate(self, value: float) -> None:
        self.update_rule.learning_rate = value

    @property
    def delta_prime(self) -> float:
        """The release's extra δ (Lemma 2's bound for GeoDP, 0 for Gaussian)."""
        return self.release.delta_prime

    # ------------------------------------------------------------ clipping
    def clipped_sum(self, per_sample_grads) -> np.ndarray:
        """Clip per-sample gradients and sum them (the accumulation unit)."""
        grads = check_matrix("per_sample_grads", per_sample_grads)
        if grads.shape[0] == 0:
            return workspace.zeros(grads.shape[1])
        with joint_span(self.recorder, self.tracer, "clip"):
            clipped, norms = self.clipping.clip_with_norms(grads)
            summed = clipped.sum(axis=0)
        record_clipping(self.recorder, grads, self.clipping.sensitivity(), norms=norms)
        return summed

    def observed_clip(self, span: str, prefix: str, clip_pass, *args):
        """Run a norm-first clip-and-sum pass with the optimizer's telemetry.

        ``clip_pass(*args, clipping)`` returns its outputs with the exact
        per-sample norms last; the clipping strategy observes them inside
        the pass, so adaptive thresholds follow the materialized trajectory.
        The pass runs under ``span``; a recorder gets the usual clipping
        diagnostics plus ``{prefix}_clipped_sums`` / ``{prefix}_samples``
        counters.  Returns the outputs without the norms.
        """
        with joint_span(self.recorder, self.tracer, span):
            *out, norms = clip_pass(*args, self.clipping)
        if self.recorder is not None:
            record_clipping(self.recorder, None, self.clipping.sensitivity(), norms=norms)
            self.recorder.increment(f"{prefix}_clipped_sums")
            self.recorder.increment(f"{prefix}_samples", len(norms))
        return tuple(out)

    def ghost_clipped_sum(self, model, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Ghost clip-and-sum of one batch (no ``(B, P)`` matrix).

        Returns ``(per-sample losses (B,), clipped gradient sum (P,))`` from
        :meth:`repro.nn.Sequential.loss_and_clipped_grad_sum`.
        """
        return self.observed_clip("ghost", "ghost", model.loss_and_clipped_grad_sum, x, y)

    # ------------------------------------------------------------- release
    def _denominator(self, count: int) -> int:
        """``lot_size`` when pinned, else the sample count (must be >= 1)."""
        denominator = self.lot_size if self.lot_size is not None else count
        if denominator < 1:
            raise ValueError(
                "empty batch with no lot_size: set lot_size for Poisson sampling"
            )
        return denominator

    def noisy_gradient_presummed(self, clipped_sum: np.ndarray, count: int) -> np.ndarray:
        """Release an already clipped-and-summed gradient.

        ``count`` is the number of samples in the sum; ignored when a fixed
        ``lot_size`` is configured.
        """
        denominator = self._denominator(count)
        workspace.note_release_shape(self, clipped_sum.shape)
        with joint_span(self.recorder, self.tracer, "noise"):
            noisy = self.release.perturb(self, clipped_sum, denominator)
        if self.recorder is not None:
            record_release(
                self.recorder,
                clipped_sum / denominator,
                noisy,
                sigma=self.noise_multiplier,
                sensitivity=self.clipping.sensitivity(),
                extras=self.release.telemetry_extras(self, clipped_sum.size, denominator),
            )
        return noisy

    def noisy_gradient(self, per_sample_grads) -> np.ndarray:
        """Clip, aggregate and release per-sample gradients."""
        grads = check_matrix("per_sample_grads", per_sample_grads)
        return self.noisy_gradient_presummed(self.clipped_sum(grads), grads.shape[0])

    def _account_release(self) -> None:
        """Record one DP release with the accountant and the ledger.

        The ledger entry is appended *after* the accountant step so its
        ε-at-release includes the release itself — exactly what a replay
        through a fresh accountant reproduces.
        """
        if self.accountant is not None:
            self.accountant.step(max(self.noise_multiplier, 1e-12), self.sample_rate)
        if self.ledger is not None:
            self.ledger.record_release(
                mechanism=self.release.mechanism,
                sigma=self.noise_multiplier,
                sensitivity=self.clipping.sensitivity(),
                sample_rate=0.0 if self.sample_rate is None else self.sample_rate,
                accountant=self.accountant,
                meta=self.release.ledger_meta,
            )
        if self.recorder is not None:
            # Per-mechanism release counter for the live metric surface.
            self.recorder.increment(f"releases_{self.release.mechanism}")

    def _recycle_last_release(self) -> None:
        """Give the previous release's buffer back to the workspace pool.

        Release kernels take their output from the pool, so this makes the
        next release a pool hit.  A buffer goes back only when the release
        filled it entirely (a sparse release's dense block is a slice of a
        per-lot buffer) and nothing else refers to it, so a
        ``last_noisy_gradient`` a caller kept is never overwritten.
        """
        prev, self.last_noisy_gradient = self.last_noisy_gradient, None
        if prev is None or sys.getrefcount(prev) > 2:  # ``prev`` + the argument
            return
        owner = prev if prev.base is None else prev.base
        # ``prev.base`` (or ``prev``), ``owner`` and the argument; a caller's
        # view of the buffer would add one more.
        if isinstance(owner, np.ndarray) and owner.size == prev.size and sys.getrefcount(owner) == 3:
            workspace.give(owner)

    def _apply(self, params: np.ndarray, noisy: np.ndarray) -> np.ndarray:
        """Account the release, then hand it to the update rule."""
        self.last_noisy_gradient = noisy
        self._account_release()
        return self.update_rule.step(params, noisy)

    # --------------------------------------------------------------- steps
    def step(self, params: np.ndarray, per_sample_grads) -> np.ndarray:
        """One private update; returns the new parameter vector."""
        self._recycle_last_release()
        return self._apply(params, self.noisy_gradient(per_sample_grads))

    def step_presummed(self, params: np.ndarray, clipped_sum: np.ndarray, count: int) -> np.ndarray:
        """One update from an accumulated clipped sum (accumulation, ghost)."""
        self._recycle_last_release()
        return self._apply(params, self.noisy_gradient_presummed(clipped_sum, count))

    def step_sparse(self, params: np.ndarray, dense_sum: np.ndarray, count: int, sparse) -> np.ndarray:
        """One sparse update; returns the new dense (non-embedding) params.

        ``sparse`` is a :class:`repro.sparse.release.SparseRelease` whose
        table is updated in place: touched rows take a plain SGD step now,
        untouched rows' noise is deferred.  One release, one accountant step
        and one ledger entry, exactly as on the dense path.
        """
        self._recycle_last_release()
        noisy = self.release.sparse_release(
            self, dense_sum, sparse, self._denominator(count)
        )
        return self._apply(params, noisy)

    # ---------------------------------------------------------- checkpoint
    def state_dict(self) -> dict:
        """Everything a resumed run needs to continue bit-identically.

        The update rule's state (velocity or Adam moments), the lot size,
        the noise stream and the clipping / accountant / ledger state (see
        :mod:`repro.checkpoint`).
        """
        return {
            **self.update_rule.state_dict(),
            "lot_size": None if self.lot_size is None else int(self.lot_size),
            "rng": get_rng_state(self.rng),
            "clipping": self.clipping.state_dict(),
            "accountant": (
                None if self.accountant is None else self.accountant.state_dict()
            ),
            "ledger": None if self.ledger is None else self.ledger.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.update_rule.load_state_dict(state)
        # Adam-variant snapshots written before they had a lot size carry
        # no "lot_size" key; keep the configured one.
        if "lot_size" in state:
            self.lot_size = None if state["lot_size"] is None else int(state["lot_size"])
        set_rng_state(self.rng, state["rng"])
        self.clipping.load_state_dict(state["clipping"])
        if state["accountant"] is not None:
            if self.accountant is None:
                raise ValueError("snapshot has accountant state but none is attached")
            self.accountant.load_state_dict(state["accountant"])
        # Snapshots from before the ledger existed have no "ledger" key.
        if state.get("ledger") is not None:
            if self.ledger is None:
                raise ValueError("snapshot has ledger state but none is attached")
            self.ledger.load_state_dict(state["ledger"])

    def _repr_fields(self) -> str:
        return ""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(lr={self.learning_rate}, clipping={self.clipping!r}, "
            f"sigma={self.noise_multiplier}{self._repr_fields()})"
        )
