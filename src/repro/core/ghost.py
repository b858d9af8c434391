"""Gradient execution modes of the DP optimizers.

``ghost`` clips and sums without materializing the ``(B, P)`` per-sample
gradients (two backward passes, O(P) memory, the same clipped sum and DP
release); the optimizers reach it through
:meth:`repro.core.private.PrivateOptimizer.ghost_clipped_sum`.
"""

from __future__ import annotations

__all__ = ["GRAD_MODES", "check_grad_mode"]

#: Recognized gradient execution modes.  ``materialize`` is the default and
#: preserves bit-identical seed behaviour; ``ghost`` is the opt-in fast path;
#: ``sparse`` is the embedding-scale touched-rows path, driven by
#: :class:`repro.sparse.SparseTrainer` (the core Trainer rejects it).
GRAD_MODES = ("materialize", "ghost", "sparse")


def check_grad_mode(grad_mode: str) -> str:
    """Validate a ``grad_mode`` string and return it."""
    if grad_mode not in GRAD_MODES:
        raise ValueError(
            f"grad_mode must be one of {GRAD_MODES}, got {grad_mode!r}"
        )
    return grad_mode
