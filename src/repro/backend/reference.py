"""Pure-numpy reference backend.

Every kernel here is the *definition* of correct: the bodies are the
plain numpy formulations of each kernel, with no blocking, threading or
workspace reuse.  Most are the exact operations the library shipped with
before the backend layer existed; the two conv ghost kernels
(``conv_norm_sq``'s per-sample branch and ``conv_clip_accumulate``) form
their per-sample ``(B, O, K)`` products with a batched BLAS matmul instead
of an einsum, which agrees with the einsum formulation to ~1e-15
relative.  The differential parity harness in ``tests/backend/`` measures
every other backend against these implementations.

Kernels are pure functions of ``float64`` arrays: they never touch an RNG
(noise is drawn by the caller and passed in, already scaled), never
validate (callers validate), and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReferenceBackend"]


class ReferenceBackend:
    """Plain-numpy kernels; always available; the parity baseline."""

    name = "reference"
    #: Whether this backend is an optimized implementation (used by ``auto``
    #: selection and by the benchmark gate that accelerated kernels must
    #: beat the reference).
    accelerated = False

    # ------------------------------------------------------------- geometry
    def spherical_decompose(self, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(m, d) -> (magnitudes (m,), angles (m, d-1))`` (paper Eq. 24-26)."""
        m, d = grads.shape
        squares = grads**2
        # tail_sq[:, z] = sum_{k > z} grads[:, k]^2  (0-indexed).  Writing the
        # reversed cumulative sum straight into a preallocated buffer keeps
        # the addition order of the reversed-cumsum formulation while
        # skipping the reverse/slice/concatenate temporaries.
        tail_sq = np.empty((m, d))
        tail_sq[:, -1] = 0.0
        np.cumsum(squares[:, :0:-1], axis=1, out=tail_sq[:, -2::-1])
        # Cumulative floating-point cancellation can leave tiny negatives.
        np.maximum(tail_sq, 0.0, out=tail_sq)
        magnitudes = np.sqrt(squares.sum(axis=1))

        theta = np.empty((m, d - 1))
        if d > 2:
            theta[:, : d - 2] = np.arctan2(
                np.sqrt(tail_sq[:, : d - 2]), grads[:, : d - 2]
            )
        theta[:, d - 2] = np.arctan2(grads[:, d - 1], grads[:, d - 2])
        return magnitudes, theta

    def spherical_compose(self, magnitudes: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """``(magnitudes (m,), angles (m, d-1)) -> (m, d)`` (paper Eq. 27)."""
        m, d_minus_1 = thetas.shape
        d = d_minus_1 + 1
        sines = np.sin(thetas)
        cosines = np.cos(thetas)
        # sin_prod[:, z] = prod_{i < z} sin(theta_i), with sin_prod[:, 0] = 1.
        sin_prod = np.empty((m, d))
        sin_prod[:, 0] = 1.0
        np.cumprod(sines, axis=1, out=sin_prod[:, 1:])
        g = np.empty((m, d))
        g[:, : d - 1] = sin_prod[:, : d - 1] * cosines
        g[:, d - 1] = sin_prod[:, d - 1]
        g *= magnitudes[:, None]
        return g

    def geodp_perturb(
        self, clipped: np.ndarray, mag_noise: np.ndarray, theta_noise: np.ndarray
    ) -> np.ndarray:
        """Fuseable GeoDP hot path: decompose, add pre-scaled noise, compose.

        ``mag_noise`` ``(m,)`` and ``theta_noise`` ``(m, d-1)`` are already
        scaled by the caller (``(C/B) * sigma`` resp. the direction
        sensitivity), so the kernel is deterministic.  The reference
        implementation is literally the round trip — accelerated backends
        may fuse the three stages but must match it to 1e-10.
        """
        magnitudes, thetas = self.spherical_decompose(clipped)
        return self.spherical_compose(magnitudes + mag_noise, thetas + theta_noise)

    def canonicalize_angles(self, thetas: np.ndarray) -> np.ndarray:
        """Fold noised angles ``(m, d-1)`` into canonical ranges, row by row.

        The exact historical vectorized formulation (see
        :func:`repro.geometry.spherical.canonicalize_angles` for the
        geometry): whether a polar angle folds is independent of pending
        negations, so the negation flag at position ``z`` is the exclusive
        prefix parity of the fold flags — one cumsum per row.  Rows never
        interact, which is what lets accelerated backends chunk this.
        """
        out = np.empty_like(thetas)
        d_minus_1 = thetas.shape[1]
        if d_minus_1 > 1:
            polar = np.mod(thetas[:, :-1], 2.0 * np.pi)
            above = polar > np.pi
            folded = np.where(above, 2.0 * np.pi - polar, polar)
            fold_count = np.cumsum(above, axis=1)
            pending = (fold_count - above) % 2 == 1  # exclusive prefix parity
            out[:, :-1] = np.where(pending, np.pi - folded, folded)
            negate = fold_count[:, -1] % 2 == 1
        else:
            negate = np.zeros(thetas.shape[0], dtype=bool)
        last = thetas[:, -1].copy()
        last[negate] += np.pi
        last = np.mod(last + np.pi, 2 * np.pi) - np.pi
        # mod maps pi -> -pi; keep the canonical (-pi, pi] convention.
        last[last == -np.pi] = np.pi
        out[:, -1] = last
        return out

    # ---------------------------------------------------------- ghost norms
    def linear_norm_sq(
        self, x: np.ndarray, grad_out: np.ndarray, bias: bool
    ) -> np.ndarray:
        """Per-sample ``||dW_i||^2 (+ ||db_i||^2)`` for ``y = x @ W + b``.

        The per-sample weight gradient is the outer product ``a_i e_i^T``,
        so its squared Frobenius norm factorizes: ``||a_i||^2 * ||e_i||^2``.
        """
        e_sq = np.einsum("bo,bo->b", grad_out, grad_out)
        norm_sq = np.einsum("bi,bi->b", x, x) * e_sq
        if bias:
            norm_sq = norm_sq + e_sq
        return norm_sq

    def conv_norm_sq(self, cols: np.ndarray, dy: np.ndarray, bias: bool) -> np.ndarray:
        """Per-sample conv gradient norms from im2col patches.

        ``cols`` is ``(B, K, L)`` with ``K = in_c * k * k``; ``dy`` is
        ``(B, O, L)``.  Uses the ghost-norm Gram trick
        ``||E_i A_i^T||_F^2 = <A_i^T A_i, E_i^T E_i>_F`` when the ``(L, L)``
        Grams are smaller than the ``(B, O, K)`` per-sample gradients.
        """
        out_channels = dy.shape[1]
        k_dim, length = cols.shape[1], cols.shape[2]
        if length * length <= out_channels * k_dim:
            ga = np.einsum("bkl,bkm->blm", cols, cols)
            ge = np.einsum("bol,bom->blm", dy, dy)
            norm_sq = np.einsum("blm,blm->b", ga, ge)
        else:
            dw = np.matmul(dy, cols.transpose(0, 2, 1))  # (B, O, K)
            norm_sq = np.einsum("bok,bok->b", dw, dw)
        if bias:
            db = dy.sum(axis=2)
            norm_sq = norm_sq + np.einsum("bo,bo->b", db, db)
        return norm_sq

    def embedding_norm_sq(self, tokens: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
        """Per-sample embedding gradient norms via the token-masked Gram.

        ``||dw_i||^2 = sum_{l,m} [t_l == t_m] <g_l, g_m>`` — the ``(L, L)``
        positional Gram masked by token equality; repeated tokens are what
        makes this differ from a plain sum of ``||g_l||^2``.
        """
        gram = np.einsum("bld,bmd->blm", grad_out, grad_out)
        same = tokens[:, :, None] == tokens[:, None, :]
        return np.einsum("blm,blm->b", gram, same.astype(np.float64))

    # ------------------------------------------------- clipped accumulation
    def linear_clip_accumulate(
        self, x: np.ndarray, grad_out: np.ndarray, factors: np.ndarray, bias: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``sum_i c_i a_i e_i^T`` (and ``sum_i c_i e_i``) without ``(B, P)``."""
        scaled = grad_out * factors[:, None]
        dw = x.T @ scaled
        db = scaled.sum(axis=0) if bias else None
        return dw, db

    def conv_clip_accumulate(
        self, cols: np.ndarray, dy: np.ndarray, factors: np.ndarray, bias: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Clip-scaled conv weight-gradient sum ``(O, K)`` from patches."""
        per_sample = np.matmul(dy, cols.transpose(0, 2, 1))  # (B, O, K)
        dw = np.einsum("b,bok->ok", factors, per_sample)
        db = factors @ dy.sum(axis=2) if bias else None
        return dw, db

    def embedding_clip_accumulate(
        self,
        tokens: np.ndarray,
        grad_out: np.ndarray,
        factors: np.ndarray,
        vocab_size: int,
    ) -> np.ndarray:
        """Clip-scaled scatter-add of positional gradients onto token rows."""
        dim = grad_out.shape[-1]
        scaled = grad_out * factors[:, None, None]
        dw = np.zeros((vocab_size, dim))
        np.add.at(dw, tokens.ravel(), scaled.reshape(-1, dim))
        return dw

    # ------------------------------------------------- sparse embedding path
    def embedding_sparse_grads(
        self,
        tokens: np.ndarray,
        grad_out: np.ndarray,
        valid: np.ndarray,
        vocab_size: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compact per-sample embedding gradients to touched rows.

        Sums the ``(B, L, D)`` positional gradients over repeated tokens
        *within each sample*, returning one ``(sample_id, row, value)``
        triple per touched ``(sample, row)`` pair, sorted by ``(sample,
        row)``.  Positions with ``valid == False`` (padding) are dropped.
        This is lossless: scattering the triples back reproduces the dense
        per-sample gradient exactly, so norms over ``vals`` are exact.
        """
        batch, length = tokens.shape
        dim = grad_out.shape[-1]
        flat_valid = valid.ravel()
        sample_idx = np.repeat(np.arange(batch, dtype=np.int64), length)[flat_valid]
        flat_tokens = tokens.ravel()[flat_valid].astype(np.int64)
        flat_grads = grad_out.reshape(batch * length, dim)[flat_valid]
        # One key per (sample, row) pair; unique both dedups and sorts.
        keys = sample_idx * np.int64(vocab_size) + flat_tokens
        uniq, inverse = np.unique(keys, return_inverse=True)
        vals = np.zeros((uniq.size, dim))
        np.add.at(vals, inverse, flat_grads)
        return uniq // vocab_size, uniq % vocab_size, vals

    def sparse_row_reduce(
        self,
        sample_ids: np.ndarray,
        rows: np.ndarray,
        vals: np.ndarray,
        factors: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Clip-scale per-sample sparse gradients and merge across the lot.

        ``sum_i c_i dw_i`` restricted to touched rows: each nonzero is
        scaled by its sample's clip factor, then nonzeros sharing a row are
        summed.  Returns ``(unique_rows, summed_vals)`` with rows sorted
        ascending — the sparse counterpart of ``embedding_clip_accumulate``.
        """
        scaled = vals * factors[sample_ids][:, None]
        uniq_rows, inverse = np.unique(rows, return_inverse=True)
        out = np.zeros((uniq_rows.size, vals.shape[1]))
        np.add.at(out, inverse, scaled)
        return uniq_rows, out
