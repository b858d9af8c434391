"""Thread-count determinism of the parallel kernel execution layer.

The contract (:mod:`repro.backend.threads`): chunk boundaries are a pure
function of the input *shape*, chunks write disjoint output slices or
produce partials reduced in chunk-index order, and kernels never draw
randomness.  Consequently the configured thread count may change which
thread computes a block but never a single output bit.  These tests
assert that literally — ``tobytes()`` equality across ``threads in
{1, 2, 4}`` for every threaded kernel family, RNG-stream equality, and a
tier-1 training smoke where params, ledger chain head and accountant
history replay bit-identically under 1 vs 4 threads.

Shapes are chosen to actually cross the blocking thresholds
(``fused._row_block`` / ``fused._batch_block``) so the chunked code path
— not the small-input fallthrough — is what runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend, use_backend, use_num_threads
from repro.backend.threads import MAX_THREADS, chunk_spans, run_chunks, set_num_threads
from repro.core.dpsgd import DpSgdOptimizer
from repro.core.geodp import GeoDpSgdOptimizer
from repro.core.perturbation import perturb_geodp_batch
from repro.geometry import canonicalize_angles
from repro.privacy.accountant import RdpAccountant
from repro.privacy.ledger import ReleaseLedger, verify_ledger

from tests.backend.conftest import parity_backends

pytestmark = [pytest.mark.backend, pytest.mark.threads]

#: Backends with a threaded execution layer (reference is serial by design).
THREADED_BACKENDS = [name for name in parity_backends() if name in ("fused", "cext")]

#: Thread counts of the determinism grid; 1 is the baseline.
THREAD_COUNTS = (1, 2, 4)

#: (m, d) past the 2^17-double blocking threshold: 12 chunks of 4 rows.
GEOM_SHAPE = (48, 4096)


def _bytes_at_threads(fn, n: int) -> tuple:
    """Run ``fn`` under ``n`` configured threads; return output bytes."""
    with use_num_threads(n):
        out = fn()
    if isinstance(out, tuple):
        return tuple(o.tobytes() for o in out if o is not None)
    return (out.tobytes(),)


def _assert_thread_invariant(fn, label: str):
    base = _bytes_at_threads(fn, THREAD_COUNTS[0])
    for n in THREAD_COUNTS[1:]:
        assert _bytes_at_threads(fn, n) == base, (
            f"{label}: output changed between 1 and {n} threads"
        )


@pytest.mark.parametrize("backend_name", THREADED_BACKENDS)
class TestKernelGrid:
    """Byte-equality grid: kernel family x backend x threads in {1, 2, 4}."""

    def test_spherical_decompose(self, backend_name):
        grads = np.random.default_rng(0).normal(size=GEOM_SHAPE)
        with use_backend(backend_name):
            backend = get_backend()
            _assert_thread_invariant(
                lambda: backend.spherical_decompose(grads), "spherical_decompose"
            )

    def test_spherical_compose(self, backend_name):
        rng = np.random.default_rng(1)
        mags = np.abs(rng.normal(size=GEOM_SHAPE[0])) + 0.1
        thetas = rng.uniform(0.0, np.pi, size=(GEOM_SHAPE[0], GEOM_SHAPE[1] - 1))
        with use_backend(backend_name):
            backend = get_backend()
            _assert_thread_invariant(
                lambda: backend.spherical_compose(mags, thetas), "spherical_compose"
            )

    def test_geodp_perturb(self, backend_name):
        rng = np.random.default_rng(2)
        clipped = rng.normal(size=GEOM_SHAPE) * 0.01
        mag_noise = rng.normal(size=GEOM_SHAPE[0]) * 0.1
        theta_noise = rng.normal(size=(GEOM_SHAPE[0], GEOM_SHAPE[1] - 1)) * 0.1
        with use_backend(backend_name):
            backend = get_backend()
            _assert_thread_invariant(
                lambda: backend.geodp_perturb(clipped, mag_noise, theta_noise),
                "geodp_perturb",
            )

    def test_canonicalize_angles(self, backend_name):
        noised = np.random.default_rng(3).normal(
            0.0, 4.0, size=(GEOM_SHAPE[0], GEOM_SHAPE[1] - 1)
        )
        with use_backend(backend_name):
            backend = get_backend()
            _assert_thread_invariant(
                lambda: backend.canonicalize_angles(noised), "canonicalize_angles"
            )

    def test_linear_ghost_norm_and_clip_accumulate(self, backend_name):
        # batch * (in + out) = 64 * 8448 doubles: blocked into 2 chunks.
        rng = np.random.default_rng(4)
        x = rng.normal(size=(64, 8192))
        grad_out = rng.normal(size=(64, 256))
        factors = rng.uniform(0.1, 1.0, size=64)
        with use_backend(backend_name):
            backend = get_backend()
            _assert_thread_invariant(
                lambda: backend.linear_norm_sq(x, grad_out, True), "linear_norm_sq"
            )
            _assert_thread_invariant(
                lambda: backend.linear_clip_accumulate(x, grad_out, factors, True),
                "linear_clip_accumulate",
            )

    def test_conv_clip_accumulate(self, backend_name):
        # The accelerated backends inherit the reference's single batched
        # matmul here; the thread count must still change no output bit.
        rng = np.random.default_rng(5)
        cols = rng.normal(size=(32, 64, 256))
        dy = rng.normal(size=(32, 32, 256))
        factors = rng.uniform(0.1, 1.0, size=32)
        with use_backend(backend_name):
            backend = get_backend()
            _assert_thread_invariant(
                lambda: backend.conv_clip_accumulate(cols, dy, factors, True),
                "conv_clip_accumulate",
            )


@pytest.mark.parametrize("backend_name", THREADED_BACKENDS)
def test_public_perturbation_rng_stream_and_output(backend_name):
    """Thread count changes neither the noise stream nor the release bytes."""
    grads = np.random.default_rng(6).normal(size=GEOM_SHAPE) * 0.01
    results = {}
    for n in THREAD_COUNTS:
        rng = np.random.default_rng(123)
        with use_backend(backend_name), use_num_threads(n):
            out = perturb_geodp_batch(grads, 1.0, 0.8, 32, 0.2, rng)
        results[n] = (out.tobytes(), rng.bit_generator.state)
    base_bytes, base_state = results[1]
    for n in THREAD_COUNTS[1:]:
        assert results[n][0] == base_bytes, f"release bytes changed at {n} threads"
        assert results[n][1] == base_state, f"RNG stream changed at {n} threads"


@pytest.mark.parametrize("backend_name", THREADED_BACKENDS)
def test_public_canonicalize_entry_point(backend_name):
    """The geometry-module wrapper dispatches through the threaded kernel."""
    noised = np.random.default_rng(7).normal(
        0.0, 4.0, size=(GEOM_SHAPE[0], GEOM_SHAPE[1] - 1)
    )
    with use_backend(backend_name):
        _assert_thread_invariant(
            lambda: canonicalize_angles(noised), "canonicalize_angles (public)"
        )


def _train_release_run(optimizer_cls, num_threads, **extra):
    """Tiny DP run: 4 steps of clipped-sum + release with full accounting."""
    data_rng = np.random.default_rng(11)
    grads_per_step = [data_rng.normal(size=(8, 30)) for _ in range(4)]
    accountant = RdpAccountant()
    ledger = ReleaseLedger(delta=1e-5)
    with use_backend("auto"), use_num_threads(num_threads):
        opt = optimizer_cls(
            learning_rate=0.1,
            clipping=1.0,
            noise_multiplier=1.1,
            rng=np.random.default_rng(2024),
            accountant=accountant,
            sample_rate=0.01,
            ledger=ledger,
            **extra,
        )
        params = np.zeros(30)
        for grads in grads_per_step:
            params = opt.step(params, grads)
    return params, accountant, ledger


@pytest.mark.parametrize(
    "optimizer_cls,extra",
    [(DpSgdOptimizer, {}), (GeoDpSgdOptimizer, {"beta": 0.2})],
    ids=["dpsgd", "geodp"],
)
def test_training_run_bit_identical_across_thread_counts(optimizer_cls, extra):
    """Tier-1 smoke: a DP training loop cannot see the thread count.

    4 steps under 1 vs 4 configured threads must produce bit-identical
    parameters, an identical hash-chained ledger head, and an identical
    accountant history.
    """
    base_params, base_acct, base_ledger = _train_release_run(optimizer_cls, 1, **extra)
    verify_ledger(base_ledger, accountant=base_acct)
    params, acct, ledger = _train_release_run(optimizer_cls, 4, **extra)
    verify_ledger(ledger, accountant=acct)
    assert params.tobytes() == base_params.tobytes()
    assert len(ledger.entries) == len(base_ledger.entries) == 4
    assert ledger.head == base_ledger.head, "ledger diverged across thread counts"
    assert acct.history == base_acct.history


class TestThreadApi:
    def test_chunk_spans_cover_and_partition(self):
        spans = chunk_spans(10, 3)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert chunk_spans(0, 4) == []
        assert chunk_spans(5, 100) == [(0, 5)]
        # Boundaries are shape-derived: identical whatever the thread count.
        for n in THREAD_COUNTS:
            with use_num_threads(n):
                assert chunk_spans(10, 3) == spans

    def test_run_chunks_executes_every_span_once(self):
        for n in (1, 4):
            hits = []
            with use_num_threads(n):
                run_chunks(lambda start, stop: hits.append((start, stop)), chunk_spans(7, 2))
            assert sorted(hits) == [(0, 2), (2, 4), (4, 6), (6, 7)]

    def test_run_chunks_propagates_exceptions(self):
        def boom(start, stop):
            raise RuntimeError("chunk failed")

        for n in (1, 4):
            with use_num_threads(n), pytest.raises(RuntimeError, match="chunk failed"):
                run_chunks(boom, chunk_spans(8, 2))

    def test_set_num_threads_validates_and_clamps(self):
        with pytest.raises(ValueError):
            set_num_threads(0)
        with use_num_threads(1):
            assert set_num_threads(MAX_THREADS + 10) == MAX_THREADS

    def test_use_num_threads_restores_previous(self):
        with use_num_threads(1):
            with use_num_threads(3) as n:
                assert n == 3
            from repro.backend import get_num_threads

            assert get_num_threads() == 1
