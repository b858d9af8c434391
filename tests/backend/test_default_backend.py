"""The default backend: ``auto`` when ``REPRO_BACKEND`` is unset.

With no environment override the library resolves ``auto`` (the compiled
kernel where it builds, else ``fused``) and records no fallback.  Noise
is drawn by the callers in a fixed order, so a seeded GeoDP-Adam ghost
run on the default backend releases what ``reference`` releases: the
same ledger chain head and the same epsilon, parameters within 1e-10.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backend as backend_mod
from repro.backend import (
    BACKEND_DISABLE_ENV,
    BACKEND_ENV,
    get_backend,
    note_backend,
    set_backend,
    use_backend,
)
from repro.core import GeoDpAdamOptimizer, Trainer
from repro.data import make_mnist_like
from repro.models import build_mlp
from repro.privacy import RdpAccountant, ReleaseLedger
from repro.telemetry.recorder import MetricsRecorder

pytestmark = pytest.mark.backend


def _fresh_default():
    """The backend a new process would pick up (no selection made yet)."""
    backend_mod._active = None
    return get_backend()


@pytest.mark.parametrize("disabled", ["", "numba,cext"], ids=["all", "numpy-only"])
def test_unset_env_resolves_like_auto(monkeypatch, disabled):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setenv(BACKEND_DISABLE_ENV, disabled)
    default = _fresh_default()
    assert backend_mod._active_fell_back is False
    assert default is set_backend("auto")

    backend_mod._active = None
    recorder = MetricsRecorder()
    note_backend(recorder)
    assert recorder.counters[f"backend_active_{default.name}"] == 1
    assert "backend_fallbacks" not in recorder.counters


def test_env_still_selects_reference(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "reference")
    assert _fresh_default().name == "reference"


def _geodp_adam_ghost_run(steps=20):
    """Seeded GeoDP-Adam ghost run with full accounting; returns its outputs."""
    data = make_mnist_like(200, rng=0, size=8)
    model = build_mlp((1, 8, 8), [16], rng=1)
    accountant = RdpAccountant()
    ledger = ReleaseLedger(delta=1e-5)
    batch = 16
    optimizer = GeoDpAdamOptimizer(
        1e-2,
        1.0,
        1.0,
        0.1,
        rng=np.random.default_rng(2),
        sensitivity_mode="per_angle",
        grad_mode="ghost",
        accountant=accountant,
        sample_rate=batch / len(data),
        ledger=ledger,
    )
    trainer = Trainer(model, optimizer, data, batch_size=batch, rng=3)
    trainer.train(steps)
    return model.get_params(), ledger.head, accountant.get_epsilon(1e-5)


def test_default_ghost_run_matches_reference(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    _fresh_default()
    params, head, epsilon = _geodp_adam_ghost_run()
    with use_backend("reference"):
        ref_params, ref_head, ref_epsilon = _geodp_adam_ghost_run()
    assert head == ref_head
    assert epsilon == ref_epsilon
    np.testing.assert_allclose(params, ref_params, rtol=1e-10, atol=1e-10)
