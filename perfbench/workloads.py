"""The four benchmark workloads: inputs from a seed, one audited DP run each.

Every workload is a closed loop over one training run built only from the
library's public API: a :mod:`repro.models` builder, a :mod:`repro.core`
DP optimizer with an :class:`~repro.privacy.RdpAccountant` and a
:class:`~repro.privacy.ReleaseLedger` attached, and a
:class:`~repro.core.Trainer` or :class:`~repro.sparse.SparseTrainer`.
Telemetry (recorder, tracer) stays off.

The seed decides everything random: the generated data, the model
initialisation, the optimizer's noise stream and the trainer's sampling
stream.  The library itself receives only the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import DpSgdOptimizer, GeoDpAdamOptimizer, GeoDpSgdOptimizer, Trainer
from repro.data import make_cifar_like, make_click_log, make_mnist_like, train_test_split
from repro.models import build_cnn, build_mlp, build_text_classifier
from repro.privacy import RdpAccountant, ReleaseLedger
from repro.sparse import SparseTrainer

__all__ = ["DELTA", "WORKLOADS", "Session", "Workload"]

#: delta at which the ledger records epsilon and the checks compare it.
DELTA = 1e-5

# Independent seed streams derived from the workload seed.
_DATA, _SPLIT, _MODEL, _NOISE, _SAMPLING, _ROW_NOISE = range(6)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream))


@dataclass
class Inputs:
    """Generated train/test data for one seed."""

    train: object
    test: object
    num_classes: int


@dataclass
class Session:
    """One built training run: the objects the benchmark drives and audits."""

    model: object
    optimizer: object
    trainer: object
    accountant: RdpAccountant
    ledger: ReleaseLedger
    sigma: float
    sample_rate: float
    #: Bytes of the materialized ``(B, P)`` per-sample gradient matrix per
    #: step (``B * P * 8``); 0 on the ghost and sparse paths.
    per_sample_grad_bytes: int
    steps: int = 0

    def step(self) -> None:
        """One DP training step (waits for it to finish)."""
        self.trainer.train(1)
        self.steps += 1

    def barrier(self) -> None:
        """Closing barrier of a run: flush deferred sparse noise."""
        if isinstance(self.trainer, SparseTrainer):
            self.trainer.finalize()

    def evaluate(self) -> float:
        """Held-out accuracy in training-batch-sized chunks, so evaluation
        never needs more memory than a step (a sparse trainer flushes
        deferred noise first)."""
        return float(self.trainer.evaluate(chunk=self.trainer.batch_size))


@dataclass(frozen=True)
class Workload:
    """A named workload: how to make its inputs and build its training run."""

    name: str
    batch_size: int
    #: Step after which test accuracy and the bit-identity snapshot are taken.
    snapshot_step: int
    make_inputs: Callable[[int], Inputs]
    build: Callable[[Inputs, int], Session]


def _split(data, n_test: int, seed: int) -> tuple:
    return train_test_split(data, test_fraction=n_test / len(data), rng=_rng(seed, _SPLIT))


def _mnist_inputs(seed: int) -> Inputs:
    data = make_mnist_like(3000, rng=_rng(seed, _DATA), size=28)
    train, test = _split(data, 1000, seed)
    return Inputs(train, test, 10)


def _cifar_inputs(seed: int) -> Inputs:
    data = make_cifar_like(1800, rng=_rng(seed, _DATA), size=32)
    train, test = _split(data, 1000, seed)
    return Inputs(train, test, 10)


#: Click-log table: 100k rows x 16, 1% of the rows drawable, row 0 padding.
CLICKLOG_VOCAB = 100_000
CLICKLOG_DIM = 16


def _clicklog_inputs(seed: int) -> Inputs:
    data = make_click_log(
        3000,
        rng=_rng(seed, _DATA),
        vocab_size=CLICKLOG_VOCAB,
        seq_length=20,
        touch_rate=0.01,
        padding_idx=0,
    )
    train, test = _split(data, 1000, seed)
    return Inputs(train, test, 2)


def _audit(inputs: Inputs, batch_size: int) -> dict:
    """Accountant + ledger keyword arguments shared by every optimizer."""
    return {
        "accountant": RdpAccountant(),
        "ledger": ReleaseLedger(delta=DELTA),
        "sample_rate": batch_size / len(inputs.train),
    }


def _session(model, optimizer, trainer, batch_size: int, materialize: bool) -> Session:
    return Session(
        model=model,
        optimizer=optimizer,
        trainer=trainer,
        accountant=optimizer.accountant,
        ledger=optimizer.ledger,
        sigma=optimizer.noise_multiplier,
        sample_rate=optimizer.sample_rate,
        per_sample_grad_bytes=batch_size * model.num_params * 8 if materialize else 0,
    )


def _dense_session(model, optimizer, inputs: Inputs, seed: int, batch_size: int,
                   materialize: bool) -> Session:
    """A core :class:`~repro.core.Trainer` session on ``inputs``."""
    trainer = Trainer(
        model,
        optimizer,
        inputs.train,
        batch_size=batch_size,
        test_data=inputs.test,
        rng=_rng(seed, _SAMPLING),
    )
    return _session(model, optimizer, trainer, batch_size, materialize)


# Table-2 hyper-parameters (repro.experiments.table2 "ci" preset): clip
# norm 0.1, learning rate 4.0, sigma 1.0, GeoDP beta 0.1 with per-angle
# direction sensitivity (the calibration the training grid uses).
_CNN_BATCH = 128


def _build_cnn_geodp(inputs: Inputs, seed: int) -> Session:
    model = build_cnn((1, 28, 28), rng=_rng(seed, _MODEL))
    optimizer = GeoDpSgdOptimizer(
        4.0,
        0.1,
        1.0,
        0.1,
        rng=_rng(seed, _NOISE),
        sensitivity_mode="per_angle",
        **_audit(inputs, _CNN_BATCH),
    )
    return _dense_session(model, optimizer, inputs, seed, _CNN_BATCH, materialize=True)


def _build_cnn_ghost(inputs: Inputs, seed: int) -> Session:
    model = build_cnn((1, 28, 28), rng=_rng(seed, _MODEL))
    optimizer = DpSgdOptimizer(
        4.0,
        0.1,
        1.0,
        rng=_rng(seed, _NOISE),
        grad_mode="ghost",
        **_audit(inputs, _CNN_BATCH),
    )
    return _dense_session(model, optimizer, inputs, seed, _CNN_BATCH, materialize=False)


_WIDE_BATCH = 32


def _build_release_wide(inputs: Inputs, seed: int) -> Session:
    model = build_mlp((3, 32, 32), [256], rng=_rng(seed, _MODEL))
    optimizer = GeoDpAdamOptimizer(
        1e-3,
        1.0,
        1.0,
        0.1,
        rng=_rng(seed, _NOISE),
        sensitivity_mode="per_angle",
        grad_mode="ghost",
        **_audit(inputs, _WIDE_BATCH),
    )
    return _dense_session(model, optimizer, inputs, seed, _WIDE_BATCH, materialize=False)


_CLICK_BATCH = 50


def _build_sparse_clicklog(inputs: Inputs, seed: int) -> Session:
    model = build_text_classifier(
        CLICKLOG_VOCAB,
        inputs.num_classes,
        embedding_dim=CLICKLOG_DIM,
        padding_idx=0,
        rng=_rng(seed, _MODEL),
    )
    optimizer = GeoDpSgdOptimizer(
        0.5,
        1.0,
        0.7,
        0.02,
        rng=_rng(seed, _NOISE),
        sensitivity_mode="per_angle",
        grad_mode="sparse",
        **_audit(inputs, _CLICK_BATCH),
    )
    trainer = SparseTrainer(
        model,
        optimizer,
        inputs.train,
        batch_size=_CLICK_BATCH,
        test_data=inputs.test,
        rng=_rng(seed, _SAMPLING),
        noise_mode="aggregate",
        noise_seed=int(_rng(seed, _ROW_NOISE).integers(0, 2**62)),
    )
    return _session(model, optimizer, trainer, _CLICK_BATCH, materialize=False)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cnn_geodp", _CNN_BATCH, 100, _mnist_inputs, _build_cnn_geodp),
        Workload("cnn_ghost", _CNN_BATCH, 100, _mnist_inputs, _build_cnn_ghost),
        Workload("release_wide", _WIDE_BATCH, 200, _cifar_inputs, _build_release_wide),
        Workload(
            "sparse_clicklog", _CLICK_BATCH, 1000, _clicklog_inputs, _build_sparse_clicklog
        ),
    )
}
