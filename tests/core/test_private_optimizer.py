"""The composed PrivateOptimizer against the four optimizers it replaced.

* Seeded identity: 24 small runs (three optimizers x five gradient paths,
  plus momentum 0.9 for the SGD pair) on the reference backend, pinned to
  the SHA-256 of their final parameters, their ledger chain head and their
  epsilon as recorded before the optimizers shared one implementation.
  GeoDP-Adam under Poisson sampling is not pinned: it used to divide by the
  realised batch size (see ``TestPoissonAdam``).
* DP-Adam matches its old step expression bit for bit and now writes an
  auditable ledger on every path.
* Snapshots without a ``lot_size`` key (GeoDP-Adam before it had one)
  resume bitwise; schedules advance on every step entry point; the release
  buffer goes back to the workspace pool.
"""

import hashlib

import numpy as np
import pytest

from repro.backend import get_backend, use_backend, workspace
from repro.core import (
    AdamOptimizer,
    DpAdamOptimizer,
    DpSgdOptimizer,
    GeoDpAdamOptimizer,
    GeoDpSgdOptimizer,
    LinearDecay,
    ScheduledOptimizer,
    SgdOptimizer,
    Trainer,
)
from repro.data import make_click_log, make_mnist_like
from repro.models import build_mlp
from repro.models.text import build_text_classifier
from repro.privacy.accountant import RdpAccountant
from repro.privacy.clipping import FlatClipping
from repro.privacy.ledger import ReleaseLedger, verify_ledger
from repro.sparse import SparseTrainer

ITERS = 6
BATCH = 12
DELTA = 1e-5
PATHS = ("materialize", "ghost", "microbatch", "poisson", "sparse")


def _optimizer(kind, n):
    """``kind`` is ``scheme`` or ``scheme@momentum``."""
    scheme, _, momentum = kind.partition("@")
    kwargs = dict(
        rng=np.random.default_rng(5),
        accountant=RdpAccountant(),
        sample_rate=BATCH / n,
        ledger=ReleaseLedger(delta=DELTA),
    )
    if momentum:
        kwargs["momentum"] = float(momentum)
    if scheme == "dpsgd":
        return DpSgdOptimizer(0.3, 1.0, 0.8, **kwargs)
    if scheme == "geodp":
        return GeoDpSgdOptimizer(0.3, 1.0, 0.8, 0.1, **kwargs)
    if scheme == "dp_adam":
        return DpAdamOptimizer(0.05, 1.0, 0.8, **kwargs)
    return GeoDpAdamOptimizer(0.05, 1.0, 0.8, 0.1, **kwargs)


def _click_data():
    return make_click_log(
        60, rng=np.random.default_rng(1), vocab_size=200, seq_length=6,
        touch_rate=0.1, padding_idx=0,
    )


def seeded_run(kind, path):
    """Train a small seeded model on ``path``; returns ``(model, optimizer)``."""
    with use_backend("reference"):
        if path == "sparse":
            data = _click_data()
            model = build_text_classifier(
                200, 2, embedding_dim=4, padding_idx=0, rng=np.random.default_rng(0)
            )
            opt = _optimizer(kind, len(data))
            trainer = SparseTrainer(
                model, opt, data, batch_size=BATCH, rng=np.random.default_rng(4),
                noise_seed=9,
            )
            trainer.train(ITERS)
            trainer.finalize()
        else:
            data = make_mnist_like(72, rng=0, size=6)
            model = build_mlp((1, 6, 6), [10], rng=0)
            opt = _optimizer(kind, len(data))
            extra = {
                "materialize": {},
                "ghost": {"grad_mode": "ghost"},
                "microbatch": {"microbatch_size": 5},
                "poisson": {"sampling": "poisson"},
            }[path]
            Trainer(model, opt, data, batch_size=BATCH, rng=1, **extra).train(ITERS)
    return model, opt


def _fingerprint(model, opt):
    params = np.ascontiguousarray(model.get_params())
    return (
        hashlib.sha256(params.tobytes()).hexdigest(),
        opt.ledger.head,
        repr(opt.accountant.get_epsilon(DELTA)),
    )


#: ``kind/path -> (sha256 of final params, ledger head, repr(epsilon))``.
PINNED = {
    "dpsgd/materialize": (
        "a46f2157e8ad5eb2a47ca222971a088cd965f7b8e9c8d7ade3e0f4a24852ba88",
        "eb85cd8d88a3cc1a10539a893a90069194389c95fc91f74dc0d141082476bf5d",
        "6.497493892532125",
    ),
    "dpsgd/ghost": (
        "1f8658af3ec721f00ecc66099af919206283fec7e0ac71bf89bf6733936972a5",
        "eb85cd8d88a3cc1a10539a893a90069194389c95fc91f74dc0d141082476bf5d",
        "6.497493892532125",
    ),
    "dpsgd/microbatch": (
        "59f80d0748d06bd76fa2ee66aa3e0e9da0692734c76412865e29c7dcec9de3bf",
        "eb85cd8d88a3cc1a10539a893a90069194389c95fc91f74dc0d141082476bf5d",
        "6.497493892532125",
    ),
    "dpsgd/poisson": (
        "c9df3ee66d26f90e11fe187dd140e179093be046f25520cd9280eb762b40cdd3",
        "eb85cd8d88a3cc1a10539a893a90069194389c95fc91f74dc0d141082476bf5d",
        "6.497493892532125",
    ),
    "dpsgd/sparse": (
        "7e1632d39f20ebea59648bd0edb12cfb7eb9875d1df7d0b419c6f877a8048836",
        "dc5015010c9eaa74360ad4f1c9de2c6a352e2f1a0166d28a2396e92a94212ec8",
        "7.197780512494317",
    ),
    "geodp/materialize": (
        "7d33c42c27355d41d31174a2be9c2d3ad3254e8b9f651e11523eecdf6f9aea19",
        "f3fc7b7fbeda6f1452c3e4d6e8dedd94871a62aa04f2e9c3951151c42549aea0",
        "6.497493892532125",
    ),
    "geodp/ghost": (
        "d0dc25b3b85ac0e13676da4224510f4b9889ad2ed1950cae385c0bd5b18421b1",
        "f3fc7b7fbeda6f1452c3e4d6e8dedd94871a62aa04f2e9c3951151c42549aea0",
        "6.497493892532125",
    ),
    "geodp/microbatch": (
        "d263cb0547d762cf6ab7b3203fc1f0533e47ffab44d1ff32b20228b34fd00c05",
        "f3fc7b7fbeda6f1452c3e4d6e8dedd94871a62aa04f2e9c3951151c42549aea0",
        "6.497493892532125",
    ),
    "geodp/poisson": (
        "bf908059d6a1a380f9b6e37cc69b905a0840609cddead92ea920c5fda3b3b110",
        "f3fc7b7fbeda6f1452c3e4d6e8dedd94871a62aa04f2e9c3951151c42549aea0",
        "6.497493892532125",
    ),
    "geodp/sparse": (
        "d2acf2fd4fcb00828e87762b9adb2261722ced63afde23baac582f3230c4e8e8",
        "6d9f489ed9f2ab5b69613201b93bdb80a03a2ad5e0f5991eee927c02fe7cd0c7",
        "7.197780512494317",
    ),
    "geodp_adam/materialize": (
        "d619eb3ae49bcc888edd47d0c10cb4c67cc93ae33af22a0dd5f51d288699cb89",
        "bfe60eed9676348553413f5217e5be33179a446ee915d1012db851af69b3fe33",
        "6.497493892532125",
    ),
    "geodp_adam/ghost": (
        "770a104aee60d7d119da38194c9ecec25e791189ef946cd37d07bd0b37511e24",
        "bfe60eed9676348553413f5217e5be33179a446ee915d1012db851af69b3fe33",
        "6.497493892532125",
    ),
    "geodp_adam/microbatch": (
        "9eca98b62aded129388791b04b54ece39832c829063dded24cdba7cb63de1870",
        "bfe60eed9676348553413f5217e5be33179a446ee915d1012db851af69b3fe33",
        "6.497493892532125",
    ),
    "geodp_adam/sparse": (
        "8cbaec07fbbf0ef31487aebd1ccc57a64577a32de061146c1a37607d7ba9cc76",
        "bdda619de122b6ce4f2b99e7ad70b0b4713612b7d64aca726cac557d35a284b4",
        "7.197780512494317",
    ),
    "dpsgd@0.9/materialize": (
        "441694bbbdde8db08e522ea1b0b6a408bacccb26ed4d22956f45e0b1ca5c9bd5",
        "eb85cd8d88a3cc1a10539a893a90069194389c95fc91f74dc0d141082476bf5d",
        "6.497493892532125",
    ),
    "dpsgd@0.9/ghost": (
        "c0693d8f9bb4d98100227354cb6b2919cf270fe296c8066aed4c5dea5abc028e",
        "eb85cd8d88a3cc1a10539a893a90069194389c95fc91f74dc0d141082476bf5d",
        "6.497493892532125",
    ),
    "dpsgd@0.9/microbatch": (
        "94e9722652d1b58bb24b19842734a9d7609e7b4e23a1ab8904c959cc0cef60e3",
        "eb85cd8d88a3cc1a10539a893a90069194389c95fc91f74dc0d141082476bf5d",
        "6.497493892532125",
    ),
    "dpsgd@0.9/poisson": (
        "8f24e8bf6057b06d23904f8e642e00e517fbd4cb7a7a1ce9c41260e795837d93",
        "eb85cd8d88a3cc1a10539a893a90069194389c95fc91f74dc0d141082476bf5d",
        "6.497493892532125",
    ),
    "dpsgd@0.9/sparse": (
        "c39194073078697aa72318fa0e2d78cc3ce3978d242bcd52974ca58250fccb93",
        "dc5015010c9eaa74360ad4f1c9de2c6a352e2f1a0166d28a2396e92a94212ec8",
        "7.197780512494317",
    ),
    "geodp@0.9/materialize": (
        "716ee53021ebc44a0a11cfa107e6401dc1637fdf3467dc8dc4fbe2b1f7ac92d7",
        "f3fc7b7fbeda6f1452c3e4d6e8dedd94871a62aa04f2e9c3951151c42549aea0",
        "6.497493892532125",
    ),
    "geodp@0.9/ghost": (
        "48a939c655ba38513355a7ff79a7cb1cb568f22d179cd1e6715480cf239acb1d",
        "f3fc7b7fbeda6f1452c3e4d6e8dedd94871a62aa04f2e9c3951151c42549aea0",
        "6.497493892532125",
    ),
    "geodp@0.9/microbatch": (
        "5fd043417c7c5a271d14e3f5080cd6a43c17da695f8d191f2f9064589518f801",
        "f3fc7b7fbeda6f1452c3e4d6e8dedd94871a62aa04f2e9c3951151c42549aea0",
        "6.497493892532125",
    ),
    "geodp@0.9/poisson": (
        "b69b05b28e6396a1cf3baa936dc763a63ee99beb3a9eb4590c508368267e904c",
        "f3fc7b7fbeda6f1452c3e4d6e8dedd94871a62aa04f2e9c3951151c42549aea0",
        "6.497493892532125",
    ),
    "geodp@0.9/sparse": (
        "e824a102efeb87e24cd83e2e6095acab5c74313d03d656dde5f6053719cb887e",
        "6d9f489ed9f2ab5b69613201b93bdb80a03a2ad5e0f5991eee927c02fe7cd0c7",
        "7.197780512494317",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_seeded_run_is_bit_identical(key):
    kind, path = key.split("/")
    assert _fingerprint(*seeded_run(kind, path)) == PINNED[key]


class OldDpAdam:
    """The step expression of the stand-alone DP-Adam this class replaced."""

    def __init__(self, lr, clip, sigma, rng):
        self.adam = AdamOptimizer(lr)
        self.clipping = FlatClipping(clip)
        self.sigma = sigma
        self.rng = np.random.default_rng(rng)

    def step(self, params, grads):
        summed = self.clipping.clip(grads).sum(axis=0)
        scale = self.sigma * self.clipping.sensitivity()
        noise = self.rng.normal(0.0, scale, size=summed.shape) if scale > 0 else 0.0
        return self.adam.step(params, (summed + noise) / grads.shape[0])


class TestDpAdam:
    @pytest.mark.parametrize("sigma", [0.0, 1.1])
    def test_matches_old_step_bitwise(self, sigma):
        opt, oracle = DpAdamOptimizer(0.05, 1.0, sigma, rng=7), OldDpAdam(0.05, 1.0, sigma, 7)
        rng = np.random.default_rng(3)
        params = oracle_params = rng.normal(size=30)
        for _ in range(8):
            grads = rng.normal(size=(5, 30))
            params = opt.step(params, grads)
            oracle_params = oracle.step(oracle_params, grads)
            assert np.array_equal(params, oracle_params)

    @pytest.mark.parametrize("path", PATHS)
    def test_every_release_is_ledgered(self, path):
        _, opt = seeded_run("dp_adam", path)
        assert verify_ledger(opt.ledger, opt.accountant, tol=1e-9).ok
        entries = opt.ledger.entries
        assert len(entries) == ITERS
        assert {e.mechanism for e in entries} == {"gaussian"}
        replay = RdpAccountant()
        for entry in entries:
            replay.step(entry.sigma, entry.sample_rate)
        assert replay.get_epsilon(DELTA) == opt.accountant.get_epsilon(DELTA)


def test_geodp_adam_snapshot_without_lot_size_resumes():
    """GeoDP-Adam snapshots from before it had a lot size still load."""
    rng = np.random.default_rng(0)
    batches = [rng.normal(size=(4, 12)) for _ in range(6)]

    def make():
        return GeoDpAdamOptimizer(
            0.05, 1.0, 0.9, 0.2, rng=3, accountant=RdpAccountant(),
            sample_rate=0.1, ledger=ReleaseLedger(),
        )

    opt, params = make(), np.zeros(12)
    for grads in batches[:3]:
        params = opt.step(params, grads)
    state = opt.state_dict()
    del state["lot_size"]
    assert set(state) == {"m", "v", "t", "rng", "clipping", "accountant", "ledger"}

    resumed = make()
    resumed.load_state_dict(state)
    assert resumed.lot_size is None
    resumed_params = params.copy()
    for grads in batches[3:]:
        params = opt.step(params, grads)
        resumed_params = resumed.step(resumed_params, grads)
    assert np.array_equal(resumed_params, params)
    assert resumed.ledger.head == opt.ledger.head


class TestPoissonAdam:
    """Poisson lots vary in size (and may be empty); the Adam variants must
    divide by the pinned lot size like DP-SGD and GeoDP-SGD do."""

    @staticmethod
    def _run(cls, spy=None):
        data = make_mnist_like(64, rng=0, size=6)
        model = build_mlp((1, 6, 6), [8], rng=0)
        beta = () if cls is DpAdamOptimizer else (0.1,)
        opt = cls(0.05, 1.0, 1.0, *beta, rng=2)
        if spy is not None:
            spy(opt)
        Trainer(model, opt, data, batch_size=2, rng=1, sampling="poisson").train(30)
        return model, opt

    @pytest.mark.parametrize("cls", [DpAdamOptimizer, GeoDpAdamOptimizer])
    def test_finishes_with_finite_params(self, cls):
        model, opt = self._run(cls)
        assert opt.lot_size == 2
        assert np.all(np.isfinite(model.get_params()))

    @pytest.mark.parametrize("cls", [DpAdamOptimizer, GeoDpAdamOptimizer])
    def test_divides_by_lot_size(self, cls):
        counts, denominators = [], []

        def spy(opt):
            presummed, perturb = opt.noisy_gradient_presummed, opt.release.perturb

            def count_presummed(clipped_sum, count):
                counts.append(count)
                return presummed(clipped_sum, count)

            def record_perturb(o, clipped_sum, denominator):
                denominators.append(denominator)
                return perturb(o, clipped_sum, denominator)

            opt.noisy_gradient_presummed = count_presummed
            opt.release.perturb = record_perturb

        self._run(cls, spy)
        assert 0 in counts and set(counts) - {0, 2}  # empty and larger lots ran
        assert denominators == [2] * 30


def _schedule_trajectory(path, steps=10):
    """Per-step ``(lr, sigma)`` of a scheduled DP-SGD run on ``path``."""
    opt = DpSgdOptimizer(
        1.0, 1.0, 2.0, rng=0, sample_rate=0.1, accountant=RdpAccountant(),
        ledger=ReleaseLedger(),
    )
    wrapped = ScheduledOptimizer(
        opt,
        learning_rate=LinearDecay(1.0, 0.1, steps),
        noise_multiplier=LinearDecay(2.0, 0.5, steps),
    )
    if path == "sparse":
        model = build_text_classifier(200, 2, embedding_dim=4, rng=np.random.default_rng(0))
        trainer = SparseTrainer(
            model, wrapped, _click_data(), batch_size=BATCH, rng=1, lazy=False
        )
    else:
        extra = {"ghost": {"grad_mode": "ghost"}, "microbatch": {"microbatch_size": 5}}
        data = make_mnist_like(72, rng=0, size=6)
        model = build_mlp((1, 6, 6), [10], rng=0)
        trainer = Trainer(model, wrapped, data, batch_size=BATCH, rng=1, **extra.get(path, {}))
    lrs = []
    for _ in range(steps):
        trainer.train(1)
        lrs.append(opt.learning_rate)
    assert wrapped.step_count == steps
    return list(zip(lrs, [entry.sigma for entry in opt.ledger.entries]))


@pytest.mark.parametrize("path", ["ghost", "microbatch", "sparse"])
def test_schedules_advance_on_every_step_path(path):
    expected = _schedule_trajectory("materialize")
    assert expected[0] == (1.0, 2.0) and expected[-1][0] < 0.2
    assert _schedule_trajectory(path) == expected


class TestSparseTrainerOptimizers:
    """Which optimizers ``SparseTrainer`` takes, through a schedule wrapper."""

    @staticmethod
    def _trainer(optimizer, **kwargs):
        model = build_text_classifier(200, 2, embedding_dim=4, rng=np.random.default_rng(0))
        return SparseTrainer(model, optimizer, _click_data(), batch_size=BATCH, **kwargs)

    def test_rejects_scheduled_non_private_optimizer(self):
        wrapped = ScheduledOptimizer(SgdOptimizer(0.1), learning_rate=LinearDecay(0.1, 0.01, 5))
        with pytest.raises(ValueError, match="SgdOptimizer has no step_sparse"):
            self._trainer(wrapped)

    @pytest.mark.parametrize("schedule", ["learning_rate", "noise_multiplier"])
    def test_lazy_noise_rejects_a_schedule(self, schedule):
        """Deferred row noise is applied at the catch-up step's scale, so a
        moving lr or sigma would under- or over-noise untouched rows."""
        def wrapped():
            opt = DpSgdOptimizer(0.5, 1.0, 1.0, rng=0)
            return ScheduledOptimizer(opt, **{schedule: LinearDecay(1.0, 0.5, 5)})

        with pytest.raises(ValueError, match="lazy=False"):
            self._trainer(wrapped())
        self._trainer(wrapped(), lazy=False).train(2)
        self._trainer(ScheduledOptimizer(DpSgdOptimizer(0.5, 1.0, 1.0, rng=0))).train(2)


@pytest.mark.parametrize("keep", ["array", "view"])
@pytest.mark.parametrize("cls", [DpAdamOptimizer, GeoDpAdamOptimizer])
def test_kept_last_noisy_gradient_is_not_recycled(cls, keep):
    """A caller holding the previous release (or a view of it) keeps its
    values; GeoDP's release is itself a view of the kernel's ``(1, d)``
    output, the Gaussian one is not."""
    beta = (0.1,) if cls is GeoDpAdamOptimizer else ()
    opt = cls(0.05, 1.0, 1.0, *beta, rng=0)
    rng = np.random.default_rng(1)
    params = opt.step(np.zeros(20), rng.normal(size=(4, 20)))
    kept = opt.last_noisy_gradient if keep == "array" else opt.last_noisy_gradient[:5]
    expected = kept.copy()
    for _ in range(4):
        params = opt.step(params, rng.normal(size=(4, 20)))
        assert not np.shares_memory(opt.last_noisy_gradient, kept)
    assert np.array_equal(kept, expected)


@pytest.mark.parametrize("cls", [GeoDpAdamOptimizer, DpAdamOptimizer])
@pytest.mark.parametrize("name", ["reference", "fused", "cext"])
def test_steady_state_release_adds_no_workspace_misses(name, cls):
    """The previous release's buffer goes back to the pool at the next step,
    and every release buffer is a pool buffer, so the pool does not grow."""
    with use_backend(name):
        if get_backend().name != name:
            pytest.skip(f"{name} backend unavailable")
        workspace.invalidate()  # no eviction pressure from earlier tests
        data = make_mnist_like(100, rng=0, size=8)
        model = build_mlp((1, 8, 8), [16], rng=1)
        beta = (0.1,) if cls is GeoDpAdamOptimizer else ()
        opt = cls(1e-2, 1.0, 1.0, *beta, rng=2, grad_mode="ghost")
        trainer = Trainer(model, opt, data, batch_size=16, rng=3)
        trainer.train(1)
        before = workspace.stats()
        trainer.train(5)
        after = workspace.stats()
        assert after["workspace_misses"] == before["workspace_misses"]
        assert after["workspace_bytes"] == before["workspace_bytes"]
        assert opt.last_noisy_gradient is not None
