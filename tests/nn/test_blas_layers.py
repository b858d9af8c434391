"""Parity of the BLAS-routed CNN layers with their einsum formulations.

``Conv2d`` and the reference backend's conv ghost kernels form their
contractions with batched ``np.matmul``; ``MaxPool2d`` reduces over ``k * k``
strided views.  The oracles below are the earlier implementations (einsum
contractions, a 6-D window reduce with a broadcast mask backward), kept
verbatim so that every rewrite is measured against them:

* ``Conv2d`` and the conv kernels agree with the einsums to 1e-10 relative;
* ``MaxPool2d`` is bit-identical, ties included;
* a seeded 10-step GeoDP run ends at the same parameters (1e-10), the same
  ledger chain head and the same accountant epsilon.
"""

import numpy as np
import pytest

from repro.backend import get_backend, use_backend
from repro.core import GeoDpSgdOptimizer, Trainer
from repro.data import make_mnist_like
from repro.models import build_cnn
from repro.nn import Conv2d, MaxPool2d
from repro.nn import functional as F
from repro.privacy import RdpAccountant, ReleaseLedger

RTOL = 1e-10


def assert_close(actual, oracle):
    """Max deviation at most ``RTOL`` of the oracle's magnitude."""
    actual, oracle = np.asarray(actual), np.asarray(oracle)
    assert actual.shape == oracle.shape
    scale = max(1.0, float(np.abs(oracle).max(initial=0.0)))
    assert float(np.abs(actual - oracle).max(initial=0.0)) <= RTOL * scale


# ------------------------------------------------------------------ oracles
def oracle_conv_norm_sq(cols, dy, bias):
    out_channels = dy.shape[1]
    k_dim, length = cols.shape[1], cols.shape[2]
    if length * length <= out_channels * k_dim:
        ga = np.einsum("bkl,bkm->blm", cols, cols)
        ge = np.einsum("bol,bom->blm", dy, dy)
        norm_sq = np.einsum("blm,blm->b", ga, ge)
    else:
        dw = np.einsum("bol,bkl->bok", dy, cols)
        norm_sq = np.einsum("bok,bok->b", dw, dw)
    if bias:
        db = dy.sum(axis=2)
        norm_sq = norm_sq + np.einsum("bo,bo->b", db, db)
    return norm_sq


def oracle_conv_clip_accumulate(cols, dy, factors, bias):
    scaled = dy * factors[:, None, None]
    dw = np.einsum("bol,bkl->ok", scaled, cols)
    db = scaled.sum(axis=(0, 2)) if bias else None
    return dw, db


def oracle_conv_forward(self, x, train=True):
    batch = x.shape[0]
    out_h, out_w = F.conv_output_shape(
        x.shape[2], x.shape[3], self.kernel, self.stride, self.padding
    )
    cols = F.im2col(x, self.kernel, self.stride, self.padding)
    w_flat = self.weight.reshape(self.out_channels, -1)
    out = np.einsum("ok,bkl->bol", w_flat, cols)
    if self.bias is not None:
        out = out + self.bias[None, :, None]
    if train:
        self._cols = cols
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
    return out.reshape(batch, self.out_channels, out_h, out_w)


def _oracle_grad_in(self, dy):
    w_flat = self.weight.reshape(self.out_channels, -1)
    dcols = np.einsum("ok,bol->bkl", w_flat, dy)
    return F.col2im(dcols, self._x_shape, self.kernel, self.stride, self.padding)


def oracle_conv_backward(self, grad_out, per_sample=False):
    batch = grad_out.shape[0]
    dy = grad_out.reshape(batch, self.out_channels, -1)
    if per_sample:
        dw = np.einsum("bol,bkl->bok", dy, self._cols).reshape(
            batch, *self.weight.shape
        )
        grads = {"weight": dw}
        if self.bias is not None:
            grads["bias"] = dy.sum(axis=2)
    else:
        dw = np.einsum("bol,bkl->ok", dy, self._cols).reshape(self.weight.shape)
        grads = {"weight": dw}
        if self.bias is not None:
            grads["bias"] = dy.sum(axis=(0, 2))
    return _oracle_grad_in(self, dy), grads


def oracle_conv_backward_norm_sq(self, grad_out):
    dy = grad_out.reshape(grad_out.shape[0], self.out_channels, -1)
    norm_sq = oracle_conv_norm_sq(self._cols, dy, self.bias is not None)
    return _oracle_grad_in(self, dy), norm_sq


def oracle_conv_accumulate_clipped(self, grad_out, factors):
    dy = grad_out.reshape(grad_out.shape[0], self.out_channels, -1)
    dw, db = oracle_conv_clip_accumulate(self._cols, dy, factors, self.bias is not None)
    grads = {"weight": dw.reshape(self.weight.shape)}
    if db is not None:
        grads["bias"] = db
    return grads


def oracle_pool_forward(self, x, train=True):
    batch, channels, height, width = x.shape
    k = self.kernel
    windows = x.reshape(batch, channels, height // k, k, width // k, k)
    out = windows.max(axis=(3, 5))
    if train:
        self._mask = windows == out[:, :, :, None, :, None]
        self._x_shape = x.shape
    return out


def oracle_pool_backward(self, grad_out, per_sample=False):
    counts = self._mask.sum(axis=(3, 5), keepdims=True)
    spread = self._mask * grad_out[:, :, :, None, :, None] / np.maximum(counts, 1)
    return spread.reshape(self._x_shape), {}


ORACLE_METHODS = {
    Conv2d: {
        "forward": oracle_conv_forward,
        "backward": oracle_conv_backward,
        "backward_norm_sq": oracle_conv_backward_norm_sq,
        "accumulate_clipped": oracle_conv_accumulate_clipped,
    },
    MaxPool2d: {"forward": oracle_pool_forward, "backward": oracle_pool_backward},
}


# ------------------------------------------------------------------- Conv2d
CONV_GRID = [
    (kernel, stride, padding, bias)
    for kernel in (1, 3, 5)
    for stride in (1, 2)
    for padding in (0, 1)
    for bias in (True, False)
]


def _conv_case(kernel, stride, padding, bias, seed=0):
    rng = np.random.default_rng(seed)
    layer = Conv2d(3, 4, kernel, stride=stride, padding=padding, rng=rng, bias=bias)
    if bias:
        layer.set_param("bias", rng.normal(size=4))
    x = rng.normal(size=(5, 3, 9, 9))
    out_h, out_w = F.conv_output_shape(9, 9, kernel, stride, padding)
    grad_out = rng.normal(size=(5, 4, out_h, out_w))
    factors = rng.uniform(0.1, 1.0, size=5)
    return layer, x, grad_out, factors


def _run_oracle(layer, method, *args):
    return ORACLE_METHODS[type(layer)][method](layer, *args)


@pytest.mark.parametrize("kernel,stride,padding,bias", CONV_GRID)
class TestConv2dParity:
    def test_forward(self, kernel, stride, padding, bias):
        layer, x, _, _ = _conv_case(kernel, stride, padding, bias)
        assert_close(layer.forward(x), _run_oracle(layer, "forward", x))

    @pytest.mark.parametrize("per_sample", [True, False])
    def test_backward(self, kernel, stride, padding, bias, per_sample):
        layer, x, grad_out, _ = _conv_case(kernel, stride, padding, bias)
        layer.forward(x)
        grad_in, grads = layer.backward(grad_out, per_sample=per_sample)
        oracle_in, oracle_grads = _run_oracle(layer, "backward", grad_out, per_sample)
        assert_close(grad_in, oracle_in)
        assert grads.keys() == oracle_grads.keys()
        for name in grads:
            assert_close(grads[name], oracle_grads[name])

    def test_backward_norm_sq(self, kernel, stride, padding, bias):
        layer, x, grad_out, _ = _conv_case(kernel, stride, padding, bias)
        layer.forward(x)
        with use_backend("reference"):
            grad_in, norm_sq = layer.backward_norm_sq(grad_out)
        oracle_in, oracle_norm_sq = _run_oracle(layer, "backward_norm_sq", grad_out)
        assert_close(grad_in, oracle_in)
        assert_close(norm_sq, oracle_norm_sq)

    def test_accumulate_clipped(self, kernel, stride, padding, bias):
        layer, x, grad_out, factors = _conv_case(kernel, stride, padding, bias)
        layer.forward(x)
        with use_backend("reference"):
            grads = layer.accumulate_clipped(grad_out, factors)
        oracle_grads = _run_oracle(layer, "accumulate_clipped", grad_out, factors)
        assert grads.keys() == oracle_grads.keys()
        for name in grads:
            assert_close(grads[name], oracle_grads[name])

    def test_reference_kernels(self, kernel, stride, padding, bias):
        layer, x, grad_out, factors = _conv_case(kernel, stride, padding, bias)
        cols = F.im2col(x, kernel, stride, padding)
        dy = grad_out.reshape(grad_out.shape[0], 4, -1)
        with use_backend("reference"):
            backend = get_backend()
            norm_sq = backend.conv_norm_sq(cols, dy, bias)
            dw, db = backend.conv_clip_accumulate(cols, dy, factors, bias)
        assert_close(norm_sq, oracle_conv_norm_sq(cols, dy, bias))
        oracle_dw, oracle_db = oracle_conv_clip_accumulate(cols, dy, factors, bias)
        assert_close(dw, oracle_dw)
        if bias:
            assert_close(db, oracle_db)
        else:
            assert db is None


def test_conv_grid_covers_both_norm_branches():
    """The grid reaches the Gram branch and the per-sample branch of
    ``conv_norm_sq`` (``L^2 <= O*K`` and ``L^2 > O*K``)."""
    branches = set()
    for kernel, stride, padding, _ in CONV_GRID:
        out_h, out_w = F.conv_output_shape(9, 9, kernel, stride, padding)
        branches.add((out_h * out_w) ** 2 <= 4 * 3 * kernel * kernel)
    assert branches == {True, False}


# ---------------------------------------------------------------- MaxPool2d
def _pool_inputs(kernel):
    rng = np.random.default_rng(kernel)
    shape = (4, 3, 6 * kernel, 4 * kernel)
    # Post-ReLU activations: whole windows tie at 0.
    relu = np.maximum(rng.normal(loc=-0.5, size=shape), 0.0)
    # Coarse values: partial ties inside windows.
    coarse = rng.integers(-2, 3, size=shape).astype(np.float64)
    return {"gaussian": rng.normal(size=shape), "relu": relu, "coarse": coarse}


@pytest.mark.parametrize("kernel", [1, 2, 3])
@pytest.mark.parametrize("kind", ["gaussian", "relu", "coarse"])
def test_maxpool_bit_identical(kernel, kind):
    x = _pool_inputs(kernel)[kind]
    layer = MaxPool2d(kernel)
    oracle = MaxPool2d(kernel)
    out = layer.forward(x)
    oracle_out = oracle_pool_forward(oracle, x)
    assert np.array_equal(out, oracle_out)
    grad_out = np.random.default_rng(7).normal(size=out.shape)
    grad_in, params = layer.backward(grad_out)
    oracle_in, _ = oracle_pool_backward(oracle, grad_out)
    assert params == {}
    assert grad_in.shape == x.shape
    assert np.array_equal(grad_in, oracle_in)


@pytest.mark.parametrize("kernel", [2, 3])
def test_maxpool_inputs_contain_tied_windows(kernel):
    """The relu and coarse inputs really exercise tie splitting."""
    for kind in ("relu", "coarse"):
        x = _pool_inputs(kernel)[kind]
        layer = MaxPool2d(kernel)
        layer.forward(x)
        counts = sum(mask.astype(int) for mask in layer._masks)
        assert (counts > 1).any()
    relu = _pool_inputs(kernel)["relu"]
    out = MaxPool2d(kernel).forward(relu)
    assert (out == 0.0).any()


def test_maxpool_ties_split_gradient_equally():
    x = np.zeros((1, 1, 2, 2))
    layer = MaxPool2d(2)
    layer.forward(x)
    grad_in, _ = layer.backward(np.array([[[[1.0]]]]))
    assert np.array_equal(grad_in, np.full((1, 1, 2, 2), 0.25))


def test_maxpool_caches_bool_masks_only():
    """The cached state is one bool mask per window offset: together the
    same bytes as the input's full-size bool mask."""
    x = _pool_inputs(2)["gaussian"]
    layer = MaxPool2d(2)
    layer.forward(x)
    assert len(layer._masks) == 4
    assert all(mask.dtype == np.bool_ for mask in layer._masks)
    assert sum(mask.nbytes for mask in layer._masks) == x.size


# ------------------------------------------------------ seeded trajectory
def _geodp_trajectory(grad_mode, steps=10):
    data = make_mnist_like(256, rng=0, size=28)
    model = build_cnn((1, 28, 28), rng=1)
    accountant = RdpAccountant()
    ledger = ReleaseLedger(delta=1e-5)
    optimizer = GeoDpSgdOptimizer(
        4.0,
        0.1,
        1.0,
        0.1,
        rng=2,
        sensitivity_mode="per_angle",
        accountant=accountant,
        sample_rate=32 / len(data),
        ledger=ledger,
        grad_mode=grad_mode,
    )
    trainer = Trainer(model, optimizer, data, batch_size=32, rng=3)
    with use_backend("reference"):
        trainer.train(steps)
    return model.get_params(), ledger.head, accountant.get_epsilon(1e-5)


@pytest.mark.parametrize("grad_mode", ["materialize", "ghost"])
def test_geodp_trajectory_matches_oracle_layers(monkeypatch, grad_mode):
    params, head, epsilon = _geodp_trajectory(grad_mode)
    for layer_cls, methods in ORACLE_METHODS.items():
        for name, method in methods.items():
            monkeypatch.setattr(layer_cls, name, method)
    oracle_params, oracle_head, oracle_epsilon = _geodp_trajectory(grad_mode)
    assert_close(params, oracle_params)
    assert head == oracle_head
    assert epsilon == oracle_epsilon
