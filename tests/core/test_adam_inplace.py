"""The in-place Adam update is bit-identical to the textbook expression.

``AdamOptimizer.step`` advances ``m``/``v`` in place with workspace-pooled
temporaries.  An oracle that keeps the old allocating expression replays
the same gradients; parameters and both moments must match it bit for bit
on every step, for plain Adam and for both DP variants (which reach the
update through ``AdamOptimizer.step``), including across a mid-run
``state_dict``/``load_state_dict`` round trip.
"""

import numpy as np
import pytest

from repro.core import AdamOptimizer, DpAdamOptimizer, GeoDpAdamOptimizer

STEPS = 6
D = 40


class OracleAdam:
    """The allocating Adam expression the in-place update replaced."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = self.v = None
        self.t = 0

    def step(self, params, grad):
        if self.m is None:
            self.m = np.zeros_like(grad)
            self.v = np.zeros_like(grad)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad**2
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


FACTORIES = {
    "adam": lambda: AdamOptimizer(0.05),
    "dp_adam": lambda: DpAdamOptimizer(0.05, 1.0, 1.1, rng=7),
    "geodp_adam": lambda: GeoDpAdamOptimizer(0.05, 1.0, 1.1, 0.2, rng=7),
}


def _rule(opt):
    """The Adam update rule (a DP optimizer composes one)."""
    return getattr(opt, "update_rule", opt)


def _step_inputs(kind):
    """Per-step optimizer input: a mean gradient or a per-sample batch."""
    rng = np.random.default_rng(3)
    if kind == "adam":
        return [rng.normal(size=D) for _ in range(STEPS)]
    return [rng.normal(size=(5, D)) for _ in range(STEPS)]


@pytest.fixture
def recorded_grads(monkeypatch):
    """Every gradient that reaches ``AdamOptimizer.step``, copied."""
    seen = []
    original = AdamOptimizer.step

    def recording(self, params, grad):
        seen.append(np.array(grad, copy=True))
        return original(self, params, grad)

    monkeypatch.setattr(AdamOptimizer, "step", recording)
    return seen


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_in_place_update_matches_oracle_bitwise(kind, recorded_grads):
    opt, oracle = FACTORIES[kind](), OracleAdam(0.05)
    params = oracle_params = np.random.default_rng(0).normal(size=D)
    for inputs in _step_inputs(kind):
        params = opt.step(params, inputs)
        oracle_params = oracle.step(oracle_params, recorded_grads[-1])
        assert np.array_equal(params, oracle_params)
        assert np.array_equal(_rule(opt)._m, oracle.m)
        assert np.array_equal(_rule(opt)._v, oracle.v)
    assert len(recorded_grads) == STEPS


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_state_round_trip_mid_run(kind, recorded_grads):
    """Saved state never aliases the in-place buffers, and resumes bitwise."""
    inputs = _step_inputs(kind)
    opt = FACTORIES[kind]()
    params = np.random.default_rng(0).normal(size=D)
    for batch in inputs[:3]:
        params = opt.step(params, batch)

    state = opt.state_dict()
    assert not np.shares_memory(state["m"], _rule(opt)._m)
    assert not np.shares_memory(state["v"], _rule(opt)._v)
    saved_m, saved_v = state["m"].copy(), state["v"].copy()

    resumed = FACTORIES[kind]()
    resumed.load_state_dict(state)
    assert not np.shares_memory(_rule(resumed)._m, state["m"])
    assert not np.shares_memory(_rule(resumed)._v, state["v"])

    resumed_params = params.copy()
    for batch in inputs[3:]:
        params = opt.step(params, batch)
        resumed_params = resumed.step(resumed_params, batch)
    assert np.array_equal(resumed_params, params)
    assert np.array_equal(_rule(resumed)._m, _rule(opt)._m)
    assert np.array_equal(_rule(resumed)._v, _rule(opt)._v)
    # Stepping either optimizer after the save left the snapshot intact.
    assert np.array_equal(state["m"], saved_m)
    assert np.array_equal(state["v"], saved_v)


def test_step_returns_fresh_params():
    """The caller's parameter vector is never written by the update."""
    opt = AdamOptimizer(0.1)
    params = np.ones(D)
    new = opt.step(params, np.full(D, 0.5))
    assert np.array_equal(params, np.ones(D))
    assert not np.shares_memory(new, params)
    assert not np.shares_memory(new, opt._m)
