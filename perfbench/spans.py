"""In-memory span tracing of the library's layers, from outside the library.

The traced run wraps public functions and methods of each layer (the
targets in :data:`LAYERS`) with a timing shim that records one span per
call: name, start, end, parent span and step id.  Nothing under ``src/``
changes; the shims are installed for the traced run only and removed
afterwards.  A shim calls the original with the original arguments and
returns its result untouched, so tracing is observational (``run.py``
checks bit-identical parameters and ledger heads against an untraced run).

A span's *self time* is its duration minus the time its direct child spans
cover.  The benchmark's own per-step root span is ``core.trainer_self``, so
its self time is the step time spent outside every timed layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict

__all__ = ["LAYERS", "ROOT", "SpanRecorder", "instrument", "per_layer_metrics"]

#: Name of the benchmark's own root span around each training step.
ROOT = "core.trainer_self"

_NN = "repro.nn.layers"
_CORE = ("repro.core.dpsgd:DpSgdOptimizer", "repro.core.geodp:GeoDpSgdOptimizer",
         "repro.core.geodp_adam:GeoDpAdamOptimizer")

#: ``(span name, owner, attributes)``: every attribute of the owner (a
#: module, ``module:Class``, or ``backend`` for the resolved kernel backend's
#: class) is timed under the span name.  The order is the report order.
LAYERS: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = [
    ("data.batch", ("repro.data.datasets:Dataset",), ("batch",)),
    ("data.batch", ("repro.core.trainer", "repro.sparse.trainer"), ("minibatch_indices",)),
    *[
        (f"nn.{cls}.{method}", (f"{_NN}:{cls}",), (method,))
        for cls, methods in (
            ("Conv2d", ("forward", "backward", "backward_norm_sq", "accumulate_clipped")),
            ("MaxPool2d", ("forward", "backward")),
            ("ReLU", ("forward", "backward")),
            ("Linear", ("forward", "backward", "backward_norm_sq", "accumulate_clipped")),
        )
        for method in methods
    ],
    ("nn.Embedding.forward", ("repro.nn.embedding:Embedding",), ("forward",)),
    ("nn.Embedding.backward_sparse", ("repro.nn.embedding:Embedding",), ("backward_sparse",)),
    ("nn.SequenceMean.forward", ("repro.nn.embedding:SequenceMean",), ("forward",)),
    ("nn.SequenceMean.backward", ("repro.nn.embedding:SequenceMean",), ("backward",)),
    ("nn.loss", ("repro.nn.losses:SoftmaxCrossEntropy",), ("per_sample", "gradient")),
    ("nn.Sequential", ("repro.nn.model:Sequential",),
     ("loss_and_per_sample_gradients", "loss_and_clipped_grad_sum")),
    ("core.clip", _CORE, ("clipped_sum", "ghost_clipped_sum")),
    ("core.release", _CORE, ("noisy_gradient_presummed",)),
    ("core.release", ("repro.sparse.release",), ("geodp_sparse_release",)),
    ("core.perturb", ("repro.core.perturbation", "repro.core.geodp", "repro.core.geodp_adam"),
     ("perturb_geodp",)),
    ("core.update", _CORE, ("step", "step_presummed", "step_sparse")),
    *[
        (f"backend.{kernel}", ("backend",), (kernel,))
        for kernel in (
            "geodp_perturb", "spherical_decompose", "spherical_compose",
            "canonicalize_angles", "conv_norm_sq", "conv_clip_accumulate",
            "linear_norm_sq", "linear_clip_accumulate", "embedding_sparse_grads",
            "sparse_row_reduce",
        )
    ],
    ("privacy.accountant_step", ("repro.privacy.accountant:RdpAccountant",), ("step",)),
    ("privacy.ledger_record", ("repro.privacy.ledger:ReleaseLedger",), ("record_release",)),
    ("sparse.clipped_sums", ("repro.sparse.trainer",), ("sparse_clipped_sums",)),
    ("sparse.catch_up", ("repro.sparse.noise:LazyRowNoise",), ("materialize",)),
    ("sparse.dense_params", ("repro.sparse.trainer",), ("get_dense_params", "set_dense_params")),
    ("sparse.flush", ("repro.sparse.trainer:SparseTrainer",), ("flush",)),
]

#: Layer classes whose method self times are also reported summed per class.
CLASS_TOTALS = ("nn.Conv2d", "nn.MaxPool2d", "nn.ReLU", "nn.Linear")


class SpanRecorder:
    """Keeps spans in memory as parallel lists; ``step`` tags new spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.steps: list[object] = []
        self._stack: list[int] = []
        #: Step id given to spans opened from now on (an int inside a timed
        #: step, a phase label such as ``"setup"`` or ``"barrier"`` outside).
        self.step: object = "setup"
        #: ``counter name -> {step id: total}`` for per-step counts.
        self.counters: dict[str, dict[object, float]] = defaultdict(lambda: defaultdict(float))

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.steps.append(self.step)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name][self.step] += value

    def timed(self, name: str, fn):
        """``fn`` wrapped so each call records a span called ``name``."""

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return shim

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, child)]

    def write(self, path) -> None:
        """Write every span (gzipped JSON, one list per field)."""
        origin = self.starts[0] if self.starts else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "step"],
            "name": self.names,
            "start_s": [round(s - origin, 9) for s in self.starts],
            "end_s": [round(e - origin, 9) for e in self.ends],
            "parent": self.parents,
            "step": self.steps,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _owner(path: str):
    if path == "backend":
        from repro.backend import get_backend

        return type(get_backend())
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


_MISSING = object()


class instrument:
    """Context manager installing the :data:`LAYERS` shims on ``recorder``.

    The sparse clip pass also reports the rows it touched per step as the
    ``sparse.touched_rows`` counter.  Leaving the context restores every
    patched attribute exactly (an inherited method is deleted again rather
    than pinned on the subclass).
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> SpanRecorder:
        rec = self.recorder
        for name, owners, attrs in LAYERS:
            for path in owners:
                owner = _owner(path)
                for attr in attrs:
                    fn = getattr(owner, attr, None)
                    if fn is not None:
                        self._patch(owner, attr, rec.timed(name, fn))
        clip_pass = _owner("repro.sparse.trainer").sparse_clipped_sums

        @functools.wraps(clip_pass)
        def counted(*args, **kwargs):
            result = clip_pass(*args, **kwargs)
            rec.count("sparse.touched_rows", len(result[2]))
            return result

        self._patch(_owner("repro.sparse.trainer"), "sparse_clipped_sums", counted)
        return rec

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        return False


def layer_names() -> list[str]:
    """Every timed span name, in report order, each once."""
    return list(dict.fromkeys(name for name, _, _ in LAYERS))


def per_layer_metrics(rec: SpanRecorder, timed_steps: list[int]) -> dict[str, tuple[float, str]]:
    """``name -> (value, unit)``: per-step self time and calls of every layer.

    Averages over ``timed_steps``.  Also reports the per-class nn totals,
    the self time of the closing barrier's ``sparse.flush`` (per run),
    ``sparse.touched_rows`` per step, the traced step time and its share
    outside every timed layer.
    """
    steps = set(timed_steps)
    n = max(len(steps), 1)
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    barrier_ms: dict[str, float] = defaultdict(float)
    barrier_calls: dict[str, int] = defaultdict(int)
    step_ms = 0.0
    for name, step, start, end, own in zip(
        rec.names, rec.steps, rec.starts, rec.ends, rec.self_times()
    ):
        if step in steps:
            self_ms[name] += own * 1e3
            calls[name] += 1
            if name == ROOT:
                step_ms += (end - start) * 1e3
        elif step == "barrier":
            barrier_ms[name] += own * 1e3
            barrier_calls[name] += 1
    out: dict[str, tuple[float, str]] = {}
    for name in [ROOT, *layer_names()]:
        if name == "sparse.flush":
            out[f"{name}_ms"] = (barrier_ms[name], "ms/run")
            out[f"{name}.calls"] = (float(barrier_calls[name]), "1/run")
        else:
            out[f"{name}_ms"] = (self_ms[name] / n, "ms")
            out[f"{name}.calls"] = (calls[name] / n, "1/step")
    for cls in CLASS_TOTALS:
        total = sum(v for k, v in self_ms.items() if k.startswith(cls + "."))
        out[f"{cls}_ms"] = (total / n, "ms")
    out["trace.step_ms"] = (step_ms / n, "ms")
    out["core.trainer_self_share"] = (100.0 * self_ms[ROOT] / step_ms if step_ms else 0.0, "%")
    touched = rec.counters.get("sparse.touched_rows", {})
    out["sparse.touched_rows"] = (sum(v for k, v in touched.items() if k in steps) / n, "rows/step")
    return out
