"""End-to-end DP training-step benchmark with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload cnn_geodp --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of one closed-loop training
run (one process, one training loop, each step waiting for the previous
one, kernels at 1 thread).  ``--trace 1`` runs the same workload twice from
the same seed -- untraced, then with every layer of ``spans.LAYERS`` timed
-- and reports per-layer self times, the tracing overhead, and whether the
two runs ended bit-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run context and the correctness checks.  The full result, with
context and checks, is also written to ``perfbench/results/``.  The exit
code is 0 only when every step succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

import spans

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Library settings measured at their defaults: removed from the environment.
DEFAULTED_ENV = ("REPRO_BACKEND", "REPRO_BACKEND_DISABLE", "REPRO_THREADS")
#: BLAS/OpenMP pools pinned to one thread: the loop is serial and leaves the
#: machine's other CPU alone.
ONE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Cold set-ups per ``--trace 0`` run; ``setup_s`` is their median.  All but
#: the last run in forked children of the not yet set-up process, so that
#: each one starts without a backend instance, workspace arena or RDP curves.
SETUP_REPEATS = 5
#: Timed steps at least, so that ten or more lie above the 90th percentile.
MIN_TIMED_STEPS = 110


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_environment() -> list[str]:
    """Apply the measured configuration; returns the defaulted names removed."""
    removed = [name for name in DEFAULTED_ENV if os.environ.pop(name, None) is not None]
    for name in ONE_THREAD_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return removed


class Run:
    """One closed-loop training run of a workload, optionally traced."""

    def __init__(self, workload, inputs, seed: int, recorder=None):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.recorder = recorder
        self.session = None
        self.setup_s: float | None = None
        self.step_s: list[float] = []
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.error: str | None = None
        self.snapshot: dict | None = None
        self.workspace: tuple[dict, dict] | None = None

    def _fail(self, exc: BaseException) -> None:
        import traceback

        self.failed += 1
        self.error = "".join(traceback.format_exception(exc)).strip()
        print(self.error, file=sys.stderr)

    def setup(self) -> bool:
        """Build model, optimizer and trainer and run the first step."""
        if self.recorder is not None:
            self.recorder.step = "setup"
        self.attempted += 1
        start = time.perf_counter()
        try:
            self.session = self.workload.build(self.inputs, self.seed)
            self.session.step()
        except Exception as exc:  # a failed step is counted and reported
            self._fail(exc)
            return False
        self.setup_s = time.perf_counter() - start
        return True

    def _take_snapshot(self) -> None:
        import hashlib

        if self.recorder is not None:
            self.recorder.step = "eval"
        session = self.session
        self.snapshot = {
            "step": session.steps,
            "test_acc": session.evaluate(),
            "params_sha256": hashlib.sha256(session.model.get_params().tobytes()).hexdigest(),
            "ledger_head": session.ledger.head,
        }

    def loop(self, seconds: float, min_steps: int) -> None:
        """Step until ``seconds`` of step time and ``min_steps`` have passed.

        The loop pauses its clock while the snapshot step is evaluated, and
        ends with the workload's closing barrier inside the timed wall time.
        """
        from repro.backend import workspace

        session, rec = self.session, self.recorder
        step = session.step if rec is None else rec.timed(spans.ROOT, session.step)
        before = workspace.stats()
        paused = 0.0
        start = time.perf_counter()
        while len(self.step_s) < min_steps or time.perf_counter() - start - paused < seconds:
            if rec is not None:
                rec.step = session.steps + 1
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                step()
                t1 = time.perf_counter()
                if session.steps == self.workload.snapshot_step:
                    self._take_snapshot()
                    paused += time.perf_counter() - t1
            except Exception as exc:
                self._fail(exc)
                break
            self.step_s.append(t1 - t0)
        if rec is not None:
            rec.step = "barrier"
        try:
            session.barrier()
        except Exception as exc:
            self._fail(exc)
        self.wall_s = time.perf_counter() - start - paused
        self.workspace = (before, workspace.stats())

    @property
    def timed_steps(self) -> list[int]:
        """Step ids of the timed steps (the first step belongs to set-up)."""
        return list(range(2, 2 + len(self.step_s)))

    @property
    def samples_per_s(self) -> float:
        return self.workload.batch_size * len(self.step_s) / self.wall_s

    def audit(self) -> dict[str, bool]:
        """Correctness checks on the finished run (all must hold)."""
        import math

        import numpy as np

        from repro.privacy import RdpAccountant, verify_ledger
        from workloads import DELTA

        session = self.session
        checks = {"no_failed_steps": self.failed == 0}
        if session is None:
            return checks
        try:
            verdict = verify_ledger(session.ledger, session.accountant, tol=1e-9, strict=False)
            checks["ledger_verified"] = bool(verdict.ok)
            checks["ledger_entries_equal_steps"] = len(session.ledger.entries) == session.steps
            replay = RdpAccountant()
            replay.step(session.sigma, session.sample_rate, num_steps=session.steps)
            checks["epsilon_equals_replay"] = math.isclose(
                session.accountant.get_epsilon(DELTA),
                replay.get_epsilon(DELTA),
                rel_tol=1e-9,
                abs_tol=1e-12,
            )
            checks["params_finite"] = bool(np.isfinite(session.model.get_params()).all())
            chance = 1.0 / self.inputs.num_classes
            checks["test_acc_above_chance"] = (
                self.snapshot is not None and self.snapshot["test_acc"] >= 1.5 * chance
            )
        except Exception as exc:
            self._fail(exc)
            checks["audit_completed"] = False
        return checks


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _forked_setup_s(workload, inputs, seed: int) -> float | None:
    """One cold set-up in a forked child; its time, or None if it failed."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller
        try:
            os.close(read_fd)
            run = Run(workload, inputs, seed)
            if run.setup():
                os.write(write_fd, json.dumps(run.setup_s).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        reply = pipe.read()
    os.waitpid(pid, 0)
    return json.loads(reply) if reply else None


def _end_to_end(workload, inputs, seed: int, seconds: float):
    import numpy as np

    setups = [_forked_setup_s(workload, inputs, seed) for _ in range(SETUP_REPEATS - 1)]
    run = Run(workload, inputs, seed)
    run.attempted += len(setups)
    run.failed += setups.count(None)
    if not run.setup() or None in setups:
        return run, {}, {}
    setups.append(run.setup_s)
    run.loop(seconds, max(MIN_TIMED_STEPS, workload.snapshot_step))
    checks = run.audit()
    if not run.step_s:
        return run, {}, {"checks": checks}
    times_ms = np.asarray(run.step_s) * 1e3
    p90 = float(np.percentile(times_ms, 90))
    failed_frac = _failed(run, checks) / run.attempted
    metrics = {
        "step_ms_p90": (p90, "ms"),
        "setup_s": (float(np.median(setups)), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "test_acc": (run.snapshot["test_acc"] if run.snapshot else 0.0, "fraction"),
        "success_frac": (1.0 - failed_frac, "fraction"),
    }
    detail = {
        "checks": checks,
        "failed_frac": failed_frac,
        # Measured but not gated: on a shared machine whose speed shifts
        # between runs their spread exceeds the largest allowed bound.
        "ungated": {
            "samples_per_s": {"value": run.samples_per_s, "unit": "samples/s"},
            "step_ms_p50": {"value": float(np.median(times_ms)), "unit": "ms"},
        },
        "timed_steps": len(run.step_s),
        "steps_above_p90": int(np.sum(times_ms > p90)),
        "setup_s_all": setups,
        "wall_s": run.wall_s,
        "snapshot": run.snapshot,
    }
    return run, metrics, detail


def _failed(run, checks: dict[str, bool]) -> int:
    """Failed steps; a run whose output fails a check fails every step."""
    return run.attempted if not all(checks.values()) else run.failed


def _traced(workload, inputs, seed: int, seconds: float):
    min_steps = workload.snapshot_step
    plain = Run(workload, inputs, seed)
    if plain.setup():
        plain.loop(seconds / 2, min_steps)
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        traced = Run(workload, inputs, seed, recorder=recorder)
        if traced.setup():
            traced.loop(seconds / 2, min_steps)
    checks = {f"untraced_{k}": v for k, v in plain.audit().items()}
    checks.update({f"traced_{k}": v for k, v in traced.audit().items()})
    checks["traced_bit_identical"] = (
        plain.snapshot is not None
        and traced.snapshot is not None
        and plain.snapshot["params_sha256"] == traced.snapshot["params_sha256"]
        and plain.snapshot["ledger_head"] == traced.snapshot["ledger_head"]
    )
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    if traced.session is None or not traced.step_s or not plain.step_s:
        return traced, {}, {"checks": checks}

    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{workload.name}-seed{seed}.spans.json.gz"
    recorder.write(spans_path)

    metrics = spans.per_layer_metrics(recorder, traced.timed_steps)
    before, after = traced.workspace
    hits = after["workspace_hits"] - before["workspace_hits"]
    misses = after["workspace_misses"] - before["workspace_misses"]
    metrics["nn.per_sample_grad_bytes"] = (float(traced.session.per_sample_grad_bytes), "B/step")
    metrics["backend.workspace_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["backend.workspace_bytes"] = (float(after["workspace_bytes"]), "B")
    metrics["privacy.ledger_entries"] = (float(len(traced.session.ledger.entries)), "count")
    metrics["trace.steps"] = (float(len(traced.step_s)), "count")
    metrics["trace.overhead_pct"] = (
        100.0 * (plain.samples_per_s / traced.samples_per_s - 1.0),
        "%",
    )
    detail = {
        "checks": checks,
        "untraced_samples_per_s": plain.samples_per_s,
        "traced_samples_per_s": traced.samples_per_s,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(recorder.names),
        "snapshot": traced.snapshot,
    }
    return traced, metrics, detail


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    removed = _prepare_environment()

    import numpy as np

    from repro.backend import get_backend, get_num_threads
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)

    measure = _traced if args.trace else _end_to_end
    run, metrics, detail = measure(workload, inputs, args.seed, args.seconds)
    checks = detail.get("checks", {})
    failed = _failed(run, checks)
    correct = bool(metrics) and failed == 0 and all(checks.values())

    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": get_backend().name,
        "kernel_threads": get_num_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ[name] for name in ONE_THREAD_ENV},
        "defaulted_env_removed": removed,
        "machine": platform.machine(),
    }
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, **detail, **result, "error": run.error}, indent=1) + "\n"
    )
    print(json.dumps({"context": context}))
    print(json.dumps({"checks": checks}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
