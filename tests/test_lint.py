"""Tier-1 lint gates: ruff, plus an AST allocation check for the hot path.

The ruff gate skips when ruff is not installed (the check then runs
wherever the dev environment provides it); when available, lint errors
fail the suite with ruff's own diagnostics as the assertion message.

The allocation gate is pure stdlib ``ast`` and always runs: the release
hot-path modules must route every buffer through the
:mod:`repro.backend.workspace` arena, so a direct ``np.empty`` /
``np.zeros`` there is a regression of the zero-allocation contract even
when it is numerically harmless.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Release hot-path modules: all allocation goes through the workspace
#: arena.  ``repro/backend/workspace.py`` (the arena itself) and
#: ``repro/backend/reference.py`` (the plain serial formulations the
#: parity harness measures against) are exempt by design.
HOT_PATH_MODULES = (
    "src/repro/core/perturbation.py",
    "src/repro/core/private.py",
    "src/repro/core/dpsgd.py",
    "src/repro/core/geodp.py",
    "src/repro/core/sgd.py",
    "src/repro/backend/fused.py",
    "src/repro/backend/cext.py",
    "src/repro/backend/threads.py",
)

#: ``np.<name>`` calls that allocate fresh buffers.
FORBIDDEN_ALLOCATORS = frozenset({"empty", "zeros", "empty_like", "zeros_like"})


def _direct_allocations(source: str, filename: str) -> list[str]:
    """``file:line np.<fn>`` for every direct numpy allocation call."""
    violations = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if (
            func.attr in FORBIDDEN_ALLOCATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            violations.append(f"{filename}:{node.lineno} np.{func.attr}")
    return violations


def test_hot_path_allocates_only_through_workspace():
    violations = []
    for relative in HOT_PATH_MODULES:
        path = REPO_ROOT / relative
        violations.extend(_direct_allocations(path.read_text(), relative))
    assert violations == [], (
        "direct numpy allocation in a release hot-path module — use "
        "repro.backend.workspace (take/scratch/zeros) instead:\n  "
        + "\n  ".join(violations)
    )


def test_hot_path_module_list_is_current():
    """The lint covers real files (a rename must update the list)."""
    for relative in HOT_PATH_MODULES:
        assert (REPO_ROOT / relative).is_file(), f"{relative} missing"


#: Timing-sensitive modules: interval measurements must use the
#: monotonic ``time.perf_counter`` — bare ``time.time()`` is subject to
#: NTP slews/wall-clock jumps and poisons latency metrics and benchmark
#: ratios.  (``time.time()`` stays legal elsewhere, e.g. for timestamps
#: in persisted records.)
TIMING_SENSITIVE_MODULES = HOT_PATH_MODULES + (
    "src/repro/runtime/pool.py",
    "src/repro/service/admission.py",
    "src/repro/service/server.py",
    "src/repro/telemetry/recorder.py",
    "src/repro/telemetry/tracing.py",
    "src/repro/telemetry/live/registry.py",
    "src/repro/telemetry/live/exporter.py",
    "src/repro/telemetry/live/health.py",
    "src/repro/telemetry/live/profiler.py",
    "benchmarks/bench_live.py",
    "benchmarks/bench_telemetry.py",
)


def _wall_clock_calls(source: str, filename: str) -> list[str]:
    """``file:line`` for every bare ``time.time()`` call."""
    violations = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if (
            func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            violations.append(f"{filename}:{node.lineno} time.time()")
    return violations


def test_timing_sensitive_modules_use_perf_counter():
    violations = []
    for relative in TIMING_SENSITIVE_MODULES:
        path = REPO_ROOT / relative
        violations.extend(_wall_clock_calls(path.read_text(), relative))
    assert violations == [], (
        "bare time.time() in a timing-sensitive module — use "
        "time.perf_counter() for interval measurement:\n  "
        + "\n  ".join(violations)
    )


def test_timing_sensitive_module_list_is_current():
    for relative in TIMING_SENSITIVE_MODULES:
        assert (REPO_ROOT / relative).is_file(), f"{relative} missing"


def test_wall_clock_lint_detects_offender():
    """The AST check actually catches the pattern it claims to."""
    assert _wall_clock_calls("import time\nt0 = time.time()\n", "x.py") == [
        "x.py:2 time.time()"
    ]
    assert _wall_clock_calls("import time\nt0 = time.perf_counter()\n", "x.py") == []


def ruff_available() -> bool:
    return importlib.util.find_spec("ruff") is not None


@pytest.mark.skipif(not ruff_available(), reason="ruff is not installed")
def test_ruff_clean():
    result = subprocess.run(
        [sys.executable, "-m", "ruff", "check", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, f"ruff found issues:\n{result.stdout}{result.stderr}"
