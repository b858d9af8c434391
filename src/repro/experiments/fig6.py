"""Figure 6: runtime of GeoDP vs DP perturbation vs batch size and dimension.

The paper measures the average wall time to perturb batches of gradients
under both schemes, varying batch size and dimensionality, and finds that
both factors increase runtime but dimensionality dominates GeoDP's extra
cost (the coordinate conversions are O(d) per gradient).  We time the full
per-iteration perturbation pipeline: per-sample clip of a ``(B, d)``
gradient matrix, aggregation, and noising (plus the two conversions for
GeoDP), and report the fastest of the repeats.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.dpsgd import DpSgdOptimizer
from repro.core.geodp import GeoDpSgdOptimizer
from repro.experiments.common import check_scale
from repro.utils.rng import as_rng
from repro.utils.tables import format_table

__all__ = ["run_fig6", "format_fig6"]

_PRESETS = {
    # (batch sizes, dims, repeats)
    "smoke": ((64, 256), (500, 2000), 3),
    "ci": ((128, 512, 2048), (1250, 5000, 20000), 5),
    "paper": ((512, 2048, 8192), (1250, 20000, 80000, 320000), 10),
}


def _time_pipeline(optimizer, grads: np.ndarray, repeats: int) -> float:
    """Fastest of ``repeats`` timed steps after one warm-up.

    The minimum (the ``timeit`` convention) rather than the mean: on a
    shared machine a single preempted repeat inflates the mean of a
    millisecond-scale step severalfold, while the minimum is the closest
    estimate of the pipeline's own cost.
    """
    params = np.zeros(grads.shape[1])
    optimizer.step(params, grads)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        optimizer.step(params, grads)
        best = min(best, time.perf_counter() - start)
    return best


def run_fig6(scale: str = "smoke", rng=None) -> dict:
    """Time DP vs GeoDP perturbation across (batch size, dimension) grids."""
    check_scale(scale)
    batches, dims, repeats = _PRESETS[scale]
    rng = as_rng(rng)

    rows = []
    for dim in dims:
        for batch in batches:
            grads = rng.normal(size=(batch, dim)) * 0.01
            dp = DpSgdOptimizer(0.1, 0.1, 1.0, rng=rng)
            geo = GeoDpSgdOptimizer(0.1, 0.1, 1.0, beta=0.1, rng=rng)
            rows.append(
                {
                    "dim": dim,
                    "batch": batch,
                    "dp_seconds": _time_pipeline(dp, grads, repeats),
                    "geodp_seconds": _time_pipeline(geo, grads, repeats),
                }
            )
    return {"scale": scale, "rows": rows}


def format_fig6(result: dict) -> str:
    """Render the runtime grid with the GeoDP/DP ratio."""
    headers = ["d", "B", "DP (s/iter)", "GeoDP (s/iter)", "GeoDP/DP"]
    rows = [
        [
            r["dim"],
            r["batch"],
            r["dp_seconds"],
            r["geodp_seconds"],
            r["geodp_seconds"] / max(r["dp_seconds"], 1e-12),
        ]
        for r in result["rows"]
    ]
    return format_table(
        headers, rows, title=f"Figure 6 (scale={result['scale']}): perturbation runtime"
    )
