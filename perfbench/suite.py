"""Run the benchmark over several workloads and seeds and print a summary.

Run from the repository root::

    python3 perfbench/suite.py                      # every workload, seed 0
    python3 perfbench/suite.py --seeds 0 1          # a second seed as well
    python3 perfbench/suite.py --seeds 0 1 2 3 4 5 6 7 8 9 --workloads cnn_geodp
    python3 perfbench/suite.py --trace 1            # per-layer attribution

Each run is a separate ``run.py`` process, started only after the previous
one has ended; the runs go seed by seed, each seed on every workload.
``--trace 0`` prints every end-to-end metric with its unit per run, plus
``failed_frac`` and the ungated ``samples_per_s`` and ``step_ms_p50``; with
several seeds it also prints each metric's median and its spread -- the
distance between the first and third quartiles as a share of the median --
against the bound in ``BENCHMARK.json``.  ``--trace 1`` prints the layers
with the largest self time, the share of step time outside every timed
layer and the tracing overhead.  A run is correct only when all its checks
pass (for a traced run these include the bit-identity check); the exit code
is 0 only when every run was correct.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"  {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    saved = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["ungated"] = json.loads(saved.read_text()).get("ungated", {})
    return result


def _spread(values: list[float]) -> tuple[float, float]:
    """Median and inter-quartile distance as a share of the median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def _end_to_end(results: dict[str, list[dict]]) -> None:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload, runs in results.items():
        print(f"\n== {workload}")
        for seed, result in runs:
            metrics = result["metrics"]
            failed_frac = result["failed"] / result["attempted"]
            cells = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
            cells += [f"{name}={m['value']:.6g} {m['unit']} (ungated)"
                      for name, m in result["ungated"].items()]
            print(f"seed {seed}: correct={result['correct']} failed_frac={failed_frac:g} "
                  + "  ".join(cells))
        if len(runs) < 4:
            continue
        print(f"{'metric':16s} {'median':>12s} {'IQR/median':>11s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, r in runs if name in r["metrics"]]
            if len(values) != len(runs):
                continue
            median, spread = _spread(values)
            flag = "" if name == "setup_s" else ("ok" if spread < bound / 3 else
                                                  "WIDE" if spread >= bound else "over 1/3")
            print(f"{name:16s} {median:12.6g} {spread:11.4f} {bound:6.2f} {flag}")
        for name in runs[0][1]["ungated"]:
            median, spread = _spread([r["ungated"][name]["value"] for _, r in runs])
            print(f"{name:16s} {median:12.6g} {spread:11.4f} {'-':>6s} ungated")


def _per_layer(results: dict[str, list[dict]], top: int = 12) -> None:
    for workload, runs in results.items():
        for seed, result in runs:
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            step_ms = metrics["trace.step_ms"]
            print(f"\n== {workload} seed {seed}: correct={result['correct']} "
                  f"traced step {step_ms:.3f} ms, outside timed layers "
                  f"{metrics['core.trainer_self_share']:.2f}%, "
                  f"tracing overhead {metrics['trace.overhead_pct']:+.2f}%")
            layers = sorted(((v, k[:-3]) for k, v in metrics.items()
                             if units[k] == "ms" and k[:-3] + ".calls" in metrics),
                            reverse=True)
            for value, name in layers[:top]:
                share = 100.0 * value / step_ms if step_ms else 0.0
                print(f"  {name:34s} {value:10.4f} ms/step {share:6.2f}%  "
                      f"calls/step {metrics[name + '.calls']:g}")


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results: dict[str, list] = {name: [] for name in args.workloads}
    ok = True
    # Seed-major order: a slow spell of the machine lands on every workload
    # alike instead of on one workload's whole set.
    for seed in args.seeds:
        for workload in args.workloads:
            result = _run(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                ok = False
            if result is not None and result["metrics"]:
                results[workload].append((seed, result))
    (_per_layer if args.trace else _end_to_end)(results)
    print(f"\nall runs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
