"""The whole benchmark in one command (``run.py`` without ``--workload``).

Every run is a fresh ``run.py --workload ...`` subprocess, exactly what the
driver starts, and every repeat uses the same seed, so all repeats do
identical work and the spread is the machine's alone. Repeats are
interleaved round-robin across workloads, so a slow minute of the sandbox
touches every workload and not one. The reported value of a metric is the
median over repeats; the spread beside it (``repeat.spread_pct``) is the
interquartile range as a share of the median — the statistic the driver
gates on. One ``--trace 1`` run per workload follows and supplies the
per-layer numbers.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
#: Runs per workload. Ten, because ``statistics.quantiles(n=4)`` of fewer
#: values extrapolates the quartiles and the spread becomes another statistic.
REPEATS = 10


def spread_pct(values: list[float]) -> float:
    """Interquartile range as a percentage of the median."""
    if len(values) < 2:
        return 0.0
    low, mid, high = statistics.quantiles(values, n=4)
    return 100.0 * (high - low) / mid if mid else 0.0


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {done.returncode})")
    return json.loads(lines[-1])


def main(spec: dict, seed: int, seconds: float, out: str | None) -> int:
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(REPEATS):
        for name in names:
            result = one_run(name, seed, seconds, 0)
            runs[name].append(result)
            print(f"  run {repeat + 1}/{REPEATS} {name}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
    report: dict = {"seed": seed, "seconds": seconds, "repeats": REPEATS, "workloads": {}}
    all_correct = True
    for name in names:
        traced = one_run(name, seed, seconds, 1)
        results = runs[name] + [traced]
        all_correct &= all(r["correct"] for r in results)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[name]]
            end_to_end[metric["name"]] = {
                "median": statistics.median(values),
                "unit": metric["unit"],
                "spread_pct": spread_pct(values),
                "values": values,
            }
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }

    for name, entry in report["workloads"].items():
        print(f"\n== {name}  (correct={entry['correct']}, "
              f"failed {entry['failed']}/{entry['attempted']})")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:44s} {row['median']:>14.4f} {row['unit']:6s}"
                  f" repeat.spread_pct {row['spread_pct']:5.2f}")
        for metric, row in entry["per_layer"].items():
            print(f"  {metric:44s} {row['value']:>14.4f} {row['unit']}")
    if out:
        Path(out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nwrote {out}")
    return 0 if all_correct else 1
