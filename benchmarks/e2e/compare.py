"""Compare two suite result files against the benchmark's own bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

For every workload x end-to-end metric: how much worse B's median is than
A's, as a share of A's, against the metric's bound in ``BENCHMARK.json``.
A pairing whose run-to-run spread (``repeat.spread_pct`` of either side)
exceeds the bound is reported ``unresolved``, not ``ok``. Exits non-zero on
any breach.

``failed_share`` (failed or wrong ops / attempted) is gated here too, and
any increase is a breach. ISSUE 11 lists it as the fifth end-to-end
metric; it cannot be one in ``BENCHMARK.json``, whose metrics must never
be 0, so every result carries ``attempted`` and ``failed`` instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def worsening(metric: dict, a: float, b: float) -> float:
    """Share of ``a`` by which ``b`` is worse (negative: better)."""
    if not a:
        return 0.0
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


def compare(spec: dict, a: dict, b: dict) -> tuple[list[tuple], bool]:
    rows, breached = [], False
    for workload in (w["name"] for w in spec["workloads"]):
        left, right = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            x, y = left["end_to_end"][metric["name"]], right["end_to_end"][metric["name"]]
            worse = worsening(metric, x["median"], y["median"])
            spread = max(x["spread_pct"], y["spread_pct"]) / 100.0
            if worse > metric["bound"]:
                verdict, breached = "BREACH", True
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((workload, metric["name"], x["median"], y["median"],
                         100 * worse, 100 * spread, 100 * metric["bound"], verdict))
        x, y = (side["failed"] / side["attempted"] for side in (left, right))
        verdict = "BREACH" if y > x or not right["correct"] else "ok"
        breached |= verdict == "BREACH"
        rows.append((workload, "failed_share", x, y, 0.0, 0.0, 0.0, verdict))
    return rows, breached


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows, breached = compare(spec, a, b)
    print(f"{'workload':18s} {'metric':12s} {'A':>12s} {'B':>12s} "
          f"{'worse %':>8s} {'spread %':>8s} {'bound %':>8s}  verdict")
    for workload, metric, x, y, worse, spread, bound, verdict in rows:
        print(f"{workload:18s} {metric:12s} {x:12.4f} {y:12.4f} "
              f"{worse:8.2f} {spread:8.2f} {bound:8.2f}  {verdict}")
    return 1 if breached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
