"""Append one per-commit row to the perf trend log.

Usage::

    python benchmarks/trend_row.py BENCH.json SHA [trend.csv]
    python benchmarks/trend_row.py --render [trend.csv]

The first form reads a ``bench_substrate`` JSON result, appends a
one-line summary of the headline rates to the CSV log (creating it with
a header if absent), and prints a markdown table row for the CI job
summary. The committed ``benchmarks/trend.csv`` seeds the log with the
developer-machine baseline of each landed change; CI appends its own
smoke-mode rows to the job summary so per-commit drift is visible
without regenerating the committed baseline.

``--render`` prints the whole accumulated log as a markdown table, each
rate cell annotated with its delta against the previous row of the same
case — the per-case trajectory reads straight off the job summary
instead of a raw CSV dump.
"""

from __future__ import annotations

import datetime
import json
import sys
from pathlib import Path

#: The headline cases tracked per commit, in column order (ops/s; the
#: provenance ingest case is events/s).
HEADLINE = [
    "aggregate scan (5k rows)",
    "aggregate scan (traced)",
    "hash join (5k x 50)",
    "filtered scan 50% selectivity",
    "sharded aggregate (partial/final)",
    "point query (index probe)",
    "full scan latest (live cache)",
    "provenance ingest (60k mixed events)",
]

HEADER = "date,sha," + ",".join(
    name.replace(",", ";") for name in HEADLINE
)


def render(csv_path: Path) -> str:
    """Render the trend log as a markdown table with per-case deltas."""
    if not csv_path.exists():
        return "_no trend data yet_"
    lines = [ln for ln in csv_path.read_text().splitlines() if ln.strip()]
    if len(lines) < 2:
        return "_no trend data yet_"
    header = lines[0].split(",")
    table = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    prev: list[str] | None = None
    for line in lines[1:]:
        cells = line.split(",")
        rendered = [cells[0], f"`{cells[1]}`" if len(cells) > 1 else ""]
        for i, cell in enumerate(cells[2:], start=2):
            try:
                value = float(cell)
            except ValueError:
                rendered.append(cell)
                continue
            note = ""
            if prev is not None and i < len(prev):
                try:
                    before = float(prev[i])
                except ValueError:
                    before = 0.0
                if before > 0:
                    note = f" ({(value - before) / before * 100:+.0f}%)"
            rendered.append(f"{cell}{note}")
        table.append("| " + " | ".join(rendered) + " |")
        prev = cells
    return "\n".join(table)


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--render":
        csv_path = (
            Path(argv[1]) if len(argv) > 1 else Path("benchmarks/trend.csv")
        )
        print(render(csv_path))
        return 0
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = json.loads(Path(argv[0]).read_text())
    rates = results.get("ops_per_sec", {})
    sha = argv[1][:12]
    csv_path = Path(argv[2]) if len(argv) > 2 else Path("benchmarks/trend.csv")
    date = datetime.date.today().isoformat()
    cells = [f"{rates.get(name, 0.0):.1f}" for name in HEADLINE]
    line = ",".join([date, sha] + cells)
    existing = csv_path.read_text() if csv_path.exists() else ""
    with csv_path.open("a") as log:
        if not existing:
            log.write(HEADER + "\n")
        log.write(line + "\n")
    print(
        "| "
        + " | ".join([date, f"`{sha}`"] + cells)
        + " |  _(ops/s: "
        + ", ".join(HEADLINE)
        + ")_"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
