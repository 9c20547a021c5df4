"""Entry point of the end-to-end benchmark.

One run (what the driver calls, from the root of a checkout)::

    python3 benchmarks/e2e/run.py --workload checkout_traced --seed 7 \
        --seconds 10 --trace 0

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics (span pass) with ``--trace 1`` — and exits non-zero
when an output was wrong.

The whole suite (every workload, ten interleaved repeats in fresh
processes, then one span pass each; see README.md)::

    python3 benchmarks/e2e/run.py --seed 7 --out results.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space (paged data directories); inside the checkout, ignored by git.
WORK_ROOT = ROOT / ".bench_tmp"


def _pin_environment() -> None:
    """Same hash seed and storage default on every run.

    ``PYTHONHASHSEED`` only takes effect at interpreter start, hence the
    re-exec; ``REPRO_STORAGE`` must not change what a workload measures.
    """
    os.environ.pop("REPRO_STORAGE", None)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def _import_program() -> None:
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"run.py: the program under test is missing ({source}/repro)")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))


def run_once(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    spans_out: str | None = None,
) -> tuple[dict, list[str]]:
    """One benchmark run of one workload; returns (result object, problems).

    ``scale`` is for the self-test only: it shrinks tables and histories.
    """
    import harness
    from workloads import WORKLOADS

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        def factory():
            return WORKLOADS[name](seed, scale=scale, workdir=workdir)

        if trace:
            import tracepass

            return tracepass.run(factory, seconds, spans_out)
        with harness.SpeedClock() as clock:
            workload, setup_s = harness.build(factory, clock)
            try:
                region = harness.run_region(workload, clock, workload.op_budget(seconds))
                harness.timed_finish(workload, clock, region)
                problems = region.errors + workload.verify()
                metrics = harness.end_to_end_metrics(workload, region, setup_s)
            finally:
                workload.close()
        return harness.result_object(not problems, region, metrics), problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_result(result: dict, problems: list[str]) -> int:
    """Every metric by name with its unit, then the result line; the exit code."""
    for name, value in result["metrics"].items():
        print(f"{name:48s} {value['value']:>16.4f} {value['unit']}")
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="with --trace 1: write the raw spans (JSON lines)")
    parser.add_argument("--out", help="suite: write the results JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        import suite

        return suite.main(spec, args.seed, seconds, args.out)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return print_result(*run_once(
        args.workload, args.seed, seconds, bool(args.trace), spans_out=args.spans_out
    ))


if __name__ == "__main__":
    _pin_environment()
    _import_program()
    sys.exit(main())
