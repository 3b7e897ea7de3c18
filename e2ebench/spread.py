"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 e2ebench/spread.py --workload fig3-bg --seeds 1-10 --seconds 30

Runs ``run.py`` once per seed (one process at a time) and prints, per
metric, the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        command = [
            sys.executable, "e2ebench/run.py", "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=180,
            check=False,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print(f"{name:24s} median {median:.6g}  spread {spread:.3f}  "
              f"bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
