"""The runtime's end-to-end benchmark.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload table1-ft --seed 1 --seconds 30 --trace 0

Workloads (see ``e2ebench/DESIGN.md`` for why each exists):

* ``table1-ft``     Table 1's "with proxy" column: 100/7 Rosenbrock, Winner
                    naming, FT proxies checkpointing after every call.
* ``fig3-bg``       Fig. 3 cells without FT where round-robin and Winner
                    placement diverge under background load.
* ``openloop-4000`` the placement-layer open loop: 4000 hosts, 10^5 clients,
                    Poisson arrivals at 0.55 x cluster capacity.
* ``ft-crash``      table1-ft cells with worker hosts crashing mid-solve.

A run builds its cell list from the seed, times the imports and a reduced
warm-up cell, then repeats the cell list (a *pass*, always whole) for about
``--seconds`` of wall time, at least once.  Simulated outputs come from
the first pass; every later pass must reproduce them bit for bit.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
first runs one untraced pass as the reference, then traced passes with
span wrappers around every layer (``layers.py``), and prints the
per-layer metrics; the spans go to ``.e2ebench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

# analysis: ignore[DET001]: set-up time is measured from the first statement of the process
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import report  # noqa: E402  (imports no program code)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".e2ebench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import the program from ``src/``; exit 2 when it is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"e2ebench: no program sources under {src}; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(HERE)]
    import cells

    return cells


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- passes ---------------------------------------------------------------------------


def run_passes(cells_mod, specs, seconds: float):
    """Repeat the cell list, always whole, for about ``seconds`` of wall
    time: at least one pass, and another only while the run would end
    closer to ``seconds`` with it than without it.  Whole passes keep the
    mix of cells, and so the median cell, the same in every run."""
    passes = []
    started = cells_mod.clock()
    while True:
        pass_started = cells_mod.clock()
        passes.append([cells_mod.run_cell(spec) for spec in specs])
        now = cells_mod.clock()
        if now - started + (now - pass_started) / 2 >= seconds:
            return passes


def check_passes(passes) -> None:
    """Every pass must reproduce the first pass's simulated outputs, and
    every ORB cell of one (dimension, workers, seed) the same ``fun``."""
    first = passes[0]
    for later in passes[1:]:
        for cell, expected in zip(later, first):
            if cell.sim != expected.sim or cell.samples != expected.samples:
                cell.fail_all("pass is not bit-identical to the first pass")
    funs: dict = {}
    for cell in first:
        if "fun" in cell.sim:
            key = (cell.spec.config, cell.spec.seed)
            funs.setdefault(key, set()).add(cell.sim["fun"])
    for one_pass in passes:
        for cell in one_pass:
            values = funs.get((getattr(cell.spec, "config", None), cell.spec.seed))
            if values is not None and len(values) != 1:
                cell.fail_all(f"cells of one seed disagree on fun: {values}")


def sim_metrics(first_pass) -> dict:
    """Simulated end-to-end metrics from the first pass (deterministic)."""
    latencies = [x for cell in first_pass for x in cell.samples["latency_s"]]
    return {
        "sim_makespan_s": statistics.median(
            cell.sim["makespan_s"] for cell in first_pass
        ),
        "sim_latency_p50_s": report.quantile(latencies, 50),
        "sim_latency_p99_s": report.quantile(latencies, 99),
        "latency_samples": len(latencies),
    }


# -- main -------------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    cells = load_program()
    import_s = cells.clock() - PROCESS_START

    if args.workload not in cells.WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(cells.WORKLOADS)}", file=sys.stderr)
        return 2
    specs = cells.cell_specs(args.workload, args.seed)
    # Warm-up: a reduced first cell fills the CDR plan cache, the IDL
    # codegen registries and numpy's lazy state before anything is timed.
    warm_started = cells.clock()
    cells.run_cell(cells.warmup_spec(specs[0]))
    warmup_s = cells.clock() - warm_started

    tracer = None
    reference_passes = None
    budget = args.seconds
    if args.trace:
        # The untraced reference pass counts against the run's seconds.
        reference_started = cells.clock()
        reference_passes = [[cells.run_cell(spec) for spec in specs]]
        budget -= cells.clock() - reference_started
        import layers

        tracer = layers.LayerTracer()
        layers.install(tracer)
        cells.set_phase_hook(tracer)
    passes = run_passes(cells, specs, budget)
    check_passes(passes)

    all_cells = [cell for one_pass in passes for cell in one_pass]
    attempted = sum(cell.attempted for cell in all_cells)
    failed = sum(cell.failed for cell in all_cells)
    for cell in all_cells:
        for violation in cell.violations:
            print(f"violation in {cell.spec.label}: {violation}", file=sys.stderr)

    run_walls = [cell.run_s for cell in all_cells]
    sim = sim_metrics(passes[0])
    if reference_passes is not None:
        check_passes(reference_passes + passes[:1])
        if sim_metrics(reference_passes[0]) != sim:
            print("traced simulated outputs differ from untraced", file=sys.stderr)
            failed = attempted
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes x "
        f"{len(specs)} cells, {sim['latency_samples']} latency samples, "
        f"import {import_s:.3f}s warm-up {warmup_s:.3f}s",
        file=sys.stderr,
    )

    if args.trace:
        metrics = report.per_layer_metrics(tracer, passes, reference_passes[0])
        if not report.reconciles(metrics):
            print(
                "layer self times do not add up to the measured wall: "
                f"error {metrics['bench.reconcile_error'][0]:.3%}",
                file=sys.stderr,
            )
            failed = attempted
        metrics["bench.error_rate"] = (failed / attempted, "ratio")
        trace_path = OUT_DIR / f"trace-{args.workload}.json"
        tracer.write_chrome_trace(trace_path)
        print(f"spans written to {trace_path}", file=sys.stderr)
    else:
        completed = attempted - failed
        metrics = {
            "setup_s": (
                import_s
                + warmup_s
                + statistics.median(cell.setup_s for cell in all_cells),
                "s",
            ),
            "cell_s_p50": (statistics.median(run_walls), "s"),
            "ops_per_s": (completed / sum(run_walls), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "sim_makespan_s": (sim["sim_makespan_s"], "s"),
            "sim_latency_p50_s": (sim["sim_latency_p50_s"], "s"),
            "sim_latency_p99_s": (sim["sim_latency_p99_s"], "s"),
        }
        print(
            f"cells measured: {len(all_cells)}; error rate "
            f"{failed}/{attempted}",
            file=sys.stderr,
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
