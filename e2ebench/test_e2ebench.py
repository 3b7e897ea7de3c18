"""The benchmark's own tests: tracing is observational, the seed is an
input, and the cell drivers reproduce the program's own experiment
drivers exactly.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cells  # noqa: E402
import layers  # noqa: E402

SMALL_OPENLOOP = cells.OpenLoopCellSpec(
    hosts=300, clients=5_000, duration=0.5, seed=3
)


def small_orb(seed: int, **changes) -> cells.OrbCellSpec:
    spec = cells.OrbCellSpec("100/7", "winner", 0, 20_000, True, seed)
    changes.setdefault("manager_iterations", 2)
    return replace(spec, **changes)


def outputs(cell: cells.CellOutcome) -> tuple:
    return cell.sim, cell.samples, cell.counters


@pytest.fixture
def traced():
    """Install the layer wrappers for one test, then remove them."""
    tracer = layers.LayerTracer()
    uninstall = layers.install(tracer)
    cells.set_phase_hook(tracer)
    try:
        yield tracer
    finally:
        cells.set_phase_hook(None)
        uninstall()


@pytest.mark.parametrize(
    "spec",
    [small_orb(5), small_orb(5, crash=True), SMALL_OPENLOOP],
    ids=["table1-ft", "ft-crash", "openloop"],
)
def test_traced_run_simulates_exactly_what_the_untraced_run_does(spec, request):
    # The CDR plan cache is process-global: warm it so the plan counters
    # of both measured runs see the same (hit-only) state.
    cells.run_cell(spec)
    untraced = cells.run_cell(spec)
    tracer = request.getfixturevalue("traced")
    traced_cell = cells.run_cell(spec)
    assert not untraced.violations and not traced_cell.violations
    assert outputs(traced_cell) == outputs(untraced)
    assert tracer.spans_total > 0
    # Every layer self time plus the driver's adds up to the measured wall.
    accounted = sum(
        v for (phase, _), v in tracer.self_s.items() if phase == "measured"
    )
    assert accounted == pytest.approx(traced_cell.run_s, rel=0.02)


@pytest.mark.parametrize(
    "first, second",
    [
        (small_orb(5), small_orb(6)),
        (SMALL_OPENLOOP, replace(SMALL_OPENLOOP, seed=4)),
    ],
    ids=["orb", "openloop"],
)
def test_a_second_seed_changes_the_outputs_and_keeps_every_invariant(first, second):
    a = cells.run_cell(first)
    b = cells.run_cell(second)
    assert not a.violations and not b.violations
    assert a.failed == 0 and b.failed == 0
    assert a.sim != b.sim


def test_orb_cell_reproduces_scenario_run():
    from repro.bench.harness import BENCH_SETTINGS
    from repro.core import Scenario

    spec = small_orb(7)
    cell = cells.run_cell(spec)
    scenario = Scenario(
        dimension=100,
        num_workers=7,
        pool_size=9,
        naming_strategy="winner",
        fault_tolerant=True,
        worker_iterations=spec.worker_iterations,
        manager_iterations=spec.manager_iterations,
        worker_settings=BENCH_SETTINGS,
        seed=spec.seed,
    ).run()
    assert cell.sim["makespan_s"] == scenario.runtime_seconds
    assert cell.sim["fun"] == scenario.result.fun
    assert cell.sim["placements"] == tuple(scenario.worker_placements)
    assert cell.counters["ft.checkpoints"] == scenario.checkpoints


def test_openloop_cell_reproduces_scale_run():
    from repro.bench.scalebench import cluster_capacity, scale_run

    cell = cells.run_cell(SMALL_OPENLOOP)
    reference = scale_run(
        SMALL_OPENLOOP.hosts,
        SMALL_OPENLOOP.clients,
        cells.OPENLOOP_LOAD * cluster_capacity(SMALL_OPENLOOP.hosts),
        duration=SMALL_OPENLOOP.duration,
        seed=SMALL_OPENLOOP.seed,
        request_work=SMALL_OPENLOOP.request_work,
    )
    assert cell.sim["fingerprint"] == reference.fingerprint
    assert cell.sim["hist_p99_s"] == reference.latency_p99
    assert cell.attempted == reference.arrivals


def test_crashes_recover_exactly_once():
    """A crash mid-solve is recovered and the optimisation returns the
    same ``fun`` as the crash-free cell (each call took effect once)."""
    spec = small_orb(5, manager_iterations=4)
    clean = cells.run_cell(spec)
    crashed = cells.run_cell(replace(spec, crash=True))
    assert not crashed.violations
    assert crashed.counters["ft.recoveries"] > 0
    assert crashed.sim["fun"] == clean.sim["fun"]
    assert crashed.sim["makespan_s"] > clean.sim["makespan_s"]
