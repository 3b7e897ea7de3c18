"""The benchmark's workloads: cell specs derived from a seed, and the two
cell drivers (ORB cell, open-loop cell) with set-up timed apart from the
measured phase and every output invariant checked.

An ORB cell is one Fig. 3 / Table 1 scenario: a 10-host NOW, the worker
group deployed through the factories, optional background load, a
warm-up ``settle``, then the manager's optimisation (the measured phase).
The driver mirrors :meth:`repro.core.Scenario.run` step for step, so its
simulated results equal the scenario's exactly (the benchmark's tests
assert it), but it splits set-up from the measured phase and can add a
crash schedule.

An open-loop cell mirrors :func:`repro.bench.scalebench.scale_run`: hosts,
a :class:`HierarchicalWinner`, a :class:`ShardedServiceDirectory` and an
:class:`OpenLoopPopulation` with Poisson arrivals.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.bench.harness import BENCH_SETTINGS, PAPER_CONFIGS, TABLE1_ITERATIONS
from repro.bench.scalebench import cluster_capacity
from repro.cluster.host import Host
from repro.cluster.loadgen import LatencyHistogram, OpenLoopPopulation
from repro.core.config import RuntimeConfig
from repro.core.runtime import Runtime
from repro.core.scenario import WORKER_GROUP, WORKER_TYPE
from repro.ft import FtPolicy
from repro.ft.recovery import RecoveryCoordinator
from repro.orb import cdr
from repro.opt import (
    DecomposedRosenbrock,
    DistributedRosenbrockOptimizer,
    RosenbrockWorkerServant,
    RosenbrockWorkerStub,
)
from repro.services.naming.names import to_name
from repro.services.naming.sharded import ShardedServiceDirectory
from repro.sim import Simulator
from repro.winner.hierarchy import HierarchicalWinner

WORKLOADS = ("table1-ft", "fig3-bg", "openloop-4000", "ft-crash")

#: Table 1 and Fig. 3 use ten manager iterations per cell.
MANAGER_ITERATIONS = 10
#: warm-up ``settle`` before the measured phase (Scenario's default).
WARMUP = 4.0
#: worker-iteration offsets drawn from the seed (see ``_iterations``).
ITERATION_JITTER = 2_000
#: Fig. 3 background-host counts where the two strategies diverge for 100/7.
FIG3_BG = (2, 4, 6)
#: ft-crash: the crash injector arms every CRASH_PERIOD simulated seconds;
#: a crashed host restarts CRASH_DOWNTIME later (see CrashInjector).
CRASH_PERIOD = 0.7
CRASH_DOWNTIME = 0.5
#: ft-crash runs the two longest Table 1 cells for three seeds (the run's
#: seed and the next two), so one pass holds over a thousand solves and
#: about 190 recoveries, and the pass averages over three crash timelines.
CRASH_ITERATIONS = (40_000, 50_000)
CRASH_SEEDS = 3
#: open loop: 4000 hosts (not a multiple of site_fanout=128, so the runt
#: site stays in), 10^5 clients, Poisson arrivals at 0.55 x capacity.
OPENLOOP_HOSTS = 4000
OPENLOOP_CLIENTS = 100_000
OPENLOOP_LOAD = 0.55
OPENLOOP_DURATION = 4.0
OPENLOOP_CELLS = 3


def clock() -> float:
    """Host wall clock for the benchmark's own timings."""
    # analysis: ignore[DET001]: the benchmark measures host wall time; simulated results never read it
    return time.perf_counter()


class _RecoveryLog:
    """Simulated duration of every ``RecoveryCoordinator.recover``, from
    its start to its end.  The wrapper only reads ``sim.now``, so the
    simulation is unchanged; it is installed once per process."""

    def __init__(self) -> None:
        self._sink: Optional[list] = None
        self._installed = False

    def install(self) -> None:
        if self._installed:
            return
        self._installed = True
        original = RecoveryCoordinator.recover
        log = self

        def recover(coordinator, proxy):
            sim = coordinator.orb.sim
            started = sim.now
            try:
                return (yield from original(coordinator, proxy))
            finally:
                if log._sink is not None:
                    log._sink.append(sim.now - started)

        RecoveryCoordinator.recover = recover  # type: ignore[method-assign]

    @contextmanager
    def collect(self, sink: list):
        self.install()
        self._sink = sink
        try:
            yield sink
        finally:
            self._sink = None


RECOVERY_LOG = _RecoveryLog()

#: the traced run's :class:`layers.LayerTracer` (None when untraced).
_TRACER = None


def set_phase_hook(tracer) -> None:
    """Route cell phases into ``tracer``: each phase opens a driver frame."""
    global _TRACER
    _TRACER = tracer


@contextmanager
def _phase(name: str):
    tracer = _TRACER
    if tracer is None:
        yield
        return
    tracer.phase = name
    token = tracer.enter(tracer.metric_id("driver", f"bench.{name}_s"))
    try:
        yield
    finally:
        tracer.leave(token)
        tracer.phase = "idle"


# -- cell specs -----------------------------------------------------------------


@dataclass(frozen=True)
class OrbCellSpec:
    """One Fig. 3 / Table 1 cell."""

    config: str  # "30/3" or "100/7"
    strategy: str  # "round-robin" (CORBA) or "winner" (CORBA/Winner)
    background_hosts: int
    worker_iterations: int
    fault_tolerant: bool
    seed: int
    crash: bool = False
    manager_iterations: int = MANAGER_ITERATIONS

    @property
    def label(self) -> str:
        return (
            f"{self.config} seed={self.seed} {self.strategy} "
            f"bg={self.background_hosts} it={self.worker_iterations}"
            + (" ft" if self.fault_tolerant else "")
            + (" crash" if self.crash else "")
        )


@dataclass(frozen=True)
class OpenLoopCellSpec:
    """One open-loop cell at the 4000-host scale."""

    hosts: int
    clients: int
    duration: float
    seed: int
    request_work: float = 1.0

    @property
    def label(self) -> str:
        return f"openloop hosts={self.hosts} seed={self.seed}"


def _iterations(seed: int, counts) -> list[int]:
    """Worker-iteration counts for one pass: each nominal count plus a
    seed-drawn offset below ITERATION_JITTER, so the seed moves every
    simulated time while keeping Table 1's sweep."""
    rng = np.random.default_rng([seed, 0x7AB1E1])
    return [int(c) + int(rng.integers(ITERATION_JITTER)) for c in counts]


def cell_specs(workload: str, seed: int) -> list:
    """The fixed cell list of one pass of ``workload`` for ``seed``."""
    if workload == "table1-ft":
        return [
            OrbCellSpec("100/7", "winner", 0, count, True, seed)
            for count in _iterations(seed, TABLE1_ITERATIONS)
        ]
    if workload == "fig3-bg":
        # Fig. 3's 100/7 curves where round-robin and Winner placement
        # diverge; both strategies see the same iteration count per point.
        counts = _iterations(seed, (50_000,) * len(FIG3_BG))
        return [
            OrbCellSpec("100/7", strategy, bg, count, False, seed)
            for bg, count in zip(FIG3_BG, counts)
            for strategy in ("round-robin", "winner")
        ]
    if workload == "ft-crash":
        return [
            OrbCellSpec("100/7", "winner", 0, count, True, cell_seed, crash=True)
            for cell_seed in range(seed, seed + CRASH_SEEDS)
            for count in _iterations(cell_seed, CRASH_ITERATIONS)
        ]
    if workload == "openloop-4000":
        # Request work 1.0 plus a seed-drawn offset below 5%, so the
        # latency median (an unqueued request's service time) moves with
        # the seed too.
        rng = np.random.default_rng([seed, 0x0BE2])
        return [
            OpenLoopCellSpec(
                OPENLOOP_HOSTS,
                OPENLOOP_CLIENTS,
                OPENLOOP_DURATION,
                seed * 1_000 + index,
                request_work=1.0 + float(rng.uniform(0.0, 0.05)),
            )
            for index in range(OPENLOOP_CELLS)
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# -- outcomes -------------------------------------------------------------------


@dataclass
class CellOutcome:
    """What one cell measured, simulated and checked."""

    spec: object
    setup_s: float
    run_s: float
    #: useful operations attempted / failed (a broken invariant fails all).
    attempted: int
    failed: int
    #: simulated outputs: deterministic per seed, compared bit for bit.
    sim: dict
    #: simulated samples pooled across cells (latencies, recoveries).
    samples: dict = field(default_factory=dict)
    #: deterministic counters the traced run reports per layer.
    counters: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    def fail_all(self, reason: str) -> None:
        self.violations.append(reason)
        self.failed = self.attempted


# -- the ORB cell -----------------------------------------------------------------


def _runtime_for(spec: OrbCellSpec):
    """Set up one ORB cell; returns (runtime, problem, injector, tally)."""
    dimension, workers, pool_size = PAPER_CONFIGS[spec.config]
    runtime = Runtime(
        RuntimeConfig(
            num_hosts=10,
            seed=spec.seed,
            naming_strategy=spec.strategy,
        )
    ).start()
    problem = DecomposedRosenbrock(dimension, workers)
    injector = CrashInjector(runtime) if spec.crash else None
    tally = {"evaluations": 0}
    runtime.register_type(
        WORKER_TYPE, lambda: _BenchWorker(problem, BENCH_SETTINGS, tally, injector)
    )
    pool = list(range(1, pool_size + 1))
    runtime.run(runtime.deploy_group(WORKER_GROUP, WORKER_TYPE, pool))
    loaded = []
    for i in range(spec.background_hosts):
        host = pool[i] if i < len(pool) else pool_size + 1 + (i - len(pool))
        if host < 10:
            loaded.append(host)
    runtime.background_load(loaded)
    runtime.settle(WARMUP)
    return runtime, problem, injector, tally


class CrashInjector:
    """ft-crash's fault schedule: every CRASH_PERIOD simulated seconds the
    injector arms; the next ``solve`` that starts on a host other than
    ws00 (which holds the manager and the services) crashes that host
    halfway through the solve's work, and the host restarts CRASH_DOWNTIME
    later.  Each logical call is crashed at most once.  This is the
    paper's failure model, a workstation dying while it serves a long
    method call.

    A crash that lands between a reply and the proxy's checkpoint capture
    is a different case: under the default ``on_checkpoint_failure="raise"``
    policy it fails the application call, so this schedule does not aim
    there (see the benchmark's DESIGN.md).
    """

    def __init__(self, runtime: Runtime) -> None:
        self.runtime = runtime
        self.armed = False
        self.stopped = False
        self.crashed: list[str] = []
        #: (worker_id, seed) of every solve crashed so far: a retried call
        #: is never crashed again, so no call exhausts its retries.
        self._calls_hit: set = set()

    def start(self) -> None:
        self.runtime.sim.schedule(CRASH_PERIOD, self._arm)

    def _arm(self) -> None:
        if self.stopped:
            return
        self.armed = True
        self.runtime.sim.schedule(CRASH_PERIOD, self._arm)

    def on_solve(self, host, work: float, call: tuple) -> None:
        if (
            not self.armed
            or self.stopped
            or host.name == "ws00"
            or call in self._calls_hit
        ):
            return
        self.armed = False
        self._calls_hit.add(call)
        sim = self.runtime.sim

        def crash() -> None:
            if host.up:
                host.crash()
                self.crashed.append(host.name)
                sim.schedule(CRASH_DOWNTIME, host.restart)

        sim.schedule(0.5 * work / host.speed, crash)


class _BenchWorker(RosenbrockWorkerServant):
    """The worker servant, counting the evaluations of every solve that
    completes (a restored servant's own counter restarts from its
    checkpoint, so summing servants would count twice) and reporting
    each solve to the crash injector first, when there is one."""

    def __init__(
        self, problem, settings, tally: dict, injector: Optional[CrashInjector]
    ) -> None:
        super().__init__(problem, settings)
        self.tally = tally
        self.injector = injector

    def solve(self, worker_id, coupling, iterations, seed):
        if self.injector is not None:
            dim = self.problem.worker(worker_id).dimension
            work = iterations * dim * self.settings.work_per_eval_per_dim
            self.injector.on_solve(self._host(), work, (int(worker_id), int(seed)))
        before = self._evaluations
        value = yield from super().solve(worker_id, coupling, iterations, seed)
        self.tally["evaluations"] += self._evaluations - before
        return value


# Object keys embed the servant's class name and travel in every request,
# so the subclass keeps the worker's name to leave message sizes unchanged.
_BenchWorker.__name__ = RosenbrockWorkerServant.__name__


def _snapshot(runtime: Runtime) -> dict:
    """Cumulative counters of one runtime (deltas give the measured phase)."""
    orbs = list(runtime._orbs.values())
    store = runtime.store_servant
    manager = runtime.system_manager
    tracer = runtime.obs.tracer
    calls = {}
    for orb in orbs:
        for name, stats in orb.call_stats.items():
            entry = calls.setdefault(name, [0, 0, 0.0])
            entry[0] += stats.calls
            entry[1] += stats.failures
            entry[2] += stats.total_latency
    return {
        "net_messages": runtime.network.messages_sent,
        "net_bytes": runtime.network.bytes_sent,
        "net_dropped": runtime.network.messages_dropped,
        "calls": calls,
        "store_stores": store.stores if store else 0,
        "store_loads": store.loads if store else 0,
        "store_bytes": store.backend.bytes_written if store else 0,
        "naming_resolves": runtime.naming_root.resolutions
        if runtime.naming_root
        else 0,
        "winner_reports": manager.reports_received if manager else 0,
        "winner_report_bytes": sum(
            nm.report_bytes_sent for nm in runtime._node_managers.values()
        ),
        "obs_spans": len(tracer.spans) + getattr(tracer, "dropped", 0),
        "plans": cdr.plan_cache_stats(),
        "events": runtime.sim._seq,
    }


def _call_delta(before: dict, after: dict, names=None) -> tuple[int, int, float]:
    calls = failures = 0
    latency = 0.0
    for name, (c, f, t) in after["calls"].items():
        if names is not None and name not in names:
            continue
        c0, f0, t0 = before["calls"].get(name, (0, 0, 0.0))
        calls += c - c0
        failures += f - f0
        latency += t - t0
    return calls, failures, latency


def run_orb_cell(spec: OrbCellSpec) -> CellOutcome:
    """Set up and run one ORB cell; check its output invariants."""
    started = clock()
    with _phase("setup"):
        runtime, problem, injector, tally = _runtime_for(spec)
    setup_s = clock() - started
    _, workers, _ = PAPER_CONFIGS[spec.config]
    outcome: dict = {}
    recoveries: list[float] = []
    latencies: list[float] = []

    def client():
        naming = runtime.naming_stub(0)
        references = []
        for worker_id in range(workers):
            ior = yield naming.resolve(to_name(WORKER_GROUP))
            if spec.fault_tolerant:
                reference = runtime.ft_proxy(
                    RosenbrockWorkerStub,
                    ior,
                    key=f"worker-{worker_id}",
                    type_name=WORKER_TYPE,
                    group_name=WORKER_GROUP,
                    policy=FtPolicy(checkpoint_interval=1),
                )
            else:
                reference = runtime.orb(0).stub(ior, RosenbrockWorkerStub)
            references.append(reference)
        outcome["placements"] = tuple(ref.ior.host for ref in references)
        if injector is not None:
            injector.start()
        optimizer = _LatencyRecordingOptimizer(
            latencies,
            runtime.orb(0),
            problem,
            references,
            worker_iterations=spec.worker_iterations,
            manager_iterations=spec.manager_iterations,
            seed=spec.seed,
            use_dii=True,
        )
        outcome["result"] = yield from optimizer.optimize()
        if injector is not None:
            injector.stopped = True

    plans_before = cdr.plan_cache_stats()
    before = _snapshot(runtime)
    evaluations_before = tally["evaluations"]
    run_started = clock()
    with _phase("measured"), RECOVERY_LOG.collect(recoveries):
        runtime.run(client(), limit=1e7)
    run_s = clock() - run_started
    after = _snapshot(runtime)
    plans_after = cdr.plan_cache_stats()

    result = outcome["result"]
    # Useful operations: the manager's resolves, solves and best_blocks.
    attempted = workers + result.worker_calls + workers
    contexts = runtime._ft_contexts
    coordinators = list(runtime._coordinators.values())
    invocations, call_failures, _ = _call_delta(before, after)
    solves, _, solve_latency = _call_delta(before, after, {"solve"})
    store_calls, _, store_latency = _call_delta(before, after, {"store", "load"})
    hits = sum(
        plans_after[k] - plans_before[k]
        for k in ("encoder_plan_hits", "decoder_plan_hits")
    )
    lookups = hits + sum(
        plans_after[k] - plans_before[k]
        for k in ("encoder_plans_compiled", "decoder_plans_compiled")
    )
    wire = after["net_bytes"] - before["net_bytes"]
    cell = CellOutcome(
        spec=spec,
        setup_s=setup_s,
        run_s=run_s,
        attempted=attempted,
        failed=0,
        sim={
            "makespan_s": result.runtime,
            "fun": result.fun,
            "wire_bytes": wire,
            "end_time": runtime.sim.now,
            "placements": outcome["placements"],
        },
        samples={"latency_s": latencies, "recovery_s": recoveries},
        counters={
            "sim.events": after["events"] - before["events"],
            "cluster.net_messages": after["net_messages"] - before["net_messages"],
            "cluster.net_bytes": wire,
            "cluster.net_dropped": after["net_dropped"] - before["net_dropped"],
            "orb.invocations": invocations,
            "orb.call_failures": call_failures,
            "orb.solve_calls": solves,
            "orb.solve_latency_total": solve_latency,
            "naming.resolves": after["naming_resolves"] - before["naming_resolves"],
            "winner.reports": after["winner_reports"] - before["winner_reports"],
            "winner.report_bytes": after["winner_report_bytes"]
            - before["winner_report_bytes"],
            "ft.calls": sum(c.calls for c in contexts),
            "ft.checkpoints": sum(c.checkpoints_taken for c in contexts),
            "ft.checkpoint_bytes": after["store_bytes"] - before["store_bytes"],
            "ft.retries": sum(c.retries for c in contexts),
            "ft.recoveries": sum(c.recoveries for c in coordinators),
            "ft.failed_recoveries": sum(c.failed_recoveries for c in coordinators),
            "store.stores": after["store_stores"] - before["store_stores"],
            "store.loads": after["store_loads"] - before["store_loads"],
            "store.calls": store_calls,
            "store.latency_total": store_latency,
            "opt.evaluations": tally["evaluations"] - evaluations_before,
            "obs.spans": after["obs_spans"] - before["obs_spans"],
            "cdr.plan_hits": hits,
            "cdr.plan_lookups": lookups,
            "crashes": len(injector.crashed) if injector is not None else 0,
        },
    )
    _check_orb_invariants(spec, cell, runtime, result)
    return cell


class _LatencyRecordingOptimizer(DistributedRosenbrockOptimizer):
    """The manager, recording each solve's simulated latency from its
    dispatch to its reply (including any recovery in between).  The
    recorder is a done-callback that only reads ``sim.now``."""

    def __init__(self, sink: list, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sink = sink

    def _dispatch_deferred(self, reference, worker_id, coupling, eval_index):
        request = super()._dispatch_deferred(
            reference, worker_id, coupling, eval_index
        )
        sim = self.orb.sim
        sent = sim.now
        sink = self._sink
        request.get_response().add_done_callback(
            lambda future: sink.append(sim.now - sent)
        )
        return request


def _check_orb_invariants(spec, cell, runtime, result) -> None:
    try:
        runtime.sim.check_unhandled()
    # analysis: ignore[EXC002]: any unhandled process failure breaks the cell's invariant and is reported, not raised
    except Exception as exc:  # noqa: BLE001
        cell.fail_all(f"unhandled process failure: {exc}")
    if not np.isfinite(result.fun):
        cell.fail_all(f"non-finite fun {result.fun}")
    counters = cell.counters
    if spec.fault_tolerant:
        # Sync checkpointing after every call: one checkpoint per wrapped
        # call that succeeded.
        if counters["ft.checkpoints"] != counters["ft.calls"]:
            cell.fail_all(
                f"{counters['ft.checkpoints']} checkpoints for "
                f"{counters['ft.calls']} successful checkpointed calls"
            )
        if counters["ft.failed_recoveries"]:
            cell.fail_all(f"{counters['ft.failed_recoveries']} failed recoveries")
    if spec.crash and counters["ft.recoveries"] == 0:
        cell.fail_all("crash schedule produced no recovery")
    if len(cell.samples["latency_s"]) != result.worker_calls:
        cell.fail_all(
            f"{len(cell.samples['latency_s'])} solve replies for "
            f"{result.worker_calls} solves"
        )


# -- the open-loop cell -------------------------------------------------------------


class _ExactLatency(LatencyHistogram):
    """The population's latency histogram, also keeping every sample so
    the benchmark reads exact quantiles (the histogram's are bin edges,
    about 15% apart)."""

    __slots__ = ("samples",)

    def __init__(self) -> None:
        super().__init__()
        self.samples = array("d")

    def record(self, value: float) -> None:
        self.samples.append(value)
        super().record(value)


def run_openloop_cell(spec: OpenLoopCellSpec) -> CellOutcome:
    """Set up and run one open-loop cell (mirrors ``scale_run``)."""
    started = clock()
    with _phase("setup"):
        sim = Simulator(seed=spec.seed)
        hosts = [
            Host(sim, i, f"ws{i:05d}", speed=1.0 + 0.25 * (i % 3), cores=1 + (i % 2))
            for i in range(spec.hosts)
        ]
        by_name = {h.name: h for h in hosts}
        winner = HierarchicalWinner(
            sim, hosts, site_fanout=128, region_fanout=16, refresh_interval=0.5
        ).start()
        num_shards, services_per_shard = 8, 4
        directory = ShardedServiceDirectory(num_shards)
        num_services = num_shards * services_per_shard
        leaves = winner.leaves
        for service_index in range(num_services):
            for leaf in leaves[service_index % len(leaves) :: num_services]:
                directory.register(f"svc-{service_index:04d}", leaf)

        def place(client: int) -> Optional[Host]:
            leaf = directory.resolve(f"svc-{client % num_services:04d}")
            name = leaf.best_host()
            if name is None:
                name = winner.best_host()
            return by_name.get(name) if name is not None else None

        population = OpenLoopPopulation(
            sim,
            num_clients=spec.clients,
            arrival_rate=OPENLOOP_LOAD * cluster_capacity(spec.hosts),
            place=place,
            request_work=spec.request_work,
            name="scale",
        )
        population.latency = _ExactLatency()
    setup_s = clock() - started

    events_before = sim._seq
    run_started = clock()
    with _phase("measured"):
        population.start()
        sim.run(until=spec.duration)
        population.stop()
        winner.stop()
        sim.run()
    run_s = clock() - run_started

    stats = population.stats()
    cell = CellOutcome(
        spec=spec,
        setup_s=setup_s,
        run_s=run_s,
        attempted=stats["arrivals"],
        failed=stats["dropped"] + stats["failures"],
        sim={
            "latency_p50_s": float(np.quantile(population.latency.samples, 0.5)),
            "latency_p99_s": float(np.quantile(population.latency.samples, 0.99)),
            "hist_p99_s": stats["latency"]["p99"],
            "arrivals": stats["arrivals"],
            "completions": stats["completions"],
            "fingerprint": stats["fingerprint"],
            # the open loop's makespan: until the last request completes
            "makespan_s": sim.now,
        },
        samples={"latency_s": population.latency.samples},
        counters={
            "sim.events": sim._seq - events_before,
            "naming.peak_share": directory.spread()["peak_share"],
            "naming.resolves": directory.spread()["resolutions"],
            "winner.site_refreshes": sum(leaf.refreshes for leaf in leaves),
        },
    )
    try:
        sim.check_unhandled()
    # analysis: ignore[EXC002]: any unhandled process failure breaks the cell's invariant and is reported, not raised
    except Exception as exc:  # noqa: BLE001
        cell.fail_all(f"unhandled process failure: {exc}")
    balance = stats["completions"] + stats["dropped"] + stats["failures"]
    if stats["arrivals"] != balance or stats["in_flight"]:
        cell.fail_all(
            f"arrivals {stats['arrivals']} != completions + dropped + "
            f"failures {balance} ({stats['in_flight']} in flight)"
        )
    if stats["dropped"]:
        cell.fail_all(f"{stats['dropped']} requests dropped")
    return cell


def warmup_spec(spec):
    """A reduced copy of ``spec`` that touches the same code paths."""
    if isinstance(spec, OpenLoopCellSpec):
        return replace(spec, duration=0.5)
    return replace(spec, manager_iterations=1)


def run_cell(spec) -> CellOutcome:
    if isinstance(spec, OpenLoopCellSpec):
        return run_openloop_cell(spec)
    return run_orb_cell(spec)
