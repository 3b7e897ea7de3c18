"""Layer-attributed wall-clock tracing from outside the program.

The traced run wraps each layer's public entry points (class methods and
module functions of ``repro``) with span-recording wrappers.  Nothing in
``src/`` changes: the wrappers are installed on the classes and modules at
run time and only read the host clock, so every simulated result stays
bit-identical to an untraced run.

Accounting rules:

* A generator entry point (a servant method, an ORB process body) is timed
  per resume, not at the call that creates the generator.
* Within one metric only the outermost call is timed (``write_value``
  recursing into itself counts once); within one layer only the outermost
  span opens a layer frame.
* A layer's self time is its frame time minus the frames of other layers
  nested inside it.  ``sim`` frames come from ``Simulator.run`` /
  ``run_until_done``, so ``sim`` self time is the kernel, process stepping
  and glue that no other layer claims.  The driver's own frame (one per
  cell phase) takes what lies outside every layer.

Spans (outermost layer frames) are kept in memory, capped, and written as
a Chrome trace when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from cells import clock

#: spans kept in memory (start/end/name/parent: 24 bytes each).
SPAN_CAPACITY = 100_000


class LayerTracer:
    """Frames, per-metric times and a capped span buffer."""

    def __init__(self) -> None:
        self.names: list[str] = []  # metric names, indexed by id
        self.layers: list[str] = []  # layer of each metric id
        self._ids: dict[str, int] = {}
        self._metric_depth: list[int] = []
        self._layer_depth: dict[str, int] = defaultdict(int)
        #: open layer frames: [layer, start, time of nested other-layer frames,
        #: span index]
        self._stack: list[list] = []
        self.phase = "idle"
        #: (phase, layer) -> self seconds
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        #: (phase, metric) -> inclusive seconds of outermost calls
        self.metric_s: dict[tuple[str, str], float] = defaultdict(float)
        self.metric_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.spans_total = 0

    # -- registration ---------------------------------------------------------

    def metric_id(self, layer: str, metric: str) -> int:
        if metric not in self._ids:
            self._ids[metric] = len(self.names)
            self.names.append(metric)
            self.layers.append(layer)
            self._metric_depth.append(0)
        return self._ids[metric]

    # -- frames -----------------------------------------------------------------

    def enter(self, mid: int):
        """Open metric ``mid``; returns a token for :meth:`leave`."""
        depth = self._metric_depth
        outer_metric = depth[mid] == 0
        depth[mid] += 1
        layer = self.layers[mid]
        open_frame = self._layer_depth[layer] == 0
        self._layer_depth[layer] += 1
        now = clock()
        if open_frame:
            parent = self._stack[-1][3] if self._stack else -1
            index = -1
            if len(self.span_start) < SPAN_CAPACITY:
                index = len(self.span_start)
                self.span_name.append(mid)
                self.span_parent.append(parent)
                self.span_start.append(now)
                self.span_end.append(now)
            else:
                self.spans_dropped += 1
            self.spans_total += 1
            self._stack.append([layer, now, 0.0, index])
        return (mid, now, outer_metric, open_frame)

    def leave(self, token) -> None:
        mid, started, outer_metric, open_frame = token
        now = clock()
        elapsed = now - started
        self._metric_depth[mid] -= 1
        layer = self.layers[mid]
        self._layer_depth[layer] -= 1
        phase = self.phase
        if outer_metric:
            key = (phase, self.names[mid])
            self.metric_s[key] += elapsed
            self.metric_calls[key] += 1
        if open_frame:
            frame = self._stack.pop()
            if frame[3] >= 0:
                self.span_end[frame[3]] = now
            self.self_s[(phase, layer)] += elapsed - frame[2]
            if self._stack:
                self._stack[-1][2] += elapsed

    # -- wrappers ---------------------------------------------------------------

    def wrap_callable(self, original: Callable, layer: str, metric: str) -> Callable:
        mid = self.metric_id(layer, metric)
        tracer = self
        if inspect.isgeneratorfunction(original):

            def traced_generator_function(*args, **kwargs):
                return tracer._resumes(original(*args, **kwargs), mid)

            wrapper = traced_generator_function
        else:

            def traced_call(*args, **kwargs):
                token = tracer.enter(mid)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.leave(token)

            wrapper = traced_call
        wrapper.__name__ = getattr(original, "__name__", "traced")
        wrapper.__qualname__ = getattr(original, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = original.__doc__
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def _resumes(self, generator, mid: int):
        """Drive ``generator``, timing each resume as one span."""
        send_value: Any = None
        throw_exc: BaseException | None = None
        while True:
            token = self.enter(mid)
            try:
                if throw_exc is None:
                    yielded = generator.send(send_value)
                else:
                    exc, throw_exc = throw_exc, None
                    yielded = generator.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                self.leave(token)
            try:
                send_value = yield yielded
            except GeneratorExit:
                generator.close()
                raise
            # analysis: ignore[EXC002]: forwards whatever the kernel throws (failed futures, ProcessKilled) into the wrapped generator
            except Exception as exc:  # noqa: BLE001
                send_value = None
                throw_exc = exc

    # -- output -----------------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """Write the kept spans as a Chrome trace (``chrome://tracing``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with path.open("w", encoding="utf-8") as out:
            out.write('{"traceEvents": [\n')
            for i in range(len(self.span_start)):
                mid = self.span_name[i]
                event = {
                    "name": self.names[mid],
                    "cat": self.layers[mid],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": round((self.span_start[i] - origin) * 1e6, 3),
                    "dur": round((self.span_end[i] - self.span_start[i]) * 1e6, 3),
                    "args": {"parent": self.span_parent[i]},
                }
                out.write(("," if i else "") + json.dumps(event) + "\n")
            out.write(
                '], "otherData": '
                + json.dumps(
                    {
                        "spans_total": self.spans_total,
                        "spans_dropped": self.spans_dropped,
                    }
                )
                + "}\n"
            )


# -- what gets wrapped ------------------------------------------------------------

#: (module, owner, attribute, layer, metric).  ``owner`` None means a module
#: function: every module in ``sys.modules`` that bound the same function
#: object under that name is patched too (``from x import f`` copies).
WRAP_POINTS: tuple[tuple[str, str | None, str, str, str], ...] = (
    # sim kernel: frames whose uncovered time is kernel + process stepping
    ("repro.sim.kernel", "Simulator", "run", "sim", "sim.run_s"),
    ("repro.sim.kernel", "Simulator", "run_until_done", "sim", "sim.run_s"),
    # cluster
    ("repro.cluster.host", "Host", "execute", "cluster", "cluster.execute_s"),
    ("repro.cluster.network", "Network", "send", "cluster", "cluster.send_s"),
    # ORB core: the call entry, the client call process, the server side
    ("repro.orb.core", "Orb", "invoke", "orb.core", "orb.invoke_s"),
    ("repro.orb.core", "Orb", "_invoke_proc", "orb.core", "orb.invoke_s"),
    ("repro.orb.core", "Orb", "_dispatch_loop", "orb.core", "orb.serve_s"),
    ("repro.orb.core", "Orb", "_serve", "orb.core", "orb.serve_s"),
    # GIOP framing
    ("repro.orb.giop", None, "encode_message", "orb.giop", "giop.encode_s"),
    ("repro.orb.giop", None, "decode_message", "orb.giop", "giop.decode_s"),
    # CDR
    ("repro.orb.cdr", "CdrOutputStream", "write_value", "orb.cdr",
     "cdr.value_encode_s"),
    ("repro.orb.cdr", "CdrInputStream", "read_value", "orb.cdr",
     "cdr.value_decode_s"),
    ("repro.orb.cdr", None, "encode_any", "orb.cdr", "cdr.any_encode_s"),
    ("repro.orb.cdr", "CdrOutputStream", "write_any", "orb.cdr",
     "cdr.any_encode_s"),
    ("repro.orb.cdr", None, "decode_any", "orb.cdr", "cdr.any_decode_s"),
    ("repro.orb.cdr", "CdrInputStream", "read_any", "orb.cdr",
     "cdr.any_decode_s"),
    # naming
    ("repro.services.naming.load_aware", "LoadDistributingContextServant",
     "resolve", "services.naming", "naming.resolve_s"),
    ("repro.services.naming.strategies", "WinnerStrategy", "choose",
     "services.naming", "naming.choose_s"),
    ("repro.services.naming.strategies", "RoundRobinStrategy", "choose",
     "services.naming", "naming.choose_s"),
    ("repro.services.naming.sharded", "ShardedServiceDirectory", "resolve",
     "services.naming", "naming.directory_resolve_s"),
    # Winner
    ("repro.winner.node_manager", "NodeManager", "sample", "winner",
     "winner.sample_s"),
    ("repro.winner.node_manager", "NodeManager", "send_report", "winner",
     "winner.report_s"),
    ("repro.winner.system_manager", "SystemManager", "_collect", "winner",
     "winner.collect_s"),
    ("repro.winner.system_manager", "SystemManager", "score", "winner",
     "winner.score_s"),
    ("repro.winner.system_manager", "SystemManager", "best_host", "winner",
     "winner.score_s"),
    ("repro.winner.system_manager", "SystemManager", "top_hosts", "winner",
     "winner.score_s"),
    ("repro.winner.hierarchy", "SiteLoadManager", "refresh", "winner",
     "winner.site_refresh_s"),
    ("repro.winner.hierarchy", "SiteLoadManager", "best_host", "winner",
     "winner.site_best_host_s"),
    ("repro.winner.hierarchy", "HierarchicalWinner", "best_host", "winner",
     "winner.site_best_host_s"),
    # fault tolerance
    ("repro.ft.proxies", "_FtProxyBase", "_ft_call_proc", "ft", "ft.call_s"),
    ("repro.ft.request_proxy", "FtRequest", "_supervise", "ft", "ft.call_s"),
    ("repro.ft.recovery", "RecoveryCoordinator", "recover", "ft",
     "ft.recover_s"),
    ("repro.ft.factory", "ObjectFactoryServant", "create", "ft",
     "ft.factory_s"),
    # checkpoint store
    ("repro.services.checkpoint", "CheckpointStoreServant", "store",
     "services.checkpoint", "store.store_s"),
    ("repro.services.checkpoint", "CheckpointStoreServant", "load",
     "services.checkpoint", "store.load_s"),
    # the optimisation workload
    ("repro.opt.decomposition", "DecomposedRosenbrock", "solve_worker", "opt",
     "opt.solve_s"),
    ("repro.opt.manager", "DistributedRosenbrockOptimizer", "optimize", "opt",
     "opt.manager_s"),
    # observability interceptor hooks
    ("repro.obs.interceptor", "ObservabilityInterceptor", "send_request", "obs",
     "obs.interceptor_s"),
    ("repro.obs.interceptor", "ObservabilityInterceptor", "receive_reply",
     "obs", "obs.interceptor_s"),
    ("repro.obs.interceptor", "ObservabilityInterceptor", "receive_exception",
     "obs", "obs.interceptor_s"),
    ("repro.obs.interceptor", "ObservabilityInterceptor", "receive_request",
     "obs", "obs.interceptor_s"),
    ("repro.obs.interceptor", "ObservabilityInterceptor", "send_reply", "obs",
     "obs.interceptor_s"),
    # set-up
    ("repro.core.runtime", "Runtime", "start", "core", "core.start_s"),
    ("repro.core.runtime", "Runtime", "deploy_group", "core", "core.deploy_s"),
    ("repro.core.runtime", "Runtime", "settle", "core", "core.deploy_s"),
)


def install(tracer: LayerTracer) -> Callable[[], None]:
    """Install every wrap point; returns a function that removes them."""
    import importlib

    undo: list[tuple[Any, str, Any]] = []
    for module_name, owner_name, attr, layer, metric in WRAP_POINTS:
        module = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap_callable(original, layer, metric))
            undo.append((owner, attr, original))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap_callable(original, layer, metric)
        for other in list(sys.modules.values()):
            if getattr(other, attr, None) is original and (
                getattr(other, "__name__", "").startswith("repro")
            ):
                setattr(other, attr, wrapper)
                undo.append((other, attr, original))

    def uninstall() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall
