"""Per-layer metrics of a traced run (``--trace 1``).

Wall times are the traced passes' span times divided by the number of
traced passes, so each is "seconds per pass of the cell list".  Counts come
from the first pass's counter deltas (deterministic per seed) or, where the
program keeps no counter, from the wrappers' call counts per pass.

``bench.reconcile_error`` checks that nothing goes unaccounted for: the
self times of every layer, ``sim.self_s`` and the driver's own self time
must add up to the measured-phase wall clock taken independently by the
cell driver, within RECONCILE_TOLERANCE.
"""

from __future__ import annotations

import statistics

#: layer name -> metric prefix
LAYER_PREFIX = {
    "sim": "sim",
    "cluster": "cluster",
    "orb.core": "orb",
    "orb.giop": "giop",
    "orb.cdr": "cdr",
    "services.naming": "naming",
    "winner": "winner",
    "ft": "ft",
    "services.checkpoint": "store",
    "opt": "opt",
    "obs": "obs",
    "driver": "bench",
}

#: largest |sum of self times - measured wall| / measured wall accepted.
RECONCILE_TOLERANCE = 0.02

#: span metrics reported as wall seconds per pass (measured phase).
SPAN_METRICS = (
    "cluster.execute_s",
    "cluster.send_s",
    "orb.invoke_s",
    "orb.serve_s",
    "giop.encode_s",
    "giop.decode_s",
    "cdr.value_encode_s",
    "cdr.value_decode_s",
    "cdr.any_encode_s",
    "cdr.any_decode_s",
    "naming.resolve_s",
    "naming.choose_s",
    "naming.directory_resolve_s",
    "winner.sample_s",
    "winner.score_s",
    "winner.site_refresh_s",
    "winner.site_best_host_s",
    "ft.recover_s",
    "ft.factory_s",
    "store.store_s",
    "store.load_s",
    "opt.solve_s",
    "obs.interceptor_s",
)


def _sum(cells, key: str) -> float:
    return sum(cell.counters.get(key, 0) for cell in cells)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quantile(values, percent: int) -> float:
    """The ``percent``-th percentile (``statistics.quantiles``, inclusive
    method); 0 without samples."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[percent - 1])


def per_layer_metrics(tracer, passes, reference_pass) -> dict:
    """Every per-layer metric, name -> (value, unit)."""
    traced_passes = len(passes)
    first = passes[0]
    measured = "measured"

    def span_s(metric: str) -> float:
        return tracer.metric_s.get((measured, metric), 0.0) / traced_passes

    def calls(metric: str) -> float:
        return tracer.metric_calls.get((measured, metric), 0) / traced_passes

    def self_s(layer: str) -> float:
        return tracer.self_s.get((measured, layer), 0.0) / traced_passes

    metrics: dict[str, tuple[float, str]] = {}
    useful = sum(cell.attempted for cell in first)
    untraced_wall = sum(cell.run_s for cell in reference_pass)
    events = _sum(first, "sim.events")

    # sim
    metrics["sim.events"] = (events, "count")
    metrics["sim.events_per_s"] = (_ratio(events, untraced_wall), "1/s")
    # cluster
    metrics["cluster.execute_calls"] = (calls("cluster.execute_s"), "count")
    metrics["cluster.net_messages"] = (_sum(first, "cluster.net_messages"), "count")
    metrics["cluster.net_bytes"] = (_sum(first, "cluster.net_bytes"), "bytes")
    metrics["cluster.net_dropped"] = (_sum(first, "cluster.net_dropped"), "count")
    metrics["cluster.wire_bytes_per_op"] = (
        _ratio(_sum(first, "cluster.net_bytes"), useful),
        "bytes",
    )
    # orb.core
    metrics["orb.invocations"] = (_sum(first, "orb.invocations"), "count")
    metrics["orb.call_failures"] = (_sum(first, "orb.call_failures"), "count")
    metrics["orb.solve_sim_latency_s"] = (
        _ratio(_sum(first, "orb.solve_latency_total"), _sum(first, "orb.solve_calls")),
        "s",
    )
    # orb.giop
    metrics["giop.messages"] = (
        calls("giop.encode_s"),
        "count",
    )
    # orb.cdr
    metrics["cdr.any_encode_calls"] = (calls("cdr.any_encode_s"), "count")
    metrics["cdr.plan_hit_ratio"] = (
        _ratio(_sum(first, "cdr.plan_hits"), _sum(first, "cdr.plan_lookups")),
        "ratio",
    )
    # services.naming
    metrics["naming.resolves"] = (_sum(first, "naming.resolves"), "count")
    peak = [cell.counters["naming.peak_share"] for cell in first
            if "naming.peak_share" in cell.counters]
    metrics["naming.peak_share"] = (max(peak) if peak else 0.0, "ratio")
    # winner
    metrics["winner.reports"] = (
        _sum(first, "winner.reports") + _sum(first, "winner.site_refreshes"),
        "count",
    )
    metrics["winner.report_bytes"] = (_sum(first, "winner.report_bytes"), "bytes")
    # ft
    for key in (
        "ft.calls",
        "ft.checkpoints",
        "ft.retries",
        "ft.recoveries",
        "ft.failed_recoveries",
    ):
        metrics[key] = (_sum(first, key), "count")
    metrics["ft.checkpoint_bytes"] = (_sum(first, "ft.checkpoint_bytes"), "bytes")
    ft_calls = _sum(first, "ft.calls")
    metrics["ft.useful_ratio"] = (
        _ratio(ft_calls, ft_calls + _sum(first, "ft.retries")) if ft_calls else 1.0,
        "ratio",
    )
    metrics["ft.factory_creates"] = (calls("ft.factory_s"), "count")
    recoveries = [x for cell in first for x in cell.samples.get("recovery_s", ())]
    metrics["ft.recovery_s_p50"] = (quantile(recoveries, 50), "s")
    metrics["ft.recovery_s_p90"] = (quantile(recoveries, 90), "s")
    # services.checkpoint
    metrics["store.stores"] = (_sum(first, "store.stores"), "count")
    metrics["store.loads"] = (_sum(first, "store.loads"), "count")
    metrics["store.sim_latency_s"] = (
        _ratio(_sum(first, "store.latency_total"), _sum(first, "store.calls")),
        "s",
    )
    # opt
    metrics["opt.solves"] = (calls("opt.solve_s"), "count")
    metrics["opt.evaluations"] = (_sum(first, "opt.evaluations"), "count")
    # obs
    metrics["obs.spans"] = (_sum(first, "obs.spans"), "count")

    # wall times per pass
    for metric in SPAN_METRICS:
        metrics[metric] = (span_s(metric), "s")
    for layer, prefix in LAYER_PREFIX.items():
        name = f"{prefix}.self_s" if prefix != "bench" else "bench.driver_self_s"
        metrics[name] = (self_s(layer), "s")
    # set-up layers (per cell set-up, averaged over the traced cells)
    traced_cells = sum(len(one) for one in passes)
    for metric in ("core.start_s", "core.deploy_s"):
        metrics[metric] = (
            tracer.metric_s.get(("setup", metric), 0.0) / traced_cells,
            "s",
        )

    # reconciliation and tracing overhead
    measured_wall = sum(cell.run_s for one in passes for cell in one) / traced_passes
    accounted = sum(
        value for (phase, _layer), value in tracer.self_s.items() if phase == measured
    ) / traced_passes
    metrics["bench.measured_wall_s"] = (measured_wall, "s")
    metrics["bench.reconcile_error"] = (
        abs(accounted - measured_wall) / measured_wall,
        "ratio",
    )
    traced_p50 = statistics.median(cell.run_s for one in passes for cell in one)
    untraced_p50 = statistics.median(cell.run_s for cell in reference_pass)
    metrics["bench.untraced_cell_s_p50"] = (untraced_p50, "s")
    metrics["bench.trace_overhead"] = (traced_p50 / untraced_p50, "ratio")
    metrics["bench.spans"] = (tracer.spans_total / traced_passes, "count")
    metrics["bench.traced_passes"] = (traced_passes, "count")
    return metrics


def reconciles(metrics: dict) -> bool:
    return metrics["bench.reconcile_error"][0] <= RECONCILE_TOLERANCE
