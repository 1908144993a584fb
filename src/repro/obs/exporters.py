"""Render run telemetry into standard formats.

Three exporters:

* :func:`prometheus_text` — the Prometheus text exposition format,
  rendered from a :class:`~repro.sim.metrics.MetricsRegistry`: counters
  and gauges as-is, sample series as summary quantiles with ``_count``
  and ``_sum``, timelines as gauges stamped with their last sim-time.
* :func:`json_report` / :func:`write_json_report` — one structured JSON
  document combining the metrics snapshot with trace summaries, event
  statistics and the wall-clock profile, i.e. everything a run produced;
* :func:`write_jsonl` — one sorted-key JSON object per line, the format
  of the tracer's and the event log's exports.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LEAD_RE = re.compile(r"^[^a-zA-Z_:]")

#: The quantiles rendered for every sample series.
SUMMARY_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.95", "p95"), ("0.99", "p99"))


def sanitize_metric_name(name: str, namespace: str = "") -> str:
    """Coerce a registry name into a legal Prometheus metric name."""
    flat = _NAME_RE.sub("_", name)
    if namespace:
        flat = f"{namespace}_{flat}"
    if _LEAD_RE.match(flat):
        flat = f"_{flat}"
    return flat


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(metrics: Any, namespace: str = "repro") -> str:
    """Render a metrics registry in Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(metrics.counters):
        flat = sanitize_metric_name(name, namespace)
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat} {_format_value(metrics.counters[name])}")
    for name in sorted(metrics.gauges):
        flat = sanitize_metric_name(name, namespace)
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {_format_value(metrics.gauges[name])}")
    for name in sorted(metrics.series):
        summary = metrics.summary(name)
        if summary is None:
            continue
        flat = sanitize_metric_name(name, namespace)
        lines.append(f"# TYPE {flat} summary")
        stats = summary.as_dict()
        for quantile, key in SUMMARY_QUANTILES:
            lines.append(f'{flat}{{quantile="{quantile}"}} {repr(stats[key])}')
        lines.append(f"{flat}_sum {repr(summary.mean * summary.count)}")
        lines.append(f"{flat}_count {summary.count}")
    for name in sorted(metrics.timelines):
        points = metrics.timelines[name]
        if not points:
            continue
        flat = sanitize_metric_name(name, namespace) + "_last"
        last_time, last_value = points[-1]
        # Prometheus timestamps are integer milliseconds; sim seconds
        # map 1:1 onto them so relative spacing survives scraping.
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {_format_value(last_value)} {int(last_time * 1000)}")
    return "\n".join(lines) + "\n"


def _as_sequence(value: Any) -> Sequence[Any]:
    if value is None:
        return ()
    if isinstance(value, (list, tuple)):
        return value
    return (value,)


def serving_ledger(gateway: Any) -> Dict[str, Any]:
    """One gateway's conservation accounting plus typed-reason ledgers.

    Everything a reporter needs to audit the serving path without
    holding the live gateway: the conservation counters from
    :meth:`~repro.serve.gateway.ServiceGateway.accounting`, the typed
    shed/rejection reasons, SLO and latency aggregates, and the
    hedging/batching counters.
    """
    stats = gateway.stats
    return {
        "name": gateway.name,
        "accounting": dict(gateway.accounting()),
        "shed_reasons": {k: stats.shed_reasons[k] for k in sorted(stats.shed_reasons)},
        "rejection_reasons": {
            k: stats.rejection_reasons[k] for k in sorted(stats.rejection_reasons)
        },
        "slo": {
            "hits": stats.slo_hits,
            "misses": stats.slo_misses,
            "miss_rate": stats.slo_miss_rate,
        },
        "latency_s": {
            "count": len(stats.latencies_s),
            "p99": stats.p99_latency_s(),
        },
        "hedges": {
            "launched": stats.hedges_launched,
            "won": stats.hedges_won,
            "cancelled": stats.hedges_cancelled,
        },
        "batching": {
            "batches_dispatched": stats.batches_dispatched,
            "batched_requests": stats.batched_requests,
        },
    }


def dag_ledger(scheduler: Any) -> Dict[str, Any]:
    """One DAG scheduler's conservation accounting plus failure ledger."""
    stats = scheduler.stats
    return {
        "name": scheduler.name,
        "accounting": dict(scheduler.accounting()),
        "failure_reasons": {
            k: stats.failure_reasons[k] for k in sorted(stats.failure_reasons)
        },
        "stages_completed": stats.stages_completed,
        "stages_reexecuted": stats.stages_reexecuted,
        "graph_restarts": stats.graph_restarts,
        "replicas_cancelled": stats.replicas_cancelled,
        "replicas_load_shed": stats.replicas_load_shed,
        "checkpoint_writes": stats.checkpoint_writes,
        "checkpoint_degraded": stats.checkpoint_degraded,
        "deadline_hits": stats.deadline_hits,
        "deadline_misses": stats.deadline_misses,
    }


def json_report(
    metrics: Optional[Any] = None,
    tracer: Optional[Any] = None,
    events: Optional[Any] = None,
    profiler: Optional[Any] = None,
    meta: Optional[Mapping[str, Any]] = None,
    serving: Optional[Any] = None,
    dag: Optional[Any] = None,
) -> Dict[str, Any]:
    """Build one structured report from whatever telemetry exists.

    ``serving`` takes a :class:`~repro.serve.gateway.ServiceGateway`
    (or a sequence of them) and ``dag`` a
    :class:`~repro.dag.scheduler.DagScheduler` (or a sequence); their
    conservation accounting and typed-reason ledgers are embedded so a
    run bundle carries the full serving/DAG audit trail without callers
    stitching the ledgers in by hand.
    """
    report: Dict[str, Any] = {"meta": dict(meta) if meta else {}}
    if metrics is not None:
        report["metrics"] = {
            "counters": {k: metrics.counters[k] for k in sorted(metrics.counters)},
            "gauges": {k: metrics.gauges[k] for k in sorted(metrics.gauges)},
            "series": {
                name: summary.as_dict()
                for name in sorted(metrics.series)
                for summary in [metrics.summary(name)]
                if summary is not None
            },
            "timelines": {
                name: [list(point) for point in metrics.timelines[name]]
                for name in sorted(metrics.timelines)
            },
            "truncations": dict(getattr(metrics, "truncations", {})),
        }
    if tracer is not None:
        report["traces"] = {
            "spans": len(tracer),
            "dropped_spans": tracer.dropped_spans,
            "summaries": tracer.trace_summaries(),
        }
    if events is not None:
        report["events"] = {
            "records": len(events),
            "evicted": events.evicted,
            "suppressed": events.suppressed,
            "by_severity": events.count_by_severity(),
        }
    if profiler is not None:
        report["profile"] = profiler.as_dict()
    gateways = _as_sequence(serving)
    if gateways:
        report["serving"] = [serving_ledger(gateway) for gateway in gateways]
    schedulers = _as_sequence(dag)
    if schedulers:
        report["dag"] = [dag_ledger(scheduler) for scheduler in schedulers]
    return report


def write_jsonl(path: str, rows: Iterable[Mapping[str, Any]]) -> None:
    """Write each row to ``path`` as one sorted-key JSON object per line.

    Every line equals ``json.dumps(row, sort_keys=True)``, but one
    encoder serves the whole file, and the lines stream to the file one
    at a time, so the file's text is never held whole.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(encode(row) + "\n" for row in rows)


def write_json_report(
    path: str,
    metrics: Optional[Any] = None,
    tracer: Optional[Any] = None,
    events: Optional[Any] = None,
    profiler: Optional[Any] = None,
    meta: Optional[Mapping[str, Any]] = None,
    serving: Optional[Any] = None,
    dag: Optional[Any] = None,
) -> Dict[str, Any]:
    """Write :func:`json_report` to ``path``; returns the report dict."""
    report = json_report(
        metrics=metrics,
        tracer=tracer,
        events=events,
        profiler=profiler,
        meta=meta,
        serving=serving,
        dag=dag,
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


__all__: Sequence[str] = (
    "SUMMARY_QUANTILES",
    "dag_ledger",
    "json_report",
    "prometheus_text",
    "sanitize_metric_name",
    "serving_ledger",
    "write_json_report",
    "write_jsonl",
)
