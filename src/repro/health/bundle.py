"""Diagnostic bundles: one JSON artifact that explains an incident.

A bundle freezes everything a human (or ``repro.health.doctor``) needs to
answer "why was this query unhealthy?" at capture time: the per-query lag
table, the per-shard health table (starvation, MNS ages, stall verdicts),
the buffer state, the full telemetry exposition, the trace ring tail, and
the watchdog's view — under a versioned schema so downstream tooling can
evolve with it.  Captures are triggered on SLO breach or worker stall
transitions (see :class:`~repro.health.monitor.HealthMonitor`) or on
demand; CI uploads them as incident artifacts.

Values that JSON cannot carry (``inf``/``nan`` — e.g. a head timestamp of
an empty queue) are sanitized to ``null`` rather than emitting the
non-portable literals Python's encoder would otherwise produce.
"""

from __future__ import annotations

import json
import math
import time
from typing import Dict, Optional

__all__ = [
    "BUNDLE_SCHEMA_VERSION",
    "collect_bundle",
    "write_bundle",
    "validate_bundle",
]

BUNDLE_SCHEMA_VERSION = 1

#: Keys every bundle must carry (validated, and relied on by the doctor).
_REQUIRED_KEYS = (
    "schema_version",
    "reason",
    "created_unix",
    "watermark",
    "uptime_seconds",
    "queries",
    "shards",
    "buffer",
    "telemetry",
    "trace_tail",
    "watchdog",
)

#: Per-row keys the tables must carry for the doctor's heuristics.
_QUERY_ROW_KEYS = ("lag", "results", "slo_state", "slo_reasons", "breaches_total")
_SHARD_ROW_KEYS = (
    "alive",
    "queue_depth",
    "max_starvation_age",
    "mns_open",
    "mns_oldest_age",
    "stall",
)


def _sanitize(value):
    """Recursively replace non-finite floats with ``None`` for strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(key): _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


def collect_bundle(monitor, reason: str, trace_limit: int = 256) -> Dict[str, object]:
    """Assemble a bundle dict from a live monitor (no I/O)."""
    server = monitor.server
    buffer_state: Optional[Dict[str, object]] = None
    telemetry: Optional[str] = None
    tracer = None
    if server is not None:
        buffer_state = {
            "capacity": server.buffer.capacity,
            "occupancy": dict(server.buffer.occupancy),
            "buffered": len(server.buffer),
            "policy": server.policy,
            "shed_by_source": dict(server.buffer.shed_by_source),
        }
        telemetry = server.exposition()
        tracer = server.tracer
    if tracer is None:
        tracer = monitor.engine.tracer
    watchdog_state: Optional[Dict[str, object]] = None
    if monitor.watchdog is not None:
        watchdog = monitor.watchdog
        watchdog_state = {
            "deadline": watchdog.deadline,
            "diagnoses": {
                str(shard_id): {
                    "kind": diagnosis.kind,
                    "reason": diagnosis.reason,
                    "in_flight": diagnosis.in_flight,
                    "acked_events": diagnosis.acked_events,
                }
                for shard_id, diagnosis in watchdog.stalled_shards().items()
            },
            "stalls_total": {
                str(shard_id): count for shard_id, count in watchdog.stalls_total.items()
            },
        }
    bundle = {
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "reason": reason,
        "created_unix": time.time(),
        "watermark": monitor.watermark,
        "uptime_seconds": monitor.uptime_seconds,
        "queries": monitor.lag_table(),
        "shards": {str(sid): row for sid, row in monitor.shard_table().items()},
        "buffer": buffer_state,
        "telemetry": telemetry,
        "trace_tail": tracer.ring_tail(trace_limit) if tracer is not None else [],
        "watchdog": watchdog_state,
    }
    return _sanitize(bundle)


def write_bundle(bundle: Dict[str, object], path: str) -> str:
    """Write one bundle as strict JSON (no NaN/Infinity literals)."""
    validate_bundle(bundle)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bundle, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return path


def validate_bundle(bundle: Dict[str, object]) -> None:
    """Raise :class:`ValueError` unless ``bundle`` matches the schema."""
    if not isinstance(bundle, dict):
        raise ValueError(f"bundle must be a dict, got {type(bundle).__name__}")
    missing = [key for key in _REQUIRED_KEYS if key not in bundle]
    if missing:
        raise ValueError(f"bundle is missing keys: {missing}")
    version = bundle["schema_version"]
    if version != BUNDLE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported bundle schema_version {version!r} "
            f"(expected {BUNDLE_SCHEMA_VERSION})"
        )
    if not isinstance(bundle["queries"], dict) or not isinstance(bundle["shards"], dict):
        raise ValueError("bundle queries/shards must be dicts")
    for query_id, row in bundle["queries"].items():
        missing = [key for key in _QUERY_ROW_KEYS if key not in row]
        if missing:
            raise ValueError(f"query row {query_id!r} is missing keys: {missing}")
    for shard_id, row in bundle["shards"].items():
        missing = [key for key in _SHARD_ROW_KEYS if key not in row]
        if missing:
            raise ValueError(f"shard row {shard_id!r} is missing keys: {missing}")
    if not isinstance(bundle["trace_tail"], list):
        raise ValueError("bundle trace_tail must be a list of span dicts")
