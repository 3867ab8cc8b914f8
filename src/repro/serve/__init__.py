"""repro.serve — the production serving layer.

Wraps a :class:`~repro.multi.ShardedEngine` with bounded backpressure
ingestion, explicit load shedding, admission control, and Prometheus-style
telemetry.  See ``docs/SERVING.md`` for the metric catalog and policy
guidance, and ``examples/serving_backpressure.py`` for an end-to-end tour.

:class:`~repro.serve.aio.AsyncStreamServer` is loaded on first access, so a
synchronous server never imports asyncio.
"""

from repro.serve.admission import AdmissionPolicy, accept_all
from repro.serve.buffers import (
    OFFER_ACCEPTED,
    OFFER_BLOCKED,
    BoundedIngestionBuffer,
    OverloadPolicy,
)
from repro.serve.server import METRIC_DOC, ServingReport, StreamServer
from repro.serve.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    TelemetryError,
    TelemetryRegistry,
    get_metric_value,
    parse_exposition,
)

__all__ = [
    "AdmissionPolicy",
    "accept_all",
    "AsyncStreamServer",
    "BoundedIngestionBuffer",
    "OverloadPolicy",
    "OFFER_ACCEPTED",
    "OFFER_BLOCKED",
    "StreamServer",
    "ServingReport",
    "METRIC_DOC",
    "TelemetryRegistry",
    "TelemetryError",
    "Counter",
    "Gauge",
    "Histogram",
    "parse_exposition",
    "get_metric_value",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_QUANTILES",
]


def __getattr__(name: str):
    if name == "AsyncStreamServer":
        from repro.serve.aio import AsyncStreamServer

        return AsyncStreamServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
