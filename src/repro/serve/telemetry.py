"""Prometheus-style telemetry for the serving layer.

The serving front-end needs an observability surface that outlives a single
``run()`` call: counters that only go up, gauges sampled at scrape time, and
histograms with percentile summaries — exposed in the Prometheus text
exposition format so any scraper (or a test) can consume one string and
know everything about the serving path.  The shape follows the UTFW metrics
package (SNIPPETS.md #2): a small set of metric primitives, a registry that
renders the exposition text, and *parse/validate helpers* so tests can
assert existence and ranges against the exposition itself rather than
against internals.

Design constraints:

* **Cheap on the hot path.**  A counter increment is one float add on a
  pre-bound child object; nothing allocates per event.  Gauges are pulled —
  a callback sampled only when :meth:`TelemetryRegistry.exposition` runs —
  so live depths (shard queues, buffer occupancy) cost nothing between
  scrapes.
* **Deterministic.**  Histograms retain exact observations (bounded by
  ``max_samples``, dropping oldest) and compute percentiles by
  nearest-rank, so telemetry never perturbs results and tests can pin
  values exactly.  No randomness, no background threads.
* **Self-describing.**  Every metric carries ``# HELP`` and ``# TYPE``
  lines; :func:`parse_exposition` round-trips the text back into values.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "TelemetryError",
    "Counter",
    "Gauge",
    "Histogram",
    "TelemetryRegistry",
    "parse_exposition",
    "get_metric_value",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_QUANTILES",
]


class TelemetryError(Exception):
    """Raised when a metric is misused or a validation helper fails."""


#: Histogram bucket upper bounds for ingest→emit latency in *virtual* seconds
#: (the unit of the stream timestamps).  Spans "same instant" through a full
#: window length on typical workloads.
DEFAULT_LATENCY_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

#: Quantiles every histogram exports alongside its buckets.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

#: Labels rendered as ``{k="v",...}``; metric identity is (name, labelvalues).
LabelValues = Tuple[Tuple[str, str], ...]


def _format_labels(labels: LabelValues) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in labels)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape(value: str) -> str:
    """Invert :func:`_escape` per the Prometheus text-format escaping rules.

    Processed left to right so ``\\\\n`` round-trips as a backslash followed
    by ``n`` (not a newline) — naive chained ``str.replace`` gets this wrong.
    """
    if "\\" not in value:
        return value
    out: List[str] = []
    i = 0
    length = len(value)
    while i < length:
        char = value[i]
        if char == "\\" and i + 1 < length:
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
        out.append(char)
        i += 1
    return "".join(out)


def _normalize(labelnames: Sequence[str], labels: Mapping[str, object]) -> LabelValues:
    if set(labels) != set(labelnames):
        raise TelemetryError(
            f"expected labels {tuple(labelnames)}, got {tuple(sorted(labels))}"
        )
    return tuple((name, str(labels[name])) for name in labelnames)


class _CounterChild:
    """One labelled series of a counter; ``inc`` is the hot-path call."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(f"counters only go up; got increment {amount}")
        self.value += amount


class _Metric:
    """Common naming/label plumbing of the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        if not name or not name.replace("_", "").isalnum():
            raise TelemetryError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def render(self) -> List[str]:
        raise NotImplementedError

    def _header(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Metric):
    """A monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._children: Dict[LabelValues, _CounterChild] = {}
        if not self.labelnames:
            # Label-less counters expose a single pre-made child so callers
            # can bind ``counter.inc`` directly.
            self._default = self._children[()] = _CounterChild()

    def labels(self, **labels: object) -> _CounterChild:
        """The child series for ``labels`` (created on first use)."""
        key = _normalize(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _CounterChild()
        return child

    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less series."""
        if self.labelnames:
            raise TelemetryError(f"counter {self.name!r} requires labels {self.labelnames}")
        self._default.inc(amount)

    @property
    def total(self) -> float:
        """Sum over every labelled series."""
        return sum(child.value for child in self._children.values())

    def value(self, **labels: object) -> float:
        """Current value of one series (0.0 if never incremented)."""
        if not self.labelnames:
            return self._default.value
        key = _normalize(self.labelnames, labels)
        child = self._children.get(key)
        return child.value if child is not None else 0.0

    def render(self) -> List[str]:
        lines = self._header()
        for key in sorted(self._children):
            lines.append(
                f"{self.name}{_format_labels(key)} {self._children[key].value:g}"
            )
        return lines


class Gauge(_Metric):
    """A value that can go up and down; set directly or pulled via callback.

    A callback gauge re-samples at render time, which keeps live depths
    (queue lengths, buffer occupancy) free between scrapes.  The callback
    returns either a plain number (label-less gauge) or a mapping of label
    values to numbers matching ``labelnames``.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], object]] = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelValues, float] = {}
        self._callback = callback

    def set(self, value: float, **labels: object) -> None:
        """Set one series to ``value``."""
        if self._callback is not None:
            raise TelemetryError(f"gauge {self.name!r} is callback-driven")
        self._values[_normalize(self.labelnames, labels)] = float(value)

    def value(self, **labels: object) -> float:
        """Current value of one series (sampling the callback if present)."""
        return dict(self._sample()).get(
            _normalize(self.labelnames, labels), 0.0
        )

    def _sample(self) -> Iterable[Tuple[LabelValues, float]]:
        if self._callback is None:
            return sorted(self._values.items())
        sampled = self._callback()
        if isinstance(sampled, Mapping):
            return sorted(
                (_normalize(self.labelnames, dict(zip(self.labelnames, key))
                            if isinstance(key, tuple) else {self.labelnames[0]: key}),
                 float(value))
                for key, value in sampled.items()
            )
        return [((), float(sampled))]

    def render(self) -> List[str]:
        lines = self._header()
        for key, value in self._sample():
            lines.append(f"{self.name}{_format_labels(key)} {value:g}")
        return lines


class Histogram(_Metric):
    """Observations bucketed Prometheus-style, plus exact quantile series.

    The exposition carries the classic ``_bucket`` / ``_sum`` / ``_count``
    cumulative-bucket family *and* a ``<name>_quantile{quantile="..."}``
    gauge family computed by nearest-rank over the retained observations —
    exact and deterministic, which the acceptance tests rely on.  Retention
    is bounded by ``max_samples`` (oldest observations drop out of the
    quantile window first; ``_sum``/``_count``/buckets remain lifetime
    totals).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        max_samples: int = 100_000,
    ) -> None:
        super().__init__(name, help, ())
        if not buckets or list(buckets) != sorted(buckets):
            raise TelemetryError(f"histogram buckets must be sorted and non-empty: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self.quantiles = tuple(quantiles)
        self.max_samples = max_samples
        self._bucket_counts = [0] * (len(self.buckets) + 1)  # +inf last
        self.sum = 0.0
        self.count = 0
        #: Sliding window of the last ``max_samples`` observations, in
        #: arrival order; quantiles sort a copy.
        self._window: Deque[float] = deque(maxlen=max_samples)
        # Result sinks on different process workers' reader threads observe
        # into the same histogram; the window mutation must be atomic.
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (thread-safe)."""
        value = float(value)
        with self._lock:
            self.sum += value
            self.count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._bucket_counts[index] += 1
                    break
            else:
                self._bucket_counts[-1] += 1
            self._window.append(value)

    def _ordered(self) -> List[float]:
        """The retained window, sorted (a copy taken under the lock)."""
        with self._lock:
            return sorted(self._window)

    @staticmethod
    def _nearest_rank(ordered: List[float], quantile: float) -> float:
        """Nearest-rank percentile of ``ordered``: ``ceil(q * n)``, 1-indexed."""
        if not 0.0 < quantile <= 1.0:
            raise TelemetryError(f"quantile must be in (0, 1], got {quantile}")
        if not ordered:
            return 0.0
        return ordered[max(1, math.ceil(quantile * len(ordered))) - 1]

    def percentile(self, quantile: float) -> float:
        """Nearest-rank percentile over the retained window (0.0 when empty)."""
        return self._nearest_rank(self._ordered(), quantile)

    def render(self) -> List[str]:
        lines = self._header()
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, self._bucket_counts):
            cumulative += bucket_count
            lines.append(f'{self.name}_bucket{{le="{bound:g}"}} {cumulative}')
        cumulative += self._bucket_counts[-1]
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{self.name}_sum {self.sum:g}")
        lines.append(f"{self.name}_count {self.count}")
        quantile_name = f"{self.name}_quantile"
        lines.append(f"# HELP {quantile_name} Nearest-rank quantiles of {self.name}.")
        lines.append(f"# TYPE {quantile_name} gauge")
        ordered = self._ordered()
        for quantile in self.quantiles:
            value = self._nearest_rank(ordered, quantile)
            lines.append(f'{quantile_name}{{quantile="{quantile:g}"}} {value:g}')
        return lines


class TelemetryRegistry:
    """The named collection of every serving metric, plus the exposition.

    Metric constructors are idempotent by name — asking twice for the same
    name returns the same object (with a type check), so independent
    components can share families without coordination.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, *args, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TelemetryError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, *args, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        """Register (or fetch) a counter."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], object]] = None,
    ) -> Gauge:
        """Register (or fetch) a gauge, optionally callback-driven."""
        gauge = self._get_or_create(Gauge, name, help, labelnames, callback)
        if callback is not None and gauge._callback is None:
            gauge._callback = callback
        return gauge

    def histogram(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> Histogram:
        """Register (or fetch) a histogram."""
        return self._get_or_create(Histogram, name, help, buckets, quantiles)

    def get(self, name: str) -> _Metric:
        """Return a registered metric by name."""
        try:
            return self._metrics[name]
        except KeyError:
            raise TelemetryError(
                f"no metric {name!r}; registered: {sorted(self._metrics)}"
            ) from None

    @property
    def names(self) -> List[str]:
        """Registered metric family names, sorted."""
        return sorted(self._metrics)

    def exposition(self) -> str:
        """Render every metric in the Prometheus text format."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + "\n"

    def __contains__(self, name: object) -> bool:
        return name in self._metrics

    def __repr__(self) -> str:
        return f"TelemetryRegistry({len(self._metrics)} metrics)"


# -- exposition parsing and validation (UTFW-style test helpers) ---------------


def parse_exposition(text: str) -> Dict[str, Dict[LabelValues, float]]:
    """Parse Prometheus exposition text into ``{name: {labels: value}}``.

    Sample names are kept verbatim (``foo_bucket``, ``foo_sum``, ... are
    distinct keys), which is what the existence-and-range tests match on.
    """
    out: Dict[str, Dict[LabelValues, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise TelemetryError(f"malformed exposition line: {line!r}")
        if "{" in name_part:
            name, _, label_part = name_part.partition("{")
            # Exactly one closing brace terminates the label set; a literal
            # ``}`` inside a quoted label value must survive.
            if label_part.endswith("}"):
                label_part = label_part[:-1]
            labels: List[Tuple[str, str]] = []
            for item in _split_labels(label_part):
                key, _, raw = item.partition("=")
                if len(raw) >= 2 and raw.startswith('"') and raw.endswith('"'):
                    raw = raw[1:-1]
                labels.append((key, _unescape(raw)))
            key_tuple: LabelValues = tuple(labels)
        else:
            name, key_tuple = name_part, ()
        try:
            value = float(value_part)
        except ValueError:
            raise TelemetryError(f"malformed sample value in line: {line!r}") from None
        out.setdefault(name, {})[key_tuple] = value
    return out


def _split_labels(label_part: str) -> List[str]:
    """Split ``k1="v1",k2="v2"`` respecting quoted commas.

    Quote tracking is escape-aware: a ``\\"`` inside a quoted value does not
    terminate the value (and ``\\\\`` does not escape the quote that follows
    it), so label values containing escaped quotes, backslashes or commas
    split correctly.
    """
    items: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in label_part:
        if in_quotes:
            current.append(char)
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_quotes = False
        elif char == '"':
            in_quotes = True
            current.append(char)
        elif char == ",":
            items.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        items.append("".join(current))
    return [item for item in items if item]


def get_metric_value(
    text_or_parsed, name: str, labels: Optional[Mapping[str, str]] = None
) -> float:
    """Fetch one sample value from exposition text (or a parsed mapping).

    Without ``labels``, the metric must have exactly one series; with
    ``labels``, the series with exactly those label pairs is returned.
    """
    parsed = (
        text_or_parsed
        if isinstance(text_or_parsed, dict)
        else parse_exposition(text_or_parsed)
    )
    series = parsed.get(name)
    if not series:
        raise TelemetryError(f"metric {name!r} not present; have {sorted(parsed)}")
    if labels is None:
        if len(series) != 1:
            raise TelemetryError(
                f"metric {name!r} has {len(series)} series; pass labels to pick one"
            )
        return next(iter(series.values()))
    want = tuple(sorted((k, str(v)) for k, v in labels.items()))
    for key, value in series.items():
        if tuple(sorted(key)) == want:
            return value
    raise TelemetryError(
        f"metric {name!r} has no series {labels}; have {sorted(series)}"
    )
