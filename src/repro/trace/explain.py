"""``explain_analyze``: a per-query operator-tree report over tracer profiles.

Renders one query's operator tree (the shape familiar from database
``EXPLAIN ANALYZE`` output) annotated with what the tracer *measured* while
events flowed through it:

* per-operator wall time and step counts (from the tracer's profile
  aggregates, which survive ring-buffer eviction),
* cost-model charge breakdowns per operator (probe steps, predicate
  evaluations, hash lookups, result builds),
* the virtual-time window the operator was active over,
* JIT suspension totals (``stats`` of each JIT join: MNS detected,
  suspensions/resumptions sent and received, results resumed, how often its
  detection gates rested and re-opened),
* tee fan-out and per-subscriber delivery counts on shared subtrees, and
  the join ports a shared unit reads from another unit's tee (named after
  the feeding unit).

The report reads only the tracer and the plan — it never touches queues or
schedulers — so it is safe to render mid-run or after teardown.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.operators.base import Operator
from repro.operators.tee import TeeOperator
from repro.plans.plan import ExecutionPlan
from repro.trace.tracer import Tracer

__all__ = ["explain_analyze", "explain_operator_lines"]

#: JIT join ``stats`` keys worth surfacing, in display order.
_JIT_STAT_KEYS = (
    "mns_detected",
    "detections_settled",
    "suspensions_sent",
    "suspensions_received",
    "resumptions_sent",
    "resumptions_received",
    "results_resumed",
    "tuples_diverted",
    "probes_aborted",
    "detection_rests",
    "detection_trials",
)


def _profile_for(
    tracer: Tracer, operator: Operator, shard: Optional[int], label_prefix: str
) -> Optional[Dict[str, float]]:
    """The tracer's aggregate for ``operator``, summed across shards if needed.

    Profiles are keyed on the plan-qualified label the traced drain derives
    from queue names (``q0:Op1``); the bare operator name is the fallback for
    single-plan engines, whose queues carry no prefix.
    """
    label = label_prefix + operator.name
    if shard is not None:
        profile = tracer.profiles.get((shard, label))
        if profile is None and label_prefix:
            profile = tracer.profiles.get((shard, operator.name))
        return profile
    merged: Optional[Dict[str, float]] = None
    for (_shard, name), profile in tracer.profiles.items():
        if name != label:
            continue
        if merged is None:
            merged = dict(profile)
            continue
        for key, value in profile.items():
            if key == "first_virtual_ts":
                merged[key] = min(merged[key], value)
            elif key == "last_virtual_ts":
                merged[key] = max(merged[key], value)
            else:
                merged[key] += value
    return merged


def _annotate(
    tracer: Tracer, operator: Operator, shard: Optional[int], label_prefix: str
) -> List[str]:
    """The measurement annotations for one operator, one string per line."""
    notes: List[str] = []
    profile = _profile_for(tracer, operator, shard, label_prefix)
    if profile is None:
        notes.append("(no traced steps)")
    else:
        notes.append(
            "steps={steps:.0f} wall={wall_us:.1f}us emitted={emitted:.0f}".format(
                **profile
            )
        )
        charges = " ".join(
            f"{kind}={profile[kind]:.0f}"
            for kind in ("probe_step", "predicate_eval", "hash", "result_build")
            if profile[kind]
        )
        if charges:
            notes.append(f"charges: {charges}")
        notes.append(
            "virtual window: [{first_virtual_ts:g}, {last_virtual_ts:g}]".format(
                **profile
            )
        )
    jit_stats = getattr(operator, "stats", None)
    if isinstance(jit_stats, dict):
        shown = " ".join(
            f"{key}={jit_stats[key]}"
            for key in _JIT_STAT_KEYS
            if jit_stats.get(key)
        )
        if shown:
            notes.append(f"jit: {shown}")
    for port, gate in getattr(operator, "gates", {}).items():
        if gate.spent_units or gate.avoided_units:
            notes.append(
                f"gate {port}: {'resting' if gate.resting else 'open'} "
                f"spent={gate.spent_units:.0f} avoided={gate.avoided_units:.0f}"
            )
    if isinstance(operator, TeeOperator):
        deliveries = " ".join(
            f"{sub.query_id}={sub.delivered}" for sub in operator.subscribers
        )
        notes.append(
            f"tee: fanout={len(operator.subscribers)} "
            f"delivered={operator.delivered_count}"
            + (f" [{deliveries}]" if deliveries else "")
        )
    return notes


def explain_operator_lines(
    tracer: Tracer,
    operator: Operator,
    shard: Optional[int] = None,
    depth: int = 0,
    seen: Optional[set] = None,
    label_prefix: str = "",
    fed_by: Optional[Dict[Tuple[int, str], str]] = None,
) -> List[str]:
    """Recursive tree rendering; shared subtrees are expanded only once.
    ``fed_by`` names the feed of each ``(id(operator), port)`` not fed by a
    source or a producer (a plan's ``feeds``, inverted)."""
    if seen is None:
        seen = set()
    fed_by = fed_by or {}
    indent = "  " * depth
    kind = type(operator).__name__
    if id(operator) in seen:
        return [f"{indent}-> {operator.name} [{kind}] (shared, shown above)"]
    seen.add(id(operator))
    lines = [f"{indent}-> {operator.name} [{kind}]"]
    for note in _annotate(tracer, operator, shard, label_prefix):
        lines.append(f"{indent}     {note}")
    for port in operator.ports:
        child = operator.producers.get(port)
        if child is not None:
            lines.extend(
                explain_operator_lines(
                    tracer, child, shard, depth + 1, seen, label_prefix, fed_by
                )
            )
        elif (id(operator), port) in fed_by:
            lines.append(
                f"{indent}  -> tee of {fed_by[id(operator), port]} [{port}]"
            )
        else:
            lines.append(f"{indent}  -> source [{port}]")
    return lines


def explain_analyze(
    tracer: Tracer,
    plan: ExecutionPlan,
    shard: Optional[int] = None,
    query_id: Optional[str] = None,
    share_hits: Optional[int] = None,
    label_prefix: Optional[str] = None,
) -> str:
    """Render one plan's operator tree annotated with traced measurements.

    Parameters
    ----------
    tracer:
        The tracer that observed the run (its profile aggregates are read;
        the span ring is not touched, so evicted spans do not degrade the
        report).
    plan:
        The plan to explain — a hosted per-query plan or a subscriber
        overlay whose leaves are shared tees.
    shard:
        Restrict measurements to one shard; ``None`` sums across shards.
    query_id / share_hits:
        Optional header annotations (the hosting shard knows both; plain
        single-engine callers omit them).
    label_prefix:
        The plan's queue prefix on its shard (``"q0:"`` for hosted plans,
        ``"shared-<key>:"`` for shared subtrees) — the namespace the traced
        drain records profiles under.  Defaults to ``"<query_id>:"`` when
        ``query_id`` is given, else to the bare operator names.
    """
    if label_prefix is None:
        label_prefix = f"{query_id}:" if query_id else ""
    stats = tracer.stats()
    header = [
        "EXPLAIN ANALYZE"
        + (f" query={query_id}" if query_id else "")
        + (f" shard={shard}" if shard is not None else " shard=all"),
        "  plan: {}".format(plan.description or plan.root.name),
        "  traces: started={:.0f} sampled={:.0f} (rate={:g})".format(
            stats["traces_started"], stats["traces_sampled"], stats["sample_rate"]
        ),
        "  spans: recorded={:.0f} dropped={:.0f}  mns: paired={:.0f} open={:.0f}".format(
            stats["spans_recorded"],
            stats["spans_dropped"],
            stats["mns_pairs_closed"],
            stats["mns_spans_open"],
        ),
    ]
    if share_hits is not None:
        header.append(f"  shared-subplan hits: {share_hits}")
    fed_by = {(id(op), port): name for name, (op, port) in plan.feeds.items()}
    return "\n".join(
        header
        + explain_operator_lines(
            tracer, plan.root, shard, label_prefix=label_prefix, fed_by=fed_by
        )
    )
