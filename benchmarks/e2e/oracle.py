"""The REF oracle: what the measured system must have produced.

The repo's bedrock invariant is that every configuration yields, per query,
the result multiset a standalone synchronous REF run yields.  The oracle
replays sampled queries standalone under REF *and* JIT over the same events:
REF gives the expected multiset, JIT must match it too (the paper's own
section III claim) and its modelled cost gives ``ref_over_jit_cpu_units``.

Oracle time is outside every timed region and reported as ``oracle_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.engine.engine import run_workload
from repro.engine.results import result_multiset
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF, build_xjoin_plan

from workloads import Inputs, PaperWorkload, ServingWorkload, sync_twin

#: Queries replayed standalone per serving workload.
SAMPLED_QUERIES = 12


@dataclass
class OracleVerdict:
    checks: int = 0
    mismatches: List[str] = field(default_factory=list)
    ref_cpu_units: float = 0.0
    jit_cpu_units: float = 0.0

    def expect(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.mismatches.append(what)

    @property
    def ref_over_jit(self) -> float:
        return self.ref_cpu_units / self.jit_cpu_units


def sample_entries(registry, count: int = SAMPLED_QUERIES) -> list:
    """Evenly spaced registrations from every (width, strategy) class."""
    classes: Dict[tuple, list] = {}
    for entry in registry:
        classes.setdefault((len(entry.query.sources), entry.strategy), []).append(entry)
    per_class = -(-count // len(classes))
    sampled = []
    for members in classes.values():
        step = max(1, len(members) // per_class)
        sampled.extend(members[::step][:per_class])
    return sampled


def check_serving(workload: ServingWorkload, inputs: Inputs, system, exact: dict) -> OracleVerdict:
    """Sampled queries standalone vs the served results of one closed phase."""
    verdict = OracleVerdict()
    for entry in sample_entries(system.registry):
        subscribed = [e for e in inputs.events if e.source in entry.sources]
        multisets = {}
        for strategy in (STRATEGY_REF, STRATEGY_JIT):
            plan = build_xjoin_plan(
                entry.query, shape=entry.shape, strategy=strategy,
                use_hash_index=entry.use_hash_index,
            )
            report = run_workload(plan, subscribed, entry.query.window.length)
            multisets[strategy] = report.results.multiset()
            if strategy == STRATEGY_REF:
                verdict.ref_cpu_units += report.cpu_units
            else:
                verdict.jit_cpu_units += report.cpu_units
        served = result_multiset(system.results(entry.query_id))
        verdict.expect(
            served == multisets[STRATEGY_REF], f"{entry.query_id}: served != standalone REF"
        )
        verdict.expect(
            multisets[STRATEGY_JIT] == multisets[STRATEGY_REF],
            f"{entry.query_id}: standalone JIT != standalone REF",
        )
    verdict.expect(exact["temporally_ordered"], "results out of timestamp order")
    twin = sync_twin(workload)
    if twin is not None:
        # Same population inline on one shard: every per-query count and the
        # modelled cost must be what the process workers reported.
        reference = twin.build(inputs)
        for event in inputs.events:
            reference.submit(event)
        reference.flush()
        expected = reference.exact()
        reference.close()
        verdict.expect(
            exact["result_counts"] == expected["result_counts"],
            "per-query result counts differ from the inline engine's",
        )
        verdict.expect(
            exact["cpu_units"] == expected["cpu_units"],
            f"cpu_units {exact['cpu_units']} != inline engine's {expected['cpu_units']}",
        )
    return verdict


def check_paper(workload: PaperWorkload, seed: int, exact: dict, mns_detected: int) -> OracleVerdict:
    """JIT == REF on the reduced setting; the measured run detected MNSs in order."""
    verdict = OracleVerdict()
    source = workload.workload(seed, workload.oracle_scale, workload.oracle_windows)
    events = source.events()
    reports = {
        strategy: run_workload(
            workload.plan(source, strategy), events, source.window.length
        )
        for strategy in (STRATEGY_REF, STRATEGY_JIT)
    }
    verdict.ref_cpu_units = reports[STRATEGY_REF].cpu_units
    verdict.jit_cpu_units = reports[STRATEGY_JIT].cpu_units
    verdict.expect(
        reports[STRATEGY_JIT].results.multiset() == reports[STRATEGY_REF].results.multiset(),
        "oracle run: JIT != REF",
    )
    verdict.expect(
        reports[STRATEGY_JIT].results.temporally_ordered, "oracle run: JIT out of order"
    )
    verdict.expect(exact["temporally_ordered"], "measured run: results out of order")
    verdict.expect(mns_detected > 0, "measured run detected no MNS")
    return verdict
