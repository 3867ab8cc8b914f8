"""Configuration of the JIT feedback mechanism.

The paper repeatedly stresses that JIT is an optimization with "a high degree
of flexibility" (end of Section IV): a consumer may detect only some MNSs
(only the narrow ones, or only Ø), a producer may ignore feedback, Type II
MNSs may be skipped, and so on.
:class:`JITConfig` gathers those degrees of freedom in one place, so the
DOE baseline can be expressed as a particular configuration (Ø-only
detection), exactly as the paper argues that "DOE is subsumed by JIT".

One freedom is deliberately not a field here: *when* a port that is
configured to detect actually does.  Each detecting port's
:class:`~repro.core.detection_gate.DetectionGate` decides that from measured
cost, epoch by epoch, so ``detection_mode`` names the detector a port uses
while its gate is open, not a promise that it runs on every tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["DetectionMode", "RetentionPolicy", "JITConfig"]


class DetectionMode:
    """How a consumer detects MNSs (Section IV-A)."""

    #: Full CNS-lattice detection (``Identify_MNS``, Figure 8).
    LATTICE = "lattice"
    #: Only the Ø MNS (opposite state empty) — this is the DOE baseline [21].
    EMPTY_ONLY = "empty_only"
    #: No detection at all — the operator degenerates to the REF join.
    NONE = "none"

    ALL = (LATTICE, EMPTY_ONLY, NONE)


class RetentionPolicy:
    """How long suspended state (blacklists, MNS buffers) is retained.

    ``EXACT`` keeps suspended tuples as long as they could still contribute to
    a result that the REF execution would produce, which requires a
    plan-depth-aware horizon (see docs/JIT.md, "Refinements needed for exact
    result equivalence"); it guarantees JIT output == REF output and is the
    default.  ``WINDOW`` expires them after one window length, which is what
    the paper's description implies literally; it can drop a small number of
    late, deeply-chained results and is provided to quantify that effect.
    """

    EXACT = "exact"
    WINDOW = "window"

    ALL = (EXACT, WINDOW)


@dataclass(frozen=True)
class JITConfig:
    """Tunable behaviour of :class:`repro.core.jit_join.JITJoinOperator`.

    Parameters
    ----------
    detection_mode:
        MNS detection algorithm used on the consumer side.
    max_mns_arity:
        Largest number of components an MNS may span.  ``1`` (default)
        detects single-component MNSs and Ø; larger values climb the CNS
        lattice, potentially producing Type II MNSs.
    handle_type2:
        Whether Type II MNSs are acted upon with mark-result feedback
        (Section IV-B).  When False they are detected (if ``max_mns_arity``
        allows) but not reported, which the paper explicitly allows.
    divert_similar_arrivals:
        Whether the producer diverts *new* arrivals matching a suspended
        signature straight to the blacklist (the ``a2`` optimization of the
        running example).
    propagate_feedback:
        Whether a producer that is itself a consumer relays feedback to its
        own producers (Section III-C).
    propagate_empty_suspension:
        Whether Ø suspensions are propagated upstream as well (full DOE-style
        cascading suspension).
    retention_policy:
        See :class:`RetentionPolicy`.
    detect_for_source_fed_ports:
        Whether MNS detection runs for inputs fed directly by a raw source.
        Such detection cannot help (there is no producer to control), so the
        default is False; enabling it is useful only for instrumentation.
    jit_structure_purge_interval:
        Minimum simulated-time gap, as a fraction of the window length,
        between two purges of the JIT bookkeeping structures.  Purging them on
        every event would dominate the cost model without changing results.
    """

    detection_mode: str = DetectionMode.LATTICE
    max_mns_arity: int = 1
    handle_type2: bool = False
    divert_similar_arrivals: bool = True
    propagate_feedback: bool = True
    propagate_empty_suspension: bool = False
    retention_policy: str = RetentionPolicy.EXACT
    detect_for_source_fed_ports: bool = False
    jit_structure_purge_interval: float = 0.125

    def __post_init__(self) -> None:
        if self.detection_mode not in DetectionMode.ALL:
            raise ValueError(
                f"unknown detection mode {self.detection_mode!r}; "
                f"expected one of {DetectionMode.ALL}"
            )
        if self.retention_policy not in RetentionPolicy.ALL:
            raise ValueError(
                f"unknown retention policy {self.retention_policy!r}; "
                f"expected one of {RetentionPolicy.ALL}"
            )
        if self.max_mns_arity < 1:
            raise ValueError(f"max_mns_arity must be at least 1, got {self.max_mns_arity}")
        if not 0 < self.jit_structure_purge_interval <= 1:
            raise ValueError(
                "jit_structure_purge_interval must be in (0, 1], got "
                f"{self.jit_structure_purge_interval}"
            )

    # -- presets -----------------------------------------------------------------

    @classmethod
    def paper_default(cls) -> "JITConfig":
        """The configuration used for the figure-reproduction benchmarks."""
        return cls()

    @classmethod
    def doe(cls) -> "JITConfig":
        """Demand-driven operator execution [21]: Ø-only detection, cascaded."""
        return cls(
            detection_mode=DetectionMode.EMPTY_ONLY,
            propagate_empty_suspension=True,
        )

    @classmethod
    def disabled(cls) -> "JITConfig":
        """A configuration under which the JIT join behaves exactly like REF."""
        return cls(detection_mode=DetectionMode.NONE, divert_similar_arrivals=False)
