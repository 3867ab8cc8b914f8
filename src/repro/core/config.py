"""Configuration of the JIT feedback mechanism.

The paper stresses that JIT is an optimization with "a high degree of
flexibility" (end of Section IV): a consumer may detect only some MNSs (only
the narrow ones, or only Ø) and a producer may decline to act on Type II
MNSs, which every producer here does.  :class:`JITConfig` holds the first
choice and how long suspended state is kept.
The DOE baseline [21] is one of them, Ø-only detection
(:meth:`JITConfig.doe`), exactly as the paper argues that "DOE is subsumed by
JIT"; under it an Ø suspension cascades to every upstream producer.

One freedom is deliberately not a field here: *when* a port that is
configured to detect actually does.  Each detecting port's
:class:`~repro.core.detection_gate.DetectionGate` decides that from measured
cost, epoch by epoch, so ``detection_mode`` names the detector a port uses
while its gate is open, not a promise that it runs on every tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DetectionMode", "RetentionPolicy", "JITConfig"]


class DetectionMode:
    """How a consumer detects MNSs (Section IV-A)."""

    #: Full CNS-lattice detection (``Identify_MNS``, Figure 8).
    LATTICE = "lattice"
    #: Only the Ø MNS (opposite state empty), whose suspension cascades to
    #: every upstream producer — this is the DOE baseline [21].
    EMPTY_ONLY = "empty_only"

    ALL = (LATTICE, EMPTY_ONLY)


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
        MNS detection algorithm used on the consumer side (see
        :class:`DetectionMode`).
    max_mns_arity:
        Largest number of components an MNS may span.  ``1`` (default)
        detects single-component MNSs and Ø; larger values climb the CNS
        lattice, potentially producing Type II MNSs, which the producer
        ignores (Section IV-B allows it).
    retention_policy:
        See :class:`RetentionPolicy`.
    """

    detection_mode: str = DetectionMode.LATTICE
    max_mns_arity: int = 1
    retention_policy: str = RetentionPolicy.EXACT

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

    # -- preset ------------------------------------------------------------------

    @classmethod
    def doe(cls) -> "JITConfig":
        """Demand-driven operator execution [21]: Ø-only detection, cascaded."""
        return cls(detection_mode=DetectionMode.EMPTY_ONLY)
