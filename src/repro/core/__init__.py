"""The paper's primary contribution: Just-In-Time processing.

This sub-package implements the JIT feedback mechanism of Yang & Papadias
(ICDE 2008) on top of the operator substrate in :mod:`repro.operators`:

* :mod:`repro.core.signature` -- value-based identities of minimal
  non-demanded sub-tuples (MNSs).
* :mod:`repro.core.feedback` -- the suspension and resumption feedback
  messages exchanged between consumers and producers.
* :mod:`repro.core.cns_lattice` -- the candidate non-demanded sub-tuple
  lattice of Section IV-A (Figure 7).
* :mod:`repro.core.mns_detection` -- the ``Identify_MNS`` algorithm
  (Figure 8), whose components index lookups settle, and the Ø-only
  detector that reduces JIT to the DOE baseline.
* :mod:`repro.core.mns_buffer` -- the consumer-side buffer of detected MNSs.
* :mod:`repro.core.blacklist` -- the producer-side blacklist of suspended
  tuples.
* :mod:`repro.core.detection_gate` -- the per-port gate that rests MNS
  detection while it costs more than its suspensions save.
* :mod:`repro.core.jit_join` -- :class:`JITJoinOperator`, the binary window
  join augmented with the full consumer- and producer-side JIT machinery
  (Figure 6).  As a producer it acts on Type I and Ø MNSs and ignores
  Type II ones (Section IV-B); a resumption returns the partial results it
  produced to the consumer that sent it.
* :mod:`repro.core.config` -- :class:`JITConfig`, the choices the paper
  leaves open ("practical implementations ... have a high degree of
  flexibility"): which MNSs a consumer detects (the CNS lattice up to some
  arity, or Ø only, which is DOE) and how long suspended state is kept.
"""

from repro.core.config import DetectionMode, JITConfig, RetentionPolicy
from repro.core.detection_gate import DetectionGate
from repro.core.feedback import Feedback, FeedbackKind
from repro.core.signature import MNSSignature
from repro.core.cns_lattice import CNSLattice, LatticeNode
from repro.core.mns_detection import (
    EmptyStateDetector,
    LatticeMNSDetector,
    MNSDetector,
    build_detector,
)
from repro.core.mns_buffer import MNSBuffer, MNSBufferEntry
from repro.core.blacklist import Blacklist, BlacklistEntry, SuspendedTuple
from repro.core.jit_join import JITJoinOperator

__all__ = [
    "DetectionMode",
    "JITConfig",
    "RetentionPolicy",
    "DetectionGate",
    "Feedback",
    "FeedbackKind",
    "MNSSignature",
    "CNSLattice",
    "LatticeNode",
    "MNSDetector",
    "LatticeMNSDetector",
    "EmptyStateDetector",
    "build_detector",
    "MNSBuffer",
    "MNSBufferEntry",
    "Blacklist",
    "BlacklistEntry",
    "SuspendedTuple",
    "JITJoinOperator",
]
