"""Placement: assign registered queries to shards.

A placement function maps ``(entry, index, n_shards) -> shard_id``, where
``entry`` is the :class:`~repro.multi.registry.RegisteredQuery` being placed
and ``index`` its registration position.  Since every query lives entirely on
one shard (plans never span shards), placement only affects load balance and
event fan-out, never results.

:class:`~repro.multi.sharded.ShardedEngine` derives placement from whether it
shares sub-plans:

* :func:`round_robin_partition` — spread queries evenly by registration
  order; used without sharing.
* :func:`signature_partition` — co-locate queries that share a join
  subtree, so the sharing layer can merge them; used with
  ``share_subplans=True``.

Cross-shard *re*-balancing of already-hosted queries is future work (see
ROADMAP).
"""

from __future__ import annotations

import zlib

from repro.multi.registry import RegisteredQuery

__all__ = [
    "round_robin_partition",
    "signature_partition",
]


def round_robin_partition(entry: RegisteredQuery, index: int, n_shards: int) -> int:
    """Assign queries to shards cyclically by registration order."""
    return index % n_shards


def signature_partition(entry: RegisteredQuery, index: int, n_shards: int) -> int:
    """Assign queries by their canonical sub-plan signature.

    Every query of one sharing group lands on the same shard — the
    precondition for the sharding layer's common-subexpression sharing to
    actually merge them.  Distinct signatures spread by a stable CRC32 hash
    (``hash()`` is randomized per interpreter run), so the balance across
    shards follows the signature population.
    """
    key = repr(entry.subplan_signature()).encode("utf-8")
    return zlib.crc32(key) % n_shards
