"""Partitioners: assign registered queries to shards.

A partitioner is a callable ``(entry, index, n_shards) -> shard_id`` where
``entry`` is the :class:`~repro.multi.registry.RegisteredQuery` being placed
and ``index`` its registration position.  Since every query lives entirely on
one shard (plans never span shards), placement only affects load balance and
event fan-out, never results.

Three built-ins cover the common cases:

* :func:`round_robin_partition` — spread queries evenly by registration
  order; the default, and the best choice for uniform workloads.
* :func:`hash_partition` — place by a stable hash of the query id, so a
  query keeps its shard when others are added or removed (useful when
  shard-local state such as warmed caches should survive re-registration).
* :func:`signature_partition` — co-locate queries that share a join
  subtree, so the sharing layer can merge them.

Cross-shard *re*-balancing of already-hosted queries is future work (see
ROADMAP).
"""

from __future__ import annotations

import zlib
from typing import Callable

from repro.multi.registry import RegisteredQuery

__all__ = [
    "Partitioner",
    "round_robin_partition",
    "hash_partition",
    "signature_partition",
    "resolve_partitioner",
]

#: ``(entry, registration index, n_shards) -> shard id`` placement policy.
Partitioner = Callable[[RegisteredQuery, int, int], int]


def round_robin_partition(entry: RegisteredQuery, index: int, n_shards: int) -> int:
    """Assign queries to shards cyclically by registration order."""
    return index % n_shards


def hash_partition(entry: RegisteredQuery, index: int, n_shards: int) -> int:
    """Assign queries by a stable hash of the query id.

    Uses CRC32 rather than ``hash()`` so placement is reproducible across
    interpreter runs (``PYTHONHASHSEED`` randomizes ``str.__hash__``).
    """
    return zlib.crc32(entry.query_id.encode("utf-8")) % n_shards


def signature_partition(entry: RegisteredQuery, index: int, n_shards: int) -> int:
    """Assign queries by their canonical sub-plan signature.

    Every query of one sharing group lands on the same shard — the
    precondition for the sharding layer's common-subexpression sharing to
    actually merge them (``ShardedEngine(share_subplans=True)`` defaults to
    this policy).  Distinct signatures spread by a stable CRC32 hash, so the
    balance across shards follows the signature population.
    """
    key = repr(entry.subplan_signature()).encode("utf-8")
    return zlib.crc32(key) % n_shards


_NAMED = {
    "round_robin": round_robin_partition,
    "hash": hash_partition,
    "signature": signature_partition,
}


def resolve_partitioner(partitioner) -> Partitioner:
    """Accept a partitioner callable or one of the built-in names."""
    if partitioner is None:
        return round_robin_partition
    if callable(partitioner):
        return partitioner
    if isinstance(partitioner, str) and partitioner in _NAMED:
        return _NAMED[partitioner]
    raise ValueError(
        f"unknown partitioner {partitioner!r}; expected a callable or one of "
        f"{sorted(_NAMED)}"
    )
