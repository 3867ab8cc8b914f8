"""Operator states: the windows of live tuples kept by stateful operators.

Every input of a (binary) window join keeps an *operator state* — the set of
tuples from that input that arrived within the last ``w`` seconds (Section II
of the paper; ``SA``, ``SB``, ``SAB``, ... in Figure 1b).  The state supports
the purge-probe-insert routine of Kang et al. [16]:

* **purge** drops tuples older than the purge horizon,
* **probe** iterates live tuples so the join can evaluate its predicate
  (nested-loop, the algorithm used in the paper's experiments) or looks up
  one of the state's hash indexes,
* **insert** appends the incoming tuple.

The state also supports the operations JIT needs on top of the baseline:

* extracting all super-tuples of an MNS (to move them to a blacklist),
* arrival *sequence numbers* used as resume watermarks — entries are stored
  and probed in insertion order, so "everything after sequence ``m``" is
  exactly the set of partners a suspended tuple has not met yet.

Suspended work keeps nothing past its expiry: a replay runs at the stamp of
the arrival that resumed it, and no entry below that stamp's horizon can
join a result containing that arrival (docs/JIT.md, "Why nothing past the
horizon can join a replay").

Internally the entry list is append-only and in insertion order (so sorted by
``StateEntry.order``); removing an entry marks it removed, and the list is
compacted lazily once removed entries accumulate.  Insertion order is stamp
order except for *late* inserts, stamped below the newest stamp the state has
held (a resumed tuple re-entering, say).  So purging advances a *head* over
the list, removing what it passes, and stops at the first present entry at or
above the horizon: every entry behind that one is at or above it too, except
late inserts, and those alone also wait in a small ``(ts, order, entry)``
min-heap for their purge.  The order costs nothing to keep and lets a scan
start where its work starts: a probe starts at the head; a resumed tuple's
replay bisects to the order stamp recorded when it was suspended.  A probe
walks the list it found up to the length it found:
appends land behind that length and a compaction binds a new list, so an
emission that re-enters the state mid-probe changes nothing the probe sees
except ``removed`` flags (docs/JIT.md, "Where a scan starts and stops").

**Just-in-time indexes.**  The state keeps one registry of hash indexes,
``template -> key -> bucket``, where a template is a tuple of
``(source, attribute)`` pairs and a key their values (:func:`key_function`:
the bare value for a one-attribute template).  A bucket holding one entry is
that :class:`StateEntry` itself; it becomes a list at its second entry and
collapses back to the entry when one is left, since with fine-grained keys
nearly every key is unique.  The
equi-join key of a hash-indexed join is registered when the state is built;
every other index (a component's share of the join key for MNS-detecting
probes, an MNS signature's template for suspension extraction, both on
nested-loop plans too) is built from the present entries the first time it
is looked up, and *retired* by the first purge that finds it has not been
looked up for one window of stream time: it leaves the registry, stops being
maintained, and is built again — at the build charge below — if it is ever
asked for again.  One window is the ski-rental break-even: a window of
maintenance hashes one ``HASH`` per tuple the state holds, which is what a
rebuild costs.  The equi-join key index is never retired.  Buckets hold
present entries only, in insertion order.  The charging rule, the same for
every index:

* build — one ``HASH`` per present entry (nothing for an index registered on
  an empty state, nothing for an index never asked for), on the first lookup
  and on every lookup that follows a retirement;
* maintenance — one ``HASH`` per insert per index in the registry;
* lookup — one ``HASH``, then one ``PROBE_STEP`` per entry returned
  (:meth:`OperatorState.probe_index`) or examined
  (:meth:`OperatorState.any_live`), or one ``BLACKLIST_SCAN`` per entry
  examined (:meth:`OperatorState.extract`).

Index structures are not charged to the :class:`~repro.metrics.MemoryModel`:
the model counts stored tuples, and the equi-key index never was either.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.context import ExecutionContext
from repro.metrics import CostKind
from repro.streams.tuples import StreamTuple

__all__ = ["StateEntry", "OperatorState", "IndexTemplate", "IndexKey", "key_function"]

#: What an index is built over: ``(source, attribute)`` pairs, in key order.
IndexTemplate = Tuple[Tuple[str, str], ...]
#: The values of a template's attributes carried by one tuple: the bare
#: value for a one-attribute template, else the tuple of values.
IndexKey = object

#: One index bucket: its only entry, or the list of its entries (two or more).
_Bucket = Union["StateEntry", List["StateEntry"]]
#: One member of a state's registry: its key function and its buckets.
_Index = Tuple[Callable[[StreamTuple], IndexKey], Dict[IndexKey, _Bucket]]

_order_of = attrgetter("order")


@lru_cache(maxsize=None)
def key_function(template: IndexTemplate) -> Callable[[StreamTuple], IndexKey]:
    """The function from a tuple to its key under ``template``, compiled once
    per template.

    The keys of the state indexes, of the blacklist's signature index and
    :attr:`MNSSignature.key <repro.core.signature.MNSSignature.key>`
    are all built here, so they agree by construction.  Keys are computed
    on every insert, removal and lookup, once per index, so the common
    one-attribute template keys by the bare value, with a function without
    a loop.  The tuple (anything with ``value(source, attribute)``) must
    cover the template's sources.
    """
    if len(template) == 1:
        ((source, attr),) = template
        return lambda tup: tup.value(source, attr)
    return lambda tup: tuple([tup.value(source, attr) for source, attr in template])


def _add(
    buckets: Dict[IndexKey, _Bucket], key: IndexKey, bucket: _Bucket, entry: "StateEntry"
) -> None:
    """Append ``entry`` to ``key``'s occupied ``bucket``, making a one-entry
    bucket a list.  (A new key's bucket is the entry itself, set inline.)"""
    if type(bucket) is list:
        bucket.append(entry)
    else:
        buckets[key] = [bucket, entry]


def _remove(
    buckets: Dict[IndexKey, _Bucket], key: IndexKey, bucket: List["StateEntry"], entry: "StateEntry"
) -> None:
    """Take ``entry`` (by identity) out of ``key``'s list ``bucket``,
    collapsing it to its last entry.  (A sole entry is deleted inline.)"""
    for pos, existing in enumerate(bucket):
        if existing is entry:
            del bucket[pos]
            break
    if len(bucket) == 1:
        buckets[key] = bucket[0]


@dataclass(slots=True)
class StateEntry:
    """A tuple stored in an operator state, with bookkeeping.

    Attributes
    ----------
    tuple:
        The stored stream tuple.
    ts:
        The stamp the window rule expires the entry by (the tuple's ``ts``),
        stored once at insert: every purge, probe and liveness test reads
        it.
    seq:
        State-local arrival sequence number: strictly increasing in insertion
        order.  JIT resume watermarks are expressed in these sequence numbers.
        A fresh insert's ``seq`` is its ``order`` stamp (the same int).
    order:
        Position in the state's insertion order.  Unlike ``seq`` it is fresh
        on every insert, so a resumed tuple re-inserted under its original
        ``seq`` still sorts where it sits in the entry list: at the end.
    removed:
        Set to True when the entry leaves the state (purged, extracted to a
        blacklist, ...).  Probe loops skip removed entries, which also guards
        against entries removed re-entrantly by a JIT feedback arriving while
        a probe over a snapshot is still running.
    came_from:
        The JIT blacklist record (``repro.core.blacklist.SuspendedTuple``)
        whose replay re-inserted this tuple; None for every other insert.
    """

    tuple: StreamTuple
    ts: float
    seq: int
    order: int = 0
    removed: bool = False
    came_from: Optional[object] = None


class OperatorState:
    """A window of live tuples for one input of a stateful operator.

    Parameters
    ----------
    name:
        Human-readable name (``"S_AB"`` etc.), used in diagnostics.
    context:
        The shared execution context (clock, window, cost and memory models).
    key_template:
        Optional equi-join key: when given, the index over this template is
        registered up front (and so maintained from the first insert)
        instead of being built on its first lookup.  The paper's experiments
        use plain nested loops, so no index is registered by default.
    memory_category:
        Category under which this state's bytes are charged to the memory
        model.
    """

    def __init__(
        self,
        name: str,
        context: ExecutionContext,
        key_template: Optional[IndexTemplate] = None,
        memory_category: str = "state",
    ) -> None:
        self.name = name
        self.context = context
        self.memory_category = memory_category
        self._entries: List[StateEntry] = []  # insertion order, lazily compacted
        #: Every entry before this index of ``_entries`` is removed.
        self._head = 0
        #: Late inserts (see the module docstring), keyed for their purge.
        self._late: List[Tuple[float, int, StateEntry]] = []
        #: The newest stamp the state has held: an insert below it is late.
        self._newest = float("-inf")
        self._last_order = 0
        #: The index registry (see the module docstring for the charging rule).
        self._indexes: Dict[IndexTemplate, _Index] = {}
        #: Stream time of the last lookup of each lazily built index; the
        #: up-front equi-key index is not in here and so never retires.
        self._last_lookup: Dict[IndexTemplate, float] = {}
        if key_template:
            self._register(key_template)
        self._active_count = 0

    # -- basic container protocol -------------------------------------------

    def __len__(self) -> int:
        return self._active_count

    def __iter__(self) -> Iterator[StateEntry]:
        return (e for e in self._entries if not e.removed)

    @property
    def next_seq(self) -> int:
        """The sequence number the next inserted tuple will receive."""
        return self._last_order + 1

    @property
    def last_order(self) -> int:
        """The ``order`` stamp of the newest entry ever inserted (0 before any)."""
        return self._last_order

    @property
    def memory_bytes(self) -> int:
        """Modelled bytes currently held by this state."""
        return sum(e.tuple.size_bytes for e in self._entries if not e.removed)

    def entries(self) -> List[StateEntry]:
        """All present entries in insertion order."""
        return [e for e in self._entries if not e.removed]

    # -- purge / probe / insert ----------------------------------------------

    def insert(self, tup: StreamTuple, seq: Optional[int] = None) -> StateEntry:
        """Insert ``tup`` into the state and return its entry.

        ``seq`` lets JIT re-insert a previously extracted tuple under its
        *original* sequence number, so that watermarks other suspended tuples
        recorded against it stay meaningful.  New tuples omit it and receive
        their order stamp as sequence number (:attr:`next_seq`).
        """
        order = self._last_order = self._last_order + 1
        ts = tup.ts
        entry = StateEntry(tup, ts, order if seq is None else seq, order)
        self._entries.append(entry)
        if ts < self._newest:
            heappush(self._late, (ts, order, entry))
        else:
            self._newest = ts
        self._active_count += 1
        if self._indexes:
            for key_of, buckets in self._indexes.values():
                key = key_of(tup)
                bucket = buckets.setdefault(key, entry)
                if bucket is not entry:
                    _add(buckets, key, bucket, entry)
            self.context.cost.charge(CostKind.HASH, len(self._indexes))
        self.context.cost.charge(CostKind.INSERT)
        self.context.memory.allocate(tup.size_bytes, self.memory_category)
        return entry

    def purge(self, horizon: float) -> List[StateEntry]:
        """Remove and return the expired entries.

        The caller asks the window for the horizon
        (:meth:`~repro.streams.time.Window.purge_horizon`); an entry below it
        has expired.  The head removes what it passes up to the first present
        entry at or above the horizon, and the side heap yields the late ones
        behind it.  Lazily built indexes last looked up before the horizon
        are retired.  One ``PURGE`` per removed entry.
        """
        if self._last_lookup:
            for template in [t for t, at in self._last_lookup.items() if at < horizon]:
                del self._indexes[template], self._last_lookup[template]
        removed: List[StateEntry] = []
        entries = self._entries
        head = self._head
        while head < len(entries):
            entry = entries[head]
            if not entry.removed:
                if entry.ts >= horizon:
                    break
                self._forget(entry)
                removed.append(entry)
            head += 1
        self._head = head
        late = self._late
        while late and late[0][0] < horizon:
            entry = heappop(late)[2]
            if not entry.removed:
                self._forget(entry)
                removed.append(entry)
        if removed:
            self.context.cost.charge(CostKind.PURGE, len(removed))
        self._maybe_compact()
        return removed

    def probe(self, after_order: int = 0) -> Iterator[StateEntry]:
        """Iterate present entries in insertion order, charging one probe step
        per entry yielded.  The entries are those present when the probe
        starts, minus the ones removed before it reaches them.

        Entries whose ``order`` stamp is at or below ``after_order`` are
        skipped without charge (the scan bisects to the first one above it).
        """
        entries = self._entries
        start = self._head
        if after_order > 0:
            start = max(start, bisect_right(entries, after_order, key=_order_of))
        charge = self.context.cost.charge
        for index in range(start, len(entries)):
            entry = entries[index]
            if entry.removed:
                continue
            charge(CostKind.PROBE_STEP)
            yield entry

    def probe_index(
        self, lookups: Sequence[Tuple[IndexTemplate, IndexKey]]
    ) -> List[StateEntry]:
        """Hash-probe the registry: the union of the looked-up buckets.

        Entries come back in insertion order, each once.  One lookup is the
        equi-join probe of a hash-indexed join; several — one per component
        of the probing tuple — serve an MNS-detecting probe, which must see
        every entry that matches at least one component.  The result is a
        snapshot: callers re-check ``removed`` per entry, as with a scan.
        """
        (template, key), *others = lookups
        matches = list(self._bucket(template, key))
        if others:
            union = {entry.order: entry for entry in matches}
            for template, key in others:
                for entry in self._bucket(template, key):
                    union[entry.order] = entry
            matches = [union[order] for order in sorted(union)]
        if matches:
            self.context.cost.charge(CostKind.PROBE_STEP, len(matches))
        return matches

    def any_live(self, template: IndexTemplate, key: IndexKey) -> bool:
        """Whether a present entry has ``key`` under ``template``.

        The existence lookup of an MNS-detecting probe: the lookup's
        ``HASH``, then one ``PROBE_STEP`` for the entry that answers it.
        """
        if self._bucket(template, key):
            self.context.cost.charge(CostKind.PROBE_STEP)
            return True
        return False

    # -- JIT support ----------------------------------------------------------

    def extract(
        self,
        selector: Callable[[StreamTuple], bool],
        lookup: Optional[Tuple[IndexTemplate, IndexKey]] = None,
    ) -> List[StateEntry]:
        """Remove and return all present entries whose tuple satisfies ``selector``.

        Used by ``Suspend_Production`` to move super-tuples of an MNS from the
        state into a blacklist.  Charges one blacklist-scan step per examined
        entry: every present entry (the scan is explicit in the paper's
        Section IV-B), or only the bucket of ``lookup`` when the caller knows
        that ``selector`` rejects everything outside it.
        """
        candidates = self._entries if lookup is None else list(self._bucket(*lookup))
        removed: List[StateEntry] = []
        for entry in candidates:
            if entry.removed:
                continue
            self.context.cost.charge(CostKind.BLACKLIST_SCAN)
            if selector(entry.tuple):
                self._forget(entry)
                removed.append(entry)
        self._maybe_compact()
        return removed

    def remove_entry(self, entry: StateEntry) -> None:
        """Remove a specific entry (by identity) from the state."""
        if entry.removed:
            raise KeyError(f"entry {entry!r} not present in state {self.name!r}")
        self._forget(entry)

    # -- internals -------------------------------------------------------------

    def _bucket(self, template: IndexTemplate, key: IndexKey) -> Sequence[StateEntry]:
        """One index lookup, building the index first if this is its first use.

        Returns the bucket's entries: a one-entry bucket as a 1-tuple, a list
        bucket itself (copy it before anything can remove an entry).
        """
        cost = self.context.cost
        lazy = template in self._last_lookup
        if template in self._indexes:
            _key_of, buckets = self._indexes[template]
        else:
            lazy = True
            key_of, buckets = self._register(template)
            for entry in self._entries:
                if not entry.removed:
                    entry_key = key_of(entry.tuple)
                    bucket = buckets.setdefault(entry_key, entry)
                    if bucket is not entry:
                        _add(buckets, entry_key, bucket, entry)
            if self._active_count:
                cost.charge(CostKind.HASH, self._active_count)
        if lazy:
            self._last_lookup[template] = self.context.now
        cost.charge(CostKind.HASH)
        bucket = buckets.get(key)
        if bucket is None:
            return ()
        return bucket if type(bucket) is list else (bucket,)

    def _register(self, template: IndexTemplate) -> _Index:
        """Add an (empty) index over ``template`` to the registry and return it."""
        index = self._indexes[template] = (key_function(template), {})
        return index

    def _forget(self, entry: StateEntry) -> None:
        """Release accounting and index bookkeeping for a removed entry."""
        if entry.removed:
            return
        entry.removed = True
        self._active_count -= 1
        tup = entry.tuple
        for key_of, buckets in self._indexes.values():
            key = key_of(tup)
            bucket = buckets.get(key)
            if bucket is entry:
                del buckets[key]
            elif type(bucket) is list:
                _remove(buckets, key, bucket, entry)
        self.context.memory.release(tup.size_bytes, self.memory_category)

    def _maybe_compact(self) -> None:
        """Drop removed entries from the list once they dominate it."""
        if len(self._entries) > 32 and self._active_count < len(self._entries) // 2:
            self._entries = [e for e in self._entries if not e.removed]
            self._head = 0

    def __repr__(self) -> str:
        return f"OperatorState({self.name!r}, size={self._active_count})"
