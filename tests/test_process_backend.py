"""Process drain mode: equivalence with sync, worker lifecycle, restarts.

The central claim of the backend abstraction is that a drain mode changes
*when* and *where* work happens, never *what* is computed: each shard
processes its own feed in arrival order and plans never span shards, so the
per-query **result sequences** (not just counts) of a
``drain_mode="process"`` run must be bit-identical to the synchronous mode
under every scheduler policy, with and without sub-plan sharing.

The start-up half pins what construction costs and guarantees: one ``host``
frame per worker carrying its registrations in registration order, one
worker-side snapshot per frame, nothing left for the first ``submit``, and
no worker left behind by a construction that fails.

The lifecycle half pins the failure contract: a crashed worker surfaces as
a :class:`~repro.multi.backend.ShardWorkerError` naming the shard instead
of a hang, SIGTERM produces a graceful drain-and-exit, and
``restart_worker`` brings a replacement up the way construction does
(counted by the ``serve_shard_worker_restarts_total`` telemetry family)
without losing already-collected results.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from golden import ALL_POLICIES
from repro.engine.results import result_key
from repro.multi import (
    QueryRegistry,
    ShardedEngine,
    ShardWorkerError,
)
from repro.multi.backend import ProcessShard, _ShardSpec, _worker_main
from repro.multi.shard import ShardEngine
from repro.multi.workload import MultiQueryWorkload, generate_multi_query_workload
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF


@pytest.fixture(scope="module")
def workload() -> MultiQueryWorkload:
    """Eight standing queries over five shared streams, dense enough to
    exercise suspension/resumption traffic (small dmax, live window)."""
    return generate_multi_query_workload(
        n_queries=8, n_sources=5, rate=0.8, window_seconds=20, dmax=4, duration=120, seed=3
    )


@pytest.fixture(scope="module")
def events(workload):
    return workload.events()


def _registry(workload: MultiQueryWorkload) -> QueryRegistry:
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(
            query, strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF
        )
    return registry


def _result_sequences(report):
    """Per-query result-key sequences, in emission order."""
    return {
        qid: [result_key(tup) for tup in qreport.results.results]
        for qid, qreport in report.queries.items()
    }


def _run(workload, events, drain_mode, **kwargs):
    with ShardedEngine(_registry(workload), drain_mode=drain_mode, **kwargs) as engine:
        return engine.run(events)


@pytest.fixture
def frames(monkeypatch):
    """Every ``(shard_id, message)`` the parent sends its workers, in order."""
    sent = []
    real_send = ProcessShard.send

    def recording_send(shard, msg, events=0):
        sent.append((shard.shard_id, msg))
        return real_send(shard, msg, events)

    monkeypatch.setattr(ProcessShard, "send", recording_send)
    return sent


def _ids_on(engine, shard_id):
    """The ids hosted on one shard, in registration order."""
    return [
        qid for qid in engine.registry.ids if engine.runtime_for(qid).shard_id == shard_id
    ]


def _shard_workers():
    """Worker processes and their reader threads alive right now."""
    return set(multiprocessing.active_children()) | {
        thread for thread in threading.enumerate() if thread.name.startswith("shard-")
    }


class TestProcessSyncEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_bit_identical_to_sync(self, workload, events, policy):
        sync = _run(workload, events, "sync", n_shards=2, scheduler=policy)
        proc = _run(workload, events, "process", n_shards=2, scheduler=policy)
        assert _result_sequences(proc) == _result_sequences(sync)
        assert proc.events_ingested == sync.events_ingested
        assert proc.cpu_units == sync.cpu_units

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_bit_identical_with_shared_subplans(self, workload, events, policy):
        sync = _run(
            workload, events, "sync", n_shards=2, scheduler=policy,
            share_subplans=True,
        )
        proc = _run(
            workload, events, "process", n_shards=2, scheduler=policy,
            share_subplans=True,
        )
        assert _result_sequences(proc) == _result_sequences(sync)
        # Sharing must actually engage inside the workers (the proxies
        # surface the worker-side counters).
        assert sum(m.results_produced for m in proc.shard_metrics) > 0

    def test_deterministic_across_runs(self, workload, events):
        first = _run(workload, events, "process", n_shards=2)
        second = _run(workload, events, "process", n_shards=2)
        assert _result_sequences(first) == _result_sequences(second)

    def test_single_shard_matches_sync(self, workload, events):
        sync = _run(workload, events, "sync", n_shards=1)
        proc = _run(workload, events, "process", n_shards=1)
        assert _result_sequences(proc) == _result_sequences(sync)


class TestBornHosting:
    @pytest.fixture(scope="class")
    def population(self):
        """The benchmark's population: 128 sub-clique queries over 4 streams."""
        return generate_multi_query_workload(
            n_queries=128, n_sources=4, rate=1.0, window_seconds=30.0, dmax=400,
            duration=10, seed=5,
        )

    def test_one_hosting_frame_per_worker_and_none_later(self, population, frames):
        registry = _registry(population)
        event = population.events()[0]
        with ShardedEngine(registry, n_shards=2) as sync:
            hosted = [(shard.queue_count, shard.sources) for shard in sync.shards]
        with ShardedEngine(registry, n_shards=2, drain_mode="process") as engine:
            assert [(shard, msg[0]) for shard, msg in frames] == [(0, "host"), (1, "host")]
            # Each frame is the shard's registrations in registration order.
            for shard_id, msg in frames:
                assert [entry.query_id for entry in msg[2]] == _ids_on(engine, shard_id)
            # Nothing is deferred: every worker has already reported all of
            # its queries hosted, and the first submit is only the event.
            assert [(s.queue_count, s.sources) for s in engine.shards] == hosted
            del frames[:]
            engine.submit(event)
            receivers = engine.router.shards_for(event.source)
            assert [(shard, msg[0]) for shard, msg in frames] == [
                (shard, "evt") for shard in receivers
            ]

    def test_worker_hosts_a_frame_in_order_under_one_snapshot(
        self, population, monkeypatch
    ):
        """The worker loop itself, run in this process over a real pipe."""
        entries = list(_registry(population))[::2]
        snapshots = []
        real_snapshot = ShardEngine.snapshot

        def counting_snapshot(shard):
            snapshots.append([runtime.query_id for runtime in shard.runtimes])
            return real_snapshot(shard)

        monkeypatch.setattr(ShardEngine, "snapshot", counting_snapshot)
        parent, child = multiprocessing.Pipe(duplex=True)
        feeder = threading.Thread(
            target=lambda: (parent.send(("host", "t", entries)), parent.send(("close",)))
        )
        on_sigterm = signal.getsignal(signal.SIGTERM)
        feeder.start()
        try:
            _worker_main(_ShardSpec(0, "fifo", False), child)
        finally:
            signal.signal(signal.SIGTERM, on_sigterm)
        feeder.join(10.0)
        replies = [parent.recv()]
        while replies[-1][0] not in ("bye", "err"):
            replies.append(parent.recv())
        parent.close()
        assert [reply[:2] for reply in replies] == [("hosted", "t"), ("bye", "close")]
        assert replies[0][2]["queue_count"] > len(entries)
        # One snapshot for 64 registrations, taken after the last was hosted.
        assert snapshots == [[entry.query_id for entry in entries]]


class TestWorkerCommands:
    def test_batch_frame_is_an_unknown_command(self, events):
        """An event reaches a worker only in an ``evt`` frame: the worker
        loop, run in this process over a real pipe, answers a ``batch``
        frame with an ``err`` naming the unknown command."""
        parent, child = multiprocessing.Pipe(duplex=True)
        parent.send(("batch", events[:2], None, 0.0))
        parent.send(("close",))
        on_sigterm = signal.getsignal(signal.SIGTERM)
        try:
            _worker_main(_ShardSpec(0, "fifo", False), child)
        finally:
            signal.signal(signal.SIGTERM, on_sigterm)
        assert parent.poll(10.0)
        reply = parent.recv()
        parent.close()
        assert reply[:2] == ("err", 0)
        assert "unknown worker command 'batch'" in reply[2]


class TestFailedConstruction:
    """Whatever goes wrong before ``ShardedEngine(...)`` returns, every worker
    it started is shut down: no child process, no reader thread."""

    @staticmethod
    def _registry(workload, spoil) -> QueryRegistry:
        registry = QueryRegistry()
        for index, query in enumerate(workload.queries()[:6]):
            if index == 3:
                spoil(registry, query)
            else:
                registry.register(query)
        return registry

    @staticmethod
    def _unpicklable(registry, query) -> None:
        # A cached attribute that does not pickle; only process mode minds.
        object.__setattr__(registry.register(query), "_hook", lambda: None)

    @staticmethod
    def _unbuildable(registry, query) -> None:
        # Pickles fine; fails where the plan is built (process: in the worker).
        registry.register(query, shape="no-such-shape")

    def test_unpicklable_registration_is_named(self, workload):
        before = _shard_workers()
        with pytest.raises(ShardWorkerError, match="could not ship query 'q3' to shard 1"):
            ShardedEngine(
                self._registry(workload, self._unpicklable), n_shards=2, drain_mode="process"
            )
        assert _shard_workers() == before

    def test_plan_build_failure_arrives_with_the_workers_traceback(self, workload):
        before = _shard_workers()
        with pytest.raises(ShardWorkerError, match="shard 1 worker failed") as failure:
            ShardedEngine(
                self._registry(workload, self._unbuildable), n_shards=2, drain_mode="process"
            )
        assert "Traceback" in str(failure.value)
        assert "no-such-shape" in str(failure.value)
        assert _shard_workers() == before


class TestResultShipping:
    def test_results_leave_a_busy_worker_without_a_flush(self, workload, events):
        """Paced traffic never leaves the pipe idle for the worker's 50 ms
        tick, and ``flush`` is never called: results must still arrive, the
        first of them while the stream is running.  No timing bound."""
        sync = _result_sequences(_run(workload, events, "sync", n_shards=2))
        expected = {qid: len(keys) for qid, keys in sync.items()}
        assert sum(expected.values()) > 0
        with ShardedEngine(_registry(workload), n_shards=2, drain_mode="process") as engine:
            def counts():
                return {qid: engine.results_for(qid).count for qid in expected}

            seen_mid_stream = False
            for event in events:
                engine.submit(event)
                time.sleep(0.004)
                seen_mid_stream = seen_mid_stream or any(counts().values())
            assert seen_mid_stream
            deadline = time.monotonic() + 60.0
            while counts() != expected and time.monotonic() < deadline:
                time.sleep(0.01)
            assert counts() == expected


class TestLiveLifecycleOps:
    def test_add_and_retire_query_mid_stream(self, workload, events):
        def drive(mode):
            registry = _registry(workload)
            entries = list(registry)
            late = entries[-1]
            with ShardedEngine(registry, n_shards=2, drain_mode=mode) as engine:
                victim = entries[0].query_id
                cut_a, cut_b = len(events) // 3, 2 * len(events) // 3
                for event in events[:cut_a]:
                    engine.submit(event)
                retired = engine.retire_query(victim)
                for event in events[cut_a:cut_b]:
                    engine.submit(event)
                engine.retire_query(late.query_id)
                engine.add_query(late)
                for event in events[cut_b:]:
                    engine.submit(event)
                engine.flush()
                report = engine.report()
                sequences = _result_sequences(report)
                sequences[victim] = [
                    result_key(tup) for tup in retired.collector.results
                ]
            return sequences

        assert drive("process") == drive("sync")

    def test_queue_count_visible_after_construction(self, workload):
        # The benchmark samples shard.queue_count right after construction;
        # process proxies must surface it from the hosting handshake.
        with ShardedEngine(_registry(workload), n_shards=2, drain_mode="process") as engine:
            assert sum(shard.queue_count for shard in engine.shards) > 0
            assert all(shard.queue_depth == 0 for shard in engine.shards)


class TestWorkerLifecycle:
    def test_liveness_and_restarts_all_modes(self, workload):
        for mode in ("sync", "process"):
            with ShardedEngine(_registry(workload), n_shards=2, drain_mode=mode) as engine:
                assert engine.worker_liveness() == {0: 1, 1: 1}
                assert engine.worker_restarts() == {0: 0, 1: 0}

    def test_crashed_worker_raises_named_error(self, workload, events):
        engine = ShardedEngine(_registry(workload), n_shards=2, drain_mode="process")
        # Ship an event whose timestamp is ahead of the watermark the worker
        # was told about: the shard clock refuses to run ahead of the global
        # floor, so the worker's drain loop raises and the worker dies.
        engine.shards[0].send(("evt", events[-1], None, 0.0), events=1)
        with pytest.raises(ShardWorkerError, match="shard 0"):
            engine.flush()
        with pytest.raises(ShardWorkerError, match="worker"):
            engine.close()
        engine.close()  # idempotent after the error surfaced

    def test_close_surfaces_unflushed_crash(self, workload, events):
        engine = ShardedEngine(_registry(workload), n_shards=2, drain_mode="process")
        engine.shards[0].send(("evt", events[-1], None, 0.0), events=1)
        with pytest.raises(ShardWorkerError, match="shard 0"):
            engine.close()

    def test_sigterm_drains_and_exits(self, workload, events):
        engine = ShardedEngine(_registry(workload), n_shards=2, drain_mode="process")
        for event in events[:40]:
            engine.submit(event)
        engine.flush()
        handle = engine.shards[0]
        os.kill(handle.proc.pid, signal.SIGTERM)
        handle.proc.join(10.0)
        assert not handle.proc.is_alive()
        deadline = time.monotonic() + 5.0
        while handle.graceful_exit is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert handle.graceful_exit == "sigterm"
        assert engine.worker_liveness()[0] == 0
        assert engine.worker_liveness()[1] == 1
        # Further work for the dead shard is refused, not silently dropped.
        with pytest.raises(ShardWorkerError, match="shard 0"):
            engine.shards[0].send(("evt", events[40], None, events[40].ts), events=1)
        engine.shards[1].flush()
        try:
            engine.close()
        except ShardWorkerError:
            pass

    def test_restart_worker_restores_service(self, workload, events, frames):
        cut = len(events) // 2
        with ShardedEngine(_registry(workload), n_shards=2, drain_mode="process") as engine:
            for event in events[:cut]:
                engine.submit(event)
            engine.flush()
            on_shard_0 = _ids_on(engine, 0)
            del frames[:]
            engine.restart_worker(0)
            # Restart is start-up: one frame, the shard's list in hosting order.
            assert [(shard, msg[0]) for shard, msg in frames] == [(0, "host")]
            assert [entry.query_id for entry in frames[0][1][2]] == on_shard_0
            assert engine.worker_liveness() == {0: 1, 1: 1}
            assert engine.worker_restarts() == {0: 1, 1: 0}
            for event in events[cut:]:
                engine.submit(event)
            engine.flush()
            after = engine.report()
            assert after.events_ingested == len(events)
        # Results collected before the restart survive on the mirrors and the
        # replacement starts with empty windows: a restarted shard's queries
        # read like a run of the first half followed by a fresh run of the
        # second; shard-1 queries never notice.
        head = _result_sequences(_run(workload, events[:cut], "sync", n_shards=2))
        tail = _result_sequences(_run(workload, events[cut:], "sync", n_shards=2))
        whole = _result_sequences(_run(workload, events, "sync", n_shards=2))
        assert 0 < len(on_shard_0) < len(whole)
        assert _result_sequences(after) == {
            qid: head[qid] + tail[qid] if qid in on_shard_0 else whole[qid]
            for qid in whole
        }

    def test_restart_is_process_mode_only(self, workload):
        with ShardedEngine(_registry(workload), n_shards=1, drain_mode="sync") as engine:
            with pytest.raises(RuntimeError, match="process-mode"):
                engine.restart_worker(0)


class TestWorkerTracing:
    def test_worker_spans_merge_into_one_trace(self, workload, events):
        from repro.trace import Tracer, validate_chrome_trace

        def traced(mode):
            tracer = Tracer(sample_rate=1.0, capacity=50_000, seed=7)
            with ShardedEngine(_registry(workload), n_shards=2, drain_mode=mode) as engine:
                engine.attach_tracer(tracer)
                report = engine.run(events[: len(events) // 2])
            return tracer, report

        sync_tracer, sync_report = traced("sync")
        proc_tracer, proc_report = traced("process")
        # Tracing must not perturb results, and the merged fleet must record
        # the same span population the inline run does.
        assert _result_sequences(proc_report) == _result_sequences(sync_report)
        sync_stats, proc_stats = sync_tracer.stats(), proc_tracer.stats()
        assert proc_stats["spans_recorded"] == sync_stats["spans_recorded"]
        assert proc_stats["mns_pairs_closed"] == sync_stats["mns_pairs_closed"]
        trace = proc_tracer.chrome_trace()
        validate_chrome_trace(trace)
        workers = {
            span.get("args", {}).get("worker")
            for span in trace["traceEvents"]
            if span.get("ph") != "M"
        }
        # Parent-side ingest/route spans carry no worker id; every shard's
        # worker contributes spans under its own label.
        assert {"w0", "w1"} <= workers
        # Worker profiles fold into the parent's per-operator table.
        assert proc_tracer.profiles
        assert set(proc_tracer.profiles) == set(sync_tracer.profiles)


class TestDrainModeSelection:
    @pytest.mark.parametrize("mode", ("fibers", "thread"))
    def test_unknown_mode_rejected(self, workload, mode):
        with pytest.raises(ValueError, match="drain_mode") as rejected:
            ShardedEngine(_registry(workload), drain_mode=mode)
        assert "'sync'" in str(rejected.value) and "'process'" in str(rejected.value)

    def test_bad_scheduler_fails_eagerly_in_parent(self, workload):
        with pytest.raises(ValueError):
            ShardedEngine(_registry(workload), drain_mode="process", scheduler="nope")

    def test_report_names_the_mode(self, workload, events):
        report = _run(workload, events[:30], "process", n_shards=1)
        assert report.drain_mode == "process"
        assert "[process]" in report.summary()
