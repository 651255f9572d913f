"""The incremental result plane: ``drain()`` means "everything so far"
and costs "what is new".

Every snapshot must equal the reference engine's per-trace results
merged in submission order — whatever the interleaving of submits and
drains, on every backend, with epoch sharding on, and with a backend
degrading between two drains — while each drain folds only the results
finished since the previous one and the backends keep nothing they
handed off.
"""

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import CheckingEngine
from repro.core.events import Event, Op, Trace
from repro.core.faults import FaultKind, FaultPlan, FaultPoint, FaultRule
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.recovery import RecoveryKind
from repro.core.reports import TestResult, merge_results
from repro.core.rules import X86Rules
from repro.core.traceio import encode_result
from repro.core.workers import WorkerPool


def _good(trace: Trace) -> None:
    trace.append(Event(Op.WRITE, 0x100, 8))
    trace.append(Event(Op.CLWB, 0x100, 8))
    trace.append(Event(Op.SFENCE))
    trace.append(Event(Op.CHECK_PERSIST, 0x100, 8))


def _bad(trace: Trace) -> None:
    trace.append(Event(Op.WRITE, 0x200, 8))
    trace.append(Event(Op.CHECK_PERSIST, 0x200, 8))


def _warn(trace: Trace) -> None:
    trace.append(Event(Op.WRITE, 0x300, 8))
    trace.append(Event(Op.CLWB, 0x300, 8))
    trace.append(Event(Op.CLWB, 0x300, 8))  # duplicate flush
    trace.append(Event(Op.SFENCE))


def _big(trace: Trace) -> None:
    """Four fenced epochs (shardable), the third one missing its flush."""
    for epoch in range(4):
        base = 0x1000 + epoch * 0x100
        for k in range(4):
            trace.append(Event(Op.WRITE, base + k * 8, 8))
        if epoch != 2:
            trace.append(Event(Op.CLWB, base, 32))
        trace.append(Event(Op.SFENCE))
        trace.append(Event(Op.CHECK_PERSIST, base, 32))


_KINDS = {"good": _good, "bad": _bad, "warn": _warn, "big": _big}
_BIG_EVENTS = 27


def make_trace(kind: str, trace_id: int) -> Trace:
    trace = Trace(trace_id)
    _KINDS[kind](trace)
    return trace


def reference(traces) -> tuple:
    """The reference engine's per-trace results, merged in order."""
    engine = CheckingEngine(X86Rules(), cache=None)
    return encode_result(merge_results(engine.check_trace(t) for t in traces))


def scribble(snapshot: TestResult) -> None:
    """Mutate everything a caller can reach through a snapshot."""
    snapshot.reports.clear()
    snapshot.reports.append("not a report")
    snapshot.diagnostics.append("scribbled")
    snapshot.metadata["scribbled"] = True
    snapshot.traces_checked = -1
    snapshot.events_checked = -1
    snapshot.checkers_evaluated = -1


def crash_at(hit: int) -> FaultPlan:
    """Worker 0 dies on its ``hit``-th trace; with ``max_retries=0``
    the backend is unhealthy at once and the pool degrades."""
    return FaultPlan(rules=[
        FaultRule(FaultPoint.WORKER_BATCH, FaultKind.CRASH, at=hit, worker=0)
    ])


#: id -> (pool arguments, hypothesis examples, faulted)
_CONFIGS = {
    "inline": (dict(num_workers=0), 40, False),
    "thread": (dict(num_workers=2, backend="thread"), 25, False),
    "thread-sharded": (
        dict(num_workers=2, backend="thread", engine="columnar",
             shard_min_events=_BIG_EVENTS), 25, False),
    "thread-degrading": (
        dict(num_workers=1, backend="thread", max_retries=0), 25, True),
    "process": (dict(num_workers=1, backend="process"), 5, False),
    "process-sharded": (
        dict(num_workers=2, backend="process", engine="columnar",
             shard_min_events=_BIG_EVENTS, batch_size=1), 4, False),
    "process-degrading": (
        dict(num_workers=1, backend="process", batch_size=1,
             max_retries=0), 4, True),
}

_OPS = st.lists(
    st.sampled_from(["good", "bad", "warn", "big", "drain", "drain"]),
    min_size=1, max_size=14,
)


class TestEverySnapshotIsTheOrderedMerge:
    @pytest.mark.parametrize("config", sorted(_CONFIGS))
    def test_random_interleavings(self, config):
        kwargs, examples, faulted = _CONFIGS[config]

        @given(ops=_OPS, crash=st.integers(min_value=0, max_value=8))
        @settings(max_examples=examples, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def run(ops, crash):
            registry = MetricsRegistry(MetricsLevel.BASIC)
            extra = {"faults": crash_at(crash)} if faulted else {}
            pool = WorkerPool(metrics=registry, check_timeout=30.0,
                              **kwargs, **extra)
            submitted = []
            try:
                for op in ops:
                    if op == "drain":
                        snapshot = pool.drain()
                        assert encode_result(snapshot) == reference(submitted)
                        assert snapshot.metadata["degraded"] == pool.degraded
                        scribble(snapshot)
                    else:
                        trace = make_trace(op, len(submitted))
                        pool.submit(trace)
                        submitted.append(trace)
            finally:
                final = pool.close()
            assert encode_result(final) == reference(submitted)
            assert "scribbled" not in final.diagnostics
            assert "scribbled" not in final.metadata
            again = pool.close()
            assert again is final
            # Each result was folded exactly once: one fold per trace,
            # plus one per shard collapsed into its trace.
            shards = final.metadata.get("epoch_shards", 0)
            merged = pool.metrics_snapshot().counter_value(
                "stage.drain.merged")
            assert merged == len(submitted) + shards

        run()


class TestDegradationBetweenDrains:
    @pytest.mark.parametrize("backend,extra", [
        ("thread", {}),
        ("process", {"batch_size": 1}),
    ])
    def test_handed_off_results_survive_a_later_degradation(
        self, backend, extra
    ):
        """Three traces are drained (handed off and folded), then the
        only worker dies on the fifth: the salvage carries just the one
        result finished since that drain, the two unchecked traces are
        resubmitted to the fallback, and the verdict is the ordered
        merge of all six."""
        traces = [make_trace("bad" if i % 2 else "warn", i) for i in range(6)]
        pool = WorkerPool(num_workers=1, backend=backend, max_retries=0,
                          check_timeout=30.0, faults=crash_at(4), **extra)
        try:
            for trace in traces[:3]:
                pool.submit(trace)
            first = pool.drain()
            assert encode_result(first) == reference(traces[:3])
            assert not pool.degraded
            for trace in traces[3:]:
                pool.submit(trace)
            second = pool.drain()
        finally:
            final = pool.close()
        assert pool.degraded and pool.backend_name != backend
        assert encode_result(second) == reference(traces)
        assert encode_result(final) == reference(traces)
        assert sum("degraded" in d for d in second.diagnostics) == 1
        (event,) = [e for e in pool.recovery_events
                    if e.kind is RecoveryKind.DEGRADED]
        salvaged = event.data["salvaged"]
        # Never the three handed off before the fault.  (A process
        # worker's last result can die with it in its queue feeder.)
        assert salvaged == 1 or (backend == "process" and salvaged == 0)
        assert salvaged + event.data["resubmitted"] == 3
        # the first snapshot was taken before the fault and stays so
        assert first.traces_checked == 3 and first.diagnostics == []


def _live_results() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is TestResult)


class TestDrainCostsWhatIsNew:
    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(num_workers=0), id="inline"),
        pytest.param(dict(num_workers=2, backend="thread"), id="thread"),
        pytest.param(dict(num_workers=1, backend="process"), id="process"),
    ])
    def test_1000_traces_over_125_drains_fold_1000_results(self, kwargs):
        """Count-based: a session's total fold work is its length, not
        the sum of its drains' ages (63 000 before the result plane was
        incremental), and nothing handed off stays referenced."""
        registry = MetricsRegistry(MetricsLevel.BASIC)
        # Cache off: cached verdict templates are TestResults too.
        pool = WorkerPool(metrics=registry, verdict_cache=False, **kwargs)
        try:
            baseline = _live_results()
            traces = [make_trace("bad", i) for i in range(1000)]
            for start in range(0, 1000, 8):
                for trace in traces[start:start + 8]:
                    pool.submit(trace)
                snapshot = pool.drain()
                assert snapshot.traces_checked == start + 8
            assert len(snapshot.reports) == 1000
            del snapshot
            counters = pool.metrics_snapshot()
            assert counters.counter_value("stage.drain.count") == 125
            assert counters.counter_value("stage.drain.merged") == 1000
            # Only the pool's running verdict is left: no backend still
            # holds a per-trace result it handed off.
            assert _live_results() == baseline
            assert pool.backlog() == 0
        finally:
            pool.close()
