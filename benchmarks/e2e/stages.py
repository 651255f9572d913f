"""Stage replay: one round's traces pushed standalone through each
layer's public functions, in the benchmark process.

These are the worker-side rows of the layer table: busy time per event
(or per trace) of work that, in the pool and daemon modes, runs in
another process where the benchmark cannot time it from outside.
"""

from __future__ import annotations

import pickle
from statistics import median
from time import perf_counter_ns
from typing import Callable, Dict, List, Sequence

from repro.core.canon import canonicalize
from repro.core.engine import CheckingEngine, coalesce_events
from repro.core.engine_columnar import make_engine
from repro.core.events import Trace
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.reports import TestResult, merge_results
from repro.core.rules import X86Rules
from repro.core.traceio import (
    decode_result,
    decode_trace,
    decode_traces_binary,
    decode_traces_binary_columnar,
    encode_result,
    encode_trace,
    encode_traces_binary,
)
from repro.core.verdict_cache import VerdictCache, resolve_cache_size

#: timed repetitions of every stage; the median is reported
REPEATS = 5


def _median_ns(body: Callable[[], object], repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = perf_counter_ns()
        body()
        samples.append(perf_counter_ns() - start)
    return median(samples)


def replay_stages(traces: Sequence[Trace],
                  results: Sequence[TestResult]) -> Dict[str, float]:
    """Per-layer busy-time metrics of ``traces`` (``results``: what the
    oracle reports for each, in the same order)."""
    events = sum(len(trace) for trace in traces)
    count = len(traces)
    rules = X86Rules()
    out: Dict[str, float] = {}

    # traceio: the tuple wire the queue transport pickles, and PMTB
    wires = [encode_trace(trace) for trace in traces]
    out["traceio.encode_tuple_ns_per_event"] = _median_ns(
        lambda: [encode_trace(trace) for trace in traces]) / events
    out["traceio.decode_tuple_ns_per_event"] = _median_ns(
        lambda: [decode_trace(wire) for wire in wires]) / events
    out["traceio.pickle_bytes_per_event"] = len(pickle.dumps(
        list(enumerate(wires)), pickle.HIGHEST_PROTOCOL)) / events
    data = encode_traces_binary(traces)
    out["traceio.encode_pmtb_ns_per_event"] = _median_ns(
        lambda: encode_traces_binary(traces)) / events
    out["traceio.decode_pmtb_ns_per_event"] = _median_ns(
        lambda: decode_traces_binary(data)) / events
    out["traceio.decode_columnar_ns_per_event"] = _median_ns(
        lambda: decode_traces_binary_columnar(data)) / events
    out["traceio.pmtb_bytes_per_event"] = len(data) / events
    out["traceio.result_roundtrip_ns_per_trace"] = _median_ns(
        lambda: [decode_result(encode_result(r)) for r in results]) / count

    # canon: fingerprint of the events the engine would replay
    coalesced = [coalesce_events(trace.events)[0] for trace in traces]
    out["canon.fingerprint_ns_per_event"] = _median_ns(
        lambda: [canonicalize(events_) for events_ in coalesced]) / events

    # engine: default engine without a cache, then the cache both ways
    plain = CheckingEngine(rules, cache=None)
    replay_ns = _median_ns(lambda: [plain.check_trace(t) for t in traces])
    out["engine.replay_ns_per_event"] = replay_ns / events
    capacity = resolve_cache_size(None, None)
    cached = CheckingEngine(rules, cache=None)

    def all_misses() -> None:
        for trace in traces:
            cached.cache = VerdictCache(capacity)
            cached.check_trace(trace)

    out["verdict_cache.miss_overhead_ns_per_event"] = (
        _median_ns(all_misses) - replay_ns) / events
    hits: List[int] = []
    for _ in range(REPEATS):
        total = 0
        for trace in traces:
            cached.cache = VerdictCache(capacity)
            cached.check_trace(trace)
            start = perf_counter_ns()
            cached.check_trace(trace)
            total += perf_counter_ns() - start
        hits.append(total)
    out["verdict_cache.hit_ns_per_event"] = median(hits) / events

    # the opt-in fast path, on pre-decoded columns
    columns = decode_traces_binary_columnar(data)
    fast = make_engine("columnar", rules, cache=None, shadow="array")
    out["engine.replay_columnar_array_ns_per_event"] = _median_ns(
        lambda: [fast.check_trace(cols) for cols in columns]) / events

    # shadow: the engine's own stage counters at full metrics
    registry = MetricsRegistry(MetricsLevel.FULL)
    timed = CheckingEngine(rules, metrics=registry, cache=None)
    for trace in traces:
        timed.check_trace(trace)
    value = registry.counter_value
    out["shadow.update_ns_per_event"] = (
        value("stage.shadow_update.ns")
        / max(value("stage.shadow_update.count"), 1))
    out["shadow.validate_ns_per_check"] = (
        value("stage.checker_validate.ns")
        / max(value("stage.checker_validate.count"), 1))
    out["shadow.scanned_per_query"] = (
        value("engine.interval_scanned")
        / max(value("engine.interval_queries"), 1))

    out["engine.fail_trace_share"] = sum(
        1 for result in results if not result.passed) / count
    out["engine.reports_per_trace"] = sum(
        len(result.reports) for result in results) / count
    out["reports.merge_ns_per_trace"] = _median_ns(
        lambda: merge_results(results)) / count
    return out
