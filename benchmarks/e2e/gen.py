"""Seeded input generators and the verdict oracle.

Everything the program under test sees is built here from ``--seed``:
recorded traces for the replay workloads, op lists for the live ones.
Each generated trace carries the reports a standalone
``CheckingEngine(X86Rules(), cache=None)`` produces for it, which is
the oracle every round's verdict is compared against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.canon import canonicalize
from repro.core.engine import CheckingEngine, coalesce_events
from repro.core.events import Event, Op, SourceSite, Trace
from repro.core.reports import Report, ReportCode, TestResult
from repro.core.rules import X86Rules
from repro.workloads import ycsb_ops

#: events in every ``replay_unique`` trace; fixed so that rounds of
#: different traces carry the same amount of work
UNIQUE_EVENTS = 80
#: one ``replay_unique`` trace in this many has an injected bug
BUG_EVERY = 8

_SIZES = (8, 16, 24, 32, 48, 64, 96, 128)
_SITES = [
    SourceSite("unique_tx.c", line, fn)
    for line, fn in ((31, "tx_update"), (47, "tx_publish"),
                     (62, "flush_obj"), (88, "check_obj"))
]
_REPEAT_SITE = SourceSite("repeat_tx.c", 42, "tx_insert")
_LARGE_SITE = SourceSite("bulk_store.c", 17, "bulk_store")


@dataclass
class Expected:
    """What the oracle says a sequence of traces must produce."""

    traces_checked: int = 0
    events_checked: int = 0
    checkers_evaluated: int = 0
    reports: List[Report] = field(default_factory=list)

    def add(self, result: TestResult) -> None:
        self.traces_checked += result.traces_checked
        self.events_checked += result.events_checked
        self.checkers_evaluated += result.checkers_evaluated
        self.reports.extend(result.reports)


class Oracle:
    """Per-trace expected results from an uncached reference engine."""

    def __init__(self) -> None:
        self._engine = CheckingEngine(X86Rules(), cache=None)
        self._by_trace: Dict[int, TestResult] = {}

    def learn(self, trace: Trace) -> TestResult:
        result = self._engine.check_trace(trace)
        self._by_trace[id(trace)] = result
        return result

    def of(self, trace: Trace) -> TestResult:
        return self._by_trace[id(trace)]

    def expect(self, traces: Sequence[Trace]) -> Expected:
        expected = Expected()
        for trace in traces:
            expected.add(self._by_trace[id(trace)])
        return expected


def mismatched_traces(result: TestResult, expected: Expected,
                      skip_reports: int = 0) -> int:
    """Traces whose verdict is missing, duplicated or differs.

    ``skip_reports`` leading reports were already verified by an earlier
    call on the same growing session (cumulative drains): only the tail
    is compared, against the tail of ``expected.reports``.
    """
    bad = abs(result.traces_checked - expected.traces_checked)
    got_tail = result.reports[skip_reports:]
    want_tail = expected.reports[skip_reports:]
    if got_tail != want_tail:
        got = _by_trace_id(got_tail)
        want = _by_trace_id(want_tail)
        bad += sum(
            1 for tid in got.keys() | want.keys()
            if got.get(tid) != want.get(tid)
        )
    elif (result.events_checked != expected.events_checked
          or result.checkers_evaluated != expected.checkers_evaluated):
        bad += 1
    return bad


def _by_trace_id(reports: Sequence[Report]) -> Dict[int, List[Report]]:
    grouped: Dict[int, List[Report]] = {}
    for report in reports:
        grouped.setdefault(report.trace_id, []).append(report)
    return grouped


# ----------------------------------------------------------------------
# replay_unique / daemon_sessions: structurally distinct small traces
# ----------------------------------------------------------------------
def _unique_trace(rng: random.Random, trace_id: int,
                  bug: bool) -> Tuple[Trace, Optional[int]]:
    """One ``UNIQUE_EVENTS``-event trace with a drawn structure.

    Blocks are PMDK-style transactions (``TX_ADD``, one or two writes
    per object, whole or two-part flushes, one fence) separated by
    ``isOrderedBefore`` checks across blocks and padded with
    ``isPersist`` checks.  With ``bug`` the flush of one object is left
    out and an ``isPersist`` on it follows; its position is returned.
    """
    trace = Trace(trace_id)
    add = trace.append
    base = 0x10000 * rng.randrange(1, 1 << 16)
    cursor = base
    persisted: List[Tuple[int, int]] = []
    bug_seq: Optional[int] = None
    # The largest block is 20 events; at least two closing checks follow.
    while len(trace) <= UNIQUE_EVENTS - 22:
        count = rng.randrange(1, 4)
        objs = []
        for _ in range(count):
            size = rng.choice(_SIZES)
            objs.append((cursor, size))
            cursor += size + rng.choice((0, 64, 192))
        site = rng.choice(_SITES)
        add(Event(Op.TX_BEGIN, site=site))
        for addr, size in objs:
            add(Event(Op.TX_ADD, addr, size, site=site))
            if size >= 16 and rng.random() < 0.5:
                add(Event(Op.WRITE, addr, 8, site=site))
                add(Event(Op.WRITE, addr + 8, size - 8, site=site))
            else:
                add(Event(Op.WRITE, addr, size, site=site))
        skip = rng.randrange(count) if bug and bug_seq is None else -1
        for index, (addr, size) in enumerate(objs):
            if index == skip:
                continue
            if size >= 16 and rng.random() < 0.3:
                half = size // 2
                add(Event(Op.CLWB, addr, half, site=site))
                add(Event(Op.CLWB, addr + half, size - half, site=site))
            else:
                add(Event(Op.CLWB, addr, size, site=site))
        add(Event(Op.SFENCE, site=site))
        add(Event(Op.TX_END, site=site))
        if skip >= 0:
            addr, size = objs[skip]
            bug_seq = len(trace)
            add(Event(Op.CHECK_PERSIST, addr, size, site=_SITES[3]))
            objs.pop(skip)
        if persisted and objs and rng.random() < 0.6:
            a_addr, a_size = rng.choice(persisted)
            b_addr, b_size = rng.choice(objs)
            add(Event(Op.CHECK_ORDER, a_addr, a_size, b_addr, b_size,
                      site=_SITES[3]))
        persisted.extend(objs)
    while len(trace) < UNIQUE_EVENTS:
        addr, size = rng.choice(persisted)
        add(Event(Op.CHECK_PERSIST, addr, size, site=_SITES[3]))
    return trace, bug_seq


def unique_traces(rng: random.Random, count: int,
                  oracle: Oracle) -> List[Trace]:
    """``count`` traces with pairwise distinct canonical fingerprints.

    Every ``BUG_EVERY``-th trace has a missing flush; the oracle must
    report it as ``not-persisted`` at the injected position and report
    no failure anywhere else, or generation itself fails.
    """
    traces: List[Trace] = []
    seen = set()
    while len(traces) < count:
        trace_id = len(traces)
        bug = trace_id % BUG_EVERY == BUG_EVERY - 1
        trace, bug_seq = _unique_trace(rng, trace_id, bug)
        events, _ = coalesce_events(trace.events)
        fingerprint = canonicalize(events).fingerprint
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        result = oracle.learn(trace)
        # A two-write object fails once per segment, at the same check.
        failures = {(r.code, r.seq) for r in result.failures}
        want = {(ReportCode.NOT_PERSISTED, bug_seq)} if bug else set()
        if failures != want:
            raise AssertionError(
                f"generator/oracle disagree on trace {trace_id}: "
                f"injected {want}, oracle found {failures}"
            )
        traces.append(trace)
    return traces


# ----------------------------------------------------------------------
# replay_repeat: one skeleton at distinct bases
# ----------------------------------------------------------------------
def repeat_traces(rng: random.Random, count: int, oracle: Oracle,
                  tx_per_trace: int = 10) -> List[Trace]:
    """Structurally identical TX traces relocated to drawn bases.

    All share one canonical fingerprint, so after the first every one
    is a verdict-cache hit.  The epilogue has a dead write (coalescing)
    and a duplicate flush, whose warning cites addresses: every hit has
    a report to relocate.
    """
    site = _REPEAT_SITE
    bases = rng.sample(range(1, 1 << 20), count)
    traces = []
    for trace_id, slot in enumerate(bases):
        base = 0x100000 * slot
        trace = Trace(trace_id)
        add = trace.append
        add(Event(Op.TX_CHECK_START, site=site))
        add(Event(Op.TX_BEGIN, site=site))
        for i in range(tx_per_trace):
            node = base + i * 0x100
            add(Event(Op.TX_ADD, node, 64, site=site))
            add(Event(Op.WRITE, node, 8, site=site))
            add(Event(Op.WRITE, node + 8, 56, site=site))
            add(Event(Op.CLWB, node, 64, site=site))
            add(Event(Op.SFENCE, site=site))
        add(Event(Op.TX_END, site=site))
        add(Event(Op.TX_CHECK_END, site=site))
        header = base + tx_per_trace * 0x100
        add(Event(Op.WRITE, header, 8, site=site))
        add(Event(Op.WRITE, header, 64, site=site))
        add(Event(Op.CLWB, header, 64, site=site))
        add(Event(Op.CLWB, header, 64, site=site))
        add(Event(Op.SFENCE, site=site))
        add(Event(Op.CHECK_PERSIST, header, 64, site=site))
        oracle.learn(trace)
        traces.append(trace)
    return traces


# ----------------------------------------------------------------------
# replay_large: interval-heavy traces
# ----------------------------------------------------------------------
def large_traces(rng: random.Random, count: int, oracle: Oracle,
                 epochs: int = 32, writes: int = 128, checks: int = 32,
                 bases: int = 16) -> List[Trace]:
    """Interval-heavy traces: ``epochs`` x (a ``writes``-store run, one
    wide ``CLWB``, ``SFENCE``, ``checks`` strided ``isPersist``).

    The base of each epoch is drawn, so earlier epochs stay live in the
    shadow, queries scan real segment populations, and no two traces
    share a canonical form (the verdict cache cannot answer them).
    """
    site = _LARGE_SITE
    span = writes * 8 // checks
    traces = []
    for trace_id in range(count):
        trace = Trace(trace_id)
        add = trace.append
        for _ in range(epochs):
            base = 0x10000 + rng.randrange(bases) * 0x8000
            for k in range(writes):
                add(Event(Op.WRITE, base + k * 8, 8, site=site))
            add(Event(Op.CLWB, base, writes * 8))
            add(Event(Op.SFENCE))
            for k in range(checks):
                add(Event(Op.CHECK_PERSIST, base + k * span, span))
        oracle.learn(trace)
        traces.append(trace)
    return traces


# ----------------------------------------------------------------------
# live workloads: op lists
# ----------------------------------------------------------------------
def btree_keys(rng: random.Random, lists: int, inserts: int) -> List[List[int]]:
    """``lists`` key sequences of ``inserts`` distinct keys each."""
    return [rng.sample(range(1, 1 << 30), inserts) for _ in range(lists)]


def memcached_ops(rng: random.Random, lists: int, ops: int) -> List[list]:
    """``lists`` YCSB-A op streams (50 % update, zipfian keys)."""
    return [
        list(ycsb_ops(ops, key_space=ops // 4, seed=rng.randrange(1 << 30)))
        for _ in range(lists)
    ]
