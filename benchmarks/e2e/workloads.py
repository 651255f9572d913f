"""The six workloads: what is built in set-up, what one round does.

Every checking knob is left at this commit's defaults; a constructor
here passes only the mode-selecting arguments its workload names.  A
round's wall time runs from its first call into the program to the call
that returns the verdict; the comparison with the oracle happens after
the clock stops.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import subprocess
import sys
from statistics import median
from time import perf_counter_ns
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.client import CheckingClient
from repro.core.api import PMTestSession
from repro.core.engine import CheckingEngine
from repro.core.events import Trace
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.rules import X86Rules
from repro.core.traceio import TraceRecorder, encode_traces_binary
from repro.core.workers import WorkerPool
from repro.instr.runtime import PMRuntime
from repro.pmdk.pool import PMPool
from repro.pmem.machine import PMMachine
from repro.structures import BTree
from repro.workloads import MemcachedServer

import gen
import hygiene
from spans import NoSpans, percentile

#: recorder for code paths that are never traced (gen-time recording,
#: baselines)
_NO_SPANS = NoSpans()

#: the checkout's ``src`` directory, for the daemon's ``PYTHONPATH``
SRC_DIR = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

#: distinct inputs a workload cycles through, one per round
INPUT_LISTS = 8
MACHINE_BYTES = 16 << 20
WARMUP_ROUNDS = 10


class Round(NamedTuple):
    wall_ns: int
    events: int
    traces: int
    failed: int


class Samples:
    """What a phase of sessions collected."""

    def __init__(self) -> None:
        self.rounds: List[Round] = []
        self.baseline_ns: List[int] = []
        #: mismatches found when a long session's closing verdict was
        #: compared whole
        self.session_failed = 0
        self.wall_s = 0.0

    @property
    def walls_ms(self) -> List[float]:
        return [r.wall_ns / 1e6 for r in self.rounds]

    @property
    def attempted(self) -> int:
        return sum(r.traces for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds) + self.session_failed


class Workload:
    """Base: inputs from the seed, then sessions of rounds.

    ``session_rounds`` is 1 where the round is a whole session
    (INIT to EXIT, connect to BYE).  ``baseline_every`` is how often a
    baseline round follows a measured one: every time on the live
    workloads (the denominator of ``slowdown_x`` is the uninstrumented
    program), every fourth round on the replay workloads (there it is
    the bare reference engine on the same traces, which is steadier).
    """

    name = ""
    mode = ""
    session_rounds = 1
    baseline_every = 4
    #: open interval the counted cache hit rate must fall in, if any
    hit_rate_between: Optional[Tuple[float, float]] = None

    def __init__(self, rng: random.Random, pool_workers: int,
                 child_cpus: Sequence[int]) -> None:
        self.pool_workers = pool_workers
        #: where processes this workload starts itself are placed
        #: (forked pool workers are placed by ``hygiene.place_on_cpus``)
        self.child_cpus = set(child_cpus)
        self.oracle = gen.Oracle()
        #: filled by the first round: what the defaults resolved to
        self.resolved: Dict[str, object] = {}
        #: the daemon subprocess, where the workload has one
        self.daemon: Optional[subprocess.Popen] = None
        #: pid -> exit status of every daemon this workload stopped
        self.daemon_exit: Dict[int, int] = {}
        #: what they wrote to stderr (shown if one exits non-zero)
        self.daemon_stderr = ""
        #: facts read off the pool just before a probed round tears down
        self.probed: Dict[str, float] = {}
        #: extra constructor arguments; empty except in the traced run's
        #: counted pass, which hands in ``metrics=`` to read the cache
        #: hit rate of the real deployment
        self.extra: Dict[str, object] = {}
        #: the pool's merged registry after the counted pass
        self.counted: Optional[MetricsRegistry] = None
        #: mismatches in the closing verdict of the last long session
        self.session_failed = 0
        #: ``(traces already checked, ns)`` of idle ``drain()`` calls
        self.idle_drains: List[Tuple[int, int]] = []
        self.generate(rng)

    # -- overridden per workload ---------------------------------------
    def generate(self, rng: random.Random) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Build what outlives a session (machine, daemon)."""

    def teardown(self) -> None:
        """Stop what ``setup`` built; harmless when nothing is built."""

    def begin_session(self, rec) -> None:
        """Open a multi-round session."""

    def end_session(self, rec) -> None:
        """Close a multi-round session."""

    def round(self, index: int, rec, probe: bool = False) -> Round:
        raise NotImplementedError

    def baseline(self, index: int) -> int:
        """Wall ns of the round's work without the system under test."""
        raise NotImplementedError

    def stage_traces(self) -> Sequence[Trace]:
        """The traces of one round, for stage replay."""
        raise NotImplementedError

    def cpu_seconds(self) -> float:
        """CPU time used so far by the processes ``setup`` started."""
        return 0.0

    def own_metrics(self, rec, row_ms: Callable[[str], float],
                    per_round: Round,
                    untraced_wall_ms: float) -> Dict[str, float]:
        """Per-layer metrics only this kind of workload has.

        ``row_ms`` gives a span name's median self time per round,
        ``per_round`` the median events and traces of a round.
        """
        return {}

    # -- the measurement loop's unit -----------------------------------
    def run_session(self, rec, first_index: int, rounds: int, out: Samples,
                    probe_last: bool = False) -> None:
        """One session of ``rounds`` rounds, baselines interleaved."""
        self.begin_session(rec)
        for offset in range(rounds):
            index = first_index + offset
            probe = probe_last and offset == rounds - 1
            out.rounds.append(self.round(index, rec, probe))
            if index % self.baseline_every == 0:
                out.baseline_ns.append(self.baseline(index))
        self.end_session(rec)
        out.session_failed += self.session_failed

    def warm_up(self) -> Samples:
        """``WARMUP_ROUNDS`` rounds, verdicts checked, nothing timed."""
        out = Samples()
        if self.session_rounds == 1:
            for index in range(WARMUP_ROUNDS):
                self.run_session(_NO_SPANS, index, 1, out,
                                 probe_last=index == WARMUP_ROUNDS - 1)
        else:
            self.run_session(_NO_SPANS, 0, WARMUP_ROUNDS, out)
        return out

    def counted_pass(self) -> Tuple[float, int]:
        """One short session in the real mode with a registry handed in
        through ``metrics=``: the deployment's own cache hit rate, and
        how many task batches it sent to another process."""
        self.extra = {"metrics": MetricsRegistry(MetricsLevel.BASIC)}
        try:
            self._counted_session()
        finally:
            self.extra = {}
        value = self.counted.counter_value
        lookups = value("cache.hits") + value("cache.misses")
        hit_rate = value("cache.hits") / lookups if lookups else 0.0
        # The default (pickled) wire is counted in batches, not bytes.
        return hit_rate, value("process.batches") + value("codec.task_bytes")

    def _counted_session(self) -> None:
        self.run_session(_NO_SPANS, 0, min(self.session_rounds, 16), Samples())

    # -- shared helpers ------------------------------------------------
    def _note_pool(self, pool: WorkerPool, probe: bool) -> None:
        if not self.resolved:
            self.resolved = {
                "backend_name": pool.backend_name,
                "transport": pool.transport,
                "engine_name": pool.engine_name,
                "shadow_name": pool.shadow_name,
                "num_workers": pool.num_workers,
            }
        if self.extra:
            self.counted = pool.metrics_snapshot()
        if probe:
            counts = pool.worker_trace_counts()
            mean = sum(counts) / len(counts) if counts else 0
            self.probed = {
                "children_hwm_mb": hygiene.children_hwm_mb(),
                "worker_skew": max(counts) / mean if mean else 1.0,
                "recovery_events": float(len(pool.recovery_events)),
            }


class _SendTraceSpans:
    """Stands in for the session inside ``serve``: times ``send_trace``."""

    def __init__(self, session: PMTestSession, rec) -> None:
        self._session = session
        self._rec = rec

    def send_trace(self) -> None:
        with self._rec.span("instr.send_trace"):
            self._session.send_trace()


# ----------------------------------------------------------------------
# live workloads
# ----------------------------------------------------------------------
class _Live(Workload):
    """A program run under a session; one round is INIT to EXIT."""

    baseline_every = 1
    #: program operations per round
    ops = 0
    #: distinct op lists the rounds cycle through.  How much work an op
    #: list is depends on what was drawn (which nodes split, which keys
    #: are updated), and the median round is the median list: the more
    #: lists, the steadier the median from seed to seed.
    lists = 24

    def _session(self) -> PMTestSession:
        """The session in the workload's mode."""
        raise NotImplementedError

    def _program(self, index: int, session, rec) -> None:
        """Build the structure on ``self.machine`` and run the ops."""
        raise NotImplementedError

    def generate(self, rng: random.Random) -> None:
        self._draw_inputs(rng)
        # Record each input list once: its traces are what the oracle
        # judges and what stage replay pushes through the layers.
        self.machine = PMMachine(MACHINE_BYTES)
        self.recorded: List[List[Trace]] = []
        self.expected: List[gen.Expected] = []
        for index in range(self.lists):
            traces = self._record(index)
            for trace in traces:
                self.oracle.learn(trace)
            self.recorded.append(traces)
            self.expected.append(self.oracle.expect(traces))
        self.machine = None

    def _draw_inputs(self, rng: random.Random) -> None:
        raise NotImplementedError

    def _record(self, index: int) -> List[Trace]:
        recorder = TraceRecorder()
        session = PMTestSession(sink=recorder)
        session.thread_init()
        session.start()
        self._program(index, session, _NO_SPANS)
        session.exit()
        return recorder.traces

    def setup(self) -> None:
        # First touch of both 16 MB images belongs to set-up.
        self.machine = PMMachine(MACHINE_BYTES)

    def teardown(self) -> None:
        self.machine = None
        # Pools and runtimes sit in reference cycles; without this the
        # old images outlive the next set-up and peak RSS turns bimodal.
        gc.collect()

    def round(self, index: int, rec, probe: bool = False) -> Round:
        slot = index % self.lists
        rec.round = index
        start = perf_counter_ns()
        with rec.span("round"):
            with rec.span("backends.spawn"):
                session = self._session()
                session.thread_init()
                session.start()
            with rec.span("instr.run"):
                self._program(index, session, rec)
            with rec.span("workers.drain"):
                session.get_result()
            self._note_pool(session.pool, probe)
            with rec.span("backends.stop"):
                result = session.exit()
        wall = perf_counter_ns() - start
        rec.round = -1
        expected = self.expected[slot]
        return Round(wall, expected.events_checked, expected.traces_checked,
                     gen.mismatched_traces(result, expected))

    def baseline(self, index: int) -> int:
        start = perf_counter_ns()
        self._program(index, None, _NO_SPANS)
        return perf_counter_ns() - start

    def emit_only_ns(self, index: int) -> int:
        """The round with ``sink=TraceRecorder()``: program plus emit,
        no checking (``instr.emit_ns_per_event`` is this minus the
        baseline, per event)."""
        start = perf_counter_ns()
        self._record(index)
        return perf_counter_ns() - start

    def stage_traces(self) -> Sequence[Trace]:
        return self.recorded[0]

    def own_metrics(self, rec, row_ms, per_round, untraced_wall_ms):
        # The uninstrumented program, then program plus emit into a
        # TraceRecorder, interleaved like the measured rounds.
        base, emit = [], []
        for index in range(WARMUP_ROUNDS):
            base.append(self.baseline(index))
            emit.append(self.emit_only_ns(index))
        return {
            "instr.events_per_op": per_round.events / self.ops,
            "instr.program_ns_per_op": median(base) / self.ops,
            "instr.emit_ns_per_event": (
                (median(emit) - median(base)) / per_round.events),
            "instr.send_trace_ns_per_trace": (
                row_ms("instr.send_trace") * 1e6 / per_round.traces),
        }


class BTreeLive(_Live):
    name = "btree_live"
    mode = "library: PMTestSession() (thread backend, 1 worker)"
    ops = 50

    def _draw_inputs(self, rng: random.Random) -> None:
        self.keys = gen.btree_keys(rng, self.lists, self.ops)

    def _session(self) -> PMTestSession:
        return PMTestSession(**self.extra)

    def _program(self, index: int, session, rec) -> None:
        runtime = PMRuntime(machine=self.machine, session=session)
        tree = BTree(PMPool(runtime), value_size=64)
        if session is None:
            for key in self.keys[index % self.lists]:
                tree.insert(key)
            return
        # One trace per insert, each under the TX checkers.
        with rec.span("instr.send_trace"):
            session.send_trace()
        for key in self.keys[index % self.lists]:
            session.tx_check_start()
            tree.insert(key)
            session.tx_check_end()
            with rec.span("instr.send_trace"):
                session.send_trace()


class MemcachedLive(_Live):
    name = "memcached_live"
    mode = "pool: PMTestSession(backend='process', workers=pool_workers)"
    ops = 300
    trace_every = 10

    def _draw_inputs(self, rng: random.Random) -> None:
        self.op_lists = gen.memcached_ops(rng, self.lists, self.ops)

    def _session(self) -> PMTestSession:
        return PMTestSession(backend="process", workers=self.pool_workers,
                             **self.extra)

    def _program(self, index: int, session, rec) -> None:
        runtime = PMRuntime(machine=self.machine, session=session)
        server = MemcachedServer(PMPool(runtime))
        target = session
        if session is not None and rec.enabled:
            target = _SendTraceSpans(session, rec)
        server.serve(self.op_lists[index % self.lists], session=target,
                     trace_every=self.trace_every)


# ----------------------------------------------------------------------
# replay workloads
# ----------------------------------------------------------------------
class _Replay(Workload):
    """Pre-recorded traces pushed through a ``WorkerPool``."""

    #: traces per round
    per_round = 0

    def __init__(self, *args) -> None:
        self._reference = CheckingEngine(X86Rules(), cache=None)
        super().__init__(*args)

    def _traces(self, index: int) -> Sequence[Trace]:
        raise NotImplementedError

    def _pool(self) -> WorkerPool:
        raise NotImplementedError

    def baseline(self, index: int) -> int:
        """The bare reference engine on the round's traces."""
        check = self._reference.check_trace
        start = perf_counter_ns()
        for trace in self._traces(index):
            check(trace)
        return perf_counter_ns() - start

    def stage_traces(self) -> Sequence[Trace]:
        return self._traces(0)

    def _submit_all(self, pool, traces: Sequence[Trace], rec) -> None:
        submit = pool.submit
        if not rec.enabled:
            for trace in traces:
                submit(trace)
            return
        for trace in traces:
            start = perf_counter_ns()
            submit(trace)
            rec.leaf("workers.submit", start)


class _UniqueCorpus(_Replay):
    """``INPUT_LISTS`` rounds' worth of structurally distinct traces."""

    def generate(self, rng: random.Random) -> None:
        self.corpus = gen.unique_traces(
            rng, INPUT_LISTS * self.per_round, self.oracle)
        self.expected = [
            self.oracle.expect(self._traces(i)) for i in range(INPUT_LISTS)
        ]

    def _traces(self, index: int) -> Sequence[Trace]:
        slot = index % INPUT_LISTS
        return self.corpus[slot * self.per_round:(slot + 1) * self.per_round]


class ReplayUnique(_UniqueCorpus):
    name = "replay_unique"
    mode = "pool: WorkerPool(backend='process', num_workers=pool_workers)"
    per_round = 128
    hit_rate_between = (-0.01, 0.05)

    def _pool(self) -> WorkerPool:
        return WorkerPool(backend="process", num_workers=self.pool_workers,
                          **self.extra)

    def round(self, index: int, rec, probe: bool = False) -> Round:
        traces = self._traces(index)
        rec.round = index
        start = perf_counter_ns()
        with rec.span("round"):
            with rec.span("backends.spawn"):
                pool = self._pool()
            self._submit_all(pool, traces, rec)
            with rec.span("workers.drain"):
                pool.drain()
            self._note_pool(pool, probe)
            with rec.span("backends.stop"):
                result = pool.close()
        wall = perf_counter_ns() - start
        rec.round = -1
        expected = self.expected[index % INPUT_LISTS]
        return Round(wall, expected.events_checked, len(traces),
                     gen.mismatched_traces(result, expected))


class _LongSession(_Replay):
    """One pool for many rounds; each round ends in a ``drain()`` that
    returns everything since the pool was built."""

    def begin_session(self, rec) -> None:
        with rec.span("backends.spawn"):
            self.pool = self._pool()
        self._expected = gen.Expected()
        self.idle_drains = []

    def end_session(self, rec) -> None:
        self._note_pool(self.pool, probe=True)
        with rec.span("backends.stop"):
            result = self.pool.close()
        # The per-round checks compared only each drain's new tail;
        # the final verdict is compared whole.
        self.session_failed = gen.mismatched_traces(result, self._expected)
        del self.pool

    def round(self, index: int, rec, probe: bool = False) -> Round:
        traces = self._traces(index)
        pool = self.pool
        expected = self._expected
        verified = len(expected.reports)
        for trace in traces:
            expected.add(self.oracle.of(trace))
        rec.round = index
        start = perf_counter_ns()
        with rec.span("round"):
            self._submit_all(pool, traces, rec)
            with rec.span("workers.drain"):
                result = pool.drain()
        wall = perf_counter_ns() - start
        rec.round = -1
        if rec.enabled and index % 16 == 0:
            # Nothing is queued now: this drain only re-merges.
            start = perf_counter_ns()
            pool.drain()
            self.idle_drains.append(
                (expected.traces_checked, perf_counter_ns() - start))
        events = sum(len(trace) for trace in traces)
        return Round(wall, events, len(traces),
                     gen.mismatched_traces(result, expected, verified))


class ReplayRepeat(_LongSession):
    name = "replay_repeat"
    mode = "library inline: WorkerPool(num_workers=0)"
    session_rounds = 1000
    per_round = 8
    hit_rate_between = (0.95, 1.01)

    def generate(self, rng: random.Random) -> None:
        self.corpus = gen.repeat_traces(
            rng, self.session_rounds * self.per_round, self.oracle)

    def _traces(self, index: int) -> Sequence[Trace]:
        slot = index % self.session_rounds
        return self.corpus[slot * self.per_round:(slot + 1) * self.per_round]

    def _pool(self) -> WorkerPool:
        return WorkerPool(num_workers=0, **self.extra)

    def stage_traces(self) -> Sequence[Trace]:
        return self.corpus[:128]


class ReplayLarge(_LongSession):
    name = "replay_large"
    mode = "pool: WorkerPool(backend='process', num_workers=pool_workers)"
    session_rounds = 50
    per_round = 1

    def generate(self, rng: random.Random) -> None:
        self.corpus = gen.large_traces(rng, self.session_rounds, self.oracle)

    def _traces(self, index: int) -> Sequence[Trace]:
        slot = index % self.session_rounds
        return self.corpus[slot:slot + 1]

    def _pool(self) -> WorkerPool:
        return WorkerPool(backend="process", num_workers=self.pool_workers,
                          **self.extra)

    def stage_traces(self) -> Sequence[Trace]:
        return self.corpus[:2]


class DaemonSessions(_UniqueCorpus):
    name = "daemon_sessions"
    mode = ("daemon over UDS: CheckingClient(batch_size=8) to "
            "'python -m repro serve --uds ... --workers 0'")
    per_round = 64
    batch_size = 8

    def generate(self, rng: random.Random) -> None:
        super().generate(rng)
        self.sheds = 0

    def setup(self) -> None:
        # Relative to the run directory, which is the working directory
        # here and in the daemon: the path stays short however deep
        # the checkout is.
        self.uds = "./daemon.sock"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--uds", self.uds,
             "--workers", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        os.sched_setaffinity(self.daemon.pid, self.child_cpus)
        line = self.daemon.stdout.readline()
        if not line.startswith("listening on"):
            self.daemon.kill()
            self.daemon.wait()
            raise RuntimeError(f"daemon did not come up: {line!r}")
        self.resolved = {"daemon_pid": self.daemon.pid, "uds": self.uds}

    def teardown(self) -> None:
        daemon = self.daemon
        if daemon is None:
            return
        daemon.send_signal(signal.SIGTERM)
        try:
            _, errors = daemon.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            _, errors = daemon.communicate()
        self.daemon_exit[daemon.pid] = daemon.returncode
        self.daemon_stderr += errors
        self.daemon = None

    def round(self, index: int, rec, probe: bool = False) -> Round:
        traces = self._traces(index)
        batch = self.batch_size
        rec.round = index
        start = perf_counter_ns()
        with rec.span("round"):
            with rec.span("daemon.connect"):
                client = CheckingClient(self.uds, batch_size=batch)
            if rec.enabled:
                for position, trace in enumerate(traces, 1):
                    begin = perf_counter_ns()
                    client.submit(trace)
                    # Every ``batch``-th submit ships a frame and waits
                    # for its ack; the others only buffer.
                    rec.leaf("daemon.flush" if position % batch == 0
                             else "daemon.submit", begin)
            else:
                for trace in traces:
                    client.submit(trace)
            with rec.span("daemon.drain"):
                result = client.close()
        wall = perf_counter_ns() - start
        rec.round = -1
        self.sheds += client.sheds_seen
        expected = self.expected[index % INPUT_LISTS]
        return Round(wall, expected.events_checked, len(traces),
                     gen.mismatched_traces(result, expected))

    def cpu_seconds(self) -> float:
        return hygiene.cpu_seconds(self.daemon.pid)

    def _counted_session(self) -> None:
        # The server checks each session on a private inline pool and
        # keeps its registry: count on a twin of that pool.
        self.inline_ns(0)

    def own_metrics(self, rec, row_ms, per_round, untraced_wall_ms):
        traces = self.stage_traces()
        batch = self.batch_size
        frame_bytes = sum(
            len(encode_traces_binary(traces[i:i + batch]))
            for i in range(0, len(traces), batch))
        inline = [self.inline_ns(i) for i in range(WARMUP_ROUNDS)]
        return {
            "daemon.connect_ms_p50": rec.p50_ms("daemon.connect"),
            "daemon.flush_rtt_ms_p50": rec.p50_ms("daemon.flush"),
            "daemon.flush_rtt_ms_p90": percentile(
                rec.durations_ms("daemon.flush"), 90),
            "daemon.drain_ms_p50": rec.p50_ms("daemon.drain"),
            "daemon.frame_bytes_per_event": (
                frame_bytes / sum(len(t) for t in traces)),
            "daemon.sheds": float(self.sheds),
            "daemon.overhead_x": untraced_wall_ms / (median(inline) / 1e6),
        }

    def inline_ns(self, index: int) -> int:
        """The same session through an inline ``WorkerPool``: the
        denominator of ``daemon.overhead_x``."""
        traces = self._traces(index)
        start = perf_counter_ns()
        pool = WorkerPool(num_workers=0, **self.extra)
        for trace in traces:
            pool.submit(trace)
        pool.drain()
        self._note_pool(pool, probe=False)
        pool.close()
        return perf_counter_ns() - start


WORKLOADS = {
    cls.name: cls
    for cls in (BTreeLive, MemcachedLive, ReplayUnique, ReplayRepeat,
                ReplayLarge, DaemonSessions)
}
