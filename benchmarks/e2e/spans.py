"""In-memory spans recorded by the benchmark around calls into the program.

The repo's ``Tracer`` takes a lock and draws a random id per span
(about 4 us); ``replay_repeat`` rounds last well under a millisecond and
hold ten spans, so the benchmark keeps its own recorder: one list row
per span, written out as a chrome trace when the workload ends.
"""

from __future__ import annotations

import json
import os
import statistics
from statistics import median
from time import perf_counter_ns
from typing import Dict, List

#: row layout: name, start ns, end ns, parent row index (-1: none), round id
_NAME, _START, _END, _PARENT, _ROUND = range(5)


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive)."""
    return statistics.quantiles(values, n=100)[q - 1]


class _Span:
    __slots__ = ("_spans", "_name", "_row")

    def __init__(self, spans: "Spans", name: str) -> None:
        self._spans = spans
        self._name = name

    def __enter__(self) -> None:
        spans = self._spans
        stack = spans._stack
        self._row = row = [
            self._name, 0, 0, stack[-1] if stack else -1, spans.round
        ]
        stack.append(len(spans.rows))
        spans.rows.append(row)
        row[_START] = perf_counter_ns()

    def __exit__(self, *exc_info: object) -> None:
        self._row[_END] = perf_counter_ns()
        self._spans._stack.pop()


class Spans:
    """Span recorder; ``enabled`` lets hot loops skip the clock reads."""

    enabled = True

    def __init__(self) -> None:
        self.rows: List[list] = []
        self._stack: List[int] = []
        #: id shared by every span of the current round
        self.round = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def leaf(self, name: str, start_ns: int) -> None:
        """Close a childless span that began at ``start_ns``."""
        stack = self._stack
        self.rows.append(
            [name, start_ns, perf_counter_ns(),
             stack[-1] if stack else -1, self.round]
        )

    # ------------------------------------------------------------------
    def durations_ms(self, name: str) -> List[float]:
        return [
            (row[_END] - row[_START]) / 1e6
            for row in self.rows if row[_NAME] == name
        ]

    def p50_ms(self, name: str) -> float:
        """Median duration of the spans called ``name`` (0 if none)."""
        durations = self.durations_ms(name)
        return median(durations) if durations else 0.0

    def self_times(self) -> Dict[int, Dict[str, int]]:
        """Per round: span name -> summed self time in ns.

        A span's self time is its duration minus the part of it that
        its child spans cover.
        """
        rows = self.rows
        child_ns = [0] * len(rows)
        for row in rows:
            if row[_PARENT] >= 0:
                child_ns[row[_PARENT]] += row[_END] - row[_START]
        rounds: Dict[int, Dict[str, int]] = {}
        for index, row in enumerate(rows):
            if row[_ROUND] < 0:
                continue
            names = rounds.setdefault(row[_ROUND], {})
            self_ns = row[_END] - row[_START] - child_ns[index]
            names[row[_NAME]] = names.get(row[_NAME], 0) + self_ns
        return rounds

    def caller_rows(self) -> Dict[str, dict]:
        """Caller-side layer table: median per-round self time by name.

        The ``round`` row is what no child span covers: the benchmark's
        own loop, reported as ``layers.unattributed_share``.
        """
        rounds = [r for r in self.self_times().values() if "round" in r]
        walls = [sum(r.values()) for r in rounds]
        names = sorted({name for r in rounds for name in r})
        table = {}
        for name in names:
            table[name] = {
                "self_ms_p50": median(r.get(name, 0) for r in rounds) / 1e6,
                "share_p50": median(
                    r.get(name, 0) / wall for r, wall in zip(rounds, walls)
                ),
            }
        return table

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        """One ``X`` event per span; ids and the round ride in ``args``."""
        pid = os.getpid()
        origin = self.rows[0][_START] if self.rows else 0
        events = [{
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": process_name},
        }]
        for index, row in enumerate(self.rows):
            args = {"span_id": index, "round": row[_ROUND]}
            if row[_PARENT] >= 0:
                args["parent_id"] = row[_PARENT]
            events.append({
                "ph": "X", "name": row[_NAME], "pid": pid, "tid": 0,
                "ts": (row[_START] - origin) / 1e3,
                "dur": (row[_END] - row[_START]) / 1e3,
                "args": args,
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(events, handle)


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


class NoSpans:
    """The untraced run's recorder: every span is one shared no-op."""

    enabled = False
    round = -1
    _span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span
