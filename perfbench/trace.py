"""In-memory tracing for the benchmark's traced passes.

Spans are recorded at layer boundaries: around the benchmark's own calls
into the harness, and around the public functions of each layer, which
:meth:`Tracer.wrap` swaps in at the module attribute the caller looks them
up by, only while tracing is on. Spark's stage metrics are read per job
group after each query, outside every span.
"""
from __future__ import annotations

import re
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from py4j.protocol import Py4JJavaError


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    query: str
    mode: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts of the traced passes. Off until :meth:`on`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.query = ""
        self.mode = ""
        self.group = ""  # the Spark job group of the current query
        self._stack: list[Span] = []
        self._wrapped: list[tuple[object, str, object, object]] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        sp = Span(
            len(self.spans), name, self._stack[-1].id if self._stack else None,
            self.query, self.mode, time.perf_counter(),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None, probe=None) -> None:
        """Trace every call of ``module.attr`` as a span ``name`` while on.

        ``count(span, args, kwargs, result)`` records counts on the span.
        ``probe`` is a ``(key, fn)`` pair: ``fn()`` is read before and after
        the call, each time inside a ``trace`` span so that the probe's cost
        is not charged to the layer, and the difference is recorded as the
        count ``key``."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            if probe:
                with self.span("trace"):
                    before = probe[1]()
            with self.span(name) as sp:
                out = original(*args, **kwargs)
            if count:
                count(sp, args, kwargs, out)
            if probe:
                with self.span("trace"):
                    sp.counts[probe[0]] = probe[1]() - before
            return out

        self._wrapped.append((module, attr, original, traced))

    @contextmanager
    def on(self):
        for module, attr, _, traced in self._wrapped:
            setattr(module, attr, traced)
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            for module, attr, original, _ in self._wrapped:
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    out = {sp.id: sp.seconds for sp in spans}
    for sp in spans:
        if sp.parent is not None and sp.parent in out:
            out[sp.parent] -= sp.seconds
    return out


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span below it (spans are recorded in start order)."""
    ids = {root.id}
    out = [root]
    for sp in spans[root.id + 1:]:
        if sp.parent in ids:
            ids.add(sp.id)
            out.append(sp)
    return out


# ------------------------------------------------------- Spark job metrics
_EXCHANGE = re.compile(r"\bExchange\b")


def exchanges(df) -> int:
    """Shuffle exchanges in the DataFrame's (already planned) physical plan."""
    return len(_EXCHANGE.findall(df._jdf.queryExecution().executedPlan().toString()))


class StageMetrics:
    """Task time, tasks, stages and shuffle bytes of one job group, read
    from Spark's status store once its jobs have finished."""

    def __init__(self, spark) -> None:
        self._tracker = spark.sparkContext.statusTracker()
        self._store = spark.sparkContext._jsc.sc().statusStore()

    def jobs(self, group: str) -> list[int]:
        return list(self._tracker.getJobIdsForGroup(group))

    def read(self, group: str, timeout: float = 5.0) -> dict:
        jobs = self.jobs(group)
        deadline = time.perf_counter() + timeout
        out = defaultdict(float)
        out["jobs"] = len(jobs)
        stage_ids = set()
        for jid in jobs:
            info = self._tracker.getJobInfo(jid)
            while info is not None and info.status == "RUNNING" and time.perf_counter() < deadline:
                time.sleep(0.005)
                info = self._tracker.getJobInfo(jid)
            if info is not None:
                stage_ids.update(info.stageIds)
        for sid in sorted(stage_ids):
            data = self._stage(sid, deadline)
            if data is None or str(data.status()) != "COMPLETE":
                continue  # skipped: its shuffle output was reused
            out["stages"] += 1
            out["tasks"] += data.numCompleteTasks()
            out["busy_s"] += data.executorRunTime() / 1e3
            out["shuffle_mb"] += data.shuffleWriteBytes() / 2**20
        return dict(out)

    def _stage(self, sid: int, deadline: float):
        while True:
            try:
                data = self._store.lastStageAttempt(sid)
            except Py4JJavaError:
                return None  # never attempted
            if str(data.status()) != "ACTIVE" or time.perf_counter() > deadline:
                return data
            time.sleep(0.005)
