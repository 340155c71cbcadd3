"""In-memory spans around the calls into each layer of ``repro``.

``Tracer`` replaces a fixed set of functions *where they are looked up*
(the module attribute the caller reads at call time) with wrappers that
record one ``Span`` per call. Recursive calls, such as the sub-query
``run_query`` calls, therefore nest as child spans. Each wrapper also
sets a Spark job group of its own and restores the parent's group on
exit, so every Spark job is charged to the innermost open span.

Nothing inside ``repro`` is changed: the wrappers live here and are
removed again when the ``with`` block ends.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core import executor, strategies, transfer

#: (module, attribute, span name). The span name is ``<layer>.<function>``,
#: the layer being the module that defines the function.
WRAPS = (
    (strategies, "run_query", "strategies.run_query"),
    (strategies, "_count_all", "strategies.count_all"),
    (strategies, "_bloom_join_step_blooms", "strategies.bloom_join_step_blooms"),
    (strategies, "predicate_transfer", "transfer.predicate_transfer"),
    (strategies, "yannakakis_reduce", "semijoin.yannakakis_reduce"),
    (strategies, "execute_join_phase", "executor.execute_join_phase"),
    (strategies, "build_blooms", "bloom.build_blooms"),
    (transfer, "build_blooms", "bloom.build_blooms"),
    (transfer, "apply_blooms", "bloom.apply_blooms"),
    (executor, "apply_blooms", "bloom.apply_blooms"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    run: int  # id of the outermost run_query span this span belongs to
    group: str  # Spark job group the span's own jobs ran under
    start: float
    end: float = 0.0
    #: Facts read from the call's arguments and result (see ``_record``).
    info: Dict[str, Any] = field(default_factory=dict)
    jobs: int = 0
    tasks: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _record(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    """Keep what the per-layer metrics need from one call."""
    fn = span.name.split(".", 1)[1]
    if fn == "run_query":
        span.info["strategy"] = args[2] if len(args) > 2 else kwargs["strategy"]
    elif fn == "build_blooms":
        span.info["filters"] = list(result)
    elif fn == "apply_blooms":
        span.info["filters"] = len(args[1])
    elif fn == "yannakakis_reduce":
        _reduced, tree = result
        n = 0
        for child in tree.bfs_order[1:]:
            parent, e = tree.parent[child]
            n += e.can_transfer_from(child) + e.can_transfer_from(parent)
        span.info["semi_joins"] = n


class Tracer:
    """Records spans while installed (``with tracer: ...``); ``spans``
    holds them in call order."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._saved: List[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attr, name in WRAPS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _set_group(self, group: Optional[str], desc: str = "") -> None:
        if group is None:  # outside every span: no job group
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(group, desc)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            span = Span(
                id=sid,
                name=name,
                parent=parent.id if parent else None,
                run=parent.run if parent else sid,
                group=f"perfbench-{sid}",
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._stack.append(span)
            self._set_group(span.group, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._set_group(parent.group if parent else None)
            _record(span, args, kwargs, result)
            return result

        return wrapper

    def count_jobs(self, first: int = 0) -> None:
        """Charge finished Spark jobs and tasks to the spans from index
        ``first`` on, each job to its span's group.

        Waits for Spark's listener bus to drain first, so that the status
        store has seen the end of every job and stage it is asked about.
        A stage is listed by every job that depends on it, so each stage
        is counted once, for the first job that lists it; a stage that was
        skipped there because its shuffle output already existed adds no
        completed tasks.
        """
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        owner: Dict[int, Span] = {}
        for span in self.spans[first:]:
            job_ids = tracker.getJobIdsForGroup(span.group)
            span.jobs, span.tasks = len(job_ids), 0
            owner.update((jid, span) for jid in job_ids)
        seen = set()
        for jid in sorted(owner):
            job = tracker.getJobInfo(jid)
            for sid in job.stageIds if job else ():
                stage = None if sid in seen else tracker.getStageInfo(sid)
                seen.add(sid)
                if stage is not None:
                    owner[jid].tasks += stage.numCompletedTasks

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover.

        Calls into ``repro`` are synchronous, so children never overlap
        and their durations can simply be subtracted.
        """
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def to_json(self) -> List[dict]:
        """Spans as plain records, for writing out when the run ends."""
        out = []
        for s in self.spans:
            info = {k: v for k, v in s.info.items() if k in ("strategy", "semi_joins")}
            if "filters" in s.info:
                f = s.info["filters"]
                info["filters"] = f if isinstance(f, int) else len(f)
            out.append(
                {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "run": s.run,
                    "start": s.start,
                    "end": s.end,
                    "jobs": s.jobs,
                    "tasks": s.tasks,
                    **info,
                }
            )
        return out
