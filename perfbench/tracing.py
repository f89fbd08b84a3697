"""Spans and counters recorded around the repository's layers.

Nothing here edits ``src/``: :class:`Tracer` wraps public functions of
``repro.core.chi``, ``repro.core.executor`` and ``repro.core.verify`` in
place for the life of one benchmark run and restores them afterwards.

- **Counters** are always on. They count work at each layer boundary
  (masks gathered from the CHI, masks handed to a verification scan,
  CHIs added) without reading the clock, so an untraced run pays one
  Python call per wrapped call and nothing else.
- **Spans** are recorded only when the tracer is created with
  ``spans=True``: name, start, end, parent span and query id, kept in
  memory and written out with :meth:`Tracer.dump` when the run ends.

A layer's self time is its span's duration minus the part of it that its
child spans cover (:func:`self_times`).

Spark work inside a query is counted from outside, through the job group
the benchmark sets per query and ``SparkContext.statusTracker()``
(:func:`spark_job_counts`): the verification scans run the ``maskstore``
reader inside Spark's Python workers, which driver-side spans cannot see.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

#: (owner path, attribute, span name, counter hook name). Owners are
#: resolved lazily so importing this module imports nothing from src/.
WRAPPED = (
    ("repro.core.chi:ChiIndex", "load", "chi.load", None),
    ("repro.core.chi:ChiIndex", "gather", "chi.gather", "gather"),
    ("repro.core.chi:ChiIndex", "add", "chi.add", "add"),
    ("repro.core.executor", "cp_bounds_batch", "bounds", "bounds"),
    ("repro.core.executor:MaskSearchEngine", "target", "executor.target", None),
    ("repro.core.verify", "exact_cp_pdf", "verify.cp", "verify"),
    ("repro.core.verify", "exact_maskagg_pdf", "verify.maskagg", "verify"),
    ("repro.core.verify", "exact_cp_and_chi", "verify.cp_chi", "verify"),
)


def _resolve(path: str):
    import importlib

    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


def _meta_arg(args, kwargs):
    """The ``meta`` frame of a ``verify.*`` call: (spark, store, meta, ...)."""
    return kwargs["meta"] if "meta" in kwargs else args[2]


class Tracer:
    """Counters (always) and spans (optional) for one benchmark run."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.spans: list[list] = []  # [name, start, end, parent, query_id]
        self._stack: list[int] = []
        self.query_id: int | None = None
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        if not self.spans_on:
            yield
            return
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.query_id]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- counters ---------------------------------------------------------
    def _count(self, hook: str, args, kwargs) -> None:
        c = self.counts
        if hook == "gather":
            c["chi.gathered_masks"] += len(args[1])
        elif hook == "add":
            n = len(args[1])
            if n:
                c["chi.add_calls"] += 1
                c["chi.added_masks"] += n
        elif hook == "bounds":
            c["bounds.masks"] += len(args[0])
        elif hook == "verify":
            n = len(_meta_arg(args, kwargs))
            c["verify.masks_requested"] += n
            c["verify.calls"] += n > 0

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for owner_path, attr, name, hook in WRAPPED:
            owner = _resolve(owner_path)
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, raw, name: str, hook: str | None):
        is_cls = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cls else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                self._count(hook, args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return classmethod(wrapper) if is_cls else wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p, "query": q}
                    for n, s, e, p, q in self.spans
                ],
                f,
            )


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its children's cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, s, e, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((s, e))
    return [
        (e - s) - _covered(children.get(i, []))
        for i, (name, s, e, parent, _) in enumerate(spans)
    ]


def spark_job_counts(sc, group: str) -> tuple[int, int]:
    """(jobs, tasks) Spark ran under job group ``group``."""
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    tasks = 0
    for jid in jobs:
        info = tracker.getJobInfo(jid)
        for sid in info.stageIds if info else ():
            stage = tracker.getStageInfo(sid)
            tasks += stage.numTasks if stage else 0
    return len(jobs), tasks
