"""Span recorder and per-layer aggregation for traced benchmark runs.

Instrumentation wraps the public functions of each ``pierihom`` module at
the name its caller looks it up (a module global or a class attribute),
so the package itself is not edited.  Every wrapped call becomes a span:
name, start, end, parent span, thread and the instance being solved.
Spans stay in memory and are written as JSONL when the run ends.  A
span's self time is its duration minus the time its child spans cover;
children always run on the parent's thread, nested inside it.

``lu_decompose`` is only counted: a span there would move the LU time
out of ``solve_linear``'s self time.
"""
from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(slots=True)
class Span:
    sid: int
    parent: int  # 0 at the top of a thread
    name: str
    start: float
    end: float
    thread: str
    instance: str | None
    info: dict[str, Any] | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and plain call counts from any thread.

    ``list.append`` and ``next`` on ``itertools.count`` are atomic in
    CPython, so worker threads record without a lock; each thread keeps
    its own stack of open spans for parent links.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: list[str] = []
        self.instance: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             measure: Callable[[tuple, dict, Any], dict] | None = None) -> Callable:
        """A span-recording stand-in for ``fn``; ``measure`` adds span info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            info = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                info = {"error": type(exc).__name__}
                raise
            else:
                if measure is not None:
                    info = measure(args, kwargs, out)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(
                    sid, parent, name, start, end,
                    threading.current_thread().name, self.instance, info,
                ))

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts.append(name)
            return fn(*args, **kwargs)

        return counted

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span, gzip-compressed (a traced run of
        collide-w1 records about 570k spans)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "thread": s.thread,
                    "instance": s.instance, **({"info": s.info} if s.info else {}),
                }, separators=(",", ":")) + "\n")


# ----------------------------------------------------------- instrumentation


def _minors(args, kwargs, out) -> dict:
    return {"minors": len(out)}


def _path(args, kwargs, out) -> dict:
    return {"steps": out.steps_used, "newton": out.newton_iters_total,
            "converged": out.status == "converged"}


def _edge(args, kwargs, out) -> dict:
    return {"steps": out.steps_used, "arc": out.arc_used}


def _dispatch_wait(log: list[dict], results) -> float:
    """Seconds from enqueue (or, for static runs, dispatch) to start."""
    queued: dict = {}
    for ev in log:
        if ev["event"] in ("enqueue", "dispatch"):
            queued.setdefault(ev["job_id"], ev["time"])
    return sum(r.started - queued[r.job_id] for r in results)


def _scheduler(caller: str, rec: Recorder, fn: Callable) -> Callable:
    """Span a scheduler entry point, passing an event log if none was given.

    The log's enqueue (or dispatch) times against each ResultMessage's
    ``started`` give the dispatch wait.
    """

    def measure(args, kwargs, out) -> dict:
        source, workers, log = args
        return {
            "caller": caller,
            "workers": workers,
            "jobs": len(out),
            "busy": sum(r.duration for r in out),
            "wait": _dispatch_wait(log, out),
            "retracked": len(getattr(source, "retracked_edges", ())),
        }

    spanned = rec.wrap("scheduler.run", fn, measure)

    @functools.wraps(fn)
    def with_log(source, workers, event_log=None):
        return spanned(source, workers, [] if event_log is None else event_log)

    return with_log


def install(rec: Recorder) -> Callable[[], None]:
    """Patch every layer boundary; returns the function that undoes it."""
    from pierihom import engine, linalg, polysys, tracker

    patches: list[tuple[Any, str, Callable]] = [
        (engine, "cofactors_at",
         rec.wrap("linalg.cofactors_at", engine.cofactors_at, _minors)),
        (tracker, "solve_linear", rec.wrap("linalg.solve_linear", tracker.solve_linear)),
        (linalg, "lu_decompose", rec.count("linalg.lu_decompose", linalg.lu_decompose)),
        (engine, "lu_decompose", rec.count("linalg.lu_decompose", engine.lu_decompose)),
        (engine, "track_path", rec.wrap("tracker.track_path", engine.track_path, _path)),
        (tracker, "track_path", rec.wrap("tracker.track_path", tracker.track_path, _path)),
        (engine, "run_dynamic", _scheduler("engine", rec, engine.run_dynamic)),
        (tracker, "run_static", _scheduler("tracker", rec, tracker.run_static)),
        (engine, "increments", rec.wrap("patterns.increments", engine.increments)),
        (engine, "count_paths", rec.wrap("patterns.count_paths", engine.count_paths)),
        (engine.EdgeTask, "run", rec.wrap("engine.edge_task", engine.EdgeTask.run, _edge)),
        (engine.PieriTreeSource, "on_result",
         rec.wrap("engine.master.on_result", engine.PieriTreeSource.on_result)),
    ]
    for method in ("eval", "jacobian_x", "dt"):
        patches.append((engine.EdgeHomotopy, method, rec.wrap(
            f"engine.homotopy.{method}", getattr(engine.EdgeHomotopy, method))))
        patches.append((polysys.Homotopy, method, rec.wrap(
            f"polysys.homotopy.{method}", getattr(polysys.Homotopy, method))))
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    for owner, attr, stand_in in patches:
        setattr(owner, attr, stand_in)

    def uninstall() -> None:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return uninstall


# -------------------------------------------------------------- aggregation

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("linalg.solve_linear.calls", "count", "lower"),
    ("linalg.solve_linear.self_s", "s", "lower"),
    ("linalg.solve_linear.singular", "count", "lower"),
    ("linalg.cofactors_at.calls", "count", "lower"),
    ("linalg.cofactors_at.minors", "count", "lower"),
    ("linalg.cofactors_at.self_s", "s", "lower"),
    ("linalg.lu_decompose.calls", "count", "lower"),
    *[(f"{layer}.homotopy.{m}.{k}", unit, "lower")
      for layer in ("engine", "polysys")
      for m in ("eval", "jacobian_x", "dt")
      for k, unit in (("calls", "count"), ("self_s", "s"))],
    ("tracker.track_path.calls", "count", "lower"),
    ("tracker.track_path.self_s", "s", "lower"),
    ("tracker.steps", "count", "lower"),
    ("tracker.newton_iters", "count", "lower"),
    ("tracker.converged_share", "ratio", "higher"),
    ("engine.edge_task.calls", "count", "lower"),
    ("engine.edge_task.busy_s", "s", "lower"),
    ("engine.edge_task.steps", "count", "lower"),
    ("engine.edge_task.detours", "count", "lower"),
    ("engine.edge_task.share", "ratio", "lower"),
    ("engine.tree_walks", "count", "lower"),
    ("engine.master.on_result.self_s", "s", "lower"),
    ("engine.master.retrack.calls", "count", "lower"),
    ("engine.master.retrack.s", "s", "lower"),
    ("engine.master.retrack.share", "ratio", "lower"),
    ("engine.master.retracked_edges", "count", "lower"),
    ("scheduler.jobs", "count", "lower"),
    ("scheduler.run.wall_s", "s", "lower"),
    ("scheduler.worker_busy_s", "s", "lower"),
    ("scheduler.utilization", "ratio", "higher"),
    ("scheduler.dispatch_wait_s", "s", "lower"),
    ("patterns.self_s", "s", "lower"),
    ("engine.verify.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def per_layer(rec: Recorder, traced_wall: float, untraced_wall: float,
              verify_s: float) -> dict[str, float]:
    """Fold the recorded spans into the PER_LAYER metrics."""
    by_id = {s.sid: s for s in rec.spans}
    covered: dict[int, float] = defaultdict(float)
    for s in rec.spans:
        if s.parent:
            covered[s.parent] += s.duration
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    info_sum: Counter = Counter()
    for s in rec.spans:
        calls[s.name] += 1
        self_s[s.name] += s.duration - covered[s.sid]
        total_s[s.name] += s.duration
        info = s.info or {}
        if info.get("error") == "SingularMatrixError":
            info_sum[s.name, "singular"] += 1
        for key in ("minors", "steps", "newton", "converged", "jobs", "busy", "wait",
                    "retracked"):
            if key in info:
                info_sum[s.name, key] += info[key]
        if "arc" in info:
            info_sum[s.name, "detours"] += info["arc"] > 0
        if s.name == "scheduler.run":
            info_sum["scheduler.capacity"] += info["workers"] * s.duration
            info_sum["engine.tree_walks"] += info["caller"] == "engine"
        if s.name == "tracker.track_path" and s.parent and \
                by_id[s.parent].name == "engine.master.on_result":
            info_sum["retrack.calls"] += 1
            info_sum["retrack.s"] += s.duration
    paths = calls["tracker.track_path"]
    capacity = info_sum["scheduler.capacity"]
    out = {
        "linalg.solve_linear.calls": calls["linalg.solve_linear"],
        "linalg.solve_linear.self_s": self_s["linalg.solve_linear"],
        "linalg.solve_linear.singular": info_sum["linalg.solve_linear", "singular"],
        "linalg.cofactors_at.calls": calls["linalg.cofactors_at"],
        "linalg.cofactors_at.minors": info_sum["linalg.cofactors_at", "minors"],
        "linalg.cofactors_at.self_s": self_s["linalg.cofactors_at"],
        "linalg.lu_decompose.calls": rec.counts.count("linalg.lu_decompose"),
    }
    for layer in ("engine", "polysys"):
        for m in ("eval", "jacobian_x", "dt"):
            out[f"{layer}.homotopy.{m}.calls"] = calls[f"{layer}.homotopy.{m}"]
            out[f"{layer}.homotopy.{m}.self_s"] = self_s[f"{layer}.homotopy.{m}"]
    out.update({
        "tracker.track_path.calls": paths,
        "tracker.track_path.self_s": self_s["tracker.track_path"],
        "tracker.steps": info_sum["tracker.track_path", "steps"],
        "tracker.newton_iters": info_sum["tracker.track_path", "newton"],
        "tracker.converged_share":
            info_sum["tracker.track_path", "converged"] / paths if paths else 0.0,
        "engine.edge_task.calls": calls["engine.edge_task"],
        "engine.edge_task.busy_s": total_s["engine.edge_task"],
        "engine.edge_task.steps": info_sum["engine.edge_task", "steps"],
        "engine.edge_task.detours": info_sum["engine.edge_task", "detours"],
        "engine.edge_task.share": total_s["engine.edge_task"] / traced_wall,
        "engine.tree_walks": info_sum["engine.tree_walks"],
        "engine.master.on_result.self_s": self_s["engine.master.on_result"],
        "engine.master.retrack.calls": info_sum["retrack.calls"],
        "engine.master.retrack.s": info_sum["retrack.s"],
        "engine.master.retrack.share": info_sum["retrack.s"] / traced_wall,
        "engine.master.retracked_edges": info_sum["scheduler.run", "retracked"],
        "scheduler.jobs": info_sum["scheduler.run", "jobs"],
        "scheduler.run.wall_s": total_s["scheduler.run"],
        "scheduler.worker_busy_s": info_sum["scheduler.run", "busy"],
        "scheduler.utilization":
            info_sum["scheduler.run", "busy"] / capacity if capacity else 0.0,
        "scheduler.dispatch_wait_s": info_sum["scheduler.run", "wait"],
        "patterns.self_s":
            self_s["patterns.increments"] + self_s["patterns.count_paths"],
        "engine.verify.s": verify_s,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    assert list(out) == [name for name, _, _ in PER_LAYER]
    return out
