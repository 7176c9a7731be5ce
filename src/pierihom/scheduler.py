"""In-process master/worker scheduler with message-passing semantics.

The master owns all bookkeeping; workers are threads that do nothing but
pull a JobMessage from their inbox, execute its payload, and push one
ResultMessage to the shared outbox.  Channels are stdlib queues (unbounded,
so comfortably deeper than the two-message overlap the protocol assumes),
and the job/result/terminate message shapes are pure data, so a network
transport could replace the queues without touching job logic.

Payloads are self-contained: anything with a ``run()`` method.  A payload
exception becomes a ResultMessage with status "error"; there is no retry.

The job kind fixes the schedule.  "pieri-edge" jobs need their parent's
endpoint, so only ``run_dynamic`` against a dependency-aware source can
serve them; "independent-path" jobs run under either ``run_static``
(round-robin pre-partition) or ``run_dynamic`` with identical results.
"""
from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Protocol


@dataclass(frozen=True)
class JobMessage:
    """One unit of work; kind is 'independent-path' or 'pieri-edge'.

    Ids must be unique per run but are otherwise opaque; tree-structured
    sources use path strings so ids stay stable across worker counts.
    """

    job_id: int | str
    kind: str
    payload: Any


@dataclass(frozen=True)
class ResultMessage:
    """Exactly one of these comes back per dispatched JobMessage."""

    job_id: int | str
    kind: str
    status: str  # "ok" | "error"
    payload: Any
    worker_id: int
    started: float
    finished: float

    @property
    def duration(self) -> float:
        return self.finished - self.started


class JobSource(Protocol):
    """Dependency-aware job generator driven by the dynamic master."""

    def initial_jobs(self) -> Iterable[JobMessage]: ...

    def on_result(self, result: ResultMessage) -> Iterable[JobMessage]: ...


class ListSource:
    """A JobSource over a fixed list: all jobs up front, no follow-ups."""

    def __init__(self, jobs: Iterable[JobMessage]):
        self._jobs = list(jobs)

    def initial_jobs(self) -> list[JobMessage]:
        return list(self._jobs)

    def on_result(self, result: ResultMessage) -> list[JobMessage]:
        return []


_TERMINATE = object()


def _worker_loop(worker_id: int, inbox: queue.Queue, outbox: queue.Queue) -> None:
    while True:
        msg = inbox.get()
        if msg is _TERMINATE:
            return
        started = time.perf_counter()
        try:
            value = msg.payload.run()
            status = "ok"
        except Exception as exc:  # failure must surface, not kill the pool
            value = f"{type(exc).__name__}: {exc}"
            status = "error"
        finished = time.perf_counter()
        outbox.put(
            ResultMessage(
                job_id=msg.job_id,
                kind=msg.kind,
                status=status,
                payload=value,
                worker_id=worker_id,
                started=started,
                finished=finished,
            )
        )


class _Pool:
    def __init__(self, workers: int, event_log: list[dict] | None):
        if workers < 1:
            raise ValueError(f"worker count must be positive, got {workers}")
        self.workers = workers
        self.event_log = event_log
        self.inboxes = [queue.Queue() for _ in range(workers)]
        self.outbox: queue.Queue = queue.Queue()
        self.threads = [
            threading.Thread(
                target=_worker_loop, args=(w, self.inboxes[w], self.outbox)
            )
            for w in range(workers)
        ]
        for t in self.threads:
            t.start()

    def log(self, event: str, **fields: Any) -> None:
        if self.event_log is not None:
            self.event_log.append(
                {"event": event, "time": time.perf_counter(), **fields}
            )

    def send(self, worker: int, job: JobMessage) -> None:
        self.log("dispatch", job_id=job.job_id, kind=job.kind, worker=worker)
        self.inboxes[worker].put(job)

    def shutdown(self) -> None:
        for w in range(self.workers):
            self.log("terminate", worker=w)
            self.inboxes[w].put(_TERMINATE)
        for t in self.threads:
            t.join()


def run_static(
    jobs: Iterable[JobMessage], workers: int, event_log: list[dict] | None = None
) -> list[ResultMessage]:
    """Round-robin pre-partition for jobs with no inter-dependencies.

    Job i goes to worker i mod workers; results come back in job-id order.
    """
    jobs = list(jobs)
    _check_unique_ids(jobs)
    pool = _Pool(workers, event_log)
    try:
        for i, job in enumerate(jobs):
            pool.send(i % workers, job)
        results = []
        for _ in jobs:
            res = pool.outbox.get()
            pool.log("complete", job_id=res.job_id, worker=res.worker_id,
                     status=res.status)
            results.append(res)
    finally:
        pool.shutdown()
    return sorted(results, key=lambda r: r.job_id)


def run_dynamic(
    source: JobSource, workers: int, event_log: list[dict] | None = None
) -> list[ResultMessage]:
    """First-come-first-serve dispatch against a dependency-aware source.

    The master keeps a FIFO ready queue and a FIFO idle-worker queue,
    dispatches whenever both are non-empty, and feeds every result back to
    the source, which may yield follow-up jobs.  Workers get a terminate
    message once the last result has been processed.
    """
    pool = _Pool(workers, event_log)
    seen_ids: set[int] = set()
    ready: deque[JobMessage] = deque()
    idle: deque[int] = deque(range(workers))
    running: dict[int, int] = {}  # job_id -> worker

    def enqueue(job: JobMessage) -> None:
        if job.job_id in seen_ids:
            raise ValueError(f"duplicate job id {job.job_id}")
        seen_ids.add(job.job_id)
        pool.log("enqueue", job_id=job.job_id, kind=job.kind)
        ready.append(job)

    results: list[ResultMessage] = []
    try:
        for job in source.initial_jobs():
            enqueue(job)
        while ready or running:
            while ready and idle:
                job = ready.popleft()
                worker = idle.popleft()
                running[job.job_id] = worker
                pool.send(worker, job)
            # after the dispatch loop either ready or idle is empty, so
            # something must be running whenever the outer condition held
            assert running
            pool.log("wait", ready=len(ready), idle=len(idle))
            res = pool.outbox.get()
            idle.append(running.pop(res.job_id))
            pool.log("complete", job_id=res.job_id, worker=res.worker_id,
                     status=res.status)
            results.append(res)
            for job in source.on_result(res):
                enqueue(job)
    finally:
        pool.shutdown()
    return results


def _check_unique_ids(jobs: list[JobMessage]) -> None:
    ids = [j.job_id for j in jobs]
    if len(ids) != len(set(ids)):
        raise ValueError("job ids must be unique")

