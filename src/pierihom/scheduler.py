"""In-process master/worker scheduler with message-passing semantics.

The master owns all bookkeeping; workers are threads that do nothing but
pull a JobMessage from their inbox, execute its payload, and push one
ResultMessage to the shared outbox.  Channels are stdlib queues (unbounded,
so comfortably deeper than the two-message overlap the protocol assumes),
and the job/result/terminate message shapes are pure data, so a network
transport could replace the queues without touching job logic.

Payloads are self-contained: anything with a ``run()`` method.  A payload
exception becomes a ResultMessage with status "error"; there is no retry.
Both entry points run one batch of independent jobs: ``run_static``
pre-partitions it round-robin, ``run_dynamic`` hands jobs to idle workers
first come, first served.  The payloads' results do not depend on which.
"""
from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable


@dataclass(frozen=True)
class JobMessage:
    """One unit of work.

    Ids must be unique per run but are otherwise opaque; the Pieri solve
    uses tree-edge path strings so ids stay stable across worker counts.
    """

    job_id: int | str
    payload: Any


@dataclass(frozen=True)
class ResultMessage:
    """Exactly one of these comes back per dispatched JobMessage."""

    job_id: int | str
    status: str  # "ok" | "error"
    payload: Any
    worker_id: int
    started: float
    finished: float

    @property
    def duration(self) -> float:
        return self.finished - self.started


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
        self.log("dispatch", job_id=job.job_id, worker=worker)
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
    jobs: Iterable[JobMessage], workers: int, event_log: list[dict] | None = None
) -> list[ResultMessage]:
    """First-come-first-serve dispatch for jobs with no inter-dependencies.

    The master keeps a FIFO ready queue and a FIFO idle-worker queue and
    dispatches whenever both are non-empty; each result frees the worker
    that sent it.  Results come back in completion order, and workers get
    a terminate message once the last one is in.
    """
    jobs = list(jobs)
    _check_unique_ids(jobs)
    pool = _Pool(workers, event_log)
    for job in jobs:
        pool.log("enqueue", job_id=job.job_id)
    ready: deque[JobMessage] = deque(jobs)
    idle: deque[int] = deque(range(workers))
    results: list[ResultMessage] = []
    try:
        while len(results) < len(jobs):
            while ready and idle:
                pool.send(idle.popleft(), ready.popleft())
            pool.log("wait", ready=len(ready), idle=len(idle))
            res = pool.outbox.get()
            idle.append(res.worker_id)
            pool.log("complete", job_id=res.job_id, worker=res.worker_id,
                     status=res.status)
            results.append(res)
    finally:
        pool.shutdown()
    return results


def _check_unique_ids(jobs: list[JobMessage]) -> None:
    ids = [j.job_id for j in jobs]
    if len(ids) != len(set(ids)):
        raise ValueError("job ids must be unique")

