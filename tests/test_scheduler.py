"""Tests for the in-process master/worker scheduler.

Payloads here are synthetic (echo, sleep, failing) so the message protocol
can be exercised independently of any continuation code.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest

from pierihom.scheduler import (
    JobMessage,
    ResultMessage,
    run_dynamic,
    run_static,
)


@dataclass(frozen=True)
class Echo:
    value: int

    def run(self) -> int:
        return self.value


@dataclass(frozen=True)
class Boom:
    def run(self) -> None:
        raise RuntimeError("boom")


def echo_jobs(n: int) -> list[JobMessage]:
    return [JobMessage(i, "independent-path", Echo(i)) for i in range(n)]


class ListSource:
    """Yields a fixed job list up front, no follow-ups."""

    def __init__(self, jobs: list[JobMessage]):
        self.jobs = jobs

    def initial_jobs(self) -> list[JobMessage]:
        return list(self.jobs)

    def on_result(self, result: ResultMessage) -> list[JobMessage]:
        return []


class BinaryTreeSource:
    """Each job spawns two children until a fixed depth; leaves collected."""

    def __init__(self, depth: int):
        self.depth = depth
        self.next_id = 1
        self.depth_of = {0: 0}
        self.parent_of: dict[int, int] = {}
        self.leaves: list[int] = []

    def initial_jobs(self) -> list[JobMessage]:
        return [JobMessage(0, "pieri-edge", Echo(0))]

    def on_result(self, result: ResultMessage) -> list[JobMessage]:
        d = self.depth_of[result.job_id]
        if d == self.depth:
            self.leaves.append(result.job_id)
            return []
        children = []
        for _ in range(2):
            jid = self.next_id
            self.next_id += 1
            self.depth_of[jid] = d + 1
            self.parent_of[jid] = result.job_id
            children.append(JobMessage(jid, "pieri-edge", Echo(jid)))
        return children


def test_static_partition_sizes() -> None:
    results = run_static(echo_jobs(8), workers=4)
    per_worker = Counter(r.worker_id for r in results)
    assert sorted(per_worker.values()) == [2, 2, 2, 2]
    results = run_static(echo_jobs(5), workers=4)
    per_worker = Counter(r.worker_id for r in results)
    assert sorted(per_worker.values()) == [1, 1, 1, 2]


def test_static_results_in_job_id_order_with_content() -> None:
    results = run_static(echo_jobs(9), workers=3)
    assert [r.job_id for r in results] == list(range(9))
    assert all(r.status == "ok" for r in results)
    assert [r.payload for r in results] == list(range(9))


def test_static_and_dynamic_agree_on_content() -> None:
    jobs = echo_jobs(12)
    static = run_static(jobs, workers=3)
    dynamic = run_dynamic(ListSource(jobs), workers=3)
    assert {r.job_id: r.payload for r in static} == {
        r.job_id: r.payload for r in dynamic
    }


def test_dynamic_single_worker_runs_fifo() -> None:
    events: list[dict] = []
    src = BinaryTreeSource(depth=2)
    results = run_dynamic(src, workers=1, event_log=events)
    # 1 root + 2 + 4 = 7 jobs, 4 leaves
    assert len(results) == 7
    assert len(src.leaves) == 4
    dispatch_order = [e["job_id"] for e in events if e["event"] == "dispatch"]
    enqueue_order = [e["job_id"] for e in events if e["event"] == "enqueue"]
    assert dispatch_order == enqueue_order


def test_dynamic_tree_collects_all_leaves_and_respects_dependencies() -> None:
    events: list[dict] = []
    src = BinaryTreeSource(depth=3)
    results = run_dynamic(src, workers=4, event_log=events)
    assert len(src.leaves) == 8
    assert len(results) == 15
    dispatch_at = {
        e["job_id"]: i for i, e in enumerate(events) if e["event"] == "dispatch"
    }
    complete_at = {
        e["job_id"]: i for i, e in enumerate(events) if e["event"] == "complete"
    }
    # exactly-once dispatch
    dispatched = [e["job_id"] for e in events if e["event"] == "dispatch"]
    assert len(dispatched) == len(set(dispatched)) == 15
    # a child is never dispatched before its parent's result was processed
    for child, parent in src.parent_of.items():
        assert dispatch_at[child] > complete_at[parent]


def test_dynamic_empty_source_terminates_cleanly() -> None:
    events: list[dict] = []
    results = run_dynamic(ListSource([]), workers=3, event_log=events)
    assert results == []
    assert sum(1 for e in events if e["event"] == "terminate") == 3


def test_dynamic_many_jobs_exactly_once() -> None:
    rng = np.random.default_rng(123)

    class RandomFanout:
        def __init__(self) -> None:
            self.next_id = 0
            self.budget = 10_000

        def _take(self, k: int) -> list[JobMessage]:
            k = min(k, self.budget)
            self.budget -= k
            jobs = [
                JobMessage(self.next_id + i, "independent-path", Echo(self.next_id + i))
                for i in range(k)
            ]
            self.next_id += k
            return jobs

        def initial_jobs(self) -> list[JobMessage]:
            return self._take(64)

        def on_result(self, result: ResultMessage) -> list[JobMessage]:
            return self._take(int(rng.integers(0, 3)))

    src = RandomFanout()
    results = run_dynamic(src, workers=4)
    ids = [r.job_id for r in results]
    assert len(ids) == len(set(ids)) == src.next_id
    assert all(r.status == "ok" for r in results)


def test_duplicate_job_id_rejected() -> None:
    jobs = [JobMessage(1, "independent-path", Echo(0)),
            JobMessage(1, "independent-path", Echo(1))]
    with pytest.raises(ValueError):
        run_static(jobs, workers=2)
    with pytest.raises(ValueError):
        run_dynamic(ListSource(jobs), workers=2)


def test_worker_failure_surfaces_as_error_result_without_retry() -> None:
    events: list[dict] = []
    jobs = [
        JobMessage(0, "independent-path", Echo(7)),
        JobMessage(1, "independent-path", Boom()),
        JobMessage(2, "independent-path", Echo(9)),
    ]
    results = run_dynamic(ListSource(jobs), workers=2, event_log=events)
    by_id = {r.job_id: r for r in results}
    assert by_id[1].status == "error"
    assert "RuntimeError" in str(by_id[1].payload)
    assert by_id[0].status == "ok" and by_id[2].status == "ok"
    dispatched = [e["job_id"] for e in events if e["event"] == "dispatch"]
    assert dispatched.count(1) == 1  # no retry


def test_no_worker_starves_while_work_is_ready() -> None:
    events: list[dict] = []
    run_dynamic(ListSource(echo_jobs(64)), workers=4, event_log=events)
    waits = [e for e in events if e["event"] == "wait"]
    assert waits, "master should record its blocking points"
    for w in waits:
        assert w["ready"] == 0 or w["idle"] == 0


def test_event_log_worker_state_machine_consistent() -> None:
    events: list[dict] = []
    run_dynamic(BinaryTreeSource(depth=3), workers=3, event_log=events)
    state = {w: "idle" for w in range(3)}
    for e in events:
        if e["event"] == "dispatch":
            assert state[e["worker"]] == "idle"
            state[e["worker"]] = "running"
        elif e["event"] == "complete":
            assert state[e["worker"]] == "running"
            state[e["worker"]] = "idle"


def test_workers_must_be_positive() -> None:
    with pytest.raises(ValueError):
        run_static(echo_jobs(2), workers=0)
    with pytest.raises(ValueError):
        run_dynamic(ListSource([]), workers=-1)

