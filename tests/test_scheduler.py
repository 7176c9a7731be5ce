"""Tests for the in-process master/worker scheduler.

Payloads here are synthetic (echo, sleep, failing) so the message protocol
can be exercised independently of any continuation code.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import pytest

from pierihom.scheduler import JobMessage, run_dynamic, run_static


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
    return [JobMessage(i, Echo(i)) for i in range(n)]


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
    dynamic = run_dynamic(jobs, workers=3)
    assert {r.job_id: r.payload for r in static} == {
        r.job_id: r.payload for r in dynamic
    }


def test_dynamic_single_worker_runs_fifo() -> None:
    events: list[dict] = []
    results = run_dynamic(echo_jobs(7), workers=1, event_log=events)
    assert [r.job_id for r in results] == list(range(7))
    dispatch_order = [e["job_id"] for e in events if e["event"] == "dispatch"]
    enqueue_order = [e["job_id"] for e in events if e["event"] == "enqueue"]
    assert dispatch_order == enqueue_order == list(range(7))


def test_dynamic_empty_source_terminates_cleanly() -> None:
    events: list[dict] = []
    results = run_dynamic([], workers=3, event_log=events)
    assert results == []
    assert sum(1 for e in events if e["event"] == "terminate") == 3


def test_dynamic_many_jobs_exactly_once() -> None:
    events: list[dict] = []
    results = run_dynamic(echo_jobs(10_000), workers=4, event_log=events)
    ids = [r.job_id for r in results]
    assert sorted(ids) == list(range(10_000))
    assert all(r.status == "ok" and r.payload == r.job_id for r in results)
    dispatched = [e["job_id"] for e in events if e["event"] == "dispatch"]
    assert sorted(dispatched) == list(range(10_000))


def test_duplicate_job_id_rejected() -> None:
    jobs = [JobMessage(1, Echo(0)), JobMessage(1, Echo(1))]
    with pytest.raises(ValueError):
        run_static(jobs, workers=2)
    with pytest.raises(ValueError):
        run_dynamic(jobs, workers=2)


def test_worker_failure_surfaces_as_error_result_without_retry() -> None:
    events: list[dict] = []
    jobs = [
        JobMessage(0, Echo(7)),
        JobMessage(1, Boom()),
        JobMessage(2, Echo(9)),
    ]
    results = run_dynamic(jobs, workers=2, event_log=events)
    by_id = {r.job_id: r for r in results}
    assert by_id[1].status == "error"
    assert "RuntimeError" in str(by_id[1].payload)
    assert by_id[0].status == "ok" and by_id[2].status == "ok"
    dispatched = [e["job_id"] for e in events if e["event"] == "dispatch"]
    assert dispatched.count(1) == 1  # no retry


def test_no_worker_starves_while_work_is_ready() -> None:
    events: list[dict] = []
    run_dynamic(echo_jobs(64), workers=4, event_log=events)
    waits = [e for e in events if e["event"] == "wait"]
    assert waits, "master should record its blocking points"
    for w in waits:
        assert w["ready"] == 0 or w["idle"] == 0


def test_event_log_worker_state_machine_consistent() -> None:
    events: list[dict] = []
    run_dynamic(echo_jobs(15), workers=3, event_log=events)
    state = {w: "idle" for w in range(3)}
    for e in events:
        if e["event"] == "dispatch":
            assert state[e["worker"]] == "idle"
            state[e["worker"]] = "running"
        elif e["event"] == "complete":
            assert state[e["worker"]] == "running"
            state[e["worker"]] = "idle"
    assert set(state.values()) == {"idle"}


def test_workers_must_be_positive() -> None:
    with pytest.raises(ValueError):
        run_static(echo_jobs(2), workers=0)
    with pytest.raises(ValueError):
        run_dynamic([], workers=-1)

