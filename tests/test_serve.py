"""End-to-end job-server tests: the ISSUE acceptance criteria.

* concurrent clients submitting overlapping sweeps get results
  byte-identical to a serial :class:`ExperimentRunner`, and duplicate
  submissions provably coalesce (one job id, compute count below the
  request count);
* an injected worker crash surfaces as a structured job failure while
  the server keeps serving other clients;
* admission control (busy backpressure), cancellation of queued and
  running jobs, event streaming, drain-time stats/trace flush, and the
  cross-job result cache.

All tests run a real server on a background thread (its own asyncio
loop) and talk to it through the blocking stdlib client -- the same
path scripts and the CLI use.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.serve import (
    AdmissionQueue,
    JobTable,
    QueueFull,
    ServeClient,
    ServeError,
)
from repro.serve.metrics import quantile
from repro.serve.server import ServerThread
from repro.sim import ExperimentRunner, RunRequest

BUDGET = 2000
#: budget for jobs that must still be running when we poke at them
#: (~1s of wall clock: wide enough that a handful of client round
#: trips never race the blocker's completion, even under GIL pressure)
SLOW_BUDGET = 250_000


def _client(thread, timeout=60):
    host, port = thread.address
    return ServeClient(host, port, timeout=timeout)


def _wait_running(client, job_id, timeout=60.0):
    """Poll status until the job is running (deterministic, unlike
    waiting on stream events -- a late subscription can miss the
    ``started`` event and only wake on completion)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = client.status(job_id)["state"]
        if state == "running":
            return
        assert state == "queued", "job went terminal early: %s" % state
        time.sleep(0.005)
    raise AssertionError("job %s never started" % job_id)


# ----------------------------------------------------------------------
# acceptance: identity + coalescing under concurrent clients


class TestConcurrentClients(object):
    def test_sweeps_match_serial_runner_and_coalesce(self, tmp_path):
        benchmarks = ["libquantum", "mcf"]
        prefetchers = ["none", "stride"]
        serial = ExperimentRunner(cache_dir=str(tmp_path / "serial-cache"))
        expected_results, _report = serial.run_batch(
            [RunRequest(b, p, BUDGET)
             for b in benchmarks for p in prefetchers]
        )
        expected = [result.as_dict() for result in expected_results]

        with ServerThread(cache_dir=str(tmp_path / "server-cache"),
                          max_concurrent=1) as thread:
            # occupy the single worker slot so the duplicate sweeps
            # below are all admitted while the first is still live
            with _client(thread) as blocker_client:
                blocker = blocker_client.submit(
                    "astar", "none", instructions=SLOW_BUDGET
                )
                _wait_running(blocker_client, blocker["job_id"])

                tickets = {}
                payloads = {}
                errors = []

                def worker(slot):
                    try:
                        with _client(thread) as client:
                            ticket = client.submit_sweep(
                                benchmarks, prefetchers,
                                instructions=BUDGET,
                            )
                            tickets[slot] = ticket
                            reply = client.result(ticket["job_id"],
                                                  wait=True)
                            payloads[slot] = reply["result"]
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                workers = [threading.Thread(target=worker, args=(slot,))
                           for slot in range(4)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=180)
                assert not errors

                # every client saw results byte-identical to the serial
                # reference engine
                for slot in range(4):
                    assert payloads[slot] == expected

                # provable coalescing: one job id across all four
                # submissions, three of which were deduplicated
                ids = {tickets[slot]["job_id"] for slot in range(4)}
                assert len(ids) == 1
                coalesced = [tickets[slot]["coalesced"]
                             for slot in range(4)]
                assert sorted(coalesced) == [False, True, True, True]

                blocker_client.result(blocker["job_id"], wait=True)
                stats = blocker_client.statz()
        # 4 sweeps x 4 runs + 1 blocker run requested; only 4 + 1 computed
        assert stats["serve.runs.requested"] == 17
        assert stats["serve.runs.computed"] == 5
        assert stats["serve.jobs.coalesced"] == 3
        assert stats["serve.runs.computed"] < stats["serve.runs.requested"]


# ----------------------------------------------------------------------
# acceptance: injected crash -> structured failure, server stays up


class TestCrashInjection(object):
    def test_crash_surfaces_structured_failure(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=7")
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          max_concurrent=1) as thread:
            with _client(thread) as client:
                # retries=0: the first-attempt crash is fatal and must
                # surface as a structured job failure
                ticket = client.submit("libquantum", "stride",
                                       instructions=BUDGET, retries=0)
                with pytest.raises(ServeError) as info:
                    client.result(ticket["job_id"], wait=True)
                assert info.value.code == "simulation-error"
                failure = info.value.data
                assert failure["state"] == "failed"
                assert failure["error"]["code"] == "simulation-error"
                assert failure["error"]["attempts"] >= 1

                # ... while the server keeps serving: a retried job on
                # the same faulty substrate converges (crash fires only
                # on the first attempt)
                assert client.ping()["type"] == "pong"
                ticket2 = client.submit("mcf", "none",
                                        instructions=BUDGET, retries=2)
                reply = client.result(ticket2["job_id"], wait=True)
                assert reply["state"] == "done"
                assert reply["result"][0]["instructions"] == BUDGET

                stats = client.statz()
        assert stats["serve.jobs.failed"] == 1
        assert stats["serve.jobs.completed"] == 1
        assert stats["serve.runs.retries"] >= 1


# ----------------------------------------------------------------------
# admission control and cancellation


class TestAdmissionAndCancel(object):
    def test_backpressure_and_queued_cancel(self, tmp_path):
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          max_concurrent=1, high_water=1) as thread:
            with _client(thread) as client:
                blocker = client.submit("astar", "none",
                                        instructions=SLOW_BUDGET)
                _wait_running(client, blocker["job_id"])

                queued = client.submit("mcf", "none", instructions=BUDGET)
                assert client.status(queued["job_id"])["state"] == "queued"

                # the queue is at its high-water mark: typed busy error
                with pytest.raises(ServeError) as info:
                    client.submit("libquantum", "none",
                                  instructions=BUDGET)
                assert info.value.code == "busy"

                # cancelling the queued job frees admission capacity
                reply = client.cancel(queued["job_id"])
                assert reply["type"] == "cancelled"
                assert (client.status(queued["job_id"])["state"]
                        == "cancelled")
                outcome = client.result(queued["job_id"], wait=True)
                assert outcome["state"] == "cancelled"

                admitted = client.submit("libquantum", "none",
                                         instructions=BUDGET)
                assert client.result(admitted["job_id"],
                                     wait=True)["state"] == "done"
                assert client.result(blocker["job_id"],
                                     wait=True)["state"] == "done"
                stats = client.statz()
        assert stats["serve.jobs.rejected_busy"] == 1
        assert stats["serve.jobs.cancelled"] == 1

    def test_cancel_running_job_cooperatively(self, tmp_path):
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          max_concurrent=1) as thread:
            with _client(thread) as client:
                ticket = client.submit_sweep(
                    ["astar", "bzip2", "soplex", "mcf"],
                    ["none", "stride"],
                    instructions=20_000,
                )
                job_id = ticket["job_id"]
                # wait until at least one run has completed (so the
                # cancel provably leaves checkpointed work behind) but
                # well before all eight are done
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    snap = client.status(job_id)
                    if snap["done"] >= 1:
                        break
                    assert snap["state"] in ("queued", "running")
                    time.sleep(0.005)
                assert snap["done"] >= 1
                reply = client.cancel(job_id)
                assert reply["type"] == "cancelling"
                outcome = client.result(job_id, wait=True)
                assert outcome["state"] == "cancelled"
                # cancelled work is checkpointed in the result cache:
                # resubmitting resumes (some hits) instead of restarting
                again = client.submit_sweep(
                    ["astar", "bzip2", "soplex", "mcf"],
                    ["none", "stride"],
                    instructions=20_000,
                )
                done = client.result(again["job_id"], wait=True)
                assert done["state"] == "done"
                assert len(done["result"]) == 8
                assert done["batch"]["hits"] >= 1


# ----------------------------------------------------------------------
# streaming, cache reuse, drain


class TestLifecycle(object):
    def test_stream_sequence_and_terminal_replay(self, tmp_path):
        with ServerThread(cache_dir=str(tmp_path / "cache")) as thread:
            with _client(thread) as client:
                ticket = client.submit_sweep(
                    ["libquantum"], ["none", "stride"],
                    instructions=BUDGET,
                )
                job_id = ticket["job_id"]
                events = list(client.stream(job_id))
                assert events, "stream yielded no events"
                assert events[-1]["ev"] == "done"
                seqs = [event["seq"] for event in events]
                assert seqs == sorted(seqs)
                assert len(set(seqs)) == len(seqs)
                for event in events:
                    assert event["job_id"] == job_id
                    if event["ev"] == "progress":
                        assert 0 <= event["done"] <= event["total"]
                # streaming a terminal job replays its terminal event
                replay = list(client.stream(job_id))
                assert [event["ev"] for event in replay] == ["done"]

    def test_resubmission_after_completion_hits_cache(self, tmp_path):
        with ServerThread(cache_dir=str(tmp_path / "cache")) as thread:
            with _client(thread) as client:
                first = client.submit("libquantum", "stride",
                                      instructions=BUDGET)
                reply1 = client.result(first["job_id"], wait=True)
                second = client.submit("libquantum", "stride",
                                       instructions=BUDGET)
                # not coalesced (the first job is terminal): a fresh job
                # served from the shared result cache
                assert second["coalesced"] is False
                assert second["job_id"] != first["job_id"]
                reply2 = client.result(second["job_id"], wait=True)
                assert reply2["result"] == reply1["result"]
                assert reply2["batch"]["hits"] == 1
                assert reply2["batch"]["misses"] == 0
                stats = client.statz()
        assert stats["serve.runs.cache_hits"] == 1
        assert stats["serve.runs.computed"] == 1
        assert 0 < stats["serve.cache.hit_ratio"] < 1

    def test_drain_flushes_stats_and_trace(self, tmp_path):
        stats_path = tmp_path / "serve-stats.json"
        trace_path = tmp_path / "serve-trace.jsonl"
        thread = ServerThread(cache_dir=str(tmp_path / "cache"),
                              stats_path=str(stats_path),
                              trace_path=str(trace_path))
        thread.start()
        try:
            with _client(thread) as client:
                ticket = client.submit("libquantum", "none",
                                       instructions=BUDGET)
                client.result(ticket["job_id"], wait=True)
        finally:
            thread.stop()
        stats = json.loads(stats_path.read_text())
        assert stats["serve.jobs.completed"] == 1
        assert stats["serve.runs.computed"] == 1
        events = [json.loads(line)
                  for line in trace_path.read_text().splitlines()]
        assert events
        assert all(event["cat"] == "serve" for event in events)
        evs = {event["ev"] for event in events}
        assert "done" in evs


# ----------------------------------------------------------------------
# queue / table units (no sockets)


class TestAdmissionQueueUnit(object):
    def _jobs(self, table, count, priority=0):
        return [
            table.new_job("key-%d-%d" % (priority, i), "single",
                          {"policy": {}}, [None], priority=priority)
            for i in range(count)
        ]

    def test_priority_then_fifo_order(self):
        async def body():
            table = JobTable()
            queue = AdmissionQueue(high_water=8)
            low = self._jobs(table, 2, priority=0)
            high = self._jobs(table, 1, priority=5)
            for job in low + high:
                queue.push(job)
            order = [await queue.pop() for _ in range(3)]
            return [job.id for job in order], \
                [job.id for job in high + low]

        got, want = asyncio.run(body())
        assert got == want

    def test_high_water_rejects(self):
        async def body():
            table = JobTable()
            queue = AdmissionQueue(high_water=2)
            jobs = self._jobs(table, 3)
            queue.push(jobs[0])
            queue.push(jobs[1])
            with pytest.raises(QueueFull) as info:
                queue.push(jobs[2])
            assert info.value.depth == 2
            # popping frees capacity
            await queue.pop()
            queue.push(jobs[2])
            return len(queue)

        assert asyncio.run(body()) == 2

    def test_lazy_cancel_skipped_at_pop(self):
        async def body():
            table = JobTable()
            queue = AdmissionQueue(high_water=8)
            jobs = self._jobs(table, 3)
            for job in jobs:
                queue.push(job)
            jobs[0].cancel_requested = True
            queue.discard(jobs[0])
            assert len(queue) == 2
            popped = await queue.pop()
            return popped.id, jobs[1].id

        got, want = asyncio.run(body())
        assert got == want

    def test_close_wakes_pop_with_none(self):
        async def body():
            queue = AdmissionQueue(high_water=2)
            waiter = asyncio.create_task(queue.pop())
            await asyncio.sleep(0)
            queue.close()
            return await asyncio.wait_for(waiter, timeout=5)

        assert asyncio.run(body()) is None


class TestJobTableUnit(object):
    def test_coalescing_index_and_retention(self):
        table = JobTable(retain=2)
        jobs = [
            table.new_job("k%d" % i, "single", {}, [None])
            for i in range(3)
        ]
        assert table.find_active("k0") is jobs[0]
        for job in jobs:
            job.mark_terminal("done")
            table.finish(job)
        # terminal jobs leave the coalescing index...
        assert table.find_active("k0") is None
        # ...and retention keeps only the newest two
        assert table.get(jobs[0].id) is None
        assert table.get(jobs[1].id) is jobs[1]
        assert table.get(jobs[2].id) is jobs[2]

    def test_forget_rolls_back_admission(self):
        table = JobTable()
        job = table.new_job("k", "single", {}, [None])
        table.forget(job)
        assert table.get(job.id) is None
        assert table.find_active("k") is None


# ----------------------------------------------------------------------
# serve.metrics quantile interpolation


def test_quantile_worked_example():
    values = [10, 20, 30, 40]
    assert quantile(values, 0.00) == 10.0
    assert quantile(values, 0.50) == 25.0
    assert quantile(values, 0.95) == pytest.approx(38.5)
    assert quantile(values, 0.99) == pytest.approx(39.7)
    assert quantile(values, 1.00) == 40.0


def test_quantile_small_window_p99_not_pinned_to_max():
    """The old nearest-rank-by-truncation rule reported the window max
    as p99 for every window under 100 samples."""
    for n in (2, 10, 50, 99):
        values = list(range(1, n + 1))
        p99 = quantile(values, 0.99)
        assert p99 < max(values)
        assert p99 > quantile(values, 0.95)
    # at n >= 101 the two estimators converge near the top anyway
    assert quantile(list(range(1, 102)), 0.99) == pytest.approx(100.0)


def test_quantile_edge_cases():
    assert quantile([], 0.5) == 0.0
    assert quantile([7.5], 0.99) == 7.5
    # q clamped into [0, 1]
    assert quantile([1, 2, 3], -0.5) == 1.0
    assert quantile([1, 2, 3], 2.0) == 3.0
    # order-independent
    assert quantile([3, 1, 2], 0.5) == 2.0
