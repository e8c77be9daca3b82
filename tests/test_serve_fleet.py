"""Fleet-tier chaos tests: worker loss, deadlines, circuit breaking.

The acceptance bar mirrors the repo's standing rule -- recovery must be
*byte-identical*, not merely "successful":

* sustained ``worker-kill`` chaos across a 3-worker fleet completes a
  mixed single/sweep batch with zero lost jobs, every result equal to
  the serial :meth:`ExperimentRunner.run_batch` reference (requeued
  jobs resume from the cache checkpoint and converge);
* a worker frozen by ``worker-hang`` stops heartbeating, is declared
  dead by the missed-beat detector, and its job is requeued and
  completed by a respawned worker;
* expired deadlines shed jobs pre-execution with a typed
  ``deadline-exceeded`` error (never executed, never retried);
* the per-benchmark circuit breaker walks closed -> open -> half-open
  -> closed, rejects with busy-class ``circuit-open`` while open, and
  leaves other benchmarks untouched;
* graceful drain completes even with a worker SIGKILLed mid-session.

Plus socket-free unit coverage for the new fault verbs, the heartbeat
detector, the breaker state machine, lazy queue shedding and the
client's bounded busy-class retry.
"""

import asyncio
import json
import os
import signal
import time

import pytest

from repro.resilience.faults import (
    DEFAULT_SLOW_MS,
    FaultPlan,
    parse_faults,
)
from repro.serve import (
    AdmissionQueue,
    BreakerBoard,
    CircuitBreaker,
    JobTable,
    ServeClient,
    ServeError,
    WorkerHealth,
)
from repro.serve.server import ServerThread
from repro.sim import ExperimentRunner, RunRequest

BUDGET = 2000
#: budget for jobs that must still be running when we poke at them
SLOW_BUDGET = 250_000


def _client(thread, timeout=120):
    host, port = thread.address
    return ServeClient(host, port, timeout=timeout)


# ----------------------------------------------------------------------
# acceptance: byte-identical convergence under sustained worker-kill


class TestFleetChaos(object):
    def test_worker_kill_chaos_converges_byte_identical(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker-kill:0.5:seed=11")
        benchmarks = ["libquantum", "mcf"]
        sweep_prefetchers = ["none", "stride", "bfetch"]
        singles = [(bench, "stride", variant)
                   for bench in benchmarks for variant in range(3)]

        with ServerThread(cache_dir=str(tmp_path / "fleet-cache"),
                          workers=3, beat_interval=0.25,
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                tickets = [client.submit(bench, prefetcher,
                                         instructions=BUDGET,
                                         variant=variant)
                           for bench, prefetcher, variant in singles]
                sweep = client.submit_sweep(benchmarks, sweep_prefetchers,
                                            instructions=BUDGET)
                got_singles = []
                for ticket in tickets:
                    reply = client.result(ticket["job_id"], wait=True)
                    assert reply["state"] == "done"
                    got_singles.append(reply["result"][0])
                sweep_reply = client.result(sweep["job_id"], wait=True)
                assert sweep_reply["state"] == "done"
                stats = client.statz()

        # the chaos must actually have killed workers...
        assert stats["serve.fleet.respawns"] >= 1
        assert stats["serve.fleet.requeues"] >= 1
        assert stats["serve.jobs.completed"] == len(singles) + 1
        # ...and every completed job must equal the serial reference
        # (worker-* verbs never fire outside fleet worker processes)
        serial = ExperimentRunner(cache_dir=str(tmp_path / "ref-cache"))
        ref_singles, _ = serial.run_batch(
            [RunRequest(bench, prefetcher, BUDGET, None, variant)
             for bench, prefetcher, variant in singles]
        )
        for got, want in zip(got_singles, ref_singles):
            assert json.dumps(got, sort_keys=True) \
                == json.dumps(want.as_dict(), sort_keys=True)
        ref_sweep, _ = serial.run_batch(
            [RunRequest(bench, prefetcher, BUDGET)
             for bench in benchmarks for prefetcher in sweep_prefetchers]
        )
        assert json.dumps(sweep_reply["result"], sort_keys=True) \
            == json.dumps([r.as_dict() for r in ref_sweep],
                          sort_keys=True)

    def test_heartbeat_declared_dead_requeues_and_completes(
            self, tmp_path, monkeypatch):
        # every first assignment freezes the worker (beats suspended);
        # the missed-beat detector must declare it dead, requeue, and
        # the respawned worker (attempt 1: hang verbs are first-attempt
        # only) completes the job
        monkeypatch.setenv("REPRO_FAULTS", "worker-hang:1.0")
        with ServerThread(cache_dir=str(tmp_path / "cache"), workers=1,
                          beat_interval=0.1, max_missed=3,
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                ticket = client.submit("libquantum", "none",
                                       instructions=BUDGET)
                reply = client.result(ticket["job_id"], wait=True)
                assert reply["state"] == "done"
                stats = client.statz()
        assert stats["serve.fleet.requeues"] >= 1
        assert stats["serve.fleet.respawns"] >= 1

    def test_worker_slow_straggler_still_completes(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker-slow:1.0:ms=30")
        with ServerThread(cache_dir=str(tmp_path / "cache"), workers=2,
                          beat_interval=0.2,
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                ticket = client.submit("mcf", "none", instructions=BUDGET)
                reply = client.result(ticket["job_id"], wait=True)
                assert reply["state"] == "done"
                stats = client.statz()
        # a slow worker is not a dead worker: no losses, no respawns
        assert stats["serve.fleet.requeues"] == 0
        assert stats["serve.fleet.respawns"] == 0

    def test_drain_completes_with_a_sigkilled_worker(self, tmp_path):
        thread = ServerThread(cache_dir=str(tmp_path / "cache"),
                              workers=2, beat_interval=0.2,
                              heartbeat_interval=0)
        thread.start()
        try:
            with _client(thread) as client:
                fleet = client.fleet()
                assert fleet["mode"] == "fleet"
                assert len(fleet["workers"]) == 2
                # murder worker 0 out-of-band (a real host loss, not an
                # injected fault)
                os.kill(fleet["workers"][0]["pid"], signal.SIGKILL)
                # the fleet still serves: the survivor (or the respawn)
                # picks the job up
                ticket = client.submit("libquantum", "none",
                                       instructions=BUDGET)
                reply = client.result(ticket["job_id"], wait=True)
                assert reply["state"] == "done"
        finally:
            # graceful drain must terminate despite the dead worker
            thread.stop(timeout=60)


class TestWorkersWithoutCluster(object):
    """``--workers N`` alone: the subprocess scheduler, no cluster tier."""

    def test_no_peer_listener_and_node_hello_is_refused(self, tmp_path):
        import socket

        from repro.serve import protocol

        with ServerThread(cache_dir=str(tmp_path / "cache"), workers=2,
                          beat_interval=0.25,
                          heartbeat_interval=0) as thread:
            cluster = thread.server.cluster
            assert cluster.peer_server is None
            with _client(thread) as client:
                fleet = client.fleet()
            assert fleet["mode"] == "fleet"
            assert [row["worker"] for row in fleet["workers"]] == [0, 1]
            sock = socket.create_connection(thread.address, timeout=30)
            with sock, sock.makefile("rb") as rfile:
                def ask(message):
                    sock.sendall(protocol.encode_frame(message))
                    return protocol.read_frame_blocking(rfile)

                reply = ask({"type": "node-hello", "node": "intruder",
                             "peer_port": 1})
                assert reply["type"] == "error"
                assert reply["code"] == "unknown-type"
                # not adopted: the connection still serves requests
                assert ask({"type": "ping"})["type"] == "pong"
            assert cluster.nodes == {}
            with _client(thread) as client:
                assert client.statz()["serve.cluster.nodes_joined"] == 0

    def test_sweep_is_sharded_and_byte_identical(self, tmp_path):
        benchmarks = ["libquantum", "mcf"]
        prefetchers = ["none", "stride", "bfetch"]
        with ServerThread(cache_dir=str(tmp_path / "cache"), workers=3,
                          beat_interval=0.25,
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                ticket = client.submit_sweep(benchmarks, prefetchers,
                                             instructions=BUDGET)
                reply = client.result(ticket["job_id"], wait=True)
                stats = client.statz()
        assert reply["state"] == "done"
        assert stats["serve.cluster.shards"] > 1
        serial = ExperimentRunner(cache_dir=str(tmp_path / "ref-cache"))
        want, _ = serial.run_batch(
            [RunRequest(bench, prefetcher, BUDGET)
             for bench in benchmarks for prefetcher in prefetchers]
        )
        assert json.dumps(reply["result"], sort_keys=True) \
            == json.dumps([r.as_dict() for r in want], sort_keys=True)


class TestLocalMembers(object):
    """Local worker slots: ids and autoscaler retirement (no processes)."""

    def test_initial_local_workers_get_distinct_ids(self):
        from repro.serve.cluster.supervisor import ClusterSupervisor

        supervisor = ClusterSupervisor(local_workers=3)
        assert [worker.id for worker in supervisor.locals] == [0, 1, 2]

    def test_scale_down_reaps_and_forgets_retired_workers(self):
        from repro.serve.cluster.supervisor import (
            IDLE_TICKS_TO_RETIRE,
            ClusterSupervisor,
        )

        class _FakeWorker(object):
            def __init__(self, worker_id):
                self.id = worker_id
                self.state = "starting"

            @property
            def alive(self):
                return self.state not in ("dead", "stopped")

            async def spawn(self):
                self.state = "idle"
                return self

            async def stop(self, timeout=10.0):
                self.state = "stopped"

        depth = [0]
        supervisor = ClusterSupervisor(local_workers=0, min_local=1,
                                       max_local=3, high_water=2,
                                       queue_depth=lambda: depth[0])
        supervisor._new_local = _FakeWorker
        retired = []

        async def scenario():
            supervisor._loop = asyncio.get_running_loop()
            supervisor._idle = asyncio.Queue()
            for _cycle in range(2):
                depth[0] = 5                      # burst: grow to ceiling
                for _ in range(4):
                    await supervisor._autoscale_tick()
                assert len(supervisor.live_locals()) == 3
                burst = list(supervisor.locals)
                depth[0] = 0                      # idle: retire to floor
                for _ in range(3 * IDLE_TICKS_TO_RETIRE):
                    await supervisor._autoscale_tick()
                    assert len(supervisor.locals) <= 3
                retired.extend(worker for worker in burst
                               if worker not in supervisor.locals)
                assert len(supervisor.locals) == 1
                assert supervisor._idle.qsize() == 1

        asyncio.run(scenario())
        assert len(retired) == 4
        assert all(worker.state == "stopped" for worker in retired)
        assert len({worker.id for worker in retired}) == 4


# ----------------------------------------------------------------------
# deadlines: propagation + shedding


class TestDeadlines(object):
    def test_expired_queued_job_is_shed_with_typed_error(self, tmp_path):
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          max_concurrent=1,
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                # occupy the only slot so the deadlined job waits longer
                # than its budget allows
                client.submit("libquantum", "none",
                              instructions=SLOW_BUDGET)
                ticket = client.submit("mcf", "none",
                                       instructions=SLOW_BUDGET,
                                       deadline_ms=50)
                with pytest.raises(ServeError) as info:
                    client.result(ticket["job_id"], wait=True)
                assert info.value.code == "deadline-exceeded"
                stats = client.statz()
        assert stats["serve.fleet.sheds"] == 1

    def test_deadline_ms_is_validated(self, tmp_path):
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                with pytest.raises(ServeError) as info:
                    client.submit("mcf", "none", instructions=BUDGET,
                                  deadline_ms=0)
                assert info.value.code == "bad-request"

    def test_deadlined_submission_does_not_coalesce_with_plain(
            self, tmp_path):
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          max_concurrent=1,
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                client.submit("libquantum", "none",
                              instructions=SLOW_BUDGET)
                plain = client.submit("mcf", "none",
                                      instructions=SLOW_BUDGET)
                deadlined = client.submit("mcf", "none",
                                          instructions=SLOW_BUDGET,
                                          deadline_ms=60_000)
                assert deadlined["job_id"] != plain["job_id"]
                assert not deadlined.get("coalesced")

    def test_lazy_queue_shed_unit(self):
        async def body():
            table = JobTable()
            shed = []
            queue = AdmissionQueue(high_water=8, on_shed=shed.append)
            expired = table.new_job("k-expired", "single", {"policy": {}},
                                    [None], priority=5, deadline_ms=1)
            live = table.new_job("k-live", "single", {"policy": {}},
                                 [None])
            queue.push(expired)
            queue.push(live)
            await asyncio.sleep(0.01)  # let the 1ms deadline lapse
            popped = await queue.pop()
            return popped, shed

        popped, shed = asyncio.run(body())
        assert popped.id == "j000002"
        assert [job.id for job in shed] == ["j000001"]


# ----------------------------------------------------------------------
# circuit breaker: end-to-end lifecycle + unit state machine


class TestCircuitBreakerServer(object):
    def test_open_half_open_close_lifecycle(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:1.0")
        board = BreakerBoard(window=4, min_events=2,
                             failure_threshold=0.5, cooldown=0.3)
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          heartbeat_interval=0, breaker=board) as thread:
            with _client(thread) as client:
                for variant in range(2):
                    ticket = client.submit("libquantum", "none",
                                           instructions=BUDGET,
                                           variant=variant, retries=0)
                    with pytest.raises(ServeError):
                        client.result(ticket["job_id"], wait=True)
                assert board.state("libquantum") == "open"
                # open: busy-class rejection, no job admitted
                with pytest.raises(ServeError) as info:
                    client.submit("libquantum", "none",
                                  instructions=BUDGET, variant=9)
                assert info.value.code == "circuit-open"
                # an unrelated benchmark is unaffected (its own breaker)
                other = client.submit("mcf", "none", instructions=BUDGET,
                                      retries=0)
                with pytest.raises(ServeError):
                    client.result(other["job_id"], wait=True)
                assert board.state("mcf") == "closed"
                # heal the workload, wait out the cooldown: the next
                # submission is the half-open probe and closes the loop
                monkeypatch.delenv("REPRO_FAULTS")
                time.sleep(0.35)
                probe = client.submit("libquantum", "none",
                                      instructions=BUDGET, variant=3,
                                      retries=0)
                reply = client.result(probe["job_id"], wait=True)
                assert reply["state"] == "done"
                assert board.state("libquantum") == "closed"
                stats = client.statz()
        assert stats["serve.fleet.breaker.opened"] == 1
        assert stats["serve.fleet.breaker.half_open"] == 1
        assert stats["serve.fleet.breaker.closed"] == 1
        assert stats["serve.jobs.rejected_circuit"] == 1

    def test_unit_state_machine(self):
        clock = [0.0]
        breaker = CircuitBreaker(window=4, min_events=3,
                                 failure_threshold=0.5, cooldown=10.0,
                                 clock=lambda: clock[0])
        # below min_events nothing can open it
        assert breaker.record(False) is None
        assert breaker.record(False) is None
        assert breaker.state == "closed"
        assert breaker.record(False) == ("closed", "open")
        allowed, transition = breaker.allow()
        assert not allowed and transition is None
        # cooldown expiry dispatches exactly one probe
        clock[0] = 10.0
        allowed, transition = breaker.allow()
        assert allowed and transition == ("open", "half-open")
        allowed, _ = breaker.allow()
        assert not allowed  # second caller blocked while probe in flight
        # failed probe re-opens; successful probe closes and clears
        assert breaker.record(False) == ("half-open", "open")
        clock[0] = 20.0
        assert breaker.allow()[0]
        assert breaker.record(True) == ("half-open", "closed")
        assert breaker.failure_rate == 0.0
        # window slides: old failures age out of the estimate
        for _ in range(4):
            breaker.record(True)
        assert breaker.record(False) is None
        assert breaker.failure_rate == pytest.approx(0.25)

    def test_board_routes_transitions(self):
        seen = []
        board = BreakerBoard(window=2, min_events=1, failure_threshold=1.0,
                             cooldown=5.0,
                             on_transition=lambda *args: seen.append(args))
        board.record("mcf", False)
        assert board.state("mcf") == "open"
        assert board.state("astar") == "closed"
        assert seen == [("mcf", "closed", "open")]


# ----------------------------------------------------------------------
# unit coverage: fault verbs, heartbeat detector, client retry


class TestFleetFaultVerbs(object):
    def test_grammar_accepts_worker_verbs_and_ms(self):
        specs = parse_faults(
            "worker-kill:0.3,worker-hang:0.1:seed=7,worker-slow:1.0:ms=25"
        )
        assert specs["worker-kill"].prob == 0.3
        assert specs["worker-hang"].seed == 7
        assert specs["worker-slow"].ms == 25.0

    def test_grammar_rejects_bad_ms(self):
        with pytest.raises(ValueError):
            parse_faults("worker-slow:1.0:ms=-5")

    def test_lethal_verbs_fire_first_attempt_only(self):
        plan = FaultPlan(parse_faults("worker-kill:1.0,worker-hang:1.0"))
        assert plan.should_worker_kill("job|start", attempt=0)
        assert not plan.should_worker_kill("job|start", attempt=1)
        assert plan.should_worker_hang("job|start", attempt=0)
        assert not plan.should_worker_hang("job|start", attempt=3)

    def test_worker_slow_fires_every_attempt_with_default(self):
        plan = FaultPlan(parse_faults("worker-slow:1.0"))
        assert plan.worker_slow_seconds("job|t1") \
            == pytest.approx(DEFAULT_SLOW_MS / 1000.0)
        plan = FaultPlan(parse_faults("worker-slow:0.0"))
        assert plan.worker_slow_seconds("job|t1") == 0.0

    def test_decisions_are_deterministic(self):
        plan = FaultPlan(parse_faults("worker-kill:0.5:seed=3"))
        keys = ["job-%d|t%d" % (j, t) for j in range(8) for t in range(3)]
        first = [plan.should_worker_kill(key) for key in keys]
        second = [plan.should_worker_kill(key) for key in keys]
        assert first == second
        assert any(first) and not all(first)


class TestWorkerHealthUnit(object):
    def test_missed_and_dead(self):
        clock = [0.0]
        health = WorkerHealth(beat_interval=1.0, max_missed=3,
                              clock=lambda: clock[0])
        assert health.missed() == 0 and not health.dead()
        clock[0] = 2.5
        assert health.missed() == 2 and not health.dead()
        clock[0] = 3.0
        assert health.dead()
        health.beat()
        assert health.missed() == 0 and not health.dead()
        assert health.beats == 1

    def test_reset_restarts_grace_window(self):
        clock = [0.0]
        health = WorkerHealth(beat_interval=0.5, max_missed=2,
                              clock=lambda: clock[0])
        clock[0] = 5.0
        assert health.dead()
        health.reset()
        assert not health.dead()


class TestClientBusyRetry(object):
    def _scripted_client(self, codes, busy_retries):
        client = ServeClient("127.0.0.1", 1, busy_retries=busy_retries)
        calls = []

        def fake_request(message, wait=False):
            calls.append(dict(message))
            if codes:
                code = codes.pop(0)
                raise ServeError(code, code)
            return {"type": "submitted", "job_id": "j1"}

        client._request = fake_request
        return client, calls

    def test_busy_class_rejections_retry_then_succeed(self):
        client, calls = self._scripted_client(
            ["busy", "circuit-open"], busy_retries=2
        )
        ticket = client.submit("mcf", "none", instructions=BUDGET)
        assert ticket["job_id"] == "j1"
        assert len(calls) == 3
        assert all(call == calls[0] for call in calls)  # same payload

    def test_budget_exhaustion_raises_last_busy_error(self):
        client, calls = self._scripted_client(
            ["busy", "busy", "busy"], busy_retries=2
        )
        with pytest.raises(ServeError) as info:
            client.submit("mcf", "none", instructions=BUDGET)
        assert info.value.code == "busy"
        assert len(calls) == 3

    def test_deadline_exceeded_is_a_hard_stop(self):
        client, calls = self._scripted_client(
            ["deadline-exceeded"], busy_retries=5
        )
        with pytest.raises(ServeError) as info:
            client.submit("mcf", "none", instructions=BUDGET,
                          deadline_ms=100)
        assert info.value.code == "deadline-exceeded"
        assert len(calls) == 1

    def test_zero_budget_preserves_fail_fast(self):
        client, calls = self._scripted_client(["busy"], busy_retries=0)
        with pytest.raises(ServeError):
            client.submit("mcf", "none", instructions=BUDGET)
        assert len(calls) == 1


# ----------------------------------------------------------------------
# breaker board under concurrent verdict recording


class TestBreakerBoardConcurrency(object):
    def test_concurrent_verdicts_never_tear_the_window(self):
        """Hammer one board from many threads; invariants must hold.

        The board is the only breaker surface shared across threads
        (bench harnesses and cluster-side recorders fold verdicts off
        the loop thread), so concurrent ``record``/``allow`` must not
        tear a window past its bound, double-create a breaker, or emit
        an impossible transition.
        """
        import threading

        transitions = []
        t_lock = threading.Lock()

        def on_transition(benchmark, old, new):
            with t_lock:
                transitions.append((benchmark, old, new))

        board = BreakerBoard(window=16, min_events=4,
                             failure_threshold=0.5, cooldown=3600.0,
                             on_transition=on_transition)
        benchmarks = ["mcf", "libquantum", "sjeng", "astar"]
        per_thread = 200
        errors = []
        barrier = threading.Barrier(8)

        def hammer(seed):
            try:
                barrier.wait()
                for i in range(per_thread):
                    name = benchmarks[(seed + i) % len(benchmarks)]
                    board.allow(name)
                    # mcf fails always; the others always succeed
                    board.record(name, name != "mcf")
            except Exception as exc:          # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        snap = board.snapshot()
        # one breaker per benchmark: lazy creation raced 8 threads but
        # must still have produced exactly one instance each
        assert sorted(snap) == sorted(benchmarks)
        for benchmark, view in snap.items():
            assert view["state"] in ("closed", "open", "half-open")
            assert view["events"] <= 16        # window bound held
        # the always-failing benchmark opened; the healthy ones did not
        assert board.state("mcf") == "open"
        for healthy in ("libquantum", "sjeng", "astar"):
            assert board.state(healthy) == "closed"
        # exactly one closed->open transition for mcf, none for others
        opened = [t for t in transitions if t[1:] == ("closed", "open")]
        assert opened == [("mcf", "closed", "open")]

    def test_concurrent_open_admits_exactly_one_probe(self):
        """After cooldown, racing ``allow`` calls release one probe."""
        import threading

        clock = [0.0]
        board = BreakerBoard(window=8, min_events=2,
                             failure_threshold=0.5, cooldown=1.0,
                             clock=lambda: clock[0])
        for _ in range(4):
            board.record("mcf", False)
        assert board.state("mcf") == "open"

        clock[0] = 2.0                        # past cooldown
        admitted = []
        a_lock = threading.Lock()
        barrier = threading.Barrier(8)

        def probe():
            barrier.wait()
            if board.allow("mcf"):
                with a_lock:
                    admitted.append(1)

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # one open->half-open probe; the other seven were rejected
        assert len(admitted) == 1
        assert board.state("mcf") == "half-open"


# ----------------------------------------------------------------------
# supervisor respawn backoff: the cap must hold under exhaustion


class TestRespawnBackoffCap(object):
    def test_backoff_delay_is_capped_after_exhaustion(self):
        """A slot that keeps dying respawns forever at the capped delay.

        ``ClusterSupervisor._respawn`` feeds ``min(respawns, 6)`` into
        the deterministic backoff, so a worker that has died 50 times
        waits exactly as long as one that died 6 times -- bounded,
        never overflowing, and the slot is never abandoned.
        """
        from repro.serve.cluster.supervisor import (
            RESPAWN_POLICY,
            ClusterSupervisor,
        )
        from repro.resilience import backoff_delay

        class _Slot(object):
            def __init__(self):
                self.id = 0
                self.respawns = 0
                self.spawned = 0
                self.state = "dead"
                self.alive = False

            async def reap(self):
                pass

            async def spawn(self):
                self.spawned += 1
                self.state = "idle"

        supervisor = ClusterSupervisor.__new__(ClusterSupervisor)
        supervisor.respawn_policy = RESPAWN_POLICY
        supervisor.metrics = None

        slept = []

        async def scenario():
            real_sleep = asyncio.sleep

            async def fake_sleep(delay):
                slept.append(delay)
                await real_sleep(0)

            asyncio.sleep = fake_sleep
            try:
                slot = _Slot()
                # drive the slot far past the cap exponent
                for respawns in (0, 1, 6, 7, 20, 50):
                    slot.respawns = respawns
                    await supervisor._respawn(slot)
                return slot
            finally:
                asyncio.sleep = real_sleep

        slot = asyncio.run(scenario())

        # every round respawned the slot (never abandoned) and counted
        assert slot.spawned == 6
        assert slot.respawns == 51

        capped = backoff_delay(RESPAWN_POLICY, "worker-0", 6)
        expected = [backoff_delay(RESPAWN_POLICY, "worker-0", n)
                    for n in (0, 1, 6)] + [capped] * 3
        observed = [d for d in slept if d > 0]
        assert observed == [d for d in expected if d > 0]
        # the capped tail is flat: exhaustion does not grow the wait
        assert all(d <= RESPAWN_POLICY.backoff_max * 1.5 + 1e-9
                   for d in observed)

    def test_respawn_failure_marks_slot_dead_but_not_abandoned(self):
        """A spawn that raises leaves the slot dead for the next pass."""
        from repro.serve.cluster.supervisor import ClusterSupervisor
        from repro.serve.supervisor import WorkerLost
        from repro.resilience import FailurePolicy

        class _Slot(object):
            id = 3
            respawns = 0
            state = "dead"
            alive = False

            async def reap(self):
                pass

            async def spawn(self):
                raise WorkerLost("spawn refused")

        supervisor = ClusterSupervisor.__new__(ClusterSupervisor)
        supervisor.respawn_policy = FailurePolicy(
            retries=0, backoff_base=0.0, backoff_factor=1.0,
            backoff_max=0.0, jitter=0.0, seed=0,
        )
        supervisor.metrics = None
        slot = _Slot()
        asyncio.run(supervisor._respawn(slot))
        assert slot.state == "dead"
        assert slot.respawns == 1     # the attempt still counted
