"""Cluster-tier tests: remote nodes, cache peers, stealing, partitions.

The acceptance bar is the repo's standing rule lifted to multiple
hosts -- recovery must be *byte-identical*, not merely "successful":

* a 2-node cluster under sustained ``host-kill`` + ``cache-peer-corrupt``
  chaos completes a sweep with zero lost jobs, every result equal to the
  serial :meth:`ExperimentRunner.run_batch` reference;
* killing the last node mid-run degrades the cluster to the local fleet
  (typed gauge + transition counter) and the job still completes;
* a ``host-partition`` node finishes its in-flight shard into its local
  cache, reconnects, and the job converges;
* work stealing duplicates a straggler's shard and stays byte-identical
  (first write wins in the content-addressed cache);
* every cache entry crossing a peer socket is verified against its
  integrity envelope in both directions.

Plus socket-light unit coverage for rendezvous placement, peer-server
eviction, shard planning, the steal age gate, replay-on-reconnect and
the client's transparent reconnect-and-resend.
"""

import asyncio
import json
import os
import socket
import threading
import time

import pytest

from repro.resilience.envelope import wrap_envelope
from repro.resilience.faults import FaultPlan, parse_faults
from repro.serve import ServeClient, ServeError, protocol
from repro.serve.cluster import (
    CachePeerServer,
    ClusterSupervisor,
    PeerSet,
    parse_hostport,
    rendezvous_rank,
    spawn_node,
)
from repro.serve.cluster.cas import _valid_relpath
from repro.serve.jobs import Job
from repro.serve.metrics import ServeMetrics
from repro.serve.server import ServerThread
from repro.sim import ExperimentRunner, RunRequest
from repro.sim.runner import CACHE_VERSION

BUDGET = 2000
#: budget for shards that must still be running when we steal them
SLOW_BUDGET = 300_000


def _client(thread, timeout=120):
    host, port = thread.address
    return ServeClient(host, port, timeout=timeout)


def _entry(tag="x"):
    """A valid (relpath, envelope text) cache entry pair."""
    payload = {"benchmark": "mcf", "tag": tag, "ipc": 1.25}
    text = json.dumps(wrap_envelope(payload, CACHE_VERSION),
                      sort_keys=True)
    name = "single-%s.json" % (tag * 8)[:16]
    return "single/%s/%s" % (tag[:1] * 2, name), text


def _wait(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ----------------------------------------------------------------------
# rendezvous placement + entry-path hygiene


class TestPlacementUnits(object):
    def test_rendezvous_rank_is_deterministic_and_total(self):
        peers = [("10.0.0.%d" % n, 7000 + n) for n in range(5)]
        first = rendezvous_rank("single/ab/x.json", peers)
        again = rendezvous_rank("single/ab/x.json", list(reversed(peers)))
        assert first == again                  # order-independent
        assert sorted(first) == sorted(peers)  # a permutation, no drops
        other = rendezvous_rank("single/cd/y.json", peers)
        assert sorted(other) == sorted(peers)

    def test_different_entries_spread_across_peers(self):
        peers = [("host%d" % n, 7000) for n in range(4)]
        tops = {
            rendezvous_rank("single/%02d/e.json" % n, peers)[0]
            for n in range(32)
        }
        assert len(tops) > 1   # HRW actually distributes

    def test_valid_relpath_rejects_escapes(self):
        assert _valid_relpath("single/ab/single-ab.json")
        for bad in ("", None, "/etc/passwd", "../up.json",
                    "single/../../up.json", "single//x.json",
                    "a\\b.json", 7):
            assert not _valid_relpath(bad)

    def test_parse_hostport(self):
        assert parse_hostport("127.0.0.1:7861") == ("127.0.0.1", 7861)
        with pytest.raises(ValueError):
            parse_hostport("no-port")
        with pytest.raises(ValueError):
            parse_hostport(":7861")


# ----------------------------------------------------------------------
# the cluster fault verbs


class TestClusterFaultVerbs(object):
    def test_grammar_accepts_cluster_verbs(self):
        specs = parse_faults(
            "host-kill:0.3:seed=1,host-partition:0.5:seed=2,"
            "cache-peer-corrupt:0.2:seed=3"
        )
        assert set(specs) == {"host-kill", "host-partition",
                              "cache-peer-corrupt"}
        assert specs["host-kill"].prob == 0.3

    def test_lethal_host_verbs_fire_first_attempt_only(self):
        plan = FaultPlan(parse_faults("host-kill:1.0,host-partition:1.0"))
        assert plan.should_host_kill("j1#s0|start", attempt=0)
        assert not plan.should_host_kill("j1#s0|start", attempt=1)
        assert plan.should_host_partition("j1#s0|t1", attempt=0)
        assert not plan.should_host_partition("j1#s0|t1", attempt=2)

    def test_peer_corrupt_fires_once_per_key(self):
        plan = FaultPlan(parse_faults("cache-peer-corrupt:1.0"))
        assert plan.peer_corrupt_payload("single/aa/e.json") is not None
        # the re-fetch after detection must see the clean entry
        assert plan.peer_corrupt_payload("single/aa/e.json") is None
        assert plan.peer_corrupt_payload("single/bb/f.json") is not None

    def test_decisions_are_deterministic_across_plans(self):
        spec = "host-kill:0.5:seed=9"
        keys = ["j1#s%d|start" % n for n in range(20)]
        one = [FaultPlan(parse_faults(spec)).should_host_kill(k)
               for k in keys]
        two = [FaultPlan(parse_faults(spec)).should_host_kill(k)
               for k in keys]
        assert one == two
        assert any(one) and not all(one)


# ----------------------------------------------------------------------
# cache-peer tier: replication, integrity, eviction


class TestCachePeerTier(object):
    def test_put_get_roundtrip_verifies_envelopes(self, tmp_path):
        server = CachePeerServer(str(tmp_path / "peer-a"))
        server.start()
        try:
            peers = PeerSet(peers=[server.address], replicas=1)
            rel, text = _entry("a")
            assert peers.store(rel, text) == 1
            found = peers.fetch(rel)
            assert found is not None
            got_text, payload = found
            assert got_text == text           # byte-identical transit
            assert payload["tag"] == "a"
            assert peers.snapshot()["hits"] == 1
            # the entry landed on disk at its content address
            assert os.path.isfile(os.path.join(str(tmp_path / "peer-a"),
                                               rel))
        finally:
            server.stop()

    def test_put_rejects_garbage_and_bad_paths(self, tmp_path):
        server = CachePeerServer(str(tmp_path / "peer"))
        server.start()
        try:
            peers = PeerSet(peers=[server.address], replicas=1)
            rel, _text = _entry("b")
            # never trust the wire: a pusher without a valid envelope
            # must not be persisted
            assert peers.store(rel, "not json at all") == 0
            assert peers.store(
                rel, json.dumps({"v": CACHE_VERSION, "sha": "0" * 40,
                                 "data": {"forged": True}})
            ) == 0
            assert server.counters["put_rejects"] >= 2
            assert not os.path.exists(
                os.path.join(str(tmp_path / "peer"), rel))
            # path escapes are rejected with a typed error frame
            with socket.create_connection(server.address,
                                          timeout=5.0) as conn:
                reader, writer = conn.makefile("rb"), conn.makefile("wb")
                protocol.write_frame_blocking(
                    writer, {"type": "cache-get", "path": "../../etc"})
                reply = protocol.read_frame_blocking(reader)
            assert reply["type"] == "error"
            assert reply["code"] == "bad-request"
        finally:
            server.stop()

    def test_fetch_skips_corrupt_replica_and_recovers(self, tmp_path):
        servers = [CachePeerServer(str(tmp_path / ("peer-%d" % n)))
                   for n in range(2)]
        for server in servers:
            server.start()
        try:
            addrs = [server.address for server in servers]
            peers = PeerSet(peers=addrs, replicas=2)
            rel, text = _entry("c")
            assert peers.store(rel, text) == 2   # both replicas hold it
            # rot the first-ranked replica on disk, out-of-band
            first = rendezvous_rank(rel, addrs)[0]
            victim = servers[addrs.index(first)]
            with open(os.path.join(victim.cache_dir, rel), "w") as fh:
                fh.write('{"v": %d, "sha": "bad", "data": {}}'
                         % CACHE_VERSION)
            found = peers.fetch(rel)
            assert found is not None             # second replica saved it
            assert found[0] == text
            snap = peers.snapshot()
            assert snap["corrupt"] == 1
            assert snap["hits"] == 1
        finally:
            for server in servers:
                server.stop()

    def test_injected_peer_corruption_is_detected(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS",
                           "cache-peer-corrupt:1.0:seed=5")
        server = CachePeerServer(str(tmp_path / "peer"))
        server.start()
        try:
            peers = PeerSet(peers=[server.address], replicas=1)
            rel, text = _entry("d")
            assert peers.store(rel, text) == 1
            # first fetch: the verb corrupts the served entry; the
            # envelope check catches it and the single replica is dry
            assert peers.fetch(rel) is None
            assert peers.snapshot()["corrupt"] == 1
            assert server.counters["corrupt_served"] == 1
            # the verb fires once per key: the re-fetch is clean
            found = peers.fetch(rel)
            assert found is not None and found[0] == text
        finally:
            server.stop()

    def test_eviction_is_deterministic_and_bounded(self, tmp_path):
        server = CachePeerServer(str(tmp_path / "peer"), max_entries=2)
        server.start()
        try:
            peers = PeerSet(peers=[server.address], replicas=1)
            rels = []
            for tag in ("e", "f", "g", "h"):
                rel, text = _entry(tag)
                rels.append(rel)
                assert peers.store(rel, text) == 1
                os.utime(os.path.join(server.cache_dir, rel),
                         (100 + len(rels), 100 + len(rels)))
            # bound holds; the two oldest (by mtime, relpath) are gone
            remaining = {
                rel for rel in rels
                if os.path.exists(os.path.join(server.cache_dir, rel))
            }
            assert remaining == set(rels[-2:])
            assert server.counters["evictions"] == 2
        finally:
            server.stop()


# ----------------------------------------------------------------------
# shard planning + steal policy (no sockets, no subprocesses)


def _bare_supervisor(**kwargs):
    kwargs.setdefault("cache_dir", None)
    kwargs.setdefault("local_workers", 0)
    return ClusterSupervisor(**kwargs)


def _job(n_requests, job_id="j1"):
    requests = [RunRequest("mcf", "none", BUDGET, None, variant)
                for variant in range(n_requests)]
    return Job(job_id, "key-%s" % job_id, "sweep", {}, requests)


class TestShardPlanning(object):
    def test_fixed_shard_size_slices_contiguously(self):
        supervisor = _bare_supervisor(shard_tasks=3)
        shards = supervisor._plan_shards(_job(8))
        assert [shard.id for shard in shards] == ["j1#s0", "j1#s1",
                                                 "j1#s2"]
        assert [shard.indices for shard in shards] == [
            [0, 1, 2], [3, 4, 5], [6, 7],
        ]
        # every request appears in exactly one shard, in order
        flat = [i for shard in shards for i in shard.indices]
        assert flat == list(range(8))
        assert all(len(shard.requests) == len(shard.indices)
                   for shard in shards)

    def test_auto_size_caps_at_max_shard_tasks(self):
        from repro.serve.cluster.supervisor import MAX_SHARD_TASKS

        supervisor = _bare_supervisor()
        shards = supervisor._plan_shards(_job(4 * MAX_SHARD_TASKS))
        assert all(len(shard.requests) <= MAX_SHARD_TASKS
                   for shard in shards)

    def test_shard_keys_are_deterministic(self):
        supervisor = _bare_supervisor(shard_tasks=2)
        one = [s.key for s in supervisor._plan_shards(_job(5))]
        two = [s.key for s in supervisor._plan_shards(_job(5))]
        assert one == two == ["key-j1#s0", "key-j1#s1", "key-j1#s2"]

    def test_steal_picks_only_aged_stragglers(self):
        supervisor = _bare_supervisor(shard_tasks=1, steal_min_age=0.5)
        job = _job(3)
        s0, s1, s2 = supervisor._plan_shards(job)
        now = time.monotonic()
        active = {
            "t0": {"sid": s0.id, "shard": s0, "t0": now - 2.0},
            "t1": {"sid": s1.id, "shard": s1, "t0": now - 1.0},
            "t2": {"sid": s2.id, "shard": s2, "t0": now},  # too young
        }
        # oldest aged straggler wins
        assert supervisor._pick_steal(active, set()) is s0
        # a shard already done is not a victim
        assert supervisor._pick_steal(active, {s0.id}) is s1
        # a shard already running twice is not stolen again
        active["t3"] = {"sid": s1.id, "shard": s1, "t0": now - 1.5}
        assert supervisor._pick_steal(active, {s0.id}) is None
        # nothing old enough -> no steal at all
        young = {"t2": active["t2"]}
        assert supervisor._pick_steal(young, set()) is None


# ----------------------------------------------------------------------
# cluster supervisor with local members only (asyncio, subprocesses)


class TestClusterSupervisorLocal(object):
    def _run(self, supervisor, job):
        async def scenario():
            await supervisor.start()
            try:
                loop = asyncio.get_running_loop()
                return await supervisor.run_job(loop, job)
            finally:
                await supervisor.shutdown()

        return asyncio.run(scenario())

    def test_sharded_local_run_is_byte_identical(self, tmp_path):
        requests = [RunRequest(bench, prefetcher, BUDGET)
                    for bench in ("libquantum", "mcf")
                    for prefetcher in ("none", "stride", "bfetch")]
        job = Job("j1", "k1", "sweep", {}, requests)
        supervisor = ClusterSupervisor(
            cache_dir=str(tmp_path / "cluster-cache"), local_workers=2,
            beat_interval=0.25, shard_tasks=2,
        )
        results, report = self._run(supervisor, job)
        assert all(result is not None for result in results)
        serial = ExperimentRunner(cache_dir=str(tmp_path / "ref-cache"))
        want, _ = serial.run_batch(requests)
        assert json.dumps(results, sort_keys=True) \
            == json.dumps([r.as_dict() for r in want], sort_keys=True)
        assert report.get("misses", 0) + report.get("hits", 0) \
            >= len(requests)

    def test_work_stealing_duplicates_straggler_byte_identical(
            self, tmp_path):
        # shard 0 is a straggler (big budget); with one-task shards the
        # fast member drains the sheet, then steals the straggler once
        # it has aged past the gate.  First write wins in the cache, so
        # the duplicated execution must stay byte-identical.
        requests = [RunRequest("mcf", "none", SLOW_BUDGET, None, 0)] + [
            RunRequest("libquantum", "none", BUDGET, None, variant)
            for variant in range(3)
        ]
        job = Job("j1", "k1", "sweep", {}, requests)
        metrics = ServeMetrics()
        supervisor = ClusterSupervisor(
            cache_dir=str(tmp_path / "cluster-cache"), local_workers=2,
            beat_interval=0.25, shard_tasks=1, steal_min_age=0.1,
            metrics=metrics,
        )
        results, _report = self._run(supervisor, job)
        assert metrics.value("cluster.steals") >= 1
        serial = ExperimentRunner(cache_dir=str(tmp_path / "ref-cache"))
        want, _ = serial.run_batch(requests)
        assert json.dumps(results, sort_keys=True) \
            == json.dumps([r.as_dict() for r in want], sort_keys=True)

    def test_replay_pulls_completed_entries_from_node_cache(
            self, tmp_path):
        # a reconnecting node's hello lists digests it completed while
        # dark; the coordinator must pull the ones it lacks through the
        # cache-peer tier into its own store
        node_cache = str(tmp_path / "node-cache")
        rel_new, text_new = _entry("n")
        rel_old, text_old = _entry("o")
        node_peer = CachePeerServer(node_cache)
        node_peer.start()
        peers = PeerSet(peers=[node_peer.address], replicas=1)
        assert peers.store(rel_new, text_new) == 1
        assert peers.store(rel_old, text_old) == 1

        metrics = ServeMetrics()
        supervisor = ClusterSupervisor(
            cache_dir=str(tmp_path / "coord-cache"), local_workers=0,
            metrics=metrics,
        )
        # the coordinator already holds rel_old -- only rel_new replays
        with open(os.path.join(node_cache, rel_old)) as fh:
            old_text = fh.read()
        target = os.path.join(str(tmp_path / "coord-cache"), rel_old)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "w") as fh:
            fh.write(old_text)

        class _Handle(object):
            peer_addr = node_peer.address

        async def scenario():
            supervisor._loop = asyncio.get_running_loop()
            await supervisor._replay_completed(
                _Handle(), [rel_new, rel_old, "../evil.json"])

        try:
            asyncio.run(scenario())
        finally:
            node_peer.stop()
            if supervisor.peer_server is not None:
                supervisor.peer_server.stop()
        replayed = os.path.join(str(tmp_path / "coord-cache"), rel_new)
        assert os.path.isfile(replayed)
        with open(replayed) as fh:
            assert fh.read() == text_new
        assert metrics.value("cluster.replayed") == 1

    def test_degraded_gauge_without_nodes(self):
        supervisor = _bare_supervisor()
        assert supervisor.degraded() == 1
        assert supervisor.live_count() == 0


# ----------------------------------------------------------------------
# full integration: coordinator + real node subprocesses


def _node_env(faults=None):
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    return env


def _wait_nodes(client, n, timeout=20.0):
    def up():
        fleet = client.fleet()
        return fleet.get("mode") == "cluster" \
            and len(fleet.get("nodes") or []) >= n
    assert _wait(up, timeout=timeout), \
        "nodes never joined: %r" % (client.fleet(),)


class TestClusterIntegration(object):
    def test_two_node_chaos_lossless_byte_identical(self, tmp_path,
                                                    monkeypatch):
        # nodes run under host-kill + peer-corrupt chaos; the
        # coordinator (and its local worker) stays clean, so every
        # shard a dying node drops is requeued and completed
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults = "host-kill:0.4:seed=3,cache-peer-corrupt:0.3:seed=4"
        benchmarks = ["libquantum", "mcf", "sjeng"]
        prefetchers = ["none", "bfetch"]
        procs = []
        with ServerThread(cache_dir=str(tmp_path / "coord-cache"),
                          cluster=True, workers=1, beat_interval=0.25,
                          shard_tasks=1,
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                procs = [
                    spawn_node(thread.address,
                               cache_dir=str(tmp_path / ("node%d" % n)),
                               node_id="chaos-%d" % n,
                               env=_node_env(faults))
                    for n in range(2)
                ]
                try:
                    _wait_nodes(client, 2)
                    ticket = client.submit_sweep(benchmarks, prefetchers,
                                                 instructions=BUDGET)
                    reply = client.result(ticket["job_id"], wait=True)
                    assert reply["state"] == "done"
                    stats = client.statz()
                finally:
                    for proc in procs:
                        proc.kill()
                        proc.wait()
        assert stats["serve.cluster.nodes_joined"] >= 2
        assert stats["serve.jobs.completed"] == 1
        serial = ExperimentRunner(cache_dir=str(tmp_path / "ref-cache"))
        want, _ = serial.run_batch(
            [RunRequest(bench, prefetcher, BUDGET)
             for bench in benchmarks for prefetcher in prefetchers]
        )
        assert json.dumps(reply["result"], sort_keys=True) \
            == json.dumps([r.as_dict() for r in want], sort_keys=True)

    def test_total_node_loss_degrades_but_completes(self, tmp_path,
                                                    monkeypatch):
        # the node dies on its first shard (host-kill:1.0); the cluster
        # must record the degraded transition and finish on the local
        # fleet -- total node loss is a slowdown, never a wedge
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        with ServerThread(cache_dir=str(tmp_path / "coord-cache"),
                          cluster=True, workers=1, beat_interval=0.25,
                          shard_tasks=1,
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                proc = spawn_node(
                    thread.address,
                    cache_dir=str(tmp_path / "node-cache"),
                    node_id="doomed",
                    env=_node_env("host-kill:1.0:seed=1"),
                )
                try:
                    _wait_nodes(client, 1)
                    assert client.statz()["serve.cluster.degraded"] == 0
                    ticket = client.submit_sweep(
                        ["libquantum", "mcf"], ["none", "stride"],
                        instructions=BUDGET,
                    )
                    reply = client.result(ticket["job_id"], wait=True)
                    assert reply["state"] == "done"
                    stats = client.statz()
                    fleet = client.fleet()
                finally:
                    proc.kill()
                    proc.wait()
        assert proc.returncode is not None
        assert stats["serve.cluster.nodes_lost"] >= 1
        assert stats["serve.cluster.degraded_transitions"] >= 1
        assert stats["serve.cluster.degraded"] == 1
        assert fleet["degraded"] == 1
        assert stats["serve.fleet.requeues"] >= 1
        serial = ExperimentRunner(cache_dir=str(tmp_path / "ref-cache"))
        want, _ = serial.run_batch(
            [RunRequest(bench, prefetcher, BUDGET)
             for bench in ("libquantum", "mcf")
             for prefetcher in ("none", "stride")]
        )
        assert json.dumps(reply["result"], sort_keys=True) \
            == json.dumps([r.as_dict() for r in want], sort_keys=True)

    def test_partitioned_node_reconnects_and_job_converges(
            self, tmp_path, monkeypatch):
        # host-partition drops the coordinator link at the first shard
        # boundary; the node keeps computing into its own cache and
        # redials, while the coordinator requeues the shard locally
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        with ServerThread(cache_dir=str(tmp_path / "coord-cache"),
                          cluster=True, workers=1, beat_interval=0.25,
                          shard_tasks=1,
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                proc = spawn_node(
                    thread.address,
                    cache_dir=str(tmp_path / "node-cache"),
                    node_id="flaky",
                    env=_node_env("host-partition:1.0:seed=2"),
                )
                try:
                    _wait_nodes(client, 1)
                    ticket = client.submit_sweep(
                        ["libquantum", "mcf"], ["none"],
                        instructions=BUDGET,
                    )
                    reply = client.result(ticket["job_id"], wait=True)
                    assert reply["state"] == "done"
                    # partitions are first-attempt-only, so the node
                    # comes back and is re-adopted
                    _wait_nodes(client, 1)
                    stats = client.statz()
                finally:
                    proc.kill()
                    proc.wait()
        assert stats["serve.cluster.nodes_lost"] >= 1
        assert stats["serve.cluster.nodes_joined"] >= 2  # re-adopted
        serial = ExperimentRunner(cache_dir=str(tmp_path / "ref-cache"))
        want, _ = serial.run_batch(
            [RunRequest(bench, "none", BUDGET)
             for bench in ("libquantum", "mcf")]
        )
        assert json.dumps(reply["result"], sort_keys=True) \
            == json.dumps([r.as_dict() for r in want], sort_keys=True)

    def test_fleet_endpoint_renders_node_rows(self, tmp_path,
                                              monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        with ServerThread(cache_dir=str(tmp_path / "coord-cache"),
                          cluster=True, workers=1, beat_interval=0.25,
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                proc = spawn_node(
                    thread.address,
                    cache_dir=str(tmp_path / "node-cache"),
                    node_id="shown", env=_node_env(),
                )
                try:
                    _wait_nodes(client, 1)
                    ticket = client.submit("mcf", "none",
                                           instructions=BUDGET)
                    client.result(ticket["job_id"], wait=True)
                    fleet = client.fleet()
                finally:
                    proc.kill()
                    proc.wait()
        assert fleet["mode"] == "cluster"
        assert fleet["degraded"] in (0, 1)
        rows = fleet["nodes"]
        assert len(rows) == 1
        row = rows[0]
        assert row["node"] == "shown"
        for field in ("host", "state", "rtt_ms", "jobs_done", "steals",
                      "peer_hit_rate"):
            assert field in row, "missing %r in node row %r" % (field,
                                                                row)
        # the CLI table renders these rows without blowing up
        from repro.cli import _print_fleet

        _print_fleet(fleet)


# ----------------------------------------------------------------------
# client: transparent reconnect + idempotent resubmit


class _FlakyServer(object):
    """Accepts connections; drops the first N requests without a reply."""

    def __init__(self, drops=1):
        self.drops = drops
        self.requests = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            reader = conn.makefile("rb")
            writer = conn.makefile("wb")
            try:
                while True:
                    frame = protocol.read_frame_blocking(reader)
                    if frame is None:
                        break
                    self.requests.append(frame)
                    if self.drops > 0:
                        self.drops -= 1
                        break        # slam the connection, no reply
                    protocol.write_frame_blocking(
                        writer, {"type": "pong"})
            except (OSError, protocol.ProtocolError):
                pass
            finally:
                # close the makefile handles too, or the client sees a
                # stalled-but-open socket instead of a clean EOF
                for handle in (reader, writer):
                    try:
                        handle.close()
                    except OSError:
                        pass
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                conn.close()

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


class TestClientReconnect(object):
    def test_dropped_connection_is_retried_once_transparently(self):
        server = _FlakyServer(drops=1)
        try:
            client = ServeClient(*server.address, timeout=5.0)
            reply = client.ping()
            assert reply["type"] == "pong"
            assert client.reconnects == 1
            # the resend carried the identical frame (idempotent)
            assert len(server.requests) == 2
            assert server.requests[0] == server.requests[1]
            client.close()
        finally:
            server.close()

    def test_second_drop_propagates_not_loops(self):
        server = _FlakyServer(drops=5)
        try:
            client = ServeClient(*server.address, timeout=5.0)
            with pytest.raises(ServeError) as info:
                client.ping()
            assert info.value.code == "connection"
            # exactly one bounded resend: two requests hit the wire
            assert len(server.requests) == 2
            assert client.reconnects == 1
            client.close()
        finally:
            server.close()

    def test_unreachable_server_raises_typed_connection_error(self):
        sock = socket.create_server(("127.0.0.1", 0))
        host, port = sock.getsockname()
        sock.close()                     # nobody is listening here now
        client = ServeClient(host, port, timeout=0.5)
        with pytest.raises(ServeError) as info:
            client.ping()
        assert info.value.code == "connection"
