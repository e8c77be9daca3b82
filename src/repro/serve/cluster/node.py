"""Remote worker node: dials the coordinator, executes shards, survives
partitions.

``repro node --connect host:port`` runs one :class:`NodeAgent` -- the
multi-host sibling of the local worker subprocess (:mod:`repro.serve
.supervisor`).  The frame grammar and the job body
(:func:`~repro.serve.supervisor.run_job_frame`) are shared (``job`` in;
``beat``/``progress``/``result``/``job-error`` out) but the transport
is a TCP connection to the coordinator's serve port, opened with a
``node-hello`` frame, instead of an inherited stdio pipe.  On the
coordinator side the connection is adopted by a
:class:`~repro.serve.cluster.remote.NodeHandle`, which gives the node
the exact requeue-on-death semantics local workers already have.

Beyond the worker protocol a node owns:

* a :class:`~repro.serve.cluster.cas.CachePeerServer` exporting its
  local result cache to the rest of the cluster, and a
  :class:`~repro.serve.cluster.cas.PeerSet` (installed on its runner)
  for read-through fetch / replicated writes -- the peer list arrives
  from the coordinator in ``node-welcome`` / ``peer-update`` frames;
* **partition tolerance**: when the coordinator connection drops
  (network loss, coordinator restart, or the ``host-partition`` chaos
  verb), the node *finishes its in-flight shard* into the local cache
  -- every completed task is a checkpoint -- then reconnects under
  deterministic backoff and replays the digests it completed while
  dark (the ``completed`` list in its fresh ``node-hello``), so no
  work is ever lost to a partition;
* the ``host-kill`` chaos verb: a deterministic ``os._exit`` at a
  task boundary, exercising node-loss detection and shard requeue.

Heartbeats carry the node's cache-peer counters, so ``repro jobs
--workers`` can show per-node peer hit rates without extra round
trips.
"""

import argparse
import os
import socket
import sys
import threading
import time

from repro.resilience import FailurePolicy, backoff_delay
from repro.resilience.faults import CRASH_EXIT_CODE, get_fault_plan
from repro.serve import protocol
from repro.serve.cluster.cas import (
    CachePeerServer,
    DEFAULT_REPLICAS,
    PeerSet,
)
from repro.serve.health import DEFAULT_BEAT_INTERVAL
from repro.serve.protocol import ProtocolError
from repro.serve.supervisor import run_job_frame

#: reconnect attempts before the node gives up and exits
DEFAULT_RECONNECT_ATTEMPTS = 20

#: deterministic backoff schedule for coordinator reconnects
RECONNECT_POLICY = FailurePolicy(retries=0, backoff_base=0.1,
                                 backoff_factor=2.0, backoff_max=5.0,
                                 jitter=0.5, seed=0)


class NodeAgent(object):
    """One remote worker node process (blocking, single-shard)."""

    def __init__(self, connect, cache_dir, node_id=None,
                 beat_interval=DEFAULT_BEAT_INTERVAL, batch_jobs=1,
                 peer_host="127.0.0.1", peer_port=0,
                 replicas=DEFAULT_REPLICAS, max_entries=None,
                 reconnect_attempts=DEFAULT_RECONNECT_ATTEMPTS):
        from repro.sim.runner import ExperimentRunner

        self.connect_addr = connect
        self.cache_dir = cache_dir
        self.node_id = node_id or "%s-%d" % (socket.gethostname(),
                                             os.getpid())
        self.beat_interval = beat_interval
        self.batch_jobs = batch_jobs
        self.reconnect_attempts = reconnect_attempts
        self.peers = PeerSet(replicas=replicas)
        self.peer_server = CachePeerServer(
            cache_dir, host=peer_host, port=peer_port,
            max_entries=max_entries,
        )
        self.runner = ExperimentRunner(cache_dir=cache_dir,
                                       cache_peers=self.peers)
        self._sock = None
        self._reader = None
        self._writer = None
        self._send_lock = threading.Lock()
        self._conn_ok = False
        self._beat_stop = None
        self._partitions = 0

    # -- wire ----------------------------------------------------------

    def _send(self, message):
        """Send one frame; returns False (and goes dark) on a dead link."""
        with self._send_lock:
            if not self._conn_ok:
                return False
            try:
                protocol.write_frame_blocking(self._writer, message)
                return True
            except (ProtocolError, OSError, ValueError):
                self._conn_ok = False
                return False

    def _beat_loop(self, stop):
        while not stop.wait(self.beat_interval):
            if not self._send({"type": "beat",
                               "peer": self.peers.snapshot()}):
                return

    def _partition(self):
        """Injected partition: drop the coordinator link, keep working.

        The shard in flight keeps executing into the local cache; the
        main loop reconnects afterwards and replays what completed.
        """
        self._partitions += 1
        with self._send_lock:
            self._conn_ok = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _disconnect(self):
        if self._beat_stop is not None:
            self._beat_stop.set()
            self._beat_stop = None
        self._conn_ok = False
        for handle in (self._reader, self._writer):
            try:
                if handle is not None:
                    handle.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = self._reader = self._writer = None

    # -- chaos boundaries ----------------------------------------------

    def _fault_point(self, job_key, attempt, stage):
        """Consult the chaos plan at one deterministic task boundary."""
        plan = get_fault_plan()
        if not plan.active:
            return
        key = "%s|%s" % (job_key, stage)
        slow = plan.worker_slow_seconds(key)
        if slow > 0:
            time.sleep(slow)
        if plan.should_host_kill(key, attempt):
            os._exit(CRASH_EXIT_CODE)
        if self._conn_ok and plan.should_host_partition(key, attempt):
            self._partition()

    # -- connection lifecycle ------------------------------------------

    def _hello(self):
        return {
            "type": "node-hello",
            "node": self.node_id,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "peer_host": self.peer_server.host,
            "peer_port": self.peer_server.port,
            # digests completed since the last sync -- after a partition
            # the coordinator pulls these into its own cache (replay)
            "completed": list(self.peers.recent),
        }

    def _connect_once(self):
        """Dial, handshake, install the peer list; True on success."""
        try:
            self._sock = socket.create_connection(self.connect_addr,
                                                  timeout=10.0)
        except OSError:
            self._sock = None
            return False
        self._sock.settimeout(None)
        self._reader = self._sock.makefile("rb")
        self._writer = self._sock.makefile("wb")
        self._conn_ok = True
        if not self._send(self._hello()):
            self._disconnect()
            return False
        try:
            reply = protocol.read_frame_blocking(
                self._reader, max_bytes=protocol.MAX_REPLY_BYTES)
        except (ProtocolError, OSError):
            self._disconnect()
            return False
        if not reply or reply.get("type") != "node-welcome":
            # a non-cluster server (typed error frame) cannot become
            # one by retrying; bail out entirely
            self._disconnect()
            raise SystemExit(
                "coordinator at %s:%d rejected node-hello: %r"
                % (self.connect_addr[0], self.connect_addr[1], reply)
            )
        self._apply_peers(reply.get("peers"))
        self._beat_stop = threading.Event()
        threading.Thread(target=self._beat_loop, args=(self._beat_stop,),
                         name="node-beat", daemon=True).start()
        return True

    def _apply_peers(self, peers):
        own = (self.peer_server.host, self.peer_server.port)
        cleaned = []
        for entry in peers or ():
            try:
                peer = (str(entry[0]), int(entry[1]))
            except (TypeError, ValueError, IndexError):
                continue
            if peer != own:
                cleaned.append(peer)
        self.peers.set_peers(cleaned)

    def _serve_connection(self):
        """Frame loop for one coordinator connection.

        Returns ``"shutdown"`` on a graceful shutdown frame and
        ``"lost"`` when the link drops (partition or coordinator
        death) -- the caller reconnects.
        """
        while True:
            try:
                frame = protocol.read_frame_blocking(
                    self._reader, max_bytes=protocol.MAX_REPLY_BYTES)
            except (ProtocolError, OSError, ValueError):
                return "lost"
            if frame is None:
                return "lost"
            kind = frame.get("type")
            if kind == "shutdown":
                return "shutdown"
            if kind == "job":
                run_job_frame(self.runner, frame, self._send,
                              self._fault_point, self.batch_jobs)
                if not self._conn_ok:
                    # partitioned mid-shard: the work is in the local
                    # cache; resync via reconnect + replay
                    return "lost"
            elif kind == "peer-update":
                self._apply_peers(frame.get("peers"))
            elif kind == "node-ping":
                self._send({"type": "node-pong", "t": frame.get("t")})
            # unknown frame types are ignored (forward compatibility)

    def run(self):
        """Node main loop: connect, serve, reconnect until shutdown."""
        self.peer_server.start()
        print("node %s: cache peer on %s:%d" %
              (self.node_id, self.peer_server.host, self.peer_server.port),
              file=sys.stderr)
        failures = 0
        while True:
            if not self._connect_once():
                self._disconnect()
                failures += 1
                if failures > self.reconnect_attempts:
                    print("node %s: coordinator unreachable after %d "
                          "attempts; giving up"
                          % (self.node_id, failures - 1), file=sys.stderr)
                    self.peer_server.stop()
                    return 1
                time.sleep(backoff_delay(
                    RECONNECT_POLICY, "node-reconnect-%s" % self.node_id,
                    min(failures, 6),
                ))
                continue
            failures = 0
            print("node %s: connected to %s:%d"
                  % (self.node_id, self.connect_addr[0],
                     self.connect_addr[1]), file=sys.stderr)
            verdict = self._serve_connection()
            self._disconnect()
            if verdict == "shutdown":
                self.peer_server.stop()
                return 0
            # lost: loop back and reconnect (replaying completed work)


def parse_hostport(text):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError("expected HOST:PORT, got %r" % (text,))
    return host, int(port)


def node_main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro node", description="remote cluster worker node"
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator serve address to dial")
    parser.add_argument("--cache-dir", default=None,
                        help="local result cache (default: a temp dir)")
    parser.add_argument("--node-id", default=None)
    parser.add_argument("--beat-interval", type=float,
                        default=DEFAULT_BEAT_INTERVAL)
    parser.add_argument("--batch-jobs", type=int, default=1)
    parser.add_argument("--peer-host", default="127.0.0.1")
    parser.add_argument("--peer-port", type=int, default=0)
    parser.add_argument("--replicas", type=int, default=DEFAULT_REPLICAS)
    parser.add_argument("--max-entries", type=int, default=None,
                        help="cache-peer eviction bound (entries)")
    parser.add_argument("--reconnect-attempts", type=int,
                        default=DEFAULT_RECONNECT_ATTEMPTS)
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir
    if cache_dir is None:
        import tempfile

        cache_dir = tempfile.mkdtemp(prefix="repro-node-cache-")
    agent = NodeAgent(
        parse_hostport(args.connect), cache_dir, node_id=args.node_id,
        beat_interval=args.beat_interval, batch_jobs=args.batch_jobs,
        peer_host=args.peer_host, peer_port=args.peer_port,
        replicas=args.replicas, max_entries=args.max_entries,
        reconnect_attempts=args.reconnect_attempts,
    )
    return agent.run()


def spawn_node(address, cache_dir=None, node_id=None, beat_interval=0.25,
               extra_args=(), env=None):
    """Launch a node subprocess against *address* (tests/bench/chaos).

    Returns the :class:`subprocess.Popen`; the child inherits the
    caller's environment (so ``REPRO_FAULTS`` chaos propagates) plus a
    PYTHONPATH that resolves this checkout.
    """
    import subprocess

    import repro

    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)
    ))
    child_env = dict(os.environ if env is None else env)
    existing = child_env.get("PYTHONPATH")
    child_env["PYTHONPATH"] = (src_dir if not existing
                               else src_dir + os.pathsep + existing)
    argv = [sys.executable, "-m", "repro.serve.cluster.node",
            "--connect", "%s:%d" % (address[0], address[1]),
            "--beat-interval", str(beat_interval)]
    if cache_dir:
        argv += ["--cache-dir", cache_dir]
    if node_id:
        argv += ["--node-id", node_id]
    argv += list(extra_args)
    return subprocess.Popen(argv, env=child_env,
                            stderr=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)


if __name__ == "__main__":
    sys.exit(node_main())
