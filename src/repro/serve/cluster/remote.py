"""Coordinator-side handle on one remote worker node.

A :class:`NodeHandle` wraps the asyncio ``(reader, writer)`` pair of an
adopted ``node-hello`` connection and shares the one ``execute`` loop
of :class:`~repro.serve.supervisor.Member` with
:class:`~repro.serve.supervisor.WorkerProcess` -- the cluster
supervisor schedules local subprocesses and remote nodes through one
code path.  Differences from a local worker:

* liveness is heartbeat-over-TCP (same
  :class:`~repro.serve.health.WorkerHealth` missed-beat detector);
  there is no child process to ``kill()``, so death means closing the
  connection -- the node survives, treats it as a partition, finishes
  its in-flight shard into its local cache and reconnects with replay;
* the handle measures RTT with ``node-ping``/``node-pong`` echoes and
  collects the node's cache-peer counters from its beat frames, both
  surfaced in ``repro jobs --workers``.
"""

import asyncio
import time

from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from repro.serve.supervisor import Member


class NodeHandle(Member):
    """One adopted remote node connection (coordinator side)."""

    def __init__(self, name, reader, writer, hello, beat_interval=1.0,
                 max_missed=4, on_lost=None):
        super(NodeHandle, self).__init__(beat_interval, max_missed, "idle")
        self.name = name
        self.host = hello.get("host") or "?"
        self.pid = hello.get("pid")
        peer_host = hello.get("peer_host") or "127.0.0.1"
        peer_port = hello.get("peer_port")
        self.peer_addr = ((str(peer_host), int(peer_port))
                          if peer_port else None)
        self.steals = 0
        self.rtt = None          # seconds, last ping echo
        self.peer_stats = {}     # node's PeerSet counters, last beat
        self.on_lost = on_lost
        self._reader = reader
        self._writer = writer
        self._frames = asyncio.Queue()
        self._send_lock = asyncio.Lock()
        self._open = True
        self._reader_task = None

    def start(self, loop):
        self._reader_task = loop.create_task(self._read_loop())
        return self

    # -- wire ----------------------------------------------------------

    async def _read_loop(self):
        while True:
            try:
                frame = await protocol.read_frame(
                    self._reader, max_bytes=protocol.MAX_REPLY_BYTES)
            except (ProtocolError, ConnectionError, OSError):
                frame = None
            if frame is None:
                self._open = False
                self.state = "dead"
                await self._frames.put(None)
                if self.on_lost is not None:
                    self.on_lost(self)
                return
            kind = frame.get("type")
            if kind == "beat":
                self.health.beat()
                peer = frame.get("peer")
                if isinstance(peer, dict):
                    self.peer_stats = peer
                continue
            if kind == "node-pong":
                sent = frame.get("t")
                if isinstance(sent, (int, float)):
                    self.rtt = max(0.0, time.monotonic() - sent)
                continue
            await self._frames.put(frame)

    async def send(self, message):
        """Write one frame to the node; False when the link is gone."""
        if not self._open:
            return False
        async with self._send_lock:
            try:
                await protocol.write_frame(self._writer, message)
                return True
            except (ProtocolError, ConnectionError, OSError,
                    RuntimeError):
                self._open = False
                return False

    async def ping(self):
        """Fire an RTT probe (echoed back as ``node-pong``)."""
        await self.send({"type": "node-ping", "t": time.monotonic()})

    @property
    def alive(self):
        return self._open and self.state not in ("dead", "stopped")

    def close(self):
        """Drop the connection (the node reconnects on its own).

        This is also the mid-shard abort: the node treats it as a
        partition, finishes the shard into its local cache (harmless:
        first write wins) and reconnects.
        """
        self._open = False
        if self.state != "stopped":
            self.state = "dead"
        try:
            self._writer.close()
        except (OSError, RuntimeError):
            pass

    abort = close

    def lost_reason(self, eof=False):
        if eof:
            return "connection EOF"
        return None if self._open else "connection dropped"

    async def request_shutdown(self):
        """Graceful node shutdown (drain path): the node exits 0."""
        await self.send({"type": "shutdown"})
        self.state = "stopped"

    async def reap(self):
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass

    # -- observability -------------------------------------------------

    def peer_hit_rate(self):
        stats = self.peer_stats or {}
        hits = stats.get("hits", 0)
        total = hits + stats.get("misses", 0)
        return (hits / total) if total else None

    def snapshot(self):
        """One row of the ``fleet`` endpoint's ``nodes`` list."""
        return {
            "node": self.name,
            "host": self.host,
            "pid": self.pid,
            "state": self.state,
            "job": self.current_job,
            "rtt_ms": (round(self.rtt * 1000.0, 3)
                       if self.rtt is not None else None),
            "beats_missed": self.health.missed(),
            "jobs_done": self.jobs_done,
            "steals": self.steals,
            "peer": dict(self.peer_stats),
            "peer_hit_rate": self.peer_hit_rate(),
        }
