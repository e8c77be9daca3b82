"""The subprocess scheduler: local workers, remote nodes, work stealing.

:class:`ClusterSupervisor` is the server's executor whenever jobs run
outside the server process (``repro serve --workers N`` and/or
``--cluster``); it is the drop-in for the in-process
:class:`~repro.serve.workers.WorkerTier`: the server calls the same
``run_job(loop, job, progress_cb)`` coroutine.  Its member pool mixes
*local worker subprocesses* (:class:`WorkerProcess`) and, with
``--cluster``, *remote nodes* (:class:`NodeHandle`); both share the one
``execute`` loop of :class:`~repro.serve.supervisor.Member`.

Scheduling is **shard scatter + run-sheet pull + work stealing**:

* a job's request list is split into contiguous shards (the *run
  sheet*); idle members pull shards off the sheet, so a fast member
  naturally takes more of the job than a straggler;
* when the sheet runs dry while shards are still in flight, an idle
  member *steals* the longest-running one and executes it in parallel.
  Double execution is harmless -- every completed task is persisted in
  a content-addressed cache keyed by the request digest, writes are
  atomic, and first write wins -- and results stay byte-identical
  because the simulation is deterministic;
* a member dying mid-shard (crash, hang, lost link) requeues the shard
  (``attempt + 1``) onto the sheet.  Every completed task is persisted
  in the shared result cache and the lethal chaos verbs fire only on
  ``attempt == 0``, so the re-execution resumes from the kill point and
  converges byte-identically to the serial reference;
* dead local workers respawn under the deterministic exponential
  backoff of :mod:`repro.resilience.retry` (keyed by worker slot), so a
  crash-looping pool cannot hot-spin.

Availability machinery:

* **autoscaling admission** -- a queue-depth probe wired to the
  admission queue's high-water mark spawns extra local workers under
  backlog and retires (and reaps) them when the queue drains (bounded
  by ``min_local``/``max_local``);
* **deadlines** -- a job whose ``deadline_ms`` expired while queued or
  between requeues raises :class:`DeadlineExceeded` instead of burning
  a member on an answer nobody is waiting for;
* **degraded mode** -- with zero live nodes the cluster is a purely
  local fleet: the typed ``serve.cluster.degraded`` gauge flips to 1,
  a ``degraded_transitions`` counter ticks on each node-loss edge, and
  an emergency local worker is spawned if the member pool ever hits
  zero, so total node loss is a slowdown, never a wedge;
* **replay on reconnect** -- a node that went dark mid-shard finished
  that shard into its own cache; when it reconnects, its ``node-hello``
  lists the completed digests and the coordinator pulls them through
  the cache-peer tier into its own store before handing the node new
  work.
"""

import asyncio
import os
import time
from collections import deque
from dataclasses import asdict, replace

from repro.obs.io import atomic_write_text
from repro.resilience import FailurePolicy, SimulationError, backoff_delay
from repro.serve.cluster.cas import (
    CachePeerServer,
    DEFAULT_REPLICAS,
    PeerSet,
    REPLAY_WINDOW,
    _valid_relpath,
)
from repro.serve.cluster.remote import NodeHandle
from repro.serve.supervisor import WorkerLost, WorkerProcess
from repro.serve.workers import JobCancelled

#: largest shard handed to one member in one pull (small enough that
#: stealing has boundaries to land on, large enough to amortise the
#: dispatch round trip)
MAX_SHARD_TASKS = 8

#: autoscaler cadence, seconds
DEFAULT_SCALE_INTERVAL = 0.5

#: consecutive idle autoscaler ticks before a surplus local is retired
IDLE_TICKS_TO_RETIRE = 6

#: requeues tolerated per shard before the job is failed outright
#: (defensive: lethal faults fire only on attempt 0, so >1 losses means
#: real, persistent trouble -- a poisoned host, an OOM-killer sweep)
DEFAULT_MAX_REQUEUES = 4

#: backoff schedule for respawning dead local workers (keyed per slot)
RESPAWN_POLICY = FailurePolicy(retries=0, backoff_base=0.05,
                               backoff_factor=2.0, backoff_max=2.0,
                               jitter=0.5, seed=0)


class DeadlineExceeded(Exception):
    """The job's deadline expired before (or between) execution."""


class _Shard(object):
    """Job-like proxy for one contiguous slice of a job's requests.

    Quacks enough like a :class:`~repro.serve.jobs.Job` for
    :meth:`~repro.serve.supervisor.Member.execute`: ``id``, ``key``,
    ``requests``, ``deadline``, ``done_total`` and a
    ``cancel_requested`` that delegates to the parent job.  The key is
    deterministic (parent key + ordinal), so chaos verbs keyed on it
    fire reproducibly.
    """

    __slots__ = ("parent", "ordinal", "id", "key", "indices", "requests",
                 "done_total")

    def __init__(self, parent, ordinal, indices, requests):
        self.parent = parent
        self.ordinal = ordinal
        self.id = "%s#s%d" % (parent.id, ordinal)
        self.key = "%s#s%d" % (parent.key, ordinal)
        self.indices = indices
        self.requests = requests
        self.done_total = len(requests)

    @property
    def deadline(self):
        return self.parent.deadline

    @property
    def cancel_requested(self):
        return self.parent.cancel_requested


class ClusterSupervisor(object):
    """Owns local workers + adopted remote nodes; schedules shards.

    :param cache_dir: the coordinator's result cache -- shared with
        local workers on disk (it is also the requeue checkpoint) and,
        with a *peer_port*, exported to nodes through the cache-peer
        tier.
    :param runner: the server's :class:`ExperimentRunner` (used to fold
        node-computed results into the coordinator cache).
    :param local_workers: local subprocess workers started up front.
    :param min_local: floor the autoscaler will not retire below.
    :param max_local: ceiling for autoscaled local workers.
    :param queue_depth: zero-arg callable returning the admission-queue
        depth (drives scale-up).
    :param high_water: the admission queue's high-water mark; backlog
        beyond ``high_water * scale_up_fraction`` triggers a scale-up.
    :param dispatch_width: concurrent *jobs* the server may admit
        (shards fan wider through the shared member pool).
    :param shard_tasks: fixed shard size (None = auto by live members,
        capped at :data:`MAX_SHARD_TASKS`).
    :param peer_port: cache-peer listener port (0 = ephemeral); None
        starts no listener -- a scheduler that adopts no nodes exports
        nothing.
    :param on_degraded: callback ``fn(live_nodes)`` fired on every
        cluster-degraded transition (the server traces it).
    """

    def __init__(self, cache_dir=None, runner=None, local_workers=1,
                 beat_interval=1.0, max_missed=4, policy=None,
                 batch_jobs=1, metrics=None,
                 max_requeues=DEFAULT_MAX_REQUEUES,
                 respawn_policy=RESPAWN_POLICY, spawn_timeout=30.0,
                 min_local=0, max_local=4, queue_depth=None,
                 high_water=64, scale_up_fraction=0.5,
                 scale_interval=DEFAULT_SCALE_INTERVAL,
                 dispatch_width=4, shard_tasks=None,
                 steal_min_age=0.5,
                 peer_host="127.0.0.1", peer_port=None,
                 peer_max_entries=None, replicas=DEFAULT_REPLICAS,
                 on_degraded=None):
        if local_workers < 0:
            raise ValueError("local_workers must be >= 0, got %r"
                             % (local_workers,))
        self.cache_dir = cache_dir
        self.runner = runner
        self.policy = policy
        self.metrics = metrics
        self.max_requeues = max_requeues
        self.respawn_policy = respawn_policy
        self.beat_interval = beat_interval
        self.max_missed = max_missed
        self.batch_jobs = batch_jobs
        self.spawn_timeout = spawn_timeout
        self.min_local = max(0, min_local)
        self.max_local = max(self.min_local, max_local, local_workers)
        self.queue_depth = queue_depth
        self.scale_up_depth = max(1, int(high_water * scale_up_fraction))
        self.scale_interval = scale_interval
        self.dispatch_width = max(1, dispatch_width)
        self.shard_tasks = shard_tasks
        self.steal_min_age = steal_min_age
        self.replicas = replicas
        self.on_degraded = on_degraded
        self.locals = [self._new_local(index)
                       for index in range(local_workers)]
        self.nodes = {}            # name -> NodeHandle
        self.peer_server = (CachePeerServer(
            cache_dir, host=peer_host, port=peer_port,
            max_entries=peer_max_entries,
        ) if cache_dir and peer_port is not None else None)
        self._next_local_id = local_workers
        self._idle = None          # asyncio.Queue of members
        self._loop = None
        self._stopping = False
        self._scaling = False
        self._idle_ticks = 0
        self._had_live_nodes = False
        self._peer_base = {}       # folded counters of departed nodes
        self._scaler = None
        self._node_seq = 0

    def _new_local(self, worker_id):
        return WorkerProcess(
            worker_id, cache_dir=self.cache_dir,
            beat_interval=self.beat_interval, max_missed=self.max_missed,
            batch_jobs=self.batch_jobs, spawn_timeout=self.spawn_timeout,
        )

    # -- lifecycle -----------------------------------------------------

    @property
    def max_concurrent(self):
        """Concurrent jobs the server should admit."""
        return self.dispatch_width

    async def start(self):
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Queue()
        if self.peer_server is not None:
            self.peer_server.start()
        await asyncio.gather(*(worker.spawn() for worker in self.locals))
        for worker in self.locals:
            self._idle.put_nowait(worker)
        self._scaler = self._loop.create_task(self._autoscale_loop())
        return self

    async def shutdown(self, timeout=10.0):
        """Drain: graceful frames everywhere, then the hammer."""
        self._stopping = True
        if self._scaler is not None:
            self._scaler.cancel()
        for handle in list(self.nodes.values()):
            await handle.request_shutdown()
            handle.close()
            await handle.reap()
        self.nodes.clear()
        await asyncio.gather(*(worker.stop(timeout)
                               for worker in self.locals))
        if self.peer_server is not None:
            self.peer_server.stop()

    # -- membership ----------------------------------------------------

    def _bump(self, name, n=1):
        if self.metrics is not None and n:
            self.metrics.bump(name, n)

    def live_locals(self):
        return [worker for worker in self.locals if worker.alive]

    def live_nodes(self):
        return [handle for handle in self.nodes.values() if handle.alive]

    def live_count(self):
        return len(self.live_locals()) + len(self.live_nodes())

    def degraded(self):
        """1 when the cluster is running as a purely local fleet."""
        return 0 if self.live_nodes() else 1

    def _peer_addrs(self, exclude=None):
        addrs = []
        if self.peer_server is not None:
            addrs.append(list(self.peer_server.address))
        for handle in self.live_nodes():
            if handle is exclude or handle.peer_addr is None:
                continue
            addrs.append(list(handle.peer_addr))
        return addrs

    def _broadcast_peers(self):
        for handle in self.live_nodes():
            self._loop.create_task(handle.send({
                "type": "peer-update",
                "peers": self._peer_addrs(exclude=handle),
            }))

    async def adopt_node(self, hello, reader, writer):
        """Take ownership of an accepted ``node-hello`` connection."""
        self._node_seq += 1
        name = hello.get("node")
        if not isinstance(name, str) or not name:
            name = "node-%d" % self._node_seq
        stale = self.nodes.pop(name, None)
        if stale is not None:
            stale.close()
            await stale.reap()
        handle = NodeHandle(
            name, reader, writer, hello,
            beat_interval=self.beat_interval, max_missed=self.max_missed,
            on_lost=self._node_lost,
        )
        handle.start(self._loop)
        await handle.send({
            "type": "node-welcome", "node": name,
            "peers": self._peer_addrs(exclude=handle),
        })
        self.nodes[name] = handle
        self._bump("cluster.nodes_joined")
        rejoin = self._had_live_nodes is False
        self._had_live_nodes = True
        await self._replay_completed(handle, hello.get("completed"))
        self._broadcast_peers()
        await handle.ping()
        self._idle.put_nowait(handle)
        if rejoin and self.on_degraded is not None:
            self.on_degraded(len(self.live_nodes()))
        return handle

    async def _replay_completed(self, handle, relpaths):
        """Pull a reconnecting node's completed digests into our cache."""
        if not relpaths or handle.peer_addr is None \
                or not self.cache_dir:
            return
        cleaned = [rel for rel in list(relpaths)[:REPLAY_WINDOW]
                   if _valid_relpath(rel)
                   and not os.path.exists(
                       os.path.join(self.cache_dir, rel))]
        if not cleaned:
            return
        peer = handle.peer_addr

        def pull():
            fetched = 0
            peers = PeerSet(peers=[peer], replicas=1)
            for rel in cleaned:
                found = peers.fetch(rel)
                if found is None:
                    continue
                text, _payload = found
                atomic_write_text(os.path.join(self.cache_dir, rel), text)
                fetched += 1
            return fetched

        fetched = await self._loop.run_in_executor(None, pull)
        self._bump("cluster.replayed", fetched)

    def _node_lost(self, handle):
        """Reader-loop callback: a node's connection hit EOF."""
        current = self.nodes.get(handle.name)
        if current is not handle:
            return
        del self.nodes[handle.name]
        self._fold_peer_stats(handle)
        self._bump("cluster.nodes_lost")
        if not self.live_nodes() and self._had_live_nodes:
            self._had_live_nodes = False
            self._bump("cluster.degraded_transitions")
            if self.on_degraded is not None:
                self.on_degraded(0)
        self._broadcast_peers()

    def _fold_peer_stats(self, handle):
        for key, value in (handle.peer_stats or {}).items():
            if isinstance(value, (int, float)):
                self._peer_base[key] = self._peer_base.get(key, 0) + value

    def peer_totals(self):
        """Cluster-wide cache-peer counters (departed + live nodes)."""
        totals = dict(self._peer_base)
        for handle in self.nodes.values():
            for key, value in (handle.peer_stats or {}).items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        return totals

    # -- autoscaling ---------------------------------------------------

    async def _autoscale_loop(self):
        while not self._stopping:
            await asyncio.sleep(self.scale_interval)
            try:
                await self._autoscale_tick()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - the scaler must survive
                pass

    async def _autoscale_tick(self):
        # sweep heartbeat-silent nodes (a hung host with a live TCP
        # connection would otherwise linger as a phantom member)
        for handle in list(self.nodes.values()):
            if handle.alive and handle.health.dead():
                handle.close()
        depth = 0
        if self.queue_depth is not None:
            try:
                depth = int(self.queue_depth())
            except Exception:  # noqa: BLE001
                depth = 0
        live_local = self.live_locals()
        if self.live_count() == 0:
            # never a wedge: zero members means jobs would queue forever
            await self._scale_up()
            return
        if depth >= self.scale_up_depth \
                and len(live_local) < self.max_local:
            self._idle_ticks = 0
            await self._scale_up()
            return
        if depth == 0 and len(live_local) > max(self.min_local, 1):
            self._idle_ticks += 1
            if self._idle_ticks >= IDLE_TICKS_TO_RETIRE:
                self._idle_ticks = 0
                await self._scale_down()
        else:
            self._idle_ticks = 0

    async def _scale_up(self):
        if self._scaling or self._stopping:
            return
        self._scaling = True
        try:
            worker = self._new_local(self._next_local_id)
            self._next_local_id += 1
            try:
                await worker.spawn()
            except WorkerLost:
                return
            self.locals.append(worker)
            self._idle.put_nowait(worker)
            self._bump("cluster.scale_up")
        finally:
            self._scaling = False

    async def _scale_down(self):
        """Retire one idle local worker: stop it, reap it, forget it.

        The victim is taken off the idle queue, so it holds no shard.
        """
        victim, keep = None, []
        while not self._idle.empty():
            member = self._idle.get_nowait()
            if victim is None and member.alive \
                    and not isinstance(member, NodeHandle):
                victim = member
            else:
                keep.append(member)
        for member in keep:
            self._idle.put_nowait(member)
        if victim is None:
            return
        self._bump("cluster.scale_down")
        await victim.stop()
        self.locals.remove(victim)

    # -- member pool ---------------------------------------------------

    def _member_usable(self, member):
        """Filter one popped member; None when it must be discarded."""
        if member.alive:
            return member
        if isinstance(member, NodeHandle):
            return None  # dropped from membership by its own read loop
        if member.state == "stopped":
            return None  # retired by the autoscaler
        return "respawn"

    def _acquire_nowait(self):
        while True:
            try:
                member = self._idle.get_nowait()
            except asyncio.QueueEmpty:
                return None
            verdict = self._member_usable(member)
            if verdict is None:
                continue
            if verdict == "respawn":
                # dead local slot: respawn in the background, keep
                # scanning for someone who is ready right now
                self._loop.create_task(self._respawn_and_requeue(member))
                continue
            return member

    async def _acquire(self):
        while True:
            member = self._acquire_nowait()
            if member is not None:
                return member
            try:
                member = await asyncio.wait_for(self._idle.get(), 0.5)
            except asyncio.TimeoutError:
                if self.live_count() == 0 and not self._scaling:
                    await self._scale_up()  # emergency: never a wedge
                continue
            verdict = self._member_usable(member)
            if verdict is None:
                continue
            if verdict == "respawn":
                await self._respawn(member)
                if member.alive:
                    return member
                self._idle.put_nowait(member)
                await asyncio.sleep(0.05)
                continue
            return member

    async def _respawn(self, worker):
        await worker.reap()
        delay = backoff_delay(self.respawn_policy, "worker-%d" % worker.id,
                              min(worker.respawns, 6))
        if delay > 0:
            await asyncio.sleep(delay)
        worker.respawns += 1
        self._bump("fleet.respawns")
        try:
            await worker.spawn()
        except WorkerLost:
            worker.state = "dead"

    async def _respawn_and_requeue(self, worker):
        await self._respawn(worker)
        if worker.alive or worker.state != "stopped":
            self._idle.put_nowait(worker)

    def _release(self, member):
        if isinstance(member, NodeHandle):
            if member.alive:
                self._loop.create_task(member.ping())  # refresh rtt
                self._idle.put_nowait(member)
            return
        if member.state != "stopped":
            self._idle.put_nowait(member)

    # -- policy --------------------------------------------------------

    def job_policy(self, job):
        base = self.policy
        if base is None:
            base = FailurePolicy.from_env()
        overrides = job.spec.get("policy") or {}
        if overrides:
            base = replace(base, **overrides)
        return base

    # -- scheduling ----------------------------------------------------

    def _plan_shards(self, job):
        requests = list(job.requests)
        total = len(requests)
        if self.shard_tasks:
            size = max(1, int(self.shard_tasks))
        else:
            members = max(1, self.live_count())
            size = min(MAX_SHARD_TASKS, max(1, -(-total // members)))
        shards = []
        for ordinal, start in enumerate(range(0, total, size)):
            indices = list(range(start, min(start + size, total)))
            shards.append(_Shard(job, ordinal, indices,
                                 [requests[i] for i in indices]))
        return shards

    def _pick_steal(self, active, done_ids):
        """Longest-in-flight shard not yet stolen, or None.

        Only a *straggler* qualifies: its execution must have been in
        flight for at least ``steal_min_age`` seconds.  Without the age
        gate every short shard gets duplicated the moment a second
        member goes idle, and the duplicate work drowns the win.
        """
        counts = {}
        for meta in active.values():
            counts[meta["sid"]] = counts.get(meta["sid"], 0) + 1
        cutoff = time.monotonic() - self.steal_min_age
        best = None
        for meta in active.values():
            if meta["sid"] in done_ids or counts[meta["sid"]] > 1 \
                    or meta["t0"] > cutoff:
                continue
            if best is None or meta["t0"] < best["t0"]:
                best = meta
        return None if best is None else best["shard"]

    def _store_remote_results(self, shard, payload):
        """Fold a node-computed shard into the coordinator cache."""
        if self.runner is None or not isinstance(payload, list):
            return
        for request, data in zip(shard.requests, payload):
            if isinstance(data, dict):
                try:
                    self.runner.store_single(request, data)
                except Exception:  # noqa: BLE001 - cache fold is advisory
                    pass

    async def run_job(self, loop, job, progress_cb=None):
        """Execute *job* across the cluster; returns ``(results, report)``.

        Same contract as :meth:`WorkerTier.run_job`: raises
        :class:`JobCancelled` on cooperative cancel,
        :class:`SimulationError` on structured failure -- plus
        :class:`DeadlineExceeded` when the job's deadline expires
        before its shards finish.
        """
        policy_fields = asdict(self.job_policy(job))
        total = len(job.requests)
        if total == 0:
            return [], {}
        shards = self._plan_shards(job)
        self._bump("cluster.shards", len(shards))
        results = [None] * total
        report = {}
        pending = deque(shards)
        attempts = {shard.id: 0 for shard in shards}  # highest dispatched
        losses = {shard.id: 0 for shard in shards}
        done_ids = set()
        done_tasks = [0]
        best_progress = [0]
        active = {}                # asyncio task -> meta
        failure = [None]           # first terminal exception

        def on_progress(shard, done, _shard_total):
            value = min(total, done_tasks[0] + done)
            if progress_cb is not None and value > best_progress[0]:
                best_progress[0] = value
                progress_cb(job, value, total)

        async def shard_task(shard, attempt, member, steal):
            try:
                outcome, detail = await member.execute(
                    shard, attempt, policy_fields, on_progress
                )
            except Exception as exc:  # noqa: BLE001 - keep the loop alive
                outcome, detail = "error", {
                    "error_type": type(exc).__name__, "message": str(exc),
                    "attempts": attempt + 1,
                }
            return outcome, detail

        def launch(shard, member, steal):
            attempt = attempts[shard.id] + (1 if steal else 0)
            attempts[shard.id] = attempt
            if steal:
                member.steals = getattr(member, "steals", 0) + 1
                self._bump("cluster.steals")
            task = loop.create_task(shard_task(shard, attempt, member,
                                               steal))
            active[task] = {"sid": shard.id, "shard": shard,
                            "attempt": attempt, "member": member,
                            "steal": steal, "t0": time.monotonic()}

        def fold(task, draining=False):
            meta = active.pop(task)
            shard, member = meta["shard"], meta["member"]
            outcome, detail = task.result()
            if outcome == "done":
                self._release(member)
                if shard.id not in done_ids:
                    done_ids.add(shard.id)
                    payload, shard_report = detail
                    payload = payload if isinstance(payload, list) else []
                    for offset, index in enumerate(shard.indices):
                        if offset < len(payload):
                            results[index] = payload[offset]
                    done_tasks[0] += len(shard.indices)
                    if isinstance(member, NodeHandle):
                        self._store_remote_results(shard, payload)
                    for key, value in (shard_report or {}).items():
                        if isinstance(value, (int, float)) \
                                and not isinstance(value, bool):
                            report[key] = report.get(key, 0) + value
                    on_progress(shard, 0, 0)
                return
            if outcome == "cancelled":
                self._release(member)
                return
            if outcome == "error":
                self._release(member)
                if failure[0] is None and shard.id not in done_ids:
                    info = detail or {}
                    if info.get("code") == "deadline-exceeded":
                        failure[0] = DeadlineExceeded(job.id)
                    else:
                        error = SimulationError(
                            "shard %s: %s"
                            % (shard.id,
                               info.get("message", "shard failed")),
                            attempts=info.get("attempts",
                                              meta["attempt"] + 1),
                        )
                        error.worker_error_type = info.get("error_type")
                        failure[0] = error
                return
            # lost: the member died (or went silent) holding the shard
            self._release(member)  # dead locals respawn on next acquire
            if draining or shard.id in done_ids:
                return
            still_running = any(m["sid"] == shard.id
                                for m in active.values())
            if still_running:
                return  # its twin (steal or original) is still on it
            losses[shard.id] += 1
            if losses[shard.id] > self.max_requeues:
                if failure[0] is None:
                    failure[0] = SimulationError(
                        "shard %s lost %d members (last: %s); giving up"
                        % (shard.id, losses[shard.id], detail),
                        attempts=losses[shard.id],
                    )
                return
            attempts[shard.id] += 1
            self._bump("fleet.requeues")
            pending.append(shard)

        try:
            while failure[0] is None and len(done_ids) < len(shards):
                if job.deadline_expired:
                    raise DeadlineExceeded(job.id)
                if job.cancel_requested:
                    raise JobCancelled(job.id)
                # fill the pool from the run sheet
                while pending:
                    if pending[0].id in done_ids:
                        pending.popleft()
                        continue
                    member = self._acquire_nowait()
                    if member is None:
                        break
                    launch(pending.popleft(), member, steal=False)
                if not pending and active:
                    # sheet dry: steal for any member idling *right now*
                    member = self._acquire_nowait()
                    if member is not None:
                        victim = self._pick_steal(active, done_ids)
                        if victim is None:
                            self._release(member)
                        else:
                            launch(victim, member, steal=True)
                if not active:
                    if pending:
                        member = await self._acquire()
                        while pending and pending[0].id in done_ids:
                            pending.popleft()
                        if pending:
                            launch(pending.popleft(), member, steal=False)
                        else:
                            self._release(member)
                        continue
                    break  # defensive: nothing anywhere
                done_set, _ = await asyncio.wait(
                    set(active), return_when=asyncio.FIRST_COMPLETED,
                    timeout=0.5,
                )
                for task in done_set:
                    fold(task)
        finally:
            # drain stragglers so no member leaks out of the pool; a
            # cancel propagates through shard.cancel_requested, so
            # members notice within one poll interval
            while active:
                done_set, _ = await asyncio.wait(
                    set(active), return_when=asyncio.FIRST_COMPLETED)
                for task in done_set:
                    fold(task, draining=True)

        if job.cancel_requested and len(done_ids) < len(shards):
            raise JobCancelled(job.id)
        if failure[0] is not None:
            raise failure[0]
        if job.deadline_expired and len(done_ids) < len(shards):
            raise DeadlineExceeded(job.id)
        return results, report

    # -- observability -------------------------------------------------

    def snapshot(self):
        """Local worker rows (fleet-endpoint compatible)."""
        return [worker.snapshot() for worker in self.locals]

    def node_snapshot(self):
        """Remote node rows for the ``fleet`` endpoint."""
        return [handle.snapshot()
                for _name, handle in sorted(self.nodes.items())]
