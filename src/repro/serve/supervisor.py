"""Local worker subprocess: protocol, job body, child entry point, handles.

A fleet worker is a separate OS process (``python -m
repro.serve.supervisor``) speaking the repository's length-prefixed
JSON framing (:mod:`repro.serve.protocol`) over its stdin/stdout pipes.
Worker loss is therefore a *first-class, observable* event -- the pipe
breaks or the heartbeats stop -- instead of a wedged thread, and the
supervisor can kill/respawn workers without poisoning the server
process.

Wire protocol (parent -> worker)::

    {"type": "job", "job": {"id", "key", "attempt", "deadline",
                            "requests": [[bench, pf, instr, null, var]..],
                            "policy": {FailurePolicy fields}}}
    {"type": "shutdown"}

Worker -> parent::

    {"type": "ready", "worker": id, "pid": N}      once, after boot
    {"type": "beat"}                               every beat_interval s
    {"type": "progress", "job_id", "done", "total"}
    {"type": "result", "job_id", "payload", "report"}
    {"type": "job-error", "job_id", "code"?, "error_type", "message",
     "attempts"}

Heartbeats come from a dedicated daemon thread so a busy simulation
keeps beating; a genuinely frozen worker (injected ``worker-hang`` or a
real livelock) stops beating and the supervisor's missed-beat detector
(:mod:`repro.serve.health`) declares it dead.

Determinism: the fleet chaos verbs (``worker-kill`` / ``worker-hang`` /
``worker-slow``) are consulted *here*, at job/task boundaries, keyed by
``(job key, boundary)`` through the same SHA-1 threshold as every other
``REPRO_FAULTS`` verb -- the same chaos spec always kills the same
workers at the same points.  Lethal verbs fire only on a job's first
assignment (``attempt == 0``), so a requeued job converges; because
every completed task is already persisted in the shared result cache,
the re-execution *resumes* from the kill point rather than restarting.

The child redirects ``sys.stdout`` to stderr before running any
simulation code: the stdout pipe carries frames only, and a stray
``print`` inside the simulator can never desynchronise the framing.
"""

import argparse
import os
import sys
import threading
import time

from repro.serve import protocol
from repro.serve.health import (
    DEFAULT_BEAT_INTERVAL,
    DEFAULT_MAX_MISSED,
    WorkerHealth,
)
from repro.serve.protocol import ProtocolError

#: seconds a worker-hang fault freezes the child (the supervisor kills
#: it long before: max_missed * beat_interval)
HANG_FREEZE_SECONDS = 600.0

#: how long the parent waits for a fresh worker's ``ready`` frame
DEFAULT_SPAWN_TIMEOUT = 30.0


class _DeadlineHit(Exception):
    """Raised inside a batch when the job's deadline passes."""


# ----------------------------------------------------------------------
# child side


def run_job_frame(runner, frame, send, fault_point, batch_jobs):
    """Execute one ``job`` frame and report it through *send*.

    The one job body behind both ends of the wire: a fleet worker
    (:class:`_Worker`) and a remote node
    (:class:`~repro.serve.cluster.node.NodeAgent`) differ only in how
    they send frames and in which chaos verbs *fault_point(job_key,
    attempt, stage)* consults.  Exactly one ``result`` or ``job-error``
    frame is sent per call, after any number of ``progress`` frames.
    """
    from repro.resilience import FailurePolicy, SimulationError
    from repro.sim.runner import RunRequest

    job = frame["job"]
    job_id = job["id"]
    job_key = job["key"]
    attempt = int(job.get("attempt", 0))
    remaining = job.get("deadline")
    deadline_at = (time.monotonic() + remaining
                   if remaining is not None else None)

    def fail(exc_type, message, attempts, code=None):
        error = {"type": "job-error", "job_id": job_id,
                 "error_type": exc_type, "message": message,
                 "attempts": attempts}
        if code is not None:
            error["code"] = code
        send(error)

    try:
        requests = [RunRequest(*fields) for fields in job["requests"]]
        policy = FailurePolicy(**(job.get("policy") or {}))
    except (TypeError, ValueError) as exc:
        fail(type(exc).__name__, "bad job frame: %s" % exc, 0)
        return
    if deadline_at is not None and remaining <= 0:
        fail("DeadlineExceeded", "deadline expired before execution", 0,
             code="deadline-exceeded")
        return
    fault_point(job_key, attempt, "start")

    def progress(done, total):
        # fault first so an injected kill never reports work it is about
        # to lose; a partitioned node keeps computing but its sends
        # become no-ops
        fault_point(job_key, attempt, "t%d" % done)
        if deadline_at is not None and time.monotonic() > deadline_at:
            raise _DeadlineHit(job_id)
        send({"type": "progress", "job_id": job_id,
              "done": done, "total": total})

    try:
        results, report = runner.run_batch(
            requests, jobs=batch_jobs, policy=policy, progress=progress,
        )
    except _DeadlineHit:
        fail("DeadlineExceeded", "deadline expired at a task boundary "
             "(completed work is checkpointed)", attempt + 1,
             code="deadline-exceeded")
        return
    except SimulationError as exc:
        fail(type(exc).__name__, str(exc), getattr(exc, "attempts", 0))
        return
    except Exception as exc:  # noqa: BLE001 - report, never die
        fail(type(exc).__name__, str(exc), attempt + 1)
        return
    payload = [None if result is None else result.as_dict()
               for result in results]
    send({"type": "result", "job_id": job_id,
          "payload": payload, "report": report.as_dict()})


class _BeatThread(object):
    """Daemon thread emitting beat frames; suspendable for worker-hang."""

    def __init__(self, send, interval):
        self.send = send
        self.interval = interval
        self._suspended = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="fleet-beat", daemon=True
        )

    def start(self):
        self._thread.start()

    def suspend(self):
        """Stop beating (the injected-hang path): the worker goes dark."""
        self._suspended.set()

    def _run(self):
        while True:
            time.sleep(self.interval)
            if self._suspended.is_set():
                continue
            try:
                self.send({"type": "beat"})
            except (BrokenPipeError, OSError, ValueError):
                os._exit(0)  # parent is gone; nothing left to serve


class _Worker(object):
    """Child-process state: runner, framing, fault boundaries."""

    def __init__(self, worker_id, cache_dir, beat_interval, batch_jobs):
        from repro.sim.runner import ExperimentRunner

        self.worker_id = worker_id
        self.batch_jobs = batch_jobs
        self.runner = ExperimentRunner(cache_dir=cache_dir)
        # stdout carries frames only; anything the simulator prints goes
        # to stderr (grab the binary pipe before redirecting)
        self._out = sys.stdout.buffer
        sys.stdout = sys.stderr
        self._in = sys.stdin.buffer
        self._send_lock = threading.Lock()
        self.beats = _BeatThread(self.send, beat_interval)

    def send(self, message):
        with self._send_lock:
            protocol.write_frame_blocking(self._out, message)

    # -- fault boundaries ----------------------------------------------

    def _fault_point(self, job_key, attempt, stage):
        """Consult the chaos plan at one deterministic boundary.

        *stage* is ``"start"`` or ``"t<done>"`` -- per completed task --
        so ``worker-kill`` lands mid-batch with the finished prefix
        already checkpointed in the cache.
        """
        from repro.resilience.faults import CRASH_EXIT_CODE, get_fault_plan

        plan = get_fault_plan()
        if not plan.active:
            return
        key = "%s|%s" % (job_key, stage)
        slow = plan.worker_slow_seconds(key)
        if slow > 0:
            time.sleep(slow)
        if plan.should_worker_hang(key, attempt):
            self.beats.suspend()
            time.sleep(HANG_FREEZE_SECONDS)
        if plan.should_worker_kill(key, attempt):
            self._out.flush()
            os._exit(CRASH_EXIT_CODE)

    def serve_forever(self):
        self.beats.start()
        self.send({"type": "ready", "worker": self.worker_id,
                   "pid": os.getpid()})
        while True:
            try:
                frame = protocol.read_frame_blocking(self._in)
            except ProtocolError:
                return 1  # parent-side framing bug or torn pipe
            if frame is None or frame.get("type") == "shutdown":
                return 0
            if frame.get("type") == "job":
                run_job_frame(self.runner, frame, self.send,
                              self._fault_point, self.batch_jobs)
            # unknown frame types are ignored (forward compatibility)


def worker_main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.serve.supervisor", description="fleet worker process"
    )
    parser.add_argument("--worker-id", type=int, required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--beat-interval", type=float,
                        default=DEFAULT_BEAT_INTERVAL)
    parser.add_argument("--batch-jobs", type=int, default=1)
    args = parser.parse_args(argv)
    worker = _Worker(args.worker_id, args.cache_dir, args.beat_interval,
                     args.batch_jobs)
    return worker.serve_forever()


# ----------------------------------------------------------------------
# parent side


class WorkerLost(Exception):
    """A worker subprocess failed to come up (no ``ready`` frame)."""


class Member(object):
    """Coordinator-side handle on one execution member, local or remote.

    Holds the one ``execute`` poll loop behind :class:`WorkerProcess`
    and :class:`~repro.serve.cluster.remote.NodeHandle`.  A subclass
    runs a reader task that feeds every non-beat frame into
    ``self._frames`` (``None`` on EOF) and supplies three things:

    * ``send(message)`` -- write one frame; False when the link is gone;
    * ``abort()`` -- stop the member mid-job (kill the process or close
      the connection);
    * ``lost_reason(eof=False)`` -- why the member is lost (always a
      reason on EOF), or None while it is still up.
    """

    def __init__(self, beat_interval, max_missed, state):
        self.health = WorkerHealth(beat_interval, max_missed)
        self.state = state
        self.current_job = None
        self.jobs_done = 0
        self._frames = None      # asyncio.Queue of non-beat frames

    async def execute(self, job, attempt, policy_fields=None,
                      on_progress=None, poll_interval=0.05):
        """Run *job* (a job or a shard) here; returns ``(outcome, detail)``.

        *policy_fields* is the effective :class:`FailurePolicy` as a
        plain dict (the supervisor resolves env defaults + per-job
        overrides once, so every attempt runs under the same policy).

        Outcomes:

        * ``("done", (payload, report))``  -- completed normally;
        * ``("error", info)``              -- the member reported a
          structured failure (*info* is the job-error frame);
        * ``("cancelled", None)``          -- the job's cancel flag went
          up mid-run; the member is aborted (its batch loop cannot be
          interrupted remotely; completed tasks are checkpointed, so
          nothing is lost);
        * ``("lost", reason)``             -- the member died, dropped
          its link or went heartbeat-silent; the caller requeues.
        """
        import asyncio

        remaining = None
        if job.deadline is not None:
            remaining = max(0.0, job.deadline - time.monotonic())
        self.state = "busy"
        self.current_job = job.id
        self.health.reset()
        try:
            sent = await self.send({"type": "job", "job": {
                "id": job.id, "key": job.key, "attempt": attempt,
                "deadline": remaining,
                "requests": [list(request) for request in job.requests],
                "policy": policy_fields or {},
            }})
            if not sent:
                self.abort()
                return "lost", "send failed"
            while True:
                try:
                    frame = await asyncio.wait_for(self._frames.get(),
                                                   poll_interval)
                except asyncio.TimeoutError:
                    if job.cancel_requested:
                        self.abort()
                        return "cancelled", None
                    reason = self.lost_reason()
                    if reason is None and self.health.dead():
                        self.abort()
                        reason = ("no heartbeat for %d intervals"
                                  % self.health.max_missed)
                    if reason is not None:
                        self.state = "dead"
                        return "lost", reason
                    continue
                if frame is None:
                    self.state = "dead"
                    return "lost", self.lost_reason(eof=True)
                kind = frame.get("type")
                if kind == "progress" and frame.get("job_id") == job.id:
                    if on_progress is not None:
                        on_progress(job, frame.get("done", 0),
                                    frame.get("total", job.done_total))
                elif kind == "result" and frame.get("job_id") == job.id:
                    self.jobs_done += 1
                    return "done", (frame.get("payload"),
                                    frame.get("report") or {})
                elif kind == "job-error" and frame.get("job_id") == job.id:
                    return "error", frame
                # stale frames from a previous assignment are dropped
        finally:
            self.current_job = None
            if self.state == "busy":
                self.state = "idle"


class WorkerProcess(Member):
    """Parent-side handle on one local worker subprocess.

    Owns the subprocess, a dedicated reader task draining its stdout
    (beats fold straight into :class:`WorkerHealth`; every other frame
    lands on an internal queue), and the health record.  The reader
    task is the *only* consumer of the pipe, so a slow ``execute`` poll
    can never tear a frame in half.
    """

    def __init__(self, worker_id, cache_dir=None,
                 beat_interval=DEFAULT_BEAT_INTERVAL,
                 max_missed=DEFAULT_MAX_MISSED, batch_jobs=1,
                 spawn_timeout=DEFAULT_SPAWN_TIMEOUT):
        super(WorkerProcess, self).__init__(beat_interval, max_missed,
                                            "starting")
        self.id = worker_id
        self.cache_dir = cache_dir
        self.beat_interval = beat_interval
        self.batch_jobs = batch_jobs
        self.spawn_timeout = spawn_timeout
        self.pid = None
        self.respawns = 0        # times this slot was respawned
        self._proc = None
        self._reader = None

    # -- lifecycle -----------------------------------------------------

    async def spawn(self):
        """Start (or restart) the subprocess; wait for its ready frame."""
        import asyncio

        import repro

        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)
        ))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_dir if not existing
                             else src_dir + os.pathsep + existing)
        argv = [sys.executable, "-m", "repro.serve.worker_main",
                "--worker-id", str(self.id),
                "--beat-interval", str(self.beat_interval),
                "--batch-jobs", str(self.batch_jobs)]
        if self.cache_dir:
            argv += ["--cache-dir", self.cache_dir]
        self.state = "starting"
        self._proc = await asyncio.create_subprocess_exec(
            *argv, stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, env=env,
        )
        self.pid = self._proc.pid
        self._frames = asyncio.Queue()
        self._reader = asyncio.get_running_loop().create_task(
            self._read_loop()
        )
        try:
            frame = await asyncio.wait_for(self._frames.get(),
                                           self.spawn_timeout)
        except asyncio.TimeoutError:
            self.kill()
            raise WorkerLost("worker %d never sent ready" % self.id)
        if frame is None or frame.get("type") != "ready":
            self.kill()
            raise WorkerLost("worker %d sent %r instead of ready"
                             % (self.id, frame))
        self.health.reset()
        self.state = "idle"
        return self

    async def _read_loop(self):
        while True:
            try:
                frame = await protocol.read_frame(self._proc.stdout)
            except (ProtocolError, ConnectionError, OSError):
                frame = None
            if frame is None:
                await self._frames.put(None)  # EOF sentinel: worker gone
                return
            if frame.get("type") == "beat":
                self.health.beat()
                continue
            await self._frames.put(frame)

    @property
    def alive(self):
        return (self._proc is not None
                and self._proc.returncode is None
                and self.state not in ("dead", "stopped"))

    def kill(self):
        """Hard-kill the subprocess (idempotent)."""
        if self._proc is not None and self._proc.returncode is None:
            try:
                self._proc.kill()
            except ProcessLookupError:
                pass
        self.state = "dead"

    async def reap(self):
        """Await subprocess exit and the reader task (after kill/EOF)."""
        import asyncio

        if self._proc is not None:
            try:
                await asyncio.wait_for(self._proc.wait(), 10.0)
            except asyncio.TimeoutError:
                pass
        if self._reader is not None:
            self._reader.cancel()
            try:
                await self._reader
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass

    abort = kill

    def lost_reason(self, eof=False):
        if eof:
            return "pipe EOF"
        if self._proc.returncode is not None:
            return "exit code %s" % self._proc.returncode
        return None

    async def send(self, message):
        """Write one frame to the worker; False when the pipe is gone."""
        try:
            self._proc.stdin.write(protocol.encode_frame(message))
            await self._proc.stdin.drain()
            return True
        except (ConnectionError, OSError, RuntimeError, ProtocolError):
            return False

    async def stop(self, timeout=10.0):
        """Graceful stop: a shutdown frame, a bounded wait, then a kill.

        Terminates promptly even when the worker is already dead or
        frozen; leaves the slot ``stopped`` with its process reaped.
        """
        import asyncio

        await self.send({"type": "shutdown"})
        if self._proc is not None and self._proc.returncode is None:
            try:
                await asyncio.wait_for(self._proc.wait(), max(0.1, timeout))
            except asyncio.TimeoutError:
                self.kill()
        await self.reap()
        self.state = "stopped"

    def snapshot(self):
        """One row of the ``fleet`` endpoint / ``repro jobs --workers``."""
        return {
            "worker": self.id,
            "pid": self.pid,
            "state": self.state,
            "job": self.current_job,
            "beats_missed": self.health.missed(),
            "respawns": self.respawns,
            "jobs_done": self.jobs_done,
        }


if __name__ == "__main__":
    sys.exit(worker_main())
