"""Member liveness: heartbeat accounting for the subprocess scheduler.

Each worker subprocess (and each remote node) emits a ``{"type":
"beat"}`` frame every ``beat_interval`` seconds from a dedicated thread
(so a busy simulation keeps beating).  The parent folds every received
beat into a :class:`WorkerHealth`; when ``max_missed`` consecutive
intervals pass without one, :meth:`WorkerHealth.dead` flips and the
supervisor declares the member lost -- it is aborted, its in-flight
shard is requeued, and a dead local worker is respawned under
deterministic backoff.

The check is purely interval arithmetic over a monotonic clock: no
timers, no wall-clock, injectable for tests.
"""

import time

#: lifecycle states a fleet worker moves through (supervisor's view)
WORKER_STATES = ("starting", "idle", "busy", "dead", "stopped")

DEFAULT_BEAT_INTERVAL = 1.0
DEFAULT_MAX_MISSED = 4


class WorkerHealth(object):
    """Missed-heartbeat detector for one worker.

    :param beat_interval: seconds between expected beats.
    :param max_missed: consecutive missed intervals before
        :meth:`dead` reports True.
    :param clock: monotonic time source (injectable for tests).
    """

    __slots__ = ("beat_interval", "max_missed", "_clock", "_last", "beats")

    def __init__(self, beat_interval=DEFAULT_BEAT_INTERVAL,
                 max_missed=DEFAULT_MAX_MISSED, clock=time.monotonic):
        if beat_interval <= 0:
            raise ValueError("beat_interval must be positive, got %r"
                             % (beat_interval,))
        if max_missed < 1:
            raise ValueError("max_missed must be >= 1, got %r"
                             % (max_missed,))
        self.beat_interval = beat_interval
        self.max_missed = max_missed
        self._clock = clock
        self._last = clock()
        self.beats = 0

    def beat(self):
        """Record one received heartbeat."""
        self.beats += 1
        self._last = self._clock()

    def reset(self):
        """Restart the grace window (called on spawn / job hand-off)."""
        self._last = self._clock()

    def missed(self):
        """Whole beat intervals elapsed since the last beat."""
        elapsed = self._clock() - self._last
        if elapsed <= 0:
            return 0
        return int(elapsed / self.beat_interval)

    def dead(self):
        """True once ``max_missed`` consecutive intervals passed silent."""
        return self.missed() >= self.max_missed
