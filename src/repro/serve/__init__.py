"""Simulation-as-a-service: async job server + stdlib client.

The serve layer turns the repository's batch engine
(:class:`~repro.sim.ExperimentRunner`) into a long-lived network
service:

* :class:`JobServer` -- asyncio TCP server speaking a length-prefixed
  JSON frame protocol; validates submissions against the shared
  catalog, coalesces identical in-flight requests, admits through a
  bounded priority queue with backpressure, executes on a worker tier
  and streams per-job lifecycle events.
* :class:`ServeClient` -- pure-stdlib blocking client used by scripts,
  tests and the ``repro submit`` / ``repro jobs`` CLI.
* :class:`ServerThread` -- run a server on a background thread with
  its own event loop (tests, benchmarks, notebooks).
* :class:`ClusterSupervisor` -- the one subprocess scheduler.
  ``--workers N`` runs N supervised local worker subprocesses
  (heartbeat liveness, respawn under deterministic backoff, loss
  requeue); ``--cluster`` adds remote worker nodes (``repro node
  --connect``) and a replicated content-addressed cache tier
  (:class:`CachePeerServer` / :class:`PeerSet`).  Jobs are sharded
  across members with work stealing (``docs/cluster.md``).
* :class:`BreakerBoard` -- per-benchmark circuit breakers shedding
  persistently-failing workloads with typed ``circuit-open`` errors.

See ``docs/serving.md`` and ``docs/cluster.md`` for worked examples.
"""

from repro.serve.breaker import BreakerBoard, CircuitBreaker
from repro.serve.client import ServeClient, ServeError
from repro.serve.cluster import (
    CachePeerServer,
    ClusterSupervisor,
    DeadlineExceeded,
    NodeAgent,
    NodeHandle,
    PeerSet,
)
from repro.serve.health import WorkerHealth
from repro.serve.jobs import Job, JobTable
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (
    BUSY_CLASS_CODES,
    ERROR_CODES,
    FrameDecoder,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_payload,
    encode_frame,
)
from repro.serve.queue import AdmissionQueue, QueueFull
from repro.serve.server import JobServer, ServerThread
from repro.serve.supervisor import WorkerLost, WorkerProcess
from repro.serve.workers import JobCancelled, WorkerTier

__all__ = [
    "AdmissionQueue",
    "BUSY_CLASS_CODES",
    "BreakerBoard",
    "CachePeerServer",
    "CircuitBreaker",
    "ClusterSupervisor",
    "DeadlineExceeded",
    "ERROR_CODES",
    "FrameDecoder",
    "Job",
    "JobCancelled",
    "JobServer",
    "JobTable",
    "MAX_FRAME_BYTES",
    "NodeAgent",
    "NodeHandle",
    "PeerSet",
    "ProtocolError",
    "QueueFull",
    "ServeClient",
    "ServeError",
    "ServeMetrics",
    "ServerThread",
    "WorkerHealth",
    "WorkerLost",
    "WorkerProcess",
    "WorkerTier",
    "decode_payload",
    "encode_frame",
]
