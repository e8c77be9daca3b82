"""The subprocess scheduler: local workers, remote nodes, replicated cache.

Layered on the serving tier (:mod:`repro.serve.server`):

* :mod:`~repro.serve.cluster.cas` -- content-addressed cache-peer
  protocol (:class:`CachePeerServer` exports a cache directory over
  length-prefixed frames; :class:`PeerSet` is the client with
  rendezvous-hashed N-way replication and never-trust-the-wire
  envelope verification);
* :mod:`~repro.serve.cluster.node` -- :class:`NodeAgent`, the remote
  worker process (``repro node --connect host:port``) that dials the
  coordinator, executes shards, and rides out partitions by finishing
  work into its local cache and replaying on reconnect;
* :mod:`~repro.serve.cluster.remote` -- :class:`NodeHandle`, the
  coordinator-side handle sharing the local workers' ``execute`` loop
  over the wire;
* :mod:`~repro.serve.cluster.supervisor` --
  :class:`ClusterSupervisor`, the one subprocess scheduler (``repro
  serve --workers N`` and ``--cluster``) with shard scatter, work
  stealing, loss requeue, autoscaling admission and typed degraded
  modes.
"""

from repro.serve.cluster.cas import (
    CachePeerServer,
    DEFAULT_REPLICAS,
    PeerSet,
    rendezvous_rank,
)
from repro.serve.cluster.node import (
    NodeAgent,
    node_main,
    parse_hostport,
    spawn_node,
)
from repro.serve.cluster.remote import NodeHandle
from repro.serve.cluster.supervisor import (
    ClusterSupervisor,
    DeadlineExceeded,
)

__all__ = [
    "CachePeerServer",
    "ClusterSupervisor",
    "DEFAULT_REPLICAS",
    "DeadlineExceeded",
    "NodeAgent",
    "NodeHandle",
    "PeerSet",
    "node_main",
    "parse_hostport",
    "rendezvous_rank",
    "spawn_node",
]
