"""CI chaos drill: the cluster survives host loss + wire rot, losslessly.

Boots a cluster coordinator (one clean local worker) plus two remote
node subprocesses whose environment carries
``REPRO_FAULTS=host-kill:0.3,cache-peer-corrupt:0.2`` -- every node
rolls a 30% chance of ``os._exit`` at every shard/task boundary and a
20% chance of serving a corrupted cache entry over the peer wire.  A
keeper thread respawns dead nodes, keeping the chaos sustained for the
whole 50-job sweep.  The drill asserts the ISSUE acceptance bar:

* **zero lost jobs** -- every submission reaches a terminal ``done``
  state (node deaths requeue their shards, partitions replay);
* **byte-identity** -- every result equals the serial
  :meth:`ExperimentRunner.run_batch` reference computed in *this*
  process (where the cluster verbs never fire), proving that
  kill-interrupted shards resumed from the cache checkpoint and
  converged;
* **chaos actually happened** -- ``serve.cluster.nodes_lost`` and
  ``serve.fleet.requeues`` are non-zero (a chaos drill where nothing
  dies proves nothing).

Run from the repo root::

    python scripts/cluster_chaos.py [stats_out.json]

Prints the ``serve.cluster.*`` / ``serve.fleet.*`` counters as JSON on
success (CI archives them as an artifact); exits non-zero on any
violation.
"""

import json
import os
import sys
import tempfile
import threading

sys.path.insert(0, os.path.join(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))), "src"))

NODES = 2
FAULTS = "host-kill:0.3:seed=11,cache-peer-corrupt:0.2:seed=12"
BENCHMARKS = ("libquantum", "mcf")
PREFETCHERS = ("none", "stride", "bfetch", "sms", "nextn")
VARIANTS = range(5)   # 2 benchmarks x 5 prefetchers x 5 variants = 50
INSTRUCTIONS = 2_000


def _node_env():
    env = dict(os.environ)
    env["REPRO_FAULTS"] = FAULTS
    return env


def main():
    stats_out = sys.argv[1] if len(sys.argv) > 1 else None
    # the cluster verbs must fire only inside the node subprocesses --
    # this process computes the serial reference
    os.environ.pop("REPRO_FAULTS", None)

    from repro.serve import ServeClient
    from repro.serve.cluster import spawn_node
    from repro.serve.server import ServerThread
    from repro.sim.runner import ExperimentRunner, RunRequest

    grid = [(bench, prefetcher, variant)
            for bench in BENCHMARKS
            for prefetcher in PREFETCHERS
            for variant in VARIANTS]
    cache_dir = tempfile.mkdtemp(prefix="cluster-chaos-cache-")
    node_dirs = [tempfile.mkdtemp(prefix="cluster-chaos-node%d-" % n)
                 for n in range(NODES)]
    respawns = [0]
    stop = threading.Event()

    with ServerThread(cache_dir=cache_dir, cluster=True, workers=1,
                      beat_interval=0.25, heartbeat_interval=0,
                      shard_tasks=1,
                      high_water=len(grid) + 8) as thread:
        procs = [spawn_node(thread.address, cache_dir=node_dirs[n],
                            node_id="chaos-%d" % n, env=_node_env())
                 for n in range(NODES)]

        def keeper():
            # sustained chaos: a host-killed node comes back as a fresh
            # process (same cache dir, so its checkpoints survive)
            while not stop.wait(0.3):
                for n, proc in enumerate(procs):
                    if proc.poll() is not None:
                        respawns[0] += 1
                        procs[n] = spawn_node(
                            thread.address, cache_dir=node_dirs[n],
                            node_id="chaos-%d" % n, env=_node_env())

        tender = threading.Thread(target=keeper, daemon=True)
        tender.start()
        try:
            host, port = thread.address
            with ServeClient(host, port, timeout=120) as client:
                tickets = [
                    client.submit(bench, prefetcher,
                                  instructions=INSTRUCTIONS,
                                  variant=variant)
                    for bench, prefetcher, variant in grid
                ]
                results = []
                for ticket in tickets:
                    reply = client.result(ticket["job_id"], wait=True)
                    assert reply["state"] == "done", \
                        "lost job %s: %s" % (ticket["job_id"], reply)
                    results.append(reply["result"][0])
                stats = client.statz()
        finally:
            stop.set()
            tender.join(timeout=5)
            for proc in procs:
                proc.kill()
                proc.wait()

    runner = ExperimentRunner(
        cache_dir=tempfile.mkdtemp(prefix="cluster-chaos-ref-")
    )
    reference, _report = runner.run_batch(
        [RunRequest(bench, prefetcher, INSTRUCTIONS, None, variant)
         for bench, prefetcher, variant in grid]
    )
    mismatches = [
        grid[i]
        for i, (got, want) in enumerate(zip(results, reference))
        if json.dumps(got, sort_keys=True)
        != json.dumps(want.as_dict(), sort_keys=True)
    ]
    assert not mismatches, "diverged under chaos: %s" % mismatches

    cluster_stats = {name: value for name, value in sorted(stats.items())
                     if name.startswith(("serve.cluster.",
                                         "serve.fleet."))}
    cluster_stats["jobs"] = len(grid)
    cluster_stats["node_respawns"] = respawns[0]
    assert stats["serve.jobs.completed"] == len(grid), stats
    assert cluster_stats["serve.cluster.nodes_lost"] > 0, \
        "chaos drill killed no nodes: %s" % cluster_stats
    assert cluster_stats["serve.fleet.requeues"] > 0, cluster_stats
    assert cluster_stats["serve.cluster.nodes_joined"] >= NODES, \
        cluster_stats
    print("%d jobs, zero lost, byte-identical to serial reference"
          % len(grid))
    print(json.dumps(cluster_stats, indent=2, sort_keys=True))
    if stats_out:
        with open(stats_out, "w") as handle:
            json.dump(cluster_stats, handle, indent=2, sort_keys=True)


if __name__ == "__main__":
    main()
