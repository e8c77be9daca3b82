"""One benchmark repetition, run by ``run.py`` in a fresh process.

Usage: ``python3 perfbench/rep.py '<json spec>'`` where the spec holds
``workload``, ``seed``, ``work_dir`` (a fresh directory for the result
cache and server files) and ``trace`` (wrap the layers in spans).

The process sets up its workload (imports, ``build_workload``, trace
recording for ``retime-replay``, server boot for ``serve-zipf``),
records the monotonic time at which it is ready to make its first
timed call, runs the workload's fixed work once, and prints one JSON
object: timings, per-operation latencies, the digest of every result
payload, failed mechanism self-checks and simulated per-layer
statistics.  ``run.py`` aggregates repetitions and checks the digests.
"""

import hashlib
import json
import math
import os
import resource
import signal
import socket
import subprocess
import sys
import time

import cells
from probe import OpClock

HERE = os.path.dirname(os.path.abspath(__file__))
READY_LINE = "serving on"


def digest(payload):
    return hashlib.sha1(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def ratio(num, den):
    return num / den if den else 0.0


def geomean(values):
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def bfetch_speedup(ipc_by_key):
    """Geomean IPC(bfetch)/IPC(none) over keys that have both;
    *ipc_by_key* maps (identity, prefetcher) -> IPC."""
    ratios = [ipc / ipc_by_key[(ident, "none")]
              for (ident, pf), ipc in ipc_by_key.items()
              if pf == "bfetch" and (ident, "none") in ipc_by_key]
    return geomean(ratios)


def simulated_layer_stats(singles, mixes):
    """Simulated per-layer statistics over every payload of one rep.

    *singles* is [(Cell, payload)], *mixes* is [(prefetcher, [payload
    per core])].  A mix's LLC and DRAM are shared, so they are read from
    its first core only.
    """
    cores = [(cell.prefetcher, cell.iprefetcher, p) for cell, p in singles]
    cores += [(pf, None, p) for pf, core_payloads in mixes
              for p in core_payloads]
    shared = [p for _, p in singles] + [core_payloads[0]
                                        for _, core_payloads in mixes]
    l1d_miss = sum(p["l1d"]["misses"] for _, _, p in cores)
    l1d_acc = sum(p["l1d"]["accesses"] for _, _, p in cores)
    llc_miss = sum(p["llc"]["misses"] for p in shared)
    llc_acc = sum(p["llc"]["accesses"] for p in shared)
    dram = sum(p["dram_accesses"] for p in shared)

    def outcome_totals(payloads):
        useful = sum(p["prefetch"]["useful"] for p in payloads)
        late = sum(p["prefetch"]["late"] for p in payloads)
        useless = sum(p["prefetch"]["useless"] for p in payloads)
        return useful, late, useless

    miss_driven = [p for pf, _, p in cores if pf not in ("none", "bfetch")]
    useful, late, useless = outcome_totals(miss_driven)
    bfetch = [p for pf, _, p in cores if pf == "bfetch"]
    b_useful, b_late, b_useless = outcome_totals(bfetch)
    front = [p for _, ipf, p in cores if ipf is not None]
    fdip = [p for _, ipf, p in cores if ipf == "fdip"]
    fdip_useful = sum(p["l1i"]["prefetch_useful"] for p in fdip)
    return {
        "memory.l1d_miss_rate": ratio(l1d_miss, l1d_acc),
        "memory.llc_miss_rate": ratio(llc_miss, llc_acc),
        "memory.dram_accesses": dram,
        "prefetchers.issued": sum(p["prefetch"]["issued"]
                                  for p in miss_driven),
        "prefetchers.accuracy": ratio(useful + late,
                                      useful + late + useless),
        "prefetchers.late_frac": ratio(late, useful + late),
        "core.lookahead_depth": ratio(
            sum(p["mean_lookahead_depth"] for p in bfetch), len(bfetch)),
        "core.accuracy": ratio(b_useful + b_late,
                               b_useful + b_late + b_useless),
        "core.filter_blocked": sum(p["filter_blocked"] for p in bfetch),
        "branch.mispredict_rate": ratio(
            sum(p["mispredicts"] for _, _, p in cores),
            sum(p["cond_branches"] for _, _, p in cores)),
        "frontend.l1i_miss_rate": ratio(
            sum(p["l1i"]["misses"] for p in front),
            sum(p["l1i"]["accesses"] for p in front)),
        "frontend.ipf_coverage": ratio(
            fdip_useful,
            fdip_useful + sum(p["l1i"]["misses"] for p in fdip)),
    }


def bfetch_requests(payload):
    """Prefetch requests B-Fetch made: issued, or suppressed because the
    block was already queued, resident or the queue was full."""
    stats = payload["prefetch"]
    return stats["issued"] + stats["duplicate"] + stats["dropped"]


def bfetch_checks(label, payloads):
    """Every bfetch payload made prefetch requests, and the workload's
    bfetch payloads issued some.  (gamess keeps its working set in the
    L1-D, so every request it makes is a duplicate of a resident block
    and its own ``issued`` count stays 0.)"""
    problems = ["%s made no prefetch requests" % name
                for name, payload in payloads
                if bfetch_requests(payload) <= 0]
    if payloads and sum(p["prefetch"]["issued"] for _, p in payloads) <= 0:
        problems.append("%s: no bfetch cell issued a prefetch" % label)
    return problems


def single_checks(singles):
    """Mechanism self-checks on single-run payloads: B-Fetch made
    requests (see :func:`bfetch_checks`) and every fdip cell covered
    some L1-I misses."""
    problems = bfetch_checks("single runs", [
        (cell.key(), payload) for cell, payload in singles
        if cell.prefetcher == "bfetch"])
    for cell, payload in singles:
        if cell.iprefetcher == "fdip" \
                and payload["l1i"]["prefetch_useful"] <= 0:
            problems.append("%s has zero L1-I prefetch coverage"
                            % cell.key())
    return problems


def request_for(cell):
    from repro.sim.config import SystemConfig
    from repro.sim.runner import RunRequest
    config = None
    if cell.iprefetcher is not None:
        config = SystemConfig(prefetcher=cell.prefetcher, frontend="ftq",
                              iprefetcher=cell.iprefetcher)
    return RunRequest(cell.benchmark, cell.prefetcher, cell.budget, config,
                      cell.variant)


def build_inputs(pairs):
    """Build (and memoise) every (benchmark, variant) workload."""
    import repro.workloads.spec
    for name, variant in sorted(set(pairs)):
        repro.workloads.spec.build_workload(name, variant)


# ----------------------------------------------------------------------
# workloads


def run_cells(spec, spans, cell_list, record_traces):
    """single-lockstep / retime-replay: one serial ``run_many`` batch."""
    from repro.sim.runner import ExperimentRunner
    from repro.trace.store import TraceStore, replay_counters, reset_counters
    import repro.workloads.spec

    cache_dir = os.path.join(spec["work_dir"], "cache")
    build_inputs((cell.benchmark, cell.variant) for cell in cell_list)
    runner = ExperimentRunner(cache_dir=cache_dir, jobs=1)
    requests = [request_for(cell) for cell in cell_list]
    if record_traces:
        store = TraceStore(cache_dir)
        for name, variant, budget in sorted({
                (c.benchmark, c.variant, c.budget) for c in cell_list}):
            store.get_or_record(
                repro.workloads.spec.build_workload(name, variant),
                budget, variant)
    ready = mark_ready(spans)

    reset_counters()
    clocks = []

    def progress(done, total):
        # first call: the cache-probe pass is over, the computes begin
        if clocks:
            clocks[0].lap()
        else:
            clocks.append(OpClock())

    results = runner.run_many(requests, jobs=1, progress=progress)
    clock = clocks[0]
    counters = dict(replay_counters)
    profile = runner.last_report.profile.phases

    singles = [(cell, result.as_dict())
               for cell, result in zip(cell_list, results)]
    problems = single_checks(singles)
    if record_traces:
        if counters["recorded"] != 0 or counters["replayed"] != len(cell_list):
            problems.append("replay counters %r: want recorded == 0 and "
                            "replayed == %d" % (counters, len(cell_list)))
    elif counters["replayed"] != 0:
        problems.append("replay counters %r: lockstep run replayed"
                        % (counters,))
    ipc = {((c.benchmark, c.variant), c.prefetcher): p["ipc"]
           for c, p in singles if c.iprefetcher is None}
    return {
        "ready_at": ready,
        "wall_s": sum(clock.latencies),
        "latencies": clock.latencies,
        "scaled": clock.scaled(),
        "probes": [seconds for _, seconds in clock.probes],
        "instructions": sum(p["instructions"] for _, p in singles),
        "digests": [[cell.key(), digest(p)] for cell, p in singles],
        "bfetch_speedup": bfetch_speedup(ipc),
        "problems": problems,
        "layer_stats": dict(
            simulated_layer_stats(singles, []),
            **{"sim.runner.probe_s": profile["probe"].seconds,
               "sim.runner.execute_s": profile["execute"].seconds}),
    }


def run_mixes(spec, spans):
    from repro.sim.runner import ExperimentRunner
    from repro.trace.store import replay_counters, reset_counters

    runs = cells.mix_runs(spec["seed"])
    build_inputs((name, 0) for mix, _ in runs for name in mix)
    runner = ExperimentRunner(
        cache_dir=os.path.join(spec["work_dir"], "cache"), jobs=1)
    ready = mark_ready(spans)

    reset_counters()
    mixes = []
    clock = OpClock()
    for mix, prefetcher in runs:
        results = runner.run_mix(mix, prefetcher, cells.MIX_BUDGET)
        clock.lap()
        mixes.append((mix, prefetcher, [r.as_dict() for r in results]))
    counters = dict(replay_counters)

    problems = []
    if counters["replayed"] != 0:
        problems.append("replay counters %r: lockstep run replayed"
                        % (counters,))
    ipc = {((mix, core), prefetcher): payload["ipc"]
           for mix, prefetcher, payloads in mixes
           for core, payload in enumerate(payloads)}
    problems += bfetch_checks("mixes", [
        ("%s core %d" % (cells.mix_key(mix, pf, cells.MIX_BUDGET), core), p)
        for mix, pf, payloads in mixes if pf == "bfetch"
        for core, p in enumerate(payloads)])
    stats = simulated_layer_stats(
        [], [(prefetcher, payloads) for _, prefetcher, payloads in mixes])
    stats["sim.runner.execute_s"] = sum(clock.latencies)
    return {
        "ready_at": ready,
        "wall_s": sum(clock.latencies),
        "latencies": clock.latencies,
        "scaled": clock.scaled(),
        "probes": [seconds for _, seconds in clock.probes],
        # cores keep running past the budget until the last one reaches
        # it; the simulator retires those instructions too
        "instructions": sum(p["total_retired"] for _, _, payloads in mixes
                            for p in payloads),
        "digests": [[cells.mix_key(mix, pf, cells.MIX_BUDGET), digest(p)]
                    for mix, pf, p in mixes],
        "bfetch_speedup": bfetch_speedup(ipc),
        "problems": problems,
        "layer_stats": stats,
    }


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(spec, attempts=5):
    """Boot ``repro serve`` on a free port; returns (proc, port, stderr
    path).  ``--port`` rejects 0, so the port is picked here; a server
    that exits before its readiness line lost a bind race and is
    retried on another port."""
    cache_dir = os.path.join(spec["work_dir"], "serve-cache")
    for attempt in range(attempts):
        port = free_port()
        argv = ["serve", "--host", "127.0.0.1", "--port", str(port),
                "--cache-dir", cache_dir]
        if spec["trace"]:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                       os.path.join(spec["work_dir"], "server-spans.json")]
        else:
            command = [sys.executable, "-m", "repro"]
        err_path = os.path.join(spec["work_dir"], "server-%d.err" % attempt)
        with open(err_path, "w") as err:
            proc = subprocess.Popen(command + argv, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
        line = proc.stdout.readline()
        if line.startswith(READY_LINE):
            return proc, port, err_path
        proc.wait(timeout=30)
        proc.stdout.close()
    raise RuntimeError("server failed to start on %d ports" % attempts)


def stop_server(proc, err_path):
    """SIGTERM the server and wait for its drain; True when clean."""
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return False
    proc.stdout.close()
    with open(err_path) as err:
        drained = "drained; bye" in err.read()
    return code == 0 and drained


def peak_rss_kb(pid):
    with open("/proc/%d/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def run_serve(spec, spans):
    """serve-zipf: one closed-loop client, each call blocking on the
    reply; the host-speed probes run in this process, between calls.
    (With two clients a cache hit waited on the GIL behind the other
    client's compute, and hit latency stopped being repeatable.)"""
    from repro.serve import ServeClient, ServeError

    schedule = cells.serve_schedule(spec["seed"])
    proc, port, err_path = start_server(spec)
    try:
        ready = mark_ready(spans)
        payloads = []
        errors = []
        with ServeClient("127.0.0.1", port, timeout=60) as client:
            clock = OpClock()
            for cell in schedule:
                try:
                    payloads.append(client.run(
                        cell.benchmark, cell.prefetcher, cell.budget,
                        variant=cell.variant))
                except ServeError as exc:
                    errors.append("%s: %s" % (cell.key(), exc))
                    payloads.append(None)
                clock.lap()
            stats = client.statz()
        server_rss = peak_rss_kb(proc.pid)
    finally:
        clean = stop_server(proc, err_path)

    problems = list(errors)
    if not clean:
        problems.append("server did not drain cleanly on SIGTERM")
    hits = stats.get("serve.runs.cache_hits", 0)
    computed = stats.get("serve.runs.computed", 0)
    if hits <= 0 or computed <= 0:
        problems.append("serve saw %d cache hits and %d computes; want both"
                        % (hits, computed))
    done = [(cell, payload) for cell, payload in zip(schedule, payloads)
            if payload is not None]
    problems += single_checks(done)
    ipc = {((c.benchmark, c.variant), c.prefetcher): p["ipc"]
           for c, p in done}
    submitted = stats.get("serve.jobs.submitted", 0)
    layer_stats = {
        "serve.latency_computed_p50_s": stats.get(
            "serve.latency.computed.p50", 0.0),
        "serve.latency_cached_p50_s": stats.get(
            "serve.latency.cached.p50", 0.0),
        "serve.cache_hit_ratio": stats.get("serve.cache.hit_ratio", 0.0),
        "serve.coalesce_rate": ratio(stats.get("serve.jobs.coalesced", 0),
                                     submitted),
        "serve.runs_computed": computed,
    }
    spans_path = os.path.join(spec["work_dir"], "server-spans.json")
    server_spans = None
    if spec["trace"] and os.path.exists(spans_path):
        with open(spans_path) as handle:
            server_spans = json.load(handle)
    failed = [payload is None for payload in payloads]
    return {
        "ready_at": ready,
        "wall_s": sum(clock.latencies),
        "latencies": [None if bad else latency for bad, latency
                      in zip(failed, clock.latencies)],
        "scaled": [None if bad else latency for bad, latency
                   in zip(failed, clock.scaled())],
        "probes": [seconds for _, seconds in clock.probes],
        # instructions the server simulated (cache hits simulate none)
        "instructions": computed * cells.SERVE_BUDGET,
        "digests": [[cell.key(), digest(p)] for cell, p in done],
        "attempted": len(schedule),
        "bfetch_speedup": bfetch_speedup(ipc),
        "problems": problems,
        "layer_stats": layer_stats,
        "server_rss_kb": server_rss,
        "server_spans": server_spans,
    }


def mark_ready(spans):
    """The moment set-up ends; later spans count as the timed phase."""
    if spans is not None:
        spans.phase = "timed"
    return time.monotonic()


def main():
    spec = json.loads(sys.argv[1])
    spans = None
    # serve-zipf simulates in the server, which installs its own spans
    if spec["trace"] and spec["workload"] != "serve-zipf":
        from spans import LayerSpans, install
        spans = LayerSpans()
        install(spans)
    workload = spec["workload"]
    seed = spec["seed"]
    if workload == "single-lockstep":
        result = run_cells(spec, spans, cells.single_lockstep_cells(seed),
                           record_traces=False)
    elif workload == "retime-replay":
        result = run_cells(spec, spans, cells.retime_replay_cells(seed),
                           record_traces=True)
    elif workload == "mix4-cmp":
        result = run_mixes(spec, spans)
    else:
        result = run_serve(spec, spans)
    result.setdefault("attempted", len(result["digests"]))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + result.pop("server_rss_kb", 0)
    if spans is not None:
        result["spans"] = spans.summary()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
