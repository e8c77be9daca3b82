"""The repository benchmark: four workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S \\
        --trace 0|1

Workloads (see ``cells.py`` for the exact cells a seed selects):

* ``single-lockstep`` -- serial ``ExperimentRunner.run_many(jobs=1)``
  on the default (lockstep) engine: the ``repro compare`` path, where
  the functional core, OoO core, B-Fetch lookahead and front end all
  work and trace replay does nothing.
* ``retime-replay``   -- the record-once/re-time-many path:
  ``REPRO_TRACE_REPLAY=auto`` with the trace store warmed during set-up,
  so the functional core idles and the fused engine plus the
  prefetchers carry the load.
* ``mix4-cmp``        -- 4-app mixes through ``run_mix``: the only
  workload where the shared LLC/DRAM and the CMP event scheduler matter.
* ``serve-zipf``      -- ``repro serve`` as a subprocess with its default
  settings, driven by one closed-loop client blocking on
  ``ServeClient.run``; the hot head of the zipf schedule is served from
  the result cache while every other cell computes.

With ``--trace 0`` the benchmark repeats the workload, each repetition
in a fresh process with a fresh result-cache directory (the runner's
memo, ``build_workload``'s cache and the trace-store memos are all
process-local), for ``--seconds`` seconds, and prints the end-to-end
metrics:

* ``setup_s`` -- spawn of the measured process until it can make its
  first timed call (interpreter start, imports, ``build_workload``;
  trace recording for retime-replay; server boot up to its readiness
  line for serve-zipf), scaled by the first host-speed probe (see
  below); median over repetitions.
* ``sim_ips`` -- simulated instructions retired per host second of a
  pass over the workload's operations (scaled host seconds, see
  below); for serve-zipf, instructions the server simulated (computed
  runs x budget).
* ``bfetch_speedup`` -- simulated, deterministic: geomean of
  IPC(bfetch)/IPC(none) over the SPEC-like cells (or mix cores, or the
  served pairs).  The model is unvalidated against hardware.
* ``jobs_per_s`` -- operations (simulation cells, mix runs or served
  jobs) per host second of a pass.
* ``job_p50_s`` / ``job_p99_s`` -- the median (the mean of the middle
  two for an even count) and the nearest-rank 99th percentile of the
  per-operation latency.
* ``peak_rss_mb`` -- peak resident memory of the measured process plus,
  for serve-zipf, the server; median over repetitions.

Every repetition runs the same operations, and the timing metrics use
one cost per operation: its median latency over the repetitions, each
latency scaled to a reference host speed by probes timed between the
operations (``probe.py``).  The shared host's speed swings up to
twofold over minutes, and unscaled figures of the same code moved by
more than the bounds between sets of runs.  The printed lines give the
probe's median next to the metrics, and each run record keeps every
raw latency and probe.

``fail_frac`` is ``failed / attempted`` in the result line: an
operation fails when it errors or when its payload digest differs from
the one committed in ``expected_digests.json``.  Those digests come
from lockstep runs, so a matching retime-replay or served result is
also byte-identical to the lockstep engine's.  (``fail_frac`` is not an
end-to-end metric: it reads 0 on a correct run, and a bound that is a
share of the parent's median cannot hold a metric at 0.)  Mechanism
self-checks (replay counters, bfetch requests, fdip coverage, serve hits
and computes, clean server drain) make ``correct`` false when they
fail.

With ``--trace 1`` the benchmark runs one untraced and two traced
repetitions and prints the per-layer metrics instead: self time and
call counts of each simulator layer (spans from ``spans.py``), the
simulated per-layer statistics, the runner's probe/execute split, the
server's own statistics and ``bench.trace_overhead`` (traced over
untraced wall time).  The two traced repetitions must make exactly the
same number of calls into every layer.

Every run writes its full record, including the host and environment,
under ``.perfbench/results/``; ``compare.py`` compares two such sets.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import cells
from probe import PROBE_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP_TIMEOUT = 60
MIN_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("sim_ips", "instr/s"),
    ("bfetch_speedup", "ratio"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_s", "s"),
    ("job_p99_s", "s"),
    ("peak_rss_mb", "MB"),
)

# simulator layers timed by spans (self time and calls, timed phase)
SPAN_LAYERS = ("cpu.functional", "cpu.ooo", "memory", "prefetchers", "core",
               "branch", "frontend")
SIMULATED = (
    ("memory.l1d_miss_rate", "ratio"),
    ("memory.llc_miss_rate", "ratio"),
    ("memory.dram_accesses", "count"),
    ("prefetchers.issued", "count"),
    ("prefetchers.accuracy", "ratio"),
    ("prefetchers.late_frac", "ratio"),
    ("core.lookahead_depth", "blocks"),
    ("core.accuracy", "ratio"),
    ("core.filter_blocked", "count"),
    ("branch.mispredict_rate", "ratio"),
    ("frontend.l1i_miss_rate", "ratio"),
    ("frontend.ipf_coverage", "ratio"),
    ("sim.runner.probe_s", "s"),
    ("sim.runner.execute_s", "s"),
    ("serve.latency_computed_p50_s", "s"),
    ("serve.latency_cached_p50_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesce_rate", "ratio"),
    ("serve.runs_computed", "count"),
)


class RepFailed(RuntimeError):
    pass


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def rep_env(workload):
    """The parent environment minus every ``REPRO_*`` knob (CI sets
    ``REPRO_SCALE`` and others that change the engine or the work),
    with the checkout's sources on the path and one hash seed, so every
    repetition iterates string sets and dicts in the same order."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    if workload == "retime-replay":
        env["REPRO_TRACE_REPLAY"] = "auto"
    return env


def host_record():
    sha = None
    try:
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
        if found.returncode == 0:
            sha = found.stdout.strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "loadavg": os.getloadavg(),
    }


def run_rep(workload, seed, trace, env, work_root, index):
    """Run one repetition in a fresh process (its own session, so a hung
    rep and any server it started are killed together)."""
    work_dir = os.path.join(work_root, "rep%d" % index)
    os.makedirs(work_dir)
    spec = json.dumps({"workload": workload, "seed": seed,
                       "work_dir": work_dir, "trace": bool(trace)})
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), spec],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed("repetition %d timed out after %ds"
                        % (index, REP_TIMEOUT))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RepFailed("repetition %d exited %d:\n%s"
                        % (index, proc.returncode, err[-4000:]))
    result = json.loads(out.strip().splitlines()[-1])
    # set-up at the reference host speed, by the probe that ends it
    result["setup_raw_s"] = result.pop("ready_at") - spawned
    result["setup_s"] = (result["setup_raw_s"] * PROBE_REF_S
                         / result["probes"][0])
    shutil.rmtree(work_dir, ignore_errors=True)
    return result


def check_digests(reps, expected):
    """Count failed operations: errors plus digest mismatches."""
    failed = 0
    mismatches = []
    for rep in reps:
        failed += rep["attempted"] - len(rep["digests"])
        for key, found in rep["digests"]:
            want = expected.get(key)
            if want != found:
                failed += 1
                mismatches.append("%s: digest %s, expected %s"
                                  % (key, found[:12], want and want[:12]))
    return failed, mismatches


def op_costs(reps):
    """One cost per operation: the median over the repetitions of its
    latency scaled to the probe's reference host speed (``probe.py``).
    Every repetition runs the same deterministic operations in the same
    order, so operation *i* has one sample per repetition."""
    costs = []
    for samples in zip(*(rep["scaled"] for rep in reps)):
        valid = [sample for sample in samples if sample is not None]
        if valid:  # an operation that failed every time has no latency
            costs.append(statistics.median(valid))
    return costs


def end_to_end(reps):
    """End-to-end metrics.  Operations run one after another, so a pass
    takes the sum of their costs (see :func:`op_costs`)."""
    costs = op_costs(reps)
    pass_s = sum(costs)
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "sim_ips": statistics.median(rep["instructions"] for rep in reps)
        / pass_s,
        "bfetch_speedup": statistics.median(rep["bfetch_speedup"]
                                            for rep in reps),
        "jobs_per_s": len(costs) / pass_s,
        "job_p50_s": statistics.median(costs),
        "job_p99_s": percentile(costs, 0.99),
        "peak_rss_mb": statistics.median(rep["rss_kb"] / 1024.0
                                         for rep in reps),
    }, len(costs)


def span_tables(rep):
    spans = rep.get("server_spans") or rep.get("spans") or {}
    return spans.get("layers", {})


def per_layer(plain, traced):
    """Per-layer metrics from one untraced and two traced reps."""
    tables = [span_tables(rep) for rep in traced]

    def timed(layer, field):
        return statistics.mean(
            table.get("timed", {}).get(layer, {}).get(field, 0)
            for table in tables)

    def inclusive(layer):
        return statistics.mean(
            sum(phase.get(layer, {}).get("total_s", 0.0)
                for phase in table.values())
            for table in tables)

    metrics = {"workloads.build_s": inclusive("workloads"),
               "trace.record_s": inclusive("trace.record"),
               "trace.view_s": inclusive("trace.view"),
               "trace.replay.self_s": timed("trace.replay", "self_s"),
               "sim.cmp.self_s": timed("sim.cmp", "self_s")}
    for layer in SPAN_LAYERS:
        metrics[layer + ".self_s"] = timed(layer, "self_s")
        metrics[layer + ".calls"] = tables[0].get("timed", {}).get(
            layer, {}).get("calls", 0)
    for name, _unit in SIMULATED:
        metrics[name] = plain["layer_stats"].get(name, 0)
    metrics["bench.trace_overhead"] = (
        statistics.mean(rep["wall_s"] for rep in traced) / plain["wall_s"])
    return metrics


def call_counts(table):
    """Calls into each simulator layer, per phase.  (The runner layer is
    left out: under serve-zipf its call count depends on how many
    submissions coalesce, which depends on timing.)"""
    return {"%s/%s" % (phase, layer): entry["calls"]
            for phase, layers in table.items()
            for layer, entry in layers.items() if layer in SPAN_LAYERS}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    if name == "bench.trace_overhead":
        return "ratio"
    return dict(SIMULATED)[name]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=cells.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no repro sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected_digests.json")) as handle:
        expected = json.load(handle)
    env = rep_env(args.workload)
    bench_dir = os.path.join(ROOT, ".perfbench")
    work_root = os.path.join(bench_dir, "work", "%s-s%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(work_root)
    host = host_record()
    if hasattr(os, "sched_setaffinity"):
        # every repetition, and the server serve-zipf starts, inherits one
        # CPU: the host's speed differs between the virtual CPUs, so the
        # probes must run on the CPU the operations run on
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # byte-compile once, untimed, so no repetition pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src")], env=env, check=True,
                   stdout=subprocess.DEVNULL)

    started = time.monotonic()
    try:
        if args.trace:
            reps = [run_rep(args.workload, args.seed, trace, env, work_root,
                            index)
                    for index, trace in enumerate((0, 1, 1))]
        else:
            reps = []
            while True:
                reps.append(run_rep(args.workload, args.seed, 0, env,
                                    work_root, len(reps)))
                elapsed = time.monotonic() - started
                if len(reps) >= MIN_REPS and \
                        elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                    break
    except RepFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    measured = time.monotonic() - started

    failed, mismatches = check_digests(reps, expected)
    attempted = sum(rep["attempted"] for rep in reps)
    problems = sorted(set(mismatches + [problem for rep in reps
                                        for problem in rep["problems"]]))
    if args.trace:
        metrics = per_layer(reps[0], reps[1:])
        units = {name: layer_unit(name) for name in metrics}
        counts = [call_counts(span_tables(rep)) for rep in reps[1:]]
        if counts[0] != counts[1]:
            problems.append("layer call counts differ between the two "
                            "traced runs: %r vs %r" % tuple(counts))
        samples = None
    else:
        metrics, samples = end_to_end(reps)
        units = dict(END_TO_END)

    lines = ["workload %s seed %d: %d repetitions in %.1fs, host nproc=%s "
             "python=%s git=%s load=%s" % (
                 args.workload, args.seed, len(reps), measured, host["nproc"],
                 host["python"], (host["git_sha"] or "-")[:12],
                 " ".join("%.2f" % load for load in host["loadavg"]))]
    if not args.trace:
        lines.append("  host-speed probe: median %.2f ms over %d probes "
                     "(times are scaled to %.2f ms)" % (
                         1e3 * statistics.median(
                             p for rep in reps for p in rep["probes"]),
                         sum(len(rep["probes"]) for rep in reps),
                         1e3 * PROBE_REF_S))
    for name in sorted(metrics):
        note = ""
        if name in ("jobs_per_s", "job_p50_s", "job_p99_s"):
            note = "  (n=%d operations x %d repetitions)" % (
                samples, len(reps))
        lines.append("  %-32s %14.6g %s%s" % (name, metrics[name],
                                              units[name], note))
    lines.append("  fail_frac %.4f (%d of %d operations failed)" % (
        failed / attempted if attempted else 0.0, failed, attempted))
    for problem in problems:
        lines.append("  CHECK FAILED: %s" % problem)
    print("\n".join(lines))

    os.makedirs(os.path.join(bench_dir, "results"), exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured, "host": host,
        "loadavg_end": os.getloadavg(), "repetitions": len(reps),
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "units": units,
        "reps": [{"setup_s": rep["setup_s"],
                  "setup_raw_s": rep["setup_raw_s"], "wall_s": rep["wall_s"],
                  "instructions": rep["instructions"],
                  "latencies": rep["latencies"],
                  "scaled": rep["scaled"], "probes": rep["probes"]}
                 for rep in reps],
    }
    record_path = os.path.join(bench_dir, "results", "%s-s%d-t%d-%d.json" % (
        args.workload, args.seed, args.trace, int(time.time() * 1000)))
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
