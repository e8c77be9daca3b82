"""Golden-digest corpus: every engine must reproduce pinned payloads.

``golden_digests.json`` pins the sha1 of the sorted-key JSON payload
(``RunResult.as_dict()``, the same bytes the result cache stores) of

* every catalog benchmark x every prefetcher x every branch predictor
  on a single core at :data:`STEPS` instructions,
* :data:`MIXES` x {none, bfetch} on the shared-LLC CMP,
* the B-Fetch ablation configurations behind the figure sweeps
  (:data:`ABLATIONS`) on :data:`ABLATION_BENCHMARKS` x every predictor,
  and
* the decoupled front end with the B-Fetch-I walk
  (:data:`FRONTEND_IPREFETCHERS`) on :data:`FRONTEND_BENCHMARKS` at
  :data:`FRONTEND_STEPS` instructions,

all taken from the lockstep reference engine.  The tests replay the
corpus through lockstep *and* through the trace-replay fast paths --
the fused engine for single-core cells, the drop-in replay source for
CMP mixes and front-end cells -- so a refactor that moves any payload
byte on any engine fails here, naming the cells that moved.

The payload does not carry the lookahead's own counters (walks, depth
histogram, candidates, table lookups and hits, filter outcomes), so a
walk that miscounts them would still match.  Every cell running a
B-Fetch walk therefore also pins a ``counters|...`` digest of them, and
:data:`WALK_TRACE_BENCHMARKS` pin the sha1 of their traced ``walk``
events (``walk-trace|...``).

Regenerate from the lockstep engine with::

    PYTHONPATH=src python tests/test_golden_corpus.py

Never re-pin to hide a payload change.  Re-pin only when a change is
*meant* to alter simulated results (a model fix, a new statistic), say
so in the change description, and check that lockstep and replay still
agree before writing the new file.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.core import BFetchConfig
from repro.obs import Tracer
from repro.sim.cmp import CMPSystem
from repro.sim.config import PREDICTOR_NAMES, PREFETCHER_NAMES, SystemConfig
from repro.sim.system import System
from repro.trace.replay import TraceReplaySource
from repro.trace.store import TraceStore, clear_memos
from repro.workloads.spec import BENCHMARKS, build_workload

STEPS = 3_000
MIXES = (
    ("mcf", "libquantum", "soplex", "astar"),
    ("lbm", "milc", "gamess", "bzip2"),
    ("nginx", "postgres", "verilator", "sphinx"),
)
MIX_PREFETCHERS = ("none", "bfetch")
# the walk branches the figure sweeps reach and the default config never
# takes: Fig. 12 thresholds, Fig. 15 table sizes, the ablations and the
# B-Fetch-I extension -- plus a cold per-load filter, the only setting
# under which the filter blocks (and probes) within STEPS instructions
ABLATIONS = {
    "conf-0.45": lambda: BFetchConfig(path_confidence_threshold=0.45),
    "conf-0.90": lambda: BFetchConfig(path_confidence_threshold=0.90),
    "sized-64": lambda: BFetchConfig.sized(64),
    "sized-512": lambda: BFetchConfig.sized(512),
    "no-filter": lambda: BFetchConfig(use_filter=False),
    "no-loop": lambda: BFetchConfig(loop_prefetch=False),
    "no-pattern": lambda: BFetchConfig(pattern_prefetch=False),
    "instr-prefetch": lambda: BFetchConfig(instruction_prefetch=True),
    "arf-retire-60": lambda: BFetchConfig(arf_delay=60, arf_mode="retire"),
    "filter-cold": lambda: BFetchConfig(filter_initial=0),
}
ABLATION_BENCHMARKS = ("mcf", "libquantum", "astar", "soplex")
FRONTEND_BENCHMARKS = ("nginx", "postgres", "verilator")
FRONTEND_IPREFETCHERS = ("bfetch-i", "combined")
# the server code footprints are large: at 20k instructions the B-Fetch-I
# BrTC has not hit once on verilator, so its walk would take no step
FRONTEND_STEPS = 30_000
WALK_TRACE_BENCHMARKS = ("mcf", "libquantum")
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_digests.json")


def digest(payload):
    return hashlib.sha1(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def single_key(benchmark, prefetcher, predictor):
    return "single|%s|%s|%s|%d" % (benchmark, prefetcher, predictor, STEPS)


def mix_key(mix, prefetcher):
    return "mix|%s|%s|%d" % (",".join(mix), prefetcher, STEPS)


def ablation_key(name, benchmark, predictor):
    return "ablation|%s|%s|%s|%d" % (name, benchmark, predictor, STEPS)


def frontend_key(benchmark, iprefetcher):
    return "frontend|%s|%s|%d" % (benchmark, iprefetcher, FRONTEND_STEPS)


def counters_key(key):
    """The walk-counter pin riding along with payload pin *key*."""
    return "counters|" + key


def walk_trace_key(benchmark):
    return "walk-trace|%s|bfetch|%d" % (benchmark, STEPS)


def _config(prefetcher, predictor="tournament", **kwargs):
    return SystemConfig(prefetcher=prefetcher, branch_predictor=predictor,
                        **kwargs)


def walk_counters(prefetcher):
    """Digest of the lookahead counters the payload does not carry."""
    brtc = prefetcher.brtc
    counters = {
        "walks": prefetcher.walks,
        "total_depth": prefetcher.total_depth,
        "brtc": [brtc.lookups, brtc.hits],
    }
    if hasattr(prefetcher, "mht"):  # the D-side engine
        pfilter = prefetcher.filter
        counters.update({
            "depth_hist": list(prefetcher.depth_hist),
            "candidates": prefetcher.candidates,
            "filtered": prefetcher.filtered,
            "mht": [prefetcher.mht.lookups, prefetcher.mht.hits],
            "filter": [pfilter.passed, pfilter.blocked, pfilter.probes],
        })
    return digest(counters)


def run_cell(workload, config, trace=None, steps=STEPS):
    """Run one single-core cell; with *trace* it replays (fused when the
    engine can serve it, drop-in otherwise)."""
    source = TraceReplaySource(workload, trace) if trace else None
    system = System(workload, config, replay=source)
    if trace is not None:
        # guard the guard: a cell the fused engine can serve must take
        # it, not silently fall back to the drop-in source path
        assert system._fusable(steps) == (config.frontend == "off"), (
            workload.name, config.prefetcher)
    return system, digest(system.run(steps).as_dict())


def _record(workload, replay, steps=STEPS):
    return TraceStore().get_or_record(workload, steps) if replay else None


def single_digests(benchmark, replay=False):
    """``{key: digest}`` for every (prefetcher, predictor) cell of
    *benchmark* plus the walk counters of its bfetch cells; with
    *replay* each cell runs on the fused engine."""
    workload = build_workload(benchmark)
    trace = _record(workload, replay)
    digests = {}
    for prefetcher in PREFETCHER_NAMES:
        for predictor in PREDICTOR_NAMES:
            key = single_key(benchmark, prefetcher, predictor)
            system, digests[key] = run_cell(
                workload, _config(prefetcher, predictor), trace)
            if prefetcher == "bfetch":
                digests[counters_key(key)] = walk_counters(system.prefetcher)
    return digests


def ablation_digests(name, replay=False):
    digests = {}
    for benchmark in ABLATION_BENCHMARKS:
        workload = build_workload(benchmark)
        trace = _record(workload, replay)
        for predictor in PREDICTOR_NAMES:
            key = ablation_key(name, benchmark, predictor)
            config = _config("bfetch", predictor, bfetch=ABLATIONS[name]())
            system, digests[key] = run_cell(workload, config, trace)
            digests[counters_key(key)] = walk_counters(system.prefetcher)
    return digests


def frontend_digests(benchmark, replay=False):
    workload = build_workload(benchmark)
    trace = _record(workload, replay, FRONTEND_STEPS)
    digests = {}
    for iprefetcher in FRONTEND_IPREFETCHERS:
        key = frontend_key(benchmark, iprefetcher)
        config = _config("none", frontend="ftq", iprefetcher=iprefetcher)
        system, digests[key] = run_cell(workload, config, trace,
                                        FRONTEND_STEPS)
        digests[counters_key(key)] = walk_counters(
            system.core.frontend.iprefetcher)
    return digests


def mix_digests(mix, prefetcher, replay=False):
    workloads = [build_workload(name) for name in mix]
    replays = None
    if replay:
        store = TraceStore()
        replays = [TraceReplaySource(w, store.get_or_record(w, STEPS))
                   for w in workloads]
    cmp_system = CMPSystem(workloads, _config(prefetcher), replays=replays)
    results = cmp_system.run(STEPS)
    key = mix_key(mix, prefetcher)
    digests = {key: digest([result.as_dict() for result in results])}
    if prefetcher == "bfetch":
        digests[counters_key(key)] = digest(
            [walk_counters(system.prefetcher)
             for system in cmp_system.systems])
    return digests


def walk_trace_digest(benchmark):
    """sha1 of the traced lookahead walks of the default bfetch cell."""
    tracer = Tracer({"bfetch": 1.0})
    System(build_workload(benchmark), _config("bfetch"),
           tracer=tracer).run(STEPS)
    walks = [[event["cycle"], event["pc"], event["depth"],
              event.get("end"), event.get("end_pc"), event.get("path_conf")]
             for event in tracer.events if event["ev"] == "walk"]
    assert walks, benchmark
    return digest(walks)


def lockstep_corpus():
    corpus = {}
    for benchmark in BENCHMARKS:
        corpus.update(single_digests(benchmark))
    for mix in MIXES:
        for prefetcher in MIX_PREFETCHERS:
            corpus.update(mix_digests(mix, prefetcher))
    for name in ABLATIONS:
        corpus.update(ablation_digests(name))
    for benchmark in FRONTEND_BENCHMARKS:
        corpus.update(frontend_digests(benchmark))
    for benchmark in WALK_TRACE_BENCHMARKS:
        corpus[walk_trace_key(benchmark)] = walk_trace_digest(benchmark)
    return corpus


def _golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_memos()
    yield
    clear_memos()


def _moved(got):
    golden = _golden()
    return sorted(key for key, value in got.items()
                  if golden.get(key) != value)


def test_corpus_covers_every_cell():
    expected = {single_key(b, p, r) for b in BENCHMARKS
                for p in PREFETCHER_NAMES for r in PREDICTOR_NAMES}
    expected |= {mix_key(m, p) for m in MIXES for p in MIX_PREFETCHERS}
    expected |= {ablation_key(n, b, r) for n in ABLATIONS
                 for b in ABLATION_BENCHMARKS for r in PREDICTOR_NAMES}
    expected |= {frontend_key(b, i) for b in FRONTEND_BENCHMARKS
                 for i in FRONTEND_IPREFETCHERS}
    walkers = (expected - {single_key(b, p, r) for b in BENCHMARKS
                           for p in PREFETCHER_NAMES if p != "bfetch"
                           for r in PREDICTOR_NAMES}
               - {mix_key(m, "none") for m in MIXES})
    expected |= {counters_key(key) for key in walkers}
    expected |= {walk_trace_key(b) for b in WALK_TRACE_BENCHMARKS}
    assert set(_golden()) == expected


@pytest.mark.parametrize("engine", ("lockstep", "fused"))
@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_single_core_digests(bench, engine):
    got = single_digests(bench, replay=engine == "fused")
    assert _moved(got) == []


@pytest.mark.parametrize("engine", ("lockstep", "replay"))
@pytest.mark.parametrize("prefetcher", MIX_PREFETCHERS)
@pytest.mark.parametrize("mix", MIXES, ids="+".join)
def test_cmp_digests(mix, prefetcher, engine):
    got = mix_digests(mix, prefetcher, replay=engine == "replay")
    assert _moved(got) == []


@pytest.mark.parametrize("engine", ("lockstep", "fused"))
@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_ablation_digests(name, engine):
    got = ablation_digests(name, replay=engine == "fused")
    assert _moved(got) == []


@pytest.mark.parametrize("engine", ("lockstep", "replay"))
@pytest.mark.parametrize("bench", FRONTEND_BENCHMARKS)
def test_frontend_digests(bench, engine):
    got = frontend_digests(bench, replay=engine == "replay")
    assert _moved(got) == []


@pytest.mark.parametrize("bench", WALK_TRACE_BENCHMARKS)
def test_walk_trace_digests(bench):
    got = {walk_trace_key(bench): walk_trace_digest(bench)}
    assert _moved(got) == []


if __name__ == "__main__":
    corpus = lockstep_corpus()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.stdout.write("wrote %d digests to %s\n" % (len(corpus), GOLDEN_PATH))
