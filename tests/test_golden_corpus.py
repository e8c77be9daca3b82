"""Golden-digest corpus: every engine must reproduce pinned payloads.

``golden_digests.json`` pins the sha1 of the sorted-key JSON payload
(``RunResult.as_dict()``, the same bytes the result cache stores) of

* every catalog benchmark x every prefetcher x every branch predictor
  on a single core at :data:`STEPS` instructions, and
* :data:`MIXES` x {none, bfetch} on the shared-LLC CMP,

all taken from the lockstep reference engine.  The tests replay the
corpus through lockstep *and* through the trace-replay fast paths --
the fused engine for single-core cells, the drop-in replay source for
CMP mixes -- so a refactor that moves any payload byte on any engine
fails here, naming the cells that moved.

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
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_digests.json")


def digest(payload):
    return hashlib.sha1(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def single_key(benchmark, prefetcher, predictor):
    return "single|%s|%s|%s|%d" % (benchmark, prefetcher, predictor, STEPS)


def mix_key(mix, prefetcher):
    return "mix|%s|%s|%d" % (",".join(mix), prefetcher, STEPS)


def _config(prefetcher, predictor="tournament"):
    return SystemConfig(prefetcher=prefetcher, branch_predictor=predictor)


def single_digests(benchmark, replay=False):
    """``{key: digest}`` for every (prefetcher, predictor) cell of
    *benchmark*; with *replay* each cell runs on the fused engine."""
    workload = build_workload(benchmark)
    trace = TraceStore().get_or_record(workload, STEPS) if replay else None
    digests = {}
    for prefetcher in PREFETCHER_NAMES:
        for predictor in PREDICTOR_NAMES:
            source = (TraceReplaySource(workload, trace)
                      if replay else None)
            system = System(workload, _config(prefetcher, predictor),
                            replay=source)
            if replay:
                # guard the guard: the cell must take the fused engine,
                # not silently fall back to the drop-in source path
                assert system._fusable(STEPS), (benchmark, prefetcher)
            digests[single_key(benchmark, prefetcher, predictor)] = digest(
                system.run(STEPS).as_dict())
    return digests


def mix_digest(mix, prefetcher, replay=False):
    workloads = [build_workload(name) for name in mix]
    replays = None
    if replay:
        store = TraceStore()
        replays = [TraceReplaySource(w, store.get_or_record(w, STEPS))
                   for w in workloads]
    results = CMPSystem(workloads, _config(prefetcher),
                        replays=replays).run(STEPS)
    return digest([result.as_dict() for result in results])


def lockstep_corpus():
    corpus = {}
    for benchmark in BENCHMARKS:
        corpus.update(single_digests(benchmark))
    for mix in MIXES:
        for prefetcher in MIX_PREFETCHERS:
            corpus[mix_key(mix, prefetcher)] = mix_digest(mix, prefetcher)
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
    got = {mix_key(mix, prefetcher):
           mix_digest(mix, prefetcher, replay=engine == "replay")}
    assert _moved(got) == []


if __name__ == "__main__":
    corpus = lockstep_corpus()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.stdout.write("wrote %d digests to %s\n" % (len(corpus), GOLDEN_PATH))
