"""Seeded differential fuzzer: trace replay vs the lockstep reference.

Every round draws a random scenario -- cell count, branch predictor,
instruction budget, and per cell a benchmark, program variant and
prefetcher -- and runs each cell twice: once lockstep (a
:class:`~repro.sim.system.System` executing the functional core) and
once off a recorded trace.  Plain rounds take the fused replay engine
(:mod:`repro.trace.engine`).  Rounds 2, 5, 8, ... turn on the decoupled
front end (``frontend="ftq"``), which the fused engine does not
transcribe, so those cells exercise the drop-in
:class:`~repro.trace.replay.TraceReplaySource` path instead.  Every
``mix_every``-th round is a 2-4 app CMP mix, lockstep vs per-core
replay sources (a mix round takes precedence over a front-end one).

Comparison is on the full ``RunResult.as_dict()`` payload -- the same
stats dump the result cache persists -- compared for *equality of every
key*, i.e. byte-identity once JSON-serialised.  Divergences come back
as structured records naming the scenario and every differing key, so a
failure is immediately reproducible:

    python -m repro.trace.fuzz --seed 7 --rounds 20
"""

import argparse
import random
import tempfile

from repro.sim.cmp import CMPSystem
from repro.sim.config import PREDICTOR_NAMES, PREFETCHER_NAMES, SystemConfig
from repro.sim.system import System
from repro.trace.replay import TraceReplaySource
from repro.trace.store import TraceStore, clear_memos
from repro.workloads.spec import BENCHMARKS, build_workload

# every catalog workload: some engine paths (e.g. the conditional-branch
# redirect stall) only move payloads on a few of them
FUZZ_BENCHMARKS = tuple(sorted(BENCHMARKS))
CELL_COUNTS = (1, 4, 9)
# 1-based round numbers congruent to 2 (mod FRONTEND_EVERY) use ftq
FRONTEND_EVERY = 3


def _diff_keys(expect, got):
    """Names of keys whose values differ between two result dicts."""
    keys = sorted(set(expect) | set(got))
    return [
        key for key in keys
        if expect.get(key, "<absent>") != got.get(key, "<absent>")
    ]


def _replay_for(workload, steps, variant, cache_dir):
    trace = TraceStore(cache_dir).get_or_record(workload, steps, variant)
    return TraceReplaySource(workload, trace)


def _single_round(rng, cache_dir, frontend):
    """One single-core round; returns a list of divergence records."""
    cells = rng.choice(CELL_COUNTS)
    predictor = rng.choice(PREDICTOR_NAMES)
    steps = rng.randrange(1500, 4001)
    scenario = [
        (rng.choice(FUZZ_BENCHMARKS), rng.randrange(0, 3),
         rng.choice(PREFETCHER_NAMES))
        for _ in range(cells)
    ]

    divergences = []
    for benchmark, variant, prefetcher in scenario:
        workload = build_workload(benchmark, variant)
        config = SystemConfig(prefetcher=prefetcher,
                              branch_predictor=predictor,
                              frontend=frontend)
        expect = System(workload, config).run(steps).as_dict()
        replay = _replay_for(workload, steps, variant, cache_dir)
        got = System(workload, config, replay=replay).run(steps).as_dict()
        keys = _diff_keys(expect, got)
        if keys:
            divergences.append({
                "kind": "single",
                "benchmark": benchmark,
                "variant": variant,
                "prefetcher": prefetcher,
                "predictor": predictor,
                "frontend": frontend,
                "steps": steps,
                "keys": keys,
            })
    return divergences


def _mix_round(rng, cache_dir):
    """One CMP round; returns a list of divergence records."""
    size = rng.choice((2, 4))
    mix = [rng.choice(FUZZ_BENCHMARKS) for _ in range(size)]
    prefetcher = rng.choice(PREFETCHER_NAMES)
    predictor = rng.choice(PREDICTOR_NAMES)
    steps = rng.randrange(1500, 4001)
    config = SystemConfig(prefetcher=prefetcher, branch_predictor=predictor)

    workloads = [build_workload(name) for name in mix]
    expect = [result.as_dict()
              for result in CMPSystem(workloads, config).run(steps)]
    replays = [_replay_for(workload, steps, 0, cache_dir)
               for workload in workloads]
    got = [result.as_dict() for result in
           CMPSystem(workloads, config, replays=replays).run(steps)]

    divergences = []
    for name, expect_core, got_core in zip(mix, expect, got):
        keys = _diff_keys(expect_core, got_core)
        if keys:
            divergences.append({
                "kind": "mix",
                "mix": mix,
                "benchmark": name,
                "prefetcher": prefetcher,
                "predictor": predictor,
                "steps": steps,
                "keys": keys,
            })
    return divergences


def run_fuzz(seed, rounds, mix_every=4, cache_dir=None):
    """Run *rounds* differential rounds; returns divergence records.

    Deterministic in *seed*: the scenario stream, trace recordings and
    both engines are all seed-stable, so a reported divergence replays
    exactly.  Every ``mix_every``-th round is a CMP mix round; of the
    rest, rounds 2, 5, 8, ... run with the decoupled front end.
    """
    rng = random.Random(seed)
    divergences = []
    if cache_dir is not None:
        for number in range(1, rounds + 1):
            if mix_every and number % mix_every == 0:
                divergences.extend(_mix_round(rng, cache_dir))
            else:
                frontend = ("ftq" if number % FRONTEND_EVERY == 2
                            else "off")
                divergences.extend(
                    _single_round(rng, cache_dir, frontend))
        return divergences
    with tempfile.TemporaryDirectory() as tmp:
        try:
            return run_fuzz(seed, rounds, mix_every, cache_dir=tmp)
        finally:
            # the store memoises per-digest; drop entries pointing at
            # the deleted temporary directory
            clear_memos()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace.fuzz",
        description="differential fuzz: trace replay vs lockstep",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--mix-every", type=int, default=4,
                        help="every Nth round is a CMP mix (0 disables)")
    args = parser.parse_args(argv)
    divergences = run_fuzz(args.seed, args.rounds, args.mix_every)
    if divergences:
        for record in divergences:
            print("DIVERGENCE: %r" % (record,))
        print("%d divergence(s) in %d rounds (seed %d)"
              % (len(divergences), args.rounds, args.seed))
        return 1
    print("no divergence in %d rounds (seed %d)"
          % (args.rounds, args.seed))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
