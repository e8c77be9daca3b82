"""Workload definitions: what each benchmark workload runs for a seed.

Every workload is a fixed amount of work whose inputs the seed picks:

* ``single-lockstep`` -- SPEC-like benchmarks x {none, stride, sms,
  bfetch} plus server-class benchmarks with the decoupled front end x
  I-prefetcher {none, fdip}; the seed picks each benchmark's variant.
* ``retime-replay``   -- the same SPEC-like benchmarks (same variants
  for the same seed) x all nine D-side prefetchers, timed off recorded
  traces.
* ``mix4-cmp``        -- four fixed high-contention 4-app mixes x {none,
  bfetch}; the seed picks the rotation of each mix over the cores.
* ``serve-zipf``      -- a zipf-skewed schedule of single-run jobs over
  SPEC-like benchmarks x {none, stride, bfetch} x variants; the seed
  picks the popularity order, draws the schedule and orders it.

The seed only ever picks among a small, enumerable universe of cells
(``VARIANTS`` variants, ``len(MIXES[i])`` rotations), so the expected
payload digest of every cell any seed can select is committed in
``expected_digests.json`` (see ``expected.py``).
"""

import random
from collections import namedtuple

WORKLOADS = ("single-lockstep", "retime-replay", "mix4-cmp", "serve-zipf")

SPEC = ("mcf", "astar", "libquantum", "lbm", "gamess")
SERVER = ("nginx", "verilator")
VARIANTS = 4

LOCKSTEP_PREFETCHERS = ("none", "stride", "sms", "bfetch")
IPREFETCHERS = ("none", "fdip")
# all nine D-side prefetchers (repro.sim.config.PREFETCHER_NAMES)
REPLAY_PREFETCHERS = ("none", "nextn", "stride", "sms", "perfect", "tango",
                      "bfetch", "isb", "stems")
SINGLE_BUDGET = 12_000

# mixes of the apps with the highest shared-cache access frequency
# (FOA), plus mcf; which app sits on which core moves each core's IPC a
# lot, so four mixes keep the seed's rotations from moving the geomean
MIXES = (("mcf", "libquantum", "lbm", "milc"),
         ("astar", "leslie3d", "sphinx", "zeusmp"),
         ("cactusADM", "bwaves", "soplex", "libquantum"),
         ("milc", "lbm", "hmmer", "astar"))
MIX_PREFETCHERS = ("none", "bfetch")
MIX_BUDGET = 12_000

SERVE_PREFETCHERS = ("none", "stride", "bfetch")
# B-Fetch needs about 8k instructions to make requests on mcf
SERVE_BUDGET = 8_000
SERVE_VARIANTS = 2
SERVE_JOBS = 300
ZIPF_S = 1.1


class Cell(namedtuple("Cell", ("benchmark", "variant", "prefetcher",
                               "iprefetcher", "budget"))):
    """One single-run cell; ``iprefetcher`` is None when the decoupled
    front end is off."""

    __slots__ = ()

    def key(self):
        front = "off" if self.iprefetcher is None else "ftq:" + self.iprefetcher
        return "single|%s|v%d|%s|%s|%d" % (
            self.benchmark, self.variant, self.prefetcher, front, self.budget)


def mix_key(mix, prefetcher, budget):
    return "mix|%s|%s|%d" % (",".join(mix), prefetcher, budget)


def variants_for(seed):
    """Benchmark -> variant drawn from *seed* (shared by every workload,
    so cells of one seed line up across workloads)."""
    rng = random.Random("perfbench-variants-%d" % seed)
    return {name: rng.randrange(VARIANTS) for name in SPEC + SERVER}


def single_lockstep_cells(seed):
    variants = variants_for(seed)
    cells = [Cell(name, variants[name], pf, None, SINGLE_BUDGET)
             for name in SPEC for pf in LOCKSTEP_PREFETCHERS]
    cells += [Cell(name, variants[name], "none", ipf, SINGLE_BUDGET)
              for name in SERVER for ipf in IPREFETCHERS]
    return cells


def retime_replay_cells(seed):
    variants = variants_for(seed)
    return [Cell(name, variants[name], pf, None, SINGLE_BUDGET)
            for name in SPEC for pf in REPLAY_PREFETCHERS]


def mix_runs(seed):
    """[(mix, prefetcher)] with each mix rotated by the seed."""
    rng = random.Random("perfbench-mixes-%d" % seed)
    runs = []
    for mix in MIXES:
        shift = rng.randrange(len(mix))
        rotated = mix[shift:] + mix[:shift]
        runs.extend((rotated, pf) for pf in MIX_PREFETCHERS)
    return runs


def serve_universe():
    return [Cell(name, variant, pf, None, SERVE_BUDGET)
            for name in SPEC for pf in SERVE_PREFETCHERS
            for variant in range(SERVE_VARIANTS)]


def serve_schedule(seed):
    """SERVE_JOBS jobs: every cell of the universe once, plus draws from
    zipf(ZIPF_S) over a seed-shuffled ranking, in a seed-shuffled order.

    Requesting every cell once makes each pass compute the same cells,
    whatever the seed; the zipf draws on top are the cache hits (or,
    while a cell is still computing, coalesced submissions)."""
    rng = random.Random("perfbench-serve-%d" % seed)
    ranking = serve_universe()
    rng.shuffle(ranking)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranking))]
    schedule = ranking + rng.choices(ranking, weights=weights,
                                     k=SERVE_JOBS - len(ranking))
    rng.shuffle(schedule)
    return schedule


def all_single_cells():
    """Every single-run cell any seed can select, in a stable order."""
    cells = set(serve_universe())
    for variant in range(VARIANTS):
        cells.update(Cell(name, variant, pf, None, SINGLE_BUDGET)
                     for name in SPEC for pf in REPLAY_PREFETCHERS)
        cells.update(Cell(name, variant, "none", ipf, SINGLE_BUDGET)
                     for name in SERVER for ipf in IPREFETCHERS)
    return sorted(cells, key=lambda cell: cell.key())


def all_mix_runs():
    return [(mix[shift:] + mix[:shift], pf)
            for mix in MIXES for shift in range(len(mix))
            for pf in MIX_PREFETCHERS]
