"""Chip-multiprocessor simulation."""

import hashlib
import heapq
import json

import pytest

from repro.sim import CMPSystem, SystemConfig
from repro.sim.cmp import _KEEP_RUNNING_FACTOR
from repro.workloads import build_workload


def make_cmp(names, prefetcher="none"):
    return CMPSystem([build_workload(n) for n in names],
                     SystemConfig(prefetcher=prefetcher))


def test_requires_workloads():
    with pytest.raises(ValueError):
        CMPSystem([])


def test_two_core_run_returns_per_core_results():
    cmp_system = make_cmp(["gamess", "libquantum"])
    results = cmp_system.run(8_000)
    assert len(results) == 2
    assert {r.workload for r in results} == {"gamess", "libquantum"}
    for result in results:
        assert result.instructions == 8_000
        assert result.cycles > 0


def test_llc_scales_with_core_count():
    two = make_cmp(["gamess", "gamess"])
    four = make_cmp(["gamess"] * 4)
    assert four.llc.size_bytes == 2 * two.llc.size_bytes


def test_shared_llc_contention_slows_memory_bound_app():
    solo_cfg = SystemConfig()
    from repro.sim import System
    solo = System(build_workload("milc"), solo_cfg)
    solo_result = solo.run(15_000)

    paired = make_cmp(["milc", "libquantum"])
    paired_results = paired.run(15_000)
    milc_multi = next(r for r in paired_results if r.workload == "milc")
    # sharing LLC + DRAM with a streaming app must not speed milc up
    assert milc_multi.ipc <= solo_result.ipc * 1.02


def test_fast_core_keeps_running_until_all_finish():
    cmp_system = make_cmp(["gamess", "milc"])
    results = cmp_system.run(10_000)
    fast = next(r for r in results if r.workload == "gamess")
    # the compute-bound core retired extra instructions while waiting
    assert fast.data["total_retired"] >= fast.instructions


def test_deterministic():
    a = make_cmp(["milc", "libquantum"]).run(8_000)
    b = make_cmp(["milc", "libquantum"]).run(8_000)
    assert [r.cycles for r in a] == [r.cycles for r in b]


def test_prefetching_helps_in_cmp():
    base = make_cmp(["libquantum", "sphinx"]).run(10_000)
    pf = make_cmp(["libquantum", "sphinx"], prefetcher="bfetch").run(10_000)
    assert sum(r.ipc for r in pf) > sum(r.ipc for r in base)


# ----------------------------------------------------------------------
# slice identity: CMPSystem.run hands each core a step_cycle slice up to
# the next heap event; the reference below pops the heap and steps one
# cycle per pop.  Both must leave the same state and finish cycles, bit
# for bit.

SLICE_STEPS = 3_000
SLICE_MIXES = (
    ("mcf", "libquantum", "soplex", "astar"),
    ("lbm", "milc", "gamess", "bzip2"),
    ("nginx", "postgres", "verilator", "sphinx"),
)


def _state_digest(state):
    return hashlib.sha1(
        json.dumps(state, sort_keys=True).encode()).hexdigest()


def _sliced(names, config, **run_kwargs):
    cmp_system = CMPSystem([build_workload(n) for n in names], config)
    results = cmp_system.run(SLICE_STEPS, **run_kwargs)
    return ([r.cycles for r in results],
            [r.as_dict() for r in results],
            _state_digest(cmp_system.snapshot()))


def _reference(names, config):
    """One ``step_cycle(now)`` per heap pop; returns the finish cycles
    and the state digest."""
    cmp_system = CMPSystem([build_workload(n) for n in names], config)
    target = SLICE_STEPS
    cores = [system.core for system in cmp_system.systems]
    heap = []
    for index, core in enumerate(cores):
        core.start(target * _KEEP_RUNNING_FACTOR)
        heapq.heappush(heap, (0, index))
    finish = [None] * len(cores)
    remaining = len(cores)
    while remaining:
        now, index = heapq.heappop(heap)
        core = cores[index]
        next_time = core.step_cycle(now)
        if finish[index] is None and core.retired >= target:
            finish[index] = max(now, 1)
            remaining -= 1
            if remaining == 0:
                break
        heapq.heappush(heap, (next_time, index))
    return finish, _state_digest(cmp_system.snapshot())


@pytest.mark.parametrize("mix,config", [
    pytest.param(mix, SystemConfig(prefetcher=prefetcher),
                 id="+".join(mix) + "-" + prefetcher)
    for mix in SLICE_MIXES for prefetcher in ("none", "bfetch")
] + [
    pytest.param(("nginx", "verilator"),
                 SystemConfig(frontend="ftq", iprefetcher="fdip"),
                 id="nginx+verilator-ftq-fdip"),
])
def test_slices_match_one_cycle_per_pop(mix, config):
    finish, _payloads, state = _sliced(mix, config)
    assert (finish, state) == _reference(mix, config)


def test_sanitizer_chunked_slices_match_unchunked():
    from repro.sanitize import Sanitizer

    mix = ("mcf", "libquantum", "soplex", "astar")
    config = SystemConfig(prefetcher="bfetch")
    chunked = _sliced(mix, config, sanitizer=Sanitizer("cheap", interval=500))
    assert chunked == _sliced(mix, config)


@pytest.mark.parametrize("bench,config", (
    ("mcf", SystemConfig(prefetcher="bfetch")),
    ("nginx", SystemConfig(frontend="ftq", iprefetcher="fdip")),
), ids=("mcf-bfetch", "nginx-ftq-fdip"))
def test_core_run_matches_one_cycle_loop(bench, config):
    from repro.sim import System

    sliced = System(build_workload(bench), config)
    cycles = sliced.core.run(SLICE_STEPS)

    stepped = System(build_workload(bench), config)
    core = stepped.core
    core.start(SLICE_STEPS)
    now = core.cycle
    while not core.done:
        now = core.step_cycle(now)
    core.cycle = now

    assert cycles == now
    assert (_state_digest(sliced.snapshot())
            == _state_digest(stepped.snapshot()))
