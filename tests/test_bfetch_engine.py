"""B-Fetch engine behaviour on small hand-written kernels."""

import pytest

from repro.branch.confidence import CompositeConfidenceEstimator
from repro.branch.tournament import TournamentPredictor
from repro.core import BFetchConfig, BFetchPrefetcher, bb_hash
from repro.isa import assemble
from repro.obs import Tracer
from repro.sim import System, SystemConfig
from repro.workloads import Workload


def run_system(text, prefetcher="bfetch", instructions=20_000, memory=None,
               bfetch=None):
    workload = Workload("unit", assemble(text), memory or {})
    config = SystemConfig(prefetcher=prefetcher, bfetch=bfetch)
    system = System(workload, config)
    system.core.run(instructions)
    return system


STREAM = """
        li   r8, 0x100000
outer:  li   r16, 200
loop:   load r1, 0(r8)
        add  r4, r4, r1
        addi r8, r8, 64
        subi r16, r16, 1
        bnez r16, loop
        br   outer
        halt
"""


def test_stream_learns_offset_and_loopdelta():
    system = run_system(STREAM)
    pf = system.prefetcher
    slots = [
        slot
        for entry in pf.mht.table
        if entry is not None
        for slot in entry.slots
        if slot.valid and slot.regidx == 8
    ]
    assert slots, "MHT never learned the stream's base register"
    assert any(slot.loopdelta == 64 for slot in slots)


def test_stream_brtc_links_loop_branch_to_itself():
    system = run_system(STREAM)
    pf = system.prefetcher
    program = system.workload.program
    bnez_pc = program.pc_of(program.labels["loop"] + 4)
    loop_pc = program.pc_of(program.labels["loop"])
    h = bb_hash(bnez_pc, True, loop_pc)
    step = pf.brtc.lookup(h, bnez_pc & 0xFFFFFFFF)
    assert step is not None
    end_pc, taken_target = step
    assert end_pc == bnez_pc and taken_target == loop_pc


def test_stream_prefetches_are_useful():
    system = run_system(STREAM)
    pf = system.prefetcher
    assert pf.stats.issued > 100
    # demanded = useful + late now that the outcome counters are disjoint
    assert pf.stats.useful + pf.stats.late > 0.8 * pf.stats.issued
    assert pf.walks > 0
    assert pf.mean_lookahead_depth > 2


def test_stream_speedup_over_baseline():
    base = run_system(STREAM, prefetcher="none")
    bf = run_system(STREAM)
    assert bf.core.ipc > 1.5 * base.core.ipc


PATTERN = """
        li   r8, 0x200000
outer:  li   r16, 150
loop:   load r1, 0(r8)
        load r2, 64(r8)
        load r3, 128(r8)
        add  r4, r4, r1
        addi r8, r8, 512
        subi r16, r16, 1
        bnez r16, loop
        br   outer
        halt
"""


def test_same_register_block_pattern_learned():
    system = run_system(PATTERN)
    pf = system.prefetcher
    slots = [
        slot
        for entry in pf.mht.table
        if entry is not None
        for slot in entry.slots
        if slot.valid and slot.regidx == 8 and slot.pospatt
    ]
    assert slots
    # loads at +64 and +128 from the primary: pattern bits 0 and 1
    assert slots[0].pospatt & 0b11 == 0b11


def test_pattern_prefetch_can_be_disabled():
    cfg = BFetchConfig(pattern_prefetch=False)
    system = run_system(PATTERN, bfetch=cfg)
    pf = system.prefetcher
    for entry in pf.mht.table:
        if entry is None:
            continue
        for slot in entry.slots:
            assert slot.pospatt == 0 and slot.negpatt == 0


def test_filter_disabled_issues_more_candidates():
    gated = run_system(STREAM)
    open_cfg = BFetchConfig(use_filter=False)
    ungated = run_system(STREAM, bfetch=open_cfg)
    assert ungated.prefetcher.filtered == 0
    assert gated.prefetcher.candidates > 0


def test_unrepresentable_offset_invalidates_slot():
    pf = BFetchPrefetcher(BFetchConfig(offset_bits=8))
    # offsets beyond +-127 cannot be stored
    assert pf.config.offset_limit == 127


def test_lookahead_requires_attach():
    pf = BFetchPrefetcher()
    with pytest.raises(RuntimeError):
        pf.on_branch_decode(0x1000, True, 0x2000, 0)


def attached_engine(**config):
    """A bare engine on fresh Table II predictor/confidence tables, with
    its walk events traced.  The fresh composite confidence is about
    0.74 per branch, so a 0.5 threshold admits the first two steps."""
    pf = BFetchPrefetcher(BFetchConfig(path_confidence_threshold=0.5,
                                       **config))
    pf.attach(TournamentPredictor(), CompositeConfidenceEstimator())
    tracer = Tracer({"bfetch": 1.0})
    pf.bind_tracer(tracer)
    return pf, tracer


def test_indirect_branch_without_target_ends_at_depth_zero():
    pf, tracer = attached_engine()
    pf.on_branch_decode(0x1000, True, None, 0)
    assert pf.walks == 1 and pf.depth_hist[0] == 1
    assert pf.total_depth == 0 and pf.brtc.lookups == 0
    assert tracer.events[-1]["end"] == "indirect_unknown"


def test_taken_step_without_brtc_target_stops_walk():
    # a fresh tournament predictor predicts every branch taken
    pf, tracer = attached_engine()
    entered = bb_hash(0x1000, False, 0x1004)
    pf.brtc.update(entered, 0x1000, 0x1040, None)
    pf.on_branch_decode(0x1000, False, None, 0)
    assert pf.depth_hist[1] == 1
    assert (pf.brtc.lookups, pf.brtc.hits) == (1, 1)
    assert tracer.events[-1]["end_pc"] == 0x1004
    # with the target known, the same walk takes a second step (and
    # stops there on a BrTC miss)
    pf.brtc.update(entered, 0x1000, 0x1040, 0x2000)
    pf.on_branch_decode(0x1000, False, None, 0)
    assert pf.depth_hist[2] == 1
    assert (pf.brtc.lookups, pf.brtc.hits) == (3, 2)
    assert tracer.events[-1]["end_pc"] == 0x2000


HASHY = """
        li   r8, 0x900000
outer:  li   r16, 300
loop:   li   r2, 1103515245
        mul  r20, r20, r2
        addi r20, r20, 12345
        srli r1, r20, 8
        andi r1, r1, 0x7ff8
        add  r12, r8, r1
        load r3, 0(r12)
        add  r4, r4, r3
        subi r16, r16, 1
        bnez r16, loop
        br   outer
        halt
"""


def test_unstable_offsets_never_become_candidates():
    """A load whose address is hash-computed bears no stable relation to
    any register at the branch; the offset-stability hysteresis must keep
    it out of the prefetch stream (this is what keeps B-Fetch quiet on
    gamess/sjeng-class code)."""
    system = run_system(HASHY, instructions=30_000)
    pf = system.prefetcher
    unstable = [
        slot
        for entry in pf.mht.table
        if entry is not None
        for slot in entry.slots
        if slot.regidx == 12
    ]
    assert unstable, "the hash-computed load never trained"
    assert all(slot.stable == 0 for slot in unstable)
    assert pf.stats.useless < 20


def test_stable_offsets_reconfirm_and_issue():
    system = run_system(STREAM)
    pf = system.prefetcher
    slots = [
        slot
        for entry in pf.mht.table
        if entry is not None
        for slot in entry.slots
        if slot.valid and slot.regidx == 8
    ]
    assert any(slot.stable >= 2 for slot in slots)


BRANCHY = """
        li   r9, 0x300000
        li   r12, 0x400000
outer:  li   r16, 100
loop:   load r5, 0(r9)
        bnez r5, big
        addi r12, r12, 64
        br   join
big:    addi r12, r12, 320
join:   load r1, 0(r12)
        add  r4, r4, r1
        addi r9, r9, 8
        subi r16, r16, 1
        bnez r16, loop
        li   r12, 0x400000
        br   outer
        halt
"""


def test_branchy_offsets_stable_per_direction():
    memory = {}
    for i in range(100):
        memory[0x300000 + i * 8] = 1 if i % 5 else 0
    system = run_system(BRANCHY, memory=memory)
    pf = system.prefetcher
    offsets = {
        slot.offset
        for entry in pf.mht.table
        if entry is not None
        for slot in entry.slots
        if slot.valid and slot.regidx == 12
    }
    assert offsets, "walk register never learned"
    # at least one path-specific offset was learned and prefetches flowed
    assert pf.stats.issued > 0


def test_storage_bits_scale_with_config():
    small = BFetchPrefetcher(BFetchConfig.sized(64)).storage_bits()
    default = BFetchPrefetcher(BFetchConfig()).storage_bits()
    big = BFetchPrefetcher(BFetchConfig.sized(512)).storage_bits()
    assert small < default < big
