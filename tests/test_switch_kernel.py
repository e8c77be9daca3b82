"""Jump-table (indirect branch) kernel: JR execution, BTB and BrTC paths."""

import json
import random

import pytest

from repro.cpu import Machine
from repro.obs import Tracer
from repro.sim import System, SystemConfig
from repro.trace.replay import TraceReplaySource
from repro.trace.store import TraceStore, clear_memos
from repro.workloads import Workload
from repro.workloads.builder import ProgramBuilder
from repro.workloads.patterns import (
    R_ACC,
    R_SEED,
    R_W0,
    R_W1,
    R_W2,
    emit_switch,
    init_switch_tables,
    patch_switch_fixups,
)

CASE_TABLE = 0x1000000
CASES = 4
ITERS = 200


@pytest.fixture(scope="module")
def switch_workload():
    rng = random.Random(11)
    memory = {}
    init_switch_tables(memory, rng, CASE_TABLE, ITERS, CASES)
    body = ProgramBuilder("switch")
    body.label("outer")
    fixups = emit_switch(body, CASE_TABLE, ITERS, cases=CASES, iters=ITERS)
    body.br("outer")
    body.halt()
    final = ProgramBuilder("switch")
    for reg, value in ((R_ACC, 0), (R_SEED, 1), (R_W0, 1), (R_W1, 2),
                       (R_W2, 3)):
        final.li(reg, value)
    final.append_builder(body)
    program = final.build()
    patch_switch_fixups(memory, program, fixups)
    return Workload("switch", program, memory)


def test_switch_executes_all_cases(switch_workload):
    machine = Machine(switch_workload.program, dict(switch_workload.memory))
    for _ in range(20_000):
        machine.step()
    assert machine.instret == 20_000


def test_jr_targets_resolve_to_case_labels(switch_workload):
    program = switch_workload.program
    machine = Machine(program, dict(switch_workload.memory))
    case_pcs = {
        program.pc_of(index)
        for name, index in program.labels.items()
        if name.startswith("case")
    }
    seen = set()
    for _ in range(10_000):
        instr, taken, _ = machine.step()
        if instr.op.name == "JR":
            seen.add(machine.pc)
    assert seen <= case_pcs
    assert len(seen) == CASES  # every case was dispatched


def test_btb_predicts_repeating_indirect_targets(switch_workload):
    system = System(switch_workload, SystemConfig())
    system.core.run(30_000)
    btb = system.btb
    assert btb.hits > 0
    # random 4-way dispatch: last-target prediction is often wrong, but
    # the machinery must neither crash nor stall forever
    assert system.core.ipc > 0.1


def test_bfetch_runs_on_indirect_heavy_code(switch_workload):
    base = System(switch_workload, SystemConfig())
    bf = System(switch_workload, SystemConfig(prefetcher="bfetch"))
    base.core.run(30_000)
    bf.core.run(30_000)
    # correctness + stability; indirect dispatch limits lookahead, so we
    # only require no pathological slowdown
    assert bf.core.ipc > 0.8 * base.core.ipc
    assert bf.prefetcher.walks > 0


def test_brtc_separates_targets_of_one_indirect_branch(switch_workload):
    """The target term in the BrTC hash disambiguates JR successors."""
    system = System(switch_workload, SystemConfig(prefetcher="bfetch"))
    system.core.run(30_000)
    brtc = system.prefetcher.brtc
    populated = sum(1 for tag in brtc.tags if tag is not None)
    # one JR with 4 targets + loop branches: several distinct entries
    assert populated >= CASES


JR_STEPS = 6_000


def _payload(system, steps):
    return json.dumps(system.run(steps).as_dict(), sort_keys=True)


def _jr_mispredicts(switch_workload, config):
    """Indirect-jump mispredicts of a lockstep run: all mispredicts less
    the conditional ones the branch trace reports."""
    tracer = Tracer({"branch": 1.0})
    system = System(switch_workload, config, tracer=tracer)
    system.run(JR_STEPS)
    cond_wrong = sum(1 for event in tracer.events
                     if event["ev"] == "predict" and not event["correct"])
    return system.core.mispredicts - cond_wrong


@pytest.fixture
def fresh_memos():
    # the trace memos key on (name, steps, program length), not content
    clear_memos()
    yield
    clear_memos()


@pytest.mark.parametrize("prefetcher", ("none", "stride", "bfetch"))
@pytest.mark.usefixtures("fresh_memos")
def test_fused_replay_matches_lockstep_on_jr_redirects(switch_workload,
                                                       prefetcher):
    """The fused engine's indirect-jump redirect (stall and counters)
    must reproduce lockstep byte for byte on a JR-dense kernel."""
    config = SystemConfig(prefetcher=prefetcher)
    assert _jr_mispredicts(switch_workload, config) > 0
    lockstep = _payload(System(switch_workload, config), JR_STEPS)

    trace = TraceStore().get_or_record(switch_workload, JR_STEPS)
    fused = System(switch_workload, config,
                   replay=TraceReplaySource(switch_workload, trace))
    assert fused._fusable(JR_STEPS)
    assert _payload(fused, JR_STEPS) == lockstep
