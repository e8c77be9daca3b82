"""Trace substrate: record once, re-time many, trust nothing.

The headline guarantee (DESIGN.md "Trace substrate"): driving the
timing model off a recorded functional trace produces *byte-identical*
:class:`RunResult` payloads to lockstep functional execution -- for
every catalog prefetcher, on single-core systems and on the shared-LLC
CMP.  A stored trace is never trusted: truncation, corruption, a
version bump or a metadata mismatch all fall back to recording.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.cpu.functional import write_regs_of
from repro.sim.cmp import CMPSystem
from repro.sim.config import PREFETCHER_NAMES, SystemConfig
from repro.sim.runner import ExperimentRunner, RunRequest
from repro.sim.system import RunResult, System
from repro.trace.format import TRACE_MAGIC, TraceError, decode_trace
from repro.trace.fuzz import run_fuzz
from repro.trace.record import record_trace, trace_meta
from repro.trace.replay import TraceReplaySource
from repro.trace.store import (
    TraceStore,
    bump_counter,
    clear_memos,
    replay_counters,
    replay_mode,
    replay_source_for,
    reset_counters,
    trace_digest,
)
from repro.workloads.spec import build_workload

STEPS = 12_000


@pytest.fixture(autouse=True)
def _fresh_trace_state(monkeypatch):
    """Isolate every test from process-local memos and the env knob."""
    clear_memos()
    reset_counters()
    monkeypatch.delenv("REPRO_TRACE_REPLAY", raising=False)
    yield
    clear_memos()
    reset_counters()


def _record(benchmark="mcf", steps=STEPS):
    workload = build_workload(benchmark)
    blob, trace = record_trace(workload, steps)
    return workload, blob, trace


def _result(system, budget, prefetcher):
    system.run(budget)
    return RunResult.from_core(
        system.core, system.workload.name, prefetcher).data


# ----------------------------------------------------------------------
# format: roundtrip + rejection


def test_encode_decode_roundtrip():
    workload, blob, trace = _record()
    decoded = decode_trace(blob, write_regs_of(workload.program))
    assert decoded.meta == trace.meta
    assert decoded.records == trace.records
    assert decoded.final_state == trace.final_state


def test_truncated_trace_rejected():
    workload, blob, _trace = _record(steps=2_000)
    reg_of = write_regs_of(workload.program)
    for cut in (0, 3, len(blob) // 2, len(blob) - 1):
        with pytest.raises(TraceError):
            decode_trace(blob[:cut], reg_of)


def test_corrupt_trace_rejected():
    workload, blob, _trace = _record(steps=2_000)
    reg_of = write_regs_of(workload.program)
    # flip one byte in the body (past the header region)
    corrupt = bytearray(blob)
    corrupt[len(blob) - len(blob) // 4] ^= 0xFF
    with pytest.raises(TraceError):
        decode_trace(bytes(corrupt), reg_of)


def test_version_mismatch_rejected():
    workload, blob, _trace = _record(steps=2_000)
    reg_of = write_regs_of(workload.program)
    assert blob[:4] == TRACE_MAGIC
    bumped = blob[:4] + bytes([blob[4] + 1]) + blob[5:]
    with pytest.raises(TraceError):
        decode_trace(bumped, reg_of)


def test_meta_binding_rejected():
    workload, blob, _trace = _record(steps=2_000)
    other = trace_meta(workload, 2_001, 0)
    with pytest.raises(TraceError):
        decode_trace(blob, write_regs_of(workload.program),
                     expect_meta=other)


# ----------------------------------------------------------------------
# byte-identity: replay vs lockstep


# every data prefetcher on the fused engine, plus the decoupled front
# end (which the fused engine does not transcribe) on the drop-in
# replay-source path
_SINGLE_CORE_CASES = [
    pytest.param("mcf", SystemConfig(prefetcher=prefetcher), id=prefetcher)
    for prefetcher in PREFETCHER_NAMES
] + [
    pytest.param("nginx", SystemConfig(frontend="ftq",
                                       iprefetcher=iprefetcher),
                 id="nginx-ftq-" + iprefetcher)
    for iprefetcher in ("none", "fdip", "bfetch-i")
]


@pytest.mark.parametrize("bench,config", _SINGLE_CORE_CASES)
def test_replay_identical_single_core(bench, config):
    workload, _blob, trace = _record(bench)
    expected = _result(System(workload, config), STEPS, config.prefetcher)
    system = System(workload, config,
                    replay=TraceReplaySource(workload, trace))
    assert system._fusable(STEPS) == (config.frontend == "off")
    assert _result(system, STEPS, config.prefetcher) == expected


@pytest.mark.parametrize("prefetcher", ["none", "stride", "sms", "bfetch"])
def test_replay_identical_cmp(prefetcher):
    mix = ["mcf", "libquantum", "soplex", "astar"]
    steps = 6_000
    workloads = [build_workload(name) for name in mix]
    traces = [record_trace(w, steps)[1] for w in workloads]
    config = SystemConfig(prefetcher=prefetcher)
    expected = [r.data for r in CMPSystem(workloads, config).run(steps)]
    replays = [TraceReplaySource(w, t)
               for w, t in zip(workloads, traces)]
    replayed = [r.data for r in
                CMPSystem(workloads, config, replays=replays).run(steps)]
    assert replayed == expected


def test_replay_identical_perceptron_predictor():
    workload, _blob, trace = _record()
    config = SystemConfig(prefetcher="bfetch",
                          branch_predictor="perceptron")
    expected = _result(System(workload, config), STEPS, "bfetch")
    replayed = _result(
        System(workload, config,
               replay=TraceReplaySource(workload, trace)),
        STEPS, "bfetch")
    assert replayed == expected


def test_replay_live_continuation_past_window():
    """A budget beyond the recorded window continues on a real machine
    built from the trailer -- still byte-identical."""
    workload, _blob, trace = _record(steps=4_000)
    config = SystemConfig(prefetcher="stride")
    expected = _result(System(workload, config), STEPS, "stride")
    replayed = _result(
        System(workload, config,
               replay=TraceReplaySource(workload, trace)),
        STEPS, "stride")
    assert replayed == expected


def test_verify_chunk_accepts_faithful_trace():
    workload, _blob, trace = _record(steps=3_000)
    source = TraceReplaySource(workload, trace)
    for _ in range(3_000):
        source.step()
    source.verify_chunk()  # must not raise


def test_verify_chunk_catches_tampered_record():
    workload, _blob, trace = _record(steps=3_000)
    index, taken, ea, value = trace.records[1_500]
    trace.records[1_500] = (index, taken,
                            (ea + 64) if ea is not None else 64, value)
    source = TraceReplaySource(workload, trace)
    for _ in range(3_000):
        source.step()
    with pytest.raises(TraceError):
        source.verify_chunk()


# ----------------------------------------------------------------------
# store: content addressing, fallback-to-record, never trusted


def test_store_roundtrip_and_content_addressing(tmp_path):
    store = TraceStore(str(tmp_path))
    workload = build_workload("mcf")
    trace = store.record(workload, 2_000)
    assert trace.digest == trace_digest(trace.meta)
    path = store.path_for(trace.digest)
    assert os.path.exists(path)
    clear_memos()
    loaded = store.load(workload, 2_000)
    assert loaded is not None
    assert loaded.records == trace.records
    assert store.stats()["entries"] == 1


def test_store_corrupt_file_falls_back_to_recording(tmp_path):
    store = TraceStore(str(tmp_path))
    workload = build_workload("mcf")
    trace = store.record(workload, 2_000)
    path = store.path_for(trace.digest)
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    blob[len(blob) // 2] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    clear_memos()
    reset_counters()
    assert store.load(workload, 2_000) is None
    assert replay_counters["fallback"] == 1
    assert not os.path.exists(path)  # corrupt entry evicted
    again = store.get_or_record(workload, 2_000)
    assert again.records == trace.records
    assert replay_counters["recorded"] == 1


def test_store_truncated_file_falls_back(tmp_path):
    store = TraceStore(str(tmp_path))
    workload = build_workload("mcf")
    trace = store.record(workload, 2_000)
    path = store.path_for(trace.digest)
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) // 3])
    clear_memos()
    reset_counters()
    assert store.load(workload, 2_000) is None
    assert replay_counters["fallback"] == 1


def test_counters_exact_under_thread_contention():
    """The job server runs executions on a thread pool; a bare ``+=``
    on the shared counter dict is a read-modify-write that the
    interpreter does not promise to run atomically."""
    threads, per_thread = 8, 10_000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=lambda: [bump_counter("replayed")
                                             for _ in range(per_thread)])
            for _ in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert replay_counters["replayed"] == threads * per_thread


# ----------------------------------------------------------------------
# runner integration: REPRO_TRACE_REPLAY


def test_replay_mode_parsing(monkeypatch):
    for raw, expected in [("", "off"), ("off", "off"), ("0", "off"),
                          ("auto", "auto"), ("ON", "on")]:
        monkeypatch.setenv("REPRO_TRACE_REPLAY", raw)
        assert replay_mode() == expected
    monkeypatch.setenv("REPRO_TRACE_REPLAY", "junk")
    with pytest.raises(ValueError):
        replay_mode()


def _sweep_requests(steps=4_000):
    return [RunRequest(bench, prefetcher, steps)
            for bench in ("mcf", "libquantum")
            for prefetcher in ("none", "stride", "bfetch")]


def test_runner_auto_records_then_replays(tmp_path, monkeypatch):
    expected = [r.as_dict() for r in
                ExperimentRunner().run_many(_sweep_requests(), jobs=1)]
    reset_counters()
    monkeypatch.setenv("REPRO_TRACE_REPLAY", "auto")
    cache = str(tmp_path / "cache")
    runner = ExperimentRunner(cache_dir=cache)
    first = [r.as_dict() for r in runner.run_many(_sweep_requests(),
                                                  jobs=1)]
    assert first == expected
    assert replay_counters["recorded"] == 2  # one trace per benchmark
    assert replay_counters["replayed"] == 6
    assert replay_counters["lockstep"] == 0
    # a second sweep over new configs replays off the stored traces
    reset_counters()
    clear_memos()
    import shutil
    shutil.rmtree(os.path.join(cache, "single"))
    fresh = ExperimentRunner(cache_dir=cache)
    second = [r.as_dict() for r in fresh.run_many(_sweep_requests(),
                                                  jobs=1)]
    assert second == expected
    assert replay_counters["recorded"] == 0
    assert replay_counters["replayed"] == 6
    assert replay_counters["lockstep"] == 0


def test_runner_mix_replay_identical(tmp_path, monkeypatch):
    mix = ["mcf", "libquantum"]
    expected = [r.as_dict() for r in
                ExperimentRunner().run_mix(mix, "bfetch", 4_000)]
    reset_counters()
    monkeypatch.setenv("REPRO_TRACE_REPLAY", "auto")
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    got = [r.as_dict() for r in runner.run_mix(mix, "bfetch", 4_000)]
    assert got == expected
    assert replay_counters["replayed"] == 1


def test_runner_off_never_touches_traces(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_REPLAY", "off")
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    runner.run_single("mcf", "none", 2_000)
    assert not os.path.isdir(os.path.join(str(tmp_path), "ftrace"))
    assert replay_counters["lockstep"] == 1


def test_replay_source_for_on_mode_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_REPLAY", "on")
    workload = build_workload("mcf")
    # unwritable cache dir -> record() cannot persist -> "on" propagates
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    with pytest.raises(Exception):
        replay_source_for(workload, 2_000,
                          cache_dir=str(blocked / "sub"))


def test_corrupt_result_cache_with_replay_converges(tmp_path, monkeypatch):
    """REPRO_FAULTS corrupt-cache garbles result entries; with replay on
    the re-computation is trace-driven and still lands the clean
    result."""
    expected = ExperimentRunner().run_single("mcf", "stride",
                                             4_000).as_dict()
    monkeypatch.setenv("REPRO_TRACE_REPLAY", "auto")
    monkeypatch.setenv("REPRO_FAULTS", "corrupt-cache:1.0")
    cache = str(tmp_path / "cache")
    first = ExperimentRunner(cache_dir=cache).run_single(
        "mcf", "stride", 4_000).as_dict()
    assert first == expected
    # the corrupt entry is detected on the next probe and recomputed
    monkeypatch.delenv("REPRO_FAULTS")
    clear_memos()
    second = ExperimentRunner(cache_dir=cache).run_single(
        "mcf", "stride", 4_000).as_dict()
    assert second == expected


# ----------------------------------------------------------------------
# determinism across processes


def test_replay_deterministic_across_processes(tmp_path):
    """Recording in one process and replaying in another yields the
    same trace digest and the same result payload."""
    script = r"""
import json, os, sys
sys.path.insert(0, %(src)r)
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
os.environ["REPRO_TRACE_REPLAY"] = "auto"
runner = ExperimentRunner(cache_dir=%(cache)r)
result = runner.run_single("mcf", "bfetch", 4000)
from repro.trace.store import replay_counters
print(json.dumps({"result": result.as_dict(),
                  "counters": replay_counters}))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    cache = str(tmp_path / "cache")
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c",
             script % {"src": src, "cache": cache}],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0]["result"] == outputs[1]["result"]
    assert outputs[0]["counters"]["recorded"] == 1
    # second process: trace loaded from disk, nothing recorded
    assert outputs[1]["counters"]["recorded"] == 0
    assert outputs[1]["counters"]["fallback"] == 0


# ----------------------------------------------------------------------
# sanitizer + checkpoint interplay


def test_sanitizer_full_cross_validates_replay():
    from repro.sanitize import Sanitizer

    workload, _blob, trace = _record(steps=6_000)
    system = System(workload, SystemConfig(prefetcher="stride"),
                    replay=TraceReplaySource(workload, trace))
    sanitizer = Sanitizer("full", interval=512)
    system.run(6_000, sanitizer=sanitizer)
    assert sanitizer.checks_run > 0
    assert sanitizer.violations == 0


def test_sanitizer_full_catches_divergent_trace():
    from repro.sanitize import Sanitizer
    from repro.sanitize.errors import SanitizerError

    workload, _blob, trace = _record(steps=6_000)
    index, taken, ea, value = trace.records[100]
    trace.records[100] = (index, taken,
                          (ea + 64) if ea is not None else 64, value)
    system = System(workload, SystemConfig(prefetcher="stride"),
                    replay=TraceReplaySource(workload, trace))
    sanitizer = Sanitizer("full", interval=512)
    with pytest.raises(SanitizerError):
        system.run(6_000, sanitizer=sanitizer)


def test_checkpoint_engine_mismatch_rejected(tmp_path):
    """A lockstep checkpoint must not restore into a replay system (and
    vice versa): the engines store different machine state."""
    from repro.checkpoint import CheckpointError

    workload, _blob, trace = _record(steps=4_000)
    config = SystemConfig(prefetcher="none")
    lockstep = System(workload, config)
    lockstep.run(2_000)
    state = lockstep.snapshot()
    replaying = System(workload, config,
                       replay=TraceReplaySource(workload, trace))
    with pytest.raises(CheckpointError):
        replaying.restore(state)


# ----------------------------------------------------------------------
# cache maintenance (runner.cache_stats / cache_gc)


def test_cache_stats_and_gc(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_REPLAY", "auto")
    cache = str(tmp_path)
    runner = ExperimentRunner(cache_dir=cache)
    runner.run_single("mcf", "stride", 2_000)
    stats = runner.cache_stats()
    assert stats["single"]["entries"] == 1
    assert stats["ftrace"]["entries"] == 1
    assert stats["ftrace"]["bytes"] > 0
    # nothing is old enough yet
    assert runner.cache_gc(3600)["removed"] == 0
    # age everything artificially and collect
    for dirpath, _dirs, files in os.walk(cache):
        for name in files:
            path = os.path.join(dirpath, name)
            os.utime(path, (0, 0))
    summary = runner.cache_gc(60)
    assert summary["removed"] == 2
    assert summary["bytes"] > 0
    stats = runner.cache_stats()
    assert all(block["entries"] == 0 for block in stats.values())


# ----------------------------------------------------------------------
# differential fuzzer (fused and drop-in replay vs lockstep)


def test_fuzz_smoke(tmp_path):
    """A short seeded fuzz run -- one plain round, one front-end round,
    one CMP mix round -- finds no divergence."""
    assert run_fuzz(seed=5, rounds=3, mix_every=3,
                    cache_dir=str(tmp_path)) == []
