"""B-Fetch structures: ARF, BrTC, MHT, per-load filter, hashing."""

import json

import pytest

from repro.core import (
    AlternateRegisterFile,
    BranchTraceCache,
    MemoryHistoryTable,
    PerLoadFilter,
    bb_hash,
    load_pc_hash,
)


class TestHashing:
    def test_direction_changes_hash(self):
        assert bb_hash(0x1000, True, 0x2000) != bb_hash(0x1000, False, 0x2000)

    def test_target_changes_hash(self):
        assert bb_hash(0x1000, True, 0x2000) != bb_hash(0x1000, True, 0x2040)

    def test_hash_is_32_bit(self):
        assert 0 <= bb_hash(0xFFFFFFFFFFFF, True, 0xFFFFFFFF) < (1 << 32)

    def test_load_pc_hash_is_10_bit(self):
        for pc in (0x1000, 0xDEADBEEF, 0x7FFFFFFC):
            assert 0 <= load_pc_hash(pc) < 1024

    def test_deterministic(self):
        assert bb_hash(0x1234, True, 0x5678) == bb_hash(0x1234, True, 0x5678)


class TestARF:
    def test_write_visible_after_ready_time(self):
        arf = AlternateRegisterFile(delay=0)
        arf.write(3, 42, seq=1, ready_time=10)
        arf.sync(5)
        assert arf.read(3) == 0
        arf.sync(10)
        assert arf.read(3) == 42

    def test_delay_added(self):
        arf = AlternateRegisterFile(delay=5)
        arf.write(3, 42, seq=1, ready_time=10)
        arf.sync(12)
        assert arf.read(3) == 0
        arf.sync(15)
        assert arf.read(3) == 42

    def test_youngest_writer_wins_out_of_order_completion(self):
        arf = AlternateRegisterFile()
        arf.write(3, 1, seq=1, ready_time=100)  # old slow write
        arf.write(3, 2, seq=2, ready_time=10)   # young fast write
        arf.sync(10)
        assert arf.read(3) == 2
        arf.sync(100)
        # the stale older write must not overwrite the younger one
        assert arf.read(3) == 2

    def test_out_of_order_drain_no_head_of_line_blocking(self):
        arf = AlternateRegisterFile()
        arf.write(1, 11, seq=1, ready_time=1000)
        arf.write(2, 22, seq=2, ready_time=5)
        arf.sync(5)
        assert arf.read(2) == 22

    def test_storage_matches_table1(self):
        assert AlternateRegisterFile().storage_bits() == 32 * 40  # 0.156KB


class TestBrTC:
    def test_update_lookup(self):
        brtc = BranchTraceCache(entries=64)
        h = bb_hash(0x100, True, 0x200)
        brtc.update(h, 0x100, end_branch_pc=0x240, taken_target=0x300)
        assert brtc.lookup(h, 0x100) == (0x240, 0x300)

    def test_tag_mismatch_misses(self):
        brtc = BranchTraceCache(entries=64)
        h = bb_hash(0x100, True, 0x200)
        brtc.update(h, 0x100, 0x240, 0x300)
        assert brtc.lookup(h, 0x104) is None

    def test_none_target_does_not_clobber_known_target(self):
        brtc = BranchTraceCache(entries=64)
        h = bb_hash(0x100, True, 0x200)
        brtc.update(h, 0x100, 0x240, 0x300)
        brtc.update(h, 0x100, 0x240, None)  # not-taken indirect observed
        assert brtc.lookup(h, 0x100) == (0x240, 0x300)

    def test_hit_rate(self):
        brtc = BranchTraceCache(entries=64)
        h = bb_hash(0x100, True, 0x200)
        brtc.lookup(h, 0x100)
        brtc.update(h, 0x100, 0x240, 0x300)
        brtc.lookup(h, 0x100)
        assert brtc.hit_rate == pytest.approx(0.5)

    def test_step_record_hashes_both_directions(self):
        brtc = BranchTraceCache(entries=64)
        h = bb_hash(0x100, True, 0x200)
        brtc.update(h, 0x100, 0x240, 0x300)
        assert brtc.steps[h & 63] == (
            0x240, 0x300,
            bb_hash(0x240, True, 0x300),
            bb_hash(0x240, False, 0x244),
        )

    def test_step_record_without_taken_target(self):
        brtc = BranchTraceCache(entries=64)
        h = bb_hash(0x100, False, 0x104)
        brtc.update(h, 0x100, 0x240, None)  # indirect, never seen taken
        assert brtc.steps[h & 63] == (
            0x240, None, None, bb_hash(0x240, False, 0x244))

    def test_known_target_kept_in_step_record(self):
        brtc = BranchTraceCache(entries=64)
        h = bb_hash(0x100, True, 0x200)
        brtc.update(h, 0x100, 0x240, 0x300)
        brtc.update(h, 0x100, 0x240, None)
        assert brtc.steps[h & 63][1:3] == (0x300, bb_hash(0x240, True, 0x300))
        # a different end branch replaces the record, target and all
        brtc.update(h, 0x100, 0x280, None)
        assert brtc.steps[h & 63] == (
            0x280, None, None, bb_hash(0x280, False, 0x284))

    def test_snapshot_restore_rebuilds_step_records(self):
        brtc = BranchTraceCache(entries=16)
        for pc, target in ((0x100, 0x300), (0x140, None), (0x180, 0x1C0)):
            brtc.update(bb_hash(pc, True, pc + 0x40), pc, pc + 0x20, target)
        brtc.lookup(bb_hash(0x100, True, 0x140), 0x100)
        state = json.loads(json.dumps(brtc.snapshot()))
        restored = BranchTraceCache(entries=16)
        restored.restore(state)
        assert restored.steps == brtc.steps
        assert restored.tags == brtc.tags
        assert (restored.lookups, restored.hits) == (1, 1)

    def test_snapshot_format_unchanged(self):
        """The checkpoint JSON keeps its per-field lists, byte for byte:
        empty slots read as end PC 0 and no target."""
        brtc = BranchTraceCache(entries=4)
        brtc.update(1, 0x100, 0x240, 0x300)
        brtc.update(2, 0x140, 0x280, None)
        expected = {
            "tags": [None, 0x100, 0x140, None],
            "end_branch_pc": [0, 0x240, 0x280, 0],
            "end_taken_target": [None, 0x300, None, None],
            "lookups": 0,
            "hits": 0,
        }
        assert json.dumps(brtc.snapshot()) == json.dumps(expected)


class TestMHT:
    def test_allocate_and_lookup(self):
        mht = MemoryHistoryTable(entries=64, reg_slots=3)
        h = bb_hash(0x100, True, 0x200)
        entry = mht.get_or_allocate(h, 0x100)
        slot = entry.slot_for(5, allocate=True)
        slot.offset = 64
        slot.valid = True
        found = mht.lookup(h, 0x100)
        assert found is entry
        assert found.slot_for(5, allocate=False).offset == 64

    def test_tag_conflict_replaces(self):
        mht = MemoryHistoryTable(entries=1, reg_slots=3)
        a = mht.get_or_allocate(5, 0x100)
        b = mht.get_or_allocate(5, 0x200)
        assert b is not a
        assert mht.lookup(5, 0x100) is None

    def test_slot_capacity_round_robin(self):
        mht = MemoryHistoryTable(entries=4, reg_slots=2)
        entry = mht.get_or_allocate(0, 0x100)
        entry.slot_for(1, allocate=True)
        entry.slot_for(2, allocate=True)
        entry.slot_for(3, allocate=True)  # displaces slot for reg 1
        assert entry.slot_for(1, allocate=False) is None
        assert entry.slot_for(2, allocate=False) is not None
        assert len(entry.slots) == 2

    def test_storage_matches_table1(self):
        # 128 entries x 287 bits = 4.48KB (Table I: 4.5KB)
        bits = MemoryHistoryTable(entries=128, reg_slots=3).storage_bits()
        assert bits == 128 * 287


class TestPerLoadFilter:
    def test_new_loads_allowed(self):
        f = PerLoadFilter()
        assert f.allow(17)

    def test_useless_feedback_blocks(self):
        f = PerLoadFilter(probe_interval=10_000)
        for _ in range(10):
            f.update(17, useful=False)
        assert not f.allow(17)

    def test_useful_feedback_restores(self):
        f = PerLoadFilter(probe_interval=10_000)
        for _ in range(10):
            f.update(17, useful=False)
        for _ in range(10):
            f.update(17, useful=True)
        assert f.allow(17)

    def test_probe_lets_blocked_loads_recover(self):
        f = PerLoadFilter(probe_interval=4)
        for _ in range(10):
            f.update(17, useful=False)
        decisions = [f.allow(17) for _ in range(12)]
        assert any(decisions)  # probes got through
        assert decisions.count(True) == f.probes

    def test_counters_saturate(self):
        f = PerLoadFilter()
        for _ in range(100):
            f.update(17, useful=True)
        assert f.confidence(17) == 3 * f.max_count

    def test_storage_matches_table1(self):
        # 3 tables x 2048 x 3 bits = 2.25KB
        assert PerLoadFilter().storage_bits() == 3 * 2048 * 3
