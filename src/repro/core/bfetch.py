"""The B-Fetch prefetch engine (Section IV).

Event wiring (raised by the timing core):

* ``on_branch_decode`` -- a branch entered the Decoded Branch Register;
  run one lookahead walk down the predicted path.
* ``on_commit`` -- architectural training: BrTC linking, MHT offset /
  loop-delta / pattern learning, ARF write scheduling, and the
  register-file snapshot taken at each branch.
* ``feedback`` -- per-load filter training from cache-line outcomes.

The engine needs read access to the main pipeline's branch predictor and
confidence estimator (Section IV-C argues the predictor has the spare
ports); call :meth:`BFetchPrefetcher.attach` during system assembly.
"""

from heapq import heappush as _heappush

from repro.branch.path_confidence import PathConfidence  # noqa: F401 (API)
from repro.core.arf import AlternateRegisterFile
from repro.isa.opcodes import IS_BRANCH as _IS_BRANCH, Op

_OP_LOAD = int(Op.LOAD)
from repro.core.brtc import BranchTraceCache
from repro.core.config import BFetchConfig
from repro.core.hashing import bb_hash, load_pc_hash
from repro.core.mht import MemoryHistoryTable
from repro.core.perload_filter import PerLoadFilter
from repro.prefetchers.base import _RECENT_BLOCKS, Prefetcher

_MASK64 = (1 << 64) - 1


class BFetchPrefetcher(Prefetcher):
    """Branch-prediction-directed data prefetcher."""

    name = "bfetch"

    def __init__(self, config=None, block_bytes=None):
        self.config = config or BFetchConfig()
        cfg = self.config
        # geometry: the engine must agree with the L1 it feeds -- the
        # factory passes the hierarchy's line size, which overrides the
        # BFetchConfig default so non-64B systems keep dedup and delta
        # learning block-aligned
        super().__init__(cfg.queue_capacity,
                         block_bytes if block_bytes else cfg.block_bytes)
        self.brtc = BranchTraceCache(cfg.brtc_entries)
        self.mht = MemoryHistoryTable(cfg.mht_entries, cfg.mht_reg_slots)
        self.arf = AlternateRegisterFile(delay=cfg.arf_delay)
        self.filter = PerLoadFilter(
            cfg.filter_tables,
            cfg.filter_entries,
            cfg.filter_counter_bits,
            cfg.filter_threshold,
            cfg.filter_initial,
        )
        self.predictor = None
        self.confidence = None
        # trainer state
        self._prev_hash = None  # keys the BB we are currently committing
        self._prev_tag = None
        self._branch_snapshot = None  # register values at the leading branch
        self._bb_primary_ea = {}  # regidx -> primary load EA this BB execution
        self._commit_seq = 0
        # lookahead statistics
        self.walks = 0
        self.total_depth = 0
        self.candidates = 0
        self.filtered = 0
        # per-walk depth distribution (bucket = basic blocks walked;
        # index 0 collects walks rejected before the first step)
        self.depth_hist = [0] * (cfg.max_lookahead + 1)
        # tracing (None = "bfetch" category disabled)
        self._trace_bfetch = None

    def bind_tracer(self, tracer):
        super().bind_tracer(tracer)
        self._trace_bfetch = (
            tracer.channel("bfetch") if tracer is not None else None
        )

    # ------------------------------------------------------------------

    def attach(self, predictor, confidence):
        """Connect the main pipeline's predictor and confidence estimator."""
        self.predictor = predictor
        self.confidence = confidence

    @property
    def mean_lookahead_depth(self):
        """Average basic blocks walked per lookahead (paper reports ~8)."""
        return self.total_depth / self.walks if self.walks else 0.0

    # ------------------------------------------------------------------
    # training (commit-time)

    def on_commit(self, instr, ea, taken, next_pc, regs, now):
        seq = self._commit_seq + 1
        self._commit_seq = seq
        rd = instr.rd
        if rd is not None and rd != 31:
            # value becomes ARF-visible when the writer completes execution;
            # `now` is the core-supplied completion estimate
            # (AlternateRegisterFile.write, inlined)
            arf = self.arf
            _heappush(arf._pending, (now + arf.delay, seq, rd, regs[rd]))
        op = instr.op
        if _IS_BRANCH[op]:
            self._train_branch(instr, taken, next_pc, now)
        elif op == _OP_LOAD:
            self._train_load(instr, ea)

    def _train_branch(self, instr, taken, next_pc, now):
        pc = instr.pc
        # taken target: direct branches expose it at decode; indirect ones
        # only when actually taken
        if instr.target is not None:
            taken_target = instr.pc + 4 * (instr.target - instr.index)
        elif taken:
            taken_target = next_pc
        else:
            taken_target = None
        if self._prev_hash is not None:
            self.brtc.update(self._prev_hash, self._prev_tag, pc, taken_target)
        self._prev_hash = bb_hash(pc, taken, next_pc)
        self._prev_tag = pc & 0xFFFFFFFF
        # RegVal is read into the MHT *from the ARF* (Section IV-B2), not
        # from precise architectural state: training and lookahead must
        # observe the same sampling lag, so the learned Offset absorbs it
        # and the in-flight distance cancels at prefetch time.
        arf = self.arf
        pending = arf._pending
        if pending and pending[0][0] <= now:
            arf.sync(now)
        self._branch_snapshot = list(arf.values)
        self._bb_primary_ea.clear()

    def _train_load(self, instr, ea):
        if self._prev_hash is None:
            return
        cfg = self.config
        regidx = instr.ra
        primary_ea = self._bb_primary_ea.get(regidx)
        entry = self.mht.get_or_allocate(self._prev_hash, self._prev_tag)
        if primary_ea is not None:
            if not cfg.pattern_prefetch:
                return
            # secondary load off the same register: learn the block pattern
            slot = entry.slot_for(regidx, allocate=False)
            if slot is None or not slot.valid:
                return
            shift = self.block_shift  # configured L1 line geometry
            delta_blocks = (ea >> shift) - (primary_ea >> shift)
            if 1 <= delta_blocks <= cfg.pattern_bits:
                slot.pospatt |= 1 << (delta_blocks - 1)
            elif -cfg.pattern_bits <= delta_blocks <= -1:
                slot.negpatt |= 1 << (-delta_blocks - 1)
            return
        self._bb_primary_ea[regidx] = ea
        slot = entry.slot_for(regidx, allocate=True)
        offset = ea - self._branch_snapshot[regidx]
        if abs(offset) > cfg.offset_limit:
            # not representable in the 16-bit field: the slot cannot cover
            # this load (the per-load filter will suppress stale issues)
            slot.valid = False
            slot.stable = 0
            slot.last_ea = ea
            return
        if slot.valid and offset == slot.offset:
            if slot.stable < 3:
                slot.stable += 1
        elif slot.stable > 0:
            slot.stable -= 1
        if slot.last_ea is not None:
            loopdelta = ea - slot.last_ea
            if abs(loopdelta) <= cfg.loopdelta_limit:
                slot.loopdelta = loopdelta
            else:
                slot.loopdelta = 0
        slot.offset = offset
        slot.regval = self._branch_snapshot[regidx] & 0xFFFFFFFF
        slot.last_ea = ea
        slot.load_hash = load_pc_hash(instr.pc)
        slot.valid = True

    # ------------------------------------------------------------------
    # lookahead (decode-time)

    def on_branch_decode(self, pc, pred_taken, target, now):
        """Run one lookahead walk starting at the decoded branch.

        One fused pass per walk (Stages 1-3): each step probes the MHT
        and turns its stable slots into filtered, deduplicated prefetch
        pushes, then follows the BrTC step record down the predicted
        direction.  Tables are hoisted once per walk and the counters
        are kept in locals, written back once at the end.
        """
        predictor = self.predictor
        if predictor is None:
            raise RuntimeError("BFetchPrefetcher.attach() was never called")
        cfg = self.config
        arf = self.arf
        pending = arf._pending
        if pending and pending[0][0] <= now:
            arf.sync(now)
        self.walks += 1

        # The walk maintains the multiplicative PaCo path confidence
        # inline (see branch.path_confidence for the object form): one
        # float product instead of an object allocation plus two method
        # calls per walked branch.
        threshold = cfg.path_confidence_threshold
        confidence = self.confidence
        spec_history = predictor.history
        trace = self._trace_bfetch
        path_value = confidence.probability(pc, spec_history)
        if path_value < threshold:
            self.depth_hist[0] += 1
            if trace is not None:
                trace.emit("walk", now, pc=pc, depth=0,
                           end="low_confidence")
            return
        if pred_taken:
            if target is None:
                self.depth_hist[0] += 1
                if trace is not None:
                    trace.emit("walk", now, pc=pc, depth=0,
                               end="indirect_unknown")
                return  # indirect branch without a known target
            next_pc = target
        else:
            next_pc = pc + 4
        predict = predictor.predict
        # per-branch confidence: the composite estimator's three tables,
        # read inline (CompositeConfidenceEstimator.probability)
        jrs = confidence.jrs
        jrs_prob = jrs._prob
        jrs_table = jrs.table
        jrs_mask = jrs._mask
        jrs_hist_mask = jrs._hist_mask
        updown = confidence.updown
        updown_prob = updown._prob
        updown_table = updown.table
        updown_mask = updown._mask
        selfc = confidence.selfc
        selfc_prob = selfc._prob
        selfc_streaks = selfc.streaks
        selfc_mask = selfc._mask
        instruction_prefetch = cfg.instruction_prefetch
        max_lookahead = cfg.max_lookahead
        loop_prefetch = cfg.loop_prefetch
        pattern_prefetch = cfg.pattern_prefetch
        # BrTC / MHT
        brtc = self.brtc
        brtc_mask = brtc._mask
        brtc_tags = brtc.tags
        brtc_steps = brtc.steps
        mht = self.mht
        mht_mask = mht._mask
        mht_table = mht.table
        # per-load filter (Stage 3)
        pfilter = self.filter
        use_filter = cfg.use_filter
        filter_threshold = pfilter.threshold
        filter_mask = pfilter._mask
        probe_interval = pfilter.probe_interval
        since_probe = pfilter._since_probe
        filter_confidence = pfilter.confidence
        filter_tables = pfilter.tables
        three_tables = len(filter_tables) == 3
        if three_tables:
            table0, table1, table2 = filter_tables
        # address generation and the dedup push (Prefetcher.push inlined)
        arf_values = arf.values
        block_bytes = self.block_bytes
        block_mask = ~(block_bytes - 1)
        block_shift = self.block_shift
        recent = self._recent
        recent_limit = _RECENT_BLOCKS
        move_to_end = recent.move_to_end
        evict_oldest = recent.popitem
        queue = self.queue
        pending_requests = queue._queue
        queue_capacity = queue.capacity
        # counters, written back once per walk
        # (one BrTC and one MHT lookup per step, so lookups == depth)
        brtc_hits = mht_hits = candidates = passed = blocked = probes = 0
        duplicate = dropped = 0

        state_hash = bb_hash(pc, pred_taken, next_pc)
        state_tag = pc & 0xFFFFFFFF
        spec_history = (spec_history << 1) | (1 if pred_taken else 0)
        path = []  # block hashes walked so far (loop revisit counts)
        depth = 0
        entry_pc = next_pc
        while depth < max_lookahead:
            depth += 1
            path.append(state_hash)
            # Stage 2+3: register lookup and prefetch-address calculation
            entry = mht_table[state_hash & mht_mask]
            if entry is not None and entry.tag == state_tag:
                mht_hits += 1
                revisit = path.count(state_hash) - 1 if loop_prefetch else 0
                for slot in entry.slots:
                    if not slot.valid or not slot.stable:
                        continue
                    candidates += 1
                    load_hash = slot.load_hash
                    if use_filter:
                        if three_tables:
                            load_confidence = (
                                table0[load_hash & filter_mask]
                                + table1[((load_hash * 0x9E3779B1) >> 6)
                                         & filter_mask]
                                + table2[((load_hash * 0x85EBCA6B) >> 3)
                                         & filter_mask])
                        else:
                            load_confidence = filter_confidence(load_hash)
                        if load_confidence >= filter_threshold:
                            passed += 1
                        else:
                            since_probe += 1
                            if since_probe >= probe_interval:
                                since_probe = 0
                                probes += 1
                            else:
                                blocked += 1
                                continue
                    ea = arf_values[slot.regidx] + slot.offset
                    if revisit:
                        ea += revisit * slot.loopdelta
                    ea &= _MASK64
                    if pattern_prefetch and (slot.pospatt or slot.negpatt):
                        addresses = [ea]
                        block = ea & block_mask
                        pattern = slot.pospatt
                        step = 1
                        while pattern:
                            if pattern & 1:
                                addresses.append(block + step * block_bytes)
                            pattern >>= 1
                            step += 1
                        pattern = slot.negpatt
                        step = 1
                        while pattern:
                            if pattern & 1:
                                addresses.append(
                                    (block - step * block_bytes) & _MASK64)
                            pattern >>= 1
                            step += 1
                    else:
                        addresses = (ea,)
                    for addr in addresses:
                        block = addr >> block_shift
                        if block in recent:
                            move_to_end(block)
                            duplicate += 1
                            continue
                        recent[block] = True
                        if len(recent) > recent_limit:
                            evict_oldest(last=False)
                        if len(pending_requests) >= queue_capacity:
                            dropped += 1
                        else:
                            pending_requests.append((addr, load_hash))
            # Stage 1: follow the BrTC down the predicted direction
            slot_index = state_hash & brtc_mask
            if brtc_tags[slot_index] != state_tag:
                break
            brtc_hits += 1
            end_pc, taken_target, taken_hash, not_taken_hash = (
                brtc_steps[slot_index])
            if instruction_prefetch and end_pc >= entry_pc:
                self._prefetch_instr_range(entry_pc, end_pc)
            direction = predict(end_pc, spec_history)
            pc_index = end_pc >> 2
            path_value *= (
                jrs_prob[jrs_table[(pc_index ^ (spec_history & jrs_hist_mask))
                                   & jrs_mask]]
                + updown_prob[updown_table[pc_index & updown_mask]]
                + selfc_prob[selfc_streaks[pc_index & selfc_mask]]
            ) / 3.0
            if path_value < threshold:
                break
            if direction:
                if taken_target is None:
                    break
                next_pc = taken_target
                state_hash = taken_hash
                spec_history = (spec_history << 1) | 1
            else:
                next_pc = end_pc + 4
                state_hash = not_taken_hash
                spec_history <<= 1
            state_tag = end_pc & 0xFFFFFFFF
            entry_pc = next_pc
        self.total_depth += depth
        self.depth_hist[depth] += 1
        brtc.lookups += depth
        brtc.hits += brtc_hits
        mht.lookups += depth
        mht.hits += mht_hits
        self.candidates += candidates
        self.filtered += blocked
        pfilter.passed += passed
        pfilter.blocked += blocked
        pfilter.probes += probes
        pfilter._since_probe = since_probe
        stats = self.stats
        stats.duplicate += duplicate
        stats.dropped += dropped
        queue.drops += dropped
        if trace is not None:
            trace.emit("walk", now, pc=pc, depth=depth,
                       end_pc=next_pc, path_conf=round(path_value, 6))

    def _prefetch_instr_range(self, start_pc, end_pc):
        """B-Fetch-I: queue the instruction blocks of one predicted basic
        block (entry PC through its terminating branch)."""
        block_bytes = self.block_bytes
        first = start_pc & ~(block_bytes - 1)
        last = end_pc & ~(block_bytes - 1)
        limit = self.config.max_instr_blocks
        block = first
        while block <= last and limit > 0:
            self.push_instr(block)
            block += block_bytes
            limit -= 1

    # ------------------------------------------------------------------

    def feedback(self, meta, outcome):
        """Cache-line outcome: update stats and train the per-load filter."""
        super().feedback(meta, outcome)
        if meta is not None:
            self.filter.update(meta, outcome != "useless")

    # ------------------------------------------------------------------
    # checkpoint/restore

    def snapshot(self):
        """Full engine state: base queue/stats plus BrTC/MHT/ARF/filter
        tables and the commit-path trainer registers."""
        state = super().snapshot()
        state.update({
            "brtc": self.brtc.snapshot(),
            "mht": self.mht.snapshot(),
            "arf": self.arf.snapshot(),
            "filter": self.filter.snapshot(),
            "prev_hash": self._prev_hash,
            "prev_tag": self._prev_tag,
            "branch_snapshot": (
                list(self._branch_snapshot)
                if self._branch_snapshot is not None else None
            ),
            "bb_primary_ea": [[regidx, ea] for regidx, ea
                              in self._bb_primary_ea.items()],
            "commit_seq": self._commit_seq,
            "walks": self.walks,
            "total_depth": self.total_depth,
            "candidates": self.candidates,
            "filtered": self.filtered,
            "depth_hist": list(self.depth_hist),
        })
        return state

    def restore(self, state):
        """Restore engine state from :meth:`snapshot` output."""
        super().restore(state)
        self.brtc.restore(state["brtc"])
        self.mht.restore(state["mht"])
        self.arf.restore(state["arf"])
        self.filter.restore(state["filter"])
        self._prev_hash = state["prev_hash"]
        self._prev_tag = state["prev_tag"]
        snapshot = state["branch_snapshot"]
        self._branch_snapshot = (list(snapshot) if snapshot is not None
                                 else None)
        self._bb_primary_ea = {int(regidx): ea for regidx, ea
                               in state["bb_primary_ea"]}
        self._commit_seq = state["commit_seq"]
        self.walks = state["walks"]
        self.total_depth = state["total_depth"]
        self.candidates = state["candidates"]
        self.filtered = state["filtered"]
        self.depth_hist = list(state["depth_hist"])

    def storage_bits(self):
        """Sum of Table I components (cache bits are counted by the
        overhead analysis since they live in the L1D, not the engine)."""
        return (
            self.brtc.storage_bits()
            + self.mht.storage_bits()
            + self.arf.storage_bits()
            + self.filter.storage_bits()
            + self.config.queue_capacity * 42  # prefetch queue (42-bit reqs)
        )
