"""The decoupled front end orchestrator.

One :class:`DecoupledFrontEnd` per core, created at system assembly when
``CoreConfig.frontend="ftq"``.  The timing core calls exactly three
methods:

* :meth:`tick` once per stepped cycle -- the BPU walker advances up to
  ``fill_width`` fetch blocks down the predicted path (BTB-visible
  branches only, which is what makes shadow-branch fills matter),
  enqueues them into the FTQ, lets the I-side prefetcher scan the queue
  and drains its request queue into the hierarchy.  This runs during
  I-miss and redirect stalls too -- that is the decoupling.
* :meth:`demand_fetch` when fetch crosses into a new block -- consumes
  the FTQ head (mismatch = flush + resteer), goes through the L1-I +
  I-MSHR demand path, and predecodes missed lines.
* :meth:`redirect` at every mispredict resolution -- flushes the
  run-ahead and restarts the walker at the resolved target.
"""


class DecoupledFrontEnd:
    """FTQ + predecode + I-side prefetch, wired between BPU and L1-I.

    :param config: :class:`~repro.frontend.FrontendConfig`.
    :param hierarchy: the core's :class:`~repro.memory.MemoryHierarchy`.
    :param predictor: shared direction predictor (read-only use).
    :param btb: shared :class:`~repro.branch.BranchTargetBuffer`.
    :param program: static :class:`~repro.isa.Program` image.
    :param iprefetcher: an :class:`~repro.frontend.IPrefetcher`.
    :param core_config: the owning :class:`~repro.cpu.ooo.CoreConfig`;
        its fetch-block geometry must agree with the hierarchy's.
    """

    def __init__(self, config, hierarchy, predictor, btb, program,
                 iprefetcher, core_config):
        from repro.frontend.ftq import FetchTargetQueue
        from repro.frontend.predecode import Predecoder
        block_bytes = hierarchy.config.block_bytes
        if core_config.block_bytes != block_bytes:
            raise ValueError(
                "front-end fetch-block geometry disagrees: core %dB vs "
                "hierarchy %dB lines (both must derive from "
                "HierarchyConfig.block_bytes)"
                % (core_config.block_bytes, block_bytes)
            )
        self.config = config
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.btb = btb
        self.block_bytes = block_bytes
        self.block_shift = core_config.block_shift
        self._block_mask = ~(block_bytes - 1)
        self.ftq = FetchTargetQueue(config.ftq_entries)
        self.predecoder = Predecoder(program, btb, block_bytes)
        self.iprefetcher = iprefetcher
        iprefetcher.predecode = self.predecoder.on_fill
        # BPU run-ahead cursor: the next PC the walker predicts from;
        # None = stalled (ran past the program) until the next resteer
        self._bpu_pc = program.pc_of(0)
        self._last_pc = program.pc_of(len(program) - 1)
        # counters
        self.ftq_enqueued = 0
        self.ftq_hits = 0        # demand fetch matched the FTQ head
        self.ftq_mismatches = 0  # head existed but named another block
        self.ftq_empty = 0       # demand fetch found the queue empty
        self.ftq_flushes = 0     # mismatch-driven full flushes
        self.redirects = 0       # mispredict-resolution resteers
        self.bpu_stalls = 0      # ticks spent with a stalled walker
        self.occupancy_sum = 0
        self.occupancy_samples = 0
        self.demand_fetches = 0
        self.demand_misses = 0
        # tracing (None = "frontend" category disabled)
        self._trace = None

    def bind_tracer(self, tracer):
        """Cache the tracer's ``frontend`` channel (None disables)."""
        self._trace = (
            tracer.channel("frontend") if tracer is not None else None
        )
        self.iprefetcher.bind_tracer(tracer)

    # ------------------------------------------------------------------
    # per-cycle advance

    def tick(self, now):
        """Advance the BPU run-ahead and the I-side prefetcher."""
        ftq = self.ftq
        self.occupancy_sum += len(ftq)
        self.occupancy_samples += 1
        pc = self._bpu_pc
        if pc is None:
            self.bpu_stalls += 1
        else:
            fill = self.config.fill_width
            trace = self._trace
            while fill > 0 and pc is not None and not ftq.full():
                block_pc = pc & self._block_mask
                ftq.push(block_pc)
                self.ftq_enqueued += 1
                if trace is not None:
                    trace.emit("ftq", now, action="enqueue", block=block_pc,
                               occupancy=len(ftq))
                pc = self._walk_next(pc)
                fill -= 1
            self._bpu_pc = pc
        iprefetcher = self.iprefetcher
        iprefetcher.on_ftq(ftq, now)
        if len(iprefetcher.queue):
            iprefetcher.drain(self.hierarchy, now, self.config.drain_rate)

    def _walk_next(self, pc):
        """One walker step: from *pc*, return the entry PC of the next
        predicted fetch block, or None when the walker must stall.

        Only BTB-visible branches steer the walk -- a branch that never
        executed and was never shadow-filled is invisible, the walker
        falls through it, and the FTQ flushes when it turns out taken.
        """
        predecoder = self.predecoder
        branch_kind = predecoder.branch_kind
        peek = self.btb.peek
        predict = self.predictor.predict
        block_end = (pc | (self.block_bytes - 1)) + 1
        last_pc = self._last_pc
        p = pc
        while p < block_end:
            if p > last_pc:
                return None  # ran past the program image
            kind = branch_kind(p)
            if kind is not None:
                target = peek(p)
                if target is not None:
                    predecoder.note_hit(p)
                    if kind == "u" or predict(p):
                        return target
                # BTB-invisible branch, or predicted not-taken: fall
                # through and keep scanning the block
            p += 4
        return block_end if block_end <= last_pc else None

    # ------------------------------------------------------------------
    # demand fetch path

    def demand_fetch(self, pc, now):
        """Fetch crossed into the block holding *pc*; returns latency."""
        self.demand_fetches += 1
        block_pc = pc & self._block_mask
        ftq = self.ftq
        head = ftq.pop()
        if head == block_pc:
            self.ftq_hits += 1
        elif head is None:
            # walker is behind (or stalled): consume virtually when its
            # cursor already points into this block, else resteer
            self.ftq_empty += 1
            cursor = self._bpu_pc
            if cursor is not None and (cursor & self._block_mask) == block_pc:
                self._bpu_pc = self._walk_next(cursor)
            else:
                self._bpu_pc = self._walk_next(pc)
        else:
            # predicted path diverged from the actual one
            self.ftq_mismatches += 1
            self.ftq_flushes += 1
            ftq.clear()
            trace = self._trace
            if trace is not None:
                trace.emit("ftq", now, action="flush", expected=head,
                           actual=block_pc)
            self._bpu_pc = self._walk_next(pc)
        latency, hit = self.hierarchy.ifetch_demand(pc, now)
        if not hit:
            self.demand_misses += 1
            self.predecoder.on_fill(block_pc, entry_pc=pc)
            trace = self._trace
            if trace is not None:
                trace.emit("ifill", now, addr=block_pc, latency=latency,
                           demand=True)
        self.iprefetcher.on_ifetch(pc, hit, now)
        return latency

    def redirect(self, pc, now):
        """A mispredict resolved to *pc*: flush and resteer the BPU."""
        self.redirects += 1
        self.ftq.clear()
        self._bpu_pc = pc
        trace = self._trace
        if trace is not None:
            trace.emit("ftq", now, action="redirect", pc=pc)

    def busy(self):
        """Whether the front end still has same-cycle work (keeps the
        core from idle-skipping over run-ahead and drain cycles)."""
        if len(self.iprefetcher.queue):
            return True
        return self._bpu_pc is not None and not self.ftq.full()

    # ------------------------------------------------------------------
    # reporting

    @property
    def mean_occupancy(self):
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_sum / self.occupancy_samples

    def stats_dict(self):
        """Counters as a JSON-safe dict (RunResult payload block)."""
        predecoder = self.predecoder
        return {
            "ftq_enqueued": self.ftq_enqueued,
            "ftq_hits": self.ftq_hits,
            "ftq_mismatches": self.ftq_mismatches,
            "ftq_empty": self.ftq_empty,
            "ftq_flushes": self.ftq_flushes,
            "redirects": self.redirects,
            "bpu_stalls": self.bpu_stalls,
            "ftq_occupancy_sum": self.occupancy_sum,
            "ftq_occupancy_samples": self.occupancy_samples,
            "demand_fetches": self.demand_fetches,
            "demand_misses": self.demand_misses,
            "predecoded_blocks": predecoder.blocks,
            "shadow_fills": predecoder.shadow_fills,
            "shadow_hits": predecoder.shadow_hits,
        }

    # ------------------------------------------------------------------
    # checkpoint/restore

    def snapshot(self):
        """Front-end state as a JSON-safe structure (the BTB, predictor
        and L1-I snapshot themselves at the system level)."""
        return {
            "ftq": self.ftq.snapshot(),
            "bpu_pc": self._bpu_pc,
            "predecode": self.predecoder.snapshot(),
            "iprefetch": self.iprefetcher.snapshot(),
            "ftq_enqueued": self.ftq_enqueued,
            "ftq_hits": self.ftq_hits,
            "ftq_mismatches": self.ftq_mismatches,
            "ftq_empty": self.ftq_empty,
            "ftq_flushes": self.ftq_flushes,
            "redirects": self.redirects,
            "bpu_stalls": self.bpu_stalls,
            "occupancy_sum": self.occupancy_sum,
            "occupancy_samples": self.occupancy_samples,
            "demand_fetches": self.demand_fetches,
            "demand_misses": self.demand_misses,
        }

    def restore(self, state):
        self.ftq.restore(state["ftq"])
        bpu_pc = state["bpu_pc"]
        self._bpu_pc = int(bpu_pc) if bpu_pc is not None else None
        self.predecoder.restore(state["predecode"])
        self.iprefetcher.restore(state["iprefetch"])
        self.ftq_enqueued = state["ftq_enqueued"]
        self.ftq_hits = state["ftq_hits"]
        self.ftq_mismatches = state["ftq_mismatches"]
        self.ftq_empty = state["ftq_empty"]
        self.ftq_flushes = state["ftq_flushes"]
        self.redirects = state["redirects"]
        self.bpu_stalls = state["bpu_stalls"]
        self.occupancy_sum = state["occupancy_sum"]
        self.occupancy_samples = state["occupancy_samples"]
        self.demand_fetches = state["demand_fetches"]
        self.demand_misses = state["demand_misses"]
