"""Cycle-stepped out-of-order core timing model.

A trace-driven approximation of the paper's 4-wide, 192-entry-ROB gem5 O3
baseline (Table II).  Per cycle the model retires up to ``width``
completed instructions in order, drains the prefetch queue at a bounded
rate, and fetches/dispatches up to ``width`` instructions:

* operand readiness is tracked per architectural register, so dependence
  chains serialise exactly as far as their producers' latencies demand;
* loads access the cache hierarchy when their operands are ready and
  complete after the returned latency -- this is the lever prefetching
  acts on;
* a mispredicted branch stalls fetch until the branch resolves (its own
  operands ready) plus a redirect penalty -- the flush bubble;
* a predicted-taken branch ends the fetch group (one taken redirect per
  cycle), which is what makes the Fig. 7 branches-per-fetch-cycle
  histogram meaningful;
* the ROB bounds in-flight instructions, recreating ROB-full stalls under
  long-latency misses.

The model is deliberately idle-cycle-skipping: when fetch cannot proceed
(flush bubble or full ROB) the clock jumps to the next event, which makes
memory-bound regions cheap to simulate without changing any outcome.

:meth:`OutOfOrderCore.step_cycle` is the one cycle loop and steps in
*slices*: it loads its locals once, then runs cycles until the next one
would reach the caller's limit, the core is done, or ``retired`` reaches
a watched count.  :meth:`~OutOfOrderCore.run` is one unbounded slice,
:meth:`~OutOfOrderCore.run_until` one slice bounded by its stop cycle,
and the CMP scheduler (:mod:`repro.sim.cmp`) gives each core a slice up
to the next event on its heap.  A slice steps exactly the cycles that
one-cycle calls would, so where the slices end never moves a counter.
"""

from repro.isa.opcodes import (
    IS_ALU as _IS_ALU,
    IS_BRANCH as _IS_BRANCH,
    IS_COND_BRANCH as _IS_COND_BRANCH,
    Op,
)
from repro.prefetchers.base import Prefetcher as _BasePrefetcher

_FETCH_HIST_BUCKETS = 4
# a step_cycle limit no simulated clock reaches: an unbounded slice
_FOREVER = 1 << 62

# plain-int opcodes for the dispatch hot path (IntEnum attribute lookups
# cost a global + class-attr load per comparison)
_OP_LOAD = int(Op.LOAD)
_OP_STORE = int(Op.STORE)
_OP_MUL = int(Op.MUL)
_OP_JR = int(Op.JR)


def _noop_hook(unbound, bound):
    """True when *bound* is the no-op base-class implementation of
    *unbound* -- lets the core skip the call entirely."""
    func = getattr(bound, "__func__", None)
    return func is unbound


class CoreConfig:
    """Pipeline parameters (defaults = paper Table II)."""

    def __init__(
        self,
        width=4,
        rob_entries=192,
        redirect_penalty=3,
        alu_latency=1,
        mul_latency=3,
        store_latency=1,
        prefetch_drain_rate=2,
        block_bytes=64,
        frontend="off",
    ):
        # fail fast: a zero-wide pipeline or non-positive latency makes
        # the cycle loop diverge or silently stall forever
        for field, value in (
            ("width", width), ("rob_entries", rob_entries),
            ("alu_latency", alu_latency), ("mul_latency", mul_latency),
            ("store_latency", store_latency),
            ("prefetch_drain_rate", prefetch_drain_rate),
        ):
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    "CoreConfig.%s must be a positive integer, got %r"
                    % (field, value)
                )
        if redirect_penalty < 0:
            raise ValueError(
                "CoreConfig.redirect_penalty must be >= 0 cycles, got %r"
                % (redirect_penalty,)
            )
        self.width = width
        self.rob_entries = rob_entries
        self.redirect_penalty = redirect_penalty
        self.alu_latency = alu_latency
        self.mul_latency = mul_latency
        self.store_latency = store_latency
        self.prefetch_drain_rate = prefetch_drain_rate
        self.block_bytes = block_bytes
        self.block_shift = block_bytes.bit_length() - 1
        if 1 << self.block_shift != block_bytes:
            raise ValueError("block size must be a power of two, got %r"
                             % (block_bytes,))
        from repro.frontend.config import FRONTEND_MODES
        if frontend not in FRONTEND_MODES:
            raise ValueError(
                "CoreConfig.frontend must be one of %s, got %r"
                % (", ".join(FRONTEND_MODES), frontend)
            )
        self.frontend = frontend


class OutOfOrderCore:
    """One core: functional machine + predictor + hierarchy + prefetcher."""

    def __init__(self, machine, hierarchy, predictor, confidence, btb,
                 prefetcher, config=None):
        self.machine = machine
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.confidence = confidence
        self.btb = btb
        self.prefetcher = prefetcher
        # Pre-bind prefetcher hooks, dropping ones that are base-class
        # no-ops: the "none" baseline and the miss-driven prefetchers
        # then pay zero per-instruction call overhead for unused events.
        if prefetcher is None:
            self._pf_on_commit = None
            self._pf_on_branch_decode = None
        else:
            hook = prefetcher.on_commit
            self._pf_on_commit = (
                None if _noop_hook(_BasePrefetcher.on_commit, hook) else hook
            )
            hook = prefetcher.on_branch_decode
            self._pf_on_branch_decode = (
                None
                if _noop_hook(_BasePrefetcher.on_branch_decode, hook)
                else hook
            )
        self.config = config or CoreConfig()
        # fetch-block geometry follows the configured L1 line size (not a
        # hard-coded 64B shift) so non-default lines redirect correctly
        self._fetch_shift = self.config.block_shift
        # decoupled front end: None until bind_frontend() (and always
        # None with CoreConfig.frontend="off" -- that path is untouched)
        self.frontend = None
        self._if_on_commit = None
        self._if_on_branch_decode = None
        # pipeline state
        self.cycle = 0
        self.reg_ready = [0] * 32
        self.rob = []  # completion times, ring-buffer style
        self._rob_head = 0
        self.fetch_stall_until = 0
        self._fetch_block = -1
        # counters
        self.retired = 0
        self.budget = 0
        self.done = False
        self.last_step = 0  # time of the last cycle step_cycle ran
        self.cond_branches = 0
        self.branches = 0
        self.mispredicts = 0
        self.fetch_branch_hist = [0] * (_FETCH_HIST_BUCKETS + 1)
        self.fetch_cycles = 0
        self.rob_full_stalls = 0    # idle steps blocked by a full ROB
        self.flush_stall_cycles = 0  # idle steps inside a redirect bubble
        # tracing (None = "branch" category disabled)
        self._trace_branch = None

    def bind_tracer(self, tracer):
        """Cache the tracer's ``branch`` channel (None disables)."""
        self._trace_branch = (
            tracer.channel("branch") if tracer is not None else None
        )

    def bind_frontend(self, frontend):
        """Attach a :class:`~repro.frontend.DecoupledFrontEnd`; fetch
        then goes through its FTQ + L1-I demand path, and the I-side
        prefetcher's commit/decode hooks are pre-bound with the same
        no-op elision as the D-side ones."""
        self.frontend = frontend
        iprefetcher = frontend.iprefetcher
        hook = iprefetcher.on_commit
        self._if_on_commit = (
            None if _noop_hook(_BasePrefetcher.on_commit, hook) else hook
        )
        hook = iprefetcher.on_branch_decode
        self._if_on_branch_decode = (
            None
            if _noop_hook(_BasePrefetcher.on_branch_decode, hook)
            else hook
        )

    # ------------------------------------------------------------------

    def start(self, budget):
        """Arm the core to retire *budget* instructions."""
        self.budget = budget
        self.done = False

    def step_cycle(self, now, limit=None, watch=None):
        """Step a slice of cycles from time *now*; return the next time
        this core has work to do (``now + 1`` while actively fetching).

        With no *limit* exactly one cycle runs.  Otherwise the slice
        keeps stepping while that next time stays below *limit*, and
        stops early once the core is :attr:`done` or, with *watch*, once
        :attr:`retired` reaches *watch*.  The first cycle always runs;
        :attr:`last_step` holds the time of the slice's final cycle.
        Every counter moves exactly as it would over the same cycles
        stepped one call at a time.
        """
        if limit is None:
            limit = now + 1
        if watch is None:
            watch = _FOREVER
        cfg = self.config
        width = cfg.width
        rob_cap = cfg.rob_entries
        drain_rate = cfg.prefetch_drain_rate
        budget = self.budget
        # restore() replaces the ROB, the histogram and the prefetch
        # queue's deque, so they are loaded afresh for every slice
        rob = self.rob
        fetch_branch_hist = self.fetch_branch_hist
        prefetcher = self.prefetcher
        if prefetcher is not None:
            pf_queue = prefetcher.queue._queue
            drain = prefetcher.drain
        else:
            pf_queue = ()
        hierarchy = self.hierarchy
        frontend = self.frontend
        if frontend is not None:
            tick = frontend.tick
            demand_ifetch = frontend.demand_fetch
        else:
            demand_ifetch = hierarchy.ifetch
        l1_latency = hierarchy.config.l1_latency
        machine_step = self.machine.step
        dispatch = self._dispatch
        is_branch = _IS_BRANCH
        fetch_shift = self._fetch_shift
        fetch_block = self._fetch_block
        head = self._rob_head
        retired = self.retired
        fetch_cycles = self.fetch_cycles
        flush_stall_cycles = self.flush_stall_cycles
        rob_full_stalls = self.rob_full_stalls
        while True:
            # retire (in order, up to width)
            retire_end = head + width
            rob_len = len(rob)
            while head < rob_len and head < retire_end and rob[head] <= now:
                head += 1
                retired += 1
            if head > 4096:  # compact the ring buffer
                del rob[:head]
                head = 0
            if retired >= budget:
                self.done = True
                next_time = now + 1
                break

            # drain queued prefetches into the hierarchy
            if pf_queue:
                drain(hierarchy, now, drain_rate)

            # decoupled front end: the BPU run-ahead advances every
            # cycle, including I-miss and redirect stall cycles -- the
            # decoupling
            if frontend is not None:
                tick(now)

            # fetch / dispatch; _dispatch and _handle_branch write
            # fetch_stall_until, so it is read from self every cycle
            fetched = 0
            stall_until = self.fetch_stall_until
            if now >= stall_until:
                branches_in_group = 0
                # head is only moved by retire, so in-flight occupancy
                # is tracked locally instead of re-measuring the ROB
                in_flight = len(rob) - head
                dispatched_total = retired + in_flight
                while (
                    fetched < width
                    and in_flight < rob_cap
                    and dispatched_total < budget
                ):
                    instr, taken, ea = machine_step()
                    pc = instr.pc
                    block = pc >> fetch_shift
                    if block != fetch_block:
                        fetch_block = block
                        ifetch_latency = demand_ifetch(pc, now)
                        if ifetch_latency > l1_latency:
                            self.fetch_stall_until = now + ifetch_latency
                    fetched += 1
                    in_flight += 1
                    dispatched_total += 1
                    group_ends = dispatch(instr, taken, ea, now)
                    if is_branch[instr.op]:
                        branches_in_group += 1
                    if group_ends:
                        break
                if fetched:
                    fetch_cycles += 1
                    if branches_in_group:
                        fetch_branch_hist[
                            min(branches_in_group, _FETCH_HIST_BUCKETS)
                        ] += 1
                    next_time = now + 1
            if not fetched:
                # idle (nothing dispatched, so stall_until is current):
                # jump to the next event
                if now < stall_until:
                    flush_stall_cycles += 1
                elif len(rob) - head >= rob_cap:
                    rob_full_stalls += 1
                if pf_queue:
                    next_time = now + 1  # keep draining at full rate
                elif frontend is not None and frontend.busy():
                    next_time = now + 1  # keep the run-ahead ticking
                else:
                    if head < len(rob):
                        wake = rob[head]
                        if now < stall_until and stall_until < wake:
                            wake = stall_until
                    elif now < stall_until:
                        wake = stall_until
                    else:
                        wake = now + 1
                    next_time = wake if wake > now else now + 1
            if next_time >= limit or retired >= watch:
                break
            now = next_time
        self._rob_head = head
        self.retired = retired
        self._fetch_block = fetch_block
        self.fetch_cycles = fetch_cycles
        self.flush_stall_cycles = flush_stall_cycles
        self.rob_full_stalls = rob_full_stalls
        self.last_step = now
        return next_time

    # ------------------------------------------------------------------

    def _dispatch(self, instr, taken, ea, now):
        """Dispatch one instruction; returns True if the fetch group ends."""
        cfg = self.config
        reg_ready = self.reg_ready
        op = instr.op

        ready = now + 1
        ra = instr.ra
        if ra is not None and reg_ready[ra] > ready:
            ready = reg_ready[ra]
        rb = instr.rb
        if rb is not None and (op == _OP_STORE or _IS_ALU[op]):
            if reg_ready[rb] > ready:
                ready = reg_ready[rb]

        group_ends = False
        prefetcher = self.prefetcher

        if op == _OP_LOAD:
            if prefetcher is not None and prefetcher.is_perfect:
                latency = self.hierarchy.access_oracle(ea, ready)
            else:
                latency, hit = self.hierarchy.load(ea, ready)
                if prefetcher is not None:
                    prefetcher.on_load(instr.pc, ea, hit, now)
            complete = ready + latency
            reg_ready[instr.rd] = complete
        elif op == _OP_STORE:
            if prefetcher is not None and prefetcher.is_perfect:
                self.hierarchy.access_oracle(ea, ready)
            else:
                self.hierarchy.store(ea, ready)
                if prefetcher is not None:
                    prefetcher.on_store(instr.pc, ea, True, now)
            complete = ready + cfg.store_latency
        elif _IS_BRANCH[op]:
            complete = ready + cfg.alu_latency
            group_ends = self._handle_branch(instr, taken, now, complete)
            self.branches += 1
        else:
            if op == _OP_MUL:
                complete = ready + cfg.mul_latency
            else:
                complete = ready + cfg.alu_latency
            if instr.rd is not None:
                reg_ready[instr.rd] = complete
        self.rob.append(complete)
        on_commit = self._pf_on_commit
        if on_commit is not None:
            machine = self.machine
            on_commit(instr, ea, taken, machine.pc, machine.regs, complete)
        on_commit = self._if_on_commit
        if on_commit is not None:
            machine = self.machine
            on_commit(instr, ea, taken, machine.pc, machine.regs, complete)
        return group_ends

    def _handle_branch(self, instr, taken, now, resolve_time):
        """Predict, train, trigger B-Fetch, apply flush penalties."""
        cfg = self.config
        pc = instr.pc
        actual_next = self.machine.pc
        op = instr.op
        predictor = self.predictor
        on_branch_decode = self._pf_on_branch_decode

        frontend = self.frontend
        if_decode = self._if_on_branch_decode

        if _IS_COND_BRANCH[op]:
            history = predictor.history
            predicted = predictor.predict(pc)
            correct = predicted == taken
            self.cond_branches += 1
            if not correct:
                self.mispredicts += 1
            trace = self._trace_branch
            if trace is not None:
                trace.emit("predict", now, pc=pc, taken=taken,
                           predicted=predicted, correct=correct)
            self.confidence.update(pc, history, correct, taken)
            predictor.update(pc, taken)
            taken_target = pc + 4 * (instr.target - instr.index)
            if on_branch_decode is not None:
                on_branch_decode(pc, predicted, taken_target, now)
            if if_decode is not None:
                if_decode(pc, predicted, taken_target, now)
            if frontend is not None and taken:
                # demand-train the BTB on executed taken direct branches
                # so the BPU run-ahead walker can see them (off mode
                # keeps the BTB JR-only, untouched)
                self.btb.update(pc, taken_target)
            if not correct:
                self.fetch_stall_until = resolve_time + cfg.redirect_penalty
                if frontend is not None:
                    frontend.redirect(actual_next, now)
                return True
            return predicted  # predicted-taken ends the fetch group
        if op == _OP_JR:
            predicted_target = self.btb.lookup(pc)
            self.btb.update(pc, actual_next)
            correct = predicted_target == actual_next
            # train the confidence estimator on indirect targets too, so
            # the lookahead's path confidence reflects JR predictability
            self.confidence.update(pc, predictor.history, correct, True)
            if on_branch_decode is not None:
                on_branch_decode(pc, True, predicted_target, now)
            if if_decode is not None:
                if_decode(pc, True, predicted_target, now)
            if not correct:
                self.mispredicts += 1
                self.fetch_stall_until = resolve_time + cfg.redirect_penalty
                if frontend is not None:
                    frontend.redirect(actual_next, now)
            return True
        # direct unconditional: target known at decode, no mispredict
        self.confidence.update(pc, predictor.history, True, True)
        taken_target = pc + 4 * (instr.target - instr.index)
        if frontend is not None:
            self.btb.update(pc, taken_target)
        if on_branch_decode is not None:
            on_branch_decode(pc, True, taken_target, now)
        if if_decode is not None:
            if_decode(pc, True, taken_target, now)
        return True

    # ------------------------------------------------------------------

    def run(self, budget):
        """Run standalone until *budget* instructions retire; returns the
        cycle count.  One unbounded :meth:`step_cycle` slice."""
        self.start(budget)
        self.cycle = self.step_cycle(self.cycle, _FOREVER)
        return self.cycle

    def run_until(self, now, stop_cycle):
        """Run from time *now* until completion or ``stop_cycle``.

        The chunked driver used by checkpointing and the sanitizer: one
        :meth:`step_cycle` slice bounded by ``stop_cycle``, so the step
        sequence (and therefore every counter) is byte-identical to an
        uninterrupted run -- the chunk boundaries only decide *when* the
        caller gets control back.
        """
        if self.done or now >= stop_cycle:
            return now
        return self.step_cycle(now, stop_cycle)

    # ------------------------------------------------------------------
    # checkpoint/restore

    def snapshot(self):
        """Pipeline state as a JSON-safe structure (machine excluded --
        the functional core snapshots itself)."""
        return {
            "cycle": self.cycle,
            "reg_ready": list(self.reg_ready),
            # store the live window only; restoring with head 0 is
            # behaviour-neutral (the ring compaction is itself neutral)
            "rob": list(self.rob[self._rob_head:]),
            "fetch_stall_until": self.fetch_stall_until,
            "fetch_block": self._fetch_block,
            "retired": self.retired,
            "budget": self.budget,
            "done": self.done,
            "cond_branches": self.cond_branches,
            "branches": self.branches,
            "mispredicts": self.mispredicts,
            "fetch_branch_hist": list(self.fetch_branch_hist),
            "fetch_cycles": self.fetch_cycles,
            "rob_full_stalls": self.rob_full_stalls,
            "flush_stall_cycles": self.flush_stall_cycles,
        }

    def restore(self, state):
        """Restore pipeline state from :meth:`snapshot` output."""
        self.cycle = state["cycle"]
        self.reg_ready = [int(value) for value in state["reg_ready"]]
        self.rob = list(state["rob"])
        self._rob_head = 0
        self.fetch_stall_until = state["fetch_stall_until"]
        self._fetch_block = state["fetch_block"]
        self.retired = state["retired"]
        self.budget = state["budget"]
        self.done = state["done"]
        self.cond_branches = state["cond_branches"]
        self.branches = state["branches"]
        self.mispredicts = state["mispredicts"]
        self.fetch_branch_hist = list(state["fetch_branch_hist"])
        self.fetch_cycles = state["fetch_cycles"]
        self.rob_full_stalls = state["rob_full_stalls"]
        self.flush_stall_cycles = state["flush_stall_cycles"]

    @property
    def ipc(self):
        return self.retired / self.cycle if self.cycle else 0.0

    @property
    def mispredict_rate(self):
        return self.mispredicts / self.cond_branches if self.cond_branches else 0.0
