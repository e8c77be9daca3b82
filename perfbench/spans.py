"""Layer spans for traced benchmark runs, recorded from outside the program.

:func:`install` replaces the public methods of each simulator layer, at
class or module level, with wrappers that time the call.  A wrapper
measures its span's duration, subtracts the time its child spans cover
(its *self* time), and folds the result into per-(phase, layer)
totals; a count of (caller layer -> callee layer) edges keeps which
span caused which.  The totals stay in memory and :meth:`LayerSpans.dump`
writes them at exit.  Individual spans are not kept: a traced rep makes
hundreds of thousands of calls.

Two rules keep traced runs honest about the untraced program:

* wrap before any ``System`` is built -- ``OutOfOrderCore.__init__``
  pre-binds the prefetcher hooks and ``run_replay`` caches bound methods
  when it starts, so a later patch would never be called;
* never wrap the base-class no-op prefetcher hooks -- the core compares
  a hook against the base implementation and skips the call, and a
  wrapper would turn a skipped call into a real one.
"""

import functools
import json
import threading
import time

# prefetcher hooks, wrapped only where a subclass overrides them: the
# core and fused replay skip on_load/on_store/on_commit/on_branch_decode
# when they are still the base-class no-op
_PREFETCH_HOOKS = ("on_load", "on_store", "on_commit", "on_branch_decode",
                   "on_l1d_eviction", "feedback")


class LayerSpans(object):
    """Per-thread span stacks with (phase, layer) self-time totals."""

    def __init__(self):
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [[0.0, "root"]], "layers": {}, "edges": {}}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, fn, layer):
        """Return *fn* wrapped in a span attributed to *layer*."""
        clock = time.perf_counter
        state_of = self._state

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = state_of()
            stack = state["stack"]
            parent = stack[-1]
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                key = (self.phase, layer)
                totals = state["layers"].get(key)
                if totals is None:
                    totals = state["layers"][key] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                edge = (parent[1], layer)
                state["edges"][edge] = state["edges"].get(edge, 0) + 1

        return span

    def patch(self, owner, name, layer):
        """Wrap ``owner.name`` in place (class or module attribute)."""
        original = owner.__dict__[name]
        setattr(owner, name, self.wrap(original, layer))

    def summary(self):
        """Merged totals: ``{"layers": {phase: {layer: {calls, total_s,
        self_s}}}, "edges": {"caller>callee": calls}}``."""
        layers = {}
        edges = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for (phase, layer), (calls, total, own) in state["layers"].items():
                entry = layers.setdefault(phase, {}).setdefault(
                    layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s"] += own
            for (caller, callee), calls in state["edges"].items():
                name = "%s>%s" % (caller, callee)
                edges[name] = edges.get(name, 0) + calls
        return {"layers": layers, "edges": edges}

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(self.summary(), handle, sort_keys=True)


def install(spans):
    """Wrap every layer's public entry points; call before building any
    ``System``."""
    import repro.sim.runner
    import repro.trace.engine
    import repro.trace.store
    import repro.workloads
    import repro.workloads.spec
    from repro.branch.btb import BranchTargetBuffer
    from repro.branch.confidence import CompositeConfidenceEstimator
    from repro.branch.perceptron import PerceptronPredictor
    from repro.branch.tournament import TournamentPredictor
    from repro.core.bfetch import BFetchPrefetcher
    from repro.cpu.functional import Machine
    from repro.cpu.ooo import OutOfOrderCore
    from repro.frontend.frontend import DecoupledFrontEnd
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.prefetchers import (
        ISBPrefetcher,
        NextNPrefetcher,
        PerfectPrefetcher,
        SMSPrefetcher,
        STeMSPrefetcher,
        StridePrefetcher,
        TangoPrefetcher,
    )
    from repro.prefetchers.base import Prefetcher
    from repro.sim.cmp import CMPSystem
    from repro.trace.replay import TraceReplaySource

    methods = (
        ("cpu.functional", Machine, ("step",)),
        ("cpu.ooo", OutOfOrderCore, ("run", "step_cycle")),
        ("memory", MemoryHierarchy, ("load", "store", "ifetch",
                                     "ifetch_demand", "access_oracle",
                                     "prefetch", "prefetch_instr")),
        ("branch", TournamentPredictor, ("predict", "update")),
        ("branch", PerceptronPredictor, ("predict", "update")),
        ("branch", CompositeConfidenceEstimator, ("probability", "update")),
        ("branch", BranchTargetBuffer, ("lookup", "peek", "update")),
        ("frontend", DecoupledFrontEnd, ("tick", "demand_fetch", "redirect",
                                         "busy")),
        ("trace.replay", TraceReplaySource, ("step",)),
        ("sim.cmp", CMPSystem, ("run",)),
        ("sim.runner", repro.sim.runner.ExperimentRunner,
         ("run_batch", "run_mix")),
        # the base class's real (not no-op) queue methods
        ("prefetchers", Prefetcher, ("drain", "feedback")),
    )
    for layer, owner, names in methods:
        for name in names:
            spans.patch(owner, name, layer)
    for layer, classes in (
        ("prefetchers", (NextNPrefetcher, StridePrefetcher, SMSPrefetcher,
                         PerfectPrefetcher, TangoPrefetcher, ISBPrefetcher,
                         STeMSPrefetcher)),
        ("core", (BFetchPrefetcher,)),
    ):
        for cls in classes:
            for name in _PREFETCH_HOOKS:
                if name in cls.__dict__:  # overrides only, never the no-ops
                    spans.patch(cls, name, layer)

    functions = (
        ("trace.record", repro.trace.store, "record_trace"),
        ("trace.view", repro.trace.store, "view_for"),
        ("trace.view", repro.trace.store, "outcomes_for"),
        ("trace.replay", repro.trace.engine, "run_replay"),
    )
    for layer, module, name in functions:
        spans.patch(module, name, layer)
    # build_workload is imported by name into several modules: wrap it
    # once and rebind every copy, so nested copies never double-count
    build = spans.wrap(repro.workloads.spec.build_workload, "workloads")
    for module in (repro.workloads.spec, repro.workloads, repro.sim.runner):
        module.build_workload = build
