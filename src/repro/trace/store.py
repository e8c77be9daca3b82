"""Content-addressed trace persistence, replay-mode knob, memos, counters.

Traces live inside the experiment result cache under their own kind::

    <cache_dir>/ftrace/<digest[:2]>/ftrace-<digest[:16]>.bin

where the digest covers ``[TRACE_VERSION, "ftrace", meta]`` and *meta*
is the config-independent identity ``(benchmark, variant, steps,
program_len)`` -- every sweep cell over the same workload and budget
shares one trace file, and the serve coalescer shares it across jobs
for free.  A loaded blob is fully re-verified by
:func:`~repro.trace.format.decode_trace`; anything suspicious is
discarded (with the same remove-if-unchanged guard the result cache
uses) and re-recorded -- a trace is never trusted.

Process-local LRU memos cache decoded traces, their fused-loop views
and the per-predictor branch-outcome pre-passes, so a sweep iterating
prefetchers over one benchmark decodes and pre-processes each trace
once.  ``replay_counters`` tracks how executions were served
(``recorded``/``replayed``/``lockstep``/``fallback``); the CI smoke job
asserts a warmed store serves a sweep with zero functional executions,
and the serve ``statz`` endpoint republishes them.  The job server runs
executions on a thread pool, so every update goes through
:func:`bump_counter` under one lock.
"""

import hashlib
import json
import os
import threading
from collections import OrderedDict

from repro.cpu.functional import write_regs_of
from repro.obs.io import (
    atomic_write_bytes,
    file_signature,
    remove_if_unchanged,
)
from repro.trace.format import TRACE_VERSION, TraceError, decode_trace
from repro.trace.record import record_trace, trace_meta

TRACE_KIND = "ftrace"
TRACE_REPLAY_ENV = "REPRO_TRACE_REPLAY"
_SHARD_CHARS = 2

# how this process's executions were served (see module docstring)
replay_counters = {
    "recorded": 0,   # traces recorded (functional executions)
    "replayed": 0,   # runs timed off a replayed trace
    "lockstep": 0,   # runs executed lockstep (replay off or refused)
    "fallback": 0,   # stored traces rejected on load (re-recorded)
}
_COUNTER_LOCK = threading.Lock()


def bump_counter(key, amount=1):
    """Add *amount* to ``replay_counters[key]`` without losing updates
    to concurrent callers (a bare ``+=`` is a read-modify-write)."""
    with _COUNTER_LOCK:
        replay_counters[key] += amount


def reset_counters():
    with _COUNTER_LOCK:
        for key in replay_counters:
            replay_counters[key] = 0


def replay_mode():
    """Parse ``REPRO_TRACE_REPLAY``: ``off`` (default), ``auto``, ``on``.

    ``auto`` records on the first miss and replays thereafter, falling
    back to lockstep execution silently whenever a replay source cannot
    be built; ``on`` raises instead of falling back (for tests and CI
    that must know replay actually happened).
    """
    raw = os.environ.get(TRACE_REPLAY_ENV, "off").strip().lower()
    if raw in ("", "off", "0", "no", "false"):
        return "off"
    if raw in ("auto", "on"):
        return raw
    raise ValueError(
        "%s must be one of off/auto/on, got %r" % (TRACE_REPLAY_ENV, raw)
    )


def trace_digest(meta):
    """Content digest keying a trace (mirrors the result-cache formula,
    but versioned by the trace format, not the result-cache version)."""
    public = {key: value for key, value in meta.items()
              if not key.startswith("_")}
    return hashlib.sha1(
        json.dumps([TRACE_VERSION, TRACE_KIND, public],
                   sort_keys=True).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# process-local LRU memos

_TRACE_MEMO = OrderedDict()    # digest -> TraceData
_VIEW_MEMO = OrderedDict()     # digest -> fused-loop view
_OUTCOME_MEMO = OrderedDict()  # (digest, predictor identity) -> outcomes
_TRACE_MEMO_CAP = 4
_VIEW_MEMO_CAP = 4
_OUTCOME_MEMO_CAP = 8


def _memo_get(memo, key):
    value = memo.get(key)
    if value is not None:
        memo.move_to_end(key)
    return value


def _memo_put(memo, key, value, cap):
    memo[key] = value
    memo.move_to_end(key)
    while len(memo) > cap:
        memo.popitem(last=False)


def clear_memos():
    """Drop every process-local memo (tests; also frees the memory)."""
    _TRACE_MEMO.clear()
    _VIEW_MEMO.clear()
    _OUTCOME_MEMO.clear()


def view_for(workload, trace):
    """Fused-loop view for *trace*, memoised per trace digest."""
    key = trace.digest or id(trace)
    view = _memo_get(_VIEW_MEMO, key)
    if view is None:
        from repro.trace.engine import build_view
        view = build_view(workload, trace)
        _memo_put(_VIEW_MEMO, key, view, _VIEW_MEMO_CAP)
    return view


def outcomes_for(trace, config, view):
    """Pre-computed branch outcomes for (trace, predictor config).

    Memoised on the predictor-relevant configuration identity so every
    sweep cell sharing a predictor setup shares one pre-pass.
    """
    predictor_key = (config.branch_predictor, config.bp_scale)
    key = (trace.digest or id(trace), predictor_key)
    outcomes = _memo_get(_OUTCOME_MEMO, key)
    if outcomes is None:
        from repro.branch.btb import BranchTargetBuffer
        from repro.trace.engine import branch_outcomes
        outcomes = branch_outcomes(
            view, config.make_predictor(), BranchTargetBuffer()
        )
        _memo_put(_OUTCOME_MEMO, key, outcomes, _OUTCOME_MEMO_CAP)
    return outcomes


# ----------------------------------------------------------------------


class TraceStore:
    """Content-addressed functional-trace storage under a cache dir.

    :param cache_dir: the experiment runner's cache directory; None
        keeps everything in the process-local memo only.
    """

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir

    def path_for(self, digest):
        if not self.cache_dir:
            return None
        return os.path.join(
            self.cache_dir,
            TRACE_KIND,
            digest[:_SHARD_CHARS],
            "%s-%s.bin" % (TRACE_KIND, digest[:16]),
        )

    def load(self, workload, steps, variant=0):
        """Fetch a trace from the memo or disk; None on miss.

        A blob that fails any verification (magic, version, envelope,
        digests, metadata binding) is counted as a ``fallback``,
        discarded with the remove-if-unchanged guard, and reported as a
        miss so the caller re-records.
        """
        meta = trace_meta(workload, steps, variant)
        digest = trace_digest(meta)
        trace = _memo_get(_TRACE_MEMO, digest)
        if trace is not None:
            return trace
        path = self.path_for(digest)
        if path is None:
            return None
        try:
            signature = file_signature(os.stat(path))
        except OSError:
            signature = None
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            return None
        try:
            trace = decode_trace(blob, write_regs_of(workload.program),
                                 expect_meta=meta)
        except TraceError:
            bump_counter("fallback")
            remove_if_unchanged(path, signature)
            return None
        trace.digest = digest
        _memo_put(_TRACE_MEMO, digest, trace, _TRACE_MEMO_CAP)
        return trace

    def record(self, workload, steps, variant=0):
        """Record a fresh trace, persist it, and memoise it."""
        blob, trace = record_trace(workload, steps, variant)
        trace.digest = trace_digest(trace.meta)
        bump_counter("recorded")
        path = self.path_for(trace.digest)
        if path is not None:
            atomic_write_bytes(path, blob)
        _memo_put(_TRACE_MEMO, trace.digest, trace, _TRACE_MEMO_CAP)
        return trace

    def get_or_record(self, workload, steps, variant=0):
        trace = self.load(workload, steps, variant)
        if trace is None:
            trace = self.record(workload, steps, variant)
        return trace

    def stats(self):
        """Entry count and byte total of the on-disk trace store."""
        entries = 0
        total_bytes = 0
        root = os.path.join(self.cache_dir, TRACE_KIND) \
            if self.cache_dir else None
        if root and os.path.isdir(root):
            for dirpath, _dirnames, filenames in os.walk(root):
                for name in filenames:
                    if not name.endswith(".bin"):
                        continue
                    try:
                        total_bytes += os.path.getsize(
                            os.path.join(dirpath, name))
                        entries += 1
                    except OSError:
                        continue
        return {"entries": entries, "bytes": total_bytes}


def replay_source_for(workload, steps, variant=0, cache_dir=None):
    """Build a :class:`~repro.trace.replay.TraceReplaySource`, or None.

    Honors ``REPRO_TRACE_REPLAY``: returns None in ``off`` mode; in
    ``auto`` a failure to obtain a trace degrades silently to lockstep
    (None); in ``on`` it propagates.  The caller is responsible for
    bumping the ``replayed``/``lockstep`` counters (:func:`bump_counter`)
    per execution served.
    """
    mode = replay_mode()
    if mode == "off":
        return None
    store = TraceStore(cache_dir)
    try:
        trace = store.get_or_record(workload, steps, variant)
        from repro.trace.replay import TraceReplaySource
        return TraceReplaySource(workload, trace)
    except Exception:
        if mode == "on":
            raise
        return None
