"""Server-level metrics, exported through the shared stats registry.

Everything the ``/statz`` endpoint reports lives in one
:class:`~repro.obs.StatsRegistry` under the ``serve.`` prefix, reusing
the same Counter/Ratio/FuncStat machinery the simulator's own stats use
-- one dump format, one CLI rendering path (``repro jobs --stats``),
one JSON schema.

Taxonomy::

    serve.connections.opened / closed        accepted TCP connections
    serve.requests.total / errors            frames dispatched / typed errors
    serve.protocol_errors                    framing-level violations
    serve.jobs.submitted                     submit requests seen
    serve.jobs.accepted                      admitted as *new* jobs
    serve.jobs.coalesced                     deduplicated onto a live job
    serve.jobs.rejected_busy                 bounced by admission control
    serve.jobs.rejected_invalid              failed validation
    serve.jobs.completed / failed / cancelled terminal outcomes
    serve.jobs.in_flight                     queued + running right now
    serve.queue.depth                        live admission-queue depth
    serve.runs.requested                     RunRequests across submissions
    serve.runs.cache_hits / computed / skipped   per-batch outcomes
    serve.runs.retries / crashes / timeouts  resilience events surfaced
    serve.cache.hit_ratio                    hits / (hits + computed)
    serve.latency.{p50,p95,p99,mean,count}[...]  job latency, cached vs computed
    serve.uptime_seconds / serve.jobs_per_second   throughput
    serve.fleet.respawns / requeues / sheds  worker-loss recovery events
    serve.fleet.breaker.{opened,half_open,closed}  breaker transitions
    serve.cluster.*                          scheduler membership, shards,
                                             steals, autoscaling, peers
    serve.jobs.rejected_circuit              breaker-bounced submissions

Latency quantiles are computed over a bounded sliding window
(:data:`LATENCY_WINDOW` most recent jobs) so a long-lived server's
``/statz`` stays O(window), and are split into ``all`` / ``cached``
(every run served from cache) / ``computed`` series -- the two
populations differ by orders of magnitude and a merged p95 would
describe neither.
"""

import time

from repro.obs import StatsRegistry

#: jobs retained per latency series for quantile estimation
LATENCY_WINDOW = 2048

_COUNTERS = (
    ("connections.opened", "TCP connections accepted"),
    ("connections.closed", "TCP connections closed"),
    ("requests.total", "frames dispatched to a handler"),
    ("requests.errors", "typed error replies sent"),
    ("protocol_errors", "framing violations (bad frame/json/oversize)"),
    ("jobs.submitted", "submit requests received"),
    ("jobs.accepted", "submissions admitted as new jobs"),
    ("jobs.coalesced", "submissions coalesced onto a live job"),
    ("jobs.rejected_busy", "submissions bounced by admission control"),
    ("jobs.rejected_circuit", "submissions bounced by an open breaker"),
    ("jobs.rejected_invalid", "submissions failing validation"),
    ("jobs.completed", "jobs finished successfully"),
    ("jobs.failed", "jobs finished with a structured failure"),
    ("jobs.cancelled", "jobs cancelled before completion"),
    ("runs.requested", "single-run requests across all submissions"),
    ("runs.cache_hits", "runs served straight from the result cache"),
    ("runs.computed", "runs actually simulated"),
    ("runs.skipped", "runs skipped after exhausting retries"),
    ("runs.retries", "run retries performed by the batch engine"),
    ("runs.crashes", "worker crashes absorbed by the batch engine"),
    ("runs.timeouts", "hung runs detected by the batch engine"),
    ("fleet.respawns", "dead fleet workers replaced by the supervisor"),
    ("fleet.requeues", "in-flight shards requeued after a member loss"),
    ("fleet.sheds", "jobs shed because their deadline expired"),
    ("fleet.breaker.opened", "circuit breakers tripped open"),
    ("fleet.breaker.half_open", "breaker cooldowns expired into a probe"),
    ("fleet.breaker.closed", "breakers closed by a successful probe"),
    ("cluster.nodes_joined", "remote nodes adopted by the coordinator"),
    ("cluster.nodes_lost", "remote nodes dropped (EOF or silent beats)"),
    ("cluster.shards", "job shards scattered across the member pool"),
    ("cluster.steals", "shards stolen from stragglers by idle members"),
    ("cluster.replayed", "cache entries replayed from reconnecting nodes"),
    ("cluster.scale_up", "local workers spawned by the autoscaler"),
    ("cluster.scale_down", "surplus local workers retired when idle"),
    ("cluster.degraded_transitions",
     "times the cluster lost its last node and went local-only"),
)


def quantile(values, q):
    """Linearly interpolated quantile of an unsorted sequence.

    Uses the standard "type 7" estimator (numpy's default): the
    quantile sits at fractional rank ``h = (n - 1) * q`` and is
    interpolated between the two bracketing order statistics.  The
    previous nearest-rank-by-truncation rule (``int(q * n)``) pinned
    every upper quantile of a small window to the window *maximum* --
    for any n < 100, ``int(0.99 * n)`` is ``n - 1`` -- so a single
    outlier reported as the p99 until 100 samples had arrived.

    Worked example over ``[10, 20, 30, 40]``:

    ====  ==================  ===============  ===================
    q     fractional rank h   old (truncate)   now (interpolate)
    ====  ==================  ===============  ===================
    0.00  0.00                10               10.0
    0.50  1.50                30               25.0
    0.95  2.85                40               38.5
    0.99  2.97                40               39.7
    1.00  3.00                40               40.0
    ====  ==================  ===============  ===================

    Returns 0.0 for an empty sequence; *q* is clamped into [0, 1].
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    q = min(1.0, max(0.0, q))
    h = (n - 1) * q
    low = int(h)
    frac = h - low
    if frac == 0.0:
        return float(ordered[low])
    return ordered[low] + (ordered[low + 1] - ordered[low]) * frac


class _LatencySeries(object):
    """Sliding window of job latencies with derived quantiles."""

    __slots__ = ("window", "values", "count", "total")

    def __init__(self, window=LATENCY_WINDOW):
        self.window = window
        self.values = []
        self.count = 0
        self.total = 0.0

    def record(self, seconds):
        self.count += 1
        self.total += seconds
        self.values.append(seconds)
        if len(self.values) > self.window:
            del self.values[:len(self.values) - self.window]

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0


class ServeMetrics(object):
    """The server's ``serve.*`` stats registry plus latency windows."""

    def __init__(self, queue=None, table=None, registry=None):
        self.registry = registry if registry is not None else StatsRegistry()
        self.started = time.monotonic()
        self._counters = {}
        for name, desc in _COUNTERS:
            self._counters[name] = self.registry.counter(
                "serve.%s" % name, desc
            )
        self._latency = {
            "all": _LatencySeries(),
            "cached": _LatencySeries(),
            "computed": _LatencySeries(),
        }
        hits = self._counters["runs.cache_hits"]
        computed = self._counters["runs.computed"]
        self.registry.ratio(
            "serve.cache.hit_ratio",
            lambda: hits.value,
            lambda: hits.value + computed.value,
            "runs served from cache / runs resolved",
        )
        self.registry.derived(
            "serve.uptime_seconds",
            lambda: round(time.monotonic() - self.started, 3),
            "seconds since the server started",
        )
        completed = self._counters["jobs.completed"]
        self.registry.derived(
            "serve.jobs_per_second",
            lambda: round(
                completed.value
                / max(1e-9, time.monotonic() - self.started), 6
            ),
            "completed jobs per second of uptime",
        )
        if queue is not None:
            self.registry.derived(
                "serve.queue.depth", lambda: len(queue),
                "live admission-queue depth",
            )
        if table is not None:
            self.registry.derived(
                "serve.jobs.in_flight", lambda: table.active_count(),
                "jobs currently queued or running",
            )
        for series_name, series in sorted(self._latency.items()):
            self._register_latency(series_name, series)

    def _register_latency(self, series_name, series):
        prefix = "serve.latency.%s" % series_name
        self.registry.derived(
            "%s.count" % prefix, lambda s=series: s.count,
            "jobs recorded in this latency series",
        )
        self.registry.derived(
            "%s.mean" % prefix, lambda s=series: round(s.mean, 6),
            "mean job latency, seconds",
        )
        self.registry.derived(
            "%s.p50" % prefix,
            lambda s=series: round(quantile(s.values, 0.50), 6),
            "median job latency over the window, seconds",
        )
        self.registry.derived(
            "%s.p95" % prefix,
            lambda s=series: round(quantile(s.values, 0.95), 6),
            "95th-percentile job latency over the window, seconds",
        )
        self.registry.derived(
            "%s.p99" % prefix,
            lambda s=series: round(quantile(s.values, 0.99), 6),
            "99th-percentile job latency over the window, seconds",
        )

    # ------------------------------------------------------------------

    def attach_cluster(self, cluster):
        """Register derived gauges over a live ClusterSupervisor."""
        self.registry.derived(
            "serve.cluster.nodes", lambda: len(cluster.live_nodes()),
            "remote nodes currently adopted and alive",
        )
        self.registry.derived(
            "serve.cluster.local_workers",
            lambda: len(cluster.live_locals()),
            "local workers currently alive (autoscaled)",
        )
        self.registry.derived(
            "serve.cluster.degraded", lambda: cluster.degraded(),
            "1 while zero nodes are live (running as a local fleet)",
        )
        self.registry.derived(
            "serve.cluster.peer_hits",
            lambda: cluster.peer_totals().get("hits", 0),
            "cache-peer fetches that found a replica",
        )
        self.registry.derived(
            "serve.cluster.peer_misses",
            lambda: cluster.peer_totals().get("misses", 0),
            "cache-peer fetches that found nothing",
        )
        self.registry.derived(
            "serve.cluster.peer_corrupt",
            lambda: cluster.peer_totals().get("corrupt", 0),
            "cache-peer replies rejected by envelope verification",
        )

    def bump(self, name, n=1):
        """Increment one ``serve.*`` counter by short name."""
        self._counters[name].inc(n)

    def value(self, name):
        return self._counters[name].value

    def record_job(self, job):
        """Fold one terminal job into counters and latency windows."""
        if job.state == "done":
            self.bump("jobs.completed")
        elif job.state == "failed":
            self.bump("jobs.failed")
        else:
            self.bump("jobs.cancelled")
        report = job.report or {}
        self.bump("runs.cache_hits", report.get("hits", 0))
        self.bump("runs.computed", report.get("misses", 0))
        self.bump("runs.skipped", report.get("skipped", 0))
        self.bump("runs.retries", report.get("retries", 0))
        self.bump("runs.crashes", report.get("crashes", 0))
        self.bump("runs.timeouts", report.get("timeouts", 0))
        latency = job.latency
        if latency is not None and job.state == "done":
            self._latency["all"].record(latency)
            series = "cached" if report.get("misses", 0) == 0 else "computed"
            self._latency[series].record(latency)

    # ------------------------------------------------------------------

    def dump(self):
        """Flat ``{name: value}`` dict (the ``statz`` reply payload)."""
        return dict(self.registry.dump())

    def format(self, pattern=None):
        return self.registry.format(pattern)
