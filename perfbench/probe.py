"""Host-speed probe: a fixed pure-Python kernel timed between operations.

The benchmark's host is a few virtual CPUs of a shared machine, and how
fast they run moves with the neighbours' load: the same pass over a
workload took anywhere from 1.7 s to 3.2 s within a few minutes, with
CPU time equal to wall time.  A slow spell lasts from seconds to
minutes, so it covers whole repetitions and no statistic over the
repetitions of one run filters it out.

:class:`OpClock` times a fixed kernel -- interpreter work of the kind
the simulator does (attribute reads on ``__slots__`` objects, method
calls, dict updates, a pointer chase over a ring of 20,000 objects) that
never touches the repository's code -- between the operations, which
tells how fast the host ran during each; :meth:`OpClock.scaled`
multiplies each operation's latency by ``PROBE_REF_S`` over the probes'
time, giving host seconds at the speed where the probe takes
``PROBE_REF_S``.  A change to the program moves the scaled figures as
much as the raw ones; only the host's speed drops out.  (On a 2-vCPU
host, kernels of this kind correlated 0.93-0.96 with the simulator's
pass time across repetitions, and the simulator slowed by 0.6-0.75 of a
kernel's slowdown, so a slow spell still lowers the scaled latencies a
little.)
"""

import random
import statistics
import time

# the probe's duration at the host speed the scaled times refer to
PROBE_REF_S = 0.007
# how far from an operation a probe may be and still judge its speed
WINDOW_S = 0.1
# quick operations (cache hits served in a millisecond) share probes
PROBE_EVERY_S = 0.05

RING_NODES = 20_000
CHASE_STEPS = 6_000
DICT_STEPS = 8_000
CACHE_ACCESSES = 1_500


class _Node(object):
    __slots__ = ("value", "next")


class _Way(object):
    __slots__ = ("tag", "stamp", "dirty")

    def __init__(self):
        self.tag = -1
        self.stamp = 0
        self.dirty = False


class _Cache(object):
    """A small set-associative LRU cache."""

    def __init__(self, sets, ways):
        self.sets = [[_Way() for _ in range(ways)] for _ in range(sets)]
        self.mask = sets - 1
        self.clock = 0
        self.hits = 0

    def access(self, addr, write):
        self.clock += 1
        line = addr >> 6
        ways = self.sets[line & self.mask]
        tag = line >> 6
        for way in ways:
            if way.tag == tag:
                way.stamp = self.clock
                way.dirty = way.dirty or write
                self.hits += 1
                return True
        victim = min(ways, key=lambda way: way.stamp)
        victim.tag = tag
        victim.stamp = self.clock
        victim.dirty = write
        return False


def _ring():
    rng = random.Random(1)
    nodes = [_Node() for _ in range(RING_NODES)]
    order = list(range(RING_NODES))
    rng.shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].next = nodes[there]
        nodes[here].value = there
    return nodes[0]


_RING = []


def kernel():
    """The probe's fixed work; returns a checksum."""
    if not _RING:
        _RING.append(_ring())
    node = _RING[0]
    acc = 0
    for _ in range(CHASE_STEPS):
        acc += node.value
        node = node.next
    table = dict.fromkeys(range(1024), 0)
    for i in range(DICT_STEPS):
        table[i & 1023] = i
        acc += table[(i * 7) & 1023] ^ (i >> 3)
    cache = _Cache(64, 4)
    state = 12345
    for i in range(CACHE_ACCESSES):
        state = (state * 1103515245 + 12345) & 0x7fffffff
        addr = (state & 0xffff) if i & 3 else (i << 6) & 0xfffff
        cache.access(addr, i % 5 == 0)
    return acc + cache.hits


class OpClock(object):
    """Times consecutive operations, probing the host's speed before the
    first and after any operation that ends ``PROBE_EVERY_S`` or more
    after the last probe (so a run of quick operations shares a probe).
    Probe time is not counted in any latency."""

    def __init__(self):
        kernel()  # build the ring outside any probe
        self.spans = []  # (start, end) of each operation
        self.probes = []  # (midpoint, seconds) of each probe
        self._probe()
        self._start = time.perf_counter()

    def _probe(self):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.probes.append(((start + end) / 2, end - start))

    def lap(self):
        """Close the running operation and start the next."""
        end = time.perf_counter()
        self.spans.append((self._start, end))
        if end - self.probes[-1][0] >= PROBE_EVERY_S:
            self._probe()
        self._start = time.perf_counter()

    @property
    def latencies(self):
        return [end - start for start, end in self.spans]

    def scaled(self):
        """Latencies at the reference host speed (see module doc).

        The host's speed during an operation is the median of the last
        probe before it, the first one after it and any other probe
        within ``WINDOW_S`` of it: the speed flickers at the scale of
        one probe, so two probes misjudge a short operation, while for
        a long one the probes next to it are the only ones close enough
        in time to count."""
        scaled = []
        for start, end in self.spans:
            before = [at for at, _ in self.probes if at < start]
            after = [at for at, _ in self.probes if at > end]
            low = min(start - WINDOW_S, before[-1])
            high = max(end + WINDOW_S, after[0] if after else end)
            speed = statistics.median(seconds for at, seconds in self.probes
                                      if low <= at <= high)
            scaled.append((end - start) * PROBE_REF_S / speed)
        return scaled
