"""Per-branch confidence estimators.

B-Fetch throttles its lookahead with a *path* confidence built from
per-branch confidence estimates.  The paper (Section IV-B1) uses the
composite estimator of Jimenez [12], combining three component estimators:

* **JRS** (Jacobsen/Rotenberg/Smith): resetting counters indexed by
  ``PC xor history`` -- incremented on a correct prediction, cleared on a
  mispredict, so the counter value is the current correct-streak length for
  that (branch, history) context.
* **Up-down**: saturating counters indexed by PC that move up on correct
  and down on incorrect predictions.
* **Self counter**: tracks the branch's own outcome streak -- a strongly
  biased branch is inherently high-confidence.

Each component maps its counter to an estimated probability that the next
prediction is correct via a small calibration table; the composite averages
the three.  The absolute calibration only needs to be *monotonic and
roughly consistent* with the observed ~2.76% mispredict rate -- it yields
the paper's reported ~8-basic-block mean lookahead at the 0.75 path
threshold (checked in the test suite).
"""


def _calibration(levels, floor, ceiling):
    """Monotonic counter->probability table of *levels* entries."""
    if levels == 1:
        return [ceiling]
    step = (ceiling - floor) / float(levels - 1)
    return [floor + step * i for i in range(levels)]


class JRSEstimator:
    """Resetting-counter estimator indexed by ``PC xor global history``."""

    def __init__(self, entries=1024, counter_bits=4, history_bits=10):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.counter_bits = counter_bits
        self.max_count = (1 << counter_bits) - 1
        self.table = [0] * entries
        self._mask = entries - 1
        self._hist_mask = (1 << history_bits) - 1
        self._prob = _calibration(self.max_count + 1, 0.70, 0.97)

    def _index(self, pc, history):
        return ((pc >> 2) ^ (history & self._hist_mask)) & self._mask

    def probability(self, pc, history=0):
        """Estimated P(next prediction correct) for this (branch, history)."""
        return self._prob[self.table[self._index(pc, history)]]

    def update(self, pc, history, correct):
        index = self._index(pc, history)
        if correct:
            if self.table[index] < self.max_count:
                self.table[index] += 1
        else:
            self.table[index] = 0

    def snapshot(self):
        return {"table": list(self.table)}

    def restore(self, state):
        self.table = list(state["table"])

    def storage_bits(self):
        return self.entries * self.counter_bits


class UpDownEstimator:
    """Saturating up/down counter estimator indexed by PC."""

    def __init__(self, entries=1024, counter_bits=4):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.counter_bits = counter_bits
        self.max_count = (1 << counter_bits) - 1
        self.table = [self.max_count // 2] * entries
        self._mask = entries - 1
        self._prob = _calibration(self.max_count + 1, 0.70, 0.97)

    def probability(self, pc, history=0):
        return self._prob[self.table[(pc >> 2) & self._mask]]

    def update(self, pc, history, correct):
        index = (pc >> 2) & self._mask
        if correct:
            if self.table[index] < self.max_count:
                self.table[index] += 1
        elif self.table[index] > 0:
            self.table[index] -= 1

    def snapshot(self):
        return {"table": list(self.table)}

    def restore(self, state):
        self.table = list(state["table"])

    def storage_bits(self):
        return self.entries * self.counter_bits


class SelfCounterEstimator:
    """Outcome-streak estimator: long same-direction runs imply confidence."""

    def __init__(self, entries=1024, counter_bits=4):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.counter_bits = counter_bits
        self.max_count = (1 << counter_bits) - 1
        self.streaks = [0] * entries
        self.last_dir = [True] * entries
        self._mask = entries - 1
        self._prob = _calibration(self.max_count + 1, 0.70, 0.97)

    def probability(self, pc, history=0):
        return self._prob[self.streaks[(pc >> 2) & self._mask]]

    def update(self, pc, history, correct, taken=None):
        """Track outcome streaks; *taken* defaults to treating *correct*
        as the streak signal when the direction is not supplied."""
        index = (pc >> 2) & self._mask
        if taken is None:
            taken = correct
        if self.last_dir[index] == taken:
            if self.streaks[index] < self.max_count:
                self.streaks[index] += 1
        else:
            self.streaks[index] = 0
            self.last_dir[index] = taken

    def snapshot(self):
        return {
            "streaks": list(self.streaks),
            "last_dir": list(self.last_dir),
        }

    def restore(self, state):
        self.streaks = list(state["streaks"])
        self.last_dir = [bool(value) for value in state["last_dir"]]

    def storage_bits(self):
        return self.entries * (self.counter_bits + 1)


class CompositeConfidenceEstimator:
    """Jimenez-style composite of JRS, up-down and self-counter estimators.

    :param entries: table size for each component.  The paper's Table I
        budgets 2KB for the whole path-confidence estimator; the default
        sizes fit that budget (see :meth:`storage_bits`).
    """

    def __init__(self, entries=1024, counter_bits=4, history_bits=10):
        # split the budget: JRS gets half the entries of the others since it
        # also burns index entropy on the history hash
        self.jrs = JRSEstimator(entries, counter_bits, history_bits)
        self.updown = UpDownEstimator(entries // 2, counter_bits)
        self.selfc = SelfCounterEstimator(entries // 2, counter_bits)

    def probability(self, pc, history=0):
        """Composite P(prediction correct) -- the mean of the components.

        Reads the three component tables directly rather than calling
        each component; the sum keeps the component order, so the float
        result matches summing their ``probability`` values.
        """
        jrs = self.jrs
        updown = self.updown
        selfc = self.selfc
        index = pc >> 2
        return (
            jrs._prob[jrs.table[(index ^ (history & jrs._hist_mask))
                                & jrs._mask]]
            + updown._prob[updown.table[index & updown._mask]]
            + selfc._prob[selfc.streaks[index & selfc._mask]]
        ) / 3.0

    def update(self, pc, history, correct, taken=None):
        """Train every component with the resolved branch."""
        self.jrs.update(pc, history, correct)
        self.updown.update(pc, history, correct)
        self.selfc.update(pc, history, correct, taken)

    def snapshot(self):
        """Component estimator tables as a JSON-safe structure."""
        return {
            "jrs": self.jrs.snapshot(),
            "updown": self.updown.snapshot(),
            "selfc": self.selfc.snapshot(),
        }

    def restore(self, state):
        """Restore estimator state from :meth:`snapshot` output."""
        self.jrs.restore(state["jrs"])
        self.updown.restore(state["updown"])
        self.selfc.restore(state["selfc"])

    def storage_bits(self):
        return (
            self.jrs.storage_bits()
            + self.updown.storage_bits()
            + self.selfc.storage_bits()
        )
