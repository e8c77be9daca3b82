"""Tournament (hybrid) predictor: local + gshare with a global chooser.

This is the "6.55KB tournament predictor" of the paper's Table II.  A
``scale`` knob multiplies every table size, which is exactly how the paper
emulates "a more accurate branch predictor" in the Fig. 13 sensitivity
sweep (0.5x / default / 2x / 4x).
"""

from repro.branch.gshare import GsharePredictor
from repro.branch.local import LocalPredictor


class TournamentConfig:
    """Size parameters for :class:`TournamentPredictor`.

    Defaults (scale=1) give a 21264-flavoured predictor of roughly the
    paper's 6.55KB budget.
    """

    def __init__(
        self,
        scale=1.0,
        local_history_entries=1024,
        local_history_bits=10,
        global_entries=4096,
        global_history_bits=12,
        chooser_entries=4096,
    ):
        def scaled(value):
            result = max(16, int(value * scale))
            # round down to a power of two
            return 1 << (result.bit_length() - 1)

        self.scale = scale
        self.local_history_entries = scaled(local_history_entries)
        self.local_history_bits = local_history_bits
        self.global_entries = scaled(global_entries)
        self.global_history_bits = min(
            global_history_bits + max(0, int(scale).bit_length() - 1),
            (self.global_entries - 1).bit_length(),
        )
        self.chooser_entries = scaled(chooser_entries)


class TournamentPredictor:
    """Hybrid local/gshare predictor with a 2-bit chooser per history index.

    The chooser is trained only when the components disagree; the global
    history register lives in the embedded gshare component and is shared
    for chooser indexing, as in the 21264.
    """

    name = "tournament"

    def __init__(self, config=None):
        self.config = config or TournamentConfig()
        cfg = self.config
        self.local = LocalPredictor(cfg.local_history_entries, cfg.local_history_bits)
        self.gshare = GsharePredictor(cfg.global_entries, cfg.global_history_bits)
        self.chooser = [2] * cfg.chooser_entries  # 2 = weakly prefer global
        self._cmask = cfg.chooser_entries - 1

    @property
    def history(self):
        """Live global history register (used to seed speculative lookups)."""
        return self.gshare.history

    def predict(self, pc, history=None):
        """Predict the branch at *pc*.

        With ``history=None`` the live global history is used; passing an
        explicit *history* performs a side-effect-free speculative lookup
        (B-Fetch lookahead threading its own history down the predicted
        path).
        """
        gshare = self.gshare
        if history is None:
            history = gshare.history
        # read only the component the chooser selects, straight from its
        # tables (GsharePredictor.predict / LocalPredictor.predict)
        if self.chooser[history & self._cmask] >= 2:
            return (gshare.table[((pc >> 2) ^ history) & gshare._mask]
                    >= gshare.threshold)
        local = self.local
        pattern = local.histories[(pc >> 2) & local._hmask] & local._pmask
        return local.counters[pattern] >= local.threshold

    def update(self, pc, taken):
        """Train all components with the resolved outcome."""
        history = self.gshare.history
        local_pred = self.local.predict(pc)
        global_pred = self.gshare.predict(pc, history)
        if local_pred != global_pred:
            cindex = history & self._cmask
            count = self.chooser[cindex]
            if global_pred == taken:
                if count < 3:
                    self.chooser[cindex] = count + 1
            elif count > 0:
                self.chooser[cindex] = count - 1
        self.local.update(pc, taken)
        self.gshare.update(pc, taken)  # also shifts the global history

    def snapshot(self):
        """Component predictors and chooser as a JSON-safe structure."""
        return {
            "local": self.local.snapshot(),
            "gshare": self.gshare.snapshot(),
            "chooser": list(self.chooser),
        }

    def restore(self, state):
        """Restore predictor state from :meth:`snapshot` output."""
        self.local.restore(state["local"])
        self.gshare.restore(state["gshare"])
        self.chooser = list(state["chooser"])

    def storage_bits(self):
        return (
            self.local.storage_bits()
            + self.gshare.storage_bits()
            + len(self.chooser) * 2
        )
