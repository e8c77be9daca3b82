"""Branch Trace Cache (BrTC).

"The BrTC captures the dynamic control flow sequence of a program and
constructs future lookahead paths across multiple BBs" (Section IV-B1).
Indexed by the :func:`~repro.core.hashing.bb_hash` of (branch PC,
direction, target) -- i.e. by the basic block being *entered* -- each
entry names the branch that *ends* that block and that branch's taken
target, which is everything the lookahead needs to take the next step.
Entries are installed at commit time only.

Each slot holds that step as one record, ``(end_pc, taken_target,
taken_hash, not_taken_hash)``: the two hashes key the block entered on
either outcome of the ending branch, so a lookahead walk moves to its
next BrTC/MHT index without hashing (``taken_hash`` is None while the
taken target is unknown).
"""

from repro.core.hashing import bb_hash


def _step(end_branch_pc, taken_target):
    """The step record of a block ending at *end_branch_pc*."""
    return (
        end_branch_pc,
        taken_target,
        (bb_hash(end_branch_pc, True, taken_target)
         if taken_target is not None else None),
        bb_hash(end_branch_pc, False, end_branch_pc + 4),
    )


class BranchTraceCache:
    """Direct-mapped BrTC with 32-bit branch-PC tags."""

    def __init__(self, entries=256):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self.tags = [None] * entries
        self.steps = [None] * entries  # step record per valid slot
        self.lookups = 0
        self.hits = 0

    def lookup(self, index_hash, tag):
        """Return ``(end_branch_pc, taken_target)`` for the block keyed by
        *index_hash*, or None on miss/tag mismatch."""
        self.lookups += 1
        slot = index_hash & self._mask
        if self.tags[slot] != tag:
            return None
        self.hits += 1
        return self.steps[slot][:2]

    def update(self, index_hash, tag, end_branch_pc, taken_target):
        """Commit-time install: the block keyed by *index_hash* ends at
        *end_branch_pc* whose taken target is *taken_target* (None when it
        has not been observed, e.g. an indirect branch never seen taken)."""
        slot = index_hash & self._mask
        if self.tags[slot] == tag:
            step = self.steps[slot]
            if step[0] == end_branch_pc and (
                    taken_target is None or taken_target == step[1]):
                return  # unchanged, or keep a known target over None
        self.tags[slot] = tag
        self.steps[slot] = _step(end_branch_pc, taken_target)

    @property
    def hit_rate(self):
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self):
        """BrTC contents and counters as a JSON-safe structure."""
        steps = self.steps
        return {
            "tags": list(self.tags),
            "end_branch_pc": [0 if step is None else step[0]
                              for step in steps],
            "end_taken_target": [None if step is None else step[1]
                                 for step in steps],
            "lookups": self.lookups,
            "hits": self.hits,
        }

    def restore(self, state):
        """Restore BrTC state from :meth:`snapshot` output, rebuilding
        the step record of every valid slot."""
        self.tags = list(state["tags"])
        self.steps = [
            None if tag is None else _step(end_branch_pc, taken_target)
            for tag, end_branch_pc, taken_target in zip(
                self.tags, state["end_branch_pc"],
                state["end_taken_target"])
        ]
        self.lookups = state["lookups"]
        self.hits = state["hits"]

    def storage_bits(self):
        # tag(32) + end branch PC(32) + target(32) + valid  (Table I: 2.06KB
        # at 256 entries assumes the paper's 32-bit-folded fields; ours adds
        # an explicit target per the indirect-branch extension)
        return self.entries * (32 + 32 + 1)
