"""Regenerate ``expected_digests.json``: the payload digest of every cell.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/expected.py

Runs every single-run cell and mix run any seed can select (see
``cells.py``) on the lockstep engine with no ``REPRO_*`` knobs set, and
writes ``{cell key: sha1 of the sorted-key JSON payload}``.  The
benchmark fails any operation whose payload digest differs, so a change
that moves simulated results shows up as failed operations until the
digests are regenerated on purpose.
"""

import json
import os
import sys

import cells
from rep import digest, request_for

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    knobs = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if knobs:
        print("error: unset %s first" % ", ".join(knobs), file=sys.stderr)
        return 2
    from repro.sim.runner import ExperimentRunner

    runner = ExperimentRunner(cache_dir=None, jobs=1)
    singles = cells.all_single_cells()
    results = runner.run_many([request_for(cell) for cell in singles],
                              jobs=1)
    expected = {cell.key(): digest(result.as_dict())
                for cell, result in zip(singles, results)}
    for mix, prefetcher in cells.all_mix_runs():
        payloads = [result.as_dict() for result in
                    runner.run_mix(mix, prefetcher, cells.MIX_BUDGET)]
        expected[cells.mix_key(mix, prefetcher, cells.MIX_BUDGET)] = \
            digest(payloads)
    path = os.path.join(HERE, "expected_digests.json")
    with open(path, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d digests to %s" % (len(expected), path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
