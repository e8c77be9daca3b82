"""Compare two sets of benchmark run records, workload by workload.

Usage (from the repository root)::

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds run records written by ``run.py`` (it writes them
to ``.perfbench/results/``; copy them aside between the two commits).
For every (workload, metric) pair present on both sides it prints the
median of each side, the relative change, and the measured spread of
the old side: the distance between its first and third quartiles, or
its max - min with fewer than four runs.  A change is flagged (``*``)
only when the medians differ by more than that spread.
"""

import json
import os
import statistics
import sys


def load(directory):
    """{(workload, trace, metric): [values]} plus units."""
    values = {}
    units = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as handle:
            record = json.load(handle)
        for metric, value in record["metrics"].items():
            key = (record["workload"], record["trace"], metric)
            values.setdefault(key, []).append(value)
            units[metric] = record["units"][metric]
    return values, units


def spread(values):
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return quartiles[2] - quartiles[0]
    return max(values) - min(values)


def compare(old, new, units):
    rows = []
    for key in sorted(set(old) & set(new)):
        workload, _trace, metric = key
        old_median = statistics.median(old[key])
        new_median = statistics.median(new[key])
        delta = new_median - old_median
        noise = spread(old[key])
        relative = delta / old_median if old_median else 0.0
        rows.append("%s %-16s %-30s %14.6g -> %-14.6g %+8.2f%%  "
                    "spread %-10.4g n=%d/%d %s" % (
                        "*" if abs(delta) > noise else " ", workload, metric,
                        old_median, new_median, 100.0 * relative, noise,
                        len(old[key]), len(new[key]), units[metric]))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, units = load(argv[0])
    new, new_units = load(argv[1])
    units.update(new_units)
    rows = compare(old, new, units)
    if not rows:
        print("no (workload, metric) pair appears on both sides",
              file=sys.stderr)
        return 1
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
