#!/usr/bin/env python3
"""Compares two sets of perfbench results taken as interleaved pairs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by `perfbench/run.py --out`. The host's
speed drifts over minutes, so two sets are only comparable when their runs
are interleaved: for each workload, the untraced runs of both files, ordered
by start time and taken two at a time, must each time give one BASE and one
NEW run with the same seed. Which side runs first should alternate from pair
to pair; perfbench/README.md shows the loop that collects them. The comparison is refused otherwise, and also
when any two records carry different fingerprints (host or build flags), when
their --seconds differ, or when a run failed a correctness check. A pair in
which either run's open-loop generator fell behind its schedule measured no
defined load and is left out.

For every workload and end-to-end metric in BENCHMARK.json it prints each
side's median and quartiles, the median of the per-pair changes NEW/BASE - 1,
the quartile spread of those changes, and a verdict: `regressed` when the
median change is worse than the metric's bound, `unresolved` when the spread
of the changes is wider than the bound, and `ok` otherwise. The exit code is
1 when anything regressed.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def refuse(msg):
    print("compare: refused: " + msg, file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def pairs_for(workload, sides):
    """Time-ordered (base, new) pairs of one workload's untraced runs."""
    runs = sorted(((r["started"], i, r) for i, s in enumerate(sides) for r in s
                   if r["workload"] == workload and r["trace"] == 0),
                  key=lambda t: t[0])
    order = [i for _, i, _ in runs]
    if len(runs) % 2 or any(order[k] == order[k + 1] for k in range(0, len(runs), 2)):
        refuse("%s: the runs, in time order, do not form BASE/NEW pairs (order: %s)"
               % (workload, "".join("BN"[i] for i in order)))
    pairs = []
    for k in range(0, len(runs), 2):
        a, b = runs[k][2], runs[k + 1][2]
        base, new = (a, b) if order[k] == 0 else (b, a)
        if base["seed"] != new["seed"]:
            refuse("%s: pair %d has seeds %d and %d"
                   % (workload, k // 2 + 1, base["seed"], new["seed"]))
        pairs.append((base, new))
    return pairs


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sides = [load(sys.argv[1]), load(sys.argv[2])]
    records = [r for s in sides for r in s]

    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True) for r in records}
    if len(fingerprints) != 1:
        refuse("results come from different hosts or builds:\n  " + "\n  ".join(sorted(fingerprints)))
    seconds = {r["seconds"] for r in records}
    if len(seconds) != 1:
        refuse("runs measured for different --seconds: %s" % sorted(seconds))
    for path, side in zip(sys.argv[1:], sides):
        for r in side:
            if not r["result"]["correct"]:
                refuse("%s: %s seed %d failed a correctness check" % (path, r["workload"], r["seed"]))

    regressed = False
    for workload in sorted({r["workload"] for r in records if r["trace"] == 0}):
        pairs = []
        for base, new in pairs_for(workload, sides):
            if base["valid"] and new["valid"]:
                pairs.append((base, new))
            else:
                print("%s seed %d: pair left out: an open-loop phase was invalid"
                      % (workload, base["seed"]))
        if not pairs:
            print("%s: no valid pairs" % workload)
            continue
        print("%s (%d interleaved pairs)" % (workload, len(pairs)))
        for m in metrics:
            name = m["name"]
            base = [b["result"]["metrics"][name]["value"] for b, _ in pairs]
            new = [n["result"]["metrics"][name]["value"] for _, n in pairs]
            changes = [n / b - 1.0 for b, n in zip(base, new)]
            b1, bm, b3 = quartiles(base)
            n1, nm, n3 = quartiles(new)
            c1, change, c3 = quartiles(changes)
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                verdict = "regressed"
                regressed = True
            elif c3 - c1 > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("  %-12s %-6s base %.5g [%.5g, %.5g]  new %.5g [%.5g, %.5g]  "
                  "change %+.1f%% (spread %.1f%%)  bound %.0f%%  %s"
                  % (name, m["unit"], bm, b1, b3, nm, n1, n3, 100 * change,
                     100 * (c3 - c1), 100 * m["bound"], verdict))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
