#!/usr/bin/env python3
"""Diff a fresh micro_perf BENCH_perf.json against the committed one.

Rows are paired by (name, scale). Absolute milliseconds depend on the
machine, so the comparison is on each row's speedup ratio (baseline ms /
optimized ms, both measured in the same run): a fresh speedup well below
the committed one means the optimized path lost ground against its frozen
reference, wherever the run happened.

Usage:
    bench_compare.py COMMITTED FRESH

Prints one line per fresh row with both speedups and their ratio. Rows
present in only one file never fail the comparison (a smoke run covers
fewer scales than the committed file).

Exit status: 1 when any row of either file reports match=false (the
optimized path no longer reproduces its reference); 2 on unreadable input;
0 otherwise.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc["results"]:
        rows[(row["name"], row["scale"])] = row
    return doc, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("committed", help="BENCH_perf.json from the repository")
    parser.add_argument("fresh", help="BENCH_perf.json from a new micro_perf run")
    args = parser.parse_args(argv)

    try:
        old_doc, old = load(args.committed)
        new_doc, new = load(args.fresh)
    except (OSError, ValueError, KeyError) as error:
        print(f"bench_compare: cannot read input: {error}", file=sys.stderr)
        return 2

    for key in ("threads", "simd"):
        if old_doc.get(key) != new_doc.get(key):
            print(f"note: {key} differs: committed {old_doc.get(key)}, "
                  f"fresh {new_doc.get(key)}")

    failures = []
    print(f"{'case':<28} {'scale':<7} {'committed':>10} {'fresh':>10} {'ratio':>7}")
    for key in sorted(new):
        name, scale = key
        fresh = new[key]
        if not fresh["match"]:
            failures.append(f"{name}/{scale}: fresh run reports match=false")
        if key not in old:
            print(f"{name:<28} {scale:<7} {'-':>10} {fresh['speedup']:>9.2f}x "
                  f"{'':>7}  (new row)")
            continue
        committed = old[key]
        if not committed["match"]:
            failures.append(f"{name}/{scale}: committed row reports match=false")
        ratio = fresh["speedup"] / committed["speedup"] if committed["speedup"] else float("inf")
        print(f"{name:<28} {scale:<7} {committed['speedup']:>9.2f}x "
              f"{fresh['speedup']:>9.2f}x {ratio:>7.2f}")

    for name, scale in sorted(set(old) - set(new)):
        if not old[(name, scale)]["match"]:
            failures.append(f"{name}/{scale}: committed row reports match=false")
    skipped = len(set(old) - set(new))
    if skipped:
        print(f"({skipped} committed rows not in the fresh run)")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
