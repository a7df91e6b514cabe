#!/usr/bin/env python3
"""Compare two sets of benchmark results, or check one set's spread.

A result set is one or more files holding the stdout of perfbench/run.py
runs. Only the "RESULT {...}" lines are read: they carry every metric of the
run, its seed, and how many requests it attempted and how many failed.

    compare.py spread SET...             spread of each end-to-end metric
    compare.py compare PARENT CHANGE     pair rule and bounds, parent vs change

`spread` prints, per workload and metric, the median and the distance
between the first and third quartile as a share of the median, and marks a
metric whose spread is not below a third of its BENCHMARK.json bound
(set-up time is reported but exempt).

`compare` pairs runs by seed and applies the choosing-metrics rule: a gain is
claimed only when the change wins at least nine tenths of the pairs (ties
count for neither) and the medians differ by more than the parent's own
quartile distance; a metric regresses when the change's median is worse
than the parent's by more than its bound; a metric whose spread exceeds its
bound is "unresolved" unless every change run beats every parent run. A
gain does not count when the change fails a larger share of its requests
than the parent on any seed: the workload is then marked MORE FAILURES and
the command exits non-zero. Every ratio is printed with its base.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


FAILED = "failed_share"  # failed / attempted requests of a run


def load(paths):
    """{workload: {seed: {metric: value}}} from the RESULT lines of run.py
    outputs, with each run's failed share under FAILED."""
    runs = {}
    for path in paths:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line.startswith("RESULT "):
                continue
            record = json.loads(line[len("RESULT "):])
            metrics = {**record["end_to_end"], **record["per_layer"]}
            values = {name: metric["value"] for name, metric in metrics.items()}
            values[FAILED] = record["failed"] / max(1, record["attempted"])
            seeds = runs.setdefault(record["workload"], {})
            seeds.setdefault(record["stamp"]["seed"], {}).update(values)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def better(direction, a, b):
    """True when a is better than b."""
    return a < b if direction == "lower" else a > b


def cmd_spread(spec, runs):
    ok = True
    for workload in sorted(runs):
        seeds = runs[workload]
        print(f"{workload}: {len(seeds)} runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [v[name] for v in seeds.values() if name in v]
            if not values:
                continue
            s = spread(values)
            limit = metric["bound"] / 3
            exempt = name == "setup_s"
            verdict = "exempt" if exempt else ("ok" if s < limit else "TOO WIDE")
            ok = ok and (exempt or s < limit)
            print(f"  {name:26s} median {statistics.median(values):14.6g} {metric['unit']:5s}"
                  f" spread {s:8.4f}  bound/3 {limit:.4f}  {verdict}")
    return 0 if ok else 1


def cmd_compare(spec, parent, change):
    worst = 0
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        more_failures = [s for s in seeds if c_runs[s][FAILED] > p_runs[s][FAILED]]
        if more_failures:
            worst = 1
        rows = []
        for metric in spec["end_to_end"]:
            name, direction, bound = metric["name"], metric["better"], metric["bound"]
            pairs = [(p_runs[s][name], c_runs[s][name]) for s in seeds
                     if name in p_runs[s] and name in c_runs[s]]
            if not pairs:
                continue
            p_vals = [p for p, _ in pairs]
            c_vals = [c for _, c in pairs]
            p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
            p_q1, _, p_q3 = quartiles(p_vals)
            wins = sum(better(direction, c, p) for p, c in pairs)
            ratio = c_med / p_med if p_med else float("inf")
            worse_by = (ratio - 1.0) if direction == "lower" else (1.0 - ratio)
            all_better = all(better(direction, c, p) for c in c_vals for p in p_vals)
            if max(spread(p_vals), spread(c_vals)) > bound and not all_better:
                verdict = "unresolved"
            elif wins >= 0.9 * len(pairs) and abs(c_med - p_med) > (p_q3 - p_q1) \
                    and better(direction, c_med, p_med):
                verdict = "void-gain" if more_failures else "gain"
            elif worse_by > bound:
                verdict = "REGRESSION"
                worst = 1
            else:
                verdict = "within bound"
            rows.append(f"    {name:26s} {verdict:12s} ratio {ratio:.4f} = change median "
                        f"{c_med:.6g} / parent median {p_med:.6g} {metric['unit']};"
                        f" wins {wins}/{len(pairs)}; parent IQR {p_q3 - p_q1:.4g};"
                        f" bound {bound}")
        verdicts = [row.split()[1] for row in rows]
        summary = ", ".join(f"{verdicts.count(v)} {v}" for v in
                            ("gain", "void-gain", "within", "unresolved", "REGRESSION")
                            if verdicts.count(v))
        print(f"{workload:16s} pairs {len(seeds):3d}  {summary}")
        if more_failures:
            print(f"    MORE FAILURES: the change fails a larger share of requests on seeds "
                  f"{more_failures}; no gain on this workload counts")
        print("\n".join(rows))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("sets", nargs="+")
    p_compare = sub.add_parser("compare")
    p_compare.add_argument("parent")
    p_compare.add_argument("change")
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text())
    if args.command == "spread":
        return cmd_spread(spec, load(args.sets))
    return cmd_compare(spec, load([args.parent]), load([args.change]))


if __name__ == "__main__":
    sys.exit(main())
