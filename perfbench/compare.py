#!/usr/bin/env python3
"""Summarize or compare benchmark result directories.

    python3 perfbench/compare.py [--detail] DIR              # spread of one set of runs
    python3 perfbench/compare.py [--detail] BASE_DIR NEW_DIR # NEW against BASE

DIR holds the <workload>-seed<n>-trace0.json files perfbench/run.py writes
into perfbench/results/ (copy that directory aside after each commit's
runs).  For every workload and end-to-end metric this prints the median,
the quartiles and the spread (interquartile range / median) of the runs.
With two directories it also prints the change of the median as a share of
BASE's median, and marks it REGRESSION when it is worse than the metric's
bound in BENCHMARK.json, or UNRESOLVED when BASE's own spread is wider than
the bound.  --detail adds the ungated detail metrics (serve-zipf's
open-loop latencies, per-node rows); they have no bound, so only their
medians, quartiles and change are printed.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(d):
    runs = {}
    for p in sorted(glob.glob(os.path.join(d, "*-trace0.json"))):
        with open(p) as fh:
            r = json.load(fh)
        runs.setdefault(r["workload"], []).append(r)
    return runs


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    argv = sys.argv[1:]
    detail = "--detail" in argv
    argv = [a for a in argv if a != "--detail"]
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = [dict(m, key="metrics") for m in bench["end_to_end"]]
    base = load_runs(argv[0])
    new = load_runs(argv[1]) if len(argv) == 2 else None
    worst = 0
    for w in sorted(base):
        print("%s (%d runs%s)" % (w, len(base[w]),
                                  "" if new is None else
                                  " vs %d" % len(new.get(w, []))))
        failed = sum(r["failed"] for r in base[w])
        if failed:
            print("  base: %d failed operations" % failed)
        rows = list(metrics)
        if detail:
            units = {}
            for r in base[w]:
                for name, v in r["detail"].items():
                    units[name] = v["unit"]
            rows += [{"name": n, "unit": u, "key": "detail", "bound": None,
                      "better": "lower"} for n, u in sorted(units.items())]
        for m in rows:
            name, bound, key = m["name"], m["bound"], m["key"]
            vals = [r[key][name]["value"] for r in base[w] if name in r[key]]
            if not vals:
                continue
            med, q1, q3, spread = stats(vals)
            line = "  %-16s median %.6g %s  q1 %.6g  q3 %.6g  spread %.3f" % (
                name, med, m["unit"], q1, q3, spread)
            if bound is not None:
                line += " (bound %.2f)" % bound
            nvals = [r[key][name]["value"] for r in (new or {}).get(w, [])
                     if name in r[key]]
            if nvals:
                nmed = stats(nvals)[0]
                change = (nmed - med) / med if med else 0.0
                worse = change if m["better"] == "lower" else -change
                verdict = "ok"
                if bound is None:
                    verdict = ""
                elif spread > bound:
                    verdict = "UNRESOLVED"
                elif worse > bound:
                    verdict = "REGRESSION"
                    worst = 1
                line += "  -> %.6g (%+.1f%%) %s" % (nmed, 100 * change, verdict)
            print(line)
    sys.exit(worst)


if __name__ == "__main__":
    main()
