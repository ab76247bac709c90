#!/usr/bin/env python3
"""Run interleaved benchmark pairs of two checkouts and summarise them.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload olxp_serve [--workload sql_sweep ...] --pairs 10 \\
        [--seed 7] [--seconds 25] [--digest-seeds 777001 ...] \\
        --out BENCH_<n>.json [--pr N] [--desc TEXT] [--host TEXT]

Each pair runs `python3 rcbench/run.py --workload W --seed S
--seconds T --trace 0` once in the parent checkout and once in the
change checkout, one after the other. Odd pairs run the parent first,
even pairs the change first, so a slow phase of a shared host does
not always land on the same side. Every run builds its own checkout
first (rcbench/run.py does that), outside the timed passes.

The output JSON holds, per workload:
  - pairs: each side's end-to-end metrics, digest, failed and
    attempted operation counts;
  - summary: per metric, each side's median and inclusive quartiles,
    the relative change of the medians, the parent's interquartile
    range, and how many pairs the change won (the direction comes
    from the change checkout's BENCHMARK.json);
  - digest_identical_every_pair and the summed failed operations.
With --digest-seeds, each side also runs once per extra seed (with
--seconds 1, so a single pass) and the digests land under "digests".
An existing --out file is updated: workloads not run this time keep
their entries.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(checkout, workload, seed, seconds):
    """Run the benchmark once in @p checkout; return its parsed result."""
    cmd = [sys.executable, "rcbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("bench_pairs.py: run failed in %s: %s (exit %d)"
                 % (checkout, " ".join(cmd), done.returncode))
    digest = None
    for line in lines:
        fields = line.split()
        if len(fields) == 3 and fields[0] == "digest":
            digest = fields[2]
    result = json.loads(lines[-1])
    side = {name: round(m["value"], 6)
            for name, m in result["metrics"].items()}
    side["digest"] = digest
    side["failed"] = result["failed"]
    side["attempted"] = result["attempted"]
    return side


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6)}


def summarise(pairs, metrics):
    """Per-metric medians, quartiles and win counts over @p pairs."""
    summary = {}
    for name, better in metrics:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum(1 for a, b in zip(parent, change)
                   if (b < a if better == "lower" else b > a))
        ps, cs = quartiles(parent), quartiles(change)
        frac = ((cs["median"] - ps["median"]) / ps["median"]
                if ps["median"] else 0.0)
        summary[name] = {
            "parent": ps,
            "change": cs,
            "median_change_frac": round(frac, 4),
            "parent_iqr": round(ps["q3"] - ps["q1"], 6),
            "pairs_better": "%d/%d" % (wins, len(pairs)),
        }
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--digest-seeds", type=int, nargs="*", default=[])
    ap.add_argument("--out", required=True)
    ap.add_argument("--pr", type=int)
    ap.add_argument("--desc")
    ap.add_argument("--host")
    args = ap.parse_args()
    if args.pairs < 2:
        sys.exit("bench_pairs.py: --pairs must be at least 2")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]

    report = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            report = json.load(f)
    for key, value in (("pr", args.pr), ("change", args.desc),
                       ("host", args.host)):
        if value is not None:
            report[key] = value
    report["method"] = (
        "python3 rcbench/run.py --workload W --seed %d --seconds %d "
        "--trace 0, run by tools/bench_pairs.py on the parent commit and "
        "on this change from separate checkouts, one after the other; "
        "odd pairs run the parent first, even pairs the change first. "
        "pass_s and setup_s are CPU seconds scaled to the reference "
        "speed (rcbench/README.md). Quartiles are inclusive."
        % (args.seed, args.seconds))
    workloads = report.setdefault("workloads", {})
    digests = report.setdefault("digests", {})

    for workload in args.workload:
        pairs = []
        for n in range(1, args.pairs + 1):
            order = ["parent", "change"] if n % 2 else ["change", "parent"]
            sides = {}
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                sides[side] = run_side(checkout, workload, args.seed,
                                       args.seconds)
            print("%s pair %d: pass_s parent %.4f change %.4f" %
                  (workload, n, sides["parent"]["pass_s"],
                   sides["change"]["pass_s"]), file=sys.stderr)
            pairs.append({"pair": n, "order": order[0] + "_first",
                          "parent": sides["parent"],
                          "change": sides["change"]})
        workloads[workload] = {
            "pairs": pairs,
            "summary": summarise(pairs, metrics),
            "digest_identical_every_pair": all(
                p["parent"]["digest"] == p["change"]["digest"]
                for p in pairs),
            "failed_ops": {
                side: sum(p[side]["failed"] for p in pairs)
                for side in ("parent", "change")},
        }
        seeds = digests.setdefault(workload, {})
        seeds["seed_%d" % args.seed] = {
            "parent": pairs[0]["parent"]["digest"],
            "change": pairs[0]["change"]["digest"]}
        for seed in args.digest_seeds:
            seeds["seed_%d" % seed] = {
                side: run_side(checkout, workload, seed, 1)["digest"]
                for side, checkout in (("parent", args.parent),
                                       ("change", args.change))}
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
