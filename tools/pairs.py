"""Paired benchmark runs: the working tree against another revision, one
workload, in alternating pairs.

    python3 tools/pairs.py --against REV --workload W [--pairs 10] [--seed 1]

Run from the root of a rigline checkout. REV is cloned from this repository
with a local `git clone`; nothing is fetched. The working tree's tracked
files (as they are on disk, edits included) are copied beside the clone.
The two copies sit in sibling directories whose names have the same length,
`parent` and `change`, because `stages` `peak_rss_mb` follows the length of
the checkout's path. Each pair runs `perfbench/run.py --trace 0` once in
each copy, with the same workload and seed, for the `run_seconds` that
BENCHMARK.json sets; the first pair runs the parent first, the next the
change first, and so on.

For every metric of the result line it prints both sides' medians and
quartiles (`statistics.quantiles`, exclusive method), the pairs the change
wins (by the metric's `better` direction in BENCHMARK.json; ties count for
neither side), and whether the medians differ by more than the parent's
quartile distance; then every pair's values. The exit status is 1 when any
run is incorrect or fails, else 0.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from revision import ROOT, clone_rev

SIDES = ("parent", "change")


def copy_tracked(src, dst):
    """Copy the files git tracks in src, as they are on disk, into dst."""
    names = subprocess.run(["git", "-C", src, "ls-files", "-z"], capture_output=True,
                           check=True).stdout.decode().split("\0")
    for name in filter(None, names):
        if os.path.isfile(os.path.join(src, name)):
            os.makedirs(os.path.dirname(os.path.join(dst, name)), exist_ok=True)
            shutil.copy2(os.path.join(src, name), os.path.join(dst, name))


def bench_run(tree, args, seconds):
    """The result object of one benchmark run in tree, or None when the run
    exits non-zero or reports itself incorrect."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return result


def quartiles(values):
    """(first quartile, median, third quartile); one value is all three."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def report(results, better):
    """The summary lines for the per-side lists of result objects."""
    names = list(results["parent"][0]["metrics"])
    row = "{:<13} {:>5} {:>10} {:<22} {:>10} {:<22} {:>11} {:>16}"
    lines = [row.format("metric", "unit", "parent", "[q1, q3]", "change", "[q1, q3]",
                        "change wins", "gap > parent IQR")]
    for name in names:
        base, new = ([r["metrics"][name]["value"] for r in results[s]] for s in SIDES)
        (b1, bm, b3), (n1, nm, n3) = quartiles(base), quartiles(new)
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
        lines.append(row.format(
            name, results["parent"][0]["metrics"][name]["unit"], f"{bm:.6g}",
            f"[{b1:.6g}, {b3:.6g}]", f"{nm:.6g}", f"[{n1:.6g}, {n3:.6g}]",
            f"{wins}/{len(base)}", "yes" if abs(nm - bm) > b3 - b1 else "no"))
    lines.append("pairs (parent -> change):")
    for i, (b, n) in enumerate(zip(results["parent"], results["change"])):
        lines.append(f"  {i + 1:>2} " + ", ".join(
            f"{name} {b['metrics'][name]['value']:.6g} -> {n['metrics'][name]['value']:.6g}"
            for name in names))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    results = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="rigline_pairs_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        rev = clone_rev(args.against, trees["parent"])
        copy_tracked(ROOT, trees["change"])
        print(f"workload {args.workload}, seed {args.seed}, {spec['run_seconds']:g} s runs, "
              f"{args.pairs} pairs: working tree against {rev}", flush=True)
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result = bench_run(trees[side], args, spec["run_seconds"])
                if result is None:
                    print(f"pair {i + 1}: the {side} run is incorrect")
                    return 1
                results[side].append(result)
            print(f"pair {i + 1} done", flush=True)
    print("\n".join(report(results, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
