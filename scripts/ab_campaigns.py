#!/usr/bin/env python3
"""Alternating A/B metro campaigns: a base revision against the working tree.

    scripts/ab_campaigns.py --base REV [--workloads W ...] [--pairs N]
                            [--seed S] [--require-same-digest]

Builds the metrobench campaign driver twice under .bench_build/ab/, with
metrobench/run.py's CMake settings: once from a `git archive` export of REV
and once from the working tree. Then, per workload, runs N pairs of fresh
`--mode clean` processes, one campaign per process, alternating which side
goes first from pair to pair, so both sides of a pair run seconds apart
instead of a whole 30 s run apart.

Per workload it prints each side's median and quartile distance (IQR) of
arrivals/s and its median peak RSS (the driver's ru_maxrss, which starts
from this interpreter's resident set, as in metrobench/run.py), the median
per-pair ratio (working tree over base), the pairs the working tree won,
and whether the gap between the medians exceeds the base's IQR. It prints
both sides' report digests (a mismatch exits 1 with --require-same-digest)
and the range of the 1-minute /proc/loadavg read beside the runs, so a
spread widened by other load on the host shows as such. Every campaign's
record goes to .bench_build/ab/results/.

--seed sets the seed of every selected workload; the default is each
workload's default_seed from metrobench/workloads.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".bench_build" / "ab"
PROCESS_TIMEOUT_S = 150


def fail(message):
    print(f"ab_campaigns: {message}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def export_base(sha):
    """A clean export of the base revision's tree (no .git, no build cache)."""
    tree = AB_DIR / f"base-{sha[:12]}" / "tree"
    if (tree / "metrobench" / "CMakeLists.txt").exists():
        return tree
    if tree.exists():
        shutil.rmtree(tree)
    tree.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        shutil.rmtree(tree)
        fail(f"cannot export {sha}")
    return tree


def build(source_root, build_dir):
    """Configures and builds metrobench as metrobench/run.py does."""
    source = source_root / "metrobench"
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={source}\n" not in cache.read_text():
        shutil.rmtree(build_dir)
    steps = []
    if not cache.exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(source), "-B", str(build_dir), *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail(f"build of {source} failed")
    return build_dir / "metrobench"


def loadavg():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def campaign(binary, workload, seed):
    """One clean campaign in a fresh process: its JSON record plus load."""
    load = loadavg()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--mode", "clean"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: campaign timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{workload}: campaign exited with {done.returncode}: {' '.join(cmd)}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    if record["failed"] != 0 or record["violations"]:
        fail(f"{workload}: campaign failed its checks: {record['violations']}")
    record["arrivals_per_s"] = record["arrivals"] / record["wall_s"]
    record["loadavg"] = load
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def mega(v):
    return f"{v / 1e6:.3f}M"


def compare(binaries, workload, seed, pairs):
    """Runs `pairs` alternating pairs; prints and returns the summary."""
    runs = {"base": [], "work": []}
    ratios = []
    print(f"# {workload} seed={seed}: {pairs} alternating pairs of clean campaigns")
    for i in range(pairs):
        order = ("base", "work") if i % 2 == 0 else ("work", "base")
        pair = {side: campaign(binaries[side], workload, seed) for side in order}
        for side in order:
            runs[side].append(pair[side])
        ratio = pair["work"]["arrivals_per_s"] / pair["base"]["arrivals_per_s"]
        ratios.append(ratio)
        print(f"pair {i + 1:3d} {order[0]:4s} first  base {mega(pair['base']['arrivals_per_s'])}/s"
              f"  work {mega(pair['work']['arrivals_per_s'])}/s  ratio {ratio:.3f}"
              f"  load {pair[order[0]]['loadavg']:.2f}/{pair[order[1]]['loadavg']:.2f}",
              flush=True)

    summary = {"workload": workload, "seed": seed, "pairs": pairs}
    for side in ("base", "work"):
        rate = [r["arrivals_per_s"] for r in runs[side]]
        q1, q3 = quartiles(rate)
        summary[side] = {
            "median": statistics.median(rate),
            "q1": q1,
            "q3": q3,
            "iqr": q3 - q1,
            "rss_kb_median": statistics.median(r["rss_kb"] for r in runs[side]),
            "digests": sorted({r["digest"] for r in runs[side]}),
        }
        s = summary[side]
        print(f"{side:4s}  arrivals/s median {mega(s['median'])}  IQR {mega(s['iqr'])}"
              f" [{mega(q1)}, {mega(q3)}]  rss median {s['rss_kb_median']:.0f} kB")
    wins = sum(1 for r in ratios if r > 1.0)
    gap = summary["work"]["median"] - summary["base"]["median"]
    loads = [r["loadavg"] for side in runs.values() for r in side]
    summary.update({
        "ratio_median": statistics.median(ratios),
        "wins": wins,
        "gap": gap,
        "gap_exceeds_base_iqr": abs(gap) > summary["base"]["iqr"],
        "loadavg_range": [min(loads), max(loads)],
        "same_digest": summary["base"]["digests"] == summary["work"]["digests"],
    })
    print(f"per-pair ratio median {summary['ratio_median']:.3f}, wins {wins}/{pairs}")
    print(f"median gap {mega(gap)}/s {'exceeds' if summary['gap_exceeds_base_iqr'] else 'is within'}"
          f" the base IQR {mega(summary['base']['iqr'])}/s")
    print(f"digest base {','.join(summary['base']['digests'])}"
          f" work {','.join(summary['work']['digests'])}:"
          f" {'same' if summary['same_digest'] else 'DIFFERENT'}")
    print(f"loadavg (1 min) {min(loads):.2f}-{max(loads):.2f}")
    return summary, runs


def main():
    workloads = json.loads((ROOT / "metrobench" / "workloads.json").read_text())["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the base revision (any git rev)")
    parser.add_argument("--workloads", nargs="+", choices=sorted(workloads),
                        default=sorted(workloads))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, help="default: each workload's default_seed")
    parser.add_argument("--require-same-digest", action="store_true",
                        help="exit 1 when the two sides' report digests differ")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    print(f"# base {args.base} = {sha[:12]}; work = the working tree of {ROOT}", flush=True)
    binaries = {
        "base": build(export_base(sha), AB_DIR / f"base-{sha[:12]}" / "build"),
        "work": build(ROOT, AB_DIR / "work" / "build"),
    }

    results_dir = AB_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    mismatch = []
    for workload in args.workloads:
        seed = workloads[workload]["default_seed"] if args.seed is None else args.seed
        summary, runs = compare(binaries, workload, seed, args.pairs)
        summary["base_rev"] = sha
        (results_dir / f"{workload}-seed{seed}-{stamp}.json").write_text(
            json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
        print(json.dumps(summary), flush=True)
        if not summary["same_digest"]:
            mismatch.append(workload)
    if mismatch and args.require_same_digest:
        fail(f"report digests differ on {', '.join(mismatch)}")


if __name__ == "__main__":
    main()
