#!/usr/bin/env python3
"""Metro campaign benchmark for vodbcast.

Builds the library and the campaign driver from source with CMake, runs one
workload for --seconds seconds with one fresh process per campaign, checks
every campaign's output, and prints the metrics as the last line of stdout:

    python3 metrobench/run.py --workload sb_metro --seed 7 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced replay instead and reports the per-layer metrics. Workload
parameters, seeds and the layer predictions are in metrobench/workloads.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up takes well under a millisecond, so one run times it in many fresh
# processes, spread over the run so that one busy moment on the host does
# not move them all, and reports the median.
SETUP_PROCESSES = 41
SETUP_PER_CAMPAIGN = 5
MIN_CAMPAIGNS = 3
PROCESS_TIMEOUT_S = 150


def fail(message):
    print(f"metrobench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the driver; returns the binary path."""
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(build_dir)
    steps = []
    if not cache.exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir), *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail("build failed")
    return build_dir / "metrobench"


def source_digest():
    """sha256 over the library sources and this benchmark, path by path."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def launch(binary, workload, seed, mode, extra=()):
    """One driver process; returns its JSON object, or None if it failed."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--mode", mode, *extra]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"metrobench: {mode} process timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"metrobench: {mode} process exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"metrobench: unreadable {mode} output", file=sys.stderr)
        return None


class Tally:
    """Arrivals attempted and failed, and why, over every campaign of a run."""

    def __init__(self, nominal_arrivals):
        self.nominal = nominal_arrivals
        self.attempted = 0
        self.failed = 0
        self.violations = []
        self.digest = None

    def crashed(self, what):
        # A crashed or aborted campaign counts all of its arrivals as failed.
        self.attempted += self.nominal
        self.failed += self.nominal
        self.violations.append(f"{what} crashed")

    def count(self, outcome, what):
        self.attempted += outcome["arrivals"]
        self.failed += outcome["failed"]
        self.violations += [f"{what}: {v}" for v in outcome["violations"]]
        # Every campaign of one run has the same seed, so the same report.
        if self.digest is None:
            self.digest = outcome["digest"]
        elif outcome["digest"] != self.digest and outcome["failed"] == 0:
            self.failed += outcome["arrivals"]
            self.violations.append(f"{what}: report digest differs within the run")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, help="default: the workload's default_seed")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = workloads[args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be non-negative")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve() / "metrobench"
    binary = build(build_dir)

    tally = Tally(spec["nominal_arrivals"])
    runs = []
    start = time.monotonic()
    setup = []

    def time_setup(processes):
        for _ in range(processes):
            result = launch(binary, args.workload, seed, "setup")
            if result is None:
                fail("set-up process failed")
            setup.append(result["setup_s"])

    spans_dir = build_dir / "spans"
    if args.trace:
        spans_dir.mkdir(exist_ok=True)
    while len(runs) < (1 if args.trace else MIN_CAMPAIGNS) or time.monotonic() - start < args.seconds:
        index = len(runs)
        if args.trace:
            spans = spans_dir / f"{args.workload}-seed{seed}-{index}.jsonl"
            result = launch(binary, args.workload, seed, "traced", ["--spans-out", str(spans)])
        else:
            time_setup(SETUP_PER_CAMPAIGN)
            result = launch(binary, args.workload, seed, "clean")
        if result is None:
            tally.crashed(f"campaign {index}")
            runs.append(None)
            continue
        tally.count(result, f"campaign {index}")
        if args.trace:
            tally.count(result["traced"], f"traced campaign {index}")
        runs.append(result)
    if args.trace == 0:
        time_setup(max(0, SETUP_PROCESSES - len(setup)))
    if spec["cross_check"]:
        result = launch(binary, args.workload, seed, "clean", ["--cross-check"])
        if result is None:
            tally.crashed("cross-check campaign")
        else:
            tally.count(result, "cross-check campaign")
    measured = time.monotonic() - start

    done = [r for r in runs if r is not None]
    if not done:
        fail("every campaign failed")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        extra = set(done[0]["traced"]["layers"]) - set(names)
        if extra:
            fail(f"layer metrics missing from BENCHMARK.json: {sorted(extra)}")
        values = {name: statistics.median(r["traced"]["layers"].get(name, 0.0) for r in done)
                  for name in names}
    else:
        values = {
            "arrivals_per_s": statistics.median(r["arrivals"] / r["wall_s"] for r in done),
            # The worst campaign's peak: with pool workers, which thread
            # allocates what varies between processes, and the max is steady.
            "peak_rss_mb": max(r["rss_kb"] / 1024.0 for r in done),
            "setup_s": statistics.median(setup),
        }
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    flags = done[0]["build"]["flags"]
    optimized = "-O" in flags and "-O0" not in flags and "sanitize" not in flags
    if not optimized:
        print(f"metrobench: WARNING: unoptimized or sanitizer build ({flags!r});"
              " these numbers are not comparable", file=sys.stderr)
    provenance = {
        "workload": args.workload,
        "seed": seed,
        "default_seed": spec["default_seed"],
        "heldout_seed": spec["heldout_seed"],
        "trace": args.trace,
        "campaigns": len(runs),
        "one_process_per_campaign": True,
        "threads": done[0]["threads"],
        "nproc": os.cpu_count(),
        "build": {**done[0]["build"], "optimized": optimized},
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "measured_s": round(measured, 3),
        "violations": tally.violations,
    }
    print(f"# {args.workload} seed={seed} trace={args.trace}: {len(runs)} campaign(s),"
          f" {done[0]['threads']} thread(s), nproc={os.cpu_count()}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':28s} {tally.failed / max(tally.attempted, 1):.6g}"
          f" ({tally.failed} failed / {tally.attempted} arrivals)")
    result = {
        "correct": tally.failed == 0 and not tally.violations,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }
    # The full record, with every campaign's own numbers, for later analysis.
    results_dir = build_dir / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"provenance": provenance, "result": result, "campaigns": runs, "setup_s": setup}
    (results_dir / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
