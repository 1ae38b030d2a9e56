#!/usr/bin/env python3
"""Build and run the MithriLog benchmark from the root of a checkout.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds perfbench/ (its own Cargo workspace, with path dependencies on the
repository's crates) in release mode, runs one workload, and passes its
output through: the run record, every metric with unit and sample count,
and as the last line one JSON object with `correct`, `attempted`, `failed`
and `metrics`. The exit code is the benchmark's: non-zero on any failed
operation or oracle mismatch. Without `--workload`, every workload runs
once, one after another, and the exit code is non-zero if any run failed.

Steadiness mode:

    python3 perfbench/run.py --steadiness 10 [--seconds 20] [--workloads a,b]

runs each workload once per seed (seeds 1..N), prints each end-to-end
metric's median, quartiles and spread next to its bound, and then runs the
traced pass twice on seed 1 to check that the deterministic counts repeat.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["ingest_cold_scan", "warm_waves", "service_mixed"]
# Counts that depend only on the seed: two traced runs must agree exactly.
DETERMINISTIC = [
    "stored_bytes_per_raw_byte",
    "core.pages_planned",
    "core.pages_pruned_by_index",
    "core.pages_pruned_by_bitmap",
    "index.probe_visits_demanded",
    "index.probe_visits_physical",
    "sim.modeled_scan_gbps",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark; returns the path of its executable."""
    for need in ("Cargo.toml", "crates/core/Cargo.toml", "vendor"):
        if not (ROOT / need).exists():
            fail(f"{need} is missing: run from the root of a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target / "release" / "mithrilog-perfbench"


def record_env():
    """Commit and toolchain for the run record (the checkout may not be a
    git repository)."""
    def out(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            return r.stdout.strip() if r.returncode == 0 else "unknown"
        except OSError:
            return "unknown"
    return dict(os.environ,
                PERFBENCH_COMMIT=out(["git", "rev-parse", "--short", "HEAD"]),
                PERFBENCH_RUSTC=out(["rustc", "-V"]))


def run_once(exe, env, workload, seed, seconds, trace, capture):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(BENCH / "out")]
    if not capture:
        return subprocess.run(cmd, env=env).returncode, None
    r = subprocess.run(cmd, env=env, capture_output=True, text=True)
    return r.returncode, r.stdout


def parse(stdout):
    """The result object and every `metric name = value` line of a run."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ", 1)
            printed[name] = float(rest.split()[0])
    return result, printed


def steadiness(exe, env, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    ok = True
    for w in workloads:
        values = {}
        for seed in range(1, args.steadiness + 1):
            code, out = run_once(exe, env, w, seed, args.seconds, 0, True)
            if code != 0:
                print(out)
                fail(f"{w} seed {seed} exited {code}")
            result, _ = parse(out)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {args.steadiness} runs of {args.seconds} s, seeds 1..{args.steadiness}")
        print(f"  {'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            flag = "" if name == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
            if name != "setup_s" and spread > bound:
                ok = False
            print(f"  {name:<28}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.4f}{bound:>8.3f}{flag}")
            print("      by seed: " + " ".join(f"{v:.4g}" for v in vals))
        runs = []
        for _ in range(2):
            code, out = run_once(exe, env, w, 1, args.seconds, 1, True)
            if code != 0:
                print(out)
                fail(f"{w} traced run exited {code}")
            runs.append(parse(out)[1])
        for name in DETERMINISTIC:
            a, b = runs[0].get(name), runs[1].get(name)
            same = "repeats" if a == b else "DIFFERS"
            if a != b:
                ok = False
            print(f"  deterministic {name:<30} {a} / {b}  {same}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="RUNS")
    p.add_argument("--workloads", help="comma-separated subset for --steadiness")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    os.chdir(ROOT)
    exe = build()
    env = record_env()
    if args.steadiness is not None:
        sys.exit(steadiness(exe, env, args))
    code = 0
    for w in [args.workload] if args.workload else WORKLOADS:
        c, _ = run_once(exe, env, w, args.seed, args.seconds, args.trace, False)
        code = code or c
    sys.exit(code)


if __name__ == "__main__":
    main()
