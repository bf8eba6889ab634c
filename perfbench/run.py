#!/usr/bin/env python3
"""Builds and runs the repository benchmark once.

    python3 perfbench/run.py --workload paper-index --seed 1 --seconds 16 --trace 0

Run it from the repository root. It builds `perfbench/` (a cargo package of
its own) in release mode into `$CARGO_TARGET_DIR`, default `.bench_build`,
runs one workload and passes its output through. The last line of standard
output is the result object `{"correct", "attempted", "failed", "metrics"}`.
A record of the run (seed, core count, commit, rustc version, result) is
written to `<target>/perfbench/runs/`. If the build or the run fails, the
script exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-index", "search-ch", "serve-open")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def commit_id():
    """The git commit if the tree is a repository, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench", "Cargo.toml"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(base)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in files
            if f.endswith((".rs", ".toml", ".py"))
        )
        for p in paths:
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build did not finish: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(target, "perfbench")
    cmd = [
        os.path.join(target, "release", "td-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", out_dir,
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"run.py: the run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "rustc": rustc_version(),
        "result": result,
    }
    runs = os.path.join(out_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(runs, name), "w") as f:
        json.dump(record, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print(f"run: seed={args.seed} nproc={record['nproc']} commit={record['commit']} "
          f"rustc={record['rustc']!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
