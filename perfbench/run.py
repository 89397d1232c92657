#!/usr/bin/env python3
"""Build and run the SENECA reproduction's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <paper-frame|clinic-mix|deploy-16m> \
        --seed <n> --seconds <n> --trace <0|1>

The benchmark is a cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. This script builds it in
release mode into $CARGO_TARGET_DIR (default: .bench_build), then runs it
with the same arguments. The benchmark's last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; this script
prints nothing to stdout itself.

Exit codes: the benchmark's own (0 ok, 1 an output check failed, 2 bad
arguments), 3 when the build fails or the repository's crates are missing,
4 when the run exceeds its time limit.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-frame", "clinic-mix", "deploy-16m")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Inputs to the build, fingerprinted so a result names the exact source.
SOURCE_ROOTS = ("crates", "shims", "perfbench/src")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", ".cargo/config.toml", "perfbench/Cargo.toml")


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in 1..600")
    return a


def git_rev(root):
    """The checked-out commit, read from .git without leaving the tree."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_fingerprint(root):
    h = hashlib.sha256()
    paths = [root / f for f in SOURCE_FILES if (root / f).is_file()]
    for d in SOURCE_ROOTS:
        for dirpath, dirnames, filenames in os.walk(root / d):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            paths += [Path(dirpath) / f for f in filenames]
    for path in sorted(paths):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    args = parse_args()
    root = Path.cwd()
    missing = [p for p in ("Cargo.toml", "crates/core/Cargo.toml", "perfbench/Cargo.toml")
               if not (root / p).is_file()]
    if missing:
        log(f"not a repository checkout (missing {', '.join(missing)}); run from its root")
        return 3

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = root / target
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", "perfbench/Cargo.toml"]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 3
    if built.returncode != 0:
        log(f"build failed with exit code {built.returncode}")
        return 3

    env["PERFBENCH_GIT_REV"] = git_rev(root)
    env["PERFBENCH_SOURCE_FINGERPRINT"] = source_fingerprint(root)
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopping it")
        proc.kill()
        proc.wait()
        return 4
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
