#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (a Cargo workspace of its own that depends
on the repository's crates by path) into `$CARGO_TARGET_DIR`, default
`.bench_build`, then runs it. The last line of standard output is the
result object; build output goes to standard error. `--bless` rewrites the
committed digests from a default-seed run.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
# A run must end within 180 s; leave room for start-up and output.
RUN_TIMEOUT_S = 170


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", BENCH / "src"):
        sources.extend(p for p in top.rglob("*") if p.is_file())
    for path in sorted(p for p in sources if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--bless", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print("perfbench: the repository's crates are missing", file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(BENCH / "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [
        str(target / "release" / "perfbench"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        args.trace,
        "--rev",
        source_revision(),
    ]
    if args.bless:
        command.append("--bless")
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
