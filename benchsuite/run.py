#!/usr/bin/env python3
"""Builds the benchmark when its sources changed, then runs it.

Usage, from the repository root:
    python3 benchsuite/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

`cargo run` would rebuild `mirza-bench` on every call in a checkout
without `.git` (its build script watches `.git/HEAD`), so this launcher
calls `cargo build` only when the binary is missing or older than a source
file, then replaces itself with the binary. Build output goes to stderr;
the binary's last stdout line is the result.
"""

import os
import subprocess
import sys

MANIFEST = os.path.join("benchsuite", "Cargo.toml")
SOURCE_ROOTS = ("benchsuite", "crates", "stubs")


def newest_source_mtime(target_dir):
    newest = 0.0
    target = os.path.abspath(target_dir)
    for root in SOURCE_ROOTS:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if os.path.abspath(os.path.join(dirpath, d)) != target]
            for name in filenames:
                if name.endswith((".rs", ".toml", ".lock")):
                    newest = max(newest, os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def main():
    if not os.path.isfile(MANIFEST) or not os.path.isdir("crates"):
        sys.exit("benchsuite: run from the repository root (needs benchsuite/ and crates/)")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join("benchsuite", "target")
    binary = os.path.join(target_dir, "release", "benchsuite")
    if not os.path.isfile(binary) or os.path.getmtime(binary) < newest_source_mtime(target_dir):
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            sys.exit(build.returncode)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
