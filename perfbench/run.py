#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one benchmark run.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 6 --trace 0

Builds the release `comparesets` binary (root workspace) and the
`perfbench` binary (its own workspace, `perfbench/Cargo.toml`) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs `perfbench` with the
given arguments.

Both builds align every function to 64 bytes and every branch target to 32
bytes (`ALIGN_FLAGS`, appended to `$RUSTFLAGS`). Without that, where the
linker happens to place the JSON parser's hot loop decides its speed: two
builds of the same program that differed only in benchmark code measured
`recover_s` at 5.4 s and 8.9 s on the same host, and `ingest_eps` at 42
and 28 events/s. With the flags both builds measured the same (5.3 s and
5.4 s). Fixed alignment keeps a change elsewhere in the code from moving
those figures. Its last stdout line is the result object. Build
output goes to stderr. Exits non-zero, printing no result, if either build
fails, e.g. when the repository's sources are not next to `perfbench/`.
"""

import os
import subprocess
import sys

ALIGN_FLAGS = "-C llvm-args=-align-all-functions=6 -C llvm-args=-align-all-nofallthru-blocks=5"


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    rustflags = " ".join(f for f in (os.environ.get("RUSTFLAGS", ""), ALIGN_FLAGS) if f)
    env = dict(os.environ, CARGO_TARGET_DIR=target, RUSTFLAGS=rustflags)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "comparesets-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if not os.path.isfile(cmd[cmd.index("--manifest-path") + 1]):
            print(f"run.py: {cmd[cmd.index('--manifest-path') + 1]} not found", file=sys.stderr)
            return 1
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    cli = os.path.join(release, "comparesets")
    done = subprocess.run([bench, *sys.argv[1:], "--cli", cli], env=env)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
