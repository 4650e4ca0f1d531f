#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload alltoall8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --diff old.json new.json
    python3 perfbench/run.py --describe        # prints BENCHMARK.json
    python3 perfbench/run.py --layer-map

Every file the build and the run write stays under .bench_build/ in the
repository root: the Go build cache, the binary, and the result, span
and determinism records. The binary is rebuilt only when a Go source
file of the repository changes. The exit code is the benchmark's; a
missing toolchain or a failed build exits 1 without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench", "bin", "perfbench")
STAMP = BIN + ".digest"

BUILD_TIMEOUT_S = 850


def source_digest():
    """Digest of every Go source and module file of the repository."""
    h = hashlib.sha256()
    files = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in filenames:
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                files.append(os.path.join(dirpath, name))
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        h.update(b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    for key in ("GOCACHE", "GOTMPDIR", "GOPATH", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    return env


def run_child(cmd, cwd, env, timeout=None):
    """Run cmd to completion; the child never outlives this script."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(digest, env):
    if os.path.exists(BIN) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == digest:
                return True
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: no go.mod at %s; the benchmark builds the repository's sources\n" % ROOT)
        return False
    os.makedirs(os.path.dirname(BIN), exist_ok=True)
    sys.stderr.write("perfbench: building (sources %s)\n" % digest)
    try:
        code = run_child(["go", "build", "-o", BIN, "."], HERE, env, BUILD_TIMEOUT_S)
    except FileNotFoundError:
        sys.stderr.write("perfbench: the go toolchain is not on PATH\n")
        return False
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        return False
    if code != 0:
        return False
    with open(STAMP, "w") as f:
        f.write(digest + "\n")
    return True


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(args):
    digest = source_digest()
    env = go_env()
    if not build(digest, env):
        return 1
    cmd = [BIN] + args
    if not any(a in ("--diff", "--describe", "--layer-map") for a in args):
        cmd += ["--source-digest", digest, "--commit", commit()]
    return run_child(cmd, ROOT, env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
