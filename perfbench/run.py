#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload publish|poll|immunity --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is compiled from source on every run (a no-op once built)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; artifacts go
to <build dir>/out. Build output goes to stderr, so the last line of
stdout is the run's JSON result; its metrics must be exactly those
BENCHMARK.json lists for the mode (end_to_end untraced, per_layer
traced), or the run fails. --selftest runs every workload briefly,
untraced and traced, with all correctness checks on, and exits non-zero
if any check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("publish", "poll", "immunity")
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-1 over the sources the benchmark builds (a checkout has no git)."""
    digest = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def local_env(build_root):
    """The environment for child processes: temporary files (the
    compiler's included) stay inside the build directory."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_root, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build(build_root):
    if not (os.path.isdir(os.path.join(ROOT, "src")) and os.path.isfile(
            os.path.join(ROOT, "tools", "communix_server_main.cpp"))):
        fail("run from the root of a checkout: src/ and tools/ are missing")
    build_dir = os.path.join(build_root, "perfbench")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", BUILD_JOBS,
         "--target", "perfbench", "communix_server"],
    ]
    env = local_env(build_root)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir


def run_once(build_dir, out_dir, workload, seed, seconds, trace):
    env = local_env(os.path.dirname(build_dir))
    env["PERFBENCH_GIT_COMMIT"] = git_commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--server-bin",
           os.path.join(build_dir, "communix_server"), "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env)
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with %d" % proc.returncode)
    return lines


def check_manifest(line, trace):
    """The result's metrics, in order and unit, are the manifest's."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = [(m["name"], m["unit"])
            for m in manifest["per_layer" if trace else "end_to_end"]]
    metrics = json.loads(line)["metrics"]
    got = [(name, m["unit"]) for name, m in metrics.items()]
    if got != want:
        fail("printed metrics %s differ from BENCHMARK.json's %s" % (got, want))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build(build_root)
    out_dir = os.path.join(build_root, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.selftest:
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                line = run_once(build_dir, out_dir, workload, args.seed, 2,
                                trace)[-1]
                check_manifest(line, trace)
                result = json.loads(line)
                print("%-9s trace=%d correct=%s attempted=%d failed=%d" %
                      (workload, trace, result["correct"],
                       result["attempted"], result["failed"]))
                ok = ok and result["correct"] and result["failed"] == 0
        print("selftest " + ("passed" if ok else "FAILED"))
        sys.exit(0 if ok else 1)

    lines = run_once(build_dir, out_dir, args.workload, args.seed,
                     args.seconds, args.trace)
    check_manifest(lines[-1], args.trace)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
