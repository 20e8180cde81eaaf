#!/usr/bin/env python3
"""Build and run the libdcs end-to-end benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

The first call configures and builds the library and the `dcs_e2e` program
(Release) under $CARGO_TARGET_DIR, or `.bench_build` when it is unset; later
calls rebuild incrementally. Build output goes to standard error, so the last
line of standard output is the JSON result of `dcs_e2e`. With `--trace 1`
the per-layer metrics BENCHMARK.json lists that the workload never exercises
are added to it as 0, with their units, and named on a `# not exercised`
line; BENCHMARK.json is the one list of metric names. `--short` and
`--perturb-reference` are passed through for the benchmark's own tests
(test_bench.py). The exit code is that of `dcs_e2e`: 0 whenever it printed
its result (a wrong answer shows as "correct": false there), non-zero when
the sources are missing or the build or run failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LIBRARY_ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mixed", "cold_prepare", "stream_refresh")
RUN_TIMEOUT_S = 175


def source_id():
    """The commit when the tree is a git checkout, else a digest of the
    library sources (recorded as provenance with every result)."""
    try:
        head = subprocess.run(
            ["git", "-C", LIBRARY_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include"):
        path = os.path.join(LIBRARY_ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, LIBRARY_ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_root):
    build_dir = os.path.join(build_root, "e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    result = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "dcs_e2e", "-j", jobs],
        stdout=sys.stderr)
    if result.returncode != 0:
        return None
    return os.path.join(build_dir, "dcs_e2e")


def add_unexercised(result, per_layer):
    """Adds each per-layer metric of BENCHMARK.json that `result` lacks, as 0
    with its unit, and returns their names; None when `result` names a
    metric BENCHMARK.json does not list."""
    metrics = result["metrics"]
    listed = {m["name"]: m["unit"] for m in per_layer}
    if not set(metrics) <= set(listed):
        return None
    missing = [name for name in listed if name not in metrics]
    result["metrics"] = {
        name: metrics.get(name, {"value": 0, "unit": unit})
        for name, unit in listed.items()}
    return missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(LIBRARY_ROOT, "src", "CMakeLists.txt")):
        print("e2e_bench: libdcs sources not found next to the benchmark",
              file=sys.stderr)
        return 2
    with open(os.path.join(LIBRARY_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("e2e_bench: build failed", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-root", build_root]
    if args.short:
        command.append("--short")
    if args.perturb_reference:
        command.append("--perturb-reference")
    env = dict(os.environ, DCS_E2E_SOURCE=source_id())
    tmp_root = os.path.join(build_root, "tmp")
    before = set(os.listdir(tmp_root)) if os.path.isdir(tmp_root) else set()
    sys.stdout.flush()
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
        code, lines = done.returncode, done.stdout.splitlines()
    except subprocess.TimeoutExpired:
        print("e2e_bench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code, lines = 3, []
    # dcs_e2e removes its own temporary directory; this catches a crash.
    if os.path.isdir(tmp_root):
        for name in set(os.listdir(tmp_root)) - before:
            shutil.rmtree(os.path.join(tmp_root, name), ignore_errors=True)
    if code != 0 or not lines:
        print("\n".join(lines))
        return code or 3
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    if args.trace:
        missing = add_unexercised(result, spec["per_layer"])
        if missing is None:
            print("e2e_bench: dcs_e2e reported a metric BENCHMARK.json does "
                  "not list", file=sys.stderr)
            return 4
        print("# not exercised in %s: %s" % (args.workload, ", ".join(missing)))
    print(json.dumps(result))
    return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
