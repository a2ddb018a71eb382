#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and the driver, runs one workload.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it works on the checkout that holds
this file. The first run configures and builds NetCache (Release) and the
driver under .bench_build/; later runs rebuild incrementally. Every NETCACHE_*
environment variable is removed before anything is built or run.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Any build failure, driver failure or malformed
result exits nonzero without printing a result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-grid", "wide-256", "served-verified")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Inputs of the build: a change to any of these changes the fingerprint the
# driver prints in its header.
SOURCE_DIRS = ("src", "cmake", "perfbench")
SOURCE_FILES = ("CMakeLists.txt",)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("NETCACHE_")}


def source_hash(root):
    """sha256 over the build's inputs (path + content), in path order."""
    h = hashlib.sha256()
    paths = [root / f for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        paths += sorted(p for p in (root / d).rglob("*") if p.is_file())
    for p in sorted(paths):
        if "__pycache__" in p.parts:
            continue
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_step(cmd, env):
    """Runs one build step with its output on stderr; fails the run on error."""
    try:
        subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=850)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(f"build step failed: {' '.join(map(str, cmd))}: {e}")


def build(root, out, env):
    """Configures (once) and builds libnetcache, netcache_sweepd, perfbench."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    lib = out / "netcache"
    if not (lib / "CMakeCache.txt").exists():
        run_step(["cmake", "-S", str(root), "-B", str(lib), *generator,
                  "-DCMAKE_BUILD_TYPE=Release"], env)
    run_step(["cmake", "--build", str(lib), "-j", jobs, "--target", "netcache",
              "netcache_sweepd"], env)
    drv = out / "perfbench"
    if not (drv / "CMakeCache.txt").exists():
        run_step(["cmake", "-S", str(root / "perfbench"), "-B", str(drv),
                  *generator, "-DCMAKE_BUILD_TYPE=Release",
                  f"-DNETCACHE_BUILD_DIR={lib}"], env)
    run_step(["cmake", "--build", str(drv), "-j", jobs], env)
    return drv / "perfbench", lib / "src" / "netcache_sweepd"


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json declares for this kind of run, or None."""
    spec = root / "BENCHMARK.json"
    if not spec.exists():
        return None
    data = json.loads(spec.read_text())
    return {m["name"] for m in data["per_layer" if trace else "end_to_end"]}


def validate(line, expected):
    """Returns an error string for a malformed result line, else None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result must have exactly the keys correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct must be a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return f"{key} must be a whole number"
    if result["attempted"] < 1:
        return "attempted must be at least 1"
    metrics = result["metrics"]
    if expected is not None and set(metrics) != expected:
        missing = sorted(expected - set(metrics))
        extra = sorted(set(metrics) - expected)
        return f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            return f"metric {name} must be {{value, unit}} with a numeric value"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be 1..60")

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} holds no NetCache sources (CMakeLists.txt, src/)")
    env = clean_env()
    out = root / ".bench_build"
    driver, sweepd = build(root, out, env)

    work = out / "work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(driver), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--workdir={work}", f"--sweepd={sweepd}",
           f"--source-hash={source_hash(root)}"]
    # Own process group, so a timeout takes the daemon and its children too.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    error = validate(lines[-1], expected_metrics(root, args.trace))
    if error:
        fail(error)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
