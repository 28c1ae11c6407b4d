#!/usr/bin/env python3
"""Build the Release tree and run one benchmark workload.

    python3 perfbench/run.py --workload solve-cold|serve-warm|churn \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds
perfbench/ (the library in Release plus the perfbench program) under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
Build output goes to stderr. The program's report goes to stdout and its last
line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
and writes every span to <build>/perfbench/results/. The exit code is
nonzero if the build fails, a check fails, or the metric names do not match
BENCHMARK.json. See perfbench/README.md for what each metric means.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-cold", "serve-warm", "churn")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (once) and builds the Release tree; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench"], stdout=sys.stderr, check=True)
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            fail("the build tree %s is not a Release build" % out)
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit if there is one, else a digest of the built sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, if any."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the library sources (CMakeLists.txt, src/) are missing from "
             + ROOT)
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    results = os.path.join(out, "results")
    scratch = os.path.join(out, "scratch-%d" % os.getpid())
    os.makedirs(results, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--commit", source_id()]
    if args.trace:
        cmd += ["--spans", stem + ".spans.json"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S),
             1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("no result line (exit code %d)" % proc.returncode,
             proc.returncode or 1)
    with open(stem + ".txt", "w") as f:
        f.write(proc.stdout)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    code = proc.returncode
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        missing = sorted(want - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - want)
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "undeclared %s" % (missing, extra), file=sys.stderr)
        result["correct"] = False
        code = code or 1
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
