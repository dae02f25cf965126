#!/usr/bin/env python3
"""Repository benchmark entry point (BENCHMARK.json names this command).

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Builds repobench/ -- a CMake project that compiles the dcnas libraries
from src/ -- into $CARGO_TARGET_DIR (default .bench_build), runs one
workload with the settings of repobench/config.json, and checks that the
metric names it printed are exactly the ones BENCHMARK.json declares for
the trace mode. The last line of standard output is the JSON result;
build output goes to standard error. Run it from the repository root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                os.path.join(ROOT, ".bench_build")))
    build_dir = os.path.join(build_root, "repobench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "repobench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "repobench")


def declared_names(bench, trace):
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes everywhere (the benchmark's own test)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("dcnas sources (src/) not found next to repobench/")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    serve, checks = config["serve_open"], config["checks"]
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", ".bench_work",
           "--rate-low", str(serve["rate_low_img_s"]),
           "--rate-high", str(serve["rate_high_img_s"]),
           "--rate-over", str(serve["rate_over_img_s"]),
           "--deadline-ms", str(serve["deadline_ms"]),
           "--output-tol", str(checks["output_tol"]),
           "--int8-agree-floor", str(checks["int8_agree_floor"]),
           "--plan-accounted", ",".join(map(str, checks["plan_accounted_pct"])),
           "--nas-accounted", ",".join(map(str, checks["nas_accounted_pct"]))]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    finally:
        work = os.path.join(ROOT, ".bench_work")
        if os.path.isdir(work) and not os.listdir(work):
            os.rmdir(work)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"workload exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    printed = set(result["metrics"])
    declared = declared_names(bench, args.trace)
    if printed != declared:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("printed metrics differ from BENCHMARK.json: missing "
             f"{sorted(declared - printed)}, undeclared {sorted(printed - declared)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
