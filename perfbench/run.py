#!/usr/bin/env python3
"""End-to-end benchmark of the s3vcd copy detector.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload monitor|serve|ingest --seed N \
        --seconds S --trace 0|1 [serve settings]
    python3 perfbench/run.py --self-check

The script builds perfbench/ (a CMake package that compiles the library
sources under src/) into a directory of its own checkout under
$CARGO_TARGET_DIR or .bench_build, runs the s3bench driver, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the "end_to_end" metrics of BENCHMARK.json, with --trace 1 its
"per_layer" metrics. The serve settings (latency limit, deadline,
reference rate and rate ladder) are absolute numbers passed by the
BENCHMARK.json command, the only place they are set; they are never
recalibrated within a run.

--self-check runs the smoke preset of every workload, untraced and traced,
and asserts that every named metric is printed, that the failure counts
are present and that monitor.residual_frac stays within its bound. It
takes the serve settings from the BENCHMARK.json command.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

# monitor.residual_frac: share of the monitor's wall time not covered by
# extraction, query and vote self time (the benchmark's own loop).
RESIDUAL_BOUND = 0.05
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir_for(root):
    """The checkout's own build directory under the target directory.

    An absolute $CARGO_TARGET_DIR may be shared by several checkouts; the
    CMake cache of a build directory is tied to the source tree it was
    configured from, so each checkout gets a directory named after its
    path.
    """
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    tag = hashlib.sha256(os.path.realpath(root).encode()).hexdigest()[:12]
    return os.path.join(target, "perfbench-" + tag)


def build(root, build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: no s3vcd sources under %s/src" % root)
        return None
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "s3bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return None
    return os.path.join(build_dir, "s3bench")


def source_commit(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return (spec, [m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_driver(binary, args, build_dir, commit, smoke=False):
    """Runs one s3bench invocation; returns (RESULT dict, other lines)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--slo-ms", str(args.slo_ms), "--deadline-ms",
           str(args.deadline_ms), "--ref-qps", str(args.ref_qps),
           "--ladder-base", str(args.ladder_base), "--ladder-step",
           str(args.ladder_step), "--ladder-rungs", str(args.ladder_rungs),
           "--work-dir", os.path.join(build_dir, "work"),
           "--commit", commit]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(
            "RESULT "):
        log("\n".join(lines[-20:]))
        raise RuntimeError("s3bench exited with %d" % proc.returncode)
    return json.loads(lines[-1][len("RESULT "):]), lines[:-1]


def result_line(result, names, trace):
    """The benchmark's result object: the named metrics of this mode."""
    source = result["layer"] if trace else result["e2e"]
    missing = [n for n in names if n not in source]
    return {
        "correct": bool(result["correct"]) and not missing,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: source[n] for n in names if n in source},
    }, missing


def self_check(binary, args, build_dir, commit, e2e, layer):
    problems = []
    for workload in ("monitor", "serve", "ingest"):
        for trace in (0, 1):
            args.workload, args.trace, args.seed = workload, trace, 1
            result, _ = run_driver(binary, args, build_dir, commit, True)
            line, missing = result_line(result, layer if trace else e2e,
                                        trace)
            tag = "%s trace=%d" % (workload, trace)
            for name in missing:
                problems.append("%s: metric %s not printed" % (tag, name))
            if not result["correct"]:
                problems.append("%s: output check failed" % tag)
            if line["attempted"] < 1 or line["failed"] < 0:
                problems.append("%s: bad attempted/failed counts" % tag)
            if trace and workload == "monitor":
                residual = line["metrics"]["monitor.residual_frac"]["value"]
                if not 0 <= residual <= RESIDUAL_BOUND:
                    problems.append("monitor.residual_frac %.4f outside "
                                    "[0, %.2f]" % (residual, RESIDUAL_BOUND))
            log("self-check %s: %s" % (tag, "ok" if not missing else
                                       "missing %s" % missing))
    for p in problems:
        log("self-check FAILED: " + p)
    return 0 if not problems else 1


SERVE_SETTINGS = ("slo_ms", "deadline_ms", "ref_qps", "ladder_base",
                  "ladder_step", "ladder_rungs")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("monitor", "serve", "ingest"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The serve settings have no defaults: BENCHMARK.json's command sets them.
    parser.add_argument("--slo-ms", type=float)
    parser.add_argument("--deadline-ms", type=float)
    parser.add_argument("--ref-qps", type=float)
    parser.add_argument("--ladder-base", type=float)
    parser.add_argument("--ladder-step", type=float)
    parser.add_argument("--ladder-rungs", type=int)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    try:
        spec, e2e, layer = load_spec(root)
    except (OSError, ValueError, KeyError) as err:
        log("perfbench: cannot read BENCHMARK.json: %s" % err)
        return 2
    if args.self_check:
        command = parser.parse_args(spec["command"][2:])
        for name in SERVE_SETTINGS:
            setattr(args, name, getattr(command, name))
    unset = [n for n in SERVE_SETTINGS if getattr(args, n) is None]
    if unset:
        parser.error("missing serve settings: %s" % ", ".join(
            "--" + n.replace("_", "-") for n in unset))
    build_dir = build_dir_for(root)
    binary = build(root, build_dir)
    if binary is None:
        return 1
    commit = source_commit(root)
    if args.self_check:
        return self_check(binary, args, build_dir, commit, e2e, layer)
    try:
        result, lines = run_driver(binary, args, build_dir, commit)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        log("perfbench: %s" % err)
        return 1
    line, missing = result_line(result, layer if args.trace else e2e,
                                args.trace)
    for text in lines:
        print(text)
    for name in missing:
        print("MISSING METRIC: %s" % name)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
