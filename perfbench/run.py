#!/usr/bin/env python3
"""cloudmc benchmark entry point.

Builds the benchmark driver (perfbench/perf.cc) against the simulator
sources of this checkout, runs one workload and prints, as the last
stdout line, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics; the traced run
also writes a Chrome trace-event file and checks that it parses.

  python3 perfbench/run.py --workload ws_core --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --self-check     # tiny run of every workload

Build: CMake, Release, into .bench_build/ at the checkout root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "cloudmc_perf")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build of the driver."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("run.py: no simulator sources at", os.path.join(ROOT, "src"))
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "cloudmc_perf",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build step failed:", " ".join(cmd))
            return False
    return True


def git_sha():
    sha = os.environ.get("CLOUDMC_GIT_SHA")
    if sha:
        return sha
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_driver(workload, seed, seconds, trace, tiny=False):
    """Run the driver; return (its stdout lines, PERF_RESULT dict, trace
    path or None). Raises RuntimeError when the driver fails."""
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    trace_out = os.path.join(BUILD, "trace-%s-%s.json" % (workload, seed))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", trace_out, "--work-dir", work]
    if tiny:
        cmd.append("--tiny")
    env = {k: v for k, v in os.environ.items()
           if k not in ("CLOUDMC_FAST", "CLOUDMC_CACHE", "CLOUDMC_THREADS")}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    results = [l for l in lines if l.startswith("PERF_RESULT ")]
    if not results:
        raise RuntimeError("driver printed no PERF_RESULT line")
    result = json.loads(results[-1][len("PERF_RESULT "):])
    others = [l for l in lines if not l.startswith("PERF_RESULT ")]
    return others, result, trace_out if trace else None


def check_trace(path):
    """Empty when @path is Chrome trace-event JSON; else the problem."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return "trace file unreadable: %s" % e
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return "trace file has no traceEvents"
    ids = set()
    for ev in events:
        if ev.get("ph") != "X" or not isinstance(ev.get("ts"), (int, float)) \
                or not isinstance(ev.get("dur"), (int, float)) \
                or ev["dur"] < 0 or "name" not in ev:
            return "malformed trace event: %r" % (ev,)
        args = ev.get("args", {})
        if args.get("parent_id", 0) and args["parent_id"] not in ids:
            return "span %r has an unknown parent" % (ev["name"],)
        ids.add(args.get("span_id"))
    return ""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select(spec, result, trace):
    """The BENCHMARK.json metric set of this mode, or raise."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            raise RuntimeError("metric %s has unit %s, BENCHMARK.json says %s"
                               % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def digest_of(lines):
    for l in lines:
        if l.startswith("metricset_digest "):
            return l.split()[1]
    return None


def self_check():
    """Tiny run of every workload, untraced and traced: every metric is
    printed with its unit, nothing fails, the trace parses, and the
    traced run's MetricSet digest equals the untraced one."""
    if not build():
        return 1
    spec = load_spec()
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        digests = []
        for trace in (False, True):
            try:
                lines, result, trace_path = run_driver(name, 1, 1, trace,
                                                       tiny=True)
                select(spec, result, trace)
            except (RuntimeError, subprocess.SubprocessError,
                    ValueError) as e:
                problems.append("%s trace=%d: %s" % (name, trace, e))
                continue
            if result["failed"] != 0:
                problems.append("%s trace=%d: %d of %d checks failed"
                                % (name, trace, result["failed"],
                                   result["attempted"]))
            if trace:
                frac = result["metrics"].get("ops_failed_frac", {})
                if frac.get("value") != 0:
                    problems.append("%s: ops_failed_frac %r"
                                    % (name, frac.get("value")))
                err = check_trace(trace_path)
                if err:
                    problems.append("%s: %s" % (name, err))
            digests.append(digest_of(lines))
        if len(digests) == 2 and (digests[0] is None
                                  or digests[0] != digests[1]):
            problems.append("%s: traced MetricSet digest %s != untraced %s"
                            % (name, digests[1], digests[0]))
        log("self-check %s done" % name)
    shutil.rmtree(os.path.join(BUILD, "work"), ignore_errors=True)
    for p in problems:
        print("SELF-CHECK FAIL:", p)
    print("self-check %s" % ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 keeps the calibrated presets")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        return self_check()
    if not args.workload:
        ap.error("--workload is required")
    if not build():
        return 1
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("run.py: unknown workload", args.workload)
        return 2
    try:
        lines, result, trace_path = run_driver(args.workload, args.seed,
                                               args.seconds, args.trace)
        metrics = select(spec, result, args.trace)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as e:
        log("run.py:", e)
        return 1
    failed = result["failed"]
    attempted = result["attempted"]
    if trace_path:
        err = check_trace(trace_path)
        attempted += 1
        if err:
            failed += 1
            print("FAIL:", err)
    for l in lines:
        print(l)
    print("stamp: sha %s  build %s  seed %d" % (git_sha(), BUILD_TYPE,
                                                 args.seed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
