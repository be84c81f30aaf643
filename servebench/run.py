#!/usr/bin/env python3
"""Build and run the serving benchmark (servebench/servebench.cpp).

One run, as BENCHMARK.json declares it:

    python3 servebench/run.py --workload decode --seed 1 --seconds 15 --trace 0

builds the library and the driver into .bench_build/servebench (CMake,
Release), runs one workload, checks the result line against
BENCHMARK.json and prints the driver's output; the last stdout line is
the result JSON.

Steadiness mode runs each workload N times with interleaved order and
seeds first_seed .. first_seed+N-1, then prints each end-to-end metric's
median, quartile spread and min/max against its bound:

    python3 servebench/run.py --steady 10 [--first-seed 1] [--workloads decode,fleet]

Held-out seeds are the same command with another --first-seed (the
notes in servebench/README.md use 1000): different inputs and arrival
times, identical settings otherwise.

    python3 servebench/run.py --selftest

checks this script's own logic and runs the driver's self-test.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "servebench"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "servebench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]
# An untraced run is PARTS driver processes, each measuring 1/PARTS of
# the window on the same inputs, pooled: every process makes its own
# cold set-up (setup_s is their median), and whatever differs from one
# process to the next (memory placement, its kernel calibration) is
# averaged inside the run instead of deciding it.
PARTS = 3
# A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def fail(msg, code=2):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_sources():
    missing = [p for p in ("CMakeLists.txt", "src", "include")
               if not (ROOT / p).exists()]
    if missing:
        fail("the library sources are not here (missing %s); run from a "
             "checkout of the repository" % ", ".join(missing))


def build():
    """Configure once, then build incrementally; the log goes to a file."""
    OUT.mkdir(exist_ok=True)
    log = OUT / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "servebench"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed; full log in " + str(log))


def commit_id():
    """The git commit, or a digest of the sources outside a repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "include", "servebench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sources-" + h.hexdigest()[:16]


def validate(line, names):
    """Return the parsed result line, or raise ValueError."""
    result = json.loads(line)
    if list(result) != RESULT_KEYS:
        raise ValueError("result keys %s" % list(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(key + " is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(names):
        raise ValueError("metrics %s, expected %s"
                         % (sorted(metrics), sorted(names)))
    for name, m in metrics.items():
        if sorted(m) != ["unit", "value"] or \
                not isinstance(m["value"], (int, float)) or \
                isinstance(m["value"], bool):
            raise ValueError("metric %s is malformed" % name)
    return result


def quantile(xs, q):
    """Nearest-rank percentile q of xs and whether MIN_BEYOND samples
    lie beyond it."""
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return 0.0, False
    rank = min(max(math.ceil(q * n - 1e-9), 1), n)
    return xs[rank - 1], n - rank >= MIN_BEYOND


def drive(workload, seed, seconds, trace, commit, part, parts, deadline):
    """Run one driver process; return (exit code, stdout lines)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--part", str(part), "--parts", str(parts),
           "--out", str(OUT), "--commit", commit]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 3)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stdout)
        fail("no output from %s (exit %d)" % (workload, proc.returncode), 3)
    return proc.returncode, lines


def pool_parts(raws):
    """The end-to-end metrics over the pooled samples of a run's parts."""
    latency = [x for r in raws for x in r["latency_ms"]]
    attempted = sum(r["attempted"] for r in raws)
    failed = sum(r["failed"] for r in raws)
    metrics = {
        "setup_s": (statistics.median(
            [x for r in raws for x in r["setup_s"]]), "s"),
        "rss_mb": (statistics.median([r["rss_mb"] for r in raws]), "MiB"),
        "served_share": ((attempted - failed) / attempted, "ratio"),
        "tokens_per_s": (sum(r["columns"] for r in raws) /
                         (sum(r["window_ms"] for r in raws) / 1000.0),
                         "col/s"),
    }
    # The mean, not the median: on a host whose cores run at two speeds
    # (a busy neighbour or not), the latencies form two modes, and the
    # median jumps between them with the share of time spent in each;
    # decode's pooled median spread 0.22 of itself over eight seeds where
    # the mean spread 0.13. The median is still recorded (median_ms).
    metrics["latency_mean_ms"] = (statistics.fmean(latency)
                                  if latency else 0.0, "ms")
    unsupported = []
    value, supported = quantile(latency, 0.9)
    metrics["latency_p90_ms"] = (value, "ms")
    if not supported:
        unsupported.append("latency_p90_ms")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, len(latency), unsupported, quantile(latency, 0.5)[0]


def run_once(spec, workload, seed, seconds, trace, commit):
    """One run; return (exit code, output lines, result)."""
    deadline = time.time() + RUN_TIMEOUT_S
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    if trace:
        code, lines = drive(workload, seed, seconds, 1, commit, 0, 1,
                            deadline)
    else:
        codes, infos, raws = [], [], []
        for part in range(PARTS):
            code, part_lines = drive(workload, seed, seconds, 0, commit,
                                     part, PARTS, deadline)
            codes.append(code)
            infos.append(json.loads(part_lines[-2])["servebench"])
            raws.append(json.loads(part_lines[-1])["raw"])
        result, samples, unsupported, median = pool_parts(raws)
        result["correct"] = result["correct"] and not any(codes)
        info = dict(infos[0], parts=PARTS,
                    calibration=[i["calibration"] for i in infos],
                    samples={"latency_ms": samples}, median_ms=median,
                    unsupported=unsupported)
        late = [i["late_ms_max"] for i in infos if "late_ms_max" in i]
        if late:
            info["late_ms_max"] = max(late)
        for name in unsupported:
            print("servebench: %s has fewer than %d samples beyond it"
                  % (name, MIN_BEYOND), file=sys.stderr)
        lines = [json.dumps({"servebench": info}), json.dumps(result)]
        code = 0 if result["correct"] else 1
    try:
        result = validate(lines[-1], names)
    except (ValueError, KeyError) as e:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("bad result line from %s: %s" % (workload, e), 3)
    return code, lines, result


def spread(values):
    """Quartile distance over the median, as the acceptance check takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def steady(spec, args, commit):
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in workloads}
    bad = 0
    for rep in range(args.steady):
        order = workloads[rep % len(workloads):] + \
            workloads[:rep % len(workloads)]
        for w in order:
            seed = args.first_seed + rep
            t0 = time.time()
            code, _, result = run_once(spec, w, seed, seconds, 0, commit)
            bad += code != 0 or not result["correct"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("rep %d %-8s seed %d: %.0f s, %s" % (
                rep, w, seed, time.time() - t0,
                ", ".join("%s=%.4g" % (k, m["value"])
                          for k, m in result["metrics"].items())),
                flush=True)
    report = {}
    too_noisy = 0
    print("\n%-8s %-16s %12s %8s %8s %12s %12s  %s" % (
        "workload", "metric", "median", "spread", "bound", "min", "max",
        "verdict"))
    for w in workloads:
        for name, xs in values[w].items():
            s = spread(xs) if len(xs) >= 2 else 0.0
            bound = bounds[name]
            if name == "setup_s":
                verdict = "not gated"
            elif s < bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                too_noisy += 1
            report.setdefault(w, {})[name] = {
                "values": xs, "median": statistics.median(xs),
                "spread": s, "bound": bound, "verdict": verdict}
            print("%-8s %-16s %12.5g %8.4f %8.3f %12.5g %12.5g  %s" % (
                w, name, statistics.median(xs), s, bound, min(xs), max(xs),
                verdict))
    OUT.mkdir(exist_ok=True)
    path = OUT / ("steady-%d.json" % int(time.time()))
    path.write_text(json.dumps({"commit": commit, "first_seed":
                                args.first_seed, "runs": args.steady,
                                "seconds": seconds, "report": report},
                               indent=1))
    print("\nwrote %s; %d failed runs, %d metrics too noisy"
          % (path, bad, too_noisy))
    return 1 if bad or too_noisy else 0


def selftest(spec):
    names = [m["name"] for m in spec["end_to_end"]]
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": "ms"} for n in names}}
    validate(json.dumps(good), names)
    bad_cases = [
        dict(good, extra=1),
        {k: good[k] for k in RESULT_KEYS if k != "failed"},
        dict(good, attempted=0),
        dict(good, attempted=1.0),
        dict(good, metrics={}),
        dict(good, metrics=dict(good["metrics"],
                                **{names[0]: {"value": "1"}})),
    ]
    for case in bad_cases:
        try:
            validate(json.dumps(case), names)
        except ValueError:
            continue
        fail("selftest: accepted a malformed result %s" % case, 1)
    # Exclusive quartiles of 1..5 are 1.5 and 4.5; the median is 3.
    assert abs(spread([1, 2, 3, 4, 5]) - 1.0) < 1e-12
    assert spread([2.0] * 10) == 0.0
    # The percentile rule: p90 needs 100 samples, p50 needs 20.
    assert quantile(list(range(1, 100)), 0.9)[1] is False
    assert quantile(list(range(1, 101)), 0.9) == (90, True)
    assert quantile([1.0] * 19, 0.5)[1] is False
    assert quantile([1.0] * 20, 0.5)[1] is True
    assert quantile([3, 1, 2], 0.5)[0] == 2
    # Pooling: rates over summed windows, medians over all set-ups.
    raws = [{"setup_s": [1.0], "rss_mb": 10.0, "attempted": 2, "failed": 0,
             "columns": 100.0, "window_ms": 1000.0, "latency_ms": [1.0]},
            {"setup_s": [3.0], "rss_mb": 30.0, "attempted": 2, "failed": 1,
             "columns": 300.0, "window_ms": 1000.0, "latency_ms": [2.0]}]
    pooled, samples, unsupported, median = pool_parts(raws)
    m = pooled["metrics"]
    assert m["tokens_per_s"]["value"] == 200.0 and samples == 2
    assert m["setup_s"]["value"] == 2.0 and m["served_share"]["value"] == 0.75
    assert m["latency_mean_ms"]["value"] == 1.5 and median == 1.0
    assert not pooled["correct"] and pooled["failed"] == 1
    assert unsupported == ["latency_p90_ms"]
    validate(json.dumps(pooled), names)
    for kind in ("end_to_end", "per_layer"):
        seen = [m["name"] for m in spec[kind]]
        assert len(seen) == len(set(seen)), kind + " names repeat"
    build()
    code = subprocess.run([str(BINARY), "--selftest"], cwd=ROOT).returncode
    print("run.py selftest: " + ("ok" if code == 0 else "FAILED"))
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    check_sources()
    spec = load_spec()
    if args.selftest:
        return selftest(spec)
    build()
    commit = commit_id()
    if args.steady:
        return steady(spec, args, commit)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("--workload must be one of the workloads in BENCHMARK.json")
    code, lines, _ = run_once(spec, args.workload, args.seed,
                              args.seconds or spec["run_seconds"],
                              args.trace, commit)
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
