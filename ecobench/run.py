#!/usr/bin/env python3
"""EcoDB end-to-end benchmark.

Run from the root of a checkout:

    python3 ecobench/run.py --workload join_mix --seed 1 --seconds 10 --trace 0

Builds the ecobench program (EcoDB's libraries plus the benchmark code in
ecobench/src) into .bench_build/ecobench, runs one workload, checks every
query result against the program's reference answers (and against
ecobench/expected.json for the seeds committed there), prints every metric by
name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run (spans land in .bench_build/ecobench/spans/).

Other modes:
    --selftest         corrupts one committed expected value, then one
                       reference answer, and checks that the join_mix and
                       scan_mix runs then fail
    --record-expected  stores a run's results in ecobench/expected.json under
                       its workload and seed
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("join_mix", "scan_mix", "serve_mix")
CHILD_TIMEOUT_S = 170
SUM_TOLERANCE = 1e-9  # relative, for reordered float summation

END_TO_END = [
    ("host_ms_p50", "ms"),
    ("host_ms_p99", "ms"),
    ("host_qps", "1/s"),
    ("joules_per_query", "J"),
    ("modeled_ms_p50", "ms"),
    ("modeled_ms_p99", "ms"),
    ("ok_fraction", "ratio"),
    ("slo_capacity_qps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("optimizer.plan_us", "us"),
    ("optimizer.build_us", "us"),
    ("optimizer.joules_qerror", "ratio"),
    ("optimizer.rows_qerror", "ratio"),
    ("optimizer.compressed_pick_rate", "ratio"),
    ("optimizer.index_pick_rate", "ratio"),
    ("optimizer.topk_pick_rate", "ratio"),
    ("optimizer.dop_mean", "count"),
    ("exec.run_ms", "ms"),
    ("exec.instructions", "count"),
    ("exec.filter_ms", "ms"),
    ("exec.aggregate_ms", "ms"),
    ("exec.sort_ms", "ms"),
    ("exec.topk_ms", "ms"),
    ("storage.read_column_ms", "ms"),
    ("storage.io_bytes", "bytes"),
    ("sched.self_ms", "ms"),
    ("sched.factory_us", "us"),
    ("sched.queue_ms_p99", "ms"),
    ("sched.share_rate", "ratio"),
    ("sched.batches_per_100", "count"),
    ("sched.shed", "count"),
    ("sched.evicted", "count"),
    ("sched.deadline_kills", "count"),
    ("power.cpu_j", "J"),
    ("power.dram_j", "J"),
    ("power.io_j", "J"),
    ("power.background_j", "J"),
    ("tpch.generate_s", "s"),
    ("storage.load_s", "s"),
    ("storage.clone_compress_s", "s"),
    ("storage.index_s", "s"),
    ("trace.overhead_ms", "ms"),
    ("trace.untraced_ms_p50", "ms"),
    ("trace.query_ms_p50", "ms"),
    ("trace.span_coverage", "ratio"),
]

# Host metrics whose raw (uncorrected) value is printed beside them.
RAW_OF = {
    "host_ms_p50": "raw_host_ms_p50",
    "host_ms_p99": "raw_host_ms_p99",
    "host_qps": "raw_host_qps",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "ecobench")


def build():
    """Configures and builds ecobench; returns the binary path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    binary = os.path.join(out, "ecobench")
    return binary if os.path.exists(binary) else None


def host_stamp(build_info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "build_type": build_info.get("type"),
        "compiler": build_info.get("compiler"),
        "git_commit": commit,
    }


def fingerprint_matches(seen, want):
    """Mirrors SameResult in src/fingerprint.cc."""
    if (seen["rows"] != want["rows"] or seen["hash"] != want["hash"]
            or seen["ordered"] != want["ordered"]):
        return False
    for name in set(seen["sums"]) | set(want["sums"]):
        x = seen["sums"].get(name, 0.0)
        y = want["sums"].get(name, 0.0)
        if abs(x - y) > SUM_TOLERANCE * max(1.0, abs(y)):
            return False
    return True


def count_mismatches(fingerprints, committed):
    """Executions whose result the program's reference answer accepted but
    the committed expected values for this seed do not (those the reference
    rejected are already counted as failed by the program)."""
    bad = 0
    for entry in fingerprints:
        if not entry["reference"]:
            log("ecobench: %s differs from the reference answer: %s"
                % (entry["key"], entry["fp"]))
            continue
        if committed is None:
            continue
        want = committed.get(entry["key"])
        if want is None or not fingerprint_matches(entry["fp"], want):
            bad += entry["count"]
            log("ecobench: %s differs from the committed result: %s"
                % (entry["key"], entry["fp"]))
    return bad


def run_child(binary, args, seconds, trace, corrupt_oracle=False):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if corrupt_oracle:
        cmd += ["--corrupt-oracle", "1"]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("ecobench: %s timed out" % args.workload)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("ecobench: %s exited with %d" % (args.workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def evaluate(raw, committed, trace):
    """Applies the output checks; returns (correct, attempted, failed, metrics).

    `committed` holds the expected results for this workload and seed, or
    None when none are committed for the seed. Errors, wrong results and
    failed checks make the run incorrect; requests the serving core refused
    count as failed requests in ok_fraction only."""
    attempted = raw["attempted"]
    wrong = raw["failed"] + count_mismatches(raw["fingerprints"], committed)
    failed = wrong + raw["refused"]
    checks = raw["checks"]
    for name, ok in sorted(checks.items()):
        if not ok:
            log("ecobench: check failed: %s" % name)
    values = dict(raw["metrics"])
    values["ok_fraction"] = (attempted - failed) / attempted if attempted else 0.0
    correct = attempted > 0 and wrong == 0 and all(checks.values())
    metrics = {}
    for name, unit in (PER_LAYER if trace else END_TO_END):
        value = values.get(name)
        if value is None or not math.isfinite(value):
            log("ecobench: metric %s is %r" % (name, value))
            correct = False
            value = 0.0 if value is None else 1e12
        metrics[name] = {"value": value, "unit": unit}
    return correct, attempted, failed, metrics


def report(raw, metrics, stamp, trace):
    details = raw["details"]
    print("ecobench %s seed=%d trace=%d host_samples=%d attempted=%d"
          % (raw["workload"], raw["seed"], int(trace),
             int(details.get("host_samples", 0)), raw["attempted"]))
    for name, metric in metrics.items():
        line = "  %-32s %16.6f %s" % (name, metric["value"], metric["unit"])
        if name in RAW_OF:
            line += "   (raw %.6f, correction factor %.4f)" % (
                details[RAW_OF[name]], details["kernel.factor_p50"])
        print(line)
    print("  kernel: nominal %.1f us, measured p50 %.2f us, in-run spread %.4f"
          % (details["kernel.nominal_us"], details["kernel.us_p50"],
             details["kernel.spread"]))
    print("  details: " + json.dumps(details, sort_keys=True))
    print("  stamp: " + json.dumps(stamp, sort_keys=True))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def committed_for(workload, seed):
    return load_json(EXPECTED).get(workload, {}).get(str(seed))


def selftest(binary, args):
    """A corrupted expected value must fail the run: first a committed one,
    then the program's own reference answer."""
    ok = True
    for workload in ("join_mix", "scan_mix"):
        args.workload = workload
        args.seed = 1
        committed = committed_for(workload, args.seed)
        raw = run_child(binary, args, 1, False)
        if raw is None or committed is None:
            return False
        good = evaluate(raw, committed, False)
        corrupted = json.loads(json.dumps(committed))
        key = sorted(corrupted)[0]
        corrupted[key]["hash"] = "%016x" % (int(corrupted[key]["hash"], 16) ^ 1)
        bad = evaluate(raw, corrupted, False)
        raw = run_child(binary, args, 1, False, corrupt_oracle=True)
        bad_ref = evaluate(raw, committed, False) if raw else (False, 0, 0, {})
        passed = (good[0] and not bad[0] and bad[2] > 0 and not bad_ref[0]
                  and bad_ref[2] > 0)
        print("selftest %s: intact correct=%s failed=%d; corrupted committed "
              "%s correct=%s failed=%d; corrupted reference correct=%s "
              "failed=%d: %s" % (workload, good[0], good[2], key, bad[0], bad[2],
                                 bad_ref[0], bad_ref[2],
                                 "PASS" if passed else "FAIL"))
        ok = ok and passed
    return ok


def record(raw, workload, seed):
    expected = load_json(EXPECTED) if os.path.exists(EXPECTED) else {}
    table = {}
    for entry in raw["fingerprints"]:
        if not entry["reference"]:
            log("ecobench: %s differs from the reference answer" % entry["key"])
            return False
        table.setdefault(entry["key"], entry["fp"])
    expected.setdefault(workload, {})[str(seed)] = dict(sorted(table.items()))
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="join_mix")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        log("ecobench: build failed")
        return 3
    if args.selftest:
        return 0 if selftest(binary, args) else 1

    raw = run_child(binary, args, args.seconds, bool(args.trace))
    if raw is None:
        return 1
    if args.record_expected:
        return 0 if record(raw, args.workload, args.seed) else 1
    correct, attempted, failed, metrics = evaluate(
        raw, committed_for(args.workload, args.seed), bool(args.trace))
    report(raw, metrics, host_stamp(raw["build"]), bool(args.trace))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
