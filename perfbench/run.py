#!/usr/bin/env python3
"""Entry point of the LCI benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/lci_perfbench and the LCI library from this checkout's
sources (CMake, into .bench_build/perfbench), runs one workload and prints its
metrics. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of an
untraced run. --trace 1 runs the workload twice, untraced and then traced with
benchmark-side spans, each in its own process, and reports the per-layer
metrics, including the tracing overhead.

    python3 perfbench/run.py --self-check

runs every workload for one second against a corrupted expectation and
checks that the verifier flags every delivery.

Every run also writes a ledger row (host and run tags plus all metrics) to
.bench_build/perfbench/results/.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "lci_perfbench"
BUILD_TYPE = "RelWithDebInfo"
WARMUP_S = 1.5  # traffic on every core before anything is timed
SETUPS = 3      # set-up-only processes per measurement
TIMED = 5       # timed processes sharing an untraced run's seconds

WORKLOADS = ("pingpong_tag8", "stream_am8", "stream_am8_agg", "bulk_tag64k")

# (name, unit): every metric is printed for every workload. The workloads
# each metric is chosen for are listed in README.md.
END_TO_END = [
    ("setup_s", "s"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("msg_rate_mmsgs", "Mmsg/s"),
    ("msg_lat_p50_us", "us"),
    ("msg_lat_p99_us", "us"),
    ("bandwidth_gbs", "GB/s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("post.send.ns_p50", "ns"),
    ("post.recv.ns_p50", "ns"),
    ("post.am.ns_p50", "ns"),
    ("post.calls", "count"),
    ("post.busy_s", "s"),
    ("post.retry_ratio", "ratio"),
    ("progress.ns_p50", "ns"),
    ("progress.calls", "count"),
    ("progress.busy_s", "s"),
    ("progress.useful_ratio", "ratio"),
    ("comp.ns_p50", "ns"),
    ("comp.calls", "count"),
    ("comp.busy_s", "s"),
    ("comp.hit_ratio", "ratio"),
    ("delivery.wait_us_p50", "us"),
    ("delivery.wait_us_p99", "us"),
    ("matching.recv_posted", "count"),
    ("matching.recv_matched", "count"),
    ("coalesce.msgs_per_batch", "msg/batch"),
    ("coalesce.ordering_flushes", "count"),
    ("packet_pool.retry_nopacket", "count"),
    ("net.retry_lock", "count"),
    ("net.retry_nomem", "count"),
    ("reg_cache.calls", "count"),
    ("reg_cache.hit_ratio", "ratio"),
    ("runtime.init_s", "s"),
    ("runtime.fina_s", "s"),
    ("collective.barrier_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.self_ns_p50", "ns"),
    ("checks.zero_by_design_failed", "count"),
] + [("trace.overhead_ratio." + name, "ratio") for name, _ in END_TO_END]

# Counter readings each workload must leave at zero over its measured
# windows: the layer is bypassed by design there, so a nonzero reading means
# the workload no longer isolates what it claims to.
ZERO_BY_DESIGN = {
    "pingpong_tag8": ["send_coalesced", "batches_flushed", "send_rdv",
                      "am_delivered", "reg_cache_calls"],
    "stream_am8": ["recv_posted", "recv_matched", "send_coalesced",
                   "batches_flushed", "send_rdv", "reg_cache_calls"],
    "stream_am8_agg": ["recv_posted", "recv_matched", "send_rdv",
                       "reg_cache_calls"],
    "bulk_tag64k": ["send_coalesced", "batches_flushed", "am_delivered"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "core" / "lci.hpp").is_file():
        log("perfbench: the LCI sources (src/) are not in this checkout")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target", "lci_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def run_binary(workload, seed, seconds, phase, traced=False, corrupt=False):
    """Runs one lci_perfbench process; returns its JSON result or None."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--phase", phase,
           "--trace", "1" if traced else "0",
           "--out-dir", str(BUILD / "results"),
           "--corrupt-expect", "1" if corrupt else "0"]
    # Runtime knobs come from the program's attributes only, never from the
    # caller's environment (LCI_TRACE, LCI_DEVICE_SHARDS, ...).
    env = {k: v for k, v in os.environ.items() if not k.startswith("LCI_")}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=75 + float(seconds), text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish in time" % workload)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench: lci_perfbench exited with %d" % done.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: unreadable result line: " + lines[-1][:200])
        return None


def measure(workload, seed, seconds, traced):
    """One measurement: a warm-up process, SETUPS set-up-only processes, then
    the measured traffic. Untraced, the traffic is split over TIMED timed
    processes and each metric is the median over them, so one process with
    an unlucky memory layout or a noisy neighbour does not move the result.
    Traced, one timed process carries all of it (its span totals then cover
    the whole run). Set-up figures are medians over every process's world."""
    warm = run_binary(workload, seed, WARMUP_S, "warmup")
    setups = [run_binary(workload, seed, seconds, "setup")
              for _ in range(SETUPS)]
    timed = [run_binary(workload, seed, seconds / TIMED, "timed")
             for _ in range(TIMED)] if not traced else [
                 run_binary(workload, seed, seconds, "timed", traced=True)]
    parts = [warm] + setups + timed
    if any(p is None for p in parts):
        return None
    worlds = setups + timed
    result = dict(timed[-1])
    result["e2e"] = {k: statistics.median(p["e2e"][k] for p in timed)
                     for k in timed[-1]["e2e"]}
    result["e2e"]["setup_s"] = statistics.median(p["setup_s"] for p in worlds)
    result["runtime"] = {k: statistics.median(p["runtime"][k] for p in worlds)
                         for k in timed[-1]["runtime"]}
    for k in ("attempted", "failed", "fatal", "missing", "duplicate",
              "corrupt", "good", "stale_stamps"):
        result[k] = sum(p[k] for p in parts)
    result["selfcheck_ok"] = all(p["selfcheck_ok"] for p in parts)
    result["error"] = "; ".join(p["error"] for p in parts if p["error"])
    result["samples"] = {
        "rtt": sum(p["samples"]["rtt"] for p in timed),
        "msg_lat": sum(p["samples"]["msg_lat"] for p in timed),
        "windows": sum(p["samples"]["windows"] for p in timed),
        "timed": len(timed),
        "setups": len(worlds),
    }
    return result


def source_id():
    """The commit, or a digest of the sources when the checkout has no git."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def tags(result, seed):
    host = result["host"]
    return {
        "hardware_threads": host["hardware_threads"],
        "usable_cpus": len(os.sched_getaffinity(0)),
        "backend": "sim",
        "compiler": host["compiler"],
        "build_type": host["build_type"],
        "commit": source_id(),
        "seed": seed,
        "placement": ["r%dt%d:cpu%d%s" % (p["rank"], p["thread"], p["cpu"],
                                          "" if p["pinned"] else "(unpinned)")
                      for p in host["placement"]],
    }


def ratio(num, den):
    return num / den if den else 0.0


def counters_of(result):
    c = dict(result["counters"])
    c["reg_cache_calls"] = c["reg_cache_hits"] + c["reg_cache_misses"]
    return c


def zero_by_design_violations(workload, result):
    c = counters_of(result)
    return [name for name in ZERO_BY_DESIGN[workload] if c[name] != 0]


def layer_metrics(workload, untraced, traced):
    spans = traced["spans"]
    c = counters_of(traced)
    posts = [spans[k] for k in ("post.send", "post.recv", "post.am")]
    post_calls = sum(s["calls"] for s in posts)
    m = {
        "post.send.ns_p50": spans["post.send"]["ns_p50"],
        "post.recv.ns_p50": spans["post.recv"]["ns_p50"],
        "post.am.ns_p50": spans["post.am"]["ns_p50"],
        "post.calls": post_calls,
        "post.busy_s": sum(s["busy_s"] for s in posts),
        "post.retry_ratio": ratio(sum(s["flagged"] for s in posts),
                                  post_calls),
        "progress.ns_p50": spans["progress"]["ns_p50"],
        "progress.calls": spans["progress"]["calls"],
        "progress.busy_s": spans["progress"]["busy_s"],
        "progress.useful_ratio": ratio(spans["progress"]["flagged"],
                                       spans["progress"]["calls"]),
        "comp.ns_p50": spans["comp"]["ns_p50"],
        "comp.calls": spans["comp"]["calls"],
        "comp.busy_s": spans["comp"]["busy_s"],
        "comp.hit_ratio": ratio(spans["comp"]["flagged"],
                                spans["comp"]["calls"]),
        "delivery.wait_us_p50": traced["delivery_us_p50"],
        "delivery.wait_us_p99": traced["delivery_us_p99"],
        "matching.recv_posted": c["recv_posted"],
        "matching.recv_matched": c["recv_matched"],
        "coalesce.msgs_per_batch": ratio(c["send_coalesced"],
                                         c["batches_flushed"]),
        "coalesce.ordering_flushes": c["batch_flush_ordering"],
        "packet_pool.retry_nopacket": c["retry_nopacket"],
        "net.retry_lock": c["retry_lock"],
        "net.retry_nomem": c["retry_nomem"],
        "reg_cache.calls": c["reg_cache_calls"],
        "reg_cache.hit_ratio": ratio(c["reg_cache_hits"],
                                     c["reg_cache_calls"]),
        "runtime.init_s": traced["runtime"]["init_s"],
        "runtime.fina_s": traced["runtime"]["fina_s"],
        "collective.barrier_s": traced["runtime"]["barrier_s"],
        "trace.coverage": traced["coverage"],
        "trace.self_ns_p50": traced["iter_self_ns_p50"],
        "checks.zero_by_design_failed": len(
            zero_by_design_violations(workload, traced)),
    }
    for name, _ in END_TO_END:
        m["trace.overhead_ratio." + name] = ratio(traced["e2e"][name],
                                                  untraced["e2e"][name])
    return m


def correct_of(result):
    return (result["selfcheck_ok"] and not result["error"]
            and result["failed"] == 0 and result["attempted"] > 0)


def describe_failures(result):
    return ("fail_ratio %.3g (%d failed / %d attempted: fatal %d, missing %d, "
            "duplicate %d, corrupt %d)%s" % (
                ratio(result["failed"], result["attempted"]), result["failed"],
                result["attempted"], result["fatal"], result["missing"],
                result["duplicate"], result["corrupt"],
                "; error: " + result["error"] if result["error"] else ""))


def self_check():
    ok = True
    for workload in WORKLOADS:
        r = run_binary(workload, 1, 1, "timed", corrupt=True)
        if r is None:
            print("%-15s did not run" % workload)
            ok = False
            continue
        delivered = r["good"] + r["corrupt"]
        # The 8 B check is 24 bits wide: a wrong payload passes with
        # probability 2^-24, so a few in millions may slip through.
        caught = (r["selfcheck_ok"] and delivered > 0 and
                  r["good"] <= delivered * 1e-6 and not correct_of(r))
        ok &= caught
        print("%-15s corrupted expectation: %d of %d deliveries flagged, "
              "in-process verifier self-check %s -> %s" % (
                  workload, r["corrupt"], delivered,
                  "passed" if r["selfcheck_ok"] else "FAILED",
                  "caught" if caught else "NOT CAUGHT"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    if not build():
        return 1
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    if args.self_check:
        return self_check()

    untraced = measure(args.workload, args.seed, args.seconds, False)
    if untraced is None:
        return 1
    runs = [untraced]
    if args.trace:
        traced = measure(args.workload, args.seed, args.seconds, True)
        if traced is None:
            return 1
        runs.append(traced)
        values = layer_metrics(args.workload, untraced, traced)
        units = PER_LAYER
    else:
        values = dict(untraced["e2e"])
        units = END_TO_END
    violations = zero_by_design_violations(args.workload, runs[-1])

    run_tags = tags(untraced, args.seed)
    print("# lci perfbench: workload=%s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("# host: " + " ".join("%s=%s" % (k, ",".join(v) if isinstance(
        v, list) else v) for k, v in run_tags.items()))
    for r in runs:
        print("# %s run: %s" % ("traced" if r["traced"] else "untraced",
                                describe_failures(r)))
    s = untraced["samples"]
    print("# samples: rtt %d, msg_lat %d, over %d windows in %d timed "
          "processes (metrics: median over processes of the median over "
          "windows); setup_s is the median of %d set-ups" % (
              s["rtt"], s["msg_lat"], s["windows"], s["timed"], s["setups"]))
    print("# counters over the measured windows of the last timed process, "
          "summed over ranks: " +
          " ".join("%s=%d" % kv for kv in runs[-1]["counters"].items()))
    print("# zero by design on %s (%s): %s" % (
        args.workload, ",".join(ZERO_BY_DESIGN[args.workload]),
        "ok" if not violations else "VIOLATED by " + ",".join(violations)))
    if args.trace:
        print("# raw span sample: %s" % runs[-1].get("raw_spans_file", "-"))
        for name, unit in END_TO_END:
            print("# untraced %-25s %16.6g %s" % (name, untraced["e2e"][name],
                                                  unit))
    for name, unit in units:
        print("%-34s %16.6g %s" % (name, values[name], unit))

    correct = all(correct_of(r) for r in runs)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    ledger = dict(summary, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, tags=run_tags,
                  end_to_end_untraced=untraced["e2e"],
                  failures=[{k: r[k] for k in (
                      "traced", "attempted", "fatal", "missing", "duplicate",
                      "corrupt", "stale_stamps", "error")} for r in runs],
                  counters=runs[-1]["counters"])
    row = BUILD / "results" / ("%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    row.write_text(json.dumps(ledger, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
