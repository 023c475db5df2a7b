#!/usr/bin/env python3
"""Benchmark regression gate for the CI bench-smoke job.

Compares freshly generated BENCH_*.json reports against the checked-in
baselines. Rows are joined on their configuration fields (everything except
the measured metric); each joined pair is classified:

  FAIL  metric regressed by more than --fail-threshold (default 35%)
  WARN  metric regressed by more than --warn-threshold (default 10%)
  ok    within noise, or an improvement

Regressions below the fail threshold never fail the job: the smoke runs are
short and CI machines are noisy, so the gate only catches order-of-magnitude
breakage (a lost fast path, an accidental O(n^2)), not percent-level drift.
Rows present on only one side are warnings (schema drift), never failures.

The fig3 report additionally carries a shape invariant from the aggregation
work: eager coalescing (lci+agg) must beat plain lci by >= --agg-factor
(default 2.0) in at least one mode/lock-model/thread-count configuration.
That is the headline claim of the coalescing PR; if no configuration reaches
it, something structural broke even if every individual row stayed within
the regression threshold. (Best-of-any-configuration, not a fixed cell: on
an oversubscribed CI host which configuration peaks varies run to run, but
*some* configuration clearing 2x is stable.)

--results-dir may be given more than once: rows are merged by taking the
best value per configuration across the runs. A short smoke run on a busy
CI machine can lose 40% on any single row to scheduler noise alone; a row
only fails the gate if it is slow in *every* run, which is what a real
regression looks like. The CI job runs the suite twice.

Usage:
  scripts/check_bench.py --baseline-dir . \
      --results-dir build/bench_reports1 --results-dir build/bench_reports2
  scripts/check_bench.py --self-test
"""

import argparse
import json
import os
import sys

# Per-bench metric configuration: (metric field, True if higher is better).
# Fields listed in IGNORED are measurements, not configuration, and are
# excluded from the join key. route_cache_hits is no longer written, but the
# checked-in fig3 baseline rows still carry it: dropping the name would put
# it in their join key and orphan every fig3 row.
METRICS = {
    "fig2_msgrate_process": ("mmsg_per_sec", True),
    "fig3_msgrate_thread": ("mmsg_per_sec", True),
    "latency": ("median_us", False),
}
IGNORED_FIELDS = {"mmsg_per_sec", "gb_per_sec", "median_us", "p99_us",
                  "seconds", "retry_lock", "route_cache_hits"}


def load_report(path):
    with open(path) as f:
        return json.load(f)


def row_key(row):
    return tuple(sorted((k, v) for k, v in row.items()
                        if k not in IGNORED_FIELDS))


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def compare_bench(name, baseline, results, warn_threshold, fail_threshold):
    """Returns (failures, warnings) as lists of message strings."""
    metric, higher_better = METRICS[name]
    base_rows = {row_key(r): r for r in baseline.get("rows", [])}
    new_rows = {row_key(r): r for r in results.get("rows", [])}
    failures, warnings = [], []

    for key in base_rows.keys() - new_rows.keys():
        warnings.append(f"{name}: row missing from results: {fmt_key(key)}")
    for key in new_rows.keys() - base_rows.keys():
        warnings.append(f"{name}: row not in baseline: {fmt_key(key)}")

    for key in sorted(base_rows.keys() & new_rows.keys()):
        old = base_rows[key].get(metric)
        new = new_rows[key].get(metric)
        if old is None or new is None:
            warnings.append(f"{name}: {metric} missing for {fmt_key(key)}")
            continue
        if old <= 0:
            warnings.append(f"{name}: non-positive baseline for "
                            f"{fmt_key(key)}")
            continue
        # Regression fraction: how much worse the new number is, in the
        # direction that matters for this metric.
        regression = (old - new) / old if higher_better else (new - old) / old
        detail = (f"{name}: {fmt_key(key)}: {metric} {old:.4g} -> {new:.4g} "
                  f"({regression * 100:+.1f}% regression)")
        if regression > fail_threshold:
            failures.append(detail)
        elif regression > warn_threshold:
            warnings.append(detail)
    return failures, warnings


def check_agg_invariant(results, agg_factor):
    """fig3 shape invariant: coalescing still pays off at scale."""
    rows = results.get("rows", [])
    configs = {}
    for row in rows:
        if row.get("backend") != "lci":
            continue
        key = (row.get("mode"), row.get("lock_model"))
        threads = row.get("threads", 0)
        entry = configs.setdefault(key, {})
        slot = entry.setdefault(threads, {})
        slot[row.get("aggregation", 0)] = row.get("mmsg_per_sec", 0.0)
    best = 0.0
    best_desc = "no lci/lci+agg row pairs found"
    for (mode, model), by_threads in configs.items():
        for threads, pair in by_threads.items():
            if 0 not in pair or 1 not in pair or pair[0] <= 0:
                continue
            ratio = pair[1] / pair[0]
            if ratio > best:
                best = ratio
                best_desc = (f"{mode}/{model} @ {threads} threads: "
                             f"lci+agg/lci = {ratio:.2f}x")
    if best >= agg_factor:
        return None, f"aggregation invariant holds: {best_desc}"
    return (f"fig3 aggregation invariant violated: best ratio {best:.2f}x "
            f"< {agg_factor:.1f}x ({best_desc})"), None


def check_cliff_invariant(results, noise=0.20):
    """fig3 shape invariant from the device-sharding work: the non-aggregated
    lci message rate must not fall off a cliff between 4 and 8 threads. With
    affinity-routed shards the curve is monotone; an 8-thread rate below the
    4-thread rate (beyond the noise margin) means the shard routing or the
    per-shard CQ round-robin broke and threads are serializing again.
    The margin is dimensioned against observed smoke noise: short runs on an
    oversubscribed host swing individual cells ~20%, while the pre-sharding
    cliff this guards against was a 29% drop (1.09 -> 0.77 Mmsg/s)."""
    rows = results.get("rows", [])
    by_config = {}
    for row in rows:
        if row.get("backend") != "lci" or row.get("aggregation", 0) != 0:
            continue
        key = (row.get("mode"), row.get("lock_model"))
        by_config.setdefault(key, {})[row.get("threads", 0)] = \
            row.get("mmsg_per_sec", 0.0)
    failures = []
    checked = 0
    for (mode, model), by_threads in sorted(by_config.items()):
        if 4 not in by_threads or 8 not in by_threads:
            continue
        checked += 1
        if by_threads[8] < by_threads[4] * (1.0 - noise):
            failures.append(
                f"fig3 thread-scaling cliff: {mode}/{model} non-aggregated "
                f"lci rate drops {by_threads[4]:.3f} -> {by_threads[8]:.3f} "
                f"Mmsg/s from 4 to 8 threads (> {noise:.0%} noise margin)")
    if failures:
        return failures, None
    return [], (f"thread-scaling invariant holds: 8T >= 4T non-aggregated "
                f"in {checked} config(s)")


def check_single_thread_agg_invariant(results, tolerance=0.15):
    """fig3 shape invariant from the single-poster bypass: with one posting
    thread, enabling aggregation must cost nothing (the bypass sends the
    traffic straight through). The check is the *median* lci+agg/lci ratio
    across all mode/lock-model configs at 1 thread, not a per-config gate:
    on an oversubscribed CI host any single 1-thread cell can swing 2x
    either way run to run, but a broken bypass depresses every config at
    once, which the median sees through the noise. The tolerance is
    noise-dimensioned too (observed clean-run medians sit at 0.94-1.34):
    the pre-bypass penalty this guards against pushed the median to ~0.75,
    well past the 0.85 trip point."""
    rows = results.get("rows", [])
    by_config = {}
    for row in rows:
        if row.get("backend") != "lci" or row.get("threads", 0) != 1:
            continue
        key = (row.get("mode"), row.get("lock_model"))
        by_config.setdefault(key, {})[row.get("aggregation", 0)] = \
            row.get("mmsg_per_sec", 0.0)
    ratios = []
    for (mode, model), pair in sorted(by_config.items()):
        if 0 not in pair or 1 not in pair or pair[0] <= 0:
            continue
        ratios.append(pair[1] / pair[0])
    if not ratios:
        return [], "single-thread aggregation invariant: no row pairs found"
    ratios.sort()
    n = len(ratios)
    median = (ratios[n // 2] if n % 2 else
              (ratios[n // 2 - 1] + ratios[n // 2]) / 2.0)
    if median < 1.0 - tolerance:
        return [(f"fig3 single-thread aggregation penalty: median "
                 f"lci+agg/lci ratio {median:.2f} < {1.0 - tolerance:.2f} "
                 f"across {n} config(s) at 1 thread (bypass not engaging)")], \
               None
    return [], (f"single-thread aggregation invariant holds: median "
                f"lci+agg/lci ratio {median:.2f} across {n} config(s)")


def check_recv_path_invariant(results, floor):
    """fig3 invariant from the lock-free receive-path work, over the
    8-thread non-aggregated lci rows:

    * floor: the best rate across every mode/lock-model configuration must
      clear `floor` Mmsg/s (default 1.0527 = the 0.915 pre-sharding baseline
      + the 15% the shard-steered matching engine, MPSC completion queues,
      and sharded packet pools bought). Best-of-any-config (like the
      aggregation invariant) because which configuration peaks on an
      oversubscribed CI host varies run to run, but *some* config clearing
      the floor is stable.
    * lock: the best *dedicated*-mode row must report retry_lock == 0.
      There each thread owns its device, so a device-lock retry means the
      design broke. Shared-mode rows are not checked: retry_lock counts
      post-side try-lock misses, and threads sharing one device always
      take some.

    The CI job merges two passes best-per-row first (retry_lock
    worst-case)."""
    best, best_dedicated = None, None
    for row in results.get("rows", []):
        if row.get("backend") != "lci" or row.get("aggregation", 0) != 0 or \
           row.get("threads", 0) != 8:
            continue
        rate = row.get("mmsg_per_sec", 0.0)
        if best is None or rate > best.get("mmsg_per_sec", 0.0):
            best = row
        if row.get("mode") == "dedicated" and (
                best_dedicated is None or
                rate > best_dedicated.get("mmsg_per_sec", 0.0)):
            best_dedicated = row
    if best is None:
        return [], ("recv-path invariant: no 8-thread non-aggregated lci "
                    "rows (nothing to check)")

    def describe(row):
        return (f"{row.get('mode')}/{row.get('lock_model')} @ 8 threads: "
                f"{row.get('mmsg_per_sec', 0.0):.4f} Mmsg/s, "
                f"retry_lock={row.get('retry_lock', 0)}")

    rate = best.get("mmsg_per_sec", 0.0)
    failures = []
    if rate < floor:
        failures.append(
            f"fig3 recv-path floor violated: best 8-thread non-aggregated "
            f"lci rate {rate:.4f} < {floor:.4f} Mmsg/s ({describe(best)})")
    if best_dedicated is not None and best_dedicated.get("retry_lock", 0):
        failures.append(
            f"fig3 recv-path lock invariant violated: best 8-thread "
            f"non-aggregated dedicated lci row took "
            f"{best_dedicated.get('retry_lock')} device-lock retries; a "
            f"thread's own device must never spin on its lock "
            f"({describe(best_dedicated)})")
    if failures:
        return failures, None
    lock_note = (f"; lock-free on {describe(best_dedicated)}"
                 if best_dedicated is not None else
                 "; no dedicated rows (lock check skipped)")
    return [], (f"recv-path invariant holds: {describe(best)} >= "
                f"{floor:.4f}{lock_note}")


def check_reg_cache_invariant(results_dirs, min_rate):
    """Registration-cache invariant from the net-backend work: on the
    real-transport fig4 sweep the receive buffer is reused every iteration,
    so after the first (cold) registration every rendezvous receive must hit
    the cache. Rows whose reg_hits + reg_misses is large enough to be a
    steady-state sample (>= 8 registrations) must show a hit rate of at
    least min_rate; eager rows (no registrations) are skipped. Reports are
    named BENCH_fig4_bandwidth_<net>.json — absent reports (a sim-only run)
    simply mean there is nothing to check."""
    failures, checked = [], 0
    for results_dir in results_dirs:
        if not os.path.isdir(results_dir):
            continue
        for fname in sorted(os.listdir(results_dir)):
            if not fname.startswith("BENCH_fig4_bandwidth_") or \
               not fname.endswith(".json"):
                continue
            report = load_report(os.path.join(results_dir, fname))
            for row in report.get("rows", []):
                hits = row.get("reg_hits", 0)
                misses = row.get("reg_misses", 0)
                total = hits + misses
                if total < 8:
                    continue
                checked += 1
                rate = hits / total
                if rate < min_rate:
                    failures.append(
                        f"reg-cache hit-rate invariant violated: "
                        f"{fname} net={row.get('net')} "
                        f"msg_size={row.get('msg_size')}: "
                        f"{hits}/{total} = {rate:.0%} < {min_rate:.0%}")
    if failures:
        return failures, None
    return [], (f"reg-cache invariant holds: >= {min_rate:.0%} steady-state "
                f"hit rate in {checked} rendezvous row(s)")


def check_backpressure_invariant(results_dirs, min_ratio=0.5):
    """Futex-backpressure invariant from the hostile-conditions work: the CI
    soak reruns the real-transport fig4 sweep with a deliberately tiny SHM
    ring (LCI_SHM_RING_KB=8). Two things must hold across the merged shm
    reports: (1) the small-ring rows actually parked producers on the
    consumer-progress futex (sum of bp_waits > 0 — if it is zero the
    producer never saw ring-full and the soak tested nothing), and (2) on
    small messages (<= 4096 B, where the ring size is the only difference)
    the small-ring throughput stays within min_ratio of the default-ring
    run — parking must be a bounded wait, not a collapse. Large-message
    rows are excluded: a tiny ring legitimately serializes rendezvous
    traffic. Reports without small-ring rows (no soak ran) check nothing."""
    by_ring = {}
    for results_dir in results_dirs:
        if not os.path.isdir(results_dir):
            continue
        for fname in sorted(os.listdir(results_dir)):
            if not fname.startswith("BENCH_fig4_bandwidth_shm") or \
               not fname.endswith(".json"):
                continue
            report = load_report(os.path.join(results_dir, fname))
            for row in report.get("rows", []):
                ring = row.get("ring_kb", 1024)
                sizes = by_ring.setdefault(ring, {})
                size = row.get("msg_size", 0)
                cur = sizes.setdefault(size, {"gb": 0.0, "bp": 0})
                cur["gb"] = max(cur["gb"], row.get("gb_per_sec", 0.0))
                cur["bp"] += row.get("bp_waits", 0)
    if len(by_ring) < 2:
        return [], ("backpressure invariant: no small-ring soak rows "
                    "(nothing to check)")
    small = min(by_ring)
    default = max(by_ring)
    failures = []
    total_bp = sum(cell["bp"] for cell in by_ring[small].values())
    if total_bp <= 0:
        failures.append(
            f"backpressure invariant violated: ring_kb={small} soak rows "
            f"recorded zero backpressure_waits (the ring never filled; the "
            f"soak exercised nothing)")
    checked = 0
    for size in sorted(by_ring[small].keys() & by_ring[default].keys()):
        if size > 4096:
            continue
        slow = by_ring[small][size]["gb"]
        fast = by_ring[default][size]["gb"]
        if fast <= 0:
            continue
        checked += 1
        if slow < fast * min_ratio:
            failures.append(
                f"backpressure invariant violated: msg_size={size} "
                f"ring_kb={small} throughput {slow:.4g} GB/s < "
                f"{min_ratio:.0%} of ring_kb={default} run "
                f"({fast:.4g} GB/s) — futex wait is collapsing, not "
                f"bounding")
    if failures:
        return failures, None
    return [], (f"backpressure invariant holds: {total_bp} futex wait(s) "
                f"on ring_kb={small}, throughput within {min_ratio:.0%} of "
                f"ring_kb={default} on {checked} small-message size(s)")


def merge_results(name, paths):
    """Best-per-row merge across repeated runs of the same bench."""
    metric, higher_better = METRICS[name]
    merged = None
    for path in paths:
        report = load_report(path)
        if merged is None:
            merged = report
            continue
        rows = {row_key(r): r for r in merged.get("rows", [])}
        for row in report.get("rows", []):
            key = row_key(row)
            old = rows.get(key)
            if old is None:
                merged["rows"].append(row)
                rows[key] = row
                continue
            a, b = old.get(metric), row.get(metric)
            if a is None or b is None:
                continue
            better = max(a, b) if higher_better else min(a, b)
            old[metric] = better
            # Health counters merge worst-case: a lock retry in *any* run is
            # a violation, even if the other run's rate wins the row.
            if "retry_lock" in row:
                old["retry_lock"] = max(old.get("retry_lock", 0),
                                        row.get("retry_lock", 0))
    return merged


def run_check(baseline_dir, results_dirs, warn_threshold, fail_threshold,
              agg_factor, reg_cache_rate=0.90, recv_floor=1.0527):
    failures, warnings, checked = [], [], 0
    reg_fails, reg_note = check_reg_cache_invariant(results_dirs,
                                                    reg_cache_rate)
    if reg_fails:
        failures.extend(reg_fails)
    elif reg_note:
        print(f"  {reg_note}")
    bp_fails, bp_note = check_backpressure_invariant(results_dirs)
    if bp_fails:
        failures.extend(bp_fails)
    elif bp_note:
        print(f"  {bp_note}")
    for name in sorted(METRICS):
        base_path = os.path.join(baseline_dir, f"BENCH_{name}.json")
        new_paths = [os.path.join(d, f"BENCH_{name}.json")
                     for d in results_dirs]
        new_paths = [p for p in new_paths if os.path.exists(p)]
        if not new_paths:
            warnings.append(f"{name}: no results in "
                            f"{', '.join(results_dirs)}")
            continue
        if not os.path.exists(base_path):
            warnings.append(f"{name}: no baseline at {base_path} "
                            f"(not gated)")
            continue
        baseline = load_report(base_path)
        results = merge_results(name, new_paths)
        if baseline.get("meta", {}).get("smoke") != \
           results.get("meta", {}).get("smoke"):
            warnings.append(f"{name}: smoke flag differs between baseline "
                            f"and results; numbers are not comparable "
                            f"like-for-like")
        f, w = compare_bench(name, baseline, results, warn_threshold,
                             fail_threshold)
        failures.extend(f)
        warnings.extend(w)
        checked += 1
        if name == "fig3_msgrate_thread":
            fail, note = check_agg_invariant(results, agg_factor)
            if fail:
                failures.append(fail)
            else:
                print(f"  {note}")
            cliff_fails, cliff_note = check_cliff_invariant(results)
            if cliff_fails:
                failures.extend(cliff_fails)
            else:
                print(f"  {cliff_note}")
            agg1_fails, agg1_note = check_single_thread_agg_invariant(results)
            if agg1_fails:
                failures.extend(agg1_fails)
            else:
                print(f"  {agg1_note}")
            recv_fails, recv_note = check_recv_path_invariant(results,
                                                              recv_floor)
            if recv_fails:
                failures.extend(recv_fails)
            else:
                print(f"  {recv_note}")

    for msg in warnings:
        print(f"WARN: {msg}")
    for msg in failures:
        print(f"FAIL: {msg}")
    print(f"check_bench: {checked} bench(es) compared, "
          f"{len(warnings)} warning(s), {len(failures)} failure(s)")
    return 1 if failures else 0


def self_test():
    """Exercises the gate logic on synthetic reports: a clean pass, a 50%
    regression (must fail), a broken aggregation invariant (must fail), a
    4->8 thread cliff (must fail), a 1-thread aggregation penalty (must
    fail), the recv-path floor (sub-floor 8-thread rate fails; nonzero
    retry_lock fails on the best dedicated row and passes on a faster
    shared row), and the registration-cache hit-rate invariant
    (healthy 15/16 passes, cold-every-time 5/16 fails; eager rows with zero
    registrations are exempt)."""
    import tempfile

    def write(dirname, name, rows, smoke=1):
        with open(os.path.join(dirname, f"BENCH_{name}.json"), "w") as f:
            json.dump({"bench": name, "meta": {"smoke": smoke},
                       "rows": rows}, f)

    # lci non-aggregated at 1.2 Mmsg/s clears the recv-path floor (1.0527)
    # and keeps the lci+agg/lci ratio at 2.5/1.2 ~ 2.08 >= the 2.0 gate, in
    # both modes; rows deliberately omit retry_lock to prove absence reads
    # as zero.
    fig3_rows = [
        {"mode": m, "lock_model": "ibv", "threads": t,
         "backend": b, "aggregation": a, "msg_size": 8, "mmsg_per_sec": r}
        for m in ("shared", "dedicated")
        for t in (1, 4, 8)
        for b, a, r in (("lci", 0, 1.2), ("lci", 1, 2.5), ("mpi", 0, 0.4))
    ]

    def is_lci_8(r, mode):
        return r["mode"] == mode and r["backend"] == "lci" and \
            r["aggregation"] == 0 and r["threads"] == 8
    fig2_rows = [{"procs_per_node": p, "backend": "lci", "aggregation": 0,
                  "msg_size": 8, "mmsg_per_sec": 0.5} for p in (1, 2)]
    lat_rows = [{"backend": "lci", "median_us": 3.0, "p99_us": 10.0}]

    with tempfile.TemporaryDirectory() as base, \
         tempfile.TemporaryDirectory() as good, \
         tempfile.TemporaryDirectory() as bad, \
         tempfile.TemporaryDirectory() as noagg, \
         tempfile.TemporaryDirectory() as cliff, \
         tempfile.TemporaryDirectory() as agg1, \
         tempfile.TemporaryDirectory() as slowrecv, \
         tempfile.TemporaryDirectory() as locked, \
         tempfile.TemporaryDirectory() as shared_retries, \
         tempfile.TemporaryDirectory() as retired:
        for d in (base, good):
            write(d, "fig2_msgrate_process", fig2_rows)
            write(d, "fig3_msgrate_thread", fig3_rows)
            write(d, "latency", lat_rows)

        # 50% throughput regression on fig2 + 50% latency regression.
        write(bad, "fig2_msgrate_process",
              [dict(r, mmsg_per_sec=r["mmsg_per_sec"] * 0.5)
               for r in fig2_rows])
        write(bad, "fig3_msgrate_thread", fig3_rows)
        write(bad, "latency", [dict(r, median_us=r["median_us"] * 1.5)
                               for r in lat_rows])

        # Aggregation stops helping: agg rate == plain rate.
        write(noagg, "fig2_msgrate_process", fig2_rows)
        write(noagg, "fig3_msgrate_thread",
              [dict(r, mmsg_per_sec=1.0) if r["backend"] == "lci" else r
               for r in fig3_rows])
        write(noagg, "latency", lat_rows)

        # 4->8 thread cliff: the 8-thread non-aggregated rate drops to 0.55
        # while 4 threads stays at 1.2. The cliff/penalty self-tests pass a
        # loosened per-row fail threshold (0.60) so the failure comes from
        # the shape invariants (the cliff, and at 0.55 also the recv-path
        # floor), not the row-level regression gate.
        write(cliff, "fig2_msgrate_process", fig2_rows)
        write(cliff, "fig3_msgrate_thread",
              [dict(r, mmsg_per_sec=0.55)
               if r["backend"] == "lci" and r["aggregation"] == 0
               and r["threads"] == 8 else r
               for r in fig3_rows])
        write(cliff, "latency", lat_rows)

        # 1-thread aggregation penalty: agg-on drops to 0.7x plain in the
        # (only) config, so the median ratio across configs is 0.7 < 0.85.
        write(agg1, "fig2_msgrate_process", fig2_rows)
        write(agg1, "fig3_msgrate_thread",
              [dict(r, mmsg_per_sec=0.7)
               if r["backend"] == "lci" and r["aggregation"] == 1
               and r["threads"] == 1 else r
               for r in fig3_rows])
        write(agg1, "latency", lat_rows)

        # Recv-path floor violation: every non-aggregated lci row sags to a
        # flat 0.96 Mmsg/s. Flat, so the 4->8 cliff check stays quiet; a
        # 1.2 -> 0.96 row regression is 20%, under the 35% row gate; the
        # agg ratio 2.5/0.96 still clears 2.0 — only the floor can fail.
        write(slowrecv, "fig2_msgrate_process", fig2_rows)
        write(slowrecv, "fig3_msgrate_thread",
              [dict(r, mmsg_per_sec=0.96)
               if r["backend"] == "lci" and r["aggregation"] == 0 else r
               for r in fig3_rows])
        write(slowrecv, "latency", lat_rows)

        # Rates are healthy but the best 8-thread dedicated row took
        # device-lock retries: the lock invariant alone must fail the gate.
        write(locked, "fig2_msgrate_process", fig2_rows)
        write(locked, "fig3_msgrate_thread",
              [dict(r, retry_lock=7) if is_lci_8(r, "dedicated") else r
               for r in fig3_rows])
        write(locked, "latency", lat_rows)

        # The fastest 8-thread row is a shared one with try-lock retries,
        # which shared threads always take; the dedicated rows have none.
        write(shared_retries, "fig2_msgrate_process", fig2_rows)
        write(shared_retries, "fig3_msgrate_thread",
              [dict(r, mmsg_per_sec=1.3, retry_lock=7)
               if is_lci_8(r, "shared") else r
               for r in fig3_rows])
        write(shared_retries, "latency", lat_rows)

        # A baseline whose fig3 rows carry route_cache_hits, a measurement
        # the bench no longer writes, at twice the results' rates: the rows
        # must still join, so the 50% regression behind them fails.
        write(retired, "fig2_msgrate_process", fig2_rows)
        write(retired, "fig3_msgrate_thread",
              [dict(r, mmsg_per_sec=r["mmsg_per_sec"] * 2,
                    route_cache_hits=0) for r in fig3_rows])
        write(retired, "latency", lat_rows)

        print("== self-test: identical results must pass")
        assert run_check(base, [good], 0.10, 0.35, 2.0) == 0

        print("== self-test: a baseline with a retired field must join")
        assert run_check(retired, [good], 0.10, 0.35, 2.0) == 1

        print("== self-test: 50% regression must fail")
        assert run_check(base, [bad], 0.10, 0.35, 2.0) == 1

        print("== self-test: broken aggregation invariant must fail")
        assert run_check(base, [noagg], 0.10, 0.35, 2.0) == 1

        print("== self-test: 4->8 thread cliff must fail")
        assert run_check(base, [cliff], 0.10, 0.60, 2.0) == 1

        print("== self-test: 1-thread aggregation penalty must fail")
        # 2.5 -> 0.7 is a 72% row regression; 0.80 keeps the row gate quiet
        # so the exit code can only come from the median-ratio invariant.
        assert run_check(base, [agg1], 0.10, 0.80, 2.0) == 1

        print("== self-test: sub-floor recv-path rate must fail")
        assert run_check(base, [slowrecv], 0.10, 0.35, 2.0) == 1

        print("== self-test: nonzero retry_lock on the best dedicated row "
              "must fail")
        assert run_check(base, [locked], 0.10, 0.35, 2.0) == 1

        print("== self-test: a fastest shared row with retries must pass")
        assert run_check(base, [shared_retries], 0.10, 0.35, 2.0) == 0

        print("== self-test: one good run among the merged set must pass")
        assert run_check(base, [bad, good], 0.10, 0.35, 2.0) == 0

    def fig4_rows(hits, misses):
        return [{"net": "shm", "mode": "real", "backend": "lci",
                 "threads": 1, "msg_size": 65536, "reg_hits": hits,
                 "reg_misses": misses, "gb_per_sec": 1.0},
                {"net": "shm", "mode": "real", "backend": "lci",
                 "threads": 1, "msg_size": 16, "reg_hits": 0,
                 "reg_misses": 0, "gb_per_sec": 0.1}]

    with tempfile.TemporaryDirectory() as base, \
         tempfile.TemporaryDirectory() as warm, \
         tempfile.TemporaryDirectory() as cold:
        write(warm, "fig4_bandwidth_shm", fig4_rows(15, 1))
        write(cold, "fig4_bandwidth_shm", fig4_rows(5, 11))

        print("== self-test: healthy reg-cache hit rate must pass")
        assert run_check(base, [warm], 0.10, 0.35, 2.0) == 0

        print("== self-test: cold reg-cache hit rate must fail")
        assert run_check(base, [cold], 0.10, 0.35, 2.0) == 1

    def ring_rows(ring_kb, gbps, bp):
        return [{"net": "shm", "mode": "real", "backend": "lci",
                 "threads": 1, "msg_size": 1024, "ring_kb": ring_kb,
                 "reg_hits": 0, "reg_misses": 0, "bp_waits": bp,
                 "gb_per_sec": gbps},
                {"net": "shm", "mode": "real", "backend": "lci",
                 "threads": 1, "msg_size": 1 << 20, "ring_kb": ring_kb,
                 "reg_hits": 15, "reg_misses": 1, "bp_waits": bp,
                 "gb_per_sec": gbps * 0.1}]  # big rows exempt from the ratio

    with tempfile.TemporaryDirectory() as base, \
         tempfile.TemporaryDirectory() as deflt, \
         tempfile.TemporaryDirectory() as soak_ok, \
         tempfile.TemporaryDirectory() as soak_idle, \
         tempfile.TemporaryDirectory() as soak_slow:
        write(deflt, "fig4_bandwidth_shm", ring_rows(1024, 2.0, 0))
        write(soak_ok, "fig4_bandwidth_shm", ring_rows(8, 1.2, 37))
        write(soak_idle, "fig4_bandwidth_shm", ring_rows(8, 1.2, 0))
        write(soak_slow, "fig4_bandwidth_shm", ring_rows(8, 0.4, 37))

        print("== self-test: healthy backpressure soak must pass")
        assert run_check(base, [deflt, soak_ok], 0.10, 0.35, 2.0) == 0

        print("== self-test: soak with zero futex waits must fail")
        assert run_check(base, [deflt, soak_idle], 0.10, 0.35, 2.0) == 1

        print("== self-test: small-ring throughput collapse must fail")
        assert run_check(base, [deflt, soak_slow], 0.10, 0.35, 2.0) == 1

    print("check_bench self-test: PASS")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default=".")
    parser.add_argument("--results-dir", action="append", dest="results_dirs",
                        metavar="DIR",
                        help="results directory; repeat for best-per-row "
                             "merging across runs")
    parser.add_argument("--warn-threshold", type=float, default=0.10,
                        help="warn on regressions beyond this fraction")
    parser.add_argument("--fail-threshold", type=float, default=0.35,
                        help="fail on regressions beyond this fraction")
    parser.add_argument("--agg-factor", type=float, default=2.0,
                        help="required best-case lci+agg/lci speedup in fig3")
    parser.add_argument("--reg-cache-rate", type=float, default=0.90,
                        help="required steady-state registration-cache hit "
                             "rate on real-backend fig4 rendezvous rows")
    parser.add_argument("--recv-floor", type=float, default=1.0527,
                        help="required best-config 8-thread non-aggregated "
                             "lci rate in fig3, Mmsg/s (0.915 pre-sharding "
                             "baseline * 1.15)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    results_dirs = args.results_dirs or ["build/bench_reports"]
    return run_check(args.baseline_dir, results_dirs,
                     args.warn_threshold, args.fail_threshold,
                     args.agg_factor, args.reg_cache_rate, args.recv_floor)


if __name__ == "__main__":
    sys.exit(main())
