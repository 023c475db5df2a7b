#!/usr/bin/env python3
"""Per-stage time breakdown from a Chrome trace_event dump.

Reads the JSON written by lci::trace_dump_json() (or the LCI_TRACE_DUMP
bench hook) and reports, for each operation kind (eager, eager_batch,
rendezvous, recv), how the post-to-completion interval decomposes into
stages: time inside the post() call itself, residency in an aggregation
slot, residency in the retry backlog, and time on the wire. Instants
(coalesce_append, match, rts/rtr/fin) are reported as counts.

Spans in the dump are async begin/end pairs keyed by op id; the stage
spans of one operation (post call, batch_slot and backlog residency)
share its id, so the breakdown is a per-id join. Wire spans are the
exception: the net layer allocates them their own ids (a coalesced batch
is one wire message carrying many ops), so wire hops are summarized as
their own section rather than as a per-op column.

With device_shards > 1 each shard is its own net device, and the wire
span's *begin* event records the source device index in its tag field
(the end event does not repeat it — the join takes the shard from the
begin). Those spans are additionally broken down per source shard, which
is how an affinity-routing imbalance shows up: one hot shard carrying
most hops (a broken steer) versus an even spread (threads landed on
their own endpoints).

Usage:
  scripts/trace_summary.py TRACE.json [--json]
"""

import argparse
import collections
import json
import sys

# Span kinds that classify an op id as one operation of that kind.
OP_KINDS = ("eager", "eager_batch", "rendezvous", "recv")
# Per-op stage spans joined on the op id.
STAGE_KINDS = ("post", "batch_slot", "backlog")
INSTANT_KINDS = ("coalesce_append", "match", "rts", "rtr", "fin")


def percentile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * (len(sorted_vals) - 1) + 0.5))
    return sorted_vals[idx]


def stats(vals):
    vals = sorted(vals)
    return {
        "count": len(vals),
        "mean_us": sum(vals) / len(vals) if vals else 0.0,
        "p50_us": percentile(vals, 0.50),
        "p99_us": percentile(vals, 0.99),
        "max_us": vals[-1] if vals else 0.0,
    }


def load_spans(path):
    """Returns (spans, wire_by_shard, instants, unpaired): spans maps op id
    -> kind -> list of durations in us; wire_by_shard maps the wire begin
    event's tag (the source device/shard index) -> list of durations;
    instants maps name -> count."""
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents", [])
    open_begins = {}   # (id, name) -> stack of (begin ts, begin tag)
    spans = collections.defaultdict(lambda: collections.defaultdict(list))
    wire_by_shard = collections.defaultdict(list)
    instants = collections.Counter()
    unpaired = 0
    for ev in sorted(events, key=lambda e: e.get("ts", 0.0)):
        name = ev.get("name")
        phase = ev.get("ph")
        if phase == "i":
            instants[name] += 1
            continue
        if phase not in ("b", "e"):
            continue
        key = (ev.get("id"), name)
        if phase == "b":
            tag = (ev.get("args") or {}).get("tag")
            open_begins.setdefault(key, []).append((ev.get("ts", 0.0), tag))
        else:
            stack = open_begins.get(key)
            if not stack:
                unpaired += 1
                continue
            begin_ts, begin_tag = stack.pop()
            op_id = int(str(ev.get("id")), 16)
            duration = ev.get("ts", 0.0) - begin_ts
            spans[op_id][name].append(duration)
            # The source shard rides only on the begin event (the end event
            # reports the wire error code in place of it).
            if name == "wire" and begin_tag is not None:
                wire_by_shard[begin_tag].append(duration)
    unpaired += sum(len(s) for s in open_begins.values())
    return spans, wire_by_shard, instants, unpaired


def summarize(spans):
    """Returns (op-kind -> stage -> stats, wire-hop stats, unclassified)."""
    by_kind = collections.defaultdict(
        lambda: collections.defaultdict(list))
    wire = []
    unclassified = 0
    for _op_id, kinds in spans.items():
        wire.extend(kinds.get("wire", []))
        op_kind = next((k for k in OP_KINDS if k in kinds), None)
        if op_kind is None:
            # Ids with no op-lifecycle span: wire hops (own net-layer ids),
            # engine sleeps, and bare posts — accepted posts that open no op
            # span (RMA put/get, a post parked on the backlog). A post
            # attempt that returned retry records no post span at all.
            unclassified += 1
            continue
        bucket = by_kind[op_kind]
        bucket["total"].append(sum(kinds[op_kind]))
        for stage in STAGE_KINDS:
            if stage in kinds:
                bucket[stage].append(sum(kinds[stage]))
    summary = {}
    for op_kind, stages in by_kind.items():
        summary[op_kind] = {name: stats(vals)
                            for name, vals in stages.items()}
    return summary, stats(wire) if wire else None, unclassified


def print_row(name, s):
    print(f"  {name:<12}{s['count']:>8}{s['mean_us']:>10.2f}"
          f"{s['p50_us']:>10.2f}{s['p99_us']:>10.2f}"
          f"{s['max_us']:>10.2f}")


def print_table(summary, wire, wire_by_shard, instants, unpaired,
                unclassified):
    header = (f"  {'stage':<12}{'count':>8}{'mean_us':>10}{'p50_us':>10}"
              f"{'p99_us':>10}{'max_us':>10}")
    cols = ["total"] + list(STAGE_KINDS)
    for op_kind in OP_KINDS:
        stages = summary.get(op_kind)
        if not stages:
            continue
        n = stages["total"]["count"]
        print(f"\n{op_kind}: {n} op(s)")
        print(header)
        for col in cols:
            s = stages.get(col)
            if s is not None:
                print_row(col, s)
    if wire:
        print(f"\nwire hops (one per message; a batch is one message):")
        print(header)
        print_row("wire", wire)
    if wire_by_shard and len(wire_by_shard) > 1:
        # Only worth a section when there is more than one source device:
        # the spread (or skew) across shards is the signal.
        total = sum(len(v) for v in wire_by_shard.values())
        print(f"\nwire hops by source shard (device_shards routing):")
        print(header)
        for shard in sorted(wire_by_shard):
            s = stats(wire_by_shard[shard])
            share = s["count"] / total if total else 0.0
            print_row(f"shard {shard}", s)
            print(f"  {'':<12}{share:>7.0%} of hops")
    if instants:
        print("\ninstants:")
        for name in INSTANT_KINDS:
            if instants.get(name):
                print(f"  {name:<16}{instants[name]:>8}")
    if unpaired:
        print(f"\nnote: {unpaired} unpaired span event(s) "
              f"(ring wraparound drops the oldest events first)")
    if unclassified:
        print(f"note: {unclassified} id(s) without an op-lifecycle span "
              f"(batch carriers, engine sleeps, sampled-out posts)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace_event JSON dump")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    args = parser.parse_args()
    spans, wire_by_shard, instants, unpaired = load_spans(args.trace)
    summary, wire, unclassified = summarize(spans)
    if not summary:
        print("no op-lifecycle spans found (was tracing on?)",
              file=sys.stderr)
        return 1
    if args.json:
        json.dump({"ops": summary, "wire": wire,
                   "wire_by_shard": {str(k): stats(v)
                                     for k, v in wire_by_shard.items()},
                   "instants": dict(instants), "unpaired": unpaired,
                   "unclassified": unclassified},
                  sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        print_table(summary, wire, wire_by_shard, instants, unpaired,
                    unclassified)
    return 0


if __name__ == "__main__":
    sys.exit(main())
