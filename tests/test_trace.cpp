// Operation-lifecycle tracing (docs/INTERNALS.md "Tracing"): span pairing
// across the eager / coalesced / rendezvous protocols including fatal
// completions, ring wraparound accounting, 1-in-N sampling, the Chrome
// trace exporter, and the zero-record guarantee when tracing is off.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/lci.hpp"

namespace {

uint8_t code(lci::errorcode_t c) { return static_cast<uint8_t>(c); }

// Per-(op id, kind) begin/end tallies. Every span begin must be closed by
// exactly one end — the whole point of riding the completion arbitration
// points (record CAS, pending-table take, bucket remove) is that no path,
// fatal ones included, can end a span twice or forget it.
struct pairing_t {
  std::map<std::pair<uint64_t, lci::trace::kind_t>, std::pair<int, int>> spans;
  std::map<lci::trace::kind_t, int> instants;
  std::map<uint8_t, int> end_errs;  // err byte -> count across all span ends

  explicit pairing_t(const lci::trace_snapshot_t& snap) {
    for (const auto& event : snap.events) {
      switch (event.phase) {
        case lci::trace::phase_t::begin:
          spans[{event.id, event.kind}].first++;
          break;
        case lci::trace::phase_t::end:
          spans[{event.id, event.kind}].second++;
          end_errs[event.err]++;
          break;
        case lci::trace::phase_t::instant:
          instants[event.kind]++;
          break;
      }
    }
  }

  int unbalanced() const {
    int bad = 0;
    for (const auto& [key, counts] : spans) {
      if (counts.first != counts.second) ++bad;
    }
    return bad;
  }

  int begins(lci::trace::kind_t kind) const {
    int n = 0;
    for (const auto& [key, counts] : spans) {
      if (key.second == kind) n += counts.first;
    }
    return n;
  }
};

lci::runtime_attr_t traced_attr() {
  lci::runtime_attr_t attr;
  attr.trace = true;
  attr.trace_ring_size = std::size_t{1} << 16;
  attr.trace_sample = 1;
  return attr;
}

// With tracing off (the default; no LCI_TRACE in the test environment),
// traffic must leave no events and no histogram samples behind. trace_reset
// first: an earlier traced test's generation would otherwise still be
// visible to the snapshot.
TEST(Trace, OffRecordsNothing) {
  lci::trace_reset();
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init();
    const int peer = 1 - rank;
    char out[64] = "quiet";
    char in[64] = {};
    lci::comp_t sync = lci::alloc_sync(1);
    const lci::status_t rs = lci::post_recv(peer, in, sizeof(in), 7, sync);
    lci::barrier();
    lci::status_t ss;
    do {
      ss = lci::post_send(peer, out, sizeof(out), 7, {});
      lci::progress();
    } while (ss.error.is_retry());
    if (rs.error.is_posted()) lci::sync_wait(sync, nullptr);
    lci::barrier();
    lci::free_comp(&sync);
    lci::g_runtime_fina();
  });
  const lci::trace_snapshot_t snap = lci::trace_snapshot();
  EXPECT_TRUE(snap.events.empty());
  EXPECT_EQ(snap.trace_dropped, 0u);
  const lci::histograms_t hist = lci::get_histograms();
  EXPECT_EQ(hist.post_eager.count, 0u);
  EXPECT_EQ(hist.post_batch.count, 0u);
  EXPECT_EQ(hist.post_rdv.count, 0u);
  EXPECT_EQ(hist.post_recv.count, 0u);
  EXPECT_EQ(hist.progress_poll.count, 0u);
}

// Mixed traffic crossing all three protocols: 8 B sends coalesce into
// batches, 600 B sends take the plain eager (bcopy) path, 20 kB sends go
// rendezvous. Every span must pair, every protocol must contribute its
// events and histogram samples, and the Chrome exporter must produce a
// loadable dump.
TEST(Trace, SpanPairingAcrossProtocols) {
  lci::runtime_attr_t attr = traced_attr();
  attr.allow_aggregation = true;
  attr.aggregation_flush_us = 0;  // flush per progress poll
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    const int peer = 1 - rank;
    constexpr int rounds = 8;
    const std::size_t sizes[] = {8, 600, 20000};  // batch / eager / rdv
    constexpr int per_round = 3;

    std::vector<std::vector<char>> inbox;
    lci::comp_t rsync = lci::alloc_sync(rounds * per_round);
    for (int i = 0; i < rounds; ++i) {
      for (int s = 0; s < per_round; ++s) {
        inbox.emplace_back(sizes[s], 0);
        const lci::status_t rs =
            lci::post_recv_x(peer, inbox.back().data(), sizes[s],
                             static_cast<lci::tag_t>(s), rsync)
                .allow_done(false)();
        ASSERT_TRUE(rs.error.is_posted());
      }
    }
    lci::barrier();
    std::vector<char> out(20000, static_cast<char>('a' + rank));
    lci::comp_t scq = lci::alloc_cq();
    int owed = 0;
    for (int i = 0; i < rounds; ++i) {
      for (int s = 0; s < per_round; ++s) {
        lci::status_t ss;
        do {
          // One posting thread per rank: opt in per post, or the
          // single-poster bypass would send the 8 B sends unbatched and
          // there would be no post_batch spans.
          ss = lci::post_send_x(peer, out.data(), sizes[s],
                                static_cast<lci::tag_t>(s), scq)
                   .allow_aggregation(true)();
          lci::progress();
        } while (ss.error.is_retry());
        if (ss.error.is_posted()) ++owed;
      }
    }
    while (owed > 0) {
      lci::progress();
      if (lci::cq_pop(scq).error.is_done()) --owed;
    }
    lci::sync_wait(rsync, nullptr);
    lci::barrier();
    lci::free_comp(&rsync);
    lci::free_comp(&scq);
    lci::g_runtime_fina();
  });

  const lci::trace_snapshot_t snap = lci::trace_snapshot();
  ASSERT_FALSE(snap.events.empty());
  EXPECT_EQ(snap.trace_dropped, 0u);
  const pairing_t pairs(snap);
  EXPECT_EQ(pairs.unbalanced(), 0);

  using k = lci::trace::kind_t;
  EXPECT_GT(pairs.begins(k::post), 0);
  EXPECT_GT(pairs.begins(k::op_eager), 0);
  EXPECT_GT(pairs.begins(k::op_batch), 0);
  EXPECT_GT(pairs.begins(k::op_rdv), 0);
  EXPECT_GT(pairs.begins(k::op_recv), 0);
  EXPECT_GT(pairs.begins(k::batch_slot), 0);
  EXPECT_GT(pairs.begins(k::wire), 0);
  EXPECT_GT(pairs.instants.count(k::coalesce), 0u);
  EXPECT_GT(pairs.instants.count(k::match), 0u);
  EXPECT_GT(pairs.instants.count(k::rts), 0u);
  EXPECT_GT(pairs.instants.count(k::rtr), 0u);
  EXPECT_GT(pairs.instants.count(k::fin), 0u);

  const lci::histograms_t hist = lci::get_histograms();
  EXPECT_GT(hist.post_eager.count, 0u);
  EXPECT_GT(hist.post_batch.count, 0u);
  EXPECT_GT(hist.post_rdv.count, 0u);
  EXPECT_GT(hist.post_recv.count, 0u);
  EXPECT_GT(hist.progress_poll.count, 0u);
  EXPECT_LE(hist.post_rdv.p50_ns, hist.post_rdv.p99_ns);
  EXPECT_LE(hist.post_rdv.p99_ns, hist.post_rdv.max_ns);

  const std::string path =
      ::testing::TempDir() + "trace_pairing_dump.json";
  ASSERT_TRUE(lci::trace_dump_json(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char head[2] = {};
  ASSERT_EQ(std::fread(head, 1, 1, f), 1u);
  EXPECT_EQ(head[0], '{');
  std::fclose(f);
  std::remove(path.c_str());
}

// Deadline and cancel() on sub-operations buffered in an aggregation slot:
// the cancel/timeout path wins the completion, the later flush resolves the
// pending entry — the trace span must still end exactly once, labeled with
// the winner's errorcode.
TEST(Trace, FatalTimeoutAndCancelEndSpans) {
  lci::runtime_attr_t attr = traced_attr();
  attr.allow_aggregation = true;
  attr.aggregation_flush_us = 1000000;  // no age flush in-test
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    if (rank == 0) {
      lci::comp_t cq = lci::alloc_cq();
      char out[8] = "timed";
      // The test needs the sends parked in a slot: opt in per post, or the
      // single-poster bypass would send them straight through and there
      // would be nothing to cancel.
      lci::status_t ss = lci::post_send_x(1, out, sizeof(out), 1, cq)
                             .allow_done(false)
                             .deadline(2000)
                             .allow_aggregation(true)();
      ASSERT_TRUE(ss.error.is_posted());
      lci::status_t st;
      do {
        lci::progress();
        st = lci::cq_pop(cq);
      } while (st.error.is_retry());
      EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_timeout);

      lci::op_t op;
      ss = lci::post_send_x(1, out, sizeof(out), 2, cq)
               .allow_done(false)
               .op_handle(&op)
               .allow_aggregation(true)();
      ASSERT_TRUE(ss.error.is_posted());
      EXPECT_TRUE(lci::cancel(op));
      do {
        st = lci::cq_pop(cq);
      } while (st.error.is_retry());
      EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_canceled);

      // Flush the slot so the pending entries resolve and the spans close.
      for (int i = 0; i < 100000; ++i) {
        if (lci::flush() != 0) break;
        lci::progress();
      }
      for (int i = 0; i < 50; ++i) lci::progress();
      lci::free_comp(&cq);
    }
    lci::barrier();
    lci::g_runtime_fina();
  });

  const lci::trace_snapshot_t snap = lci::trace_snapshot();
  const pairing_t pairs(snap);
  EXPECT_EQ(pairs.unbalanced(), 0);
  EXPECT_GE(pairs.begins(lci::trace::kind_t::op_batch), 2);
  EXPECT_GT(pairs.end_errs.count(code(lci::errorcode_t::fatal_timeout)), 0u);
  EXPECT_GT(pairs.end_errs.count(code(lci::errorcode_t::fatal_canceled)), 0u);
}

// Peer death: a send posted to an already-dead rank completes fatally at
// posting time (zero-length span pair), and a parked receive purged by the
// death sweep ends its span with fatal_peer_down.
TEST(Trace, PeerDownEndsSpans) {
  static std::atomic<bool> rank0_done{false};
  static std::atomic<int> inited{0};
  rank0_done.store(false);
  inited.store(0);
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init(traced_attr());
    // Both runtimes must be up before rank 0 proceeds: if rank 0 ran its
    // whole body and finalized before rank 1 initialized, the trace
    // refcount would hit zero and rank 1's init would start a fresh trace
    // generation, retiring rank 0's events from the snapshot below. A
    // plain flag, not barrier(): rank 1 could still be inside a collective
    // when kill_peer(1) fires, failing the barrier fatally.
    inited.fetch_add(1, std::memory_order_release);
    while (inited.load(std::memory_order_acquire) < 2)
      std::this_thread::yield();
    if (rank == 0) {
      lci::comp_t cq = lci::alloc_cq();
      char in[32] = {};
      const lci::status_t rs =
          lci::post_recv_x(1, in, sizeof(in), 9, cq).allow_done(false)();
      ASSERT_TRUE(rs.error.is_posted());
      EXPECT_TRUE(lci::kill_peer(1));
      // The death sweep purges the parked receive with fatal_peer_down.
      lci::status_t st;
      do {
        lci::progress();
        st = lci::cq_pop(cq);
      } while (st.error.is_retry());
      EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_peer_down);
      // Sends naming the dead rank fail at posting time (returned fatal).
      char out[8] = "late";
      const lci::status_t ss = lci::post_send(1, out, sizeof(out), 9, {});
      EXPECT_EQ(ss.error.code, lci::errorcode_t::fatal_peer_down);
      lci::free_comp(&cq);
      rank0_done.store(true);
    } else {
      // No barrier: rank 0 declared us dead, so collective traffic with it
      // can never complete. Park until its checks are done.
      while (!rank0_done.load()) lci::progress();
    }
    lci::g_runtime_fina();
  });

  const lci::trace_snapshot_t snap = lci::trace_snapshot();
  const pairing_t pairs(snap);
  EXPECT_EQ(pairs.unbalanced(), 0);
  auto it = pairs.end_errs.find(code(lci::errorcode_t::fatal_peer_down));
  ASSERT_NE(it, pairs.end_errs.end());
  EXPECT_GE(it->second, 2);  // the purged receive + the rejected send
}

// A ring much smaller than the event volume: the snapshot reports the
// overwritten slots in trace_dropped and keeps only the newest events,
// while the histograms (separate per-thread cells, no ring) still count
// every completed operation.
TEST(Trace, WraparoundDropsOldestAndCounts) {
  lci::runtime_attr_t attr = traced_attr();
  attr.trace_ring_size = 64;
  constexpr int count = 400;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    const int peer = 1 - rank;
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();
    char payload[16] = "wrap";
    int sent = 0, received = 0;
    while (sent < count || received < count) {
      if (sent < count) {
        const auto ss =
            lci::post_am(peer, payload, sizeof(payload), {}, rcomp);
        if (!ss.error.is_retry()) ++sent;
      }
      lci::progress();
      const lci::status_t st = lci::cq_pop(rcq);
      if (st.error.is_done()) {
        std::free(st.buffer.base);
        ++received;
      }
    }
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });

  const lci::trace_snapshot_t snap = lci::trace_snapshot();
  EXPECT_GT(snap.trace_dropped, 0u);
  ASSERT_FALSE(snap.events.empty());
  // Oldest-first overwrite: everything still in the ring is newer than
  // everything dropped, so the survivors must include the very last events
  // recorded — at least one op id from the final quarter of the id space.
  uint64_t max_id = 0;
  for (const auto& event : snap.events) max_id = std::max(max_id, event.id);
  EXPECT_GT(max_id, static_cast<uint64_t>(count));
  // The histograms never wrap: every eager AM completion is counted.
  EXPECT_GE(lci::get_histograms().post_eager.count,
            static_cast<uint64_t>(2 * count));
}

// 1-in-N sampling: unsampled ops record no events at all, but the sampled
// subset still feeds the histograms, so percentiles stay usable at a
// fraction of the ring traffic.
TEST(Trace, SamplingKeepsHistograms) {
  lci::runtime_attr_t attr = traced_attr();
  attr.trace_sample = 8;
  constexpr int count = 256;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    const int peer = 1 - rank;
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();
    char payload[16] = "sample";
    int sent = 0, received = 0;
    while (sent < count || received < count) {
      if (sent < count) {
        const auto ss =
            lci::post_am(peer, payload, sizeof(payload), {}, rcomp);
        if (!ss.error.is_retry()) ++sent;
      }
      lci::progress();
      const lci::status_t st = lci::cq_pop(rcq);
      if (st.error.is_done()) {
        std::free(st.buffer.base);
        ++received;
      }
    }
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });

  const lci::trace_snapshot_t snap = lci::trace_snapshot();
  const pairing_t pairs(snap);
  EXPECT_EQ(pairs.unbalanced(), 0);
  const int posts = pairs.begins(lci::trace::kind_t::post);
  EXPECT_GT(posts, 0);
  EXPECT_LT(posts, 2 * count / 2);  // well below the 2*count total posts
  const lci::histograms_t hist = lci::get_histograms();
  EXPECT_GT(hist.post_eager.count, 0u);
  EXPECT_LT(hist.post_eager.count, static_cast<uint64_t>(2 * count));
}

}  // namespace
