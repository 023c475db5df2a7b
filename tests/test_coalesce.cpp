// Eager-message coalescing (docs/INTERNALS.md "Message coalescing"):
// batch assembly and unpack, the matching-order flush, AM delivery in both
// modes from shared batch packets, explicit flush(), resolved device
// attributes, and deadline/cancel on buffered sub-operations.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "core/lci.hpp"

namespace {

lci::runtime_attr_t agg_attr() {
  lci::runtime_attr_t attr;
  attr.matching_engine_buckets = 256;
  attr.allow_aggregation = true;
  // These tests assert exact coalescing counters from single-threaded
  // posters, so the single-poster bypass must not silently divert their
  // traffic to the plain eager path.
  attr.aggregation_bypass_single_poster = false;
  return attr;
}

// flush() retries transient back-pressure internally, so one call posts
// every armed batch; the loop remains for batches that are not armed yet at
// the first call (e.g. an age-flush race re-arming a slot).
std::size_t flush_until_posted() {
  for (int i = 0; i < 100000; ++i) {
    const std::size_t n = lci::flush();
    if (n != 0) return n;
    lci::progress();
  }
  return 0;
}

// Coalesced traffic and bypass traffic to the same peer must match in posted
// order: every non-aggregated message flushes the armed slot first, so the
// wire carries [batch{0,1}, large 2, batch{3,4}, large 5, ...] and rank_only
// receives (pure FIFO matching) observe exactly the posted sequence.
TEST(Coalesce, BatchAndBypassMatchInPostedOrder) {
  lci::runtime_attr_t attr = agg_attr();
  // No age flush in-test: every batch below goes out via the matching-order
  // rule or the explicit flush(), so the counters are exact.
  attr.aggregation_flush_us = 1000000;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    const lci::counters_t base = lci::get_counters();
    constexpr int count = 10;
    constexpr std::size_t small_size = 8;
    constexpr std::size_t large_size = 600;  // above aggregation_eager_max
    auto is_large = [](int i) { return i % 3 == 2; };
    if (rank == 1) {
      std::vector<std::vector<char>> inbox(
          count, std::vector<char>(large_size, 0));
      lci::comp_t sync = lci::alloc_sync(count);
      for (int i = 0; i < count; ++i) {
        const lci::status_t rs =
            lci::post_recv_x(0, inbox[static_cast<std::size_t>(i)].data(),
                             large_size, 0, sync)
                .matching_policy(lci::matching_policy_t::rank_only)
                .allow_done(false)();
        ASSERT_TRUE(rs.error.is_posted());
      }
      lci::sync_wait(sync, nullptr);
      for (int i = 0; i < count; ++i) {
        const auto& buf = inbox[static_cast<std::size_t>(i)];
        EXPECT_EQ(buf[0], static_cast<char>('A' + i)) << "message " << i;
        const std::size_t last = (is_large(i) ? large_size : small_size) - 1;
        EXPECT_EQ(buf[last], static_cast<char>('A' + i)) << "message " << i;
      }
      EXPECT_GE(lci::get_counters().recv_batches - base.recv_batches, 4u);
      lci::free_comp(&sync);
    } else {
      std::vector<char> out(large_size);
      for (int i = 0; i < count; ++i) {
        const std::size_t size = is_large(i) ? large_size : small_size;
        std::memset(out.data(), 'A' + i, size);
        lci::status_t ss;
        do {
          ss = lci::post_send_x(1, out.data(), size, 0, {})
                   .matching_policy(lci::matching_policy_t::rank_only)();
          lci::progress();
        } while (ss.error.is_retry());
        ASSERT_TRUE(ss.error.is_done());  // copy taken: buffer reusable
      }
      // Message 9 is still buffered; push it explicitly.
      EXPECT_EQ(flush_until_posted(), 1u);
      EXPECT_EQ(lci::flush(), 0u);  // nothing armed anymore
      const lci::counters_t c = lci::get_counters();
      EXPECT_EQ(c.send_coalesced - base.send_coalesced, 7u);  // small sends
      // One ordering flush per large bypass send; plus the explicit flush.
      EXPECT_EQ(c.batch_flush_ordering - base.batch_flush_ordering, 3u);
      EXPECT_EQ(c.batches_flushed - base.batches_flushed, 4u);
    }
    lci::barrier();
    lci::g_runtime_fina();
  });
}

// A per-post override can opt out (and in) regardless of the runtime attr.
TEST(Coalesce, PerPostOverride) {
  lci::sim::spawn(2, [](int rank) {
    lci::runtime_attr_t attr = agg_attr();
    attr.allow_aggregation = false;     // off by default...
    attr.aggregation_flush_us = 1000000;  // explicit flush only, no age race
    lci::g_runtime_init(attr);
    if (rank == 0) {
      const lci::counters_t base = lci::get_counters();
      char out[8] = "sub";
      lci::status_t ss;
      do {  // ...but forced on for this post
        ss = lci::post_send_x(1, out, sizeof(out), 3, {})
                 .allow_aggregation(true)();
        lci::progress();
      } while (ss.error.is_retry());
      EXPECT_EQ(lci::get_counters().send_coalesced - base.send_coalesced, 1u);
      EXPECT_EQ(flush_until_posted(), 1u);
    } else {
      char in[8] = {};
      lci::comp_t sync = lci::alloc_sync(1);
      const lci::status_t rs = lci::post_recv(0, in, sizeof(in), 3, sync);
      if (rs.error.is_posted()) lci::sync_wait(sync, nullptr);
      EXPECT_STREQ(in, "sub");
      lci::free_comp(&sync);
    }
    lci::barrier();
    lci::g_runtime_fina();
  });
}

// Aggregated active messages, copy delivery: payloads malloc'd per AM.
TEST(Coalesce, AggregatedAmsCopyDelivery) {
  lci::runtime_attr_t attr = agg_attr();
  attr.aggregation_flush_us = 0;  // flush whatever accumulated per progress
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    const lci::counters_t base = lci::get_counters();
    const int peer = 1 - rank;
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();
    constexpr int count = 200;
    char payload[96];
    int sent = 0, received = 0;
    while (sent < count || received < count) {
      // Post in small bursts so batches really carry several sub-messages.
      for (int burst = 0; burst < 4 && sent < count; ++burst) {
        snprintf(payload, sizeof(payload), "batched am %d from %d", sent,
                 rank);
        const auto ss =
            lci::post_am(peer, payload, sizeof(payload), {}, rcomp);
        if (!ss.error.is_retry()) ++sent;
      }
      lci::progress();
      lci::status_t s = lci::cq_pop(rcq);
      if (s.error.is_done()) {
        int index = -1, from = -1;
        sscanf(static_cast<char*>(s.buffer.base), "batched am %d from %d",
               &index, &from);
        EXPECT_EQ(from, peer);
        EXPECT_GE(index, 0);
        std::free(s.buffer.base);
        ++received;
      }
    }
    EXPECT_EQ(lci::get_counters().send_coalesced - base.send_coalesced,
              static_cast<uint64_t>(count));
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });
}

// Aggregated active messages, packet delivery: every AM in a batch shares one
// refcounted packet; release_am_packet returns it to the pool exactly when
// the last slice is released.
TEST(Coalesce, AggregatedAmsPacketDelivery) {
  lci::runtime_attr_t attr = agg_attr();
  attr.aggregation_flush_us = 0;
  attr.am_deliver_packets = true;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    const int peer = 1 - rank;
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();
    constexpr int count = 200;
    char payload[96];
    int sent = 0, received = 0;
    std::vector<lci::status_t> held;  // delay releases across whole batches
    while (sent < count || received < count) {
      for (int burst = 0; burst < 4 && sent < count; ++burst) {
        snprintf(payload, sizeof(payload), "batched am %d from %d", sent,
                 rank);
        const auto ss =
            lci::post_am(peer, payload, sizeof(payload), {}, rcomp);
        if (!ss.error.is_retry()) ++sent;
      }
      lci::progress();
      lci::status_t s = lci::cq_pop(rcq);
      if (s.error.is_done()) {
        int index = -1, from = -1;
        sscanf(static_cast<char*>(s.buffer.base), "batched am %d from %d",
               &index, &from);
        EXPECT_EQ(from, peer);
        held.push_back(s);
        ++received;
        if (held.size() >= 8) {
          for (const auto& h : held) lci::release_am_packet(h);
          held.clear();
        }
      }
    }
    for (const auto& h : held) lci::release_am_packet(h);
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });
}

// Resolved aggregation policy and poll burst are visible in device attrs.
TEST(Coalesce, DeviceAttrsReportResolvedPolicy) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(agg_attr());
    lci::device_attr_t attr = lci::get_attr(lci::device_t{});
    EXPECT_TRUE(attr.allow_aggregation);
    EXPECT_EQ(attr.aggregation_eager_max, 256u);
    EXPECT_EQ(attr.aggregation_max_bytes, 4096u - 16u);  // payload capacity
    EXPECT_EQ(attr.aggregation_max_msgs, 64u);
    EXPECT_EQ(attr.aggregation_flush_us, 100u);
    EXPECT_EQ(attr.cq_poll_burst, 64u);  // fabric poll_burst default
    lci::g_runtime_fina();

    lci::runtime_attr_t custom = agg_attr();
    custom.cq_poll_burst = 7;
    lci::g_runtime_init(custom);
    EXPECT_EQ(lci::get_attr(lci::device_t{}).cq_poll_burst, 7u);
    lci::g_runtime_fina();

    custom.cq_poll_burst = 1000;  // clamped to the progress stack array
    lci::g_runtime_init(custom);
    EXPECT_EQ(lci::get_attr(lci::device_t{}).cq_poll_burst, 64u);
    lci::g_runtime_fina();
  });
}

// Deadline and cancel() complete a buffered sub-operation exactly once; the
// staged bytes still travel on the eventual flush (completion-only cancel).
TEST(Coalesce, DeadlineAndCancelOnBufferedSubOps) {
  lci::runtime_attr_t attr = agg_attr();
  attr.aggregation_flush_us = 1000000;  // nothing flushes by age in-test
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    if (rank == 0) {
      // Tags 1 and 2 hash to different shards when device_shards > 1; pin
      // this thread so both sub-ops park in one slot and the flush posts
      // exactly one batch regardless of the shard count.
      lci::pin_thread_shard(0);
      lci::comp_t cq = lci::alloc_cq();
      char out[8] = "timed";

      // Deadline: the sweep completes the buffered entry with fatal_timeout.
      lci::status_t ss = lci::post_send_x(1, out, sizeof(out), 1, cq)
                             .allow_done(false)
                             .deadline(2000)();
      ASSERT_TRUE(ss.error.is_posted());
      lci::status_t st;
      do {
        lci::progress();
        st = lci::cq_pop(cq);
      } while (st.error.is_retry());
      EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_timeout);

      // Cancel: wins the record CAS, the flush then skips the entry.
      lci::op_t op;
      ss = lci::post_send_x(1, out, sizeof(out), 2, cq)
               .allow_done(false)
               .op_handle(&op)();
      ASSERT_TRUE(ss.error.is_posted());
      EXPECT_TRUE(lci::cancel(op));
      EXPECT_FALSE(lci::cancel(op));  // spent
      do {
        st = lci::cq_pop(cq);
      } while (st.error.is_retry());
      EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_canceled);

      // Both sub-messages still sit in the slot; they travel now, but their
      // completions were already consumed — the flush delivers nothing new.
      EXPECT_EQ(flush_until_posted(), 1u);
      for (int i = 0; i < 50; ++i) lci::progress();
      EXPECT_TRUE(lci::cq_pop(cq).error.is_retry());

      const lci::counters_t c = lci::get_counters();
      EXPECT_EQ(c.ops_timed_out, 1u);
      EXPECT_EQ(c.ops_canceled, 1u);
      EXPECT_EQ(c.comp_fatal, 2u);
      lci::free_comp(&cq);
      lci::pin_thread_shard(-1);  // don't leak the pin to later tests
    }
    lci::barrier();
    lci::g_runtime_fina();
  });
}

// A batch longer than the packet that receives it (the sender's
// packet_size is larger) arrives truncated: the sub-messages that fit
// complete done with their bytes, and the one cut short completes with
// fatal_truncated exactly once — a receive posted before it arrived, one
// posted after, or an active message's rcomp. The walk reads nothing past
// the packet.
TEST(Coalesce, TruncatedBatchFailsTheCutSubMessage) {
  constexpr std::size_t size = 240;  // 256 B per sub-message with its header
  constexpr int fit = 3;             // 3 x 256 B fit a 1 KiB packet's payload
  lci::sim::spawn(2, [&](int rank) {
    lci::runtime_attr_t attr = agg_attr();
    attr.aggregation_flush_us = 1000000;  // flush() is the only exit
    attr.packet_size = rank == 0 ? 8192 : 1024;
    lci::g_runtime_init(attr);
    lci::comp_t cq = lci::alloc_cq();
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    // Three batches of `fit` fillers plus one sub-message cut short: a send
    // to a posted receive (tag 3), an unexpected send (tag 13), an AM.
    std::vector<std::vector<char>> in(3 * fit, std::vector<char>(size, 0));
    std::vector<char> cut_in(4000, 0);
    const auto filler_tag = [](int batch, int i) {
      return static_cast<lci::tag_t>(10 * batch + i);
    };
    if (rank == 1) {
      for (int b = 0; b < 3; ++b)
        for (int i = 0; i < fit; ++i)
          EXPECT_TRUE(lci::post_recv(
                          0, in[static_cast<std::size_t>(b * fit + i)].data(),
                          size, filler_tag(b, i), cq)
                          .error.is_posted());
      EXPECT_TRUE(lci::post_recv(0, cut_in.data(), cut_in.size(), 3, cq)
                      .error.is_posted());
    }
    lci::barrier();
    if (rank == 0) {
      lci::pin_thread_shard(0);  // one slot, one batch per flush
      std::vector<char> out(size);
      for (int b = 0; b < 3; ++b) {
        for (int i = 0; i < fit; ++i) {
          std::memset(out.data(), 'a' + b * fit + i, size);
          EXPECT_TRUE(
              lci::post_send(1, out.data(), size, filler_tag(b, i), {})
                  .error.is_done());
        }
        std::memset(out.data(), 'z', size);
        const lci::status_t ss =
            b == 2 ? lci::post_am_x(1, out.data(), size, {}, rcomp).tag(23)()
                   : lci::post_send(1, out.data(), size, 10 * b + 3, {});
        EXPECT_TRUE(ss.error.is_done());
        EXPECT_EQ(lci::flush(), 1u);
      }
      lci::pin_thread_shard(-1);
    } else {
      int fillers = 0;
      int cut = 0;
      while (fillers + cut < 3 * fit + 1) {
        lci::progress();
        const lci::status_t st = lci::cq_pop(cq);
        if (st.error.is_retry()) continue;
        if (static_cast<int>(st.tag % 10) < fit) {
          EXPECT_TRUE(st.error.is_done());
          const auto k = static_cast<std::size_t>(st.tag / 10 * fit +
                                                  st.tag % 10);
          ASSERT_LT(k, in.size());
          EXPECT_EQ(in[k][0], static_cast<char>('a' + k));
          EXPECT_EQ(in[k][size - 1], static_cast<char>('a' + k));
          ++fillers;
        } else {
          EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_truncated);
          EXPECT_EQ(st.tag, 3u);
          EXPECT_EQ(cut_in[0], 0);
          ++cut;
        }
      }
      lci::status_t st;
      do {
        lci::progress();
        st = lci::cq_pop(rcq);
      } while (st.error.is_retry());
      EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_truncated);
      EXPECT_EQ(st.tag, 23u);
      // The unexpected one arrived before the AM (same shard, FIFO): its
      // late receive fails inline.
      st = lci::post_recv(0, cut_in.data(), cut_in.size(), 13, cq);
      EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_truncated);
      EXPECT_EQ(cut_in[0], 0);
      for (int i = 0; i < 50; ++i) {
        lci::progress();
        EXPECT_TRUE(lci::cq_pop(cq).error.is_retry());
        EXPECT_TRUE(lci::cq_pop(rcq).error.is_retry());
      }
      EXPECT_EQ(lci::get_counters().comp_fatal, 3u);
    }
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::free_comp(&cq);
    lci::g_runtime_fina();
  });
}

// drain() force-flushes armed slots in its cooperative phase: buffered
// sub-operations complete done, not fatal_canceled.
TEST(Coalesce, DrainFlushesBufferedSubOps) {
  lci::runtime_attr_t attr = agg_attr();
  attr.aggregation_flush_us = 1000000;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    // Until rank 1 has published its shards, rank 0's batch has no route
    // and retries; a drain started before then could run out its 100 ms.
    lci::barrier();
    if (rank == 0) {
      lci::comp_t cq = lci::alloc_cq();
      char out[8] = "drained";
      const lci::status_t ss =
          lci::post_send_x(1, out, sizeof(out), 5, cq).allow_done(false)();
      ASSERT_TRUE(ss.error.is_posted());
      EXPECT_EQ(lci::drain(lci::device_t{}, 100000), 0u);  // clean drain
      lci::status_t st = lci::cq_pop(cq);
      EXPECT_TRUE(st.error.is_done());
      lci::free_comp(&cq);
    }
    lci::barrier();
    lci::g_runtime_fina();
  });
}

}  // namespace
