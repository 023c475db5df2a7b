// Eager-message coalescing (docs/INTERNALS.md "Message coalescing"):
// batch assembly and unpack, the matching-order flush, AM delivery in both
// modes from shared batch packets, explicit flush(), resolved device
// attributes, deadline/cancel on buffered sub-operations, and the try-lock
// rule of a contended slot.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "core/lci.hpp"
#include "core/runtime_impl.hpp"

namespace {

// Coalescing on by default. These tests assert exact coalescing counters
// from single-threaded posters, which the single-poster bypass would send
// out one by one, so every post below opts in with .allow_aggregation(true)
// (never bypassed).
lci::runtime_attr_t agg_attr() {
  lci::runtime_attr_t attr;
  attr.matching_engine_buckets = 256;
  attr.allow_aggregation = true;
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

// Holds every shard's aggregation slot for `peer` on this rank's default
// device, standing in for another thread that is inside the slot.
class slot_holder_t {
 public:
  explicit slot_holder_t(int peer) {
    lci::detail::device_impl_t& device =
        lci::detail::resolve_runtime({})->default_device();
    for (std::size_t s = 0; s < device.nshards(); ++s) {
      locks_.push_back(&device.agg_slot_lock(s, peer));
      locks_.back()->lock();
    }
  }
  ~slot_holder_t() { release(); }
  slot_holder_t(const slot_holder_t&) = delete;
  slot_holder_t& operator=(const slot_holder_t&) = delete;
  void release() {
    for (lci::util::spinlock_t* lock : locks_) lock->unlock();
    locks_.clear();
  }

 private:
  std::vector<lci::util::spinlock_t*> locks_;
};

// Runs `op` on a helper thread bound to the calling rank. A call that waits
// for a held slot does not return while the test holds it, so the test asks
// returned_within() first, releases the slot, and only then joins.
class helper_call_t {
 public:
  explicit helper_call_t(std::function<void()> op)
      : thread_([this, op = std::move(op),
                 binding = lci::sim::current_binding()] {
          lci::sim::scoped_binding_t bound(binding);
          op();
          returned_.store(true, std::memory_order_release);
        }) {}
  ~helper_call_t() {
    if (thread_.joinable()) thread_.join();
  }
  helper_call_t(const helper_call_t&) = delete;
  helper_call_t& operator=(const helper_call_t&) = delete;
  bool returned_within(std::chrono::milliseconds limit) const {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!returned_.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
  void join() { thread_.join(); }

 private:
  std::atomic<bool> returned_{false};
  std::thread thread_;
};

constexpr std::chrono::milliseconds held_slot_limit{1000};

// Pops one active message from `rcq`, progressing until it arrives, and
// returns its 8-byte payload.
uint64_t pop_am_word(lci::comp_t rcq) {
  lci::status_t st;
  do {
    lci::progress();
    st = lci::cq_pop(rcq);
  } while (st.error.is_retry());
  EXPECT_TRUE(st.error.is_done());
  uint64_t word = 0;
  EXPECT_EQ(st.buffer.size, sizeof(word));
  if (st.buffer.size == sizeof(word))
    std::memcpy(&word, st.buffer.base, sizeof(word));
  std::free(st.buffer.base);
  return word;
}

// Nothing more arrives on `rcq`: the sender has flushed everything before
// the barrier that precedes this call.
void expect_no_more_ams(lci::comp_t rcq) {
  for (int i = 0; i < 100; ++i) {
    lci::progress();
    const lci::status_t st = lci::cq_pop(rcq);
    EXPECT_TRUE(st.error.is_retry()) << "a message arrived twice";
    if (!st.error.is_retry()) std::free(st.buffer.base);
  }
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
    constexpr std::size_t large_size = 600;  // above the 256 B coalescing limit
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
                   .matching_policy(lci::matching_policy_t::rank_only)
                   .allow_aggregation(true)();
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
            lci::post_am_x(peer, payload, sizeof(payload), {}, rcomp)
                .allow_aggregation(true)();
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
            lci::post_am_x(peer, payload, sizeof(payload), {}, rcomp)
                .allow_aggregation(true)();
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

// Aggregation policy and poll burst are visible in device attrs. The burst
// is the fabric's poll_burst, clamped to the progress stack array.
TEST(Coalesce, DeviceAttrsReportResolvedPolicy) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(agg_attr());
    lci::device_attr_t attr = lci::get_attr(lci::device_t{});
    EXPECT_TRUE(attr.allow_aggregation);
    EXPECT_EQ(attr.aggregation_flush_us, 100u);
    EXPECT_EQ(attr.cq_poll_burst, 64u);  // fabric poll_burst default
    lci::g_runtime_fina();
  });
  const std::pair<std::size_t, std::size_t> bursts[] = {{7, 7}, {1000, 64}};
  for (const auto& [burst, expected] : bursts) {
    lci::net::config_t fabric;
    fabric.poll_burst = burst;
    lci::sim::spawn(
        1,
        [&](int) {
          lci::g_runtime_init(agg_attr());
          EXPECT_EQ(lci::get_attr(lci::device_t{}).cq_poll_burst, expected);
          lci::g_runtime_fina();
        },
        fabric);
  }
}

// The coalescing limits follow the packet geometry: a 256-byte message
// coalesces and a 257-byte one goes out alone; a batch posts itself once it
// holds 64 messages, or one packet's payload (15 entries of 256 bytes fill
// 4096 - 16 bytes).
TEST(Coalesce, LimitsFollowPacketGeometry) {
  lci::runtime_attr_t attr = agg_attr();
  attr.aggregation_flush_us = 1000000;  // no age flush in-test
  constexpr int small_count = 64;
  constexpr int full_count = 15;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    std::vector<char> buf(257, 'a');
    const int total = 2 + small_count + full_count;
    std::vector<std::vector<char>> in(static_cast<std::size_t>(total),
                                      std::vector<char>(257, 0));
    lci::comp_t sync = lci::alloc_sync(static_cast<std::size_t>(total));
    if (rank == 1) {
      const std::size_t sizes[] = {256, 257};
      std::size_t k = 0;
      for (lci::tag_t tag = 1; tag <= 2; ++tag, ++k)
        EXPECT_TRUE(lci::post_recv(0, in[k].data(), sizes[tag - 1], tag, sync)
                        .error.is_posted());
      for (int i = 0; i < small_count; ++i, ++k)
        EXPECT_TRUE(
            lci::post_recv(0, in[k].data(), 8, 3, sync).error.is_posted());
      for (int i = 0; i < full_count; ++i, ++k)
        EXPECT_TRUE(
            lci::post_recv(0, in[k].data(), 256, 4, sync).error.is_posted());
    }
    lci::barrier();
    if (rank == 1) {
      lci::sync_wait(sync, nullptr);
      EXPECT_EQ(in[0][255], 'a');
      EXPECT_EQ(in[1][256], 'a');
    } else {
      lci::pin_thread_shard(0);  // one slot for every tag
      const lci::counters_t base = lci::get_counters();
      auto send = [&](std::size_t size, lci::tag_t tag) {
        lci::status_t ss;
        do {
          ss = lci::post_send_x(1, buf.data(), size, tag, {})
                   .allow_aggregation(true)();
          if (ss.error.is_retry()) lci::progress();
        } while (ss.error.is_retry());
        EXPECT_TRUE(ss.error.is_done());
      };
      auto delta = [&](uint64_t lci::counters_t::*field) {
        return lci::get_counters().*field - base.*field;
      };
      send(256, 1);
      EXPECT_EQ(delta(&lci::counters_t::send_coalesced), 1u);
      send(257, 2);  // alone, after flushing the armed batch ahead of it
      EXPECT_EQ(delta(&lci::counters_t::send_coalesced), 1u);
      EXPECT_EQ(delta(&lci::counters_t::batches_flushed), 1u);
      for (int i = 0; i < small_count; ++i) {
        EXPECT_EQ(delta(&lci::counters_t::batches_flushed), 1u) << i;
        send(8, 3);
      }
      EXPECT_EQ(delta(&lci::counters_t::batches_flushed), 2u);
      for (int i = 0; i < full_count; ++i) {
        EXPECT_EQ(delta(&lci::counters_t::batches_flushed), 2u) << i;
        send(256, 4);
      }
      EXPECT_EQ(delta(&lci::counters_t::batches_flushed), 3u);
      EXPECT_EQ(delta(&lci::counters_t::send_coalesced),
                1u + small_count + full_count);
      lci::pin_thread_shard(-1);
    }
    lci::barrier();
    lci::free_comp(&sync);
    lci::g_runtime_fina();
  });
}

// The single-poster bypass, with coalescing on at the runtime level: while
// one thread is the only poster, its default posts go out one by one (a
// lone poster shares the wire with nobody, and the age flush only adds
// latency); an explicit .allow_aggregation(true) from it still coalesces;
// and once a second thread has posted, the first thread's default posts
// coalesce.
TEST(Coalesce, SinglePosterBypassesDefaultAggregation) {
  lci::runtime_attr_t attr;
  attr.matching_engine_buckets = 256;
  attr.allow_aggregation = true;
  attr.aggregation_flush_us = 1000000;  // flush() is the only exit
  constexpr int count = 8;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    char out[8] = "bypass";
    auto send = [&](lci::tag_t tag, bool explicit_agg) {
      lci::status_t ss;
      do {
        ss = explicit_agg ? lci::post_send_x(1, out, sizeof(out), tag, {})
                                .allow_aggregation(true)()
                          : lci::post_send(1, out, sizeof(out), tag, {});
        if (ss.error.is_retry()) lci::progress();
      } while (ss.error.is_retry());
      EXPECT_TRUE(ss.error.is_done());
    };
    const lci::counters_t base = lci::get_counters();
    // Receives for all three phases, posted before any send.
    std::vector<std::array<char, 8>> in(2 * count + 2);
    lci::comp_t phase_sync[3];
    const int phase_count[3] = {count, 1, count + 1};
    if (rank == 1) {
      std::size_t k = 0;
      for (int phase = 0; phase < 3; ++phase) {
        phase_sync[phase] =
            lci::alloc_sync(static_cast<std::size_t>(phase_count[phase]));
        for (int i = 0; i < phase_count[phase]; ++i, ++k)
          EXPECT_TRUE(lci::post_recv(0, in[k].data(), 8,
                                     static_cast<lci::tag_t>(phase + 1),
                                     phase_sync[phase])
                          .error.is_posted());
      }
    }
    lci::barrier();
    // Phase 1: one poster, runtime default: no coalescing, no batches.
    if (rank == 0) {
      for (int i = 0; i < count; ++i) send(1, false);
      EXPECT_EQ(lci::get_counters().send_coalesced - base.send_coalesced, 0u);
      EXPECT_EQ(lci::flush(), 0u);  // nothing was buffered
    } else {
      lci::sync_wait(phase_sync[0], nullptr);
      EXPECT_EQ(lci::get_counters().recv_batches - base.recv_batches, 0u);
    }
    lci::barrier();
    // Phase 2: the same thread opts in explicitly: it coalesces.
    if (rank == 0) {
      send(2, true);
      EXPECT_EQ(lci::get_counters().send_coalesced - base.send_coalesced, 1u);
      EXPECT_EQ(flush_until_posted(), 1u);
    } else {
      lci::sync_wait(phase_sync[1], nullptr);
      EXPECT_EQ(lci::get_counters().recv_batches - base.recv_batches, 1u);
    }
    lci::barrier();
    // Phase 3: a second thread posts once; from then on the first thread's
    // default posts coalesce too.
    if (rank == 0) {
      auto binding = lci::sim::current_binding();
      std::thread second([&] {
        lci::sim::scoped_binding_t bound(binding);
        send(3, false);
      });
      second.join();
      for (int i = 0; i < count; ++i) send(3, false);
      EXPECT_EQ(lci::get_counters().send_coalesced - base.send_coalesced,
                2u + count);
      EXPECT_GE(flush_until_posted(), 1u);
    } else {
      lci::sync_wait(phase_sync[2], nullptr);
      EXPECT_GE(lci::get_counters().recv_batches - base.recv_batches, 2u);
      for (lci::comp_t& sync : phase_sync) lci::free_comp(&sync);
    }
    lci::barrier();
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
                             .deadline(2000)
                             .allow_aggregation(true)();
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
               .op_handle(&op)
               .allow_aggregation(true)();
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
              lci::post_send_x(1, out.data(), size, filler_tag(b, i), {})
                  .allow_aggregation(true)()
                  .error.is_done());
        }
        std::memset(out.data(), 'z', size);
        const lci::status_t ss =
            b == 2 ? lci::post_am_x(1, out.data(), size, {}, rcomp)
                         .tag(23)
                         .allow_aggregation(true)()
                   : lci::post_send_x(1, out.data(), size, 10 * b + 3, {})
                         .allow_aggregation(true)();
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

// An unexpected batch entry waits in the batch packet it arrived in. A
// burst of them many times larger than the receiver's free packets holds
// only the packets of its batches. Every payload still arrives intact and in
// per-tag order, and the pool ends where it began (ASan: nothing leaks).
TEST(Coalesce, UnexpectedBurstPastADryPoolArrivesIntact) {
  constexpr int tags = 4;
  constexpr int per_tag = 24;  // 96 sends against 8 free packets
  constexpr std::size_t size = 16;
  const auto fill = [](int tag, int i, char* out) {
    for (std::size_t k = 0; k < size; ++k)
      out[k] = static_cast<char>(tag * 61 + i * 7 + static_cast<int>(k));
  };
  // Set by the receiver once it has counted its pool; until then the sender
  // posts nothing, so no packet is in flight while the receiver counts.
  std::atomic<bool> counted{false};
  lci::sim::spawn(2, [&](int rank) {
    lci::runtime_attr_t attr = agg_attr();
    attr.aggregation_flush_us = 1000000;  // full slots and flush() post
    if (rank == 1) attr.npackets = 16;    // 8 pre-posted, 8 free
    lci::g_runtime_init(attr);
    // One shard: the batches reach the receiver before the barrier does.
    lci::pin_thread_shard(0);
    lci::packet_pool_t pool;
    pool.p = &lci::detail::resolve_runtime({})->default_pool();
    const std::size_t pooled_before = lci::get_attr(pool).pooled;
    lci::barrier();
    if (rank == 0) {
      char out[size];
      for (int i = 0; i < per_tag; ++i) {
        for (int t = 0; t < tags; ++t) {
          fill(t, i, out);
          lci::status_t st;
          while ((st = lci::post_send_x(1, out, size, t, {})
                           .allow_aggregation(true)())
                     .error.is_retry())
            lci::progress();
          EXPECT_TRUE(st.error.is_done());
        }
      }
      lci::flush();
    }
    lci::barrier();
    if (rank == 0) {
      while (!counted.load(std::memory_order_acquire)) lci::progress();
    } else {
      lci::comp_t cq = lci::alloc_cq();
      for (int t = 0; t < tags; ++t) {
        for (int i = 0; i < per_tag; ++i) {
          char in[size] = {};
          lci::status_t st = lci::post_recv(0, in, size, t, cq);
          if (st.error.is_posted()) {
            do {
              lci::progress();
              st = lci::cq_pop(cq);
            } while (st.error.is_retry());
          }
          EXPECT_TRUE(st.error.is_done()) << t << "/" << i;
          char expect[size];
          fill(t, i, expect);
          EXPECT_EQ(std::memcmp(in, expect, size), 0) << t << "/" << i;
        }
      }
      // The barrier's own message may have waited in the matching engine
      // and gone back to the pool; progress() refills the receive queue.
      for (int i = 0; i < 10; ++i) lci::progress();
      EXPECT_EQ(lci::get_attr(pool).pooled, pooled_before);
      lci::free_comp(&cq);
      counted.store(true, std::memory_order_release);
    }
    lci::barrier();
    lci::pin_thread_shard(-1);
    lci::g_runtime_fina();
  });
}

// The same burst, counted before any receive is posted: however many of a
// batch's entries wait, the batch holds one packet, so the receiver's pool
// falls by at most the number of batches that arrived. Rank 1 counts once
// every entry waits in its matching engine, then takes them all.
TEST(Coalesce, UnexpectedBatchHoldsOnePacket) {
  constexpr int tags = 4;
  constexpr int per_tag = 24;  // 96 sends against 8 free packets
  constexpr std::size_t size = 16;
  const auto fill = [](int tag, int i, char* out) {
    for (std::size_t k = 0; k < size; ++k)
      out[k] = static_cast<char>(tag * 61 + i * 7 + static_cast<int>(k));
  };
  // 1: the receiver counted its pool; 2: it counted again at the end. The
  // sender posts nothing before 1 and stays out of the barrier, whose
  // message would wait in a receive packet, until 2.
  std::atomic<int> stage{0};
  lci::sim::spawn(2, [&](int rank) {
    lci::runtime_attr_t attr = agg_attr();
    attr.aggregation_flush_us = 1000000;  // full slots and flush() post
    if (rank == 1) attr.npackets = 16;    // 8 pre-posted, 8 free
    lci::g_runtime_init(attr);
    lci::pin_thread_shard(0);  // one slot
    lci::barrier();
    if (rank == 0) {
      while (stage.load(std::memory_order_acquire) < 1) lci::progress();
      char out[size];
      for (int i = 0; i < per_tag; ++i) {
        for (int t = 0; t < tags; ++t) {
          fill(t, i, out);
          lci::status_t st;
          while ((st = lci::post_send_x(1, out, size, t, {})
                           .allow_aggregation(true)())
                     .error.is_retry())
            lci::progress();
          EXPECT_TRUE(st.error.is_done());
        }
      }
      lci::flush();
      while (stage.load(std::memory_order_acquire) < 2) lci::progress();
    } else {
      lci::detail::runtime_impl_t* rt = lci::detail::resolve_runtime({});
      lci::packet_pool_t pool;
      pool.p = &rt->default_pool();
      lci::matching_engine_t engine;
      engine.p = &rt->default_engine();
      // The barrier's last receive packet may still be on its way back to
      // the receive queue; settle it before counting.
      for (int i = 0; i < 10; ++i) lci::progress();
      const std::size_t pooled_before = lci::get_attr(pool).pooled;
      const uint64_t batches_before = lci::get_counters().recv_batches;
      stage.store(1, std::memory_order_release);
      while (lci::get_attr(engine).entries < tags * per_tag) lci::progress();
      const uint64_t batches =
          lci::get_counters().recv_batches - batches_before;
      EXPECT_GE(batches, 2u);
      EXPECT_LE(pooled_before - lci::get_attr(pool).pooled, batches);

      lci::comp_t cq = lci::alloc_cq();
      for (int t = 0; t < tags; ++t) {
        for (int i = 0; i < per_tag; ++i) {
          char in[size] = {};
          const lci::status_t st = lci::post_recv(0, in, size, t, cq);
          EXPECT_TRUE(st.error.is_done()) << t << "/" << i;
          char expect[size];
          fill(t, i, expect);
          EXPECT_EQ(std::memcmp(in, expect, size), 0) << t << "/" << i;
        }
      }
      EXPECT_EQ(lci::get_attr(engine).entries, 0u);
      for (int i = 0; i < 10; ++i) lci::progress();
      EXPECT_EQ(lci::get_attr(pool).pooled, pooled_before);
      lci::free_comp(&cq);
      stage.store(2, std::memory_order_release);
    }
    lci::barrier();
    lci::pin_thread_shard(-1);
    lci::g_runtime_fina();
  });
}

// Receives posted by one thread race the walk of another over the same
// batches: an entry is taken either by a waiting receive or, once it waits
// in its batch packet, by a later one, possibly before the walk is done
// with the packet. Each receive completes exactly once with its own
// payload, and every batch packet goes back: the pool ends where it began.
TEST(Coalesce, ReceivesRacingTheWalkMatchEachEntryOnce) {
  constexpr int tags = 4;
  constexpr int per_tag = 1000;
  constexpr int total = tags * per_tag;
  constexpr std::size_t size = 16;
  const auto fill = [](int tag, int i, char* out) {
    for (std::size_t k = 0; k < size; ++k)
      out[k] = static_cast<char>(tag * 61 + i * 7 + static_cast<int>(k));
  };
  std::atomic<int> stage{0};  // as in UnexpectedBatchHoldsOnePacket
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(agg_attr());
    lci::barrier();
    if (rank == 0) {
      while (stage.load(std::memory_order_acquire) < 1) lci::progress();
      char out[size];
      for (int i = 0; i < per_tag; ++i) {
        for (int t = 0; t < tags; ++t) {
          fill(t, i, out);
          lci::status_t st;
          while ((st = lci::post_send_x(1, out, size, t, {})
                           .allow_aggregation(true)())
                     .error.is_retry())
            lci::progress();
          EXPECT_TRUE(st.error.is_done());
        }
      }
      flush_until_posted();
      while (stage.load(std::memory_order_acquire) < 2) lci::progress();
    } else {
      lci::detail::runtime_impl_t* rt = lci::detail::resolve_runtime({});
      lci::packet_pool_t pool;
      pool.p = &rt->default_pool();
      for (int i = 0; i < 10; ++i) lci::progress();
      const std::size_t pooled_before = lci::get_attr(pool).pooled;
      lci::comp_t cq = lci::alloc_cq();
      std::vector<std::array<char, size>> in(total);
      std::vector<int> completions(total, 0);
      stage.store(1, std::memory_order_release);
      // Every completion, an inline match included, comes through the queue.
      std::thread poster([&, binding = lci::sim::current_binding()] {
        lci::sim::scoped_binding_t bound(binding);
        for (int i = 0; i < per_tag; ++i) {
          for (int t = 0; t < tags; ++t) {
            const int k = i * tags + t;
            lci::status_t st;
            while ((st = lci::post_recv_x(0, in[k].data(), size, t, cq)
                             .allow_done(false)
                             .user_context(&completions[k])())
                       .error.is_retry()) {
            }
            EXPECT_TRUE(st.error.is_posted()) << t << "/" << i;
          }
        }
      });
      int completed = 0;
      while (completed < total) {
        lci::progress();
        const lci::status_t st = lci::cq_pop(cq);
        if (st.error.is_retry()) continue;
        EXPECT_TRUE(st.error.is_done());
        ++*static_cast<int*>(st.user_context);
        ++completed;
      }
      poster.join();
      for (int i = 0; i < per_tag; ++i) {
        for (int t = 0; t < tags; ++t) {
          const int k = i * tags + t;
          EXPECT_EQ(completions[k], 1) << t << "/" << i;
          char expect[size];
          fill(t, i, expect);
          EXPECT_EQ(std::memcmp(in[k].data(), expect, size), 0)
              << t << "/" << i;
        }
      }
      for (int i = 0; i < 10; ++i) lci::progress();
      EXPECT_TRUE(lci::cq_pop(cq).error.is_retry());
      EXPECT_EQ(lci::get_attr(pool).pooled, pooled_before);
      lci::free_comp(&cq);
      stage.store(2, std::memory_order_release);
    }
    lci::barrier();
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
      const lci::status_t ss = lci::post_send_x(1, out, sizeof(out), 5, cq)
                                   .allow_done(false)
                                   .allow_aggregation(true)();
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

// A coalesced post that finds another thread in the peer's slot returns
// retry_lock at once, before it copies anything, instead of spinning until
// the holder leaves. Once the slot is free the same post goes through, and
// the peer receives it exactly once.
TEST(Coalesce, HeldSlotBouncesPostWithRetryLock) {
  lci::runtime_attr_t attr = agg_attr();
  attr.aggregation_flush_us = 1000000;  // flush() is the only exit
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();
    if (rank == 0) {
      uint64_t word = 42;
      const auto post = [&] {
        return lci::post_am_x(1, &word, sizeof(word), {}, rcomp)
            .allow_aggregation(true)();
      };
      const lci::counters_t base = lci::get_counters();
      lci::status_t held_status;
      {
        slot_holder_t held(1);
        helper_call_t call([&] { held_status = post(); });
        EXPECT_TRUE(call.returned_within(held_slot_limit))
            << "the post waited for the held slot";
        held.release();
        call.join();
      }
      EXPECT_EQ(held_status.error.code, lci::errorcode_t::retry_lock);
      const lci::counters_t bounced = lci::get_counters();
      EXPECT_EQ(bounced.send_coalesced - base.send_coalesced, 0u);
      EXPECT_EQ(bounced.retry_lock - base.retry_lock, 1u);
      if (held_status.error.is_retry()) {
        lci::status_t st;
        while ((st = post()).error.is_retry()) lci::progress();
        EXPECT_TRUE(st.error.is_done());
      }
      EXPECT_EQ(lci::get_counters().send_coalesced - base.send_coalesced, 1u);
      EXPECT_EQ(flush_until_posted(), 1u);
    } else {
      EXPECT_EQ(pop_am_word(rcq), 42u);
    }
    lci::barrier();
    if (rank == 1) expect_no_more_ams(rcq);
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });
}

// The same post with .allow_retry(false) is handed to the backlog instead.
// While the slot stays held the backlog's resubmission bounces and stays
// queued (progress returns); after release the message is delivered exactly
// once.
TEST(Coalesce, HeldSlotSendsNoRetryPostToBacklog) {
  lci::runtime_attr_t attr = agg_attr();
  attr.aggregation_flush_us = 1000000;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();
    if (rank == 0) {
      uint64_t word = 43;
      const lci::counters_t base = lci::get_counters();
      lci::status_t held_status;
      {
        slot_holder_t held(1);
        helper_call_t call([&] {
          held_status = lci::post_am_x(1, &word, sizeof(word), {}, rcomp)
                            .allow_aggregation(true)
                            .allow_retry(false)();
          for (int i = 0; i < 10; ++i) lci::progress();
        });
        EXPECT_TRUE(call.returned_within(held_slot_limit))
            << "the post or the backlog retry waited for the held slot";
        EXPECT_EQ(lci::get_counters().backlog_retired - base.backlog_retired,
                  0u);
        held.release();
        call.join();
      }
      const bool backlogged =
          held_status.error.code == lci::errorcode_t::posted_backlog ||
          held_status.error.code == lci::errorcode_t::done_backlog;
      EXPECT_TRUE(backlogged) << static_cast<int>(held_status.error.code);
      while (backlogged &&
             lci::get_counters().backlog_retired == base.backlog_retired)
        lci::progress();
      EXPECT_EQ(lci::get_counters().send_coalesced - base.send_coalesced, 1u);
      EXPECT_EQ(flush_until_posted(), 1u);
    } else {
      EXPECT_EQ(pop_am_word(rcq), 43u);
    }
    lci::barrier();
    if (rank == 1) expect_no_more_ams(rcq);
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });
}

// A held slot that is due for its age flush does not stall progress(): the
// flush skips it and leaves the batch armed. A non-aggregated send to the
// same peer cannot tell whether its buffered predecessor is out, so it
// bounces with retry_lock; after release it follows the batch, in order.
TEST(Coalesce, HeldAgedSlotNeitherStallsProgressNorIsOvertaken) {
  lci::runtime_attr_t attr = agg_attr();
  attr.aggregation_flush_us = 0;  // every armed slot is due at once
  constexpr lci::tag_t tag = 7;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    char in[2][8] = {};
    lci::comp_t sync = lci::alloc_sync(2);
    if (rank == 1) {
      for (auto& buf : in)
        EXPECT_TRUE(lci::post_recv_x(0, buf, sizeof(buf), tag, sync)
                        .matching_policy(lci::matching_policy_t::rank_only)
                        .allow_done(false)()
                        .error.is_posted());
    }
    lci::barrier();
    if (rank == 0) {
      char first[8] = "first";
      char second[8] = "second";
      const auto send = [&](char* buf, bool aggregate) {
        return lci::post_send_x(1, buf, 8, tag, {})
            .matching_policy(lci::matching_policy_t::rank_only)
            .allow_aggregation(aggregate)();
      };
      EXPECT_TRUE(send(first, true).error.is_done());
      const lci::counters_t base = lci::get_counters();
      lci::status_t plain;
      {
        slot_holder_t held(1);
        helper_call_t call([&] {
          for (int i = 0; i < 10; ++i) lci::progress();
          plain = send(second, false);
        });
        EXPECT_TRUE(call.returned_within(held_slot_limit))
            << "progress() or the ordering flush waited for the held slot";
        EXPECT_EQ(lci::get_counters().batches_flushed - base.batches_flushed,
                  0u);
        held.release();
        call.join();
      }
      EXPECT_EQ(plain.error.code, lci::errorcode_t::retry_lock);
      if (plain.error.is_retry()) {
        while ((plain = send(second, false)).error.is_retry())
          lci::progress();
        EXPECT_TRUE(plain.error.is_done());
      }
    } else {
      lci::sync_wait(sync, nullptr);
      EXPECT_STREQ(in[0], "first");
      EXPECT_STREQ(in[1], "second");
    }
    lci::barrier();
    lci::free_comp(&sync);
    lci::g_runtime_fina();
  });
}

// Four threads stream coalesced AMs into one peer's slot with retry loops:
// every thread finishes, and the receiver sees each (thread, seq) exactly
// once.
TEST(Coalesce, ContendedPostersDeliverEachMessageOnce) {
  constexpr int threads = 4;
  constexpr uint32_t per_thread = 20000;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(agg_attr());
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();
    if (rank == 0) {
      const auto binding = lci::sim::current_binding();
      std::vector<std::thread> posters;
      for (int t = 0; t < threads; ++t) {
        posters.emplace_back([&, t] {
          lci::sim::scoped_binding_t bound(binding);
          for (uint32_t seq = 0; seq < per_thread; ++seq) {
            uint64_t word = static_cast<uint64_t>(t) << 32 | seq;
            lci::status_t st;
            while ((st = lci::post_am_x(1, &word, sizeof(word), {}, rcomp)
                             .allow_aggregation(true)())
                       .error.is_retry())
              lci::progress();
            EXPECT_TRUE(st.error.is_done()) << t << "/" << seq;
          }
        });
      }
      for (std::thread& poster : posters) poster.join();
      lci::flush();
    } else {
      std::vector<std::vector<bool>> seen(
          threads, std::vector<bool>(per_thread, false));
      uint64_t received = 0;
      while (received < threads * uint64_t{per_thread}) {
        lci::progress();
        lci::status_t st;
        while (!(st = lci::cq_pop(rcq)).error.is_retry()) {
          ++received;
          uint64_t word = ~uint64_t{0};
          if (st.error.is_done() && st.buffer.size == sizeof(word))
            std::memcpy(&word, st.buffer.base, sizeof(word));
          std::free(st.buffer.base);
          const uint64_t t = word >> 32;
          const uint64_t seq = word & 0xffffffffu;
          if (t >= threads || seq >= per_thread) {
            ADD_FAILURE() << "corrupt message " << word;
            continue;
          }
          EXPECT_FALSE(seen[t][seq]) << "duplicate " << t << "/" << seq;
          seen[t][seq] = true;
        }
      }
    }
    lci::barrier();
    if (rank == 1) expect_no_more_ams(rcq);
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });
}

}  // namespace
