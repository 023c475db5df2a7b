// Device sharding & affinity routing (docs/INTERNALS.md "Device sharding"):
// shard-count attributes, the TLS pin, hashed (rank, tag) routing
// determinism, matching correctness across shards under faults, pinned
// multithreaded traffic, and the failure lifecycle (kill_peer / drain) with
// device_shards > 1. Runs in the tsan tier-1 leg: every test here must stay
// race-free with concurrent posters and explicit progress.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/lci.hpp"
#include "util/rng.hpp"

namespace {

lci::runtime_attr_t sharded_attr(std::size_t shards) {
  lci::runtime_attr_t attr;
  attr.device_shards = shards;
  attr.matching_engine_buckets = 256;
  return attr;
}

// The resolved device attribute reports the shard count, and the default of
// 1 keeps the single-endpoint layout.
TEST(Shards, AttrReportsShardCount) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(sharded_attr(4));
    EXPECT_EQ(lci::get_attr(lci::device_t{}).device_shards, 4u);
    lci::g_runtime_fina();

    lci::runtime_attr_t attr;
    attr.device_shards = 0;  // 0 behaves as "unsharded"
    lci::g_runtime_init(attr);
    EXPECT_EQ(lci::get_attr(lci::device_t{}).device_shards, 1u);
    lci::g_runtime_fina();
  });
}

// The TLS pin is a plain per-thread value: unset reads -1, set reads back
// what was pinned, negative values unpin, and other threads are unaffected.
TEST(Shards, PinIsPerThread) {
  EXPECT_EQ(lci::get_thread_shard(), -1);
  lci::pin_thread_shard(2);
  EXPECT_EQ(lci::get_thread_shard(), 2);
  std::thread other([] {
    EXPECT_EQ(lci::get_thread_shard(), -1);  // TLS: not inherited
    lci::pin_thread_shard(0);
    EXPECT_EQ(lci::get_thread_shard(), 0);
  });
  other.join();
  EXPECT_EQ(lci::get_thread_shard(), 2);  // untouched by the other thread
  lci::pin_thread_shard(-1);
  EXPECT_EQ(lci::get_thread_shard(), -1);
}

// Routing determinism: every post on one (rank, tag) key from an unpinned
// thread lands on the same shard, so with aggregation on they all park in
// one slot and the explicit flush posts exactly one batch. A second tag may
// hash elsewhere — flushing both keys posts one or two batches, and exactly
// one on an unsharded device.
TEST(Shards, SameKeyRoutesToOneShard) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("device_shards = " + std::to_string(shards));
    lci::runtime_attr_t attr = sharded_attr(shards);
    attr.allow_aggregation = true;
    // No age flush: flush() is the only exit.
    attr.aggregation_flush_us = 1000000;
    lci::sim::spawn(2, [&](int rank) {
      lci::g_runtime_init(attr);
      if (rank == 0) {
        constexpr int per_tag = 5;
        lci::comp_t cq = lci::alloc_cq();
        char out[8] = "routed";
        const lci::counters_t base = lci::get_counters();
        for (lci::tag_t tag = 0; tag < 2; ++tag) {
          for (int i = 0; i < per_tag; ++i) {
            lci::status_t ss;
            do {
              // Opt in per post: the single-poster bypass would send a lone
              // poster's default posts out one by one.
              ss = lci::post_send_x(1, out, sizeof(out), tag, cq)
                       .allow_done(false)
                       .allow_aggregation(true)();
              if (ss.error.is_retry()) lci::progress();
            } while (ss.error.is_retry());
            ASSERT_TRUE(ss.error.is_posted());
          }
        }
        lci::counters_t c = lci::get_counters();
        EXPECT_EQ(c.send_coalesced - base.send_coalesced, 2u * per_tag);
        EXPECT_EQ(c.batches_flushed - base.batches_flushed, 0u);

        // One armed slot per distinct key's shard: flush() posts them all.
        const std::size_t batches = lci::flush();
        EXPECT_GE(batches, 1u);
        EXPECT_LE(batches, shards == 1 ? 1u : 2u);  // equal keys never split
        int owed = 2 * per_tag;
        while (owed > 0) {
          lci::progress();
          if (lci::cq_pop(cq).error.is_done()) --owed;
        }
        lci::free_comp(&cq);
      } else {
        // Sink: absorb everything as unexpected AM-style tagged receives.
        std::vector<std::array<char, 8>> inbox(10);
        lci::comp_t rsync = lci::alloc_sync(10);
        for (int i = 0; i < 10; ++i)
          (void)lci::post_recv_x(0, inbox[static_cast<std::size_t>(i)].data(),
                                 8, static_cast<lci::tag_t>(i / 5), rsync)
              .allow_done(false)();
        lci::sync_wait(rsync, nullptr);
        lci::free_comp(&rsync);
      }
      lci::barrier();
      lci::g_runtime_fina();
    });
  }
}

// Pinned multithreaded traffic: one worker per shard, each pinned to its own
// shard, all hammering the same peer on per-thread tags. Payloads verify
// byte-exact; per-key FIFO holds within each thread's stream.
TEST(Shards, PinnedWorkersMatchAcrossShards) {
  constexpr int nthreads = 4;
  constexpr int per_thread = 20;
  constexpr std::size_t msg = 64;
  lci::runtime_attr_t attr = sharded_attr(nthreads);
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    const int peer = 1 - rank;
    auto binding = lci::sim::current_binding();
    std::vector<std::thread> workers;
    for (int t = 0; t < nthreads; ++t) {
      workers.emplace_back([&, t] {
        lci::sim::scoped_binding_t bound(binding);
        lci::pin_thread_shard(t);
        const auto tag = static_cast<lci::tag_t>(t);
        for (int i = 0; i < per_thread; ++i) {
          char buf[msg];
          std::memset(buf, 'A' + t, sizeof(buf));
          buf[0] = static_cast<char>(i);  // sequence stamp
          lci::comp_t sync = lci::alloc_sync(1);
          lci::status_t status;
          do {
            status = rank == 0
                         ? lci::post_send(peer, buf, msg, tag, sync)
                         : lci::post_recv(peer, buf, msg, tag, sync);
            lci::progress();
          } while (status.error.is_retry());
          if (status.error.is_posted()) {
            while (!lci::sync_test(sync, &status)) lci::progress();
          }
          EXPECT_TRUE(status.error.is_done());
          if (rank == 1) {
            EXPECT_EQ(buf[0], static_cast<char>(i));  // per-key FIFO
            EXPECT_EQ(buf[1], static_cast<char>('A' + t));
          }
          lci::free_comp(&sync);
        }
        lci::pin_thread_shard(-1);
      });
    }
    for (auto& w : workers) w.join();
    lci::barrier();
    lci::g_runtime_fina();
  });
}

// (shards, aggregation, trace) fuzz: a trimmed version of the protocol fuzz
// oracle run across the shard axis, with seeded fabric faults on top. Tags
// spread over shards; matching is runtime-wide, so the arrival shard must
// never affect which receive a message matches, and per-key FIFO must hold
// because a key always routes to one shard.
class ShardFuzz : public ::testing::TestWithParam<
                      std::tuple<std::size_t, bool, bool>> {};

TEST_P(ShardFuzz, TaggedTrafficMatchesOracle) {
  const auto [shards, aggregation, trace] = GetParam();
  constexpr uint64_t seed = 0x51a2d5ull;
  constexpr std::size_t max_msg = 20000;  // spans inject/bcopy/rendezvous
  lci::net::config_t fabric;
  fabric.fault.retry_rate = 0.05;
  fabric.fault.delay_rate = 0.05;
  fabric.fault.seed = seed;
  lci::sim::spawn(2, [&](int rank) {
    lci::runtime_attr_t attr = sharded_attr(shards);
    attr.allow_aggregation = aggregation;
    attr.trace = trace;
    attr.trace_ring_size = 512;
    lci::g_runtime_init(attr);
    const int peer = 1 - rank;
    lci::util::xoshiro256_t rng(seed ^ (0x7777u * (rank + 1)));
    lci::util::xoshiro256_t peer_rng(seed ^ (0x7777u * (peer + 1)));

    constexpr int ops = 60;
    constexpr int ntags = 6;  // > shards: several keys per shard, some empty
    struct op_t {
      lci::tag_t tag;
      std::size_t size;
    };
    auto make_schedule = [&](lci::util::xoshiro256_t& r) {
      std::vector<op_t> schedule;
      for (int i = 0; i < ops; ++i)
        schedule.push_back({static_cast<lci::tag_t>(r.below(ntags)),
                            1 + static_cast<std::size_t>(r.below(max_msg))});
      return schedule;
    };
    const auto my_sends = make_schedule(rng);
    const auto peer_sends = make_schedule(peer_rng);
    auto payload_key = [&](int from, lci::tag_t tag, int k) {
      return seed ^ (static_cast<uint64_t>(from + 1) << 40) ^
             (static_cast<uint64_t>(tag) << 20) ^ static_cast<uint64_t>(k);
    };
    auto fill = [](std::vector<char>& buf, uint64_t key) {
      lci::util::xoshiro256_t r(key);
      for (auto& b : buf) b = static_cast<char>(r());
    };

    struct recv_slot_t {
      std::vector<char> buffer;
      lci::tag_t tag;
      int k;
    };
    std::deque<recv_slot_t> slots;
    std::map<lci::tag_t, int> recv_seq;
    lci::comp_t rsync = lci::alloc_sync(ops);
    for (const auto& op : peer_sends) {
      slots.push_back(
          {std::vector<char>(op.size), op.tag, recv_seq[op.tag]++});
      (void)lci::post_recv_x(peer, slots.back().buffer.data(), op.size,
                             op.tag, rsync)
          .allow_done(false)();
    }

    lci::comp_t scq = lci::alloc_cq();
    std::map<lci::tag_t, int> send_seq;
    int owed = 0;
    std::vector<std::vector<char>> live;
    for (const auto& op : my_sends) {
      std::vector<char> payload(op.size);
      fill(payload, payload_key(rank, op.tag, send_seq[op.tag]++));
      lci::status_t ss;
      do {
        // Per post: the single-poster bypass would skip the runtime default.
        ss = lci::post_send_x(peer, payload.data(), op.size, op.tag, scq)
                 .allow_aggregation(aggregation)();
        lci::progress();
      } while (ss.error.is_retry());
      if (ss.error.is_posted()) {
        ++owed;
        live.push_back(std::move(payload));
      }
    }
    while (owed > 0) {
      lci::progress();
      if (lci::cq_pop(scq).error.is_done()) --owed;
    }
    lci::sync_wait(rsync, nullptr);

    for (const auto& slot : slots) {
      std::vector<char> expect(slot.buffer.size());
      fill(expect, payload_key(peer, slot.tag, slot.k));
      ASSERT_EQ(
          std::memcmp(slot.buffer.data(), expect.data(), expect.size()), 0)
          << "tag " << slot.tag << " seq " << slot.k << " size "
          << expect.size();
    }
    lci::barrier();
    lci::free_comp(&rsync);
    lci::free_comp(&scq);
    lci::g_runtime_fina();
  }, fabric);
}

INSTANTIATE_TEST_SUITE_P(
    Axes, ShardFuzz,
    ::testing::Combine(::testing::Values<std::size_t>(1, 4),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_agg" : "") +
             (std::get<2>(info.param) ? "_trace" : "");
    });

// kill_peer() with device_shards > 1: sends buffered across several shards'
// slots (tags spread by the hash) must each surface exactly once with
// fatal_peer_down — the purge walks every shard, not just shard 0.
TEST(Shards, KillPeerPurgesEveryShard) {
  lci::runtime_attr_t attr = sharded_attr(4);
  attr.allow_aggregation = true;
  attr.aggregation_flush_us = 1000000;  // no age flush: only the purge
  std::atomic<int> finished{0};
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    if (rank == 0) {
      constexpr int buffered = 8;  // tags 0..7 spread over the 4 shards
      lci::comp_t cq = lci::alloc_cq();
      char bufs[buffered][16];
      for (int i = 0; i < buffered; ++i) {
        std::memset(bufs[i], 'a' + i, sizeof(bufs[i]));
        lci::status_t ss;
        do {
          ss = lci::post_send_x(1, bufs[i], sizeof(bufs[i]),
                                static_cast<lci::tag_t>(i), cq)
                   .allow_done(false)
                   .allow_aggregation(true)();
          if (ss.error.is_retry()) lci::progress();
        } while (ss.error.is_retry());
        ASSERT_TRUE(ss.error.is_posted());
      }
      EXPECT_TRUE(lci::kill_peer(1));
      int fatal = 0;
      while (fatal < buffered) {
        lci::progress();
        const lci::status_t st = lci::cq_pop(cq);
        if (st.error.is_retry()) continue;
        ASSERT_EQ(st.error.code, lci::errorcode_t::fatal_peer_down);
        ++fatal;
      }
      // Owed-pop audit: exactly `buffered` completions, never one more.
      for (int i = 0; i < 50; ++i) {
        lci::progress();
        EXPECT_TRUE(lci::cq_pop(cq).error.is_retry());
      }
      EXPECT_EQ(lci::flush(), 0u);  // every shard's slot died with the peer
      lci::free_comp(&cq);
    }
    finished.fetch_add(1, std::memory_order_release);
    while (finished.load(std::memory_order_acquire) < 2) {
      lci::progress();
      std::this_thread::yield();
    }
    lci::g_runtime_fina();
  });
}

// drain() with device_shards > 1: the cooperative phase force-flushes armed
// slots on every shard, so sub-operations buffered under distinct tags all
// complete done and the drain reports zero casualties.
TEST(Shards, DrainFlushesEveryShard) {
  lci::runtime_attr_t attr = sharded_attr(4);
  attr.allow_aggregation = true;
  attr.aggregation_flush_us = 1000000;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    // Rank 1's shards must be published before rank 0's bounded drain: an
    // unpublished peer endpoint has no route, so the flushes would retry.
    lci::barrier();
    if (rank == 0) {
      constexpr int buffered = 8;
      lci::comp_t cq = lci::alloc_cq();
      char bufs[buffered][16];
      for (int i = 0; i < buffered; ++i) {
        std::memset(bufs[i], 'a' + i, sizeof(bufs[i]));
        lci::status_t ss;
        do {
          ss = lci::post_send_x(1, bufs[i], sizeof(bufs[i]),
                                static_cast<lci::tag_t>(i), cq)
                   .allow_done(false)
                   .allow_aggregation(true)();
          if (ss.error.is_retry()) lci::progress();
        } while (ss.error.is_retry());
        ASSERT_TRUE(ss.error.is_posted());
      }
      EXPECT_EQ(lci::drain(lci::device_t{}, 1000000), 0u);  // clean drain
      int done = 0;
      while (done < buffered) {
        lci::progress();
        const lci::status_t st = lci::cq_pop(cq);
        if (st.error.is_retry()) continue;
        EXPECT_TRUE(st.error.is_done());
        ++done;
      }
      lci::free_comp(&cq);
    } else {
      std::vector<std::array<char, 16>> inbox(8);
      lci::comp_t rsync = lci::alloc_sync(8);
      for (int i = 0; i < 8; ++i)
        (void)lci::post_recv_x(0, inbox[static_cast<std::size_t>(i)].data(),
                               16, static_cast<lci::tag_t>(i), rsync)
            .allow_done(false)();
      lci::sync_wait(rsync, nullptr);
      lci::free_comp(&rsync);
    }
    lci::barrier();
    lci::g_runtime_fina();
  });
}

}  // namespace
