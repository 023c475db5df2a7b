// Torture tests for the lock-free receive path (docs/INTERNALS.md "Lock
// layout"): the bounded MPSC completion queue — producers on every thread,
// consumers rotating under a try-lock as the sim device's pollers do,
// wraparound and full/empty ring edges — the matching engine racing a
// dead-peer purge with device_shards = 4, and the receive-packet cycle:
// consumed packets reposted on their own endpoint, with the pool as the
// fallback. Runs in the tsan tier-1 leg: every test here must stay
// race-free under concurrent producers, rotating consumers, and a purge
// walking every bucket mid-traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/lci.hpp"
#include "core/runtime_impl.hpp"
#include "util/mpsc_queue.hpp"
#include "util/spinlock.hpp"

namespace {

// ---------------------------------------------------------------------------
// Ring edges: wraparound, full, empty — deterministic, single-threaded.
// ---------------------------------------------------------------------------

TEST(MpscQueue, WraparoundFullEmptyEdges) {
  lci::util::mpsc_queue_t<int> q(3);  // rounds up to 4
  ASSERT_EQ(q.capacity(), 4u);
  int next_push = 0;
  int next_pop = 0;
  // Five full fill/drain cycles walk the cursors well past one lap of the
  // ring, so the sequence-cell wraparound arithmetic (pos + capacity) is
  // exercised at both the full and the empty edge every cycle.
  for (int cycle = 0; cycle < 5; ++cycle) {
    EXPECT_TRUE(q.empty_approx());
    EXPECT_FALSE(q.try_pop().has_value());  // empty edge
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(next_push++));
    EXPECT_FALSE(q.try_push(-1));  // full edge: push refused, nothing lost
    EXPECT_EQ(q.size_approx(), 4u);
    // Partial drain then refill: head and tail wrap at different offsets.
    for (int i = 0; i < 2; ++i) {
      const std::optional<int> v = q.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_pop++);
    }
    EXPECT_TRUE(q.try_push(next_push++));
    EXPECT_TRUE(q.try_push(next_push++));
    EXPECT_FALSE(q.try_push(-1));  // full again at a rotated position
    for (int i = 0; i < 4; ++i) {
      const std::optional<int> v = q.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_pop++);  // FIFO held across the wrap
    }
  }
  EXPECT_TRUE(q.empty_approx());
}

// ---------------------------------------------------------------------------
// MPSC torture: producers on every thread, consumers rotating a try-lock.
// ---------------------------------------------------------------------------

// Four producers hammer a deliberately tiny ring (capacity 64, so the full
// edge and wraparound fire constantly) while three consumer threads rotate
// a spinlock try-lock — the sim device's lock-model poll lock — each
// popping a small batch per tenure. Checked invariants:
//  * exactly-once delivery — every pushed value is popped exactly once;
//  * per-producer FIFO — values from one producer arrive in push order
//    (the ring is MPSC: producers interleave, but never reorder
//    themselves);
//  * single consumership — the try-lock admits one popper at a time, and
//    its release/acquire handoff publishes the previous tenure's head
//    cursor, which the ring itself does not order between consumers, and
//    the per-producer sequence log (TSan verifies exactly that
//    happens-before edge).
TEST(MpscQueue, ProducersEverywhereConsumerRotation) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr long kPerProducer = 20000;
  constexpr long kTotal = kProducers * kPerProducer;

  lci::util::mpsc_queue_t<uint64_t> q(64);
  lci::util::spinlock_t consumer_lock;
  std::atomic<long> popped{0};
  std::atomic<int> live_consumers{0};
  std::atomic<bool> overlap{false};
  std::atomic<bool> misorder{false};
  // Guarded by consumer_lock, like the ring's consumer side.
  long last_seq[kProducers];
  for (long& s : last_seq) s = -1;

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (long i = 0; i < kPerProducer; ++i) {
        const uint64_t value =
            (static_cast<uint64_t>(static_cast<unsigned>(p)) << 32) |
            static_cast<uint64_t>(i);
        while (!q.try_push(value)) std::this_thread::yield();  // ring full
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (popped.load(std::memory_order_relaxed) < kTotal) {
        if (!consumer_lock.try_lock()) {
          std::this_thread::yield();
          continue;
        }
        if (live_consumers.fetch_add(1, std::memory_order_relaxed) != 0)
          overlap.store(true, std::memory_order_relaxed);
        // Short tenure: pop a batch, then release so the claim genuinely
        // rotates between the consumer threads.
        for (int batch = 0; batch < 32; ++batch) {
          const std::optional<uint64_t> v = q.try_pop();
          if (!v.has_value()) break;
          const int producer = static_cast<int>(*v >> 32);
          const long seq = static_cast<long>(*v & 0xffffffffu);
          if (seq != last_seq[producer] + 1)
            misorder.store(true, std::memory_order_relaxed);
          last_seq[producer] = seq;
          popped.fetch_add(1, std::memory_order_relaxed);
        }
        live_consumers.fetch_sub(1, std::memory_order_relaxed);
        consumer_lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_FALSE(overlap.load()) << "two consumers held the lock at once";
  EXPECT_FALSE(misorder.load()) << "per-producer FIFO violated";
  for (int p = 0; p < kProducers; ++p)
    EXPECT_EQ(last_seq[p], kPerProducer - 1);
  EXPECT_TRUE(q.empty_approx());
}

// ---------------------------------------------------------------------------
// Purge racing shard-pinned inserts at device_shards = 4.
// ---------------------------------------------------------------------------

// Four posters, each pinned to its own shard, stream receives naming rank 1
// into the matching engine — every eighth post uses rank_only (a wildcard
// key) instead of rank_tag. Mid-stream, poster 0 kills the peer: the purge
// walks every bucket while the other three posters are still inserting. The accounting invariant is exact: every post either
// fails inline with fatal_peer_down (posted after the death was visible) or
// is queued and must surface exactly once through the CQ as
// fatal_peer_down — the insert-vs-purge race in post_receive re-removes
// entries that landed behind the sweep, so nothing is ever orphaned or
// completed twice.
TEST(MpscCq, PurgeWhileSteeredShards4) {
  constexpr int kPosters = 4;
  constexpr long kPostsPerThread = 256;
  std::atomic<int> finished{0};
  lci::sim::spawn(2, [&](int rank) {
    lci::runtime_attr_t attr;
    attr.device_shards = 4;
    attr.matching_engine_buckets = 256;
    lci::g_runtime_init(attr);
    if (rank == 0) {
      lci::comp_t cq = lci::alloc_cq();
      std::atomic<long> queued{0};
      std::atomic<long> inline_fatal{0};
      // One buffer per post, alive until the completion drain below.
      std::vector<std::vector<char>> bufs(
          static_cast<std::size_t>(kPosters),
          std::vector<char>(static_cast<std::size_t>(kPostsPerThread) * 8));
      auto binding = lci::sim::current_binding();
      auto poster = [&](int t) {
        lci::sim::scoped_binding_t bound(binding);
        lci::pin_thread_shard(t);
        for (long i = 0; i < kPostsPerThread; ++i) {
          if (t == 0 && i == kPostsPerThread / 2) {
            EXPECT_TRUE(lci::kill_peer(1));
          }
          char* buf = bufs[static_cast<std::size_t>(t)].data() + i * 8;
          const lci::matching_policy_t policy =
              (i % 8 == 7) ? lci::matching_policy_t::rank_only
                           : lci::matching_policy_t::rank_tag;
          const lci::status_t st =
              lci::post_recv_x(1, buf, 8,
                               static_cast<lci::tag_t>(i & 0xffff), cq)
                  .matching_policy(policy)
                  .allow_done(false)();
          if (st.error.is_posted()) {
            queued.fetch_add(1, std::memory_order_relaxed);
          } else if (st.error.is_fatal()) {
            EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_peer_down);
            inline_fatal.fetch_add(1, std::memory_order_relaxed);
          } else {
            --i;  // retry: try the same post again
            lci::progress();
          }
        }
        lci::pin_thread_shard(-1);
      };
      std::vector<std::thread> posters;
      for (int t = 1; t < kPosters; ++t) posters.emplace_back(poster, t);
      poster(0);
      for (auto& t : posters) t.join();
      EXPECT_EQ(queued.load() + inline_fatal.load(),
                static_cast<long>(kPosters) * kPostsPerThread);
      EXPECT_GT(queued.load(), 0);        // some posts beat the kill
      EXPECT_GT(inline_fatal.load(), 0);  // some posts saw the dead peer
      // Every queued receive owes exactly one fatal completion.
      long fatal = 0;
      while (fatal < queued.load()) {
        lci::progress();
        const lci::status_t st = lci::cq_pop(cq);
        if (st.error.is_retry()) continue;
        ASSERT_EQ(st.error.code, lci::errorcode_t::fatal_peer_down);
        EXPECT_EQ(st.rank, 1);
        ++fatal;
      }
      // Owed-pop audit: never one completion more than was queued.
      for (int i = 0; i < 50; ++i) {
        lci::progress();
        EXPECT_TRUE(lci::cq_pop(cq).error.is_retry());
      }
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

// ---------------------------------------------------------------------------
// The receive-packet cycle: a packet the dispatch is done with is reposted
// on the endpoint it arrived on; the pool takes it only when that misses.
// ---------------------------------------------------------------------------

// The rank threads meet here outside LCI. Callers meet only once every
// message they expect has arrived, so when both have arrived nothing is in
// flight and each rank's packet accounting holds still.
class rank_meeting_t {
 public:
  void meet(int round) {
    arrived_.fetch_add(1, std::memory_order_acq_rel);
    while (arrived_.load(std::memory_order_acquire) < 2 * round) {
      lci::progress();
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<int> arrived_{0};
};

// Where this rank's default-pool packets sit: pre-posted on each shard of
// the default device, or back in the pool.
struct packet_census_t {
  std::vector<std::size_t> preposted;
  std::size_t pooled = 0;
  std::size_t budget = 0;  // per shard

  std::size_t total_preposted() const {
    std::size_t total = 0;
    for (std::size_t depth : preposted) total += depth;
    return total;
  }

  static packet_census_t take() {
    lci::detail::runtime_impl_t* rt = lci::detail::resolve_runtime({});
    lci::detail::device_impl_t& device = rt->default_device();
    packet_census_t census;
    for (std::size_t s = 0; s < device.nshards(); ++s)
      census.preposted.push_back(device.net(s).preposted_recvs());
    lci::packet_pool_t pool;
    pool.p = &rt->default_pool();
    census.pooled = lci::get_attr(pool).pooled;
    census.budget = std::max<std::size_t>(
        1, device.prepost_depth() / device.nshards());
    return census;
  }
};

// Sends `count` AMs to `peer` (8 B inject and 1000 B buffer-copy
// alternating) and receives as many on `rcq`, progressing throughout.
void exchange_ams(int peer, int count, lci::comp_t rcq, lci::rcomp_t rcomp) {
  char payload[1000] = {};
  int sent = 0;
  int received = 0;
  while (sent < count || received < count) {
    if (sent < count) {
      const std::size_t size = sent % 2 == 0 ? 8 : sizeof(payload);
      if (!lci::post_am(peer, payload, size, lci::comp_t{}, rcomp)
               .error.is_retry())
        ++sent;
    }
    lci::progress();
    const lci::status_t st = lci::cq_pop(rcq);
    if (st.error.is_done()) {
      ++received;
      std::free(st.buffer.base);
    }
  }
}

// 10k AMs each way on a 2-shard device: afterwards every shard holds
// exactly its prepost budget again, and the pool holds what it held before
// the traffic — no packet was lost or left stranded by the reposts.
TEST(RecvPath, RepostRestoresBudgetAndPool) {
  rank_meeting_t meeting;
  lci::sim::spawn(2, [&](int rank) {
    lci::runtime_attr_t attr;
    attr.device_shards = 2;
    lci::g_runtime_init(attr);
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();
    meeting.meet(1);
    const packet_census_t before = packet_census_t::take();
    ASSERT_EQ(before.preposted.size(), 2u);
    for (std::size_t depth : before.preposted) EXPECT_EQ(depth, before.budget);
    meeting.meet(2);

    exchange_ams(1 - rank, 10000, rcq, rcomp);
    meeting.meet(3);
    for (int i = 0; i < 10; ++i) lci::progress();
    const packet_census_t after = packet_census_t::take();
    for (std::size_t s = 0; s < after.preposted.size(); ++s)
      EXPECT_EQ(after.preposted[s], after.budget) << "shard " << s;
    EXPECT_EQ(after.pooled, before.pooled);
    meeting.meet(4);

    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });
}

// Under the ofi lock model one endpoint lock serializes an endpoint's
// posts, its polls and its reposts, at every shard count. Two sender
// threads per rank keep that lock busy while the rank's main thread
// dispatches, so reposts miss it and hand their packets to the pool;
// replenish_preposts() refills from there. Every packet is accounted for
// afterwards. The parameter is the device shard count.
class OfiRepostMiss : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OfiRepostMiss, KeepsEveryPacket) {
  const std::size_t shards = GetParam();
  constexpr int senders = 2;
  constexpr int per_sender = 4000;
  lci::net::config_t fabric;
  fabric.lock_model = lci::net::lock_model_t::ofi;
  rank_meeting_t meeting;
  lci::sim::spawn(
      2,
      [&](int rank) {
        lci::runtime_attr_t attr;
        attr.device_shards = shards;
        lci::g_runtime_init(attr);
        const int peer = 1 - rank;
        lci::comp_t rcq = lci::alloc_cq();
        const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
        lci::barrier();
        meeting.meet(1);
        const packet_census_t before = packet_census_t::take();
        meeting.meet(2);

        // The senders only post; this thread alone progresses, so the
        // prepost count cannot overshoot its budget. It progresses until its
        // own senders are done too: their posts stop at a full send queue,
        // which only this thread's polls drain.
        auto binding = lci::sim::current_binding();
        std::vector<std::thread> threads;
        std::atomic<int> senders_done{0};
        for (int t = 0; t < senders; ++t) {
          threads.emplace_back([&] {
            lci::sim::scoped_binding_t bound(binding);
            char payload[1000] = {};
            for (int i = 0; i < per_sender; ++i) {
              const std::size_t size = i % 2 == 0 ? 8 : sizeof(payload);
              while (lci::post_am(peer, payload, size, lci::comp_t{}, rcomp)
                         .error.is_retry())
                std::this_thread::yield();
            }
            senders_done.fetch_add(1, std::memory_order_release);
          });
        }
        int received = 0;
        while (received < senders * per_sender ||
               senders_done.load(std::memory_order_acquire) < senders) {
          lci::progress();
          const lci::status_t st = lci::cq_pop(rcq);
          if (st.error.is_done()) {
            ++received;
            std::free(st.buffer.base);
          }
        }
        for (auto& t : threads) t.join();
        meeting.meet(3);
        for (int i = 0; i < 10; ++i) lci::progress();
        const packet_census_t after = packet_census_t::take();
        ASSERT_EQ(after.preposted.size(), shards);
        for (std::size_t s = 0; s < shards; ++s)
          EXPECT_EQ(after.preposted[s], after.budget) << "shard " << s;
        EXPECT_EQ(after.pooled + after.total_preposted(),
                  before.pooled + before.total_preposted());
        meeting.meet(4);

        lci::barrier();
        lci::deregister_rcomp(rcomp);
        lci::free_comp(&rcq);
        lci::g_runtime_fina();
      },
      fabric);
}

INSTANTIATE_TEST_SUITE_P(
    RecvPath, OfiRepostMiss, ::testing::Values(std::size_t{1}, std::size_t{2}),
    [](const ::testing::TestParamInfo<std::size_t>& p) {
      return std::to_string(p.param) + "shards";
    });

// A poll burst of 1 with traffic both ways: each poll returns one entry,
// and local send completions and inbound deliveries take turns. A shrunk
// send depth turns starvation of either into a stall — unreaped send
// completions block every further post, and undelivered inbound messages
// never complete — which the deadline reports.
TEST(RecvPath, PollBurstOneServesBothDirections) {
  constexpr int count = 5000;
  lci::net::config_t fabric;
  fabric.fault.send_depth = 4;
  fabric.poll_burst = 1;
  lci::sim::spawn(
      2,
      [&](int rank) {
        lci::g_runtime_init();
        ASSERT_EQ(lci::get_attr(lci::device_t{}).cq_poll_burst, 1u);
        const int peer = 1 - rank;
        lci::comp_t rcq = lci::alloc_cq();
        const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
        lci::barrier();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        uint64_t v = 0;
        int sent = 0;
        int received = 0;
        while (sent < count || received < count) {
          ASSERT_LT(std::chrono::steady_clock::now(), deadline)
              << "sent " << sent << ", received " << received;
          if (sent < count &&
              !lci::post_am(peer, &v, sizeof(v), lci::comp_t{}, rcomp)
                   .error.is_retry())
            ++sent;
          lci::progress();
          const lci::status_t st = lci::cq_pop(rcq);
          if (st.error.is_done()) {
            ++received;
            std::free(st.buffer.base);
          }
        }
        lci::barrier();
        lci::deregister_rcomp(rcomp);
        lci::free_comp(&rcq);
        lci::g_runtime_fina();
      },
      fabric);
}

}  // namespace
