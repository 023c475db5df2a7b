// OFF allocation variants and resource-attribute queries (Sec. 3.1 / 3.2.3),
// and the memory the packet pool and a default runtime touch.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "core/lci.hpp"
#include "core/packet.hpp"
#include "util/thread.hpp"

namespace {

lci::runtime_attr_t small_attr() {
  lci::runtime_attr_t attr;
  attr.matching_engine_buckets = 256;
  return attr;
}

TEST(Attrs, RuntimeAttrRoundTrips) {
  lci::sim::spawn(1, [](int) {
    lci::runtime_attr_t attr = small_attr();
    attr.packet_size = 2048;
    attr.npackets = 512;
    lci::g_runtime_init(attr);
    const lci::runtime_attr_t got = lci::get_attr(lci::runtime_t{});
    EXPECT_EQ(got.packet_size, 2048u);
    EXPECT_EQ(got.npackets, 512u);
    lci::g_runtime_fina();
  });
}

// A device's prepost budget is derived: min(128, npackets / 2).
TEST(Attrs, DeviceOffAndAttrs) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(small_attr());
    EXPECT_EQ(lci::get_attr(lci::device_t{}).prepost_depth, 128u);
    lci::g_runtime_fina();

    lci::runtime_attr_t attr = small_attr();
    attr.npackets = 34;
    lci::g_runtime_init(attr);
    lci::device_t device = lci::alloc_device_x()();
    const lci::device_attr_t dattr = lci::get_attr(device);
    EXPECT_EQ(dattr.prepost_depth, 17u);
    EXPECT_GE(dattr.net_index, 0);
    EXPECT_EQ(dattr.backlog_size, 0u);
    lci::free_device(&device);
    lci::g_runtime_fina();
  });
}

TEST(Attrs, CqOffSelectsImplementation) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(small_attr());
    lci::comp_t lcrq_cq = lci::alloc_cq_x().type(lci::cq_type_t::lcrq)();
    lci::comp_t array_cq =
        lci::alloc_cq_x().type(lci::cq_type_t::array).capacity(128)();
    EXPECT_EQ(lci::get_attr(lcrq_cq).kind, lci::comp_attr_t::kind_t::cq);
    EXPECT_EQ(lci::get_attr(lcrq_cq).cq_type, lci::cq_type_t::lcrq);
    EXPECT_EQ(lci::get_attr(array_cq).cq_type, lci::cq_type_t::array);
    lci::free_comp(&lcrq_cq);
    lci::free_comp(&array_cq);
    lci::g_runtime_fina();
  });
}

TEST(Attrs, SyncAndHandlerKinds) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(small_attr());
    lci::comp_t sync = lci::alloc_sync_x().threshold(5)();
    lci::comp_t handler = lci::alloc_handler([](const lci::status_t&) {});
    EXPECT_EQ(lci::get_attr(sync).kind, lci::comp_attr_t::kind_t::sync);
    EXPECT_EQ(lci::get_attr(sync).sync_threshold, 5u);
    EXPECT_EQ(lci::get_attr(handler).kind, lci::comp_attr_t::kind_t::handler);
    lci::free_comp(&sync);
    lci::free_comp(&handler);
    lci::g_runtime_fina();
  });
}

TEST(Attrs, MatchingEngineOffWithCustomMakeKey) {
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init(small_attr());
    // Custom make_key: match on (tag mod 10) only — sends tagged 13 match
    // receives tagged 3.
    lci::matching_engine_t engine =
        lci::alloc_matching_engine_x()
            .num_buckets(64)
            .make_key([](int, lci::tag_t tag, lci::matching_policy_t) {
              return static_cast<uint64_t>(tag % 10);
            })();
    const auto attr = lci::get_attr(engine);
    EXPECT_EQ(attr.num_buckets, 64u);
    EXPECT_GE(attr.id, 2);  // after default (0) and collective (1)
    lci::barrier();

    const int peer = 1 - rank;
    int out = 7 + rank, in = -1;
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t rs = lci::post_recv_x(peer, &in, sizeof(in), 3, sync)
                           .matching_engine(engine)();
    lci::status_t ss;
    do {
      ss = lci::post_send_x(peer, &out, sizeof(out), 13, {})
               .matching_engine(engine)();
      lci::progress();
    } while (ss.error.is_retry());
    if (rs.error.is_posted()) lci::sync_wait(sync, nullptr);
    EXPECT_EQ(in, 7 + peer);
    lci::barrier();
    lci::free_comp(&sync);
    lci::free_matching_engine(&engine);
    lci::g_runtime_fina();
  });
}

TEST(Attrs, PacketPoolOffAndAttrs) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(small_attr());
    lci::packet_pool_t pool =
        lci::alloc_packet_pool_x().npackets(64).packet_size(1024)();
    const auto attr = lci::get_attr(pool);
    EXPECT_EQ(attr.npackets, 64u);
    EXPECT_EQ(attr.packet_size, 1024u);
    EXPECT_EQ(attr.pooled, 64u);  // nothing in flight
    lci::free_packet_pool(&pool);
    lci::g_runtime_fina();
  });
}

TEST(Attrs, EngineEntriesCountQueuedMessages) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(small_attr());
    lci::matching_engine_t engine = lci::alloc_matching_engine({}, 64);
    int buf;
    // Post 3 receives that will never match (self rank, unused tags).
    for (lci::tag_t tag = 100; tag < 103; ++tag)
      (void)lci::post_recv_x(0, &buf, sizeof(buf), tag, {})
          .matching_engine(engine)();
    EXPECT_EQ(lci::get_attr(engine).entries, 3u);
    // Consume the receives so the engine can be freed empty.
    for (lci::tag_t tag = 100; tag < 103; ++tag) {
      while (lci::post_send_x(0, &buf, sizeof(buf), tag, {})
                 .matching_engine(engine)()
                 .error.is_retry())
        lci::progress();
    }
    while (lci::get_attr(engine).entries != 0) lci::progress();
    lci::free_matching_engine(&engine);
    lci::g_runtime_fina();
  });
}

// ---------------------------------------------------------------------------
// Packet pool: packets are carved from the slab on first demand
// ---------------------------------------------------------------------------

using pool_t = lci::detail::packet_pool_impl_t;
using packet_t = lci::detail::packet_t;

TEST(PacketPool, CarvesOnFirstDemandAndReusesBeforeCarving) {
  pool_t pool(64, 1024);
  EXPECT_EQ(pool.pooled_approx(), 64u);
  EXPECT_EQ(pool.carved(), 0u);
  std::vector<packet_t*> held;
  for (int i = 0; i < 10; ++i) held.push_back(pool.get());
  EXPECT_EQ(pool.carved(), 10u);
  EXPECT_EQ(pool.pooled_approx(), 54u);
  for (packet_t* p : held) pool.put(p);
  EXPECT_EQ(pool.pooled_approx(), 64u);
  // A second round finds the returned packets and carves nothing.
  for (packet_t*& p : held) p = pool.get();
  EXPECT_EQ(pool.carved(), 10u);
  for (packet_t* p : held) pool.put(p);
  EXPECT_EQ(pool.pooled_approx(), 64u);
}

// Threads that get until the pool says no receive every packet once, each a
// distinct cache-line-aligned slot of the one slab.
TEST(PacketPool, ConcurrentGettersReceiveEveryPacketOnce) {
  constexpr std::size_t npackets = 1000, capacity = 100;
  constexpr std::size_t stride = 192;  // 64 B header + 100 B, rounded up
  pool_t pool(npackets, capacity);
  constexpr int nthreads = 4;
  std::vector<std::vector<packet_t*>> got(nthreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      while (packet_t* p = pool.get()) got[t].push_back(p);
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();

  std::vector<std::uintptr_t> addrs;
  for (const auto& mine : got)
    for (packet_t* p : mine) {
      EXPECT_EQ(p->pool, &pool);
      addrs.push_back(reinterpret_cast<std::uintptr_t>(p));
    }
  ASSERT_EQ(addrs.size(), npackets);
  EXPECT_EQ(pool.carved(), npackets);
  EXPECT_EQ(pool.pooled_approx(), 0u);
  std::sort(addrs.begin(), addrs.end());
  EXPECT_EQ(addrs.front() % 64, 0u);
  // Distinct, and exactly the slab's npackets consecutive slots.
  for (std::size_t i = 1; i < addrs.size(); ++i)
    ASSERT_EQ(addrs[i] - addrs[i - 1], stride) << "packet " << i;

  threads.clear();
  for (int t = 0; t < nthreads; ++t)
    threads.emplace_back([&, t] {
      for (packet_t* p : got[t]) pool.put(p);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(pool.pooled_approx(), npackets);
  EXPECT_EQ(pool.carved(), npackets);
}

// A get that finds its own deque empty steals from the pool's other deques,
// however many threads of the process took thread ids in between: here one
// thread holds every packet, so the pool is carved out and stealing from
// that thread is the only way to a packet.
TEST(PacketPool, StealsFromOtherDequesWhateverTheThreadIds) {
  for (int trial = 0; trial < 10; ++trial) {
    pool_t pool(64, 1024);
    std::thread holder([&] {
      std::vector<packet_t*> held;
      while (packet_t* p = pool.get()) held.push_back(p);
      for (packet_t* p : held) pool.put(p);
    });
    holder.join();
    ASSERT_EQ(pool.carved(), 64u);
    // Threads that never touch the pool take the next thread ids.
    std::vector<std::thread> bystanders;
    for (int t = 0; t < 32; ++t)
      bystanders.emplace_back([] { (void)lci::util::thread_id(); });
    for (auto& th : bystanders) th.join();
    packet_t* got = nullptr;
    std::thread getter([&] {
      got = pool.get();
      if (got != nullptr) pool.put(got);
    });
    getter.join();
    EXPECT_NE(got, nullptr) << "trial " << trial;
    EXPECT_EQ(pool.pooled_approx(), 64u);
  }
}

// get_attr(pool).pooled may be read from any thread while others get and
// put (the TSan build checks the deque sizes it reads).
TEST(PacketPool, OccupancyReadsWhileOthersGetAndPut) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(small_attr());
    lci::packet_pool_t pool = lci::alloc_packet_pool_x().npackets(64)();
    std::atomic<bool> go{false};
    std::atomic<int> running{2};
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
      workers.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        std::vector<packet_t*> held;
        for (int i = 0; i < 20000; ++i) {
          if (packet_t* p = pool.p->get()) held.push_back(p);
          if (held.size() > 8 || (i % 3 == 0 && !held.empty())) {
            pool.p->put(held.back());
            held.pop_back();
          }
        }
        for (packet_t* p : held) pool.p->put(p);
        running.fetch_sub(1);
      });
    }
    go.store(true);
    do {
      (void)lci::get_attr(pool).pooled;
    } while (running.load() != 0);
    for (auto& th : workers) th.join();
    EXPECT_EQ(lci::get_attr(pool).pooled, 64u);
    lci::free_packet_pool(&pool);
    lci::g_runtime_fina();
  });
}

// ---------------------------------------------------------------------------
// Footprint: a default runtime touches only the memory it uses
// ---------------------------------------------------------------------------

std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// The default packet pool (8192 packets of 4 KiB) and matching table (65,536
// buckets) reserve 44.5 MiB; initializing a runtime must not write it.
TEST(Footprint, DefaultRuntimeInitTouchesLittleMemory) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators and shadow memory skew the count";
#endif
  lci::sim::spawn(1, [](int) {
    const std::size_t before = resident_bytes();
    lci::g_runtime_init();
    const std::size_t after = resident_bytes();
    lci::g_runtime_fina();
    const std::size_t rise = after > before ? after - before : 0;
    EXPECT_LT(rise, std::size_t{8} << 20)
        << "g_runtime_init raised the resident set by " << (rise >> 10)
        << " KiB";
  });
}

}  // namespace
