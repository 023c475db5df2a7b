// Stress and failure-injection tests: heavy multithreaded traffic over
// shared and dedicated devices, packet-pool exhaustion and recovery,
// rendezvous floods, and collectives at larger rank counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "core/lci.hpp"

namespace {

lci::runtime_attr_t small_attr() {
  lci::runtime_attr_t attr;
  attr.matching_engine_buckets = 1024;
  return attr;
}

// N threads per rank hammer one shared device with AMs to the peer; every
// payload must arrive intact exactly once.
TEST(Stress, SharedDeviceManyThreads) {
  constexpr int nthreads = 4;
  constexpr int per_thread = 300;
  constexpr int total = nthreads * per_thread;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(small_attr());
    const int peer = 1 - rank;
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();

    std::vector<std::atomic<int>> seen(total);
    for (auto& s : seen) s.store(0);
    std::atomic<int> received{0};
    auto binding = lci::sim::current_binding();
    std::vector<std::thread> pool;
    for (int t = 0; t < nthreads; ++t) {
      pool.emplace_back([&, t] {
        lci::sim::scoped_binding_t bound(binding);
        int sent = 0;
        while (sent < per_thread || received.load() < total) {
          if (sent < per_thread) {
            uint64_t payload = static_cast<uint64_t>(t) * per_thread + sent;
            const auto status =
                lci::post_am(peer, &payload, sizeof(payload), {}, rcomp);
            if (!status.error.is_retry()) ++sent;
          }
          lci::progress();
          lci::status_t s = lci::cq_pop(rcq);
          if (s.error.is_done()) {
            uint64_t payload;
            std::memcpy(&payload, s.buffer.base, sizeof(payload));
            std::free(s.buffer.base);
            ASSERT_LT(payload, static_cast<uint64_t>(total));
            seen[payload].fetch_add(1);
            received.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    for (int i = 0; i < total; ++i) EXPECT_EQ(seen[i].load(), 1);
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });
}

// Dedicated mode: a device (and its own cq) per thread, the configuration
// the paper's Fig. 3(a) measures.
TEST(Stress, DedicatedDevicesPerThread) {
  constexpr int nthreads = 4;
  constexpr int per_thread = 300;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(small_attr());
    const int peer = 1 - rank;
    // Registration order fixes rcomp ids: thread t's cq gets id t.
    std::vector<lci::comp_t> cqs(nthreads);
    std::vector<lci::rcomp_t> rcomps(nthreads);
    for (int t = 0; t < nthreads; ++t) {
      cqs[static_cast<std::size_t>(t)] = lci::alloc_cq();
      rcomps[static_cast<std::size_t>(t)] =
          lci::register_rcomp(cqs[static_cast<std::size_t>(t)]);
    }
    std::vector<lci::device_t> devices(nthreads);
    for (auto& d : devices) d = lci::alloc_device();
    lci::barrier();

    auto binding = lci::sim::current_binding();
    std::atomic<int> threads_done{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < nthreads; ++t) {
      pool.emplace_back([&, t] {
        lci::sim::scoped_binding_t bound(binding);
        lci::device_t dev = devices[static_cast<std::size_t>(t)];
        lci::comp_t cq = cqs[static_cast<std::size_t>(t)];
        int sent = 0, received = 0;
        while (sent < per_thread || received < per_thread) {
          if (sent < per_thread) {
            uint64_t payload = static_cast<uint64_t>(rank) << 32 | sent;
            const auto status =
                lci::post_am_x(peer, &payload, sizeof(payload), {},
                               rcomps[static_cast<std::size_t>(t)])
                    .device(dev)
                    .tag(static_cast<lci::tag_t>(t))();
            if (!status.error.is_retry()) ++sent;
          }
          lci::progress_x().device(dev)();
          lci::status_t s = lci::cq_pop(cq);
          if (s.error.is_done()) {
            EXPECT_EQ(s.tag, static_cast<lci::tag_t>(t));
            EXPECT_EQ(s.rank, peer);
            std::free(s.buffer.base);
            ++received;
          }
        }
        threads_done.fetch_add(1);
        while (threads_done.load() < nthreads)
          lci::progress_x().device(dev)();
        for (int i = 0; i < 100; ++i) lci::progress_x().device(dev)();
      });
    }
    for (auto& th : pool) th.join();
    lci::barrier();
    for (int t = 0; t < nthreads; ++t) {
      lci::deregister_rcomp(rcomps[static_cast<std::size_t>(t)]);
      lci::free_comp(&cqs[static_cast<std::size_t>(t)]);
      lci::free_device(&devices[static_cast<std::size_t>(t)]);
    }
    lci::g_runtime_fina();
  });
}

// Packet-pool exhaustion: with a 16-packet pool, half of it pre-posted,
// buffer-copy sends must hit retry_nopacket under a burst and then recover
// once arrivals recycle packets.
TEST(FailureInjection, PacketPoolExhaustionRecovers) {
  lci::runtime_attr_t attr = small_attr();
  attr.npackets = 16;  // a prepost budget of 8 leaves ~8 for send staging
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    const int peer = 1 - rank;
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();
    constexpr int count = 200;
    constexpr std::size_t size = 512;  // buffer-copy: consumes a packet
    std::vector<char> out(size, static_cast<char>(rank));
    int sent = 0, received = 0;
    int nopacket_retries = 0;
    while (sent < count || received < count) {
      if (sent < count) {
        const auto status = lci::post_am(peer, out.data(), size, {}, rcomp);
        if (status.error.code == lci::errorcode_t::retry_nopacket)
          ++nopacket_retries;
        if (!status.error.is_retry()) ++sent;
      }
      lci::progress();
      lci::status_t s = lci::cq_pop(rcq);
      if (s.error.is_done()) {
        std::free(s.buffer.base);
        ++received;
      }
    }
    EXPECT_EQ(received, count);  // exhaustion never loses messages
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });
}

// Rendezvous flood: many concurrent large transfers in both directions.
TEST(Stress, RendezvousFlood) {
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(small_attr());
    const int peer = 1 - rank;
    constexpr int count = 16;
    const std::size_t size = 64 * 1024;
    std::vector<std::vector<char>> outs(count), ins(count);
    for (int i = 0; i < count; ++i) {
      outs[static_cast<std::size_t>(i)].assign(size,
                                               static_cast<char>(rank + i));
      ins[static_cast<std::size_t>(i)].assign(size, 0);
    }
    lci::comp_t rsync = lci::alloc_sync(count);
    lci::comp_t ssync = lci::alloc_sync(count);
    for (int i = 0; i < count; ++i) {
      (void)lci::post_recv_x(peer, ins[static_cast<std::size_t>(i)].data(),
                             size, static_cast<lci::tag_t>(i), rsync)
          .allow_done(false)();
    }
    for (int i = 0; i < count; ++i) {
      lci::status_t s;
      do {
        s = lci::post_send_x(peer, outs[static_cast<std::size_t>(i)].data(),
                             size, static_cast<lci::tag_t>(i), ssync)
                .allow_done(false)();
        lci::progress();
      } while (s.error.is_retry());
    }
    lci::sync_wait(ssync, nullptr);
    lci::sync_wait(rsync, nullptr);
    for (int i = 0; i < count; ++i) {
      const auto& in = ins[static_cast<std::size_t>(i)];
      EXPECT_EQ(in[0], static_cast<char>(peer + i));
      EXPECT_EQ(in[size - 1], static_cast<char>(peer + i));
    }
    lci::barrier();
    lci::free_comp(&rsync);
    lci::free_comp(&ssync);
    lci::g_runtime_fina();
  });
}

// Collectives at scale: correctness over 8 ranks, repeated (sequence-number
// reuse across many collectives).
TEST(Stress, CollectivesEightRanks) {
  lci::sim::spawn(8, [&](int rank) {
    lci::g_runtime_init(small_attr());
    for (int round = 0; round < 5; ++round) {
      lci::barrier();
      int value = rank == round ? round * 100 : -1;
      lci::broadcast(&value, sizeof(value), /*root=*/round);
      EXPECT_EQ(value, round * 100);

      long mine = rank + round;
      long total = 0;
      lci::reduce(
          &mine, &total, sizeof(long),
          [](void* acc, const void* in, std::size_t) {
            *static_cast<long*>(acc) += *static_cast<const long*>(in);
          },
          /*root=*/round % 8);
      if (rank == round % 8) {
        long expect = 0;
        for (int r = 0; r < 8; ++r) expect += r + round;
        EXPECT_EQ(total, expect);
      }
    }
    lci::barrier();
    lci::g_runtime_fina();
  });
}

// Broadcast of a rendezvous-sized buffer exercises collectives over the
// zero-copy path.
TEST(Stress, LargeBroadcast) {
  lci::sim::spawn(4, [&](int rank) {
    lci::g_runtime_init(small_attr());
    const std::size_t size = 128 * 1024;
    std::vector<char> data(size);
    if (rank == 2) {
      for (std::size_t i = 0; i < size; ++i)
        data[i] = static_cast<char>(i * 13);
    }
    lci::broadcast(data.data(), size, /*root=*/2);
    for (std::size_t i = 0; i < size; i += 997)
      ASSERT_EQ(data[i], static_cast<char>(i * 13));
    lci::barrier();
    lci::g_runtime_fina();
  });
}

}  // namespace
