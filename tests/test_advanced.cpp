// Advanced-feature tests (paper Sec. 3.3.1): explicit packets, AM delivery
// in packets, OFF argument-order invariance, and the simulated bootstrap.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/lci.hpp"

namespace {

lci::runtime_attr_t small_attr() {
  lci::runtime_attr_t attr;
  attr.matching_engine_buckets = 256;
  return attr;
}

TEST(PacketApi, GetPutRoundTrip) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(small_attr());
    lci::packet_handle_t p = lci::get_packet();
    ASSERT_TRUE(p.is_valid());
    EXPECT_GE(p.capacity, 4096u - 64);  // payload minus header reservation
    // The payload area is writable.
    std::memset(p.address, 0x5a, p.capacity);
    lci::put_packet(p);
    lci::g_runtime_fina();
  });
}

TEST(PacketApi, ExhaustionReturnsInvalidHandle) {
  lci::runtime_attr_t attr = small_attr();
  attr.npackets = 16;  // a prepost budget of 8 (half the pool)
  lci::sim::spawn(1, [&](int) {
    lci::g_runtime_init(attr);
    std::vector<lci::packet_handle_t> held;
    // Drain the pool completely.
    while (true) {
      lci::packet_handle_t p = lci::get_packet();
      if (!p.is_valid()) break;
      held.push_back(p);
      ASSERT_LE(held.size(), 16u);
    }
    EXPECT_FALSE(lci::get_packet().is_valid());
    for (auto& p : held) lci::put_packet(p);
    EXPECT_TRUE(lci::get_packet().is_valid());  // recovered
    lci::g_runtime_fina();
  });
}

// Assemble-in-packet send: the buffer-copy protocol without the copy.
TEST(PacketApi, FromPacketSend) {
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init(small_attr());
    const int peer = 1 - rank;
    const std::size_t size = 900;  // buffer-copy territory
    char inbox[900] = {};
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t rs = lci::post_recv(peer, inbox, size, 4, sync);

    lci::packet_handle_t p = lci::get_packet();
    ASSERT_TRUE(p.is_valid());
    ASSERT_GE(p.capacity, size);
    std::memset(p.address, 'a' + rank, size);
    lci::status_t ss;
    do {
      ss = lci::post_send_x(peer, p.address, size, 4, {}).from_packet(true)();
      lci::progress();
    } while (ss.error.is_retry());
    // The packet is consumed by the post; p must not be reused or put back.
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    EXPECT_EQ(inbox[0], 'a' + peer);
    EXPECT_EQ(inbox[size - 1], 'a' + peer);
    lci::barrier();
    lci::free_comp(&sync);
    lci::g_runtime_fina();
  });
}

// AM delivery in packets: no malloc/copy on the receive path; payloads are
// returned to the pool with release_am_packet.
TEST(PacketApi, AmPacketDelivery) {
  lci::runtime_attr_t attr = small_attr();
  attr.am_deliver_packets = true;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    const int peer = 1 - rank;
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();
    constexpr int count = 300;  // more than prepost_depth: recycling matters
    char payload[128];
    int sent = 0, received = 0;
    while (sent < count || received < count) {
      if (sent < count) {
        snprintf(payload, sizeof(payload), "packet am %d from %d", sent,
                 rank);
        const auto ss =
            lci::post_am(peer, payload, sizeof(payload), {}, rcomp);
        if (!ss.error.is_retry()) ++sent;
      }
      lci::progress();
      lci::status_t s = lci::cq_pop(rcq);
      if (s.error.is_done()) {
        int index = -1, from = -1;
        sscanf(static_cast<char*>(s.buffer.base), "packet am %d from %d",
               &index, &from);
        EXPECT_EQ(from, peer);
        lci::release_am_packet(s);  // NOT std::free
        ++received;
      }
    }
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });
}

// OFF idiom: optional arguments compose in any order with the same result.
TEST(Off, SetterOrderIrrelevant) {
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init(small_attr());
    const int peer = 1 - rank;
    lci::device_t device = lci::alloc_device();
    lci::barrier();

    char in1[8] = {}, in2[8] = {};
    lci::comp_t sync = lci::alloc_sync(2);
    // Same operation, setters in two different orders.
    (void)lci::post_recv_x(peer, in1, sizeof(in1), 11, sync)
        .device(device)
        .matching_policy(lci::matching_policy_t::rank_only)
        .allow_done(false)();
    (void)lci::post_recv_x(peer, in2, sizeof(in2), 12, sync)
        .allow_done(false)
        .matching_policy(lci::matching_policy_t::rank_only)
        .device(device)();

    char out[8] = "offtest";
    for (int i = 0; i < 2; ++i) {
      lci::status_t ss;
      do {
        ss = lci::post_send_x(peer, out, sizeof(out), 99, {})
                 .matching_policy(lci::matching_policy_t::rank_only)
                 .device(device)();
        lci::progress_x().device(device)();
      } while (ss.error.is_retry());
    }
    lci::status_t statuses[2];
    while (!lci::sync_test(sync, statuses)) lci::progress_x().device(device)();
    EXPECT_STREQ(in1, "offtest");
    EXPECT_STREQ(in2, "offtest");
    lci::barrier();
    lci::free_comp(&sync);
    lci::free_device(&device);
    lci::g_runtime_fina();
  });
}

// Simulated bootstrap: worlds, bindings, and the reference-counted
// g_runtime lifecycle.
TEST(SimBootstrap, WorldBindingsAndRefcount) {
  lci::sim::world_t world(3);
  EXPECT_EQ(world.nranks(), 3);
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      lci::sim::scoped_binding_t bound(world.binding(r));
      // Nested init: refcounted.
      lci::runtime_t rt1 = lci::g_runtime_init();
      lci::runtime_t rt2 = lci::g_runtime_init();
      EXPECT_EQ(rt1.p, rt2.p);
      EXPECT_EQ(lci::get_rank_me(), r);
      EXPECT_EQ(lci::get_rank_n(), 3);
      lci::g_runtime_fina();
      EXPECT_TRUE(lci::get_g_runtime().is_valid());  // still one ref
      lci::g_runtime_fina();
      EXPECT_FALSE(lci::get_g_runtime().is_valid());
    });
  }
  for (auto& t : threads) t.join();
}

TEST(SimBootstrap, ChildThreadsShareTheRankRuntime) {
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init();
    auto binding = lci::sim::current_binding();
    ASSERT_TRUE(binding != nullptr);
    lci::runtime_t parent_rt = lci::get_g_runtime();
    std::thread child([&] {
      // Unbound: no runtime visible.
      EXPECT_FALSE(lci::get_g_runtime().is_valid());
      lci::sim::scoped_binding_t bound(binding);
      EXPECT_EQ(lci::get_g_runtime().p, parent_rt.p);
      EXPECT_EQ(lci::get_rank_me(), rank);
    });
    child.join();
    lci::barrier();
    lci::g_runtime_fina();
  });
}

TEST(SimBootstrap, SpawnPropagatesExceptions) {
  EXPECT_THROW(lci::sim::spawn(2,
                               [](int rank) {
                                 if (rank == 1)
                                   throw std::runtime_error("rank 1 failed");
                               }),
               std::runtime_error);
}

TEST(SimBootstrap, UnboundThreadGetsImplicitSingleRankWorld) {
  std::thread t([] {
    lci::g_runtime_init();
    EXPECT_EQ(lci::get_rank_me(), 0);
    EXPECT_EQ(lci::get_rank_n(), 1);
    // Self-traffic works on the implicit world.
    char in[16] = {}, out[16] = "loopback";
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t rs = lci::post_recv(0, in, sizeof(in), 1, sync);
    lci::status_t ss;
    do {
      ss = lci::post_send(0, out, sizeof(out), 1, {});
      lci::progress();
    } while (ss.error.is_retry());
    if (rs.error.is_posted()) lci::sync_wait(sync, nullptr);
    EXPECT_STREQ(in, "loopback");
    lci::free_comp(&sync);
    lci::g_runtime_fina();
  });
  t.join();
}

}  // namespace
