// OFF allocation variants and resource-attribute queries (Sec. 3.1 / 3.2.3).
#include <gtest/gtest.h>

#include "core/lci.hpp"

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
    attr.max_inject_size = 32;
    lci::g_runtime_init(attr);
    const lci::runtime_attr_t got = lci::get_attr(lci::runtime_t{});
    EXPECT_EQ(got.packet_size, 2048u);
    EXPECT_EQ(got.npackets, 512u);
    EXPECT_EQ(got.max_inject_size, 32u);
    lci::g_runtime_fina();
  });
}

TEST(Attrs, DeviceOffAndAttrs) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(small_attr());
    lci::device_t device = lci::alloc_device_x().prepost_depth(17)();
    const lci::device_attr_t attr = lci::get_attr(device);
    EXPECT_EQ(attr.prepost_depth, 17u);
    EXPECT_GE(attr.net_index, 0);
    EXPECT_EQ(attr.backlog_size, 0u);
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

}  // namespace
