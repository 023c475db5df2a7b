// End-to-end protocol correctness under every network model the fabric can
// assume: both lock models (ibv/ofi), all three thread-domain strategies,
// and a wire that holds every message back for some polls (the fault
// injector's delivery delay). The same traffic must behave identically —
// only performance may differ.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "core/lci.hpp"

namespace {

struct model_t {
  const char* name;
  lci::net::config_t config;
};

std::vector<model_t> models() {
  using lm = lci::net::lock_model_t;
  using td = lci::net::td_strategy_t;
  std::vector<model_t> all;
  {
    lci::net::config_t c;
    c.lock_model = lm::ibv;
    c.td_strategy = td::per_qp;
    all.push_back({"ibv_per_qp", c});
  }
  {
    lci::net::config_t c;
    c.lock_model = lm::ibv;
    c.td_strategy = td::all_qp;
    all.push_back({"ibv_all_qp", c});
  }
  {
    lci::net::config_t c;
    c.lock_model = lm::ibv;
    c.td_strategy = td::none;
    all.push_back({"ibv_none", c});
  }
  {
    lci::net::config_t c;
    c.lock_model = lm::ofi;
    all.push_back({"ofi", c});
  }
  {
    lci::net::config_t c;
    c.fault.delay_rate = 1.0;  // every message waits out delay_polls polls
    c.fault.delay_polls = 8;
    all.push_back({"ibv_delayed", c});
  }
  return all;
}

class NetModels : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NetModels, ProtocolsWorkUnderEveryModel) {
  const model_t model = models()[GetParam()];
  lci::sim::spawn(
      2,
      [&](int rank) {
        lci::runtime_attr_t attr;
        attr.matching_engine_buckets = 512;
        lci::g_runtime_init(attr);
        const int peer = 1 - rank;
        lci::comp_t rcq = lci::alloc_cq();
        const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
        lci::barrier();

        // One message per protocol + an AM, interleaved.
        for (const std::size_t size : {std::size_t{8}, std::size_t{1024},
                                       std::size_t{32768}}) {
          std::vector<char> out(size, static_cast<char>(rank + 1));
          std::vector<char> in(size, 0);
          lci::comp_t sync = lci::alloc_sync(1);
          lci::status_t rs =
              lci::post_recv(peer, in.data(), size, 1, sync);
          lci::comp_t ssync = lci::alloc_sync(1);
          lci::status_t ss;
          do {
            ss = lci::post_send(peer, out.data(), size, 1, ssync);
            lci::progress();
          } while (ss.error.is_retry());
          if (ss.error.is_posted()) lci::sync_wait(ssync, nullptr);
          if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
          ASSERT_EQ(rs.buffer.size, size) << model.name;
          ASSERT_EQ(in[0], static_cast<char>(peer + 1)) << model.name;
          ASSERT_EQ(in[size - 1], static_cast<char>(peer + 1)) << model.name;
          lci::free_comp(&sync);
          lci::free_comp(&ssync);
        }

        char am_payload[128];
        snprintf(am_payload, sizeof(am_payload), "model am from %d", rank);
        lci::status_t ss;
        do {
          ss = lci::post_am(peer, am_payload, sizeof(am_payload), {}, rcomp);
          lci::progress();
        } while (ss.error.is_retry());
        lci::status_t arrival;
        do {
          lci::progress();
          arrival = lci::cq_pop(rcq);
        } while (!arrival.error.is_done());
        char expect[128];
        snprintf(expect, sizeof(expect), "model am from %d", peer);
        EXPECT_STREQ(static_cast<char*>(arrival.buffer.base), expect)
            << model.name;
        std::free(arrival.buffer.base);

        lci::barrier();
        lci::deregister_rcomp(rcomp);
        lci::free_comp(&rcq);
        lci::g_runtime_fina();
      },
      model.config);
}

INSTANTIATE_TEST_SUITE_P(AllModels, NetModels,
                         ::testing::Range(std::size_t{0}, models().size()),
                         [](const auto& info) {
                           return models()[info.param].name;
                         });

// RMA on a delaying wire: the put's remote notification is held back while
// the data lands at once; the notification must still pair with the right
// window.
TEST(NetModels, RmaWithDelayedNotification) {
  lci::net::config_t config;
  config.fault.delay_rate = 1.0;
  config.fault.delay_polls = 16;
  lci::sim::spawn(
      2,
      [&](int rank) {
        lci::runtime_attr_t attr;
        attr.matching_engine_buckets = 256;
        lci::g_runtime_init(attr);
        const int peer = 1 - rank;
        std::vector<char> window(512, 0);
        lci::mr_t mr = lci::register_memory(window.data(), window.size());
        lci::rmr_t my_rmr = lci::get_rmr(mr);
        std::vector<lci::rmr_t> rmrs(2);
        lci::allgather(&my_rmr, rmrs.data(), sizeof(lci::rmr_t));
        lci::comp_t rcq = lci::alloc_cq();
        const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
        lci::barrier();

        char payload[64];
        std::memset(payload, 'p', sizeof(payload));
        lci::comp_t sync = lci::alloc_sync(1);
        lci::status_t ss;
        do {
          ss = lci::post_put_x(peer, payload, sizeof(payload), sync,
                               rmrs[static_cast<std::size_t>(peer)], 0)
                   .remote_comp(rcomp)
                   .tag(9)();
          lci::progress();
        } while (ss.error.is_retry());
        if (ss.error.is_posted()) lci::sync_wait(sync, nullptr);

        lci::status_t note;
        do {
          lci::progress();
          note = lci::cq_pop(rcq);
        } while (!note.error.is_done());
        EXPECT_EQ(note.tag, 9u);
        EXPECT_EQ(note.rank, peer);
        EXPECT_EQ(window[0], 'p');

        lci::barrier();
        lci::deregister_rcomp(rcomp);
        lci::free_comp(&rcq);
        lci::free_comp(&sync);
        lci::deregister_memory(&mr);
        lci::g_runtime_fina();
      },
      config);
}

}  // namespace
