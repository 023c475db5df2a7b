// Completion-object tests (paper Sec. 3.2.5 / 4.1.4): handler, completion
// queue (both implementations), synchronizer, completion graph, and the
// remote-completion registry.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/lci.hpp"

namespace {

// All comp tests run inside a single simulated rank.
void with_runtime(const std::function<void()>& fn) {
  lci::sim::spawn(1, [&](int) {
    lci::runtime_attr_t attr;
    attr.matching_engine_buckets = 256;
    lci::g_runtime_init(attr);
    fn();
    lci::g_runtime_fina();
  });
}

lci::status_t make_status(int rank, lci::tag_t tag) {
  lci::status_t status;
  status.error.code = lci::errorcode_t::done;
  status.rank = rank;
  status.tag = tag;
  return status;
}

TEST(Handler, RunsInline) {
  with_runtime([] {
    int calls = 0;
    lci::comp_t handler = lci::alloc_handler([&](const lci::status_t& s) {
      ++calls;
      EXPECT_EQ(s.rank, 3);
      EXPECT_EQ(s.tag, 9u);
    });
    lci::comp_signal(handler, make_status(3, 9));
    lci::comp_signal(handler, make_status(3, 9));
    EXPECT_EQ(calls, 2);
    lci::free_comp(&handler);
    EXPECT_FALSE(handler.is_valid());
  });
}

class CqType : public ::testing::TestWithParam<lci::cq_type_t> {};

TEST_P(CqType, PushPopBasics) {
  with_runtime([&] {
    lci::comp_t cq = lci::alloc_cq_x().type(GetParam()).capacity(1024)();
    EXPECT_TRUE(lci::cq_pop(cq).error.is_retry());  // empty
    lci::comp_signal(cq, make_status(1, 10));
    lci::comp_signal(cq, make_status(2, 20));
    lci::status_t a = lci::cq_pop(cq);
    ASSERT_TRUE(a.error.is_done());
    lci::status_t b = lci::cq_pop(cq);
    ASSERT_TRUE(b.error.is_done());
    EXPECT_EQ(a.rank + b.rank, 3);
    EXPECT_EQ(a.tag + b.tag, 30u);
    EXPECT_TRUE(lci::cq_pop(cq).error.is_retry());
    lci::free_comp(&cq);
  });
}

TEST_P(CqType, ManyEntriesSurvive) {
  with_runtime([&] {
    lci::comp_t cq = lci::alloc_cq_x().type(GetParam()).capacity(256)();
    // LCRQ grows; the array impl wraps (we stay within capacity per round).
    for (int round = 0; round < 10; ++round) {
      for (int i = 0; i < 200; ++i)
        lci::comp_signal(cq, make_status(i, static_cast<lci::tag_t>(round)));
      for (int i = 0; i < 200; ++i)
        EXPECT_TRUE(lci::cq_pop(cq).error.is_done());
    }
    lci::free_comp(&cq);
  });
}

TEST_P(CqType, ConcurrentProducersConsumers) {
  with_runtime([&] {
    lci::comp_t cq = lci::alloc_cq_x().type(GetParam()).capacity(4096)();
    constexpr int producers = 2, consumers = 2, per = 20000;
    std::atomic<long> rank_sum{0};
    std::atomic<int> popped{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&] {
        for (int i = 1; i <= per; ++i) lci::comp_signal(cq, make_status(i, 0));
      });
    }
    for (int c = 0; c < consumers; ++c) {
      threads.emplace_back([&] {
        while (popped.load() < producers * per) {
          const lci::status_t s = lci::cq_pop(cq);
          if (s.error.is_done()) {
            rank_sum.fetch_add(s.rank);
            popped.fetch_add(1);
          } else {
            std::this_thread::yield();
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(rank_sum.load(),
              static_cast<long>(producers) * per * (per + 1) / 2);
    lci::free_comp(&cq);
  });
}

INSTANTIATE_TEST_SUITE_P(Impls, CqType,
                         ::testing::Values(lci::cq_type_t::lcrq,
                                           lci::cq_type_t::array),
                         [](const auto& info) {
                           return info.param == lci::cq_type_t::lcrq
                                      ? "lcrq"
                                      : "array";
                         });

TEST(Sync, SingleSignal) {
  with_runtime([] {
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t out;
    EXPECT_FALSE(lci::sync_test(sync, &out));
    lci::comp_signal(sync, make_status(4, 44));
    ASSERT_TRUE(lci::sync_test(sync, &out));
    EXPECT_EQ(out.rank, 4);
    EXPECT_EQ(out.tag, 44u);
    // test() reset it: reusable.
    EXPECT_FALSE(lci::sync_test(sync, &out));
    lci::comp_signal(sync, make_status(5, 55));
    ASSERT_TRUE(lci::sync_test(sync, &out));
    EXPECT_EQ(out.rank, 5);
    lci::free_comp(&sync);
  });
}

TEST(Sync, ThresholdAccumulatesSignals) {
  with_runtime([] {
    lci::comp_t sync = lci::alloc_sync(3);
    lci::status_t out[3];
    lci::comp_signal(sync, make_status(1, 1));
    lci::comp_signal(sync, make_status(2, 2));
    EXPECT_FALSE(lci::sync_test(sync, out));  // 2 of 3
    lci::comp_signal(sync, make_status(3, 3));
    ASSERT_TRUE(lci::sync_test(sync, out));
    int rank_sum = 0;
    for (const auto& s : out) rank_sum += s.rank;
    EXPECT_EQ(rank_sum, 6);
    lci::free_comp(&sync);
  });
}

TEST(Sync, ConcurrentSignalers) {
  with_runtime([] {
    constexpr std::size_t threshold = 64;
    lci::comp_t sync = lci::alloc_sync(threshold);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < threshold / 4; ++i)
          lci::comp_signal(sync, make_status(t, 0));
      });
    }
    for (auto& th : threads) th.join();
    std::vector<lci::status_t> out(threshold);
    EXPECT_TRUE(lci::sync_test(sync, out.data()));
    lci::free_comp(&sync);
  });
}

TEST(Rcomp, RegistryLookupAndReuse) {
  with_runtime([] {
    lci::comp_t cq1 = lci::alloc_cq();
    lci::comp_t cq2 = lci::alloc_cq();
    const lci::rcomp_t a = lci::register_rcomp(cq1);
    const lci::rcomp_t b = lci::register_rcomp(cq2);
    EXPECT_NE(a, b);
    lci::deregister_rcomp(a);
    const lci::rcomp_t c = lci::register_rcomp(cq1);
    EXPECT_EQ(c, a);  // freed id recycled
    lci::deregister_rcomp(b);
    lci::deregister_rcomp(c);
    lci::free_comp(&cq1);
    lci::free_comp(&cq2);
  });
}

TEST(CompErrors, WrongKindThrows) {
  with_runtime([] {
    lci::comp_t handler = lci::alloc_handler([](const lci::status_t&) {});
    EXPECT_THROW(lci::cq_pop(handler), lci::fatal_error_t);
    EXPECT_THROW(lci::sync_test(handler, nullptr), lci::fatal_error_t);
    lci::free_comp(&handler);
  });
}

// ---------------------------------------------------------------------------
// Completion graph
// ---------------------------------------------------------------------------

lci::status_t done_now() {
  lci::status_t s;
  s.error.code = lci::errorcode_t::done;
  return s;
}

TEST(Graph, ChainExecutesInOrder) {
  with_runtime([] {
    lci::graph_t graph = lci::alloc_graph();
    std::vector<int> order;
    const auto a = lci::graph_add_node(graph, [&] {
      order.push_back(1);
      return done_now();
    });
    const auto b = lci::graph_add_node(graph, [&] {
      order.push_back(2);
      return done_now();
    });
    const auto c = lci::graph_add_node(graph, [&] {
      order.push_back(3);
      return done_now();
    });
    lci::graph_add_edge(graph, a, b);
    lci::graph_add_edge(graph, b, c);
    lci::graph_start(graph);
    EXPECT_TRUE(lci::graph_test(graph));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    lci::free_graph(&graph);
  });
}

TEST(Graph, DiamondRespectsPartialOrder) {
  with_runtime([] {
    lci::graph_t graph = lci::alloc_graph();
    std::vector<int> order;
    const auto top = lci::graph_add_node(graph, [&] {
      order.push_back(0);
      return done_now();
    });
    const auto left = lci::graph_add_node(graph, [&] {
      order.push_back(1);
      return done_now();
    });
    const auto right = lci::graph_add_node(graph, [&] {
      order.push_back(2);
      return done_now();
    });
    const auto bottom = lci::graph_add_node(graph, [&] {
      order.push_back(3);
      return done_now();
    });
    lci::graph_add_edge(graph, top, left);
    lci::graph_add_edge(graph, top, right);
    lci::graph_add_edge(graph, left, bottom);
    lci::graph_add_edge(graph, right, bottom);
    lci::graph_start(graph);
    EXPECT_TRUE(lci::graph_test(graph));
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order.front(), 0);
    EXPECT_EQ(order.back(), 3);
    lci::free_graph(&graph);
  });
}

TEST(Graph, PostedNodesCompleteViaSignal) {
  with_runtime([] {
    lci::graph_t graph = lci::alloc_graph();
    int after_runs = 0;
    const auto pending = lci::graph_add_node(graph, [] {
      lci::status_t s;
      s.error.code = lci::errorcode_t::posted;  // completes via node comp
      return s;
    });
    const auto after = lci::graph_add_node(graph, [&] {
      ++after_runs;
      return done_now();
    });
    lci::graph_add_edge(graph, pending, after);
    lci::graph_start(graph);
    EXPECT_FALSE(lci::graph_test(graph));
    EXPECT_EQ(after_runs, 0);
    // The "operation" completes: signal the node's comp.
    lci::comp_signal(lci::graph_node_comp(graph, pending), done_now());
    EXPECT_TRUE(lci::graph_test(graph));
    EXPECT_EQ(after_runs, 1);
    lci::free_graph(&graph);
  });
}

TEST(Graph, RetryNodesRerunOnTest) {
  with_runtime([] {
    lci::graph_t graph = lci::alloc_graph();
    int attempts = 0;
    lci::graph_add_node(graph, [&] {
      lci::status_t s;
      s.error.code = ++attempts < 3 ? lci::errorcode_t::retry
                                    : lci::errorcode_t::done;
      return s;
    });
    lci::graph_start(graph);
    EXPECT_FALSE(lci::graph_test(graph));  // attempt 2 (retry again)
    EXPECT_TRUE(lci::graph_test(graph));   // attempt 3 succeeds
    EXPECT_EQ(attempts, 3);
    lci::free_graph(&graph);
  });
}

TEST(Graph, RestartReusesTheGraph) {
  with_runtime([] {
    lci::graph_t graph = lci::alloc_graph();
    int runs = 0;
    const auto a = lci::graph_add_node(graph, [&] {
      ++runs;
      return done_now();
    });
    const auto b = lci::graph_add_node(graph, [&] {
      ++runs;
      return done_now();
    });
    lci::graph_add_edge(graph, a, b);
    lci::graph_start(graph);
    EXPECT_TRUE(lci::graph_test(graph));
    lci::graph_start(graph);
    EXPECT_TRUE(lci::graph_test(graph));
    EXPECT_EQ(runs, 4);
    lci::free_graph(&graph);
  });
}

// A graph whose nodes are real communication posts: the use case the paper
// highlights (intuitive nonblocking collective implementations).
TEST(Graph, CommunicationNodes) {
  lci::sim::spawn(2, [](int rank) {
    lci::runtime_attr_t attr;
    attr.matching_engine_buckets = 256;
    lci::g_runtime_init(attr);
    const int peer = 1 - rank;

    // Two-node graph per rank: post a recv, and once it completes, send an
    // acknowledgment; ranks are symmetric.
    char inbox[32] = {};
    char outbox[32];
    snprintf(outbox, sizeof(outbox), "from %d", rank);

    lci::graph_t graph = lci::alloc_graph();
    const auto recv_node = lci::graph_add_node(graph, [&] {
      return lci::post_recv_x(peer, inbox, sizeof(inbox), 5,
                              lci::graph_node_comp(graph, 0))
          .allow_done(false)();
    });
    const auto send_node = lci::graph_add_node(graph, [&] {
      lci::status_t s =
          lci::post_send(peer, outbox, sizeof(outbox), 5, {});
      return s;
    });
    // Send first, then the recv completes the graph:
    // actually model: send -> recv (our send must go out; the recv node
    // depends on nothing remote to be *posted*, but sequencing send before
    // recv exercises a communication edge).
    lci::graph_add_edge(graph, send_node, recv_node);
    (void)recv_node;
    lci::graph_start(graph);
    while (!lci::graph_test(graph)) lci::progress();
    char expect[32];
    snprintf(expect, sizeof(expect), "from %d", peer);
    EXPECT_STREQ(inbox, expect);
    lci::free_graph(&graph);
    lci::barrier();
    lci::g_runtime_fina();
  });
}

}  // namespace
