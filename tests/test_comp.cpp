// Completion-object tests (paper Sec. 3.2.5 / 4.1.4): handler, completion
// queue (both implementations), synchronizer, completion graph, the
// remote-completion registry, and active-message delivery into each kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

#include "core/lci.hpp"
#include "core/packet.hpp"

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
    lci::comp_t cq = lci::alloc_cq();
    lci::comp_t sync = lci::alloc_sync(1);
    EXPECT_THROW(lci::cq_pop(handler), lci::fatal_error_t);
    EXPECT_THROW(lci::sync_test(handler, nullptr), lci::fatal_error_t);
    EXPECT_THROW(lci::cq_pop(sync), lci::fatal_error_t);
    EXPECT_THROW(lci::sync_test(cq, nullptr), lci::fatal_error_t);
    lci::free_comp(&handler);
    lci::free_comp(&cq);
    lci::free_comp(&sync);
  });
}

// A synchronizer signaled past its threshold throws in every build, as
// cq_pop on a synchronizer does, instead of writing past its status slots.
// The signals it accepted still make it ready.
TEST(CompErrors, OverSignaledSynchronizerThrows) {
  with_runtime([] {
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t status;
    status.error.code = lci::errorcode_t::done;
    status.tag = 7;
    lci::comp_signal(sync, status);
    EXPECT_THROW(lci::comp_signal(sync, status), lci::fatal_error_t);
    lci::status_t out;
    EXPECT_TRUE(lci::sync_test(sync, &out));
    EXPECT_EQ(out.tag, 7u);
    lci::free_comp(&sync);
  });
}

// ---------------------------------------------------------------------------
// Active-message delivery (Sec. 3.3.1). An eager AM of at most 16 bytes rides
// inside its completion-queue entry and cq_pop allocates its buffer; a larger
// one, or one signaled to a handler or synchronizer, gets a buffer filled on
// the progress path. Every consumer sees the same bytes, rank and tag and
// releases the buffer with std::free.
// ---------------------------------------------------------------------------

// Both sides of the 16-byte inline cap, and the inject limit.
constexpr std::size_t am_sizes[] = {0, 1, 8, 16, 17, 64};
constexpr std::size_t am_count = std::size(am_sizes);

char am_byte(int from, std::size_t size, std::size_t i) {
  return static_cast<char>((from * 61 + size * 7 + i * 13 + 1) & 0xff);
}

// Sends one AM of each size in am_sizes to the peer, tagged by its index.
void post_am_sizes(int rank, lci::rcomp_t rcomp, bool aggregate) {
  char payload[64];
  for (std::size_t k = 0; k < am_count; ++k) {
    const std::size_t size = am_sizes[k];
    for (std::size_t i = 0; i < size; ++i) payload[i] = am_byte(rank, size, i);
    lci::status_t st;
    while ((st = lci::post_am_x(1 - rank, payload, size, {}, rcomp)
                     .tag(static_cast<lci::tag_t>(k))
                     .allow_aggregation(aggregate)())
               .error.is_retry())
      lci::progress();
    EXPECT_TRUE(st.error.is_done()) << size << " B";
  }
}

// Checks one delivery from post_am_sizes against what `peer` sent. Returns
// the index of its size, or am_count when the tag is out of range.
std::size_t check_am(const lci::status_t& s, int peer) {
  EXPECT_TRUE(s.error.is_done());
  EXPECT_EQ(s.rank, peer);
  EXPECT_EQ(s.user_context, nullptr);
  if (s.tag >= am_count) {
    ADD_FAILURE() << "unexpected tag " << s.tag;
    return am_count;
  }
  const std::size_t size = am_sizes[s.tag];
  EXPECT_EQ(s.buffer.size, size);
  EXPECT_NE(s.buffer.base, nullptr) << size << " B";  // even when empty
  const char* data = static_cast<const char*>(s.buffer.base);
  for (std::size_t i = 0; data != nullptr && i < size && i < s.buffer.size;
       ++i)
    EXPECT_EQ(data[i], am_byte(peer, size, i)) << size << " B, byte " << i;
  return s.tag;
}

enum class am_target_t { cq, handler, sync };

class AmTarget : public ::testing::TestWithParam<am_target_t> {};

TEST_P(AmTarget, EachSizeArrivesIntactAndIsFreed) {
  const am_target_t target = GetParam();
  lci::sim::spawn(2, [&](int rank) {
    lci::runtime_attr_t attr;
    attr.matching_engine_buckets = 256;
    lci::g_runtime_init(attr);
    const int peer = 1 - rank;
    std::mutex lock;
    std::vector<lci::status_t> handled;  // guarded by lock
    lci::comp_t comp;
    if (target == am_target_t::cq) {
      comp = lci::alloc_cq();
    } else if (target == am_target_t::handler) {
      comp = lci::alloc_handler([&](const lci::status_t& s) {
        std::lock_guard<std::mutex> guard(lock);
        handled.push_back(s);
      });
    } else {
      comp = lci::alloc_sync(am_count);
    }
    const lci::rcomp_t rcomp = lci::register_rcomp(comp);
    lci::barrier();
    for (const bool aggregate : {false, true}) {
      const uint64_t coalesced = lci::get_counters().send_coalesced;
      post_am_sizes(rank, rcomp, aggregate);
      if (aggregate) {
        EXPECT_EQ(lci::get_counters().send_coalesced - coalesced, am_count);
      }
      std::vector<lci::status_t> arrived;
      while (arrived.size() < am_count) {
        lci::progress();
        if (target == am_target_t::cq) {
          const lci::status_t s = lci::cq_pop(comp);
          if (s.error.is_done()) arrived.push_back(s);
        } else if (target == am_target_t::handler) {
          std::lock_guard<std::mutex> guard(lock);
          arrived.insert(arrived.end(), handled.begin(), handled.end());
          handled.clear();
        } else {
          std::vector<lci::status_t> out(am_count);
          if (lci::sync_test(comp, out.data())) arrived = out;
        }
      }
      std::vector<int> per_size(am_count + 1, 0);
      for (const lci::status_t& s : arrived) {
        ++per_size[check_am(s, peer)];
        std::free(s.buffer.base);
      }
      for (std::size_t k = 0; k < am_count; ++k)
        EXPECT_EQ(per_size[k], 1) << am_sizes[k] << " B, aggregate "
                                  << aggregate;
      lci::barrier();
    }
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&comp);
    lci::g_runtime_fina();
  });
}

INSTANTIATE_TEST_SUITE_P(Kinds, AmTarget,
                         ::testing::Values(am_target_t::cq,
                                           am_target_t::handler,
                                           am_target_t::sync),
                         [](const auto& info) {
                           switch (info.param) {
                             case am_target_t::cq:
                               return "cq";
                             case am_target_t::handler:
                               return "handler";
                             default:
                               return "sync";
                           }
                         });

// Two posting threads on rank 1 and four threads popping one CQ on rank 0:
// the 8 B AMs ride in their entries and the 24 B ones in buffers the queue
// owns, and each (thread, seq) arrives exactly once, whoever pops it.
TEST(AmDelivery, ConcurrentPoppersSeeEachAmOnce) {
  constexpr uint32_t posters = 2, poppers = 4, per_poster = 4000;
  lci::sim::spawn(2, [&](int rank) {
    lci::runtime_attr_t attr;
    attr.matching_engine_buckets = 256;
    lci::g_runtime_init(attr);
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();
    const auto binding = lci::sim::current_binding();
    std::vector<std::atomic<int>> seen(posters * per_poster);
    std::atomic<uint32_t> received{0};
    std::vector<std::thread> threads;
    if (rank == 1) {
      for (uint32_t t = 0; t < posters; ++t) {
        threads.emplace_back([&, t] {
          lci::sim::scoped_binding_t bound(binding);
          for (uint32_t seq = 0; seq < per_poster; ++seq) {
            uint32_t words[6] = {t, seq, seq + 2, seq + 3, seq + 4, seq + 5};
            const std::size_t size = seq % 2 ? sizeof(words) : 8;
            while (lci::post_am(0, words, size, {}, rcomp).error.is_retry())
              lci::progress();
          }
        });
      }
    } else {
      for (uint32_t p = 0; p < poppers; ++p) {
        threads.emplace_back([&] {
          lci::sim::scoped_binding_t bound(binding);
          while (received.load() < posters * per_poster) {
            lci::progress();
            const lci::status_t s = lci::cq_pop(rcq);
            if (!s.error.is_done()) continue;
            uint32_t words[6] = {posters, per_poster};
            std::memcpy(words, s.buffer.base,
                        std::min(s.buffer.size, sizeof(words)));
            std::free(s.buffer.base);
            received.fetch_add(1);
            const uint32_t t = words[0], seq = words[1];
            if (t >= posters || seq >= per_poster) {
              ADD_FAILURE() << "corrupt AM of " << s.buffer.size << " B";
              continue;
            }
            EXPECT_EQ(s.buffer.size, seq % 2 ? sizeof(words) : 8);
            for (uint32_t i = 2; seq % 2 && i < 6; ++i)
              EXPECT_EQ(words[i], seq + i);
            EXPECT_EQ(seen[t * per_poster + seq].fetch_add(1), 0)
                << "duplicate " << t << "/" << seq;
          }
        });
      }
    }
    for (std::thread& th : threads) th.join();
    lci::barrier();
    EXPECT_TRUE(lci::cq_pop(rcq).error.is_retry());
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });
}

// With am_deliver_packets every AM, however small, is delivered inside its
// packet and goes back with release_am_packet, not std::free.
TEST(AmDelivery, PacketModeKeepsSmallAmsInPackets) {
  lci::sim::spawn(2, [](int rank) {
    lci::runtime_attr_t attr;
    attr.matching_engine_buckets = 256;
    attr.am_deliver_packets = true;
    lci::g_runtime_init(attr);
    const int peer = 1 - rank;
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();
    for (const bool aggregate : {false, true}) {
      post_am_sizes(rank, rcomp, aggregate);
      std::vector<int> per_size(am_count + 1, 0);
      for (std::size_t arrived = 0; arrived < am_count;) {
        lci::progress();
        const lci::status_t s = lci::cq_pop(rcq);
        if (!s.error.is_done()) continue;
        ++arrived;
        ++per_size[check_am(s, peer)];
        lci::detail::am_packet_ref_t ref;
        std::memcpy(&ref, static_cast<const char*>(s.buffer.base) - sizeof(ref),
                    sizeof(ref));
        EXPECT_EQ(ref.magic, lci::detail::am_packet_magic)
            << s.buffer.size << " B, aggregate " << aggregate;
        lci::release_am_packet(s);
      }
      for (std::size_t k = 0; k < am_count; ++k)
        EXPECT_EQ(per_size[k], 1) << am_sizes[k] << " B";
      lci::barrier();
    }
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::g_runtime_fina();
  });
}

// Freeing a CQ that still holds AMs nobody popped leaks nothing: an 8 B AM
// held in its entry, a 1 KiB one whose buffer the queue owns, and a 16 KiB
// rendezvous AM whose buffer is handed over at FIN. The ASan build's
// LeakSanitizer checks it.
TEST(AmDelivery, FreeingCqReleasesUnpoppedAms) {
  lci::sim::spawn(2, [](int rank) {
    lci::runtime_attr_t attr;
    attr.matching_engine_buckets = 256;
    lci::g_runtime_init(attr);
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    const uint64_t delivered = lci::get_counters().am_delivered;
    lci::barrier();
    if (rank == 1) {
      std::vector<char> payload(16 * 1024, 'x');
      for (const std::size_t size : {std::size_t{8}, std::size_t{1024}}) {
        while (lci::post_am(0, payload.data(), size, {}, rcomp)
                   .error.is_retry())
          lci::progress();
      }
      // Rendezvous: its send completes after rank 0 took the RTS.
      lci::comp_t sent = lci::alloc_sync(1);
      lci::status_t s;
      while ((s = lci::post_am(0, payload.data(), payload.size(), sent, rcomp))
                 .error.is_retry())
        lci::progress();
      EXPECT_TRUE(s.error.is_posted());
      if (s.error.is_posted()) lci::sync_wait(sent, nullptr);
      lci::free_comp(&sent);
    } else {
      while (lci::get_counters().am_delivered - delivered < 2)
        lci::progress();
    }
    lci::barrier();
    // Rank 0 took the RTS before the barrier; progress until its FIN landed.
    if (rank == 0) {
      EXPECT_EQ(lci::drain({}, 30'000'000), 0u);
    }
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);  // rank 0's queue still holds all three AMs
    lci::g_runtime_fina();
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
