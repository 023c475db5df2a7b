// Fault-injection tests (see docs/INTERNALS.md "Error handling &
// backpressure"):
//  * the simulated fabric's deterministic fault policy at the net layer
//    (seeded decision sequence, max_faults cap, shrunk queue depths, delayed
//    delivery),
//  * the runtime's retry/backlog paths under injected faults — send/recv
//    across all three protocols, active messages, RMA-put-with-signal, the
//    dissemination barrier, and allow_retry=false — every operation must
//    complete exactly once and the backlog counters must balance,
//  * the truncation error paths: oversized eager and rendezvous messages
//    complete both sides with fatal_truncated instead of hanging, throwing,
//    or overrunning buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "core/lci.hpp"

namespace {

using lci::net::config_t;
using lci::net::post_result_t;

// ---------------------------------------------------------------------------
// Net layer: the policy itself.
// ---------------------------------------------------------------------------

struct net_fixture_t {
  explicit net_fixture_t(const config_t& config)
      : fabric(lci::net::create_sim_fabric(2, config)),
        ctx0(fabric->create_context(0)),
        ctx1(fabric->create_context(1)),
        dev0(ctx0->create_device()),
        dev1(ctx1->create_device()) {}

  std::shared_ptr<lci::net::fabric_t> fabric;
  std::unique_ptr<lci::net::context_t> ctx0, ctx1;
  std::unique_ptr<lci::net::device_t> dev0, dev1;
};

TEST(FaultNet, SameSeedSameDecisionSequence) {
  config_t config;
  config.fault.retry_rate = 0.5;
  config.fault.seed = 0xfeedbeefull;
  auto run = [&config]() {
    net_fixture_t f(config);
    std::vector<post_result_t> seq;
    const int v = 7;
    for (int i = 0; i < 256; ++i) {
      seq.push_back(f.dev0->post_send(1, &v, sizeof(v), 0, nullptr));
      lci::net::cqe_t cqe;
      (void)f.dev0->poll_cq(&cqe, 1);  // keep the send CQ drained
    }
    return seq;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);  // the policy is a pure function of (seed, coordinates)
  const auto faults = static_cast<std::size_t>(
      std::count_if(a.begin(), a.end(),
                    [](post_result_t r) { return r != post_result_t::ok; }));
  EXPECT_GT(faults, 0u);
  EXPECT_LT(faults, a.size());
  // Both retry flavors appear at lock_fraction 0.5.
  EXPECT_TRUE(std::find(a.begin(), a.end(), post_result_t::retry_lock) !=
              a.end());
  EXPECT_TRUE(std::find(a.begin(), a.end(), post_result_t::retry_full) !=
              a.end());
}

TEST(FaultNet, DifferentSeedsDifferentSequences) {
  auto run = [](uint64_t seed) {
    config_t config;
    config.fault.retry_rate = 0.5;
    config.fault.seed = seed;
    net_fixture_t f(config);
    std::vector<post_result_t> seq;
    const int v = 7;
    for (int i = 0; i < 256; ++i) {
      seq.push_back(f.dev0->post_send(1, &v, sizeof(v), 0, nullptr));
      lci::net::cqe_t cqe;
      (void)f.dev0->poll_cq(&cqe, 1);
    }
    return seq;
  };
  EXPECT_NE(run(1), run(2));
}

TEST(FaultNet, MaxFaultsCapsInjection) {
  config_t config;
  config.fault.retry_rate = 1.0;
  config.fault.max_faults = 5;
  net_fixture_t f(config);
  const int v = 1;
  for (int i = 0; i < 5; ++i)
    EXPECT_NE(f.dev0->post_send(1, &v, sizeof(v), 0, nullptr),
              post_result_t::ok);
  EXPECT_EQ(f.dev0->injected_faults(), 5u);
  // The cap reached: the policy steps aside and the post goes through.
  EXPECT_EQ(f.dev0->post_send(1, &v, sizeof(v), 0, nullptr),
            post_result_t::ok);
  EXPECT_EQ(f.dev0->injected_faults(), 5u);
}

TEST(FaultNet, InjectedFaultsMatchRetryResults) {
  config_t config;
  config.fault.retry_rate = 0.3;
  config.fault.seed = 99;
  net_fixture_t f(config);
  const int v = 2;
  uint64_t retries = 0;
  for (int i = 0; i < 300; ++i) {
    if (f.dev0->post_send(1, &v, sizeof(v), 0, nullptr) != post_result_t::ok)
      ++retries;
    lci::net::cqe_t cqe;
    (void)f.dev0->poll_cq(&cqe, 1);
  }
  // No other backpressure is possible here, so every retry was injected.
  EXPECT_EQ(f.dev0->injected_faults(), retries);
  EXPECT_EQ(f.dev1->injected_faults(), 0u);  // the peer never posted
}

TEST(FaultNet, ShrunkSendDepthBackpressures) {
  config_t config;
  config.fault.send_depth = 2;  // far below the default 4096
  net_fixture_t f(config);
  const int v = 3;
  ASSERT_EQ(f.dev0->post_send(1, &v, sizeof(v), 0, nullptr),
            post_result_t::ok);
  ASSERT_EQ(f.dev0->post_send(1, &v, sizeof(v), 0, nullptr),
            post_result_t::ok);
  // Two unreaped send CQEs: the shrunk queue is full.
  EXPECT_EQ(f.dev0->post_send(1, &v, sizeof(v), 0, nullptr),
            post_result_t::retry_full);
  lci::net::cqe_t cqes[4];
  (void)f.dev0->poll_cq(cqes, 4);  // reap
  EXPECT_EQ(f.dev0->post_send(1, &v, sizeof(v), 0, nullptr),
            post_result_t::ok);
}

TEST(FaultNet, DelayedDeliveryArrivesAfterTheConfiguredPolls) {
  config_t config;
  config.fault.delay_rate = 1.0;
  config.fault.delay_polls = 3;
  net_fixture_t f(config);
  std::vector<char> buffer(256);
  ASSERT_EQ(f.dev1->post_recv(buffer.data(), buffer.size(), nullptr),
            post_result_t::ok);
  const int v = 4;
  ASSERT_EQ(f.dev0->post_send(1, &v, sizeof(v), 0, nullptr),
            post_result_t::ok);
  lci::net::cqe_t cqe;
  int polls = 0;
  while (f.dev1->poll_cq(&cqe, 1).count == 0) {
    ++polls;
    ASSERT_LT(polls, 64) << "delayed message never arrived";
  }
  EXPECT_GE(polls, 3);  // each poll burns one deferred attempt
  EXPECT_EQ(cqe.op, lci::net::op_t::recv);
  EXPECT_EQ(std::memcmp(cqe.buffer, &v, sizeof(v)), 0);
}

// ---------------------------------------------------------------------------
// Runtime layer: full protocol stack under injected faults.
// ---------------------------------------------------------------------------

// Runs fn(rank) on `nranks` ranks over a faulty fabric, then checks the
// invariants every fault-free-completion run must satisfy: no fatal
// completions, balanced backlog counters, and (when faults were possible)
// evidence the policy actually fired.
void run_faulty(int nranks, double rate, uint64_t seed,
                const std::function<void(int)>& fn) {
  config_t config;
  config.fault.retry_rate = rate;
  config.fault.seed = seed;
  lci::sim::spawn(
      nranks,
      [&](int rank) {
        lci::runtime_attr_t attr;
        attr.matching_engine_buckets = 256;
        lci::g_runtime_init(attr);
        fn(rank);
        lci::barrier();
        // Quiesce: every backlogged operation retires before teardown.
        lci::counters_t c = lci::get_counters();
        while (c.backlog_pushed != c.backlog_retired) {
          lci::progress();
          c = lci::get_counters();
        }
        EXPECT_EQ(c.comp_fatal, 0u) << "rank " << rank;
        // Low rates on short tests can legitimately draw zero faults; only
        // assert the policy fired where it is statistically certain.
        if (rate >= 0.25) {
          EXPECT_GT(c.fault_injected, 0u) << "rank " << rank;
        }
        lci::barrier();  // nobody tears down while a peer is still draining
        lci::g_runtime_fina();
      },
      config);
}

// Blocking helpers that tolerate injected retries.
void send_blocking(int peer, void* buf, std::size_t n, lci::tag_t tag) {
  lci::comp_t sync = lci::alloc_sync(1);
  lci::status_t s;
  do {
    s = lci::post_send(peer, buf, n, tag, sync);
    lci::progress();
  } while (s.error.is_retry());
  ASSERT_FALSE(s.error.is_fatal());
  if (s.error.is_posted()) lci::sync_wait(sync, &s);
  ASSERT_TRUE(s.error.is_done());
  lci::free_comp(&sync);
}

lci::status_t recv_blocking(int peer, void* buf, std::size_t n,
                            lci::tag_t tag) {
  lci::comp_t sync = lci::alloc_sync(1);
  lci::status_t s = lci::post_recv(peer, buf, n, tag, sync);
  if (s.error.is_posted()) lci::sync_wait(sync, &s);
  lci::free_comp(&sync);
  return s;
}

class FaultSweep
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {
 protected:
  double rate() const { return std::get<0>(GetParam()); }
  uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(FaultSweep, SendRecvAllProtocolsCompleteExactlyOnce) {
  run_faulty(2, rate(), seed(), [](int rank) {
    const int peer = 1 - rank;
    // Inject, buffer-copy, and rendezvous sizes (eager threshold is 4080).
    const std::size_t sizes[] = {8, 1024, 8192};
    constexpr int rounds = 6;
    lci::tag_t tag = 0;
    for (int round = 0; round < rounds; ++round) {
      for (const std::size_t size : sizes) {
        std::vector<char> out(size), in(size, 0);
        for (std::size_t i = 0; i < size; ++i)
          out[i] = static_cast<char>(
              (i * 13 + static_cast<std::size_t>(rank) +
               static_cast<std::size_t>(round)) & 0xff);
        lci::comp_t rsync = lci::alloc_sync(1);
        lci::status_t rs = lci::post_recv(peer, in.data(), size, tag, rsync);
        send_blocking(peer, out.data(), size, tag);
        if (rs.error.is_posted()) lci::sync_wait(rsync, &rs);
        ASSERT_TRUE(rs.error.is_done());
        ASSERT_EQ(rs.buffer.size, size);
        for (std::size_t i = 0; i < size; ++i)
          ASSERT_EQ(in[i], static_cast<char>(
                               (i * 13 + static_cast<std::size_t>(peer) +
                                static_cast<std::size_t>(round)) & 0xff))
              << "size " << size << " round " << round << " byte " << i;
        lci::free_comp(&rsync);
        ++tag;
      }
    }
  });
}

TEST_P(FaultSweep, ActiveMessagesDeliverExactlyOnce) {
  run_faulty(2, rate(), seed(), [](int rank) {
    const int peer = 1 - rank;
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();

    const std::size_t sizes[] = {8, 1024, 8192};  // eager_am and rts_am
    constexpr int count = 12;
    for (int i = 0; i < count; ++i) {
      const std::size_t size = sizes[static_cast<std::size_t>(i) % 3];
      std::vector<char> out(size, static_cast<char>('a' + i));
      lci::comp_t sync = lci::alloc_sync(1);
      lci::status_t ss;
      do {
        ss = lci::post_am_x(peer, out.data(), size, sync, rcomp)
                 .tag(static_cast<lci::tag_t>(i))();
        lci::progress();
      } while (ss.error.is_retry());
      ASSERT_FALSE(ss.error.is_fatal());
      if (ss.error.is_posted()) lci::sync_wait(sync, nullptr);
      lci::free_comp(&sync);
    }

    int arrived = 0;
    std::vector<int> seen(count, 0);
    while (arrived < count) {
      lci::progress();
      const lci::status_t st = lci::cq_pop(rcq);
      if (!st.error.is_done()) continue;
      const int i = static_cast<int>(st.tag);
      ASSERT_GE(i, 0);
      ASSERT_LT(i, count);
      seen[static_cast<std::size_t>(i)]++;
      EXPECT_EQ(st.buffer.size, sizes[static_cast<std::size_t>(i) % 3]);
      EXPECT_EQ(static_cast<const char*>(st.buffer.base)[0],
                static_cast<char>('a' + i));
      std::free(st.buffer.base);
      ++arrived;
    }
    for (int i = 0; i < count; ++i)
      EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "AM " << i;
    lci::barrier();  // the peer drained its arrivals too
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
  });
}

TEST_P(FaultSweep, RmaPutWithSignalUnderFaults) {
  run_faulty(2, rate(), seed(), [](int rank) {
    const int peer = 1 - rank;
    constexpr int count = 8;
    constexpr std::size_t chunk = 1024;
    std::vector<char> window(count * chunk, 0);
    lci::mr_t mr = lci::register_memory(window.data(), window.size());
    lci::comp_t scq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(scq);

    // Exchange the window's rmr and signal rcomp with the peer.
    struct handshake_t {
      uint32_t mr_id;
      lci::rcomp_t rcomp;
    } mine{lci::get_rmr(mr).id, rcomp}, theirs{};
    lci::comp_t hsync = lci::alloc_sync(1);
    lci::status_t hs = lci::post_recv(peer, &theirs, sizeof(theirs), 900,
                                      hsync);
    send_blocking(peer, &mine, sizeof(mine), 900);
    if (hs.error.is_posted()) lci::sync_wait(hsync, &hs);
    ASSERT_TRUE(hs.error.is_done());
    lci::free_comp(&hsync);
    lci::rmr_t remote;
    remote.id = theirs.mr_id;

    std::vector<std::vector<char>> out(count);
    for (int i = 0; i < count; ++i) {
      out[static_cast<std::size_t>(i)].assign(
          chunk, static_cast<char>('A' + rank * 8 + i));
      lci::comp_t sync = lci::alloc_sync(1);
      lci::status_t ss;
      do {
        ss = lci::post_put_x(peer, out[static_cast<std::size_t>(i)].data(),
                             chunk, sync, remote,
                             static_cast<std::size_t>(i) * chunk)
                 .remote_comp(theirs.rcomp)
                 .tag(static_cast<lci::tag_t>(i))();
        lci::progress();
      } while (ss.error.is_retry());
      ASSERT_FALSE(ss.error.is_fatal());
      if (ss.error.is_posted()) lci::sync_wait(sync, nullptr);
      lci::free_comp(&sync);
    }

    // Collect the peer's signals; each names a chunk that must now hold the
    // peer's pattern.
    int signals = 0;
    std::vector<int> seen(count, 0);
    while (signals < count) {
      lci::progress();
      const lci::status_t st = lci::cq_pop(scq);
      if (!st.error.is_done()) continue;
      const int i = static_cast<int>(st.tag);
      ASSERT_GE(i, 0);
      ASSERT_LT(i, count);
      seen[static_cast<std::size_t>(i)]++;
      const char expect = static_cast<char>('A' + peer * 8 + i);
      for (std::size_t b = 0; b < chunk; ++b)
        ASSERT_EQ(window[static_cast<std::size_t>(i) * chunk + b], expect)
            << "chunk " << i << " byte " << b;
      ++signals;
    }
    for (int i = 0; i < count; ++i)
      EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "signal " << i;
    lci::barrier();  // peer's puts into our window are done too
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&scq);
    lci::deregister_memory(&mr);
  });
}

TEST_P(FaultSweep, DisseminationBarrierCompletes) {
  // 4 ranks: two dissemination rounds per barrier, all under injection.
  run_faulty(4, rate(), seed(), [](int) {
    for (int i = 0; i < 10; ++i) lci::barrier();
  });
}

TEST_P(FaultSweep, AllowRetryFalseAbsorbsInjectedRetries) {
  run_faulty(2, rate(), seed(), [this](int rank) {
    const int peer = 1 - rank;
    constexpr int count = 32;
    constexpr std::size_t size = 512;  // buffer-copy path
    std::vector<std::vector<char>> in(count, std::vector<char>(size, 0));
    std::vector<char> out(size, static_cast<char>('A' + rank));
    lci::comp_t rsync = lci::alloc_sync(count);
    lci::comp_t scq = lci::alloc_cq();
    for (int i = 0; i < count; ++i) {
      (void)lci::post_recv_x(peer, in[static_cast<std::size_t>(i)].data(),
                             size, 8, rsync)
          .allow_done(false)();
    }
    int signals_owed = 0, backlogged = 0;
    for (int i = 0; i < count; ++i) {
      const lci::status_t ss =
          lci::post_send_x(peer, out.data(), size, 8, scq).allow_retry(false)();
      ASSERT_FALSE(ss.error.is_retry());
      ASSERT_FALSE(ss.error.is_fatal());
      if (ss.error.code == lci::errorcode_t::posted_backlog) {
        ++backlogged;
        ++signals_owed;
      } else if (ss.error.is_posted()) {
        ++signals_owed;
      }
    }
    lci::sync_wait(rsync, nullptr);
    while (signals_owed > 0) {
      lci::progress();
      if (lci::cq_pop(scq).error.is_done()) --signals_owed;
    }
    for (const auto& buf : in)
      EXPECT_EQ(buf[0], static_cast<char>('A' + peer));
    if (rate() >= 0.25) {
      EXPECT_GT(backlogged, 0);
      const lci::counters_t c = lci::get_counters();
      EXPECT_GT(c.backlog_peak_depth, 0u);
    }
    lci::free_comp(&rsync);
    lci::free_comp(&scq);
  });
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndSeeds, FaultSweep,
    ::testing::Combine(::testing::Values(0.1, 0.25, 0.5),
                       ::testing::Values(1ull, 7ull, 42ull)),
    [](const auto& info) {
      return "rate" +
             std::to_string(static_cast<int>(std::get<0>(info.param) * 100)) +
             "pct_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Fault config surfaced through runtime attributes.
// ---------------------------------------------------------------------------

TEST(FaultConfig, SurfacedAndCountedThroughTheRuntime) {
  config_t config;
  config.fault.retry_rate = 1.0;
  config.fault.max_faults = 2;
  config.fault.seed = 77;
  lci::sim::spawn(
      2,
      [&](int rank) {
        lci::runtime_attr_t attr;
        attr.matching_engine_buckets = 256;
        lci::g_runtime_init(attr);
        const lci::net::fault_config_t fc = lci::get_fault_config();
        EXPECT_EQ(fc.retry_rate, 1.0);
        EXPECT_EQ(fc.max_faults, 2u);
        EXPECT_EQ(fc.seed, 77u);
        EXPECT_TRUE(fc.enabled());

        const int peer = 1 - rank;
        int out = rank, in = -1;
        lci::status_t rs = lci::post_recv(peer, &in, sizeof(in), 1, {});
        lci::status_t ss;
        do {
          ss = lci::post_send(peer, &out, sizeof(out), 1, {});
          lci::progress();
        } while (ss.error.is_retry());
        while (rs.error.is_posted() && in == -1) lci::progress();
        EXPECT_EQ(in, peer);

        // rate 1.0 capped at 2: exactly the cap was injected, and
        // reset_counters does not clear the device-owned total.
        lci::counters_t c = lci::get_counters();
        EXPECT_EQ(c.fault_injected, 2u);
        lci::reset_counters();
        c = lci::get_counters();
        EXPECT_EQ(c.fault_injected, 2u);
        EXPECT_EQ(c.send_inject, 0u);
        lci::barrier();
        lci::g_runtime_fina();
      },
      config);
}

TEST(FaultConfig, DisabledByDefault) {
  const lci::net::fault_config_t fc;
  EXPECT_FALSE(fc.enabled());
  config_t config;
  EXPECT_FALSE(config.fault.enabled());
}

// ---------------------------------------------------------------------------
// Error taxonomy.
// ---------------------------------------------------------------------------

TEST(ErrorCategories, FatalIsItsOwnCategory) {
  lci::error_t e;
  for (const auto code :
       {lci::errorcode_t::fatal, lci::errorcode_t::fatal_truncated}) {
    e.code = code;
    EXPECT_TRUE(e.is_fatal());
    EXPECT_FALSE(e.is_retry());  // a fatal error must never be resubmitted
    EXPECT_FALSE(e.is_done());
    EXPECT_FALSE(e.is_posted());
  }
  e.code = lci::errorcode_t::retry_nomem;
  EXPECT_TRUE(e.is_retry());
  EXPECT_FALSE(e.is_fatal());
}

// ---------------------------------------------------------------------------
// Truncation error paths (no injection needed).
// ---------------------------------------------------------------------------

void run2(const std::function<void(int)>& fn) {
  lci::sim::spawn(2, [&](int rank) {
    lci::runtime_attr_t attr;
    attr.matching_engine_buckets = 256;
    lci::g_runtime_init(attr);
    fn(rank);
    lci::barrier();
    lci::g_runtime_fina();
  });
}

TEST(Truncation, EagerRecvBufferTooSmallCompletesWithError) {
  run2([](int rank) {
    if (rank == 1) {
      std::vector<char> out(512, 'x');
      send_blocking(0, out.data(), out.size(), 5);  // sender unaffected
      return;
    }
    char tiny[8] = {0};
    const lci::status_t rs = recv_blocking(1, tiny, sizeof(tiny), 5);
    EXPECT_EQ(rs.error.code, lci::errorcode_t::fatal_truncated);
    EXPECT_TRUE(rs.error.is_fatal());
    EXPECT_EQ(rs.buffer.size, 512u);  // the size that did not fit
    const lci::counters_t c = lci::get_counters();
    EXPECT_GE(c.comp_fatal, 1u);
  });
}

TEST(Truncation, EagerBufferListTooSmallCompletesWithError) {
  run2([](int rank) {
    if (rank == 1) {
      std::vector<char> out(512, 'y');
      send_blocking(0, out.data(), out.size(), 6);
      return;
    }
    char a[4], b[4];
    lci::buffers_t list;
    list.list = {{a, sizeof(a)}, {b, sizeof(b)}};
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t rs =
        lci::post_recv_x(1, nullptr, 0, 6, sync).buffers(list)();
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    EXPECT_EQ(rs.error.code, lci::errorcode_t::fatal_truncated);
    lci::free_comp(&sync);
  });
}

TEST(Truncation, RendezvousRefusalFailsBothSidesExactlyOnce) {
  run2([](int rank) {
    constexpr std::size_t send_size = 16384;  // rendezvous
    constexpr std::size_t recv_size = 1024;   // too small: receiver refuses
    if (rank == 1) {
      std::vector<char> out(send_size, 'z');
      lci::comp_t sync = lci::alloc_sync(1);
      lci::status_t ss;
      do {
        ss = lci::post_send(0, out.data(), out.size(), 7, sync);
        lci::progress();
      } while (ss.error.is_retry());
      ASSERT_TRUE(ss.error.is_posted());  // the RTS went out
      // The receiver's NACK must fail this send — not hang it forever.
      lci::sync_wait(sync, &ss);
      EXPECT_EQ(ss.error.code, lci::errorcode_t::fatal_truncated);
      EXPECT_EQ(ss.rank, 0);
      lci::free_comp(&sync);
    } else {
      std::vector<char> in(recv_size, 0);
      const lci::status_t rs = recv_blocking(1, in.data(), in.size(), 7);
      EXPECT_EQ(rs.error.code, lci::errorcode_t::fatal_truncated);
      EXPECT_EQ(rs.buffer.size, send_size);
    }
    const lci::counters_t c = lci::get_counters();
    EXPECT_EQ(c.comp_fatal, 1u);  // exactly once on each side
  });
}

}  // namespace
