// post_comm semantics tests (paper Sec. 3.2.4/3.2.5, Table 1): the protocol
// sweep across inject / buffer-copy / rendezvous, matching policies,
// done/posted/retry/backlog conventions, buffer lists, RMA, and library
// composition with multiple runtimes.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "core/lci.hpp"

namespace {

void run2(const std::function<void(int)>& fn, lci::runtime_attr_t attr = {}) {
  if (attr.matching_engine_buckets == 65536)
    attr.matching_engine_buckets = 1024;
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(attr);
    fn(rank);
    lci::barrier();
    lci::g_runtime_fina();
  });
}

// Blocking helpers for test brevity.
void send_blocking(int peer, void* buf, std::size_t n, lci::tag_t tag) {
  lci::comp_t sync = lci::alloc_sync(1);
  lci::status_t s;
  do {
    s = lci::post_send(peer, buf, n, tag, sync);
    lci::progress();
  } while (s.error.is_retry());
  if (s.error.is_posted()) lci::sync_wait(sync, nullptr);
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

// ---------------------------------------------------------------------------
// Protocol sweep: message sizes crossing the inject (<=64B), buffer-copy
// (<= packet payload), and rendezvous (beyond) protocol boundaries.
// ---------------------------------------------------------------------------
class ProtocolSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProtocolSizes, SendRecvRoundTrip) {
  const std::size_t size = GetParam();
  run2([&](int rank) {
    const int peer = 1 - rank;
    std::vector<char> out(size);
    for (std::size_t i = 0; i < size; ++i)
      out[i] = static_cast<char>((i * 31 + static_cast<std::size_t>(rank)) &
                                 0xff);
    std::vector<char> in(size, 0);
    // Symmetric exchange: post recv first, then send.
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t rs = lci::post_recv(peer, in.data(), size, 3, sync);
    send_blocking(peer, out.data(), size, 3);
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    ASSERT_TRUE(rs.error.is_done());
    EXPECT_EQ(rs.buffer.size, size);
    EXPECT_EQ(rs.rank, peer);
    for (std::size_t i = 0; i < size; ++i)
      ASSERT_EQ(in[i], static_cast<char>((i * 31 +
                                          static_cast<std::size_t>(peer)) &
                                         0xff))
          << "at byte " << i;
    lci::free_comp(&sync);
  });
}

TEST_P(ProtocolSizes, ActiveMessageRoundTrip) {
  const std::size_t size = GetParam();
  run2([&](int rank) {
    const int peer = 1 - rank;
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::barrier();

    std::vector<char> out(size);
    for (std::size_t i = 0; i < size; ++i)
      out[i] = static_cast<char>((i + static_cast<std::size_t>(rank) * 3) &
                                 0xff);
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t ss;
    do {
      ss = lci::post_am_x(peer, out.data(), size, sync, rcomp).tag(6)();
      lci::progress();
    } while (ss.error.is_retry());
    if (ss.error.is_posted()) lci::sync_wait(sync, nullptr);

    lci::status_t arrival;
    do {
      lci::progress();
      arrival = lci::cq_pop(rcq);
    } while (!arrival.error.is_done());
    EXPECT_EQ(arrival.buffer.size, size);
    EXPECT_EQ(arrival.rank, peer);
    EXPECT_EQ(arrival.tag, 6u);
    const char* data = static_cast<const char*>(arrival.buffer.base);
    for (std::size_t i = 0; i < size; ++i)
      ASSERT_EQ(data[i],
                static_cast<char>((i + static_cast<std::size_t>(peer) * 3) &
                                  0xff));
    std::free(arrival.buffer.base);
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::free_comp(&sync);
  });
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, ProtocolSizes,
    // 1B..64B: inject (an AM of at most 16B rides in its CQ entry);
    // 65B..4080B: buffer-copy; beyond: rendezvous.
    ::testing::Values(1, 8, 16, 17, 64, 65, 1024, 4080, 4081, 16384, 262144),
    [](const auto& info) { return "bytes" + std::to_string(info.param); });

// ---------------------------------------------------------------------------
// Registration cache: a receive posted at an interior pointer of a previously
// cached registration is served by the covering MR, and the RTR must carry
// the buffer's offset inside it — without the offset the sender's RDMA write
// lands at the cached entry's base instead of the posted buffer (regression).
// ---------------------------------------------------------------------------

TEST(RegCache, InteriorPointerRendezvousLandsAtPostedBuffer) {
  lci::runtime_attr_t attr;
  attr.reg_cache_entries = 64;
  run2(
      [&](int rank) {
        const int peer = 1 - rank;
        const std::size_t chunk = 64 * 1024;  // rendezvous-sized
        const std::size_t parts = 4;
        if (rank == 0) {
          std::vector<char> arena(parts * chunk, 0);
          // Prime the cache: one transfer spanning the whole arena leaves its
          // registration resident.
          lci::status_t rs =
              recv_blocking(peer, arena.data(), arena.size(), 1);
          ASSERT_TRUE(rs.error.is_done());
          const uint64_t hits_before = lci::get_counters().reg_cache_hits;
          for (std::size_t k = 1; k < parts; ++k) {
            std::fill(arena.begin(), arena.end(), 0);
            lci::status_t is =
                recv_blocking(peer, arena.data() + k * chunk, chunk,
                              static_cast<lci::tag_t>(1 + k));
            ASSERT_TRUE(is.error.is_done());
            for (std::size_t i = 0; i < chunk; ++i)
              ASSERT_EQ(arena[k * chunk + i],
                        static_cast<char>((i * 13 + k) & 0xff))
                  << "part " << k << " byte " << i;
            // Nothing may land at the MR base (where the payload went when
            // the RTR dropped the offset).
            for (std::size_t i = 0; i < chunk; ++i)
              ASSERT_EQ(arena[i], 0) << "corruption at arena base, byte " << i;
          }
          // Every interior receive must have been a covering-interval hit.
          EXPECT_GE(lci::get_counters().reg_cache_hits - hits_before,
                    parts - 1);
        } else {
          std::vector<char> whole(parts * chunk);
          for (std::size_t i = 0; i < whole.size(); ++i)
            whole[i] = static_cast<char>(i & 0xff);
          send_blocking(peer, whole.data(), whole.size(), 1);
          for (std::size_t k = 1; k < parts; ++k) {
            std::vector<char> out(chunk);
            for (std::size_t i = 0; i < chunk; ++i)
              out[i] = static_cast<char>((i * 13 + k) & 0xff);
            send_blocking(peer, out.data(), chunk,
                          static_cast<lci::tag_t>(1 + k));
          }
        }
      },
      attr);
}

// ---------------------------------------------------------------------------
// Matching policies (Sec. 3.3.2)
// ---------------------------------------------------------------------------

TEST(MatchingPolicy, RankOnlyIgnoresTags) {
  run2([&](int rank) {
    const int peer = 1 - rank;
    int out = rank, in = -1;
    lci::comp_t sync = lci::alloc_sync(1);
    // Receive with rank_only, tag 111; send with rank_only, tag 999.
    lci::status_t rs = lci::post_recv_x(peer, &in, sizeof(in), 111, sync)
                           .matching_policy(lci::matching_policy_t::rank_only)();
    lci::status_t ss;
    do {
      ss = lci::post_send_x(peer, &out, sizeof(out), 999, {})
               .matching_policy(lci::matching_policy_t::rank_only)();
      lci::progress();
    } while (ss.error.is_retry());
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    EXPECT_EQ(in, peer);
    lci::free_comp(&sync);
  });
}

TEST(MatchingPolicy, TagOnlyIsAnySource) {
  run2([&](int rank) {
    const int peer = 1 - rank;
    int out = 100 + rank, in = -1;
    lci::comp_t sync = lci::alloc_sync(1);
    // The receive names the peer but the key ignores rank: any source with
    // tag 7 matches.
    lci::status_t rs = lci::post_recv_x(peer, &in, sizeof(in), 7, sync)
                           .matching_policy(lci::matching_policy_t::tag_only)();
    lci::status_t ss;
    do {
      ss = lci::post_send_x(peer, &out, sizeof(out), 7, {})
               .matching_policy(lci::matching_policy_t::tag_only)();
      lci::progress();
    } while (ss.error.is_retry());
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    EXPECT_EQ(in, 100 + peer);
    EXPECT_EQ(rs.rank, peer);  // the actual source is reported
    lci::free_comp(&sync);
  });
}

TEST(MatchingPolicy, DifferentPoliciesDoNotCross) {
  run2([&](int rank) {
    // One-directional to avoid cross-rank timing races: rank 1 sends, rank 0
    // receives with both an exact (rank_tag) and a wildcard (rank_only)
    // posted. A rank_only send must match only the wildcard receive.
    if (rank == 1) {
      int out = 1;
      lci::status_t ss;
      do {
        ss = lci::post_send_x(0, &out, sizeof(out), 5, {})
                 .matching_policy(lci::matching_policy_t::rank_only)();
        lci::progress();
      } while (ss.error.is_retry());
      // Wait for rank 0's acknowledgment, then satisfy the exact receive.
      char ack;
      recv_blocking(0, &ack, 1, 77);
      out = 2;
      do {
        ss = lci::post_send(0, &out, sizeof(out), 5, {});
        lci::progress();
      } while (ss.error.is_retry());
      return;
    }
    int in_wild = -1, in_exact = -1;
    lci::comp_t sync_exact = lci::alloc_sync(1);
    lci::comp_t sync_wild = lci::alloc_sync(1);
    lci::status_t r_exact =
        lci::post_recv(1, &in_exact, sizeof(int), 5, sync_exact);
    lci::status_t r_wild =
        lci::post_recv_x(1, &in_wild, sizeof(int), 5, sync_wild)
            .matching_policy(lci::matching_policy_t::rank_only)();
    if (r_wild.error.is_posted()) lci::sync_wait(sync_wild, &r_wild);
    EXPECT_EQ(in_wild, 1);
    EXPECT_EQ(in_exact, -1);  // the rank_only send did not cross policies
    char ack = 'k';
    send_blocking(1, &ack, 1, 77);
    if (r_exact.error.is_posted()) lci::sync_wait(sync_exact, nullptr);
    EXPECT_EQ(in_exact, 2);
    lci::free_comp(&sync_exact);
    lci::free_comp(&sync_wild);
  });
}

// ---------------------------------------------------------------------------
// Truncation on arrival: rank 0's packets (8 KiB) are larger than rank 1's
// (1 KiB), so a 3000 B buffer-copy message fits the sender's eager protocol
// but not the packet that receives it. Its operation completes with
// fatal_truncated exactly once — never done with partial bytes — whether
// the receive was posted before the message arrived, after it, or is an
// active message's rcomp.
// ---------------------------------------------------------------------------
TEST(Truncation, EagerLongerThanReceiverPacketFailsOnce) {
  constexpr std::size_t size = 3000;
  lci::sim::spawn(2, [&](int rank) {
    lci::runtime_attr_t attr;
    attr.packet_size = rank == 0 ? 8192 : 1024;
    lci::g_runtime_init(attr);
    lci::comp_t rcq = lci::alloc_cq();
    const lci::rcomp_t rcomp = lci::register_rcomp(rcq);
    lci::comp_t cq = lci::alloc_cq();
    std::vector<char> early(4000, 0);
    if (rank == 1) {
      EXPECT_TRUE(lci::post_recv(0, early.data(), early.size(), 1, cq)
                      .error.is_posted());
    }
    lci::barrier();
    if (rank == 0) {
      // One shard carries all three in order, so the AM's arrival implies
      // the unexpected send's.
      lci::pin_thread_shard(0);
      std::vector<char> out(size, 'x');
      const auto until_done = [](const auto& post) {
        lci::status_t st;
        do {
          st = post();
          lci::progress();
        } while (st.error.is_retry());
        EXPECT_TRUE(st.error.is_done());  // eager: the copy is made
      };
      until_done([&] { return lci::post_send(1, out.data(), size, 1, {}); });
      until_done([&] { return lci::post_send(1, out.data(), size, 2, {}); });
      until_done([&] {
        return lci::post_am_x(1, out.data(), size, {}, rcomp).tag(3)();
      });
      lci::pin_thread_shard(-1);
    } else {
      const auto pop = [](lci::comp_t from) {
        lci::status_t st;
        do {
          lci::progress();
          st = lci::cq_pop(from);
        } while (st.error.is_retry());
        return st;
      };
      // Posted before arrival: matched in the progress engine.
      lci::status_t st = pop(cq);
      EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_truncated);
      EXPECT_EQ(st.rank, 0);
      EXPECT_EQ(st.tag, 1u);
      EXPECT_EQ(st.buffer.size, size);
      EXPECT_EQ(early[0], 0);  // nothing was delivered
      // The active message: its rcomp sees the failure.
      st = pop(rcq);
      EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_truncated);
      EXPECT_EQ(st.tag, 3u);
      EXPECT_EQ(st.buffer.base, nullptr);
      // Posted after arrival: the retained packet fails the receive inline.
      std::vector<char> late(4000, 0);
      st = lci::post_recv(0, late.data(), late.size(), 2, cq);
      EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_truncated);
      EXPECT_EQ(st.buffer.size, size);
      // Exactly once: nothing else surfaces.
      for (int i = 0; i < 50; ++i) {
        lci::progress();
        EXPECT_TRUE(lci::cq_pop(cq).error.is_retry());
        EXPECT_TRUE(lci::cq_pop(rcq).error.is_retry());
      }
      EXPECT_EQ(lci::get_counters().comp_fatal, 3u);
    }
    lci::barrier();
    lci::deregister_rcomp(rcomp);
    lci::free_comp(&rcq);
    lci::free_comp(&cq);
    lci::g_runtime_fina();
  });
}

// ---------------------------------------------------------------------------
// Return-value conventions
// ---------------------------------------------------------------------------

TEST(ReturnValues, EagerSendCompletesImmediately) {
  run2([&](int rank) {
    const int peer = 1 - rank;
    char byte = 'x';
    char in = 0;
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t rs = lci::post_recv(peer, &in, 1, 2, sync);
    lci::status_t ss;
    do {
      ss = lci::post_send(peer, &byte, 1, 2, {});
      lci::progress();
    } while (ss.error.is_retry());
    // Inject-size send: done, with a valid status.
    EXPECT_TRUE(ss.error.is_done());
    EXPECT_EQ(ss.rank, peer);
    EXPECT_EQ(ss.tag, 2u);
    if (rs.error.is_posted()) lci::sync_wait(sync, nullptr);
    lci::free_comp(&sync);
  });
}

TEST(ReturnValues, AllowDoneFalseForcesSignal) {
  run2([&](int rank) {
    const int peer = 1 - rank;
    char byte = 'y';
    char in = 0;
    lci::comp_t rsync = lci::alloc_sync(1);
    lci::status_t rs = lci::post_recv(peer, &in, 1, 3, rsync);
    lci::comp_t ssync = lci::alloc_sync(1);
    lci::status_t ss;
    do {
      ss = lci::post_send_x(peer, &byte, 1, 3, ssync).allow_done(false)();
      lci::progress();
    } while (ss.error.is_retry());
    EXPECT_TRUE(ss.error.is_posted());  // done was forbidden
    lci::status_t signaled;
    lci::sync_wait(ssync, &signaled);
    EXPECT_TRUE(signaled.error.is_done());
    EXPECT_EQ(signaled.tag, 3u);
    if (rs.error.is_posted()) lci::sync_wait(rsync, nullptr);
    lci::free_comp(&rsync);
    lci::free_comp(&ssync);
  });
}

TEST(ReturnValues, UserContextTravels) {
  run2([&](int rank) {
    const int peer = 1 - rank;
    int marker = 1234;
    char in = 0, out = 'z';
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t rs = lci::post_recv_x(peer, &in, 1, 4, sync)
                           .user_context(&marker)();
    send_blocking(peer, &out, 1, 4);
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    EXPECT_EQ(rs.user_context, &marker);
    lci::free_comp(&sync);
  });
}

TEST(ReturnValues, FatalErrorsThrow) {
  run2([&](int rank) {
    char buf[8];
    // Rank out of range.
    EXPECT_THROW(lci::post_send(99, buf, sizeof(buf), 0, {}),
                 lci::fatal_error_t);
    EXPECT_THROW(lci::post_send(-1, buf, sizeof(buf), 0, {}),
                 lci::fatal_error_t);
    // Table 1's invalid combination.
    EXPECT_THROW(lci::post_comm_x(1 - rank, buf, sizeof(buf), {})
                     .direction(lci::direction_t::in)
                     .remote_comp(0)(),
                 lci::fatal_error_t);
  });
}

// allow_retry=false: the operation lands on the backlog queue and completes
// through the completion object; the user buffer is immediately reusable for
// eager-size payloads (*_backlog status). A shallow wire (fabric flow
// control) forces the retry path deterministically, as long as the peer is
// not draining it: a rank already polling in sync_wait empties the wire as
// fast as a slow (sanitized, oversubscribed) sender fills it. So neither
// rank polls until both bursts are posted; they meet outside LCI.
TEST(Backlog, AllowRetryFalseCompletesEventually) {
  lci::net::config_t net_config;
  net_config.wire_depth = 4;  // back-pressure after a handful of messages
  std::atomic<int> bursts_posted{0};
  lci::sim::spawn(
      2,
      [&](int rank) {
        lci::runtime_attr_t attr;
        attr.matching_engine_buckets = 256;
        lci::g_runtime_init(attr);
        const int peer = 1 - rank;
        constexpr int count = 32;
        constexpr std::size_t size = 512;  // buffer-copy path
        std::vector<std::vector<char>> in(count,
                                          std::vector<char>(size, 0));
        std::vector<char> out(size, static_cast<char>('A' + rank));
        lci::comp_t rsync = lci::alloc_sync(count);
        lci::comp_t scq = lci::alloc_cq();
        for (int i = 0; i < count; ++i) {
          (void)lci::post_recv_x(peer, in[static_cast<std::size_t>(i)].data(),
                                 size, 8, rsync)
              .allow_done(false)();
        }
        // Burst of sends: the shallow wire back-pressures; allow_retry=false
        // must absorb every retry into the backlog.
        int signals_owed = 0, backlogged = 0;
        for (int i = 0; i < count; ++i) {
          lci::status_t ss = lci::post_send_x(peer, out.data(), size, 8, scq)
                                 .allow_retry(false)();
          ASSERT_FALSE(ss.error.is_retry());
          if (ss.error.code == lci::errorcode_t::posted_backlog) {
            ++backlogged;
            ++signals_owed;
          } else if (ss.error.is_posted()) {
            ++signals_owed;
          }
        }
        EXPECT_GT(backlogged, 0);  // the wire really did push back
        bursts_posted.fetch_add(1, std::memory_order_acq_rel);
        while (bursts_posted.load(std::memory_order_acquire) < 2)
          std::this_thread::yield();
        // Drain: all receives complete, all owed send signals arrive.
        lci::sync_wait(rsync, nullptr);
        while (signals_owed > 0) {
          lci::progress();
          if (lci::cq_pop(scq).error.is_done()) --signals_owed;
        }
        for (const auto& buf : in)
          EXPECT_EQ(buf[0], static_cast<char>('A' + peer));
        lci::barrier();
        lci::free_comp(&rsync);
        lci::free_comp(&scq);
        lci::g_runtime_fina();
      },
      net_config);
}

// ---------------------------------------------------------------------------
// Buffer lists (Sec. 3.3.1)
// ---------------------------------------------------------------------------

class BufferLists : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BufferLists, GatherScatter) {
  const std::size_t chunk = GetParam();
  run2([&](int rank) {
    const int peer = 1 - rank;
    // Three source chunks gather into one message; three destination chunks
    // scatter it back apart.
    std::vector<char> src1(chunk), src2(chunk / 2 + 1), src3(chunk * 2);
    auto fill = [&](std::vector<char>& v, int salt) {
      for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<char>((i + static_cast<std::size_t>(salt) +
                                  static_cast<std::size_t>(rank)) &
                                 0xff);
    };
    fill(src1, 1);
    fill(src2, 2);
    fill(src3, 3);
    lci::buffers_t out;
    out.list = {{src1.data(), src1.size()},
                {src2.data(), src2.size()},
                {src3.data(), src3.size()}};
    const std::size_t total = out.total_size();

    std::vector<char> dst1(chunk), dst2(chunk / 2 + 1), dst3(chunk * 2);
    lci::buffers_t in;
    in.list = {{dst1.data(), dst1.size()},
               {dst2.data(), dst2.size()},
               {dst3.data(), dst3.size()}};

    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t rs =
        lci::post_recv_x(peer, nullptr, 0, 9, sync).buffers(in)();
    lci::comp_t ssync = lci::alloc_sync(1);
    lci::status_t ss;
    do {
      ss = lci::post_send_x(peer, nullptr, 0, 9, ssync).buffers(out)();
      lci::progress();
    } while (ss.error.is_retry());
    if (ss.error.is_posted()) lci::sync_wait(ssync, nullptr);
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    EXPECT_EQ(rs.buffer.size, total);

    auto check = [&](const std::vector<char>& got, int salt) {
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i],
                  static_cast<char>((i + static_cast<std::size_t>(salt) +
                                     static_cast<std::size_t>(peer)) &
                                    0xff));
    };
    check(dst1, 1);
    check(dst2, 2);
    check(dst3, 3);
    lci::free_comp(&sync);
    lci::free_comp(&ssync);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, BufferLists,
                         ::testing::Values(16,    // gathers to inject size
                                           600,   // buffer-copy
                                           4000), // rendezvous (total > 4KB)
                         [](const auto& info) {
                           return "chunk" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Library composition: multiple runtimes on one rank stay isolated.
// ---------------------------------------------------------------------------

TEST(Runtimes, TwoRuntimesDoNotInterfere) {
  run2([&](int rank) {
    const int peer = 1 - rank;
    lci::runtime_attr_t attr;
    attr.matching_engine_buckets = 256;
    lci::runtime_t second = lci::alloc_runtime(attr);

    // Same tag on both runtimes; each message must stay within its runtime.
    int out_a = 10 + rank, out_b = 20 + rank;
    int in_a = -1, in_b = -1;
    lci::comp_t sync_a = lci::alloc_sync(1);
    lci::comp_t sync_b = lci::alloc_sync(1, second);
    lci::status_t ra = lci::post_recv(peer, &in_a, sizeof(int), 1, sync_a);
    lci::status_t rb = lci::post_recv_x(peer, &in_b, sizeof(int), 1, sync_b)
                           .runtime(second)();
    lci::status_t sa, sb;
    do {
      sa = lci::post_send(peer, &out_a, sizeof(int), 1, {});
      lci::progress();
    } while (sa.error.is_retry());
    do {
      sb = lci::post_send_x(peer, &out_b, sizeof(int), 1, {}).runtime(second)();
      lci::progress_x().runtime(second)();
    } while (sb.error.is_retry());

    bool done_a = !ra.error.is_posted();
    bool done_b = !rb.error.is_posted();
    while (!done_a || !done_b) {
      lci::progress();
      lci::progress_x().runtime(second)();
      if (!done_a && lci::sync_test(sync_a, nullptr)) done_a = true;
      if (!done_b && lci::sync_test(sync_b, nullptr)) done_b = true;
    }
    EXPECT_EQ(in_a, 10 + peer);
    EXPECT_EQ(in_b, 20 + peer);

    // Quiesce the second runtime on both ranks before freeing it.
    lci::barrier();
    lci::free_comp(&sync_a);
    lci::free_comp(&sync_b);
    lci::free_runtime(&second);
  });
}

// ---------------------------------------------------------------------------
// User-allocated matching engines (engine ids agree across ranks).
// ---------------------------------------------------------------------------

TEST(MatchingEngineArg, SeparateDomains) {
  run2([&](int rank) {
    const int peer = 1 - rank;
    lci::matching_engine_t engine = lci::alloc_matching_engine({}, 128);
    lci::barrier();  // both ranks allocated engine id 2

    // Same tag through the default engine and the custom engine; messages
    // must not cross domains.
    int out_d = 1 + rank, out_c = 100 + rank, in_d = -1, in_c = -1;
    lci::comp_t sync_d = lci::alloc_sync(1);
    lci::comp_t sync_c = lci::alloc_sync(1);
    lci::status_t rd = lci::post_recv(peer, &in_d, sizeof(int), 6, sync_d);
    lci::status_t rc = lci::post_recv_x(peer, &in_c, sizeof(int), 6, sync_c)
                           .matching_engine(engine)();
    lci::status_t s;
    do {
      s = lci::post_send_x(peer, &out_c, sizeof(int), 6, {})
              .matching_engine(engine)();
      lci::progress();
    } while (s.error.is_retry());
    do {
      s = lci::post_send(peer, &out_d, sizeof(int), 6, {});
      lci::progress();
    } while (s.error.is_retry());
    if (rd.error.is_posted()) lci::sync_wait(sync_d, nullptr);
    if (rc.error.is_posted()) lci::sync_wait(sync_c, nullptr);
    EXPECT_EQ(in_d, 1 + peer);
    EXPECT_EQ(in_c, 100 + peer);
    lci::barrier();
    lci::free_comp(&sync_d);
    lci::free_comp(&sync_c);
    lci::free_matching_engine(&engine);
  });
}

}  // namespace
