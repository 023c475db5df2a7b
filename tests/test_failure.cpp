// Failure-lifecycle tests (docs/INTERNALS.md "Failure propagation & drain"):
//  * cancel(): a parked receive completes exactly once with fatal_canceled;
//    cancel after completion refuses,
//  * deadlines: an expired .deadline(us) completes the operation exactly once
//    with fatal_timeout; a completed operation never times out retroactively,
//  * peer death: a seeded mid-traffic kill of rank 1 (2/4/8 ranks, eager and
//    rendezvous sizes, worker-polled and auto-progress modes) completes every
//    operation naming the dead rank exactly once with fatal_peer_down — no
//    hangs, no double completions,
//  * kill_peer(): the runtime hook behaves like the schedule, and posts
//    naming a dead rank fail fast with a returned (not thrown) fatal status,
//  * drain(): force-cancels parked tracked operations and reports the count,
//    and returns at once when nothing is live (right after a barrier).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

#include "core/lci.hpp"
#include "core/runtime_impl.hpp"

namespace {

lci::runtime_attr_t small_attr() {
  lci::runtime_attr_t attr;
  attr.matching_engine_buckets = 256;
  return attr;
}

// ---------------------------------------------------------------------------
// cancel()
// ---------------------------------------------------------------------------

TEST(Cancel, ParkedRecvCompletesExactlyOnceWithFatalCanceled) {
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init(small_attr());
    if (rank == 0) {
      char buf[64];
      lci::comp_t sync = lci::alloc_sync(1);
      lci::op_t op;
      const lci::status_t rs =
          lci::post_recv_x(1, buf, sizeof(buf), 77, sync).op_handle(&op)();
      ASSERT_TRUE(rs.error.is_posted());
      ASSERT_TRUE(op.is_valid());
      EXPECT_TRUE(lci::cancel(op));
      lci::status_t done;
      ASSERT_TRUE(lci::sync_test(sync, &done));  // signaled synchronously
      EXPECT_EQ(done.error.code, lci::errorcode_t::fatal_canceled);
      EXPECT_EQ(done.rank, 1);
      EXPECT_EQ(done.tag, 77u);
      // Exactly once: the same handle cannot be canceled again.
      EXPECT_FALSE(lci::cancel(op));
      const lci::counters_t c = lci::get_counters();
      EXPECT_EQ(c.ops_canceled, 1u);
      EXPECT_EQ(c.comp_fatal, 1u);
      lci::free_comp(&sync);
    }
    lci::g_runtime_fina();
  });
}

TEST(Cancel, CompletedRecvRefusesCancel) {
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init(small_attr());
    const int peer = 1 - rank;
    char in[8] = {0}, out[8] = {'h', 'i'};
    lci::comp_t sync = lci::alloc_sync(1);
    lci::op_t op;
    lci::status_t rs =
        lci::post_recv_x(peer, in, sizeof(in), 3, sync).op_handle(&op)();
    lci::status_t ss;
    do {
      ss = lci::post_send(peer, out, sizeof(out), 3, {});
      lci::progress();
    } while (ss.error.is_retry());
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    ASSERT_TRUE(rs.error.is_done());
    // The receive already completed: the runtime no longer owns it.
    if (op.is_valid()) {
      EXPECT_FALSE(lci::cancel(op));
    }
    EXPECT_EQ(lci::get_counters().ops_canceled, 0u);
    lci::barrier();
    lci::free_comp(&sync);
    lci::g_runtime_fina();
  });
}

TEST(Cancel, InvalidHandleRefuses) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(small_attr());
    lci::op_t op;  // never filled
    EXPECT_FALSE(lci::cancel(op));
    lci::g_runtime_fina();
  });
}

// ---------------------------------------------------------------------------
// deadlines
// ---------------------------------------------------------------------------

TEST(Deadline, ExpiredRecvCompletesExactlyOnceWithFatalTimeout) {
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init(small_attr());
    if (rank == 0) {
      char buf[64];
      lci::comp_t sync = lci::alloc_sync(1);
      lci::op_t op;
      const lci::status_t rs = lci::post_recv_x(1, buf, sizeof(buf), 5, sync)
                                   .deadline(2000)  // 2 ms; nobody sends
                                   .op_handle(&op)();
      ASSERT_TRUE(rs.error.is_posted());
      lci::status_t done;
      lci::sync_wait(sync, &done);  // progress drives the deadline sweep
      EXPECT_EQ(done.error.code, lci::errorcode_t::fatal_timeout);
      EXPECT_EQ(done.rank, 1);
      // Exactly once: the handle is spent, extra progress changes nothing.
      EXPECT_FALSE(lci::cancel(op));
      for (int i = 0; i < 50; ++i) lci::progress();
      const lci::counters_t c = lci::get_counters();
      EXPECT_EQ(c.ops_timed_out, 1u);
      EXPECT_EQ(c.comp_fatal, 1u);
      lci::free_comp(&sync);
    }
    lci::g_runtime_fina();
  });
}

TEST(Deadline, CompletedRecvNeverTimesOutRetroactively) {
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init(small_attr());
    const int peer = 1 - rank;
    char in[8] = {0}, out[8] = {'o', 'k'};
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t rs = lci::post_recv_x(peer, in, sizeof(in), 6, sync)
                           .deadline(50 * 1000)();  // generous: 50 ms
    lci::status_t ss;
    do {
      ss = lci::post_send(peer, out, sizeof(out), 6, {});
      lci::progress();
    } while (ss.error.is_retry());
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    if (rs.error.is_done()) {
      // Outlive the deadline, keep progressing: no late fatal completion.
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      for (int i = 0; i < 100; ++i) lci::progress();
      const lci::counters_t c = lci::get_counters();
      EXPECT_EQ(c.ops_timed_out, 0u);
      EXPECT_EQ(c.comp_fatal, 0u);
    } else {
      // On an oversubscribed host the 50 ms can legitimately elapse before
      // the peer's send lands. The retroactivity property isn't exercised
      // this run, but the timeout must still be a clean exactly-once
      // delivery — and this rank must reach the barrier either way (an
      // early return here would hang the peer for the full ctest timeout).
      EXPECT_EQ(rs.error.code, lci::errorcode_t::fatal_timeout);
      const lci::counters_t c = lci::get_counters();
      EXPECT_EQ(c.ops_timed_out, 1u);
      EXPECT_EQ(c.comp_fatal, 1u);
    }
    lci::barrier();
    lci::free_comp(&sync);
    lci::g_runtime_fina();
  });
}

// ---------------------------------------------------------------------------
// kill_peer() + fast-fail posts
// ---------------------------------------------------------------------------

TEST(PeerDeath, KillPeerHookFailsParkedAndFuturePosts) {
  std::atomic<int> finished{0};
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(small_attr());
    if (rank == 0) {
      char buf[64];
      lci::comp_t cq = lci::alloc_cq();
      // Parked receive naming rank 1 (queued in the matching engine).
      const lci::status_t rs =
          lci::post_recv_x(1, buf, sizeof(buf), 9, cq).allow_done(false)();
      ASSERT_TRUE(rs.error.is_posted());

      EXPECT_TRUE(lci::kill_peer(1));
      EXPECT_FALSE(lci::kill_peer(1));  // already dead

      // The purge completes the parked receive with fatal_peer_down.
      lci::status_t st;
      do {
        lci::progress();
        st = lci::cq_pop(cq);
      } while (st.error.is_retry());
      EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_peer_down);
      EXPECT_EQ(st.rank, 1);

      // Fast-fail: posts naming the dead rank return (not throw) fatal.
      const lci::status_t dead_recv =
          lci::post_recv(1, buf, sizeof(buf), 10, {});
      EXPECT_EQ(dead_recv.error.code, lci::errorcode_t::fatal_peer_down);
      char byte = 'x';
      const lci::status_t dead_send = lci::post_send(1, &byte, 1, 10, {});
      EXPECT_EQ(dead_send.error.code, lci::errorcode_t::fatal_peer_down);

      const lci::counters_t c = lci::get_counters();
      EXPECT_GE(c.peer_down_completions, 1u);

      // Dead peers are reported through the device attributes.
      const lci::device_attr_t attr = lci::get_attr(lci::device_t{});
      ASSERT_EQ(attr.dead_peers.size(), 1u);
      EXPECT_EQ(attr.dead_peers[0], 1);
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

// A dead rank's own receives can never complete, whoever they name: once
// the self-death purge has run, a new receive — naming a live peer or
// wildcarding the rank — must fail fast instead of parking forever.
TEST(PeerDeath, DeadRankFailsItsOwnReceives) {
  std::atomic<int> finished{0};
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(small_attr());
    if (rank == 0) {
      EXPECT_TRUE(lci::kill_peer(0));
      lci::progress();  // runs the self-death purge
      char buf[64];
      const lci::status_t named = lci::post_recv(1, buf, sizeof(buf), 3, {});
      EXPECT_EQ(named.error.code, lci::errorcode_t::fatal_peer_down);
      const lci::status_t wildcard =
          lci::post_recv_x(1, buf, sizeof(buf), 4, lci::comp_t{})
              .matching_policy(lci::matching_policy_t::tag_only)();
      EXPECT_EQ(wildcard.error.code, lci::errorcode_t::fatal_peer_down);
    }
    finished.fetch_add(1, std::memory_order_release);
    while (finished.load(std::memory_order_acquire) < 2) {
      lci::progress();
      std::this_thread::yield();
    }
    lci::g_runtime_fina();
  });
}

// Aggregation + kill_peer(): sub-operations buffered in an aggregation slot
// for a peer that dies before any flush must each surface exactly once with
// fatal_peer_down. The owed-pop audit (drain the queue, then keep polling)
// proves none are lost and none are delivered twice.
TEST(PeerDeath, FlushToDeadPeerFailsBufferedSubOpsOnce) {
  std::atomic<int> finished{0};
  lci::sim::spawn(2, [&](int rank) {
    lci::runtime_attr_t attr = small_attr();
    attr.allow_aggregation = true;
    attr.aggregation_flush_us = 1000000;  // no age flush: only the purge
    lci::g_runtime_init(attr);
    if (rank == 0) {
      constexpr int buffered = 6;
      lci::comp_t cq = lci::alloc_cq();
      char bufs[buffered][16];
      const lci::counters_t base = lci::get_counters();
      for (int i = 0; i < buffered; ++i) {
        std::memset(bufs[i], 'a' + i, sizeof(bufs[i]));
        lci::status_t ss;
        do {
          // The sends must park in the slot until kill_peer(): opt in per
          // post, or the single-poster bypass would post them immediately
          // and nothing would be buffered.
          ss = lci::post_send_x(1, bufs[i], sizeof(bufs[i]),
                                static_cast<lci::tag_t>(i), cq)
                   .allow_done(false)
                   .allow_aggregation(true)();
          if (ss.error.is_retry()) lci::progress();
        } while (ss.error.is_retry());
        ASSERT_TRUE(ss.error.is_posted());
      }
      EXPECT_EQ(lci::get_counters().send_coalesced - base.send_coalesced,
                static_cast<uint64_t>(buffered));

      EXPECT_TRUE(lci::kill_peer(1));

      // The purge force-fails the buffered slot: every parked sub-op comes
      // back through its own queue with fatal_peer_down.
      int fatal = 0;
      while (fatal < buffered) {
        lci::progress();
        const lci::status_t st = lci::cq_pop(cq);
        if (st.error.is_retry()) continue;
        ASSERT_EQ(st.error.code, lci::errorcode_t::fatal_peer_down);
        EXPECT_EQ(st.rank, 1);
        ++fatal;
      }
      // Owed-pop audit: exactly `buffered` completions, never one more.
      for (int i = 0; i < 50; ++i) {
        lci::progress();
        EXPECT_TRUE(lci::cq_pop(cq).error.is_retry());
      }
      // The slot died with the peer: nothing is left to flush.
      EXPECT_EQ(lci::flush(), 0u);
      const lci::counters_t c = lci::get_counters();
      EXPECT_EQ(c.peer_down_completions - base.peer_down_completions,
                static_cast<uint64_t>(buffered));
      EXPECT_EQ(c.comp_fatal - base.comp_fatal,
                static_cast<uint64_t>(buffered));
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

// The dead-peer purge lets go of the messages a dead peer left unexpected,
// and of the packets they wait in. Rank 1 leaves a plain send, a batch of
// three sends on distinct tags and a rendezvous send in rank 0's matching
// engine, then dies through kill_peer. The purge empties the engine, and
// every packet goes back: rank 0's pool ends where it began.
TEST(PeerDeath, PurgeReturnsThePacketsOfKeptMessages) {
  constexpr std::size_t kept = 5;          // 1 plain + 3 batched + 1 RTS
  constexpr std::size_t rdv_size = 16384;  // past the eager threshold
  std::atomic<int> stage{0};  // 1: rank 0 counted its pool; 2: rank 0 done
  std::atomic<int> finished{0};
  lci::sim::spawn(2, [&](int rank) {
    lci::g_runtime_init(small_attr());
    lci::barrier();
    if (rank == 1) {
      // One shard, so the three batched sends share one slot.
      lci::pin_thread_shard(0);
      while (stage.load(std::memory_order_acquire) < 1) lci::progress();
      char word[8] = "kept";
      while (lci::post_send(0, word, sizeof(word), 1, {}).error.is_retry())
        lci::progress();
      for (lci::tag_t tag = 2; tag <= 4; ++tag) {
        while (lci::post_send_x(0, word, sizeof(word), tag, {})
                   .allow_aggregation(true)()
                   .error.is_retry())
          lci::progress();
      }
      EXPECT_EQ(lci::flush(), 1u);
      std::vector<char> big(rdv_size, 'r');
      lci::comp_t cq = lci::alloc_cq();
      lci::status_t ss;
      while ((ss = lci::post_send(0, big.data(), rdv_size, 5, cq))
                 .error.is_retry())
        lci::progress();
      EXPECT_TRUE(ss.error.is_posted());
      // Rank 0 kills this rank: the handshake can never finish.
      lci::status_t st;
      do {
        lci::progress();
        st = lci::cq_pop(cq);
      } while (st.error.is_retry());
      EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_peer_down);
      while (stage.load(std::memory_order_acquire) < 2) {
        lci::progress();
        std::this_thread::yield();
      }
      lci::free_comp(&cq);
      lci::pin_thread_shard(-1);
    } else {
      lci::detail::runtime_impl_t* rt = lci::detail::resolve_runtime({});
      lci::packet_pool_t pool;
      pool.p = &rt->default_pool();
      lci::matching_engine_t engine;
      engine.p = &rt->default_engine();
      // The barrier's last receive packet may still be on its way back to
      // the receive queue; settle it before counting.
      for (int i = 0; i < 10; ++i) lci::progress();
      const std::size_t pooled_before = lci::get_attr(pool).pooled;
      stage.store(1, std::memory_order_release);
      while (lci::get_attr(engine).entries < kept) lci::progress();
      EXPECT_EQ(lci::get_attr(engine).entries, kept);
      EXPECT_TRUE(lci::kill_peer(1));
      for (int i = 0; i < 10; ++i) lci::progress();
      EXPECT_EQ(lci::get_attr(engine).entries, 0u);
      EXPECT_EQ(lci::get_attr(pool).pooled, pooled_before);
      stage.store(2, std::memory_order_release);
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
// drain()
// ---------------------------------------------------------------------------

TEST(Drain, ForceCancelsParkedTrackedOps) {
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init(small_attr());
    if (rank == 0) {
      constexpr int parked = 5;
      std::vector<std::vector<char>> bufs(parked, std::vector<char>(64));
      lci::comp_t cq = lci::alloc_cq();
      lci::op_t ops[parked];
      for (int i = 0; i < parked; ++i) {
        const lci::status_t rs =
            lci::post_recv_x(1, bufs[static_cast<std::size_t>(i)].data(), 64,
                             static_cast<lci::tag_t>(i), cq)
                .op_handle(&ops[i])();
        ASSERT_TRUE(rs.error.is_posted());
      }
      // Nothing is moving and nobody will send: the cooperative phase gives
      // up at the timeout and the force-kill phase cancels all five.
      const std::size_t killed = lci::drain(lci::device_t{}, 2000);
      EXPECT_EQ(killed, static_cast<std::size_t>(parked));
      int fatal = 0;
      lci::status_t st;
      while (!(st = lci::cq_pop(cq)).error.is_retry()) {
        EXPECT_EQ(st.error.code, lci::errorcode_t::fatal_canceled);
        ++fatal;
      }
      EXPECT_EQ(fatal, parked);
      for (auto& op : ops) EXPECT_FALSE(lci::cancel(op));  // all spent
      const lci::counters_t c = lci::get_counters();
      EXPECT_EQ(c.ops_canceled, static_cast<uint64_t>(parked));
      lci::free_comp(&cq);
    }
    lci::g_runtime_fina();
  });
}

TEST(Drain, QuiescedDeviceDrainsClean) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(small_attr());
    EXPECT_EQ(lci::drain(lci::device_t{}, 5000), 0u);
    lci::g_runtime_fina();
  });
}

// A barrier's receives are tracked ops, and they are all terminal once it
// returns: the drain after it finds the device quiet in its cooperative
// phase instead of running to its 2 s timeout.
TEST(Drain, QuiescesRightAfterBarrier) {
  lci::sim::spawn(2, [](int) {
    lci::g_runtime_init(small_attr());
    lci::barrier();
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(lci::drain(lci::device_t{}, 2000000), 0u);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(200));
    lci::barrier();
    lci::g_runtime_fina();
  });
}

// ---------------------------------------------------------------------------
// Seeded mid-traffic kill of rank 1: the acceptance sweep.
// ---------------------------------------------------------------------------

// Ring traffic: every rank receives from its left neighbor and sends to its
// right neighbor while rank 1's kill schedule fires mid-stream. Each
// operation must complete exactly once — done for live pairs, fatal_peer_down
// for operations naming the dead rank (dead-rank locals see their whole world
// fail). Completion accounting is per-operation through a CQ, so a double
// completion shows up as an excess pop and a lost one as a hang (ctest
// timeout).
class KillSweep : public ::testing::TestWithParam<
                      std::tuple<int, std::size_t, bool>> {
 protected:
  int nranks() const { return std::get<0>(GetParam()); }
  std::size_t msg_size() const { return std::get<1>(GetParam()); }
  bool auto_progress() const { return std::get<2>(GetParam()); }
};

TEST_P(KillSweep, EveryOpNamingTheDeadRankFailsExactlyOnce) {
  const int n = nranks();
  const std::size_t size = msg_size();
  const bool auto_prog = auto_progress();
  constexpr int messages = 48;

  lci::net::config_t config;
  config.fault.kill_rank = 1;
  config.fault.kill_after_ops = 40;  // past the preposts, mid-traffic
  config.fault.seed = 0xdeadull;

  std::atomic<int> finished{0};
  lci::sim::spawn(
      n,
      [&](int rank) {
        lci::runtime_attr_t attr = small_attr();
        // A prepost budget of 16 (half the pool) keeps preposts below the
        // kill threshold.
        attr.npackets = 32;
        if (auto_prog) {
          attr.auto_progress_default = true;
          attr.nprogress_threads = 2;
        }
        lci::g_runtime_init(attr);
        const int right = (rank + 1) % n;
        const int left = (rank - 1 + n) % n;

        auto step = [&] {
          if (!auto_prog) lci::progress();
          std::this_thread::yield();
        };

        lci::comp_t cq = lci::alloc_cq();
        std::vector<std::vector<char>> in(
            messages, std::vector<char>(size, 0));
        std::vector<char> out(size, static_cast<char>('A' + rank));

        // Post all receives; some fail immediately once the peer is dead.
        // `peer_down` counts both failure paths — returned by the post
        // (fast-fail on an already-dead rank) and popped from the CQ (the
        // death interrupted an in-flight operation).
        int owed = 0, done = 0, peer_down = 0;
        for (int i = 0; i < messages; ++i) {
          const lci::status_t rs =
              lci::post_recv_x(left, in[static_cast<std::size_t>(i)].data(),
                               size, static_cast<lci::tag_t>(i), cq)
                  .allow_done(false)();
          if (rs.error.is_posted()) {
            ++owed;
          } else {
            ASSERT_EQ(rs.error.code, lci::errorcode_t::fatal_peer_down);
            ++peer_down;
          }
        }
        // Send the stream; a send may fail-fast (returned fatal) once the
        // destination dies, or complete fatally through the CQ if it was
        // already in flight (e.g. a rendezvous handshake the death orphans).
        for (int i = 0; i < messages; ++i) {
          lci::status_t ss;
          do {
            ss = lci::post_send_x(right, out.data(), size,
                                  static_cast<lci::tag_t>(i), cq)
                     .allow_done(false)();
            if (ss.error.is_retry()) step();
          } while (ss.error.is_retry());
          if (ss.error.is_posted()) {
            ++owed;
          } else {
            ASSERT_EQ(ss.error.code, lci::errorcode_t::fatal_peer_down);
            ++peer_down;
          }
        }

        // Drain: every posted operation completes exactly once, normally or
        // fatally. A lost completion hangs here; a duplicated one trips the
        // owed counter below zero.
        while (owed > 0) {
          const lci::status_t st = lci::cq_pop(cq);
          if (st.error.is_retry()) {
            step();
            continue;
          }
          --owed;
          if (st.error.is_done()) {
            ++done;
          } else {
            ASSERT_EQ(st.error.code, lci::errorcode_t::fatal_peer_down)
                << "rank " << rank;
            ++peer_down;
          }
        }
        ASSERT_EQ(owed, 0);
        // Ranks bordering the dead rank (and the dead rank itself) must have
        // seen failures; pairs of live ranks complete some traffic normally.
        if (n > 2 && rank != 0 && rank != 1 && rank != 2) {
          EXPECT_EQ(peer_down, 0) << "rank " << rank;
        }
        if (rank == 2) {
          EXPECT_GT(peer_down, 0);
        }

        // No duplicate completions were queued behind the drain.
        for (int i = 0; i < 50; ++i) {
          EXPECT_TRUE(lci::cq_pop(cq).error.is_retry());
          step();
        }

        // Out-of-band teardown sync: collectives may legitimately throw here
        // (a member rank is dead), so don't use lci::barrier.
        finished.fetch_add(1, std::memory_order_release);
        while (finished.load(std::memory_order_acquire) < n) step();
        lci::free_comp(&cq);
        lci::g_runtime_fina();
      },
      config);
}

INSTANTIATE_TEST_SUITE_P(
    RanksSizesModes, KillSweep,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(std::size_t{8}, std::size_t{16384}),
                       ::testing::Bool()),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) <= 8 ? "_eager" : "_rdv") +
             (std::get<2>(info.param) ? "_auto" : "_polled");
    });

// ---------------------------------------------------------------------------
// Collectives with a dead member terminate fatally at every rank.
// ---------------------------------------------------------------------------

TEST(PeerDeathCollective, BarrierThrowsAtEveryLiveRank) {
  constexpr int n = 4;
  std::atomic<int> finished{0};
  lci::net::config_t config;
  config.fault.kill_rank = 1;
  config.fault.kill_after_ops = 0;  // dead from the start
  lci::sim::spawn(
      n,
      [&](int rank) {
        lci::runtime_attr_t attr = small_attr();
        // Non-neighbor ranks wait on live-but-stuck peers: the collective
        // deadline turns those waits into fatal_timeout instead of a hang.
        attr.collective_deadline_us = 200 * 1000;
        lci::g_runtime_init(attr);
        EXPECT_THROW(lci::barrier(), lci::fatal_error_t) << "rank " << rank;
        finished.fetch_add(1, std::memory_order_release);
        while (finished.load(std::memory_order_acquire) < n) {
          lci::progress();
          std::this_thread::yield();
        }
        lci::g_runtime_fina();
      },
      config);
}

}  // namespace
