// Auto-progress engine tests (core/progress_engine.hpp):
//  * zero-explicit-progress completion: with auto_progress on, traffic
//    completes while user threads only wait on completion objects,
//  * the doorbell race: a sleeping engine thread vs a concurrent post —
//    every message must complete promptly and the sleep/wakeup counters
//    must show the engine actually slept and was rung awake (run under
//    seeded forced-retry fault injection, so retries land while the engine
//    sleeps),
//  * quiescent shutdown: pause/resume around in-flight backlogged
//    operations, then runtime teardown with the engine attached,
//  * mixed mode: explicit progress() from many user threads stays safe and
//    useful while the engine runs,
//  * zero-explicit-progress modes of the LCW shim and the minihpx
//    parcelport.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "amt/minihpx.hpp"
#include "core/lci.hpp"
#include "lcw/lcw.hpp"

namespace {

inline void startup_rendezvous(std::atomic<int>& arrived, int n) {
  arrived.fetch_add(1, std::memory_order_acq_rel);
  while (arrived.load(std::memory_order_acquire) < n)
    std::this_thread::yield();
}

// Waits for a synchronizer WITHOUT calling progress: auto-progress must
// complete the operation on its own.
void wait_no_progress(lci::comp_t sync, lci::status_t* out) {
  while (!lci::sync_test(sync, out))
    std::this_thread::sleep_for(std::chrono::microseconds(50));
}

// Deadline-bounded wait for a counter to become nonzero. Robust under
// machine load: the engine gets there eventually, not on a fixed schedule.
template <typename F>
uint64_t wait_nonzero(F getter) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (getter() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  return getter();
}

// The default device serviced by `nthreads` engine threads.
lci::runtime_attr_t engine_attr(std::size_t nthreads = 1) {
  lci::runtime_attr_t attr;
  attr.matching_engine_buckets = 1024;
  attr.auto_progress_default = true;
  attr.nprogress_threads = nthreads;
  return attr;
}

TEST(AutoProgress, ZeroExplicitProgressPingPong) {
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init(engine_attr());
    const int peer = 1 - rank;
    // Eager and rendezvous sizes: both protocols must complete end-to-end
    // with nobody calling progress().
    for (const std::size_t size : {64ul, 1ul << 20}) {
      std::vector<char> buf(size, static_cast<char>(rank + 1));
      lci::comp_t sync = lci::alloc_sync(1);
      lci::status_t status;
      if (rank == 0) {
        do {
          status = lci::post_send(peer, buf.data(), size, 5, sync);
        } while (status.error.is_retry());
        if (status.error.is_posted()) wait_no_progress(sync, &status);
        EXPECT_TRUE(status.error.is_done());
      } else {
        do {
          status = lci::post_recv(peer, buf.data(), size, 5, sync);
        } while (status.error.is_retry());
        if (status.error.is_posted()) wait_no_progress(sync, &status);
        EXPECT_TRUE(status.error.is_done());
        EXPECT_EQ(buf[size / 2], 1);
      }
      lci::free_comp(&sync);
    }
    EXPECT_GT(lci::get_counters().progress_thread_polls, 0u);
    // An engine thread counts an advancing call once progress() returns,
    // after the call signaled the completions waited for above (with
    // several shards one call can take a rendezvous from RTR to write CQE),
    // so the count may land a moment after the last wait ends.
    EXPECT_GT(wait_nonzero(
                  [] { return lci::get_counters().progress_thread_advances; }),
              0u);
    lci::g_runtime_fina();
  });
}

// The doorbell race: rank 1's engine thread is asleep (no traffic) when
// rank 0 posts; the wire push must ring rank 1's doorbell and the sleeper
// must wake and complete the message. Forced retries (seeded
// fault injection) run concurrently so the retry/backlog machinery is
// exercised while the engine sleeps.
TEST(AutoProgress, DoorbellWakesSleepingEngine) {
  lci::net::config_t fabric;
  fabric.fault.retry_rate = 0.3;
  fabric.fault.delay_rate = 0.25;
  fabric.fault.seed = 0xd00bbe11ull;
  std::atomic<int> ready{0};
  std::atomic<bool> woken{false};  // rank 1 has counted a wakeup
  std::atomic<int> received{0};    // wake messages rank 1 has received
  lci::sim::spawn(
      2,
      [&](int rank) {
        lci::runtime_attr_t attr = engine_attr();
        attr.auto_progress_default = false;  // default devices stay manual
        lci::g_runtime_init(attr);
        // Symmetric second device (net index 1 on both ranks, so traffic on
        // it routes device-1 to device-1); only the receiver's is engine-run.
        lci::device_t dev = lci::alloc_device_x()
                                .auto_progress(rank == 1)();
        startup_rendezvous(ready, 2);
        const int iterations = 30;
        if (rank == 0) {
          char msg[64];
          for (int i = 0; i < iterations; ++i) {
            std::memset(msg, i & 0x7f, sizeof(msg));
            lci::comp_t sync = lci::alloc_sync(1);
            lci::status_t status;
            do {
              status = lci::post_send_x(1, msg, sizeof(msg),
                                        static_cast<lci::tag_t>(i), sync)
                           .device(dev)();
              if (status.error.is_retry()) lci::progress_x().device(dev)();
            } while (status.error.is_retry());
            if (status.error.is_posted()) {
              while (!lci::sync_test(sync, &status))
                lci::progress_x().device(dev)();
            }
            EXPECT_TRUE(status.error.is_done());
            lci::free_comp(&sync);
            // Give the receiver's engine time to fall asleep between
            // messages — each send then races a genuinely sleeping engine.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          // Faults are injected on the posting side; the sender's retry
          // loop above must actually have exercised them.
          EXPECT_GT(lci::get_counters().fault_injected, 0u);
        } else {
          for (int i = 0; i < iterations; ++i) {
            char buf[64] = {};
            lci::comp_t sync = lci::alloc_sync(1);
            lci::status_t status;
            do {
              status = lci::post_recv_x(0, buf, sizeof(buf),
                                        static_cast<lci::tag_t>(i), sync)
                           .device(dev)();
            } while (status.error.is_retry());
            if (status.error.is_posted()) wait_no_progress(sync, &status);
            EXPECT_TRUE(status.error.is_done());
            EXPECT_EQ(buf[0], static_cast<char>(i & 0x7f));
            lci::free_comp(&sync);
          }
          const lci::device_attr_t dattr = lci::get_attr(dev);
          EXPECT_TRUE(dattr.auto_progress);
          EXPECT_GT(dattr.doorbell_rings, 0u);
        }
        // Phase B: wait (deadline-bounded) until rank 1's engine has actually
        // committed a sleep — under machine load it reaches the sleep phase
        // eventually, not on a fixed schedule.
        if (rank == 1) {
          EXPECT_GT(wait_nonzero(
                        [] { return lci::get_counters().progress_sleeps; }),
                    0u);
        }
        startup_rendezvous(ready, 4);
        // Phase C: each wake message races a sleeping engine. A ring counts
        // as a wakeup only when it lands inside one of the engine's bounded
        // sleeps; between sleeps the engine backs off, and under machine
        // load the backoff's yields can outlast a sleep. So rounds go on, 20
        // ms apart and one message in flight at a time, until rank 1 has
        // counted a wakeup (at most max_wake_rounds).
        constexpr int max_wake_rounds = 500;
        if (rank == 0) {
          char msg[8] = {};
          for (int i = 0; i < max_wake_rounds && !woken.load(); ++i) {
            lci::comp_t sync = lci::alloc_sync(1);
            lci::status_t status;
            do {
              status = lci::post_send_x(1, msg, sizeof(msg),
                                        static_cast<lci::tag_t>(1000 + i),
                                        sync)
                           .device(dev)();
              if (status.error.is_retry()) lci::progress_x().device(dev)();
            } while (status.error.is_retry());
            if (status.error.is_posted()) {
              while (!lci::sync_test(sync, &status))
                lci::progress_x().device(dev)();
            }
            lci::free_comp(&sync);
            while (received.load() <= i)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
        } else {
          for (int i = 0; i < max_wake_rounds && !woken.load(); ++i) {
            char buf[8];
            lci::comp_t sync = lci::alloc_sync(1);
            lci::status_t status;
            do {
              status = lci::post_recv_x(0, buf, sizeof(buf),
                                        static_cast<lci::tag_t>(1000 + i),
                                        sync)
                           .device(dev)();
            } while (status.error.is_retry());
            if (status.error.is_posted()) wait_no_progress(sync, &status);
            EXPECT_TRUE(status.error.is_done());
            lci::free_comp(&sync);
            // The engine counts a wakeup before the service pass that
            // completes this receive.
            if (lci::get_counters().progress_wakeups > 0) woken.store(true);
            received.store(i + 1);
          }
          EXPECT_GT(lci::get_counters().progress_wakeups, 0u);
        }
        startup_rendezvous(ready, 6);
        lci::free_device(&dev);
        lci::g_runtime_fina();
      },
      fabric);
}

// A ring is counted only when it reaches an engine: devices no engine
// services report doorbell_rings == 0 after traffic that rang them — wire
// pushes from the peer (eager and rendezvous control messages) and the
// local write completions of rendezvous sends.
TEST(AutoProgress, UnattachedDoorbellCountsNoRings) {
  lci::sim::spawn(2, [](int rank) {
    lci::runtime_attr_t attr = engine_attr();
    attr.auto_progress_default = false;  // no device is engine-run
    lci::g_runtime_init(attr);
    const int peer = 1 - rank;
    for (const std::size_t size : {64ul, 1ul << 16}) {
      for (int i = 0; i < 16; ++i) {
        std::vector<char> buf(size, static_cast<char>(i));
        lci::comp_t sync = lci::alloc_sync(1);
        lci::status_t status;
        do {
          status = rank == 0 ? lci::post_send(peer, buf.data(), size, i, sync)
                             : lci::post_recv(peer, buf.data(), size, i, sync);
          lci::progress();
        } while (status.error.is_retry());
        if (status.error.is_posted()) {
          while (!lci::sync_test(sync, &status)) lci::progress();
        }
        EXPECT_TRUE(status.error.is_done());
        lci::free_comp(&sync);
      }
    }
    lci::barrier();
    const lci::device_attr_t dattr = lci::get_attr(lci::device_t{});
    EXPECT_FALSE(dattr.auto_progress);
    EXPECT_EQ(dattr.doorbell_rings, 0u);
    const lci::counters_t c = lci::get_counters();
    EXPECT_EQ(c.progress_thread_polls, 0u);
    if (rank == 0) {
      EXPECT_GT(c.send_inject + c.send_bcopy + c.send_rdv, 0u);
    }
    lci::g_runtime_fina();
  });
}

// Quiescence: pause/resume with in-flight backlogged operations (forced
// retries + allow_retry(false) push sends onto the device backlog), then a
// clean teardown with the engine still attached. Every completion must be
// delivered exactly once.
TEST(AutoProgress, QuiescentShutdownWithBacklog) {
  lci::net::config_t fabric;
  fabric.fault.retry_rate = 0.8;
  fabric.fault.max_faults = 64;  // forward progress guaranteed
  fabric.fault.seed = 0xbacc1066ull;
  lci::sim::spawn(
      2,
      [](int rank) {
        lci::g_runtime_init(engine_attr());
        const int peer = 1 - rank;
        constexpr int count = 16;
        std::vector<lci::comp_t> syncs;
        std::vector<std::vector<char>> bufs;
        for (int i = 0; i < count; ++i) {
          syncs.push_back(lci::alloc_sync(1));
          bufs.emplace_back(256, static_cast<char>(rank));
          lci::status_t status;
          if (rank == 0) {
            // allow_retry(false): a rejected post goes to the backlog — the
            // engine thread must retire it (and ring itself awake to do so).
            status = lci::post_send_x(peer, bufs.back().data(), 256,
                                      static_cast<lci::tag_t>(i), syncs.back())
                         .allow_retry(false)();
            EXPECT_FALSE(status.error.is_retry());
          } else {
            do {
              status = lci::post_recv_x(peer, bufs.back().data(), 256,
                                        static_cast<lci::tag_t>(i),
                                        syncs.back())();
            } while (status.error.is_retry());
          }
          if (status.error.is_done()) {
            // Completed inline: keep the slot; sync_test below still passes
            // because done posts do not signal. Mark by freeing here.
            lci::free_comp(&syncs.back());
            syncs.back().p = nullptr;
          }
        }
        // Pause mid-flight: must return (engine parked), and ops must not be
        // lost across the pause.
        lci::progress_pause();
        lci::progress_resume();
        for (int i = 0; i < count; ++i) {
          if (syncs[static_cast<std::size_t>(i)].p == nullptr) continue;
          lci::status_t status;
          wait_no_progress(syncs[static_cast<std::size_t>(i)], &status);
          EXPECT_TRUE(status.error.is_done())
              << "rank " << rank << " op " << i << " code "
              << static_cast<int>(status.error.code);
          lci::free_comp(&syncs[static_cast<std::size_t>(i)]);
        }
        lci::barrier();
        // Teardown with the engine attached exercises the quiescent-shutdown
        // ordering (device detach -> engine stop -> runtime free).
        lci::g_runtime_fina();
      },
      fabric);
}

// Mixed mode: explicit progress() from several user threads concurrently
// with the engine. Both must stay safe and the traffic must complete.
TEST(AutoProgress, MixedModeExplicitProgress) {
  lci::sim::spawn(2, [](int rank) {
    lci::g_runtime_init(engine_attr(2));
    const int peer = 1 - rank;
    constexpr int nthreads = 4;
    constexpr int per_thread = 25;
    auto binding = lci::sim::current_binding();
    std::vector<std::thread> threads;
    for (int t = 0; t < nthreads; ++t) {
      threads.emplace_back([&, t] {
        lci::sim::scoped_binding_t bound(binding);
        for (int i = 0; i < per_thread; ++i) {
          const auto tag =
              static_cast<lci::tag_t>(t * per_thread + i);
          char buf[32];
          std::memset(buf, rank, sizeof(buf));
          lci::comp_t sync = lci::alloc_sync(1);
          lci::status_t status;
          do {
            status = rank == 0
                         ? lci::post_send(peer, buf, sizeof(buf), tag, sync)
                         : lci::post_recv(peer, buf, sizeof(buf), tag, sync);
            lci::progress();  // explicit progress, racing the engine
          } while (status.error.is_retry());
          if (status.error.is_posted()) {
            while (!lci::sync_test(sync, &status)) lci::progress();
          }
          EXPECT_TRUE(status.error.is_done());
          lci::free_comp(&sync);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_GT(lci::get_counters().progress_calls, 0u);  // user threads ran
    // The engine must poll too — but on an oversubscribed host the engine
    // threads may not have been scheduled even once by the time the (busy-
    // spinning) workers finish, so give the scheduler a bounded grace
    // period instead of sampling the counter exactly at join.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (lci::get_counters().progress_thread_polls == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    EXPECT_GT(lci::get_counters().progress_thread_polls, 0u);
    lci::barrier();
    lci::g_runtime_fina();
  });
}

// pause() freezes the engine (no polls while parked; nested pauses stack);
// resume() restarts it.
TEST(AutoProgress, PauseStopsPollingResumeRestarts) {
  lci::sim::spawn(1, [](int) {
    lci::g_runtime_init(engine_attr());
    auto polls = [] { return lci::get_counters().progress_thread_polls; };
    lci::progress_pause();
    lci::progress_pause();  // nested
    const uint64_t frozen = polls();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(polls(), frozen);
    lci::progress_resume();  // still paused (depth 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(polls(), frozen);
    lci::progress_resume();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (polls() == frozen && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(polls(), frozen);
    lci::g_runtime_fina();
  });
}

// LCW: nprogress_threads > 0 turns the lci backend into auto-progress mode;
// an AM ping-pong completes with zero do_progress() calls.
TEST(AutoProgress, LcwZeroExplicitProgress) {
  std::atomic<int> ready{0};
  lci::sim::spawn(2, [&](int rank) {
    lcw::config_t config;
    config.ndevices = 1;
    config.max_am_size = 128;
    config.nprogress_threads = 1;
    auto ctx = lcw::alloc_context(lcw::backend_t::lci, config);
    EXPECT_TRUE(ctx->auto_progress());
    startup_rendezvous(ready, 2);
    lcw::device_t* dev = ctx->device(0);
    const int peer = 1 - rank;
    constexpr int count = 32;
    int payload = rank;
    int sent = 0, delivered = 0, send_comps = 0, posted = 0;
    while (sent < count || delivered < count || send_comps < posted) {
      if (sent < count) {
        const auto r = dev->post_am(peer, &payload, sizeof(payload), 0);
        if (r != lcw::post_t::retry) {
          ++sent;
          if (r == lcw::post_t::posted) ++posted;
        }
      }
      lcw::request_t req;
      while (dev->poll_recv(&req)) {
        EXPECT_EQ(req.size, sizeof(int));
        std::free(req.buffer);
        ++delivered;
      }
      while (dev->poll_send(&req)) ++send_comps;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    EXPECT_EQ(delivered, count);
    startup_rendezvous(ready, 4);
  });
}

// minihpx: with parcelport nprogress_threads > 0, scheduler workers never
// call do_progress (progress_device only drains completion queues) and the
// round trip still completes.
TEST(AutoProgress, MinihpxZeroExplicitProgress) {
  std::atomic<int> ready{0};
  lci::sim::spawn(2, [&](int rank) {
    minihpx::scheduler_t scheduler(2);
    minihpx::parcelport_config_t config;
    config.backend = lcw::backend_t::lci;
    config.ndevices = 2;
    config.nprogress_threads = 1;
    minihpx::parcelport_t port(config, &scheduler);
    startup_rendezvous(ready, 2);
    std::atomic<int> received{0};
    const uint32_t handler = port.register_handler(
        [&](int src, const void* data, std::size_t size) {
          EXPECT_EQ(src, 1 - rank);
          EXPECT_EQ(size, sizeof(int));
          int value;
          std::memcpy(&value, data, sizeof(value));
          EXPECT_EQ(value, 1 - rank);
          received.fetch_add(1);
        });
    scheduler.start([&port](int worker) { return port.progress(worker); });
    constexpr int count = 40;
    for (int i = 0; i < count; ++i) {
      while (!port.send_parcel(1 - rank, handler, &rank, sizeof(rank)))
        port.progress(0);
    }
    scheduler.run_until(
        [&] { return received.load() == count && port.quiescent(); });
    scheduler.stop();
    EXPECT_EQ(received.load(), count);
    startup_rendezvous(ready, 4);
  });
}

}  // namespace
