// Ping-pong driver behind the Fig. 2/3/4 microbenchmarks (paper Sec. 5.2).
//
// R simulated ranks (R even: ranks [0,R/2) are "node A", the rest "node B"),
// T threads per rank. Each thread pairs with the same-index thread of the
// rank R/2 away and exchanges `iterations` messages with it: send one, then
// send again for every arrival observed. Arrivals are counted rank-globally,
// so the pattern works both in dedicated-resource mode (device per thread)
// and shared-resource mode (one device for all threads), where completions
// land in a shared queue and are fungible across threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/lci.hpp"
#include "lcw/lcw.hpp"
#include "util/backoff.hpp"

namespace bench {

struct pingpong_params_t {
  lcw::backend_t backend = lcw::backend_t::lci;
  std::size_t eager_size = 0;  // align protocol crossovers across backends
  int nranks = 2;            // total ranks (even)
  int nthreads = 1;          // threads per rank
  bool dedicated = false;    // one LCW device per thread
  bool use_am = true;        // active messages vs tagged send-receive
  std::size_t msg_size = 8;
  long iterations = 1000;    // messages sent per thread
  // Progress modes (lci backend): worker-polled (0/true, the default),
  // dedicated engine threads (N/false — workers never call do_progress),
  // hybrid (N/true — engine threads plus worker polling).
  int nprogress_threads = 0;
  bool workers_progress = true;
  bool aggregation = false;  // lci backend: coalesce small eager sends/AMs
  uint64_t agg_flush_us = 0; // batch hold time; 0 flushes every progress poll
  // lci backend: shards per device (0 = runtime default). With > 1 shard
  // each worker pins itself to shard (t mod shards), giving every thread a
  // private network endpoint inside the shared device — the paper's VCI
  // recipe without allocating a device per thread.
  std::size_t device_shards = 0;
  // Send-window depth per thread (rank-wide credits = T * window). 1 is a
  // strict ping-pong (latency-bound); message-rate sweeps use a deeper
  // window so the rate decouples from the round-trip and batching/pipelining
  // in the backends can actually engage. Both sides of any comparison must
  // run the same window.
  int window = 1;
  lci::net::config_t fabric{};
};

struct pingpong_result_t {
  double seconds = 0;
  double mmsg_per_sec = 0;   // aggregate uni-directional
  double gb_per_sec = 0;     // aggregate uni-directional
  // Backend health counters summed across ranks (lcw::context_t::counters;
  // zero on backends without them). retry_lock == 0 is the lock-free
  // receive-path invariant checked by scripts/check_bench.py.
  uint64_t retry_lock = 0;
};

inline pingpong_result_t run_pingpong(const pingpong_params_t& params_in) {
  pingpong_params_t p = params_in;
  apply_net_env(&p.fabric);
  const int R = p.nranks;
  const int T = p.nthreads;
  const long total_msgs_per_rank = static_cast<long>(T) * p.iterations;
  const int participants = R * T;

  thread_barrier_t start_barrier(participants);
  std::vector<double> start_times(static_cast<std::size_t>(participants));
  std::vector<double> end_times(static_cast<std::size_t>(participants));
  std::atomic<uint64_t> total_retry_lock{0};

  lci::sim::spawn(
      R,
      [&](int rank) {
        lcw::config_t config;
        config.ndevices = p.dedicated ? T : 1;
        // AM payloads must fit the backends' eager/medium limits; tagged
        // send-receive handles any size via rendezvous, so don't inflate
        // the packet pools for it.
        config.max_am_size =
            p.use_am ? std::max<std::size_t>(p.msg_size, 64) : 4096;
        config.eager_size = p.eager_size;
        config.enable_am = p.use_am;
        config.nprogress_threads = p.nprogress_threads;
        config.enable_aggregation = p.aggregation;
        config.aggregation_flush_us = p.agg_flush_us;
        config.device_shards = p.device_shards;
        auto ctx = lcw::alloc_context(p.backend, config);
        const int peer = (rank + R / 2) % R;
        auto binding = lci::sim::current_binding();

        std::atomic<long> arrivals{0};
        std::atomic<long> recv_posts{0};
        // Rank-wide send credits (ping-pong flow control). Shared-resource
        // mode pops completions from one shared queue, so an arrival may be
        // observed by any thread — credits must be fungible across threads
        // or a thread that never pops starves and the ranks deadlock.
        std::atomic<long> credits{static_cast<long>(T) * p.window};
        // Posted sends whose completion has not been observed; like
        // arrivals, completions are fungible across threads in shared mode,
        // so the counter is rank-global.
        std::atomic<long> outstanding{0};
        // Set when any post reports `failed` (fault-injection runs kill
        // ranks mid-benchmark): the remaining traffic can never arrive, so
        // every worker on this rank stops instead of spinning.
        std::atomic<bool> peer_dead{false};
        const int recv_window = std::max(4, p.window);

        // Workers poll do_progress unless dedicated engine threads own the
        // wire; mixed (hybrid) mode keeps both legal.
        const bool workers_progress = p.workers_progress ||
                                      p.nprogress_threads == 0;

        auto worker = [&](int t) {
          lci::sim::scoped_binding_t bound(binding);
          // Affinity routing: park this worker on its own shard so its
          // traffic never shares an endpoint (or aggregation slot) with a
          // sibling. The pin is thread-local — worker 0 runs on the rank's
          // spawning thread, so it must be cleared before returning.
          if (p.device_shards > 1)
            lci::pin_thread_shard(t % static_cast<int>(p.device_shards));
          lcw::device_t* dev = ctx->device(p.dedicated ? t : 0);
          const int tag = p.dedicated ? t : 0;
          const int gid = rank * T + t;
          lci::util::backoff_t retry_backoff;

          std::vector<char> out(p.msg_size, static_cast<char>(rank + 1));
          // Receive budget: exactly as many receives as messages will
          // arrive. In dedicated mode recvs carry per-thread tags and are
          // NOT fungible across threads, so the budget must be per-thread
          // (a shared counter would let a fast thread consume re-posts a
          // slow thread's tag still needs — deadlock). Shared mode pops are
          // fungible, so one rank-global counter is exact there.
          long my_recv_budget = p.iterations;  // dedicated: per-thread
          auto take_recv_budget = [&]() {
            if (p.dedicated) return my_recv_budget-- > 0;
            return recv_posts.fetch_add(1) < total_msgs_per_rank;
          };
          // Receive buffers owned by this thread; ownership transfers with
          // the completion (the popper re-posts the buffer it popped).
          std::vector<std::unique_ptr<char[]>> bufs;
          if (!p.use_am) {
            for (int w = 0; w < recv_window; ++w) {
              bufs.push_back(std::make_unique<char[]>(p.msg_size));
              if (take_recv_budget()) {
                retry_backoff.reset();
                lcw::post_t pr;
                while ((pr = dev->post_recv(peer, bufs.back().get(),
                                            p.msg_size, tag)) ==
                       lcw::post_t::retry) {
                  if (workers_progress)
                    dev->do_progress();
                  else
                    retry_backoff.spin();  // engine threads clear the jam
                }
                if (pr == lcw::post_t::failed)
                  peer_dead.store(true, std::memory_order_relaxed);
              }
            }
          }

          start_barrier.arrive_and_wait();
          start_times[static_cast<std::size_t>(gid)] = now_sec();

          auto try_take_credit = [&]() {
            long c = credits.load(std::memory_order_relaxed);
            while (c > 0) {
              if (credits.compare_exchange_weak(c, c - 1,
                                                std::memory_order_relaxed))
                return true;
            }
            return false;
          };

          long sent = 0;
          // Exit only when every posted send completed: a rendezvous send
          // reads out[] until its completion signals.
          while (!peer_dead.load(std::memory_order_relaxed) &&
                 (sent < p.iterations ||
                  outstanding.load(std::memory_order_relaxed) > 0 ||
                  arrivals.load(std::memory_order_relaxed) <
                      total_msgs_per_rank)) {
            bool did_something = false;
            while (sent < p.iterations && try_take_credit()) {
              const auto r =
                  p.use_am ? dev->post_am(peer, out.data(), p.msg_size, tag)
                           : dev->post_send(peer, out.data(), p.msg_size, tag);
              if (r == lcw::post_t::retry) {
                credits.fetch_add(1, std::memory_order_relaxed);
                break;
              }
              if (r == lcw::post_t::failed) {
                credits.fetch_add(1, std::memory_order_relaxed);
                peer_dead.store(true, std::memory_order_relaxed);
                break;
              }
              if (r == lcw::post_t::posted)
                outstanding.fetch_add(1, std::memory_order_relaxed);
              ++sent;
              did_something = true;
            }
            if (workers_progress) did_something |= dev->do_progress();
            lcw::request_t req;
            while (dev->poll_recv(&req)) {
              did_something = true;
              if (req.failed) {
                // Fatally-completed receive (peer died): the buffer is back
                // in our hands, nothing was delivered — stop the exchange.
                peer_dead.store(true, std::memory_order_relaxed);
                continue;
              }
              arrivals.fetch_add(1, std::memory_order_relaxed);
              credits.fetch_add(1, std::memory_order_relaxed);
              if (p.use_am) {
                std::free(req.buffer);
              } else if (take_recv_budget()) {
                retry_backoff.reset();
                lcw::post_t pr;
                while ((pr = dev->post_recv(peer, req.buffer, p.msg_size,
                                            tag)) == lcw::post_t::retry) {
                  if (workers_progress)
                    dev->do_progress();
                  else
                    retry_backoff.spin();
                }
                if (pr == lcw::post_t::failed)
                  peer_dead.store(true, std::memory_order_relaxed);
              }
            }
            while (dev->poll_send(&req)) {
              did_something = true;
              outstanding.fetch_sub(1, std::memory_order_relaxed);
            }
            // Oversubscribed hosts: hand the core to the peer instead of
            // burning the rest of the scheduler quantum polling.
            if (!did_something) std::this_thread::yield();
          }
          end_times[static_cast<std::size_t>(gid)] = now_sec();
          if (p.device_shards > 1) lci::pin_thread_shard(-1);
        };

        std::vector<std::thread> threads;
        for (int t = 1; t < T; ++t) threads.emplace_back(worker, t);
        worker(0);
        for (auto& th : threads) th.join();
        // Drain stragglers (local send completions) before teardown.
        for (int i = 0; i < 100; ++i)
          for (int d = 0; d < ctx->ndevices(); ++d)
            ctx->device(d)->do_progress();
        // Snapshot backend counters before the context (and its runtime)
        // goes away; summed across ranks in the result.
        const lcw::counters_t c = ctx->counters();
        total_retry_lock.fetch_add(c.retry_lock, std::memory_order_relaxed);
      },
      p.fabric);

  double t0 = start_times[0], t1 = end_times[0];
  for (int i = 1; i < participants; ++i) {
    t0 = std::min(t0, start_times[static_cast<std::size_t>(i)]);
    t1 = std::max(t1, end_times[static_cast<std::size_t>(i)]);
  }
  pingpong_result_t result;
  result.seconds = t1 - t0;
  const double total_uni_msgs =
      static_cast<double>(total_msgs_per_rank) * (R / 2);
  result.mmsg_per_sec = total_uni_msgs / result.seconds / 1e6;
  result.gb_per_sec = total_uni_msgs * static_cast<double>(p.msg_size) /
                      result.seconds / 1e9;
  result.retry_lock = total_retry_lock.load(std::memory_order_relaxed);
  return result;
}

}  // namespace bench
