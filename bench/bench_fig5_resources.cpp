// Figure 5: maximum throughput of individual LCI resources vs thread count
// (paper Sec. 5.2.3).
//
// Paper setup: single node, all threads hammer one shared instance of a
// resource with the key methods used on the communication critical path:
//   completion queue — a push/pop pair,
//   matching engine  — inserts (a send insert matched by a recv insert),
//   packet pool      — a get/put pair.
//
// Expected shape (paper Fig. 5): packet pool scales best (thread-local
// deques, ~800 Mops at 128 threads), matching engine scales well (per-bucket
// locks, ~260 Mops), completion queue saturates early (shared fetch-and-add,
// ~18 Mops) — i.e. one pool/engine per process suffices, while throughput-
// hungry applications need multiple completion queues.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/comp_impl.hpp"
#include "core/matching.hpp"
#include "core/packet.hpp"

namespace {

using clockspec = std::chrono::steady_clock;

// Runs `fn(thread_index)` on `threads` threads; returns ops/s given
// `ops_per_thread` operations each.
double run_threads(int threads, long ops_per_thread,
                   const std::function<void(int)>& fn) {
  bench::thread_barrier_t barrier(threads + 1);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      barrier.arrive_and_wait();
      fn(t);
      barrier.arrive_and_wait();
    });
  }
  barrier.arrive_and_wait();
  const double t0 = bench::now_sec();
  barrier.arrive_and_wait();
  const double t1 = bench::now_sec();
  for (auto& th : pool) th.join();
  return static_cast<double>(ops_per_thread) * threads / (t1 - t0);
}

}  // namespace

int main() {
  const long ops = bench::iters(100000);
  std::printf(
      "# Fig.5 reproduction: individual resource throughput, one shared\n"
      "# instance, %ld op-pairs per thread\n",
      ops);
  bench::print_header("Individual resources",
                      "threads  resource        Mops/s");

  for (int threads : bench::pow2_up_to(bench::max_threads())) {
    {
      // Completion queue: shared LCRQ, push/pop pairs.
      lci::detail::cq_impl_t cq(lci::cq_type_t::lcrq, 65536);
      lci::status_t status;
      status.rank = 1;
      const double mops =
          run_threads(threads, ops, [&](int) {
            lci::status_t out;
            for (long i = 0; i < ops; ++i) {
              cq.signal(status);
              while (!cq.pop(&out)) {
              }
            }
          }) /
          1e6;
      std::printf("%7d  %-14s  %7.2f\n", threads, "comp queue", mops);
    }
    {
      // Matching engine: a send insert immediately matched by a recv insert
      // (each thread uses its own key so the pair always matches itself).
      lci::detail::matching_engine_impl_t engine(65536);
      const double mops =
          run_threads(threads, ops, [&](int t) {
            using me = lci::detail::matching_engine_impl_t;
            int dummy;
            for (long i = 0; i < ops; ++i) {
              const auto key = me::default_make_key(
                  t, static_cast<lci::tag_t>(i & 0xffff),
                  lci::matching_policy_t::rank_tag);
              engine.insert(key, &dummy, me::type_t::send);
              engine.insert(key, &dummy, me::type_t::recv);
            }
          }) /
          1e6;
      std::printf("%7d  %-14s  %7.2f\n", threads, "matching engine", mops);
    }
    {
      // Packet pool: get/put pairs on thread-local deques. Every packet
      // starts on the main thread's deque, so each worker's first get
      // steals.
      lci::detail::packet_pool_impl_t pool(8192, 1024);
      bench::fill_calling_deque(pool);
      const double mops =
          run_threads(threads, ops, [&](int) {
            for (long i = 0; i < ops; ++i) {
              lci::detail::packet_t* packet = pool.get();
              if (packet != nullptr) pool.put(packet);
            }
          }) /
          1e6;
      std::printf("%7d  %-14s  %7.2f\n", threads, "packet pool", mops);
    }
  }
  std::printf(
      "\n# Reference point (paper): the ping-pong microbenchmark peaks well\n"
      "# below the pool/engine numbers, so one instance per process is\n"
      "# enough; the completion queue is the resource worth replicating.\n");
  return 0;
}
