// Ablation: the runtime design choices of paper Sec. 4.1, measured head to
// head (the per-experiment index in DESIGN.md calls these out):
//  * completion queue: LCRQ vs the FAA fixed-size array (Sec. 4.1.4 ships
//    both);
//  * matching engine: the paper's 64Ki-bucket table (low load factor, inline
//    fast path) vs a deliberately tiny table (high load factor, overflow
//    paths exercised);
//  * packet pool: thread-local steady state vs the stealing path (the main
//    thread gets every packet and puts it back before timing, so every
//    packet starts on its deque and every worker must steal).
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/comp_impl.hpp"
#include "core/matching.hpp"
#include "core/packet.hpp"

namespace {

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
  return static_cast<double>(ops_per_thread) * threads / (t1 - t0) / 1e6;
}

}  // namespace

int main() {
  const long ops = bench::iters(100000);
  std::printf("# Ablations over individual resource designs (%ld ops/thread)\n",
              ops);

  bench::print_header("Completion queue implementation",
                      "threads  impl   Mops/s (push/pop pairs)");
  for (int threads : bench::pow2_up_to(bench::max_threads())) {
    for (const auto type : {lci::cq_type_t::lcrq, lci::cq_type_t::array}) {
      lci::detail::cq_impl_t cq(type, 65536);
      lci::status_t status;
      const double mops = run_threads(threads, ops, [&](int) {
        lci::status_t out;
        for (long i = 0; i < ops; ++i) {
          cq.signal(status);
          while (!cq.pop(&out)) {
          }
        }
      });
      std::printf("%7d  %-5s  %7.2f\n", threads,
                  type == lci::cq_type_t::lcrq ? "lcrq" : "array", mops);
    }
  }

  bench::print_header("Matching engine load factor",
                      "threads  buckets  Mops/s (insert pairs)");
  for (int threads : bench::pow2_up_to(bench::max_threads())) {
    for (const std::size_t buckets : {std::size_t{64}, std::size_t{65536}}) {
      lci::detail::matching_engine_impl_t engine(buckets);
      const double mops = run_threads(threads, ops, [&](int t) {
        using me = lci::detail::matching_engine_impl_t;
        int dummy;
        for (long i = 0; i < ops; ++i) {
          const auto key =
              me::default_make_key(t, static_cast<lci::tag_t>(i & 0x3fff),
                                   lci::matching_policy_t::rank_tag);
          engine.insert(key, &dummy, me::type_t::send);
          engine.insert(key, &dummy, me::type_t::recv);
        }
      });
      std::printf("%7d  %7zu  %7.2f\n", threads, buckets, mops);
    }
  }

  bench::print_header("Packet pool: local vs stealing",
                      "threads  pattern   Mops/s (get/put pairs)");
  for (int threads : bench::pow2_up_to(bench::max_threads())) {
    {
      // Steady state: each thread quickly accumulates a working set in its
      // own deque (one steal at warmup, local thereafter).
      lci::detail::packet_pool_impl_t pool(8192, 1024);
      bench::fill_calling_deque(pool);
      const double mops = run_threads(threads, ops, [&](int) {
        for (long i = 0; i < ops; ++i) {
          if (auto* p = pool.get()) pool.put(p);
        }
      });
      std::printf("%7d  %-8s  %7.2f\n", threads, "local", mops);
    }
    {
      // Adversarial: return every packet to where it came from never happens
      // — get from the pool, hand to a global stash, force constant steals.
      lci::detail::packet_pool_impl_t pool(8192, 1024);
      bench::fill_calling_deque(pool);
      lci::util::lcrq_t<lci::detail::packet_t*> stash(8192);
      const double mops = run_threads(threads, ops, [&](int) {
        for (long i = 0; i < ops; ++i) {
          lci::detail::packet_t* p = pool.get();
          if (p == nullptr) {
            // Pool ran dry locally: recycle from the stash.
            if (auto q = stash.try_pop()) pool.put(*q);
            continue;
          }
          stash.push(p);
          if (auto q = stash.try_pop()) pool.put(*q);
        }
      });
      std::printf("%7d  %-8s  %7.2f\n", threads, "stealing", mops);
    }
  }
  return 0;
}
