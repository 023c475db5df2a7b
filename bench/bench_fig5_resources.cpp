// Figure 5: maximum throughput of individual LCI resources vs thread count
// (paper Sec. 5.2.3), with the resource design choices of Sec. 4.1 as
// variants.
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
//
// Cells are (resource, variant, threads):
//   cq          lcrq | array     both completion-queue types (Sec. 4.1.4);
//   matching    65536 | 64       the paper's table vs a tiny one (buckets);
//   packet_pool local | stealing get/put on the caller's deque vs a packet
//                                handed through a shared stash first, so a
//                                thread puts packets other threads got;
//   sync        per_thread       signal/test on one synchronizer per thread.
// Each cell reports the median and quartiles of bench::run_threads's timed
// passes, in millions of op pairs per second.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/comp_impl.hpp"
#include "core/matching.hpp"
#include "core/packet.hpp"
#include "util/mpmc_ring.hpp"

namespace {

using lci::detail::packet_pool_impl_t;
using lci::detail::packet_t;
using matching_t = lci::detail::matching_engine_impl_t;

constexpr std::size_t npackets = 8192;

// Gets every packet of a fresh pool on the calling thread and puts it back,
// so all of them start in this thread's deque and each worker's first get
// steals. A fresh pool carves a packet only on demand, so without this each
// worker would carve its own instead of stealing.
void fill_calling_deque(packet_pool_impl_t& pool) {
  std::vector<packet_t*> all;
  while (packet_t* packet = pool.get()) all.push_back(packet);
  for (packet_t* packet : all) pool.put(packet);
}

// Linear interpolation between closest ranks of sorted `values`.
double quantile(const std::vector<double>& values, double q) {
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace

int main() {
  const long ops = bench::iters(100000);
  const std::vector<int> thread_counts =
      bench::pow2_up_to(bench::max_threads());
  std::printf(
      "# Fig.5 reproduction: individual resource throughput, one shared\n"
      "# instance, %ld op pairs per thread per pass, median [q1, q3] of %d\n"
      "# passes after a warm-up\n",
      ops, bench::timed_passes);
  bench::print_header("Individual resources",
                      "resource     variant     threads   Mops/s  [q1, q3]");
  bench::json_report_t report("fig5_resources");
  bool clock_ok = true;

  // Times fn (ops op pairs on worker t) at `threads` threads and records the
  // row. A window that is not positive, or a pass faster than one op pair
  // per ns per thread, means the clock is broken: the cell is named and the
  // bench exits non-zero.
  const auto cell = [&](const char* resource, const std::string& variant,
                        int threads, const std::function<void(int)>& fn) {
    std::vector<double> mops;
    for (const double window : bench::run_threads(threads, fn)) {
      const double rate = static_cast<double>(ops) * threads / window / 1e6;
      if (!(window > 0) || rate > 1000.0 * threads) {
        std::fprintf(stderr,
                     "clock check failed: %s/%s at %d threads: window %.3g s, "
                     "%.4g Mops\n",
                     resource, variant.c_str(), threads, window, rate);
        clock_ok = false;
      }
      mops.push_back(rate);
    }
    std::sort(mops.begin(), mops.end());
    const double q1 = quantile(mops, 0.25), median = quantile(mops, 0.5),
                 q3 = quantile(mops, 0.75);
    std::printf("%-11s  %-10s  %7d  %7.2f  [%.2f, %.2f]\n", resource,
                variant.c_str(), threads, median, q1, q3);
    std::fflush(stdout);
    report.row()
        .field("resource", std::string(resource))
        .field("variant", variant)
        .field("threads", threads)
        .field("mops", median)
        .field("mops_q1", q1)
        .field("mops_q3", q3);
  };

  for (const auto type : {lci::cq_type_t::lcrq, lci::cq_type_t::array}) {
    for (const int threads : thread_counts) {
      lci::detail::cq_impl_t cq(type, 65536);
      cell("cq", type == lci::cq_type_t::lcrq ? "lcrq" : "array", threads,
           [&](int) {
             const lci::status_t status;
             lci::status_t out;
             for (long i = 0; i < ops; ++i) {
               cq.signal(status);
               while (!cq.pop(&out)) {
               }
             }
           });
    }
  }

  // Each thread uses its own rank in the key, so a send insert is always
  // matched by the thread's own recv insert.
  for (const std::size_t buckets : {std::size_t{65536}, std::size_t{64}}) {
    for (const int threads : thread_counts) {
      matching_t engine(buckets);
      cell("matching", std::to_string(buckets), threads, [&](int t) {
        int dummy;
        for (long i = 0; i < ops; ++i) {
          const auto key = matching_t::default_make_key(
              t, static_cast<lci::tag_t>(i & 0xffff),
              lci::matching_policy_t::rank_tag);
          engine.insert(key, &dummy, matching_t::type_t::send);
          engine.insert(key, &dummy, matching_t::type_t::recv);
        }
      });
    }
  }

  for (const int threads : thread_counts) {
    packet_pool_impl_t pool(npackets, 1024);
    fill_calling_deque(pool);
    cell("packet_pool", "local", threads, [&](int) {
      for (long i = 0; i < ops; ++i) {
        if (packet_t* packet = pool.get()) pool.put(packet);
      }
    });
  }
  for (const int threads : thread_counts) {
    packet_pool_impl_t pool(npackets, 1024);
    fill_calling_deque(pool);
    // Holds every packet of the pool, so a push never fails.
    lci::util::mpmc_ring_t<packet_t*> stash(npackets);
    cell("packet_pool", "stealing", threads, [&](int) {
      for (long i = 0; i < ops; ++i) {
        if (packet_t* packet = pool.get()) stash.try_push(packet);
        if (const auto recycled = stash.try_pop()) pool.put(*recycled);
      }
    });
  }

  for (const int threads : thread_counts) {
    cell("sync", "per_thread", threads, [&](int) {
      lci::detail::sync_impl_t sync(1);
      const lci::status_t status;
      lci::status_t out;
      for (long i = 0; i < ops; ++i) {
        sync.signal(status);
        sync.test(&out);
      }
    });
  }

  std::printf(
      "\n# Reference point (paper): the ping-pong microbenchmark peaks well\n"
      "# below the pool/engine numbers, so one instance per process is\n"
      "# enough; the completion queue is the resource worth replicating.\n");
  if (!clock_ok) {
    std::fprintf(stderr, "fig5_resources: clock check failed\n");
    return 1;
  }
  return 0;
}
