// Shard-count ablation for the VCI-style device sharding (paper Sec. 4.2).
//
// Shared-resource message-rate runs (the fig3 harness: 8 B AMs, windowed
// streaming) with one device per rank and device_shards swept over
// {1, 2, 4, 8}. Workers pin to shard (t mod shards), so shards=1 is the
// pre-sharding single-endpoint layout and shards>=threads gives every
// thread a private endpoint inside the shared device — the ablation
// isolates how much of the dedicated-mode rate the sharding recovers
// without allocating a device per thread.
//
// Expected shape: the 8-thread rate climbs with the shard count (endpoint
// and aggregation-slot contention falls away) and saturates once
// shards >= threads; 1-thread rates stay flat (a lone thread on shard 0
// never contends, and the extra shards only cost idle CQ polls).
#include <cstdio>
#include <memory>
#include <vector>

#include "pingpong.hpp"

namespace {

// Many-to-one "incast": N-1 sender ranks stream tagged sends at one
// receiver that keeps wildcard-tag (rank_only policy) receives posted per
// sender. A wildcard key is one matching bucket per sender whatever tag
// arrives, so every shard's arrivals from one sender serialize on that
// bucket's lock while the receiver's shards still poll their own CQs.
// Returns the receiver-side message rate in Mmsg/s.
double run_incast(int nranks, std::size_t shards, long iterations,
                  std::size_t msg_size) {
  double rate = 0.0;
  lci::sim::spawn(nranks, [&](int rank) {
    lci::runtime_attr_t attr;
    attr.device_shards = shards;
    lci::g_runtime_init(attr);
    const int receiver = 0;
    const int senders = nranks - 1;
    constexpr int window = 16;
    lci::barrier();
    if (rank == receiver) {
      lci::comp_t rcq = lci::alloc_cq();
      std::vector<long> posted(static_cast<std::size_t>(nranks), 0);
      std::vector<long> done(static_cast<std::size_t>(nranks), 0);
      std::vector<std::unique_ptr<char[]>> bufs;
      std::vector<char*> free_bufs;
      for (int i = 0; i < senders * window; ++i) {
        bufs.push_back(std::make_unique<char[]>(msg_size));
        free_bufs.push_back(bufs.back().get());
      }
      const long expected = static_cast<long>(senders) * iterations;
      long received = 0;
      const double t0 = bench::now_sec();
      while (received < expected) {
        for (int src = 1; src < nranks; ++src) {
          const auto s = static_cast<std::size_t>(src);
          while (posted[s] < iterations && posted[s] - done[s] < window &&
                 !free_bufs.empty()) {
            char* buf = free_bufs.back();
            const auto st =
                lci::post_recv_x(src, buf, msg_size, /*tag=*/0, rcq)
                    .matching_policy(lci::matching_policy_t::rank_only)
                    .allow_done(false)();
            if (st.error.is_retry()) break;
            free_bufs.pop_back();
            ++posted[s];
          }
        }
        lci::progress();
        const lci::status_t s = lci::cq_pop(rcq);
        if (s.error.is_done()) {
          ++received;
          ++done[static_cast<std::size_t>(s.rank)];
          free_bufs.push_back(static_cast<char*>(s.buffer.base));
        }
      }
      rate = static_cast<double>(expected) / (bench::now_sec() - t0) / 1e6;
      lci::barrier();
      lci::free_comp(&rcq);
    } else {
      lci::comp_t scq = lci::alloc_cq();
      std::vector<char> buf(msg_size, 'x');
      long sent = 0, completed = 0;
      while (completed < iterations) {
        if (sent < iterations && sent - completed < window) {
          // Vary the tag to prove the wildcard match: rank_only receives
          // must accept any of them.
          const auto st =
              lci::post_send_x(receiver, buf.data(), msg_size,
                               static_cast<lci::tag_t>(sent & 0xff), scq)
                  .matching_policy(lci::matching_policy_t::rank_only)();
          if (st.error.is_done()) {
            ++sent;
            ++completed;
          } else if (!st.error.is_retry()) {
            ++sent;
          }
        }
        lci::progress();
        const lci::status_t s = lci::cq_pop(scq);
        if (s.error.is_done()) ++completed;
      }
      lci::barrier();
      lci::free_comp(&scq);
    }
    lci::g_runtime_fina();
  });
  return rate;
}

}  // namespace

int main() {
  const long iterations = bench::iters(2000);
  std::printf(
      "# Shard-count ablation: shared-mode thread message rate (8B AMs)\n"
      "# one device per rank, device_shards swept; iterations/thread = %ld\n",
      iterations);

  bench::json_report_t report("shard_ablation");
  for (const bool aggregation : {false, true}) {
    bench::print_header(aggregation ? "lci+agg, shared device"
                                    : "lci, shared device",
                        "threads  shards  Mmsg/s  (aggregate uni-dir)");
    for (int threads : bench::pow2_up_to(bench::max_threads())) {
      for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
        bench::pingpong_params_t params;
        params.backend = lcw::backend_t::lci;
        params.nranks = 2;
        params.nthreads = threads;
        params.dedicated = false;
        params.use_am = true;
        params.msg_size = 8;
        params.iterations = iterations;
        params.aggregation = aggregation;
        params.agg_flush_us = 20;
        params.window = 64;
        params.device_shards = shards;
        const auto result = bench::run_pingpong(params);
        std::printf("%7d  %6zu  %9.4f\n", threads, shards,
                    result.mmsg_per_sec);
        report.row()
            .field("mode", std::string("shared"))
            .field("threads", threads)
            .field("device_shards", static_cast<long>(shards))
            .field("backend", std::string("lci"))
            .field("aggregation", aggregation ? 1 : 0)
            .field("msg_size", static_cast<long>(params.msg_size))
            .field("mmsg_per_sec", result.mmsg_per_sec);
      }
    }
  }

  // Many-to-one incast rows: wildcard-tag matching on a sharded device.
  bench::print_header("incast: N-1 senders -> 1 wildcard-tag receiver",
                      "senders  shards  Mmsg/s  (receiver-side)");
  const long incast_iters = bench::iters(1000);
  for (const int nranks : {4, 8}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      const double mmsg = run_incast(nranks, shards, incast_iters, 8);
      std::printf("%7d  %6zu  %9.4f\n", nranks - 1, shards, mmsg);
      report.row()
          .field("mode", std::string("incast"))
          .field("threads", nranks - 1)
          .field("device_shards", static_cast<long>(shards))
          .field("backend", std::string("lci"))
          .field("aggregation", 0)
          .field("msg_size", 8L)
          .field("mmsg_per_sec", mmsg);
    }
  }
  return 0;
}
