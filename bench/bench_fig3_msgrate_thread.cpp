// Figure 3: thread-based message-rate microbenchmark.
//
// Paper setup: one process per node, one thread per core, 8 B messages;
// (a)/(c) dedicated resources — one LCI device / MPICH VCI per thread —
// LCI vs MPIX; (b)/(d) shared resources — one global resource set — LCI vs
// MPI vs GASNet-EX. Expanse = InfiniBand (our `ibv` fabric lock model),
// Delta = Slingshot-11 (our `ofi` model).
//
// Expected shape (paper Fig. 3): LCI wins by a wide margin in both modes
// (up to >10x); MPIX recovers much of the gap with dedicated VCIs but stays
// below LCI; plain MPI collapses under threads; GASNet-EX does respectably
// in shared mode but cannot run dedicated mode at all.
//
// The lci backend additionally runs with eager coalescing on ("lci+agg"):
// small AMs from concurrent threads batch into one wire message per peer,
// so the per-message fabric cost (queue-pair lock, wire push, CQE) is paid
// once per batch instead of once per message. Message *rate* is measured
// with a deep send window (paper-style windowed streaming, not strict
// ping-pong) so the rate decouples from the round-trip; every backend and
// variant runs the same window, keeping the comparison honest.
#include <cstdio>
#include <vector>

#include "pingpong.hpp"

namespace {

struct variant_t {
  lcw::backend_t backend;
  bool aggregation;
  const char* label;
  std::size_t device_shards = 0;  // lci backend: VCI-style shards per device
};

void run_mode(bench::json_report_t& report, const char* title, const char* mode,
              bool dedicated, lci::net::lock_model_t model,
              const std::vector<variant_t>& variants, long iterations) {
  const char* lock_model =
      model == lci::net::lock_model_t::ibv ? "ibv" : "ofi";
  bench::print_header(title, "threads  backend  Mmsg/s  (aggregate uni-dir)");
  for (int threads : bench::pow2_up_to(bench::max_threads())) {
    for (const auto& variant : variants) {
      bench::pingpong_params_t params;
      params.backend = variant.backend;
      params.nranks = 2;
      params.nthreads = threads;
      params.dedicated = dedicated;
      params.use_am = true;
      params.msg_size = 8;
      params.iterations = iterations;
      params.aggregation = variant.aggregation;
      params.device_shards = variant.device_shards;
      // Streaming traffic: hold armed batches briefly so they fill toward
      // a full batch (64 messages) instead of flushing at whatever depth the
      // next progress poll happens to observe.
      params.agg_flush_us = 20;
      params.window = 64;
      params.fabric.lock_model = model;
      const auto result = bench::run_pingpong(params);
      std::printf("%7d  %7s  %9.4f\n", threads, variant.label,
                  result.mmsg_per_sec);
      report.row()
          .field("mode", std::string(mode))
          .field("lock_model", std::string(lock_model))
          .field("threads", threads)
          .field("backend", std::string(lcw::to_string(variant.backend)))
          .field("aggregation", variant.aggregation ? 1 : 0)
          .field("msg_size", static_cast<long>(params.msg_size))
          .field("mmsg_per_sec", result.mmsg_per_sec)
          .field("retry_lock", static_cast<long>(result.retry_lock));
    }
  }
}

}  // namespace

int main() {
  const long iterations = bench::iters(2000);
  std::printf(
      "# Fig.3 reproduction: thread-based message rate (8B AMs, ping-pong)\n"
      "# one simulated process per node, T threads each; iterations/thread = "
      "%ld\n"
      "# ibv lock model ~ Expanse/InfiniBand, ofi lock model ~ "
      "Delta/Slingshot-11\n",
      iterations);

  using lm = lci::net::lock_model_t;
  // The plain lci variant runs with 4 shards per device (paper Sec. 4.2
  // VCIs): each worker pins to shard (t mod 4) and gets a private endpoint
  // inside the device, which is what keeps the non-aggregated rate monotone
  // through 8 threads. The aggregation variant stays unsharded: coalescing
  // *centralizes* small sends into per-peer batches, so splitting the slots
  // across shards only dilutes them (the shard-ablation bench shows agg
  // peaking at 1-2 shards) — the two variants are the paper's two
  // contention remedies, each at its own best configuration over identical
  // traffic. device_shards=1 for the plain variant is covered by the
  // shard-ablation bench.
  const variant_t lci_plain{lcw::backend_t::lci, false, "lci", 4};
  const variant_t lci_agg{lcw::backend_t::lci, true, "lci+agg", 0};
  const variant_t mpi{lcw::backend_t::mpi, false, "mpi"};
  const variant_t mpix{lcw::backend_t::mpix, false, "mpix"};
  const variant_t gex{lcw::backend_t::gex, false, "gex"};

  bench::json_report_t report("fig3_msgrate_thread");
  run_mode(report, "(a) Dedicated resources (ibv model)", "dedicated",
           true, lm::ibv, {lci_plain, lci_agg, mpix}, iterations);
  run_mode(report, "(b) Shared resources (ibv model)", "shared",
           false, lm::ibv, {lci_plain, lci_agg, mpi, gex}, iterations);
  run_mode(report, "(c) Dedicated resources (ofi model)", "dedicated",
           true, lm::ofi, {lci_plain, lci_agg, mpix}, iterations);
  run_mode(report, "(d) Shared resources (ofi model)", "shared",
           false, lm::ofi, {lci_plain, lci_agg, mpi, gex}, iterations);
  return 0;
}
