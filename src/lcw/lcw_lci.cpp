// LCW backend over LCI: one LCI device (+ send/recv completion queues and a
// registered remote completion) per LCW device.
#include <cstdlib>
#include <vector>

#include "core/lci.hpp"
#include "lcw/backends.hpp"

namespace lcw::detail {

namespace {

class lci_device_t final : public device_t {
 public:
  lci_device_t(lci::runtime_t runtime, int index, bool auto_progress)
      : runtime_(runtime), index_(index) {
    device_ = lci::alloc_device_x()
                  .runtime(runtime_)
                  .auto_progress(auto_progress)();
    scq_ = lci::alloc_cq(runtime_);
    rcq_ = lci::alloc_cq(runtime_);
    rcomp_ = lci::register_rcomp(rcq_, runtime_);
  }

  ~lci_device_t() override {
    lci::deregister_rcomp(rcomp_, runtime_);
    lci::free_comp(&rcq_);
    lci::free_comp(&scq_);
    lci::free_device(&device_);
  }

  lci::rcomp_t rcomp() const { return rcomp_; }

  post_t post_am(int dst, void* buffer, std::size_t size, int tag) override {
    // Symmetric device layout: traffic from device i lands on the peer's
    // device i, whose rcq has the same rcomp id on every rank.
    const auto status = lci::post_am_x(dst, buffer, size, scq_, rcomp_)
                            .tag(static_cast<lci::tag_t>(tag))
                            .runtime(runtime_)
                            .device(device_)();
    return map(status);
  }

  post_t post_send(int dst, void* buffer, std::size_t size, int tag) override {
    const auto status =
        lci::post_send_x(dst, buffer, size, static_cast<lci::tag_t>(tag), scq_)
            .runtime(runtime_)
            .device(device_)();
    return map(status);
  }

  post_t post_recv(int src, void* buffer, std::size_t size, int tag) override {
    const auto status =
        lci::post_recv_x(src, buffer, size, static_cast<lci::tag_t>(tag), rcq_)
            .runtime(runtime_)
            .device(device_)
            .allow_done(false)();  // uniform completion through the rcq
    return map(status);
  }

  bool poll_send(request_t* out) override { return pop(scq_, out); }
  bool poll_recv(request_t* out) override { return pop(rcq_, out); }

  bool do_progress() override {
    return lci::progress_x().runtime(runtime_).device(device_)();
  }

 private:
  static post_t map(const lci::status_t& status) {
    if (status.error.is_done()) return post_t::done;
    if (status.error.is_posted()) return post_t::posted;
    // Fatal statuses (dead peer, cancellation, deadline) map to `failed` so
    // callers' retry loops terminate instead of spinning on a dead rank.
    if (status.error.is_fatal()) return post_t::failed;
    return post_t::retry;
  }

  static bool pop(lci::comp_t cq, request_t* out) {
    const lci::status_t status = lci::cq_pop(cq);
    // Fatal completions (peer death, cancel, deadline) are completions too:
    // they hand the buffer back and must drain, not vanish.
    if (!status.error.is_done() && !status.error.is_fatal()) return false;
    out->rank = status.rank;
    out->tag = static_cast<int>(status.tag);
    out->buffer = status.buffer.base;
    out->size = status.buffer.size;
    out->failed = status.error.is_fatal();
    return true;
  }

  lci::runtime_t runtime_;
  int index_;
  lci::device_t device_{};
  lci::comp_t scq_{};
  lci::comp_t rcq_{};
  lci::rcomp_t rcomp_ = lci::rcomp_null;
};

class lci_context_t final : public context_t {
 public:
  explicit lci_context_t(const config_t& config) {
    lci::runtime_attr_t attr;
    attr.packet_size = std::max<std::size_t>(4096, config.max_am_size + 64);
    attr.packet_size = std::max(attr.packet_size, config.eager_size);
    if (config.npackets != 0) {
      attr.npackets = config.npackets;
    } else {
      // Default pool bounded to ~64 MiB regardless of the packet size.
      attr.npackets = std::max<std::size_t>(
          1024, (64u << 20) / attr.packet_size);
    }
    // The paper's 64Ki-bucket default is per-process; with many simulated
    // ranks in one process a smaller table keeps memory reasonable while
    // preserving the low-load-factor fast path.
    attr.matching_engine_buckets = 8192;
    auto_progress_ = config.nprogress_threads > 0;
    if (auto_progress_) {
      attr.nprogress_threads =
          static_cast<std::size_t>(config.nprogress_threads);
    }
    attr.allow_aggregation = config.enable_aggregation;
    // Default flush-age 0 = "whatever accumulated since the last progress
    // poll": batches form between polls without the runtime's 100us timer
    // ever adding latency to this wrapper's poll-driven workloads. Callers
    // running windowed/streaming traffic can pass a small hold instead so
    // slots fill toward a full batch (64 messages or one packet).
    if (config.enable_aggregation)
      attr.aggregation_flush_us = config.aggregation_flush_us;
    if (config.device_shards != 0) attr.device_shards = config.device_shards;
    runtime_ = lci::alloc_runtime(attr);
    devices_.reserve(static_cast<std::size_t>(config.ndevices));
    for (int i = 0; i < config.ndevices; ++i)
      devices_.push_back(
          std::make_unique<lci_device_t>(runtime_, i, auto_progress_));
  }

  ~lci_context_t() override {
    devices_.clear();
    lci::free_runtime(&runtime_);
  }

  backend_t backend() const override { return backend_t::lci; }
  int rank() const override { return lci::get_rank_me(runtime_); }
  int nranks() const override { return lci::get_rank_n(runtime_); }
  int ndevices() const override { return static_cast<int>(devices_.size()); }
  device_t* device(int index) override {
    return devices_[static_cast<std::size_t>(index)].get();
  }
  bool supports_send_recv() const override { return true; }
  bool auto_progress() const override { return auto_progress_; }
  counters_t counters() const override {
    const lci::counters_t c = lci::get_counters(runtime_);
    counters_t out;
    out.retry_lock = c.retry_lock;
    out.route_cache_hits = c.route_cache_hits;
    return out;
  }

 private:
  lci::runtime_t runtime_{};
  std::vector<std::unique_ptr<lci_device_t>> devices_;
  bool auto_progress_ = false;
};

}  // namespace

std::unique_ptr<context_t> make_lci_context(const config_t& config) {
  return std::make_unique<lci_context_t>(config);
}

}  // namespace lcw::detail
