// LCW backend over simmpi: "mpi" = one VCI (standard MPI, one big lock),
// "mpix" = one VCI per LCW device (the MPICH VCI extension). Active messages
// are MPI_Isend against pre-posted MPI_Irecv buffers, exactly the strategy
// the paper's LCW uses.
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <vector>

#include "baseline/simmpi.hpp"
#include "lcw/backends.hpp"
#include "util/lcrq.hpp"
#include "util/spinlock.hpp"

namespace lcw::detail {

namespace {

constexpr std::size_t am_prepost_depth = 128;

class mpi_context_t;

class mpi_device_t final : public device_t {
 public:
  mpi_device_t(simmpi::engine_t* engine, int index, std::size_t max_am,
               bool enable_am_preposts)
      : engine_(engine), index_(index), max_am_(max_am) {
    if (enable_am_preposts) {
      for (std::size_t i = 0; i < am_prepost_depth; ++i) {
        am_buffers_.push_back(std::make_unique<char[]>(max_am_));
        post_am_prepost(am_buffers_.back().get());
      }
    }
  }

  ~mpi_device_t() override {
    // Outstanding requests reference engine state; callers quiesce first.
    // The AM preposts are always outstanding: cancel the unmatched ones and
    // retire any that completed since the last sweep.
    std::lock_guard<lci::util::spinlock_t> guard(am_lock_);
    for (const tracked_t& prepost : am_preposts_) {
      if (engine_->cancel_recv(prepost.request)) continue;
      simmpi::status_t status;
      engine_->test_nopoll(prepost.request, &status);
    }
  }

  post_t post_am(int dst, void* buffer, std::size_t size, int tag) override {
    assert(tag_routes_here(tag));
    simmpi::request_t req = engine_->isend(buffer, size, dst, tag);
    simmpi::status_t status;
    if (engine_->test_nopoll(req, &status)) return post_t::done;
    track(sends_, sends_lock_, tracked_t{req, buffer, /*am_prepost=*/false});
    return post_t::posted;
  }

  post_t post_send(int dst, void* buffer, std::size_t size, int tag) override {
    return post_am(dst, buffer, size, tag);  // same isend path
  }

  post_t post_recv(int src, void* buffer, std::size_t size, int tag) override {
    assert(tag_routes_here(tag));
    simmpi::request_t req = engine_->irecv(buffer, size, src, tag);
    simmpi::status_t status;
    if (engine_->test_nopoll(req, &status)) {
      recv_results_.push(request_t{status.source, status.tag, buffer,
                                   status.count});
      return post_t::posted;  // uniform completion through poll_recv
    }
    track(recvs_, recvs_lock_, tracked_t{req, buffer, false});
    return post_t::posted;
  }

  bool poll_send(request_t* out) override {
    if (auto r = send_results_.try_pop()) {
      *out = *r;
      return true;
    }
    return false;
  }

  bool poll_recv(request_t* out) override {
    if (auto r = recv_results_.try_pop()) {
      *out = *r;
      return true;
    }
    return false;
  }

  bool do_progress() override {
    engine_->progress_vci(engine_->nvci() > 1 ? index_ : 0);
    bool advanced = false;
    advanced |= sweep(sends_, sends_lock_, /*is_recv=*/false);
    advanced |= sweep(recvs_, recvs_lock_, /*is_recv=*/true);
    advanced |= sweep(am_preposts_, am_lock_, /*is_recv=*/true);
    return advanced;
  }

 private:
  struct tracked_t {
    simmpi::request_t request;
    void* buffer;
    bool am_prepost;
  };

  bool tag_routes_here(int tag) const {
    return engine_->nvci() == 1 || engine_->vci_of_tag(tag) == index_;
  }

  void post_am_prepost(char* buffer) {
    // One VCI (mpi backend): wildcard tag; multiple VCIs (mpix): the tag is
    // the device index, matching the benchmarks' tag convention.
    const int tag = engine_->nvci() == 1 ? simmpi::ANY_TAG : index_;
    simmpi::request_t req =
        engine_->irecv(buffer, max_am_, simmpi::ANY_SOURCE, tag);
    track(am_preposts_, am_lock_, tracked_t{req, buffer, true});
  }

  static void track(std::list<tracked_t>& list, lci::util::spinlock_t& lock,
                    tracked_t tracked) {
    std::lock_guard<lci::util::spinlock_t> guard(lock);
    list.push_back(tracked);
  }

  // Tests tracked requests; completed ones move to the result queues. The
  // per-device "replicated request pool" mirrors the paper's mpix setup.
  bool sweep(std::list<tracked_t>& list, lci::util::spinlock_t& lock,
             bool is_recv) {
    std::lock_guard<lci::util::spinlock_t> guard(lock);
    bool advanced = false;
    for (auto it = list.begin(); it != list.end();) {
      simmpi::status_t status;
      if (!engine_->test_nopoll(it->request, &status)) {
        ++it;
        continue;
      }
      advanced = true;
      if (it->am_prepost) {
        // Hand out a malloc'd copy (LCW AM convention) and re-post.
        void* copy = std::malloc(status.count ? status.count : 1);
        std::memcpy(copy, it->buffer, status.count);
        recv_results_.push(
            request_t{status.source, status.tag, copy, status.count});
        char* buffer = static_cast<char*>(it->buffer);
        it = list.erase(it);
        const int tag = engine_->nvci() == 1 ? simmpi::ANY_TAG : index_;
        simmpi::request_t req =
            engine_->irecv(buffer, max_am_, simmpi::ANY_SOURCE, tag);
        list.push_back(tracked_t{req, buffer, true});
      } else {
        auto& results = is_recv ? recv_results_ : send_results_;
        results.push(
            request_t{status.source, status.tag, it->buffer, status.count});
        it = list.erase(it);
      }
    }
    return advanced;
  }

  simmpi::engine_t* engine_;
  const int index_;
  const std::size_t max_am_;

  std::vector<std::unique_ptr<char[]>> am_buffers_;
  std::list<tracked_t> am_preposts_;
  lci::util::spinlock_t am_lock_;
  std::list<tracked_t> sends_;
  lci::util::spinlock_t sends_lock_;
  std::list<tracked_t> recvs_;
  lci::util::spinlock_t recvs_lock_;

  lci::util::lcrq_t<request_t> send_results_{256};
  lci::util::lcrq_t<request_t> recv_results_{256};
};

class mpi_context_t final : public context_t {
 public:
  mpi_context_t(const config_t& config, bool vci_extension)
      : vci_(vci_extension) {
    simmpi::config_t mpi_config;
    mpi_config.nvci = vci_extension ? config.ndevices : 1;
    if (config.eager_size != 0)
      mpi_config.eager_threshold = config.eager_size;
    engine_ = std::make_unique<simmpi::engine_t>(mpi_config);
    const int ndevices = vci_extension ? config.ndevices : 1;
    for (int i = 0; i < ndevices; ++i) {
      devices_.push_back(std::make_unique<mpi_device_t>(
          engine_.get(), i, config.max_am_size, config.enable_am));
    }
  }

  backend_t backend() const override {
    return vci_ ? backend_t::mpix : backend_t::mpi;
  }
  int rank() const override { return engine_->rank(); }
  int nranks() const override { return engine_->size(); }
  int ndevices() const override { return static_cast<int>(devices_.size()); }
  device_t* device(int index) override {
    return devices_[static_cast<std::size_t>(index)].get();
  }
  bool supports_send_recv() const override { return true; }

 private:
  bool vci_;
  std::unique_ptr<simmpi::engine_t> engine_;
  std::vector<std::unique_ptr<mpi_device_t>> devices_;
};

}  // namespace

std::unique_ptr<context_t> make_mpi_context(const config_t& config,
                                            bool vci_extension) {
  return std::make_unique<mpi_context_t>(config, vci_extension);
}

}  // namespace lcw::detail
