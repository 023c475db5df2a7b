// simmpi — an MPI-like baseline engine over the simulated fabric.
//
// Stand-in for "standard MPI" and "MPICH with the VCI extension" in the
// paper's evaluation (Sec. 5). It deliberately reproduces the structural
// properties the paper identifies as the sources of MPI's multithreaded
// penalty (Sec. 2.2):
//
//  * a global critical section: every operation (post, test, wait, progress)
//    acquires the engine's lock — per *VCI*, matching MPICH's design where
//    the legacy single-VCI build serializes everything and the VCI extension
//    replicates the lock together with the network resources;
//  * centralized in-order matching with full wildcard support (ANY_SOURCE /
//    ANY_TAG): posted receives and unexpected messages live in ordered lists
//    scanned linearly, exactly the structure hashtable-based matching cannot
//    replace while MPI's ordering guarantees hold;
//  * progress as a side effect of test/wait (plus an explicit progress()
//    for benchmark loops).
//
// The VCI extension maps an operation to VCI `tag % nvci` (mirroring MPICH's
// communicator/tag mapping); wildcard-tag receives are only legal with a
// single VCI, as in MPICH.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "net/net.hpp"

namespace simmpi {

inline constexpr int ANY_SOURCE = -1;
inline constexpr int ANY_TAG = -1;

struct status_t {
  int source = ANY_SOURCE;
  int tag = ANY_TAG;
  std::size_t count = 0;
};

namespace detail {
struct request_impl_t;
struct vci_t;
}  // namespace detail

using request_t = detail::request_impl_t*;

struct config_t {
  int nvci = 1;
  std::size_t eager_threshold = 16384;
  std::size_t prepost_depth = 256;
};

class engine_t {
 public:
  // Builds on an explicit fabric/rank, or (second form) on the calling
  // thread's sim binding.
  engine_t(std::shared_ptr<lci::net::fabric_t> fabric, int rank,
           const config_t& config = {});
  explicit engine_t(const config_t& config = {});
  ~engine_t();
  engine_t(const engine_t&) = delete;
  engine_t& operator=(const engine_t&) = delete;

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return nranks_; }
  int nvci() const noexcept { return static_cast<int>(vcis_.size()); }
  int vci_of_tag(int tag) const noexcept {
    return tag < 0 ? 0 : tag % static_cast<int>(vcis_.size());
  }

  // Nonblocking operations; the returned request is freed by the test/wait
  // that observes completion.
  request_t isend(const void* buffer, std::size_t size, int dst, int tag);
  request_t irecv(void* buffer, std::size_t size, int src, int tag);

  bool test(request_t request, status_t* status = nullptr);
  // Completion check without the progress side effect — the analogue of
  // testing a request inside an MPI_Testsome sweep where the implementation
  // amortizes one progress pass over many requests.
  bool test_nopoll(request_t request, status_t* status = nullptr);
  void wait(request_t request, status_t* status = nullptr);
  // MPI_Cancel of a receive: frees a posted receive that nothing has
  // matched yet and returns true. False means it was matched: test or wait
  // for it as usual.
  bool cancel_recv(request_t request);

  // Blocking convenience wrappers.
  void send(const void* buffer, std::size_t size, int dst, int tag);
  void recv(void* buffer, std::size_t size, int src, int tag,
            status_t* status = nullptr);

  // Explicit progress (benchmark loops); drives one VCI or all.
  void progress();
  void progress_vci(int vci);

 private:
  std::shared_ptr<lci::net::fabric_t> fabric_;
  std::unique_ptr<lci::net::context_t> context_;
  int rank_ = 0;
  int nranks_ = 1;
  config_t config_;
  std::vector<std::unique_ptr<detail::vci_t>> vcis_;
};

}  // namespace simmpi
