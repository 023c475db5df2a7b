// LCW — the Lightweight Communication Wrapper (paper Sec. 5.2).
//
// "To ensure uniformity across different communication libraries, we build a
// simple layer (LCW) on top of LCI, MPI, and GASNet-EX and use it to write
// the microbenchmarks." This is that layer: non-blocking active messages and
// send-receive over four backends:
//
//   lci   — this repository's LCI (device per LCW device),
//   mpi   — simmpi with one VCI (standard MPI: one big lock),
//   mpix  — simmpi with one VCI per LCW device (MPICH VCI extension),
//   gex   — simgex (GASNet-EX: shared endpoint, AM only, no send-receive).
//
// Conventions (matching the paper's microbenchmarks):
//  * LCW devices are numbered 0..ndevices-1; callers direct an operation at a
//    device and use `tag == device index` so the mpix backend's tag→VCI
//    mapping is the identity (the paper sets mpi_assert_no_any_tag etc. for
//    the same reason).
//  * AM payloads delivered by poll_recv are malloc'd; the caller frees them
//    with std::free. Completed tagged receives report the caller's buffer.
//  * Dedicated-resource mode: each thread allocates (uses) its own device.
//    Shared-resource mode: every thread uses device 0 with ndevices == 1.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

namespace lcw {

enum class backend_t { lci, mpi, mpix, gex };

const char* to_string(backend_t backend);
backend_t backend_from_string(const std::string& name);

// Completion record returned by the polling calls. `failed` marks an
// operation the backend terminated with a fatal error (peer death,
// cancellation, deadline) instead of completing normally; the buffer is
// returned to the caller but holds no delivered data.
struct request_t {
  int rank = -1;
  int tag = 0;
  void* buffer = nullptr;
  std::size_t size = 0;
  bool failed = false;
};

// Posting result: retry = resubmit later; done = completed immediately (the
// buffer is reusable, no completion will be reported); posted = a completion
// will appear on the send queue; failed = the operation can never complete
// (the destination is dead, or the backend raised a fatal error) — the buffer
// is back in the caller's hands and resubmitting would fail again.
enum class post_t { retry, done, posted, failed };

class device_t {
 public:
  virtual ~device_t() = default;

  virtual post_t post_am(int dst, void* buffer, std::size_t size, int tag) = 0;
  virtual post_t post_send(int dst, void* buffer, std::size_t size,
                           int tag) = 0;
  virtual post_t post_recv(int src, void* buffer, std::size_t size,
                           int tag) = 0;

  // Local completions of `posted` operations.
  virtual bool poll_send(request_t* out) = 0;
  // Delivered active messages (malloc'd payload) and completed receives.
  virtual bool poll_recv(request_t* out) = 0;

  virtual bool do_progress() = 0;
};

// Backend-health counters surfaced for benchmarks: zero on backends that
// have no equivalent (mpi, gex). retry_lock counts try-lock misses inside
// the backend's progress/posting paths — a lock-free receive path should
// hold it at zero.
struct counters_t {
  uint64_t retry_lock = 0;
};

class context_t {
 public:
  virtual ~context_t() = default;
  virtual backend_t backend() const = 0;
  virtual int rank() const = 0;
  virtual int nranks() const = 0;
  virtual int ndevices() const = 0;
  virtual device_t* device(int index) = 0;
  virtual bool supports_send_recv() const = 0;
  // True when the backend's devices are progressed by background threads
  // (config_t::nprogress_threads > 0 on a backend that supports it): callers
  // may skip do_progress() entirely; poll_send/poll_recv alone complete
  // traffic. do_progress() stays legal (mixed mode).
  virtual bool auto_progress() const { return false; }
  // Snapshot of the backend's health counters (approximate under
  // concurrency, like the underlying lci counters).
  virtual counters_t counters() const { return {}; }
};

struct config_t {
  int ndevices = 1;                 // forced to 1 by the mpi and gex backends
  std::size_t max_am_size = 8192;   // largest AM payload
  std::size_t npackets = 0;         // lci backend: 0 = runtime default
  // Eager/rendezvous switch-over. Applied to both the lci backend (packet
  // size) and the mpi backend (eager threshold) so protocol crossovers line
  // up in comparisons. 0 = backend defaults.
  std::size_t eager_size = 0;
  // mpi/mpix: pre-post AM receive buffers at context creation. Turn off for
  // pure send-receive workloads — a wildcard AM pre-post would otherwise
  // steal tagged messages (MPI's ordered wildcard matching).
  bool enable_am = true;
  // lci backend: number of background progress threads servicing this
  // context's devices. 0 (default) keeps progress explicit via do_progress();
  // > 0 turns on the runtime's auto-progress engine (context_t::auto_progress
  // reports true) and workers only need the poll_* calls. Other backends
  // ignore this.
  int nprogress_threads = 0;
  // lci backend: coalesce small eager sends/AMs into per-peer batches
  // (lci runtime_attr_t::allow_aggregation). Other backends ignore this.
  bool enable_aggregation = false;
  // lci backend, with enable_aggregation: how long (microseconds) progress
  // may hold an armed batch before flushing it. 0 (default) flushes whatever
  // accumulated on every progress poll — no added latency, batches only form
  // between polls. A small positive hold lets slots fill toward a full
  // batch (64 messages or one packet) under windowed/streaming traffic at
  // the cost of a bounded delivery delay (the classic parcel-coalescing
  // trade).
  uint64_t aggregation_flush_us = 0;
  // lci backend: internal shards per device (lci runtime_attr_t::
  // device_shards) — each shard owns its own network endpoint and
  // aggregation slots, and threads can pin themselves to a shard with
  // lci::pin_thread_shard. 0 = runtime default. Other backends ignore this.
  std::size_t device_shards = 0;
};

// Collective call: every rank must allocate its context before any traffic
// flows (resource registrations must line up across ranks).
std::unique_ptr<context_t> alloc_context(backend_t backend,
                                         const config_t& config = {});

}  // namespace lcw
