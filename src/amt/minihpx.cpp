#include "amt/minihpx.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "core/lci.hpp"
#include "util/backoff.hpp"

namespace minihpx {

// ---------------------------------------------------------------------------
// scheduler_t
// ---------------------------------------------------------------------------

namespace {
// Worker identity within its scheduler: set while a thread runs a worker
// loop, -1 elsewhere (external spawns go to the shared queue). A thread
// belongs to at most one scheduler at a time, so one thread-local suffices.
thread_local int tls_worker = -1;
}  // namespace

scheduler_t::scheduler_t(int nthreads) : nthreads_(nthreads) {
  assert(nthreads >= 1);
  for (int w = 0; w < nthreads; ++w)
    deques_.push_back(
        std::make_unique<lci::util::steal_deque_t<task_t*>>(256));
}

scheduler_t::~scheduler_t() { stop(); }

void scheduler_t::spawn(task_t task) {
  auto* boxed = new task_t(std::move(task));
  // Workers keep their spawns local (hot caches, no contention); external
  // threads use the shared queue.
  if (tls_worker >= 0 && tls_worker < nthreads_) {
    deques_[static_cast<std::size_t>(tls_worker)]->push_tail(boxed);
  } else {
    shared_queue_.push(boxed);
  }
}

task_t* scheduler_t::obtain_task(int worker) {
  task_t* task = nullptr;
  // 1. Own deque (LIFO end: most recently spawned — cache-warm, the
  // standard work-first policy).
  if (deques_[static_cast<std::size_t>(worker)]->pop_tail(&task)) return task;
  // 2. Shared overflow queue.
  if (auto boxed = shared_queue_.try_pop()) return *boxed;
  // 3. Steal half a random victim's deque (FIFO end: oldest tasks).
  thread_local lci::util::xoshiro256_t rng(0xfeedfacecafef00dull ^
                                           static_cast<uint64_t>(worker));
  const int victim = static_cast<int>(rng.below(
      static_cast<uint64_t>(nthreads_)));
  if (victim != worker) {
    std::vector<task_t*> loot;
    if (deques_[static_cast<std::size_t>(victim)]->try_steal_half(loot) > 0) {
      task = loot.back();
      loot.pop_back();
      for (task_t* extra : loot)
        deques_[static_cast<std::size_t>(worker)]->push_tail(extra);
      return task;
    }
  }
  return nullptr;
}

void scheduler_t::worker_loop(int worker, const std::function<bool()>* done) {
  const int previous_worker = tls_worker;
  tls_worker = worker;
  lci::util::backoff_t backoff;
  while (true) {
    if (stopping_.load(std::memory_order_acquire)) break;
    if (done != nullptr && (*done)()) break;
    if (task_t* task = obtain_task(worker)) {
      (*task)();
      delete task;
      executed_.fetch_add(1, std::memory_order_relaxed);
      backoff.reset();
      continue;
    }
    bool progressed = false;
    if (idle_fn_) progressed = idle_fn_(worker);
    if (progressed) {
      backoff.reset();
    } else {
      // Escalating idle policy instead of an unconditional yield: short idle
      // gaps stay on-core (steal/parcel latency), sustained idleness yields.
      backoff.spin();
    }
  }
  tls_worker = previous_worker;
}

void scheduler_t::start(std::function<bool(int)> idle_fn) {
  idle_fn_ = std::move(idle_fn);
  auto binding = lci::sim::current_binding();
  for (int w = 1; w < nthreads_; ++w) {
    workers_.emplace_back([this, w, binding] {
      lci::sim::scoped_binding_t bound(binding);
      worker_loop(w, nullptr);
    });
  }
}

void scheduler_t::run_until(const std::function<bool()>& done) {
  worker_loop(0, &done);
}

void scheduler_t::stop() {
  stopping_.store(true, std::memory_order_release);
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  // Drain unexecuted tasks.
  while (auto task = shared_queue_.try_pop()) delete *task;
  for (auto& deque : deques_) {
    task_t* task = nullptr;
    while (deque->pop_tail(&task)) delete task;
  }
  stopping_.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// parcelport_t
// ---------------------------------------------------------------------------

namespace {
struct parcel_header_t {
  uint32_t handler = 0;
};
}  // namespace

struct parcelport_t::impl_t {
  std::unique_ptr<lcw::context_t> ctx;
  scheduler_t* scheduler = nullptr;
  std::vector<parcel_handler_t> handlers;
  std::atomic<long> outstanding_sends{0};
  std::atomic<long> inflight_handlers{0};
  std::atomic<long> failed_parcels{0};
  std::atomic<int> round_robin{0};
};

parcelport_t::parcelport_t(const parcelport_config_t& config,
                           scheduler_t* scheduler)
    : impl_(std::make_unique<impl_t>()) {
  lcw::config_t lcw_config;
  lcw_config.ndevices =
      config.backend == lcw::backend_t::mpi ? 1 : config.ndevices;
  lcw_config.max_am_size = config.max_parcel_size + sizeof(parcel_header_t);
  lcw_config.nprogress_threads = config.nprogress_threads;
  impl_->ctx = lcw::alloc_context(config.backend, lcw_config);
  impl_->scheduler = scheduler;
}

parcelport_t::~parcelport_t() = default;

int parcelport_t::rank() const { return impl_->ctx->rank(); }
int parcelport_t::nranks() const { return impl_->ctx->nranks(); }

uint32_t parcelport_t::register_handler(parcel_handler_t handler) {
  impl_->handlers.push_back(std::move(handler));
  return static_cast<uint32_t>(impl_->handlers.size()) - 1;
}

bool parcelport_t::send_parcel(int dest, uint32_t handler, const void* data,
                               std::size_t size) {
  // Serialize header + payload (the upper layer of the paper's Listing 2
  // split: handler index rides in front of the serialized arguments).
  std::vector<char> wire(sizeof(parcel_header_t) + size);
  parcel_header_t header{handler};
  std::memcpy(wire.data(), &header, sizeof(header));
  std::memcpy(wire.data() + sizeof(header), data, size);

  // Parcels may be issued from any worker; spread them round-robin across
  // the replicated devices/VCIs (the tag equals the device index so the
  // mpix backend's tag->VCI mapping is the identity).
  const int send_device =
      impl_->round_robin.fetch_add(1, std::memory_order_relaxed) %
      impl_->ctx->ndevices();
  lcw::device_t* dev = impl_->ctx->device(send_device);
  const auto result =
      dev->post_am(dest, wire.data(), wire.size(), send_device);
  if (result == lcw::post_t::retry) return false;
  if (result == lcw::post_t::failed) {
    // Dead destination: the parcel is consumed (retrying would fail again) so
    // callers' retry loops terminate and quiescent() stays reachable.
    impl_->failed_parcels.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (result == lcw::post_t::posted)
    impl_->outstanding_sends.fetch_add(1, std::memory_order_relaxed);
  return true;
}

long parcelport_t::failed_parcels() const {
  return impl_->failed_parcels.load(std::memory_order_relaxed);
}

bool parcelport_t::progress(int worker) {
  // Each worker covers the devices congruent to it modulo the worker count,
  // so every replicated device is progressed even when ndevices exceeds the
  // thread count (e.g. the paper's mpix configuration needing 8 VCIs).
  const int ndevices = impl_->ctx->ndevices();
  const int stride = std::max(1, impl_->scheduler->nthreads());
  bool advanced = false;
  for (int d = worker % stride; d < ndevices; d += stride)
    advanced |= progress_device(d);
  if ((worker % stride) >= ndevices) advanced |= progress_device(0);
  return advanced;
}

bool parcelport_t::progress_device(int index) {
  lcw::device_t* dev = impl_->ctx->device(index);
  // Auto-progress: the backend's engine threads drive the wire; workers only
  // consume completions (draining the queues is not progress — skipping it
  // would strand arrived parcels).
  bool advanced = impl_->ctx->auto_progress() ? false : dev->do_progress();
  lcw::request_t req;
  while (dev->poll_recv(&req)) {
    advanced = true;
    impl_->inflight_handlers.fetch_add(1, std::memory_order_relaxed);
    // Parcels execute as scheduled tasks — unrestricted handlers, unlike AM
    // handlers (paper Sec. 3.2.1).
    impl_->scheduler->spawn([this, req] {
      parcel_header_t header;
      std::memcpy(&header, req.buffer, sizeof(header));
      const char* data = static_cast<const char*>(req.buffer) + sizeof(header);
      impl_->handlers[header.handler](req.rank, data,
                                      req.size - sizeof(header));
      std::free(req.buffer);
      impl_->inflight_handlers.fetch_sub(1, std::memory_order_release);
    });
  }
  while (dev->poll_send(&req)) {
    advanced = true;
    impl_->outstanding_sends.fetch_sub(1, std::memory_order_release);
  }
  return advanced;
}

bool parcelport_t::quiescent() {
  return impl_->outstanding_sends.load(std::memory_order_acquire) == 0 &&
         impl_->inflight_handlers.load(std::memory_order_acquire) == 0;
}

}  // namespace minihpx
