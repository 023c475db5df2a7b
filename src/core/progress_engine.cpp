// Auto-progress engine implementation. See progress_engine.hpp for the
// design (three-phase idle policy, doorbell protocol, pause-the-world).
#include "core/progress_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>

#include "core/runtime_impl.hpp"
#include "core/trace.hpp"
#include "util/backoff.hpp"

namespace lci::detail {

namespace {
// The idle policy: empty service rounds of spinning, then rounds of
// backoff, then doorbell sleeps of at most sleep_bound each.
constexpr std::size_t spin_polls = 256;
constexpr std::size_t backoff_polls = 64;
constexpr std::chrono::microseconds sleep_bound{500};
}  // namespace

progress_engine_t::progress_engine_t(runtime_impl_t* runtime,
                                     std::size_t nthreads)
    : runtime_(runtime) {
  workers_.reserve(std::max<std::size_t>(1, nthreads));
  for (std::size_t i = 0; i < std::max<std::size_t>(1, nthreads); ++i) {
    workers_.push_back(std::make_unique<worker_t>());
  }
  for (auto& worker : workers_) {
    worker->thread =
        std::thread([this, w = worker.get()]() { worker_loop(w); });
  }
}

progress_engine_t::~progress_engine_t() {
  {
    std::unique_lock<std::mutex> lock(control_mutex_);
    stopping_.store(true, std::memory_order_seq_cst);
  }
  worker_cv_.notify_all();
  for (auto& worker : workers_) {
    worker->waiter.wake();  // pull threads out of doorbell sleeps
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void progress_engine_t::attach_device(device_impl_t* device) {
  pause();
  // Least-loaded assignment keeps the common alloc_device sequence balanced
  // without a rebalancing pass.
  worker_t* target = workers_.front().get();
  for (auto& worker : workers_) {
    if (worker->devices.size() < target->devices.size()) {
      target = worker.get();
    }
  }
  target->devices.push_back(device);
  device->doorbell().attach(&target->waiter);
  resume();
}

void progress_engine_t::detach_device(device_impl_t* device) {
  pause();
  device->doorbell().attach(nullptr);
  for (auto& worker : workers_) {
    auto& devs = worker->devices;
    devs.erase(std::remove(devs.begin(), devs.end(), device), devs.end());
  }
  resume();
}

void progress_engine_t::pause() {
  std::unique_lock<std::mutex> lock(control_mutex_);
  pause_locked(lock);
}

void progress_engine_t::pause_locked(std::unique_lock<std::mutex>& lock) {
  pause_depth_.fetch_add(1, std::memory_order_seq_cst);
  for (auto& worker : workers_) worker->waiter.wake();
  control_cv_.wait(lock, [this]() {
    return parked_ == workers_.size() ||
           stopping_.load(std::memory_order_relaxed);
  });
}

void progress_engine_t::resume() {
  {
    std::unique_lock<std::mutex> lock(control_mutex_);
    resume_locked();
  }
  worker_cv_.notify_all();
}

void progress_engine_t::resume_locked() {
  // All mutations happen under control_mutex_, so this check makes an
  // unbalanced resume a harmless no-op instead of an underflow.
  if (pause_depth_.load(std::memory_order_relaxed) > 0) {
    pause_depth_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

bool progress_engine_t::paused() const {
  return pause_depth_.load(std::memory_order_acquire) > 0;
}

bool progress_engine_t::service(worker_t* worker) {
  runtime_->counters().add(counter_id_t::progress_thread_polls);
  bool advanced = false;
  for (device_impl_t* device : worker->devices) {
    try {
      if (device->progress()) advanced = true;
    } catch (const std::exception& e) {
      // progress() only throws on protocol corruption (pre-acceptance
      // invariant violations). Unwinding out of an engine thread would
      // std::terminate, so report and keep the other devices alive.
      std::fprintf(stderr, "[lci] progress engine: uncaught error: %s\n",
                   e.what());
    }
  }
  if (advanced) {
    runtime_->counters().add(counter_id_t::progress_thread_advances);
  }
  return advanced;
}

void progress_engine_t::park(worker_t* worker,
                             std::unique_lock<std::mutex>& lock) {
  ++parked_;
  control_cv_.notify_all();
  worker_cv_.wait(lock, [this]() {
    return pause_depth_.load(std::memory_order_relaxed) == 0 ||
           stopping_.load(std::memory_order_relaxed);
  });
  --parked_;
  (void)worker;
}

void progress_engine_t::idle_sleep(worker_t* worker) {
  engine_waiter_t& waiter = worker->waiter;
  // Announce intent to sleep before the final poll: a doorbell ring after
  // this point bumps seq and we either see its work in the poll below or
  // fail the seq predicate and skip the wait entirely.
  waiter.sleepers.fetch_add(1, std::memory_order_seq_cst);
  const uint64_t observed = waiter.seq.load(std::memory_order_seq_cst);
  const bool advanced = service(worker);
  bool slept = false;
  if (!advanced && !stopping_.load(std::memory_order_relaxed) &&
      pause_depth_.load(std::memory_order_relaxed) == 0) {
    // An armed aggregation slot must be age-flushed by progress(), so never
    // sleep past its flush deadline — otherwise a coalesced message could sit
    // in the slot for a full sleep_bound instead of aggregation_flush_us.
    std::chrono::microseconds bound = sleep_bound;
    for (device_impl_t* device : worker->devices) {
      if (device->has_armed_aggregation()) {
        const auto flush_us = std::chrono::microseconds(
            std::max<uint64_t>(1, device->agg_flush_us()));
        bound = std::min(bound, flush_us);
      }
    }
    std::unique_lock<std::mutex> lock(waiter.mutex);
    if (waiter.seq.load(std::memory_order_seq_cst) == observed) {
      runtime_->counters().add(counter_id_t::progress_sleeps);
      slept = true;
      const trace::span_t sleep_span =
          trace::begin(trace::kind_t::engine_sleep);
      // Bounded: a missed ring (doorbells are hints) costs at most
      // sleep_bound of latency, never liveness.
      waiter.cv.wait_for(lock, bound, [&]() {
        return waiter.seq.load(std::memory_order_relaxed) != observed ||
               stopping_.load(std::memory_order_relaxed) ||
               pause_depth_.load(std::memory_order_relaxed) != 0;
      });
      trace::end(sleep_span, trace::kind_t::engine_sleep);
    }
  }
  waiter.sleepers.fetch_sub(1, std::memory_order_seq_cst);
  if (slept && waiter.seq.load(std::memory_order_relaxed) != observed) {
    runtime_->counters().add(counter_id_t::progress_wakeups);
  }
}

void progress_engine_t::worker_loop(worker_t* worker) {
  util::backoff_t backoff;
  std::size_t idle_polls = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (pause_depth_.load(std::memory_order_acquire) != 0) {
      std::unique_lock<std::mutex> lock(control_mutex_);
      // Re-check under the lock: resume may have raced us here.
      if (pause_depth_.load(std::memory_order_relaxed) != 0 &&
          !stopping_.load(std::memory_order_relaxed)) {
        park(worker, lock);
      }
      idle_polls = 0;
      backoff.reset();
      continue;
    }

    if (service(worker)) {
      idle_polls = 0;
      backoff.reset();
      continue;
    }

    ++idle_polls;
    if (idle_polls <= spin_polls) {
      util::cpu_relax();
    } else if (idle_polls <= spin_polls + backoff_polls) {
      backoff.spin();
    } else {
      idle_sleep(worker);
      // Stay in the backoff phase after waking: bursts often arrive in
      // trains, but re-earning the sleep keeps a trickle workload from
      // pinning a core.
      idle_polls = spin_polls + 1;
      backoff.reset();
    }
  }
}

}  // namespace lci::detail
