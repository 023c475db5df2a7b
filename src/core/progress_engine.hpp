// The auto-progress engine: runtime-owned background progress threads.
//
// The paper deliberately keeps progress() explicit (Sec. 3.2.6) and leaves
// *who* calls it to the client. The companion HPX+LCI study shows that choice
// — worker-loop polling vs dedicated progress threads — is a first-order
// performance knob for AMT runtimes, so this subsystem makes the dedicated
// mode a runtime service without touching the critical path of the explicit
// mode: a pool of engine threads, each servicing a round-robin subset of the
// runtime's auto-progressed devices with a three-phase idle policy
//
//   spin  (256 empty rounds of immediate re-polling)
//     -> backoff (64 rounds of util::backoff_t, which escalates pause
//                 loops into sched_yield)
//     -> sleep (condvar wait, bounded by 500 us, armed against the
//               per-device doorbells)
//
// Doorbell protocol. Every device owns a doorbell (registered with its net
// device; also rung by the core's backlog-push sites). ring() forwards to the
// waiter of the engine thread servicing the device. The sleep/wake race is
// closed the standard way: the sleeper (1) registers itself in
// waiter_t::sleepers, (2) snapshots waiter_t::seq, (3) re-polls its devices
// once — any ring that fired before (1) left work this poll observes — and
// only then (4) waits on the condvar with a predicate on seq, which ring()
// bumps before notifying. Because a doorbell is a hint (e.g. a packet-pool
// refill that unblocks prepost replenishment rings nothing), every sleep is
// additionally bounded; a missed ring costs latency, never liveness.
//
// pause()/resume() give quiescence: pause blocks until every engine thread is
// parked outside progress(), so callers can mutate device sets (attach,
// detach, teardown) with no engine thread in flight. Attach/detach use it
// internally (stop-the-world; device churn is rare).
//
// Exactly-once interaction with the fatal paths: engine threads drive the
// same device_impl_t::progress() as user threads, so post-acceptance fatal
// errors keep flowing through completion objects (never thrown — a throw out
// of an engine thread would terminate the process, so protocol-corruption
// exceptions are caught and logged instead of unwinding).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/counters.hpp"
#include "net/net.hpp"
#include "util/cacheline.hpp"

namespace lci::detail {

class device_impl_t;
class runtime_impl_t;

// Per-engine-thread wait state the doorbells forward into.
struct engine_waiter_t {
  std::mutex mutex;
  std::condition_variable cv;
  std::atomic<uint64_t> seq{0};
  std::atomic<int> sleepers{0};

  void wake() noexcept {
    seq.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers.load(std::memory_order_seq_cst) > 0) {
      // Taking and dropping the mutex orders this wake against a sleeper
      // between its predicate check and the actual wait; notifying outside
      // the lock keeps the woken thread from immediately blocking on it.
      { std::lock_guard<std::mutex> guard(mutex); }
      cv.notify_all();
    }
  }
};

// Per-device doorbell: registered with the net device (rung by peers pushing
// onto this device's wire and by local dispatch-worthy completions) and rung
// directly by the core's backlog-push sites. A ring is counted and forwarded
// only when an engine waiter is attached: with none attached, ring() is one
// load of a line nobody writes, so the senders to every shard of the device
// can ring it per message without contending. The doorbell owns its cache
// line, so the counter bumped by an attached engine's rings never shares a
// line with device state read on every post.
class alignas(util::cache_line_size) doorbell_impl_t final
    : public net::doorbell_t {
 public:
  void ring() noexcept override {
    engine_waiter_t* w = waiter_.load(std::memory_order_acquire);
    if (w == nullptr) return;
    rings_.fetch_add(1, std::memory_order_relaxed);
    w->wake();
  }

  void attach(engine_waiter_t* waiter) noexcept {
    waiter_.store(waiter, std::memory_order_release);
  }
  uint64_t rings() const noexcept {
    return rings_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<engine_waiter_t*> waiter_{nullptr};
  std::atomic<uint64_t> rings_{0};
};
static_assert(sizeof(doorbell_impl_t) == util::cache_line_size,
              "the doorbell owns exactly one cache line");

class progress_engine_t {
 public:
  progress_engine_t(runtime_impl_t* runtime, std::size_t nthreads);
  ~progress_engine_t();  // stops and joins every engine thread
  progress_engine_t(const progress_engine_t&) = delete;
  progress_engine_t& operator=(const progress_engine_t&) = delete;

  // Stop-the-world device-set mutation: pauses (if running), assigns the
  // device to the least-loaded engine thread (attach) or removes it
  // (detach), wires its doorbell, resumes. Safe from any thread.
  void attach_device(device_impl_t* device);
  void detach_device(device_impl_t* device);

  // Quiescence. pause() returns only when every engine thread is parked
  // outside progress(); nested pauses stack.
  void pause();
  void resume();
  bool paused() const;

  std::size_t nthreads() const noexcept { return workers_.size(); }

 private:
  struct worker_t {
    engine_waiter_t waiter;
    std::vector<device_impl_t*> devices;  // mutated only while paused
    std::thread thread;
  };

  void worker_loop(worker_t* worker);
  bool service(worker_t* worker);      // one round over the worker's devices
  void idle_sleep(worker_t* worker);   // phase 3 of the idle policy
  void park(worker_t* worker, std::unique_lock<std::mutex>& lock);
  void pause_locked(std::unique_lock<std::mutex>& lock);
  void resume_locked();

  runtime_impl_t* const runtime_;

  std::vector<std::unique_ptr<worker_t>> workers_;

  // Control plane (pause/resume/stop). Engine threads only touch it when
  // idle or parking, so the data plane never contends on this mutex.
  mutable std::mutex control_mutex_;
  std::condition_variable control_cv_;  // signaled by workers: parked count
  std::condition_variable worker_cv_;   // signaled at resume/stop
  std::atomic<bool> stopping_{false};
  std::atomic<int> pause_depth_{0};     // >0: workers must park
  std::size_t parked_ = 0;              // guarded by control_mutex_
};

}  // namespace lci::detail
