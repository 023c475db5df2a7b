// minihpx — a miniature Asynchronous Many-Task runtime (the HPX stand-in for
// the paper's Sec. 5.4 evaluation; see DESIGN.md substitutions).
//
// Provides the two things the paper's AMT experiment depends on:
//  * a task scheduler in the HPX style: per-worker deques with work
//    stealing (a worker pushes and pops its own deque; an idle worker steals
//    from a random victim), plus a shared overflow queue for tasks spawned
//    by non-worker threads. Each worker runs an idle hook when it finds no
//    work — this is where communication progress happens ("all worker
//    threads periodically progress the network", the regime LCI targets);
//  * a *parcelport*: the HPX abstraction for sending serialized messages
//    (parcels) that execute a registered handler at the destination. The
//    implementation rides on LCW, so the same application runs over the
//    lci, mpi, and mpix backends exactly as Fig. 7 compares them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "lcw/lcw.hpp"
#include "util/lcrq.hpp"
#include "util/rng.hpp"
#include "util/steal_deque.hpp"

namespace minihpx {

using task_t = std::function<void()>;

// ---------------------------------------------------------------------------
// Task scheduler
// ---------------------------------------------------------------------------
class scheduler_t {
 public:
  // `nthreads` workers; `idle_fn(worker)` runs whenever a worker finds the
  // queue empty (returns true if it made progress). Workers must be started
  // with start() from a thread holding the rank binding they should inherit.
  explicit scheduler_t(int nthreads);
  ~scheduler_t();

  void spawn(task_t task);
  void start(std::function<bool(int)> idle_fn);
  // Blocks until `done()` returns true; the calling thread participates as
  // worker 0.
  void run_until(const std::function<bool()>& done);
  void stop();

  int nthreads() const noexcept { return nthreads_; }
  std::size_t tasks_executed() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(int worker, const std::function<bool()>* done);
  task_t* obtain_task(int worker);

  const int nthreads_;
  // Per-worker deques (owner works the tail, thieves take from the head)
  // plus a shared overflow queue for external spawns (completion handlers
  // running outside the pool, the main thread before start()).
  std::vector<std::unique_ptr<lci::util::steal_deque_t<task_t*>>> deques_;
  lci::util::lcrq_t<task_t*> shared_queue_{1024};
  std::function<bool(int)> idle_fn_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> executed_{0};
};

// ---------------------------------------------------------------------------
// Parcelport
// ---------------------------------------------------------------------------

// A parcel handler receives (source rank, payload); it runs as a scheduled
// task (unrestricted, unlike an AM handler — it may communicate).
using parcel_handler_t =
    std::function<void(int src, const void* data, std::size_t size)>;

struct parcelport_config_t {
  lcw::backend_t backend = lcw::backend_t::lci;
  int ndevices = 1;  // LCI devices / MPICH VCIs (Fig. 7's tuning knob)
  std::size_t max_parcel_size = 8192;
  // Background progress threads (lci backend only): > 0 offloads network
  // progress from the scheduler's idle hook — workers then only poll the
  // completion queues for arrived parcels, the "dedicated progress thread"
  // configuration of the HPX+LCI study.
  int nprogress_threads = 0;
};

class parcelport_t {
 public:
  parcelport_t(const parcelport_config_t& config, scheduler_t* scheduler);
  ~parcelport_t();

  int rank() const;
  int nranks() const;

  // Handler registration (collective: same order on every rank).
  uint32_t register_handler(parcel_handler_t handler);

  // Nonblocking: false = resources busy, retry (the caller is a task; it can
  // yield and come back, the pattern LCI's retry code enables). A parcel
  // addressed to a dead rank returns true (consumed — retrying can never
  // succeed) and is counted in failed_parcels() instead of being delivered.
  bool send_parcel(int dest, uint32_t handler, const void* data,
                   std::size_t size);

  // Parcels dropped because their destination rank was dead.
  long failed_parcels() const;

  // Progress hook for scheduler idle loops: polls device (worker % ndevices)
  // and enqueues handler tasks for arrived parcels.
  bool progress(int worker);

  // Outstanding send completions drained?
  bool quiescent();

 private:
  bool progress_device(int index);

  struct impl_t;
  std::unique_ptr<impl_t> impl_;
};

}  // namespace minihpx
