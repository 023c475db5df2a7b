// Per-runtime statistics counters.
//
// Cheap (relaxed) instrumentation of the communication paths: protocol mix,
// retry reasons, backlog traffic, rendezvous handshakes. The hot counters
// (send_bcopy, progress_calls, recv_posted, ...) are bumped by every worker
// thread on every operation, so the block is sharded: each thread owns a
// cache-line-padded block of cells keyed by its dense util::thread_id(), and
// add() is an uncontended relaxed fetch_add on the thread's own line.
// Snapshots (lci::get_counters) sum the blocks and are approximate under
// concurrency (each counter is exact; cross-counter consistency is not
// promised), which is all debugging and benchmark reporting need.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/cacheline.hpp"
#include "util/mpmc_array.hpp"
#include "util/spinlock.hpp"
#include "util/thread.hpp"

namespace lci {

// Snapshot returned to users; see counter_id_t for meanings.
struct counters_t {
  uint64_t send_inject = 0;      // eager sends injected without a packet
  uint64_t send_bcopy = 0;       // buffer-copy eager sends
  uint64_t send_rdv = 0;         // rendezvous sends (RTS issued)
  uint64_t recv_posted = 0;      // receives inserted into a matching engine
  uint64_t recv_matched = 0;     // receives satisfied (eager or rendezvous)
  uint64_t am_delivered = 0;     // active messages signaled at the target
  uint64_t rma_put = 0;
  uint64_t rma_get = 0;
  uint64_t retry_lock = 0;       // try-lock wrapper misses surfaced
  uint64_t retry_nopacket = 0;   // packet-pool exhaustion surfaced
  uint64_t retry_nomem = 0;      // send-queue/wire back-pressure surfaced
  uint64_t backlog_pushed = 0;   // operations queued on a backlog
  uint64_t backlog_retired = 0;  // backlogged operations that completed
  uint64_t backlog_retries = 0;  // backlog retry attempts that failed again
  uint64_t backlog_peak_depth = 0;  // high-water mark of any backlog queue
  uint64_t comp_fatal = 0;       // completions delivered with a fatal error
  // Failure lifecycle: operations completed with fatal_canceled by cancel()
  // or drain(), with fatal_timeout by the deadline sweep, and with
  // fatal_peer_down by the dead-peer purge / posts naming a dead rank.
  uint64_t ops_canceled = 0;
  uint64_t ops_timed_out = 0;
  uint64_t peer_down_completions = 0;
  uint64_t progress_calls = 0;
  // Auto-progress engine (core/progress_engine.hpp): service rounds made by
  // background progress threads, rounds that advanced anything, times an
  // engine thread committed to a doorbell sleep, and times a sleeping (or
  // sleep-committing) thread was woken by a doorbell ring. The idle ratio of
  // the engine is 1 - progress_thread_advances / progress_thread_polls.
  uint64_t progress_thread_polls = 0;
  uint64_t progress_thread_advances = 0;
  uint64_t progress_sleeps = 0;
  uint64_t progress_wakeups = 0;
  // Eager-message coalescing: sub-messages appended into aggregation slots,
  // eager_batch wire messages posted, flushes forced by the matching-order
  // rule (a non-aggregated message posted to a peer with an armed slot), and
  // eager_batch wire messages received and unpacked.
  uint64_t send_coalesced = 0;
  uint64_t batches_flushed = 0;
  uint64_t batch_flush_ordering = 0;
  uint64_t recv_batches = 0;
  // Retries forced by the simulated fabric's fault-injection policy. Summed
  // over the runtime's live devices at snapshot time (not a runtime counter
  // cell, so reset_counters does not clear it).
  uint64_t fault_injected = 0;
  // Wire messages that evaporated (loss_rate drops plus traffic discarded at
  // or from dead ranks). Like fault_injected, summed over live devices at
  // snapshot time.
  uint64_t wire_dropped = 0;
  // Registration cache (net/reg_cache.hpp): acquire()s served by a resident
  // interval, acquires that had to register with the fabric, and idle entries
  // retired by LRU pressure. Read from the runtime's cache at snapshot time
  // (not counter cells, so reset_counters does not clear them); all zero when
  // the cache is disabled (reg_cache_entries = 0).
  uint64_t reg_cache_hits = 0;
  uint64_t reg_cache_misses = 0;
  uint64_t reg_cache_evictions = 0;
  // Transport health (real backends; all zero on sim). Read from the fabric
  // at snapshot time (not counter cells, so reset_counters does not clear
  // them): liveness heartbeats sent (TCP ping frames / SHM progress-epoch
  // stamps), peers declared dead by the liveness timeout (organic deaths —
  // EOF, pid gone — do not count), and producers that parked on a full SHM
  // ring's consumer-progress futex instead of spinning.
  uint64_t heartbeats_sent = 0;
  uint64_t peers_timed_out = 0;
  uint64_t backpressure_waits = 0;
};

namespace detail {

enum class counter_id_t : int {
  send_inject,
  send_bcopy,
  send_rdv,
  recv_posted,
  recv_matched,
  am_delivered,
  rma_put,
  rma_get,
  retry_lock,
  retry_nopacket,
  retry_nomem,
  backlog_pushed,
  backlog_retired,
  backlog_retries,
  backlog_peak_depth,
  comp_fatal,
  ops_canceled,
  ops_timed_out,
  peer_down_completions,
  progress_calls,
  progress_thread_polls,
  progress_thread_advances,
  progress_sleeps,
  progress_wakeups,
  send_coalesced,
  batches_flushed,
  batch_flush_ordering,
  recv_batches,
  count_  // sentinel
};

// Sharded counter block: a registry of per-thread cell blocks (the same
// MPMC-array + registration-lock shape as the packet pool's deque registry).
// add()/record_max() touch only the calling thread's block; snapshot()/
// reset() walk all registered blocks. backlog_peak_depth is a high-water
// mark, so the snapshot takes the max across blocks instead of the sum.
class counter_block_t {
 public:
  counter_block_t() = default;
  counter_block_t(const counter_block_t&) = delete;
  counter_block_t& operator=(const counter_block_t&) = delete;

  void add(counter_id_t id, uint64_t delta = 1) noexcept {
    local_block()->cells[static_cast<std::size_t>(id)].fetch_add(
        delta, std::memory_order_relaxed);
  }

  // Monotonic high-water mark (used by backlog_peak_depth): each thread
  // raises its own cell; the snapshot maxes across threads.
  void record_max(counter_id_t id, uint64_t value) noexcept {
    auto& cell = local_block()->cells[static_cast<std::size_t>(id)];
    if (value > cell.load(std::memory_order_relaxed))
      cell.store(value, std::memory_order_relaxed);
  }

  counters_t snapshot() const noexcept {
    counters_t out;
    out.send_inject = sum(counter_id_t::send_inject);
    out.send_bcopy = sum(counter_id_t::send_bcopy);
    out.send_rdv = sum(counter_id_t::send_rdv);
    out.recv_posted = sum(counter_id_t::recv_posted);
    out.recv_matched = sum(counter_id_t::recv_matched);
    out.am_delivered = sum(counter_id_t::am_delivered);
    out.rma_put = sum(counter_id_t::rma_put);
    out.rma_get = sum(counter_id_t::rma_get);
    out.retry_lock = sum(counter_id_t::retry_lock);
    out.retry_nopacket = sum(counter_id_t::retry_nopacket);
    out.retry_nomem = sum(counter_id_t::retry_nomem);
    out.backlog_pushed = sum(counter_id_t::backlog_pushed);
    out.backlog_retired = sum(counter_id_t::backlog_retired);
    out.backlog_retries = sum(counter_id_t::backlog_retries);
    out.backlog_peak_depth = max_of(counter_id_t::backlog_peak_depth);
    out.comp_fatal = sum(counter_id_t::comp_fatal);
    out.ops_canceled = sum(counter_id_t::ops_canceled);
    out.ops_timed_out = sum(counter_id_t::ops_timed_out);
    out.peer_down_completions = sum(counter_id_t::peer_down_completions);
    out.progress_calls = sum(counter_id_t::progress_calls);
    out.progress_thread_polls = sum(counter_id_t::progress_thread_polls);
    out.progress_thread_advances = sum(counter_id_t::progress_thread_advances);
    out.progress_sleeps = sum(counter_id_t::progress_sleeps);
    out.progress_wakeups = sum(counter_id_t::progress_wakeups);
    out.send_coalesced = sum(counter_id_t::send_coalesced);
    out.batches_flushed = sum(counter_id_t::batches_flushed);
    out.batch_flush_ordering = sum(counter_id_t::batch_flush_ordering);
    out.recv_batches = sum(counter_id_t::recv_batches);
    return out;
  }

  void reset() noexcept {
    const std::size_t n = blocks_.size();
    for (std::size_t i = 0; i < n; ++i) {
      cell_block_t* block = blocks_.get(i);
      if (block == nullptr) continue;
      for (auto& cell : block->cells) cell.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(util::cache_line_size) cell_block_t {
    std::atomic<uint64_t> cells[static_cast<std::size_t>(counter_id_t::count_)];
    cell_block_t() {
      for (auto& cell : cells) cell.store(0, std::memory_order_relaxed);
    }
  };

  cell_block_t* local_block() noexcept {
    const std::size_t id = util::thread_id();
    cell_block_t* block = id < blocks_.size() ? blocks_.get(id) : nullptr;
    if (block != nullptr) return block;
    auto owned = std::make_unique<cell_block_t>();
    block = owned.get();
    {
      std::lock_guard<util::spinlock_t> guard(reg_lock_);
      block_storage_.push_back(std::move(owned));
    }
    blocks_.put_extend(id, block);
    return block;
  }

  uint64_t sum(counter_id_t id) const noexcept {
    uint64_t total = 0;
    const std::size_t n = blocks_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const cell_block_t* block = blocks_.get(i);
      if (block != nullptr)
        total += block->cells[static_cast<std::size_t>(id)].load(
            std::memory_order_relaxed);
    }
    return total;
  }

  uint64_t max_of(counter_id_t id) const noexcept {
    uint64_t best = 0;
    const std::size_t n = blocks_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const cell_block_t* block = blocks_.get(i);
      if (block == nullptr) continue;
      const uint64_t value = block->cells[static_cast<std::size_t>(id)].load(
          std::memory_order_relaxed);
      if (value > best) best = value;
    }
    return best;
  }

  mutable util::mpmc_array_t<cell_block_t*> blocks_{64};
  std::vector<std::unique_ptr<cell_block_t>> block_storage_;  // reg_lock_
  util::spinlock_t reg_lock_;
};

}  // namespace detail
}  // namespace lci
