// Internal runtime, device, backlog-queue, and rendezvous bookkeeping.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/comp_impl.hpp"
#include "core/counters.hpp"
#include "core/lci.hpp"
#include "core/matching.hpp"
#include "core/packet.hpp"
#include "core/progress_engine.hpp"
#include "core/protocol.hpp"
#include "net/net.hpp"
#include "net/reg_cache.hpp"
#include "util/cacheline.hpp"
#include "util/mpmc_array.hpp"
#include "util/spinlock.hpp"
#include "util/thread.hpp"

namespace lci::detail {

class device_impl_t;
struct recv_entry_t;

// Monotonic nanosecond clock used for operation deadlines.
inline uint64_t now_ns() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The calling thread's shard pin (set via lci::pin_thread_shard, applied
// modulo each device's shard count); -1 = unpinned. Defined in device.cpp.
int thread_shard_hint() noexcept;

// How a backlogged operation is being invoked: `run` retries the submission;
// `cancel` tells the op it will never run again and must deliver
// fatal_canceled to its own completion object (or report nothing owed).
enum class backlog_action_t : uint8_t { run, cancel };

// ---------------------------------------------------------------------------
// Backlog queue (paper Sec. 4.1.5): holds communication requests that could
// not be submitted and cannot be bounced back to the user. Rarely used, so a
// simple locked deque suffices; the atomic flag keeps the progress engine
// from probing an empty queue.
// ---------------------------------------------------------------------------
class backlog_queue_t {
 public:
  // A backlogged operation: returns a status; retry-category => stay queued.
  // Done/posted/fatal all retire the entry — an op that can fail fatally
  // must deliver that error to its completion object itself (the queue has
  // no idea who to tell), and must not throw. Invoked with `cancel` (by
  // drain_abort) the op must not touch the network; it delivers
  // fatal_canceled itself and returns a non-retry status.
  using op_t = std::function<status_t(backlog_action_t)>;

  // Optional statistics sink: the owning device points this at its
  // runtime's counter block so pushes, retries, retirements, and the depth
  // high-water mark are accounted (null: standalone use, e.g. unit tests).
  void bind_counters(counter_block_t* counters) { counters_ = counters; }

  void push(op_t op) {
    // Park span: opened here, ended when the entry retires (or is aborted).
    // trace_id 0 when tracing is off or the entry was sampled out.
    entry_t entry{std::move(op),
                  trace::begin(trace::kind_t::backlog)};
    std::size_t depth;
    {
      std::lock_guard<util::spinlock_t> guard(lock_);
      queue_.push_back(std::move(entry));
      depth = queue_.size();
      nonempty_.store(true, std::memory_order_release);
    }
    if (counters_ != nullptr)
      counters_->record_max(counter_id_t::backlog_peak_depth, depth);
  }

  // Retries queued operations in order; stops at the first one that still
  // cannot be submitted. Returns true if any operation was retired.
  bool progress() {
    if (!nonempty_.load(std::memory_order_acquire)) return false;
    bool advanced = false;
    while (true) {
      entry_t entry;
      {
        std::lock_guard<util::spinlock_t> guard(lock_);
        if (queue_.empty()) {
          nonempty_.store(false, std::memory_order_release);
          return advanced;
        }
        entry = std::move(queue_.front());
        queue_.pop_front();
      }
      const status_t status = entry.op(backlog_action_t::run);
      if (status.error.is_retry()) {
        if (counters_ != nullptr)
          counters_->add(counter_id_t::backlog_retries);
        std::lock_guard<util::spinlock_t> guard(lock_);
        queue_.push_front(std::move(entry));
        return advanced;
      }
      trace::end(entry.span, trace::kind_t::backlog,
                 static_cast<uint8_t>(status.error.code));
      if (counters_ != nullptr) counters_->add(counter_id_t::backlog_retired);
      advanced = true;
    }
  }

  // Pops every queued operation and invokes it with `cancel`; each op
  // delivers fatal_canceled to its own completion object. Returns the number
  // of entries aborted. Only safe while no other thread can run progress()
  // on this queue (drain() calls it under progress-pause quiescence).
  std::size_t drain_abort() {
    std::deque<entry_t> taken;
    {
      std::lock_guard<util::spinlock_t> guard(lock_);
      taken.swap(queue_);
      nonempty_.store(false, std::memory_order_release);
    }
    for (auto& entry : taken) {
      entry.op(backlog_action_t::cancel);
      trace::end(entry.span, trace::kind_t::backlog,
                 static_cast<uint8_t>(errorcode_t::fatal_canceled));
      if (counters_ != nullptr) counters_->add(counter_id_t::backlog_retired);
    }
    return taken.size();
  }

  std::size_t size_approx() const {
    std::lock_guard<util::spinlock_t> guard(lock_);
    return queue_.size();
  }

 private:
  struct entry_t {
    op_t op;
    trace::span_t span;  // backlog park -> retire
  };

  mutable util::spinlock_t lock_;
  std::deque<entry_t> queue_;
  std::atomic<bool> nonempty_{false};
  counter_block_t* counters_ = nullptr;
};

// ---------------------------------------------------------------------------
// The accepted-operation descriptor (paper Sec. 3.2.5: an accepted op ends
// by signaling its completion object once, with one status). It is built
// once, when the post accepts the op, and moved from home to home — a
// posted receive, a rendezvous handshake, an RDMA write, an aggregation
// slot — until finish_op ends it.
// ---------------------------------------------------------------------------

// What the op's completion reports.
struct op_report_t {
  comp_impl_t* comp = nullptr;
  void* user_context = nullptr;
  void* buffer = nullptr;
  std::size_t size = 0;
  int rank = -1;
  tag_t tag = 0;
};

inline std::size_t payload_size(const post_args_t& args) {
  return args.buffers != nullptr ? args.buffers->total_size() : args.size;
}

// The reported fields of a post.
inline op_report_t report_of(const post_args_t& args) {
  return op_report_t{args.local_comp.p, args.user_context, args.local_buffer,
                     payload_size(args), args.rank, args.tag};
}

// The status an op's completion reports.
inline status_t status_of(errorcode_t code, const op_report_t& op) {
  return status_t{error_t{code}, op.rank, op.tag,
                  buffer_t{op.buffer, op.size}, op.user_context};
}

struct op_state_t : op_report_t {
  op_state_t() = default;
  op_state_t(const op_report_t& report) : op_report_t(report) {}
  // Set when the op carries a deadline or a user handle (see op_record_t).
  std::shared_ptr<op_record_t> record;
  trace::span_t span;  // op span: post -> completion
};

// ---------------------------------------------------------------------------
// Rendezvous bookkeeping (runtime-wide: the RTR and FIN for one message can
// arrive on different devices than the RTS left from). `op.rank` names the
// peer.
// ---------------------------------------------------------------------------
struct rdv_send_t {
  op_state_t op;
  // Buffer-list sends stage a gathered copy here (see DESIGN.md: the
  // simulated fabric transfers one contiguous region per RDMA write).
  std::unique_ptr<char[]> staged;
};

struct rdv_recv_t {
  // Moved from the posted receive when the RTS matches, or built for a
  // large active message; op.size is the transfer size.
  op_state_t op;
  net::mr_id_t mr = net::invalid_mr;
  bool runtime_owned_buffer = false;  // true for large active messages
  // Buffer-list receives land in `op.buffer` (runtime staging) and scatter
  // into `list` at FIN.
  std::vector<buffer_t> list;
};

template <typename T>
class pending_table_t {
 public:
  uint32_t add(T state) {
    std::lock_guard<util::spinlock_t> guard(lock_);
    const uint32_t id = next_id_++ & 0x7fffffffu;  // ids fit FIN immediates
    map_.emplace(id, std::move(state));
    return id;
  }
  bool take(uint32_t id, T* out) {
    std::lock_guard<util::spinlock_t> guard(lock_);
    auto it = map_.find(id);
    if (it == map_.end()) return false;
    *out = std::move(it->second);
    map_.erase(it);
    return true;
  }
  std::size_t size() const {
    std::lock_guard<util::spinlock_t> guard(lock_);
    return map_.size();
  }
  // Removes every entry the predicate claims and moves it to `out`; the
  // caller then owns those handshakes exclusively (the table lock is the
  // arbitration point between the dead-peer purge and the RTR/FIN handlers).
  template <typename Pred>
  std::size_t take_if(Pred&& pred, std::vector<T>& out) {
    std::lock_guard<util::spinlock_t> guard(lock_);
    std::size_t taken = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(it->second)) {
        out.push_back(std::move(it->second));
        it = map_.erase(it);
        ++taken;
      } else {
        ++it;
      }
    }
    return taken;
  }

 private:
  mutable util::spinlock_t lock_;
  std::unordered_map<uint32_t, T> map_;
  uint32_t next_id_ = 1;
};

// Receive descriptor stored in the matching engine for posted receives.
struct recv_entry_t {
  op_state_t op;  // op.rank as posted (may be wildcarded by policy)
  std::vector<buffer_t> list;  // buffer-list receive (empty: single buffer)
};

// ---------------------------------------------------------------------------
// Tracked-operation records (failure lifecycle: deadline, cancel, drain).
//
// A record is created only for ops that asked for one (.deadline(us) or
// .op_handle(&op)), so the common posting path pays nothing. The record
// names where the op currently lives; completion ownership is decided at the
// op's *arbitration point* — the matching-engine bucket lock for queued
// receives, the pending-table take() for rendezvous handshakes, the
// live->executing state CAS for backlogged submissions — never by the record
// alone, so an op completes exactly once no matter how many of {match,
// cancel(), deadline sweep, dead-peer purge} race for it.
// ---------------------------------------------------------------------------
enum class op_kind_t : uint8_t { recv, rdv_send, rdv_recv, backlog, coalesced };

struct op_record_t {
  static constexpr uint8_t st_live = 0;
  static constexpr uint8_t st_executing = 1;  // backlog op mid-submission
  static constexpr uint8_t st_terminal = 2;   // completion delivered/forfeit
  std::atomic<uint8_t> state{st_live};
  // Errorcode of a fatal completion delivered through finish_tracked_op,
  // published before the terminal CAS. Advisory: lets the flush-time resolve
  // label the trace span of a sub-op whose completion the cancel/timeout path
  // won (the span handle itself lives in the pending entry, which only the
  // resolve can reach).
  std::atomic<uint8_t> terminal_code{0};

  // Guards the location fields (kind/engine/key/entry/rdv_id) across the
  // recv -> rdv_recv conversion that happens when an RTS matches a tracked
  // receive. Never held while taking a bucket or pending-table lock's
  // *owner* path — the lock order record -> arbitration point is safe
  // because the matching paths never lock the record at all.
  util::spinlock_t lock;
  op_kind_t kind = op_kind_t::recv;

  runtime_impl_t* runtime = nullptr;
  device_impl_t* device = nullptr;
  // recv kind: where the entry is queued.
  matching_engine_impl_t* engine = nullptr;
  matching_engine_impl_t::key_t key = 0;
  recv_entry_t* entry = nullptr;
  // rdv kinds: pending-table id (0 = not assigned yet).
  uint32_t rdv_id = 0;

  // So cancel/timeout can build the fatal status of an op whose descriptor
  // it cannot reach (backlog and coalesced kinds).
  op_report_t op;
  uint64_t deadline_ns = 0;  // 0 = no deadline (tracked for cancel only)

  // The receive left the matching engine (matched, purged or removed):
  // blank its location before the entry is freed, so a sweep never acts on
  // (or collides with a reused allocation of) the entry pointer. Whoever
  // calls this already won the entry.
  void leave_engine() {
    std::lock_guard<util::spinlock_t> guard(lock);
    engine = nullptr;
    entry = nullptr;
  }
};

inline bool wants_record(const post_args_t& args) {
  return args.deadline_us != 0 || args.out_op != nullptr;
}

// The record of a tracked post (.deadline(us) / .op_handle(&op)).
inline std::shared_ptr<op_record_t> make_record(runtime_impl_t* runtime,
                                                device_impl_t* device,
                                                const post_args_t& args,
                                                op_kind_t kind) {
  auto record = std::make_shared<op_record_t>();
  record->kind = kind;
  record->runtime = runtime;
  record->device = device;
  record->op = report_of(args);
  if (args.deadline_us != 0)
    record->deadline_ns = now_ns() + args.deadline_us * 1000;
  return record;
}

// ---------------------------------------------------------------------------
// Eager-message coalescing (docs/INTERNALS.md "Message coalescing"): one
// aggregation slot per (device, peer). Buffered sub-operations that owe a
// completion (allow_done=false, or tracked with a deadline/handle) park
// their descriptor in the slot; the flush that posts the batch resolves
// them — done on a successful post, fatal_peer_down on a dead peer,
// fatal_canceled on a drain abort. Sub-ops posted with allow_done=true
// complete `done` at copy time and owe nothing. For tracked entries the
// record-state CAS is the arbitration point against cancel()/deadline-sweep,
// so each sub-op completes exactly once no matter who gets there first.
// ---------------------------------------------------------------------------

// Cache-line aligned: slots are indexed by (shard, peer) from concurrently
// posting threads; without the padding two peers' slots (or two shards'
// arrays) could share a line and turn independent appends into false sharing.
struct alignas(util::cache_line_size) agg_slot_t {
  util::spinlock_t lock;
  packet_t* packet = nullptr;  // staging packet; null = slot empty
  uint32_t bytes = 0;          // batch payload bytes used (headers + padding)
  uint32_t msgs = 0;
  // now_ns() of the first buffered sub-message; 0 = slot empty. Atomic so
  // the flush paths can peek for armed/aged slots without the lock.
  std::atomic<uint64_t> armed_ns{0};
  std::vector<op_state_t> pending;  // sub-ops that owe a completion
  trace::span_t span;  // batch_slot span: first append -> flush/abort (lock)
};

// ---------------------------------------------------------------------------
// Device
// ---------------------------------------------------------------------------

// Upper bound of the CQ poll burst (sizes the progress loop's stack CQE
// array); the fabric's poll_burst is clamped to it.
inline constexpr std::size_t max_cq_poll_burst = 64;
// Cap of a device's pre-posted receive budget (see the constructor).
inline constexpr std::size_t max_prepost_depth = 128;
// Eager coalescing: messages of at most max_agg_eager_size bytes coalesce,
// and a batch carries at most max_batch_msgs of them (and at most one
// packet's payload).
inline constexpr std::size_t max_agg_eager_size = 256;
inline constexpr std::size_t max_batch_msgs = 64;

class device_impl_t {
 public:
  device_impl_t(runtime_impl_t* runtime, bool auto_progress = false);
  ~device_impl_t();
  device_impl_t(const device_impl_t&) = delete;
  device_impl_t& operator=(const device_impl_t&) = delete;

  runtime_impl_t* runtime() const noexcept { return runtime_; }
  // Shard 0's endpoint. Correct for fabric-wide queries (is_peer_down,
  // death_epoch, index) — failure state is shared by every endpoint of a
  // fabric — and for any post when the device is unsharded.
  net::device_t& net() noexcept { return *shards_[0].net_device; }
  net::device_t& net(std::size_t shard) noexcept {
    return *shards_[shard].net_device;
  }
  std::size_t nshards() const noexcept { return shards_.size(); }
  // VCI-style affinity routing (paper Sec. 4.2): a pinned thread uses its
  // own shard (private send resources, no coordination); unpinned threads
  // hash (rank, tag) so a given key stream always lands on the same shard —
  // per-key FIFO survives because one key never straddles shards.
  std::size_t route_shard(int rank, tag_t tag) const noexcept {
    const std::size_t n = shards_.size();
    if (n == 1) return 0;
    const int pin = thread_shard_hint();
    if (pin >= 0) return static_cast<std::size_t>(pin) % n;
    uint64_t h = (static_cast<uint64_t>(static_cast<uint32_t>(rank)) << 32) |
                 static_cast<uint64_t>(static_cast<uint32_t>(tag));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h % n);
  }
  net::device_t& net_for(int rank, tag_t tag) noexcept {
    return net(route_shard(rank, tag));
  }
  // Forced-retry / wire-drop diagnostics, summed over the shards.
  uint64_t injected_faults_total() const noexcept {
    uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.net_device->injected_faults();
    return sum;
  }
  uint64_t wire_dropped_total() const noexcept {
    uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.net_device->wire_dropped();
    return sum;
  }
  backlog_queue_t& backlog() noexcept { return backlog_; }
  std::size_t prepost_depth() const noexcept { return prepost_depth_; }
  bool auto_progress() const noexcept { return auto_progress_; }

  // The per-device wakeup hint (see progress_engine.hpp). Registered with
  // the net device at construction; the core's backlog-push sites ring it
  // directly so a sleeping engine thread retries queued work promptly.
  doorbell_impl_t& doorbell() noexcept { return doorbell_; }
  void ring_doorbell() noexcept { doorbell_.ring(); }

  bool progress();  // defined in progress.cpp

  // --- Eager-message coalescing (defined in coalesce.cpp) -------------------
  // Policy for this device: the runtime attrs, and the size limits derived
  // from the packet geometry.
  bool aggregation_default() const noexcept { return agg_default_; }
  std::size_t agg_eager_max() const noexcept { return agg_eager_max_; }
  uint64_t agg_flush_us() const noexcept { return agg_flush_us_; }
  std::size_t cq_poll_burst() const noexcept { return cq_poll_burst_; }
  // True while any slot holds buffered sub-messages (bounds the engine's
  // condvar sleep so an armed slot cannot outwait its flush deadline).
  bool has_armed_aggregation() const noexcept {
    return armed_slots_.load(std::memory_order_acquire) > 0;
  }
  // True while any shard still buffers sub-messages for `rank` (rank < 0:
  // for anyone). Used by lci::flush to decide whether to keep retrying.
  bool has_armed_aggregation(int rank) const noexcept {
    if (armed_slots_.load(std::memory_order_acquire) == 0) return false;
    if (rank < 0) return true;
    for (const auto& s : shards_) {
      if (s.agg_slots[static_cast<std::size_t>(rank)].armed_ns.load(
              std::memory_order_acquire) != 0)
        return true;
    }
    return false;
  }
  // Single-poster bypass: true = skip runtime-default coalescing because
  // only one thread has ever posted agg-eligible traffic to this device. The
  // first observation of a second poster flips multi_poster_ permanently. A
  // per-post explicit .allow_aggregation(true) (override > 0) never
  // bypasses.
  bool aggregation_bypass(int8_t per_post_override) noexcept {
    if (per_post_override > 0) return false;
    if (agg_multi_poster_.load(std::memory_order_relaxed)) return false;
    const int me = static_cast<int>(util::thread_id());
    int last = agg_last_poster_.load(std::memory_order_relaxed);
    if (last == me) return true;
    if (last < 0 && agg_last_poster_.compare_exchange_strong(
                        last, me, std::memory_order_relaxed))
      return true;
    agg_multi_poster_.store(true, std::memory_order_relaxed);
    return false;
  }
  // Appends one eager sub-message (eager_send or eager_am) to the peer's
  // slot, posting the current batch first when it would overflow. Returns
  // done (copy made, nothing owed), posted (completion deferred to the
  // flush), retry (retry_lock: another thread is in the slot; nothing was
  // copied), or a fatal status.
  status_t agg_append(const post_args_t& args, uint8_t kind,
                      packet_pool_impl_t* pool, matching_engine_impl_t* engine,
                      const trace::span_t& post_span);
  // Posts armed batches (rank < 0: every slot; older_than_ns != 0: only
  // slots armed at or before that stamp), skipping slots another thread is
  // in. Returns batches posted.
  std::size_t flush_aggregation(int rank = -1, uint64_t older_than_ns = 0);
  // The matching-order rule: called before any non-aggregated message is
  // posted to `rank`. done = slot empty or batch posted; retry = the batch
  // could not go out (retry_lock: another thread is in the slot), so the
  // caller's message must bounce with retry too;
  // fatal_peer_down = the peer is dead (slot aborted). `shard` names the
  // shard the caller is about to post on — only that shard's slot can hold
  // earlier same-key traffic, since a key never straddles shards. Pass -1 to
  // flush the peer's slots on every shard (RTR / RMA-with-signal paths,
  // whose ordering obligation is per-peer, not per-key).
  errorcode_t flush_peer_for_ordering(int rank, int shard = -1);
  // Fails every buffered sub-op with `code` (exactly once, via the record
  // CAS for tracked entries) and discards slot contents. rank < 0 = all.
  std::size_t abort_aggregation(int rank, errorcode_t code);
  // The (shard, peer) slot's lock. Tests hold it to stand in for a thread
  // that is inside the slot.
  util::spinlock_t& agg_slot_lock(std::size_t shard, int rank) noexcept {
    return agg_slot(shard, rank).lock;
  }

 private:
  // One shard = one fabric endpoint (wire mailbox + CQ + send locks) plus
  // its own per-peer aggregation slots and pre-posted receives. Cache-line
  // aligned so concurrently posting threads on neighbouring shards never
  // false-share the shard descriptors.
  struct alignas(util::cache_line_size) shard_t {
    std::unique_ptr<net::device_t> net_device;
    std::unique_ptr<agg_slot_t[]> agg_slots;  // one per peer
    // Dispatch claim: held from poll_cq through the handle_cqe calls of the
    // burst it returned, so one thread at a time dispatches this shard's
    // completions, in CQ order (per-key FIFO into matching). A thread that
    // finds it taken skips the shard. On its own line: progress() writes it
    // on every poll, while every post reads the descriptor above.
    alignas(util::cache_line_size) std::atomic<bool> dispatching{false};
  };
  static_assert(sizeof(shard_t) == 2 * util::cache_line_size,
                "descriptor line + dispatch-claim line");

  bool replenish_preposts();
  // Adds the `holds` a dispatch left on a receive packet. If none remains
  // (none was taken, or every holder dropped its hold already), returns the
  // packet straight to `ep`, the shard endpoint it arrived on, while that
  // shard is below its prepost budget; a try-lock miss, a full SRQ or a full
  // budget sends it back to the pool instead, and replenish_preposts()
  // covers what is missing.
  void repost(packet_t* packet, uint32_t holds, net::device_t& ep);
  // Dispatch of one completion polled from `ep` (the shard endpoint it came
  // from, where consumed receive packets are reposted).
  bool handle_cqe(const net::cqe_t& cqe, net::device_t& ep);
  // Both count in `holds` the holds a message leaves on its packet.
  void handle_recv(const net::cqe_t& cqe, uint32_t& holds);
  // The one eager walk: every eager_send, eager_am and eager_batch packet.
  void handle_eager(const net::cqe_t& cqe, uint32_t& holds);
  agg_slot_t& agg_slot(std::size_t shard, int rank) noexcept {
    return shards_[shard].agg_slots[static_cast<std::size_t>(rank)];
  }
  // Posts the slot's batch on `net` (the endpoint of the shard the slot
  // belongs to); caller holds slot.lock. On ok (returns done) or peer_down
  // the slot's pending entries are detached into `resolved` — completions
  // are delivered by the caller *after* dropping the lock, since handlers
  // may re-enter the posting path — and the slot is cleared. On a retry code
  // the slot is left intact.
  errorcode_t post_batch_locked(agg_slot_t& slot, net::device_t& net, int rank,
                                std::vector<op_state_t>& resolved);
  // Discards the slot's contents (caller holds slot.lock), detaching the
  // pending entries into `out` for the caller to fail after unlock. `code`
  // labels the end of the slot's batch_slot trace span (done = flushed).
  void detach_slot_locked(agg_slot_t& slot, std::vector<op_state_t>& out,
                          errorcode_t code);

  runtime_impl_t* const runtime_;
  const std::size_t prepost_depth_;
  // prepost_depth_ split over the shards (see the constructor).
  std::size_t prepost_per_shard_ = 1;
  const bool auto_progress_;
  // Owns its cache line (see doorbell_impl_t): rung by every sender to every
  // shard, next to shards_, which every post and progress call reads.
  doorbell_impl_t doorbell_;
  std::vector<shard_t> shards_;
  backlog_queue_t backlog_;

  // armed_slots_ counts slots holding data across all shards so the
  // (default-off) fast paths stay a single relaxed load; the resolved
  // aggregation policy follows.
  std::atomic<int> armed_slots_{0};
  bool agg_default_ = false;
  std::atomic<int> agg_last_poster_{-1};   // dense util::thread_id of poster 0
  std::atomic<bool> agg_multi_poster_{false};
  std::size_t agg_eager_max_ = 0;
  std::size_t agg_max_bytes_ = 0;
  uint64_t agg_flush_us_ = 0;
  std::size_t cq_poll_burst_ = 32;
};

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------
class runtime_impl_t {
 public:
  runtime_impl_t(std::shared_ptr<net::fabric_t> fabric, int rank,
                 const runtime_attr_t& attr);
  ~runtime_impl_t();
  runtime_impl_t(const runtime_impl_t&) = delete;
  runtime_impl_t& operator=(const runtime_impl_t&) = delete;

  const runtime_attr_t& attr() const noexcept { return attr_; }
  int rank() const noexcept { return rank_; }
  int nranks() const noexcept { return nranks_; }
  net::context_t& net_context() noexcept { return *net_context_; }

  packet_pool_impl_t& default_pool() noexcept { return *default_pool_; }
  matching_engine_impl_t& default_engine() noexcept { return *default_engine_; }
  matching_engine_impl_t& coll_engine() noexcept { return *coll_engine_; }
  device_impl_t& default_device() noexcept { return *default_device_; }

  // Eager threshold: the largest user payload that fits a packet together
  // with the message header.
  std::size_t eager_threshold() const noexcept {
    return attr_.packet_size - sizeof(msg_header_t);
  }
  // Inject threshold: the largest payload assembled on the stack without a
  // packet (Sec. 4.3).
  std::size_t inject_threshold() const noexcept {
    return std::min(max_inject_size, eager_threshold());
  }

  // Remote-completion registry (MPMC array: lock-free lookup on the AM path).
  rcomp_t register_rcomp(comp_impl_t* comp);
  void deregister_rcomp(rcomp_t rcomp);
  comp_impl_t* lookup_rcomp(rcomp_t rcomp) const;

  // Matching-engine registry (ids travel in message headers; default engine
  // is id 0, the collective engine id 1).
  uint16_t register_engine(matching_engine_impl_t* engine);
  void deregister_engine(uint16_t id);
  matching_engine_impl_t* lookup_engine(uint16_t id) const;

  pending_table_t<rdv_send_t>& pending_sends() noexcept {
    return pending_sends_;
  }
  pending_table_t<rdv_recv_t>& pending_recvs() noexcept {
    return pending_recvs_;
  }

  uint32_t next_collective_seq() noexcept {
    return coll_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  detail::counter_block_t& counters() noexcept { return counters_; }

  // Registration bracket for the runtime's *internal* MRs (rendezvous
  // receive targets): served from the registration cache when one is
  // configured, direct fabric calls otherwise. User-facing register_memory
  // stays direct — its rmr token must stay valid until the user deregisters,
  // which an LRU cache cannot promise.
  net::reg_handle_t reg_acquire(void* base, std::size_t size) {
    if (reg_cache_ != nullptr) return reg_cache_->acquire(base, size);
    return {net_context_->register_memory(base, size), 0};
  }
  void reg_release(net::mr_id_t id) {
    if (reg_cache_ != nullptr)
      reg_cache_->release(id);
    else
      net_context_->deregister_memory(id);
  }
  net::reg_cache_t* reg_cache() noexcept { return reg_cache_.get(); }

  const net::config_t& net_config() const noexcept {
    return fabric_->config();
  }

  // Device registry: every live device of this runtime, so snapshot-time
  // statistics (fault-injection totals) can be summed across devices.
  void register_device(device_impl_t* device) {
    std::lock_guard<util::spinlock_t> guard(device_lock_);
    devices_.push_back(device);
  }
  void unregister_device(device_impl_t* device) {
    std::lock_guard<util::spinlock_t> guard(device_lock_);
    for (auto it = devices_.begin(); it != devices_.end(); ++it) {
      if (*it == device) {
        devices_.erase(it);
        break;
      }
    }
  }
  uint64_t injected_faults() const;        // defined in runtime.cpp
  uint64_t dropped_wire_messages() const;  // defined in runtime.cpp

  // Auto-progress engine (lazy: created on the first attach so runtimes that
  // never opt in pay nothing — no threads, no doorbell wiring). Defined in
  // runtime.cpp.
  void attach_progress_device(device_impl_t* device);
  void detach_progress_device(device_impl_t* device);
  progress_engine_t* progress_engine() noexcept {
    return progress_engine_.get();
  }

  // --- Failure lifecycle (defined in failure.cpp) ---------------------------
  net::fabric_t& fabric() noexcept { return *fabric_; }
  // Registers a record (null: an untracked op, nothing to do) so the
  // deadline sweep / drain can find it, and hands it to the user's cancel
  // handle, if any.
  void track_op(std::shared_ptr<op_record_t> record, op_t* handle);
  // Completes a live tracked op with `code` if this caller wins the op's
  // arbitration point; returns true iff the completion was delivered here.
  bool finish_tracked_op(const std::shared_ptr<op_record_t>& record,
                         errorcode_t code);
  // Completes tracked ops whose deadline passed; returns how many.
  std::size_t deadline_sweep();
  // Compares the device's death epoch against the last one this runtime
  // handled; on a bump, purges matching-engine entries, pending rendezvous
  // handshakes, and tracked ops naming each newly dead peer. Returns true if
  // anything was purged. Called from every progress path; cheap when no
  // epoch changed.
  bool check_peer_failures(device_impl_t* device);
  // drain(): cooperative progress then force-kill; returns ops killed.
  std::size_t drain_device(device_impl_t* device, uint64_t timeout_us);

 private:
  std::size_t purge_dead_peer(int peer, bool everything);
  std::size_t force_kill_tracked(errorcode_t code);
  // Drops terminal records from tracked_ops_; op_lock_ held.
  void prune_terminal_ops();
  // Tracked ops not yet terminal (prunes the terminal ones).
  std::size_t live_tracked_ops();

 public:
  const runtime_attr_t attr_;
  std::shared_ptr<net::fabric_t> fabric_;
  std::unique_ptr<net::context_t> net_context_;
  // Declared after net_context_ (so it is destroyed first: its destructor
  // deregisters every resident entry through the context).
  std::unique_ptr<net::reg_cache_t> reg_cache_;
  const int rank_;
  const int nranks_;

  // Declared before the devices themselves so the registry outlives every
  // device (members are destroyed in reverse declaration order and device
  // destructors unregister here).
  mutable util::spinlock_t device_lock_;
  std::vector<device_impl_t*> devices_;  // guarded by device_lock_

  std::unique_ptr<packet_pool_impl_t> default_pool_;
  std::unique_ptr<matching_engine_impl_t> default_engine_;
  std::unique_ptr<matching_engine_impl_t> coll_engine_;
  std::unique_ptr<device_impl_t> default_device_;

  // Declared after default_device_ so it is destroyed first: engine threads
  // must stop before any device they service is torn down (the dtor also
  // stops it explicitly — device_impl_t dtors detach themselves, which needs
  // a live engine or none at all, never a half-destroyed one).
  util::spinlock_t engine_create_lock_;
  std::unique_ptr<progress_engine_t> progress_engine_;

  util::mpmc_array_t<comp_impl_t*> rcomp_registry_{64};
  util::spinlock_t rcomp_lock_;
  std::vector<rcomp_t> rcomp_freelist_;  // guarded by rcomp_lock_

  util::mpmc_array_t<matching_engine_impl_t*> engine_registry_{16};
  util::spinlock_t engine_lock_;
  std::vector<uint16_t> engine_freelist_;  // guarded by engine_lock_

  pending_table_t<rdv_send_t> pending_sends_;
  pending_table_t<rdv_recv_t> pending_recvs_;

  std::atomic<uint32_t> coll_seq_{0};
  detail::counter_block_t counters_;

  // Failure lifecycle state. tracked_count_ lets the sweep return without
  // touching op_lock_ in the (overwhelmingly common) no-tracked-ops case.
  util::spinlock_t op_lock_;
  std::vector<std::shared_ptr<op_record_t>> tracked_ops_;  // guarded by op_lock_
  std::atomic<std::size_t> tracked_count_{0};
  std::atomic<uint64_t> death_epoch_seen_{0};
  util::spinlock_t purge_lock_;       // serializes dead-peer purges
  std::vector<char> peer_purged_;     // guarded by purge_lock_
  std::atomic<uint64_t> next_deadline_ns_{UINT64_MAX};  // sweep fast-path gate
};

// Resolves optional-argument defaults for the posting/progress paths.
runtime_impl_t* resolve_runtime(runtime_t runtime);

// --------------------------------------------------------------------------
// Protocol helpers shared by the posting path (post.cpp) and the progress
// engine (progress.cpp). See Sec. 4.4: both paths can find a match in the
// matching engine and continue the rendezvous protocol.
// --------------------------------------------------------------------------

inline void signal_comp(comp_impl_t* comp, const status_t& status) {
  if (comp != nullptr) comp->signal(status);
}

inline error_t map_net_result(net::post_result_t result) {
  switch (result) {
    case net::post_result_t::ok:
      return error_t{errorcode_t::done};
    case net::post_result_t::retry_lock:
      return error_t{errorcode_t::retry_lock};
    case net::post_result_t::retry_full:
      return error_t{errorcode_t::retry_nomem};
    case net::post_result_t::retry_nobuf:
      return error_t{errorcode_t::retry_nopacket};
    case net::post_result_t::peer_down:
      return error_t{errorcode_t::fatal_peer_down};
  }
  return error_t{errorcode_t::retry};
}

// Takes a pending rendezvous handshake out of its table and completes it
// with `code` (deregistering MRs / freeing staging as needed). Returns false
// when the id was already consumed — the RTR/FIN/purge path that took it
// owns the completion. Defined in failure.cpp.
bool fail_pending_send(runtime_impl_t* runtime, uint32_t rdv_id,
                       errorcode_t code);
bool fail_pending_recv(runtime_impl_t* runtime, uint32_t pending_id,
                       errorcode_t code);
// Completes an already-taken handshake (shared by the fail_* helpers and the
// dead-peer purge, which batch-takes via take_if). Marks the record terminal.
void finish_failed_send(runtime_impl_t* runtime, rdv_send_t& send,
                        errorcode_t code);
void finish_failed_recv(runtime_impl_t* runtime, rdv_recv_t& recv,
                        errorcode_t code);

// Finishes a receive entry that met a message, in the form a matching
// engine keeps it: an eager payload, or a request-to-send (RTS) whose data
// is its rts_payload_t. The eager walk, an arriving RTS and post_receive all
// end here. Counts recv_matched and records the match instant, then either
// completes the eager receive, signaling its comp when `signal`, or moves
// the entry into the pending-receive table and sends the RTR (backlogged
// when the network pushes back). Consumes the entry. Returns what
// post_receive reports: the unsignaled eager completion, or posted. A
// message that does not fit the receive, or arrived truncated, completes it
// with fatal_truncated; a rendezvous refusal RTR (mr == net::invalid_mr)
// makes the sender fail too.
status_t match_recv(runtime_impl_t* runtime, device_impl_t* device,
                    recv_entry_t* entry, const kept_msg_t& msg, bool signal);

// Builds the status delivered with a fatal completion and bumps comp_fatal
// plus the per-code failure counter (ops_canceled / ops_timed_out /
// peer_down_completions). Every fatal completion and every fatal status
// returned by a posting path goes through here, so those counters are exact.
status_t make_fatal_status(runtime_impl_t* runtime, errorcode_t code,
                           const op_report_t& op);

// Ends an accepted op with `code` (done or fatal): marks its record
// terminal, ends its span of `kind`, and builds the status from what the
// descriptor reports, signaling the comp when `signal`. Called only by the
// winner of the op's arbitration point, after it set what the status must
// report (the matched peer and tag, the transfer size, a null buffer for
// runtime staging). Returns the status.
status_t finish_op(runtime_impl_t* runtime, op_state_t& op,
                   trace::kind_t kind, errorcode_t code, bool signal = true);

}  // namespace lci::detail
