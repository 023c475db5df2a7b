// Internal definitions of the simulated fabric (not part of the public
// backend interface in net.hpp).
#pragma once

#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "net/net.hpp"
#include "util/cacheline.hpp"
#include "util/lcrq.hpp"
#include "util/mpmc_array.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/thread.hpp"

namespace lci::net::detail {

// One message "on the wire". Small payloads are stored inline; larger ones on
// the heap. Eager traffic in LCI is bounded by the packet size, but the wire
// itself accepts anything that fits a pre-posted buffer at the target.
struct wire_msg_t {
  static constexpr std::size_t inline_capacity = 128;

  op_t kind = op_t::send;  // send | remote_write | remote_read
  int src_rank = -1;
  uint32_t imm = 0;
  uint32_t size = 0;
  uint64_t ready_ns = 0;    // timing model: deliverable once now >= ready_ns
  uint32_t defer_polls = 0; // fault injection: delivery attempts to skip
  uint64_t trace_id = 0;    // wire span id (0 = untraced); see core/trace.hpp
  std::unique_ptr<char[]> heap;
  char inline_data[inline_capacity] = {};

  wire_msg_t() = default;
  wire_msg_t(wire_msg_t&&) = default;
  wire_msg_t& operator=(wire_msg_t&&) = default;

  void set_payload(const void* src, std::size_t n) {
    size = static_cast<uint32_t>(n);
    if (n == 0) return;
    if (n <= inline_capacity) {
      std::memcpy(inline_data, src, n);
    } else {
      heap.reset(new char[n]);
      std::memcpy(heap.get(), src, n);
    }
  }

  const char* data() const noexcept {
    return heap ? heap.get() : inline_data;
  }
};

struct prepost_t {
  void* buffer = nullptr;
  std::size_t size = 0;
  void* user_context = nullptr;
};

struct mr_record_t {
  void* base = nullptr;
  std::size_t size = 0;
  std::atomic<bool> valid{false};
};

class sim_fabric_t;

class sim_device_t final : public device_t {
 public:
  sim_device_t(sim_fabric_t* fabric, int rank, int context);
  ~sim_device_t() override;

  int index() const override { return index_; }
  post_result_t post_recv(void* buffer, std::size_t size,
                          void* user_context) override;
  post_result_t post_send(int peer_rank, const void* buffer, std::size_t size,
                          uint32_t imm, void* user_context) override;
  post_result_t post_write(int peer_rank, const void* local, std::size_t size,
                           mr_id_t remote_mr, std::size_t remote_offset,
                           bool notify, uint32_t imm,
                           void* user_context) override;
  post_result_t post_read(int peer_rank, void* local, std::size_t size,
                          mr_id_t remote_mr, std::size_t remote_offset,
                          bool notify, uint32_t imm,
                          void* user_context) override;
  poll_result_t poll_cq(cqe_t* out, std::size_t max) override;
  std::size_t preposted_recvs() const override { return srq_.size_approx(); }
  uint64_t injected_faults() const override {
    return injected_faults_.load(std::memory_order_relaxed);
  }
  bool is_peer_down(int rank) const override;
  uint64_t death_epoch() const override;
  uint64_t wire_dropped() const override {
    return wire_dropped_.load(std::memory_order_relaxed);
  }
  void set_doorbell(doorbell_t* doorbell) override {
    doorbell_.store(doorbell, std::memory_order_release);
  }

  // Wire-side entry point used by peer devices ("the NIC DMA engine").
  bool wire_push(wire_msg_t msg);

 private:
  friend class sim_fabric_t;

  // Acquires the send-path lock per the configured model/strategy. Returns a
  // disengaged guard on try-lock miss.
  util::try_lock_wrapper_t::guard_t acquire_send_lock(int peer_rank);

  // Fault injection: draws from the per-device RNG stream; returns ok when
  // no fault fires, retry_lock/retry_full otherwise.
  post_result_t maybe_inject_fault();
  // Effective backpressure depths (fault policy may shrink the configured
  // ones).
  std::size_t effective_send_depth() const;
  std::size_t effective_wire_depth() const;

  // The body of poll_cq, run under the polling lock: fills out[] with local
  // completions and inbound deliveries (see poll_cq).
  std::size_t poll_owned(cqe_t* out, std::size_t max);
  // Under the polling lock: writes up to `max` deliverable wire
  // messages (RNR stash first) as CQEs straight into out[]; they never pass
  // through the CQ. now_cache amortizes the clock read across a poll: 0 =
  // not read yet, filled on the first timed message.
  std::size_t deliver_from_wire(cqe_t* out, std::size_t max,
                                uint64_t& now_cache);
  // false: not deliverable yet (deferred, not ready, or RNR: no pre-posted
  // recv).
  bool deliver_one(wire_msg_t& msg, uint64_t& now_cache, cqe_t& out);
  // Under the polling lock: a dead rank observes nothing, so everything
  // queued at it evaporates.
  void purge_dead();

  // The CQ holds local completions only.
  void push_cqe(cqe_t cqe);
  std::size_t pop_cqes(cqe_t* out, std::size_t max);
  // Send-side backpressure threshold. The CQ ring is bounded, so posts stop
  // at half of it: each in-flight poster adds at most one element past its
  // own threshold check, so the ring cannot overflow unless more than
  // capacity/2 threads post simultaneously.
  std::size_t send_depth_limit() const;

  // Rings the registered doorbell (if any): new work is observable on this
  // device. Called by peers from wire_push and locally after pushing
  // dispatch-worthy completions.
  void ring_doorbell() noexcept {
    if (doorbell_t* d = doorbell_.load(std::memory_order_acquire)) d->ring();
  }

  sim_fabric_t* const fabric_;
  const int rank_;
  const int context_;
  int index_ = -1;

  util::lcrq_t<wire_msg_t> wire_{1024};
  // The completion queue: a bounded lock-free MPSC ring of local
  // completions. Posts on any thread produce; its single consumer is whoever
  // holds the polling lock (see poll_cq).
  util::mpsc_queue_t<cqe_t> cq_;
  std::deque<wire_msg_t> rnr_stash_;  // guarded by the polling lock
  // Mirror of rnr_stash_.size(), readable without the polling lock: the
  // empty fast path must see stalled messages without taking the lock.
  std::atomic<std::size_t> rnr_depth_{0};
  // Which source leads the next poll's batch (see poll_owned). Guarded by
  // the polling lock.
  bool inbound_first_ = false;
  std::atomic<doorbell_t*> doorbell_{nullptr};

  // Fault-injection state: a deterministic per-device RNG stream (seeded
  // from the policy seed and this device's coordinates) and the injected
  // count exposed through injected_faults().
  util::spinlock_t fault_lock_;
  util::xoshiro256_t fault_rng_;
  std::atomic<uint64_t> injected_faults_{0};
  std::atomic<uint64_t> wire_dropped_{0};

  // The shared receive queue: a bounded lock-free ring. Its producers are
  // post_recv callers, which keep the lock model's try-lock (srq_lock_ or
  // ep_lock_); its single consumer is whoever holds the polling lock, which
  // also orders one consumer's pops before the next's.
  // 1024 entries cover every caller's prepost budget (LCI devices 128,
  // simgex 512, simmpi 256); a post beyond it returns retry_full, like a
  // post past a hardware SRQ's max_wr.
  static constexpr std::size_t srq_capacity = 1024;
  util::mpsc_queue_t<prepost_t> srq_{srq_capacity};

  // Lock layout (paper Sec. 4.2.3/4.2.4). ibv: per-object locks; ofi: one
  // endpoint lock used for every operation. The polling lock is cq_lock_
  // (ibv) or ep_lock_ (ofi).
  util::try_lock_wrapper_t cq_lock_;
  util::try_lock_wrapper_t srq_lock_;
  util::try_lock_wrapper_t ep_lock_;
  util::try_lock_wrapper_t qp_shared_lock_;           // all_qp / none
  std::unique_ptr<util::try_lock_wrapper_t[]> qp_locks_;  // per_qp
};

class sim_context_t final : public context_t {
 public:
  sim_context_t(std::shared_ptr<sim_fabric_t> fabric, int rank, int index)
      : fabric_(std::move(fabric)), rank_(rank), index_(index) {}

  int rank() const override { return rank_; }
  int nranks() const override;
  std::unique_ptr<device_t> create_device() override;
  mr_id_t register_memory(void* base, std::size_t size) override;
  void deregister_memory(mr_id_t id) override;
  int index() const noexcept { return index_; }

 private:
  std::shared_ptr<sim_fabric_t> fabric_;
  const int rank_;
  // Connection namespace: devices of context k only exchange messages with
  // devices of the peer ranks' context k (contexts must be created in the
  // same order on every rank, like every other replicated resource).
  const int index_;
};

class sim_fabric_t final : public fabric_t,
                           public std::enable_shared_from_this<sim_fabric_t> {
 public:
  sim_fabric_t(int nranks, const config_t& config);
  ~sim_fabric_t() override;

  backend_t kind() const override { return backend_t::sim; }
  int nranks() const override { return nranks_; }
  const config_t& config() const override { return config_; }
  std::unique_ptr<context_t> create_context(int rank) override;
  // Peer death. kill_rank marks the rank dead (idempotent; also the
  // kill_after_ops trigger), bumps the fabric-wide death epoch and rings every
  // live device's doorbell so sleeping progress engines wake up and purge.
  bool kill_rank(int rank) override;
  bool is_dead(int rank) const {
    return ranks_[static_cast<std::size_t>(rank)]->dead->load(
        std::memory_order_acquire);
  }
  uint64_t death_epoch() const {
    return death_epoch_.load(std::memory_order_acquire);
  }
  // Kill schedule bookkeeping: called by a device after each successful post;
  // the kill_rank dies once its devices complete kill_after_ops posts.
  void note_post(int rank);

  // Device registry, scoped by context index (connection namespace).
  // register_device reserves a slot (pass nullptr to keep it unroutable
  // until publish_device makes the fully constructed device visible);
  // unregister_device frees it.
  int register_device(int rank, int context, sim_device_t* device);
  void publish_device(int rank, int context, int index, sim_device_t* device);
  void unregister_device(int rank, int context, int index);
  // RAII pin on a target rank's device registry: while held, a device
  // pointer read from a registry slot that still held it *after* the pin
  // was taken (and the doorbell it rings) stays valid — unregister_device
  // drains all pins before the device memory can go away. route() takes it
  // and the caller holds it across wire_push(), which rings the target's
  // doorbell *after* the push: without the pin the receiver can consume the
  // message, complete and tear down between the push and the ring.
  //
  // A pin is one RMW pair on every post, so it counts in a padded cell keyed
  // by the posting thread: concurrent senders to one rank write different
  // lines, and none of them writes a line the target's cores read per
  // message (see rank_state_t).
  static constexpr std::size_t route_pin_cells = 16;
  struct alignas(util::cache_line_size) route_pin_cell_t {
    std::atomic<int> count{0};
  };
  static_assert(sizeof(route_pin_cell_t) == util::cache_line_size,
                "one pin cell per cache line");
  static_assert((route_pin_cells & (route_pin_cells - 1)) == 0,
                "pin cells are picked with a mask");

  class route_pin_t {
   public:
    route_pin_t() = default;
    explicit route_pin_t(route_pin_cell_t& cell) : cell_(&cell) {
      cell_->count.fetch_add(1, std::memory_order_acquire);
    }
    route_pin_t(route_pin_t&& other) noexcept
        : cell_(std::exchange(other.cell_, nullptr)) {}
    route_pin_t& operator=(route_pin_t&& other) noexcept {
      if (this != &other) {
        release();
        cell_ = std::exchange(other.cell_, nullptr);
      }
      return *this;
    }
    ~route_pin_t() { release(); }

   private:
    void release() noexcept {
      if (cell_ != nullptr)
        cell_->count.fetch_sub(1, std::memory_order_release);
      cell_ = nullptr;
    }
    route_pin_cell_t* cell_ = nullptr;
  };
  route_pin_t pin_route(int rank) {
    return route_pin_t(
        ranks_[static_cast<std::size_t>(rank)]
            ->route_pins[util::thread_id() & (route_pin_cells - 1)]);
  }
  // A routed target device (nullptr: no route, the post retries) and the
  // pin that keeps it alive while this object lives.
  struct route_t {
    sim_device_t* target = nullptr;
    route_pin_t pin;
  };
  // Routing: messages from device `src_index` of context `context` arrive at
  // the target rank's same-context device `src_index` — devices are
  // replicated resources, created in the same order on every rank. Until
  // that device is published there is no route (nullptr: the post retries):
  // falling over to a sibling would split one source endpoint's stream over
  // two target endpoints and lose its FIFO order. Only a freed paired
  // device falls over to another live one (teardown).
  route_t route(int rank, int context, int src_index);
  // Context index allocation (monotonic per rank).
  int next_context_index(int rank);

  // Memory registration (per-rank tables, readable by any rank).
  mr_id_t register_memory(int rank, void* base, std::size_t size);
  void deregister_memory(int rank, mr_id_t id);
  // Resolves a remote address or throws (invalid MR / bounds violation).
  char* resolve_remote(int rank, mr_id_t id, std::size_t offset,
                       std::size_t size) const;

  // Shared "uUAR" hardware lock used by the td_strategy_t::none model.
  util::spinlock_t& uuar_lock() { return uuar_lock_; }

  // Timing model: earliest delivery time for a message of `size` bytes sent
  // now (0 when the model is off).
  uint64_t ready_time_ns(std::size_t size) const;

 private:
  struct context_devices_t {
    // nullptr = freed; reserved_slot() = registered, still under
    // construction; otherwise the live device.
    util::mpmc_array_t<sim_device_t*> devices{8};
  };
  static sim_device_t* reserved_slot() noexcept {
    return reinterpret_cast<sim_device_t*>(alignof(sim_device_t));
  }
  static bool is_live(const sim_device_t* d) noexcept {
    return d != nullptr && d != reserved_slot();
  }
  // The registry of (rank, context), or nullptr before the rank creates it.
  const context_devices_t* devices_of(int rank, int context) const;
  // route()'s unpinned lookup: the target device and the slot it sits in.
  sim_device_t* find_route(const context_devices_t& slots, int src_index,
                           std::size_t* slot) const;
  // Lock layout: `dead` is read several times per message by both sides
  // (is_dead), so it sits alone on its line and is written once; the pins
  // every post writes live in their own cells; route()'s registry follows
  // on a line of its own.
  struct rank_state_t {
    // Set once by kill_rank, never cleared.
    util::padded<std::atomic<bool>> dead;
    // Peers inside route() -> push -> ring, keyed by posting thread.
    route_pin_cell_t route_pins[route_pin_cells];
    util::mpmc_array_t<context_devices_t*> contexts{8};
    util::spinlock_t context_lock;
    std::vector<std::unique_ptr<context_devices_t>> context_storage;
    int next_context = 0;  // guarded by context_lock
    util::mpmc_array_t<mr_record_t*> mrs{8};
    util::spinlock_t mr_lock;
    std::vector<mr_id_t> mr_freelist;                  // guarded by mr_lock
    std::vector<std::unique_ptr<mr_record_t>> mr_storage;  // guarded by mr_lock
  };

  static_assert(sizeof(decltype(rank_state_t::dead)) ==
                    util::cache_line_size,
                "the dead flag owns its cache line");

  const int nranks_;
  const config_t config_;
  std::vector<std::unique_ptr<rank_state_t>> ranks_;
  util::spinlock_t uuar_lock_;
  std::atomic<uint64_t> death_epoch_{0};
  std::atomic<uint64_t> kill_ops_posted_{0};  // kill schedule progress
};

}  // namespace lci::net::detail
