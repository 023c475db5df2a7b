// The device core: the one implementation of the net::device_t contract
// (paper Sec. 4.2) that every transport shares.
//
// A transport keeps only how bytes move. The sim transport pushes each
// message into the paired device's inbound queue and does RMA by memcpy;
// shm and tcp move frames and feed the inbound queues from their pump (see
// ep_common.hpp). Everything between a transport and the runtime lives here:
//
//  * the SRQ ring and post_recv;
//  * the inbound queue, the RNR stash, delivery straight into the poll
//    batch, and poll_owned's two-source split;
//  * the local-completion CQ ring, the send-depth check and the RMW-free
//    idle poll;
//  * the lock layout's try-locks (net.hpp), uUAR lock included;
//  * the fault injector: forced retries at post, and loss and delay drawn
//    on the target device's stream as a message enters its inbound queue;
//  * the self-death purge, the doorbell and the diagnostic counts.
//
// core_fabric_t is what every fabric gives its cores: the configuration,
// the peer-death ledger, the uUAR lock and the kill schedule. mr_table_t is
// one rank's memory registrations, on every transport.
// device_registry_t is one rank's devices and the one routing rule: a
// message from device i of context k lands on the target rank's context-k
// device i, and nowhere else while that device is alive.
#pragma once

#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/net.hpp"
#include "util/cacheline.hpp"
#include "util/lcrq.hpp"
#include "util/mpmc_array.hpp"
#include "util/mpmc_ring.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/thread.hpp"

namespace lci::net::detail {

// Wire-span error codes (core/trace.hpp renders them): 0 = delivered or
// handed to the transport, rejected = backpressure bounce, dropped =
// evaporated (dead sender or target, injected loss).
inline constexpr uint8_t wire_err_rejected = 1;
inline constexpr uint8_t wire_err_dropped = 2;

// One entry of a device's inbound queue: a message "on the wire". Small
// payloads are stored inline, larger ones on the heap. On shm/tcp an entry
// can also be a local completion raised after its post returned (`is_cqe`:
// the payload is the ready cqe_t), so that no producer outside a post ever
// pushes into the bounded CQ ring.
struct wire_msg_t {
  static constexpr std::size_t inline_capacity = 128;

  op_t kind = op_t::send;  // send | remote_write | remote_read
  bool is_cqe = false;
  int src_rank = -1;
  uint32_t imm = 0;
  uint32_t size = 0;
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

class device_core_t;

// One rank's devices, by context (connection namespace) and index. Devices
// are replicated resources, created in the same order on every rank, so
// route() pairs a source device with the same-index device of the target's
// same context. Until that device is published there is no route (the sim
// post retries; a shm/tcp frame waits): falling over to a sibling would split
// one source endpoint's stream over two target endpoints and lose its FIFO
// order. Only a freed paired device falls over to another live one
// (teardown). Slots are never reused.
class device_registry_t {
 public:
  // A route pin: while held, a device pointer read from a registry slot
  // that still held it *after* the pin was taken (and the doorbell it
  // rings) stays valid — unregister() drains all pins before the device
  // memory can go away. A pin is one RMW pair on every post, so it counts
  // in a padded cell keyed by the posting thread: concurrent senders to one
  // rank write different lines, and none of them writes a line the target's
  // cores read per message.
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

  // A routed target device (nullptr: no route) and the pin that keeps it
  // alive while this object lives.
  struct route_t {
    device_core_t* target = nullptr;
    route_pin_t pin;
  };

  device_registry_t() = default;
  device_registry_t(const device_registry_t&) = delete;
  device_registry_t& operator=(const device_registry_t&) = delete;

  // Opens the next context (monotonic; contexts are never freed).
  int add_context();
  // Reserves the next slot of `context` for a device under construction:
  // route() treats it as absent until publish() makes it visible.
  int reserve(int context);
  void publish(int context, int index, device_core_t* device);
  // Frees the slot, then drains every pin that may still hold the device.
  void unregister(int context, int index);
  route_t route(int context, int src_index);

  // Calls fn(device) for every live device, under a pin.
  template <typename Fn>
  void for_each_live(Fn&& fn) {
    const route_pin_t pin = pin_route();
    const std::size_t ncontexts = contexts_.size();
    for (std::size_t c = 0; c < ncontexts; ++c) {
      const context_devices_t* slots = contexts_.get(c);
      if (slots == nullptr) continue;
      const std::size_t n = slots->devices.size();
      for (std::size_t i = 0; i < n; ++i)
        if (device_core_t* d = slots->devices.get(i); is_live(d)) fn(*d);
    }
  }
  // Rings the doorbell of every live device.
  void ring_all();

 private:
  struct context_devices_t {
    // nullptr = freed; reserved_slot() = registered, still under
    // construction; otherwise the live device.
    util::mpmc_array_t<device_core_t*> devices{8};
  };
  static device_core_t* reserved_slot() noexcept {
    return reinterpret_cast<device_core_t*>(alignof(std::max_align_t));
  }
  static bool is_live(const device_core_t* d) noexcept {
    return d != nullptr && d != reserved_slot();
  }
  route_pin_t pin_route() {
    return route_pin_t(route_pins_[util::thread_id() & (route_pin_cells - 1)]);
  }
  // route()'s unpinned lookup: the target device and the slot it sits in.
  static device_core_t* find_route(const context_devices_t& slots,
                                   int src_index, std::size_t* slot);

  // Lock layout: the pins every post writes live in their own cells, and
  // the context table follows on a line of its own.
  route_pin_cell_t route_pins_[route_pin_cells];
  util::mpmc_array_t<context_devices_t*> contexts_{8};
  util::spinlock_t context_lock_;
  std::vector<std::unique_ptr<context_devices_t>> context_storage_;
  int next_context_ = 0;  // guarded by context_lock_
};

// One rank's memory registrations (paper Sec. 4.1.1: a registry is an MPMC
// array). find() is a lock-free read, so the RMA path takes no lock; add()
// and remove() write under a spinlock and recycle ids through a freelist.
// Regions live as long as the table, so a lookup racing a deregistration
// reads a stale region, never freed memory; base and size are atomics so
// that such a race (a wire frame naming an id being recycled) is no data
// race either.
class mr_table_t {
 public:
  struct region_t {
    std::atomic<char*> base{nullptr};
    std::atomic<std::size_t> size{0};
    std::atomic<bool> valid{false};

    // [offset, offset + n) inside the region, or nullptr when it does not
    // fit. Overflow-safe: offset and n can come off the wire, and a naive
    // offset + n can wrap.
    char* at(std::size_t offset, std::size_t n) const noexcept {
      const std::size_t extent = size.load(std::memory_order_relaxed);
      if (offset > extent || n > extent - offset) return nullptr;
      return base.load(std::memory_order_relaxed) + offset;
    }
  };

  mr_id_t add(void* base, std::size_t size);
  // Throws std::invalid_argument when `id` is not registered.
  void remove(mr_id_t id);
  // The registered region `id` names, or nullptr (any id, even one that
  // came off the wire).
  const region_t* find(mr_id_t id) const noexcept {
    if (id >= regions_.size()) return nullptr;
    const region_t* region = regions_.get(id);
    if (region == nullptr || !region->valid.load(std::memory_order_acquire))
      return nullptr;
    return region;
  }

 private:
  util::mpmc_array_t<region_t*> regions_{8};
  util::spinlock_t lock_;
  std::vector<mr_id_t> freelist_;                   // guarded by lock_
  std::vector<std::unique_ptr<region_t>> storage_;  // guarded by lock_
};

// The fabric half of the device core.
class core_fabric_t : public fabric_t {
 public:
  int nranks() const final { return nranks_; }
  const config_t& config() const final { return config_; }

  // Peer death. A rank's flag is set once and never cleared; the epoch is
  // bumped on every death, so "somebody died since I last looked" is one
  // load.
  bool is_dead(int rank) const noexcept {
    return reinterpret_cast<const std::atomic<uint32_t>*>(
               dead_flags_ + static_cast<std::size_t>(rank) * dead_stride_)
               ->load(std::memory_order_acquire) != 0;
  }
  uint64_t death_epoch() const noexcept {
    return death_epoch_->load(std::memory_order_acquire);
  }

  // Kill schedule: called by a device after each successful post; the
  // fault policy's kill_rank dies once its devices complete kill_after_ops
  // posts (one counter, whichever transport).
  void note_post(int rank) {
    const fault_config_t& fault = config_.fault;
    if (fault.kill_rank != rank || is_dead(rank)) return;
    if (kill_ops_posted_.fetch_add(1, std::memory_order_acq_rel) + 1 >=
        fault.kill_after_ops)
      kill_rank(rank);
  }

  // Shared "uUAR" hardware lock of the td_strategy_t::none model.
  util::spinlock_t& uuar_lock() { return *uuar_lock_; }

 protected:
  core_fabric_t(int nranks, const config_t& config);
  // Sets the rank's flag and bumps the epoch. Returns true for the caller
  // that made the transition.
  bool mark_dead(int rank);
  // Points the ledger at flags kept elsewhere (the shm segment's rank
  // slots): one atomic<uint32_t> per rank, `stride` bytes apart.
  void use_death_ledger(void* flags, std::size_t stride,
                        std::atomic<uint64_t>* epoch) {
    dead_flags_ = static_cast<char*>(flags);
    dead_stride_ = stride;
    death_epoch_ = epoch;
  }

  const int nranks_;
  const config_t config_;

 private:
  // The fabric's own ledger (sim, tcp). Every side reads a rank's flag
  // several times per message, so each sits alone on its line and is
  // written once.
  using dead_flag_t = util::padded<std::atomic<uint32_t>>;
  static_assert(sizeof(dead_flag_t) == util::cache_line_size,
                "a dead flag owns its cache line");
  std::unique_ptr<dead_flag_t[]> own_flags_;
  util::padded<std::atomic<uint64_t>> own_epoch_;
  char* dead_flags_ = nullptr;
  std::size_t dead_stride_ = 0;
  std::atomic<uint64_t>* death_epoch_ = nullptr;
  util::padded<util::spinlock_t> uuar_lock_;
  std::atomic<uint64_t> kill_ops_posted_{0};
};

class device_core_t : public device_t {
 public:
  int index() const override { return index_; }
  post_result_t post_recv(void* buffer, std::size_t size,
                          void* user_context) override;
  poll_result_t poll_cq(cqe_t* out, std::size_t max) override;
  std::size_t preposted_recvs() const override { return srq_.size_approx(); }
  uint64_t injected_faults() const override {
    return injected_faults_.load(std::memory_order_relaxed);
  }
  bool is_peer_down(int rank) const override {
    return rank >= 0 && rank < fabric_->nranks() && fabric_->is_dead(rank);
  }
  uint64_t death_epoch() const override { return fabric_->death_epoch(); }
  uint64_t wire_dropped() const override {
    return wire_dropped_.load(std::memory_order_relaxed);
  }
  void set_doorbell(doorbell_t* doorbell) override {
    doorbell_.store(doorbell, std::memory_order_release);
  }

  // The wire's entry into this device ("the NIC DMA engine"): a dead target
  // evaporates the message, then loss and delay are drawn on this device's
  // stream. Returns false only when `check_depth` is set and the wire has no
  // room (the sim sender retries). Rings the doorbell after the push.
  bool wire_push(wire_msg_t msg, bool check_depth = true);
  // False while the inbound queue is the wire and holds wire_depth messages
  // (approximate under concurrent senders). A sim RMA post asks before it
  // touches memory, then pushes its notification without the check.
  bool wire_has_room() const noexcept;
  // A local completion raised after its post returned (shm/tcp: the last
  // chunk of a queued write left, a read response arrived, a peer died
  // with work queued). It rides the inbound queue, never the CQ ring.
  void complete_late(const cqe_t& cqe);

  // Nothing waits in the inbound queue or the RNR stash (relaxed loads).
  bool inbound_idle() const noexcept {
    return wire_.empty_approx() &&
           rnr_depth_.load(std::memory_order_relaxed) == 0;
  }

  // Rings the registered doorbell (if any): new work is observable here.
  void ring_doorbell() noexcept {
    if (doorbell_t* d = doorbell_.load(std::memory_order_acquire)) d->ring();
  }

 protected:
  // `inbound_is_wire` (sim): the inbound queue is the wire itself, so a push
  // past wire_depth bounces the sender, and a message whose sender died
  // while it was queued evaporates at delivery. Otherwise (shm/tcp) the
  // ring or socket is the wire: the inbound queue holds what the pump took
  // from it, which is never refused and is delivered even if its sender has
  // died since. Reserves a registry slot; the transport publishes once it
  // is fully constructed.
  device_core_t(core_fabric_t* fabric, device_registry_t* registry, int rank,
                int context, bool inbound_is_wire);

  // Makes this device routable (the transport's constructor calls it last)
  // and unroutable again (its destructor calls it first, so no peer reaches
  // a half-destroyed transport).
  void publish() { registry_->publish(context_, index_, this); }
  void withdraw() { registry_->unregister(context_, index_); }

  // The prologue of every post: peer_down when either end is dead, an
  // injected fault, the lock layout's send try-lock (retry_lock) plus the
  // uUAR lock under td_strategy_t::none, and the send-depth check
  // (retry_full). Past it (`result == ok`) the gate holds the locks until
  // the post returns.
  struct post_gate_t {
    post_result_t result = post_result_t::ok;
    util::try_lock_wrapper_t::guard_t lock;
    std::unique_lock<util::spinlock_t> uuar;
  };
  post_gate_t open_post(int peer_rank) {
    post_gate_t gate;
    if (fabric_->is_dead(rank_) || fabric_->is_dead(peer_rank)) {
      gate.result = post_result_t::peer_down;
      return gate;
    }
    gate.result = maybe_inject_fault();
    if (gate.result != post_result_t::ok) return gate;
    gate.lock = acquire_send_lock(peer_rank);
    if (!gate.lock) {
      gate.result = post_result_t::retry_lock;
      return gate;
    }
    // td_strategy_t::none: queue pairs share driver-owned hardware resources
    // (uUARs) whose lock is not visible to the try-lock wrapper, so sends
    // additionally serialize fabric-wide (Sec. 4.2.3).
    if (uuar_)
      gate.uuar = std::unique_lock<util::spinlock_t>(fabric_->uuar_lock());
    if (cq_.size_approx() >= send_depth_limit_)
      gate.result = post_result_t::retry_full;  // send queue full
    return gate;
  }

  // A post's own local completion. Every producer is a post that passed
  // open_post's depth check (at most half the ring), so a full ring here
  // needs more simultaneous posters than capacity/2; spin rather than lose
  // a completion, some poller drains the ring in any such scenario.
  void push_cqe(const cqe_t& cqe) {
    while (!cq_.try_push(cqe)) {
    }
  }
  void note_post() { fabric_->note_post(rank_); }
  void count_wire_drop() noexcept {
    wire_dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  core_fabric_t* const fabric_;
  device_registry_t* const registry_;
  const int rank_;
  const int context_;
  int index_ = -1;

 private:
  util::try_lock_wrapper_t::guard_t acquire_send_lock(int peer_rank) {
    if (ofi_) return ep_lock_.guard();
    if (qp_locks_ != nullptr)
      return qp_locks_[static_cast<std::size_t>(peer_rank)].guard();
    return qp_shared_lock_.guard();  // all_qp / none
  }
  // Forced retries: draws from this device's stream; ok when no fault fires.
  post_result_t maybe_inject_fault() {
    const fault_config_t& fault = fabric_->config().fault;
    if (fault.retry_rate <= 0.0) return post_result_t::ok;
    return inject_fault(fault);
  }
  post_result_t inject_fault(const fault_config_t& fault);

  // The body of poll_cq, run under the polling lock: fills out[] with local
  // completions and inbound deliveries.
  std::size_t poll_owned(cqe_t* out, std::size_t max);
  // Under the polling lock: writes up to `max` deliverable inbound messages
  // (RNR stash first) as CQEs straight into out[]; they never pass through
  // the CQ.
  std::size_t deliver_inbound(cqe_t* out, std::size_t max);
  // false: not deliverable yet (deferred, or RNR: no pre-posted recv).
  bool deliver_one(wire_msg_t& msg, cqe_t& out);
  bool sender_gone(const wire_msg_t& msg) const {
    return inbound_is_wire_ && fabric_->is_dead(msg.src_rank);
  }
  // Counts an evaporated message and ends its wire span.
  void drop(const wire_msg_t& msg, int rank);
  // Under the polling lock: a dead rank observes nothing inbound, so
  // everything queued at it evaporates. Its local completions still come
  // back, late ones (shm/tcp) included: a write or read it posted before it
  // died carries a context only its completion returns to the owner. Writes
  // up to `max` late completions into out[] and returns how many; the rest
  // wait for the next poll.
  std::size_t purge_dead(cqe_t* out, std::size_t max);
  std::size_t pop_cqes(cqe_t* out, std::size_t max);

  const bool inbound_is_wire_;
  const bool ofi_;   // lock_model_t::ofi: ep_lock_ guards every operation
  const bool uuar_;  // ibv + td_strategy_t::none
  std::size_t send_depth_limit_ = 0;

  util::lcrq_t<wire_msg_t> wire_{1024};
  // The completion queue: a bounded lock-free ring of local completions.
  // Posts on any thread produce; its single consumer is whoever holds the
  // polling lock (see poll_cq), and pops with try_pop_owned.
  util::mpmc_ring_t<cqe_t> cq_;
  std::deque<wire_msg_t> rnr_stash_;  // guarded by the polling lock
  // Mirror of rnr_stash_.size(), readable without the polling lock: the
  // empty fast path must see stalled messages without taking the lock.
  std::atomic<std::size_t> rnr_depth_{0};
  // Which source leads the next poll's batch (see poll_owned). Guarded by
  // the polling lock.
  bool inbound_first_ = false;
  std::atomic<doorbell_t*> doorbell_{nullptr};

  // Fault-injection state: a deterministic per-device RNG stream, seeded
  // from the policy seed and this device's (rank, context, index), and the
  // injected count exposed through injected_faults().
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
  util::mpmc_ring_t<prepost_t> srq_{srq_capacity};

  // Lock layout (paper Sec. 4.2.3/4.2.4). ibv: per-object locks; ofi: one
  // endpoint lock used for every operation. The polling lock is cq_lock_
  // (ibv) or ep_lock_ (ofi).
  util::try_lock_wrapper_t cq_lock_;
  util::try_lock_wrapper_t srq_lock_;
  util::try_lock_wrapper_t ep_lock_;
  util::try_lock_wrapper_t qp_shared_lock_;               // all_qp / none
  std::unique_ptr<util::try_lock_wrapper_t[]> qp_locks_;  // per_qp
};

}  // namespace lci::net::detail
