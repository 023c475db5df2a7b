#include "net/device_core.hpp"

#include <algorithm>
#include <stdexcept>

// Recording-side tracing only (header-inline; lci_net does not link the core
// library). Wire spans cover push -> delivery.
#include "core/trace.hpp"
#include "util/backoff.hpp"

namespace lci::net::detail {

namespace {
void end_wire_span(uint64_t trace_id, uint8_t err, int rank, uint64_t size) {
  lci::trace::end(lci::trace::span_t{trace_id, 0}, lci::trace::kind_t::wire,
                  err, rank, 0, size);
}

// The CQ ring's capacity. Only posts push into it (inbound deliveries go
// straight into the poll batch, late completions ride the inbound queue),
// so the send-depth check, at half the ring, is its whole overflow
// protection.
constexpr std::size_t cq_capacity = 8192;
}  // namespace

// ---------------------------------------------------------------------------
// mr_table_t
// ---------------------------------------------------------------------------

mr_id_t mr_table_t::add(void* base, std::size_t size) {
  std::lock_guard<util::spinlock_t> guard(lock_);
  region_t* region;
  mr_id_t id;
  if (!freelist_.empty()) {
    id = freelist_.back();
    freelist_.pop_back();
    region = regions_.get(id);
  } else {
    storage_.push_back(std::make_unique<region_t>());
    region = storage_.back().get();
    id = static_cast<mr_id_t>(regions_.push_back(region));
  }
  region->base.store(static_cast<char*>(base), std::memory_order_relaxed);
  region->size.store(size, std::memory_order_relaxed);
  region->valid.store(true, std::memory_order_release);
  return id;
}

void mr_table_t::remove(mr_id_t id) {
  std::lock_guard<util::spinlock_t> guard(lock_);
  region_t* region = id < regions_.size() ? regions_.get(id) : nullptr;
  if (region == nullptr || !region->valid.load(std::memory_order_relaxed))
    throw std::invalid_argument("deregistering an unregistered MR");
  region->valid.store(false, std::memory_order_release);
  freelist_.push_back(id);
}

// ---------------------------------------------------------------------------
// device_registry_t
// ---------------------------------------------------------------------------

int device_registry_t::add_context() {
  std::lock_guard<util::spinlock_t> guard(context_lock_);
  const int index = next_context_++;
  context_storage_.push_back(std::make_unique<context_devices_t>());
  contexts_.put_extend(static_cast<std::size_t>(index),
                       context_storage_.back().get());
  return index;
}

int device_registry_t::reserve(int context) {
  context_devices_t* slots = contexts_.get(static_cast<std::size_t>(context));
  return static_cast<int>(slots->devices.push_back(reserved_slot()));
}

void device_registry_t::publish(int context, int index,
                                device_core_t* device) {
  contexts_.get(static_cast<std::size_t>(context))
      ->devices.put(static_cast<std::size_t>(index), device);
}

void device_registry_t::unregister(int context, int index) {
  contexts_.get(static_cast<std::size_t>(context))
      ->devices.put(static_cast<std::size_t>(index), nullptr);
  // Drain peers still pinned inside route() -> wire_push() -> doorbell ring:
  // their pin's re-check of the slot may have run before the clear, so they
  // may hold a pointer to this device. Once every cell has been seen at zero
  // no such pointer survives. Pins span a single post call or pump step, so
  // this wait is short and cannot deadlock (a pinned thread never
  // unregisters or blocks on teardown).
  //
  // Each cell is read with an RMW, not a load: the RMW lands in the cell's
  // modification order after the slot clear, so a pin taken after it
  // acquires the clear (route()'s re-check rejects this device) and a pin
  // taken before it is counted. A plain load could be satisfied before the
  // clear is visible to a concurrent poster (store-load reordering).
  for (route_pin_cell_t& cell : route_pins_) {
    util::backoff_t backoff;
    while (cell.count.fetch_add(0, std::memory_order_acq_rel) != 0)
      backoff.spin();
  }
}

device_core_t* device_registry_t::find_route(const context_devices_t& slots,
                                             int src_index,
                                             std::size_t* slot) {
  const auto& devices = slots.devices;
  const std::size_t n = devices.size();
  const auto paired = static_cast<std::size_t>(src_index);
  if (paired >= n) return nullptr;  // not created yet
  device_core_t* d = devices.get(paired);
  if (d == reserved_slot()) return nullptr;  // still under construction
  *slot = paired;
  if (d != nullptr) return d;
  // The paired device was freed: any live one will do.
  for (std::size_t k = 1; k < n; ++k) {
    *slot = (paired + k) % n;
    device_core_t* other = devices.get(*slot);
    if (is_live(other)) return other;
  }
  return nullptr;
}

device_registry_t::route_t device_registry_t::route(int context,
                                                    int src_index) {
  if (context < 0 || static_cast<std::size_t>(context) >= contexts_.size())
    return {};  // the target has not created this context yet
  const context_devices_t* slots =
      contexts_.get(static_cast<std::size_t>(context));
  // Look up first, pin after, then re-check the slot. The lookup reads only
  // registry slots, never a device, so it needs no pin; and once paired
  // devices are freed it scans every freed slot, which under a held pin
  // would keep unregister()'s drain from seeing a zero. The re-check makes
  // the late pin safe: a pin taken after the drain's RMW on its cell
  // acquires the slot clear, so the re-read sees the slot emptied (slots are
  // never reused) and the lookup runs again; a pin taken before it is
  // counted, and the drain waits for it.
  while (true) {
    std::size_t slot = 0;
    device_core_t* d = find_route(*slots, src_index, &slot);
    if (d == nullptr) return {};
    route_t routed{d, pin_route()};
    if (slots->devices.get(slot) == d) return routed;
  }
}

void device_registry_t::ring_all() {
  for_each_live([](device_core_t& d) { d.ring_doorbell(); });
}

// ---------------------------------------------------------------------------
// core_fabric_t
// ---------------------------------------------------------------------------

core_fabric_t::core_fabric_t(int nranks, const config_t& config)
    : nranks_(nranks),
      config_(config),
      own_flags_(new dead_flag_t[static_cast<std::size_t>(nranks)]) {
  use_death_ledger(own_flags_.get(), sizeof(dead_flag_t), &*own_epoch_);
}

bool core_fabric_t::mark_dead(int rank) {
  auto* flag = reinterpret_cast<std::atomic<uint32_t>*>(
      dead_flags_ + static_cast<std::size_t>(rank) * dead_stride_);
  uint32_t expected = 0;
  if (!flag->compare_exchange_strong(expected, 1, std::memory_order_acq_rel))
    return false;
  death_epoch_->fetch_add(1, std::memory_order_release);
  return true;
}

// ---------------------------------------------------------------------------
// device_core_t
// ---------------------------------------------------------------------------

device_core_t::device_core_t(core_fabric_t* fabric,
                             device_registry_t* registry, int rank,
                             int context, bool inbound_is_wire)
    : fabric_(fabric),
      registry_(registry),
      rank_(rank),
      context_(context),
      inbound_is_wire_(inbound_is_wire),
      ofi_(fabric->config().lock_model == lock_model_t::ofi),
      uuar_(!ofi_ && fabric->config().td_strategy == td_strategy_t::none),
      cq_(cq_capacity) {
  const config_t& cfg = fabric_->config();
  // Posts stop at half the CQ ring, or earlier under a fault policy's
  // send_depth: each in-flight poster adds at most one element past its own
  // check, so the ring cannot overflow unless more than capacity/2 threads
  // post at once.
  send_depth_limit_ = cq_capacity / 2;
  if (cfg.fault.send_depth != 0)
    send_depth_limit_ = std::min(send_depth_limit_, cfg.fault.send_depth);
  if (!ofi_ && cfg.td_strategy == td_strategy_t::per_qp) {
    qp_locks_ = std::make_unique<util::try_lock_wrapper_t[]>(
        static_cast<std::size_t>(fabric_->nranks()));
  }
  // Reserve the registry slot first (its index feeds the RNG derivation);
  // the transport publishes `this` only once it is fully constructed, so no
  // peer can reach a half-built device or draw from an unseeded stream.
  index_ = registry_->reserve(context_);
  // A fixed policy seed reproduces the same per-device decision sequence,
  // on every transport.
  uint64_t mix = cfg.fault.seed;
  mix ^= util::splitmix64(mix) + static_cast<uint64_t>(rank_);
  mix ^= util::splitmix64(mix) + static_cast<uint64_t>(context_);
  mix ^= util::splitmix64(mix) + static_cast<uint64_t>(index_);
  fault_rng_ = util::xoshiro256_t(mix);
}

post_result_t device_core_t::inject_fault(const fault_config_t& fault) {
  if (fault.max_faults != 0 &&
      injected_faults_.load(std::memory_order_relaxed) >= fault.max_faults)
    return post_result_t::ok;
  bool as_lock_miss;
  {
    std::lock_guard<util::spinlock_t> guard(fault_lock_);
    if (fault_rng_.uniform() >= fault.retry_rate) return post_result_t::ok;
    as_lock_miss = fault_rng_.uniform() < 0.5;  // half read as lock misses
  }
  injected_faults_.fetch_add(1, std::memory_order_relaxed);
  return as_lock_miss ? post_result_t::retry_lock : post_result_t::retry_full;
}

post_result_t device_core_t::post_recv(void* buffer, std::size_t size,
                                       void* user_context) {
  if (fabric_->is_dead(rank_)) return post_result_t::peer_down;
  auto guard = ofi_ ? ep_lock_.guard() : srq_lock_.guard();
  if (!guard) return post_result_t::retry_lock;
  if (!srq_.try_push(prepost_t{buffer, size, user_context}))
    return post_result_t::retry_full;  // the SRQ ring is full
  return post_result_t::ok;
}

bool device_core_t::wire_has_room() const noexcept {
  return !inbound_is_wire_ ||
         wire_.size_approx() < fabric_->config().wire_depth;
}

bool device_core_t::wire_push(wire_msg_t msg, bool check_depth) {
  // A dead target evaporates everything pushed at it. The sender normally
  // checks liveness first; this catches the race with a concurrent kill.
  // Report success: from the wire's point of view the message was accepted,
  // it just never arrives.
  if (fabric_->is_dead(rank_)) {
    drop(msg, rank_);
    return true;
  }
  if (check_depth && !wire_has_room()) return false;
  const fault_config_t& fault = fabric_->config().fault;
  if (fault.loss_rate > 0.0) {
    bool lost;
    {
      std::lock_guard<util::spinlock_t> guard(fault_lock_);
      lost = fault_rng_.uniform() < fault.loss_rate;
    }
    if (lost) {
      drop(msg, rank_);
      return true;
    }
  }
  if (fault.delay_rate > 0.0) {
    // "The wire is slow getting this to the target": the message skips
    // delay_polls delivery attempts at the head of the inbound FIFO.
    std::lock_guard<util::spinlock_t> guard(fault_lock_);
    if (fault_rng_.uniform() < fault.delay_rate)
      msg.defer_polls = fault.delay_polls;
  }
  wire_.push(std::move(msg));
  // Ring *after* the push so the woken owner's next poll observes the
  // message. Runs on the sender's (or pump's) thread — ring() is an atomic
  // load plus, at worst, a condvar notify when the owner's engine sleeps.
  ring_doorbell();
  return true;
}

void device_core_t::complete_late(const cqe_t& cqe) {
  wire_msg_t msg;
  msg.is_cqe = true;
  msg.src_rank = cqe.peer_rank;
  msg.set_payload(&cqe, sizeof(cqe));
  wire_.push(std::move(msg));
  ring_doorbell();
}

void device_core_t::drop(const wire_msg_t& msg, int rank) {
  wire_dropped_.fetch_add(1, std::memory_order_relaxed);
  end_wire_span(msg.trace_id, wire_err_dropped, rank, msg.size);
}

bool device_core_t::deliver_one(wire_msg_t& msg, cqe_t& out) {
  if (msg.is_cqe) {
    std::memcpy(&out, msg.data(), sizeof(out));
    return true;
  }
  if (msg.defer_polls > 0) {
    // Injected delivery delay: skip this attempt. The message stays at the
    // head of its FIFO (inbound queue or RNR stash), so order holds.
    --msg.defer_polls;
    return false;
  }
  if (msg.kind == op_t::send) {
    auto prepost = srq_.try_pop_owned();
    if (!prepost) return false;  // receiver-not-ready
    // Never overrun the pre-posted buffer. The CQE still reports the full
    // wire length, so the consumer sees the overrun: the LCI progress
    // engine completes such a message with fatal_truncated.
    std::memcpy(prepost->buffer, msg.data(),
                std::min<std::size_t>(msg.size, prepost->size));
    out = cqe_t{op_t::recv, msg.src_rank, msg.imm, msg.size,
                prepost->buffer, prepost->user_context};
  } else {
    out = cqe_t{msg.kind, msg.src_rank, msg.imm, msg.size, nullptr, nullptr};
  }
  end_wire_span(msg.trace_id, 0, msg.src_rank, msg.size);
  return true;
}

std::size_t device_core_t::deliver_inbound(cqe_t* out, std::size_t max) {
  std::size_t delivered = 0;
  // Messages stalled earlier on receiver-not-ready go first (they are older).
  // Late completions exist only on shm/tcp, whose senders never evaporate.
  while (!rnr_stash_.empty() && delivered < max) {
    if (sender_gone(rnr_stash_.front())) {
      // The sender died while this message waited: it evaporates.
      drop(rnr_stash_.front(), rnr_stash_.front().src_rank);
      rnr_stash_.pop_front();
      rnr_depth_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (!deliver_one(rnr_stash_.front(), out[delivered]))
      return delivered;
    rnr_stash_.pop_front();
    rnr_depth_.fetch_sub(1, std::memory_order_relaxed);
    ++delivered;
  }
  while (delivered < max) {
    auto msg = wire_.try_pop();
    if (!msg) break;
    if (sender_gone(*msg)) {
      drop(*msg, msg->src_rank);
      continue;
    }
    if (!deliver_one(*msg, out[delivered])) {
      rnr_stash_.push_back(std::move(*msg));
      rnr_depth_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    ++delivered;
  }
  return delivered;
}

std::size_t device_core_t::pop_cqes(cqe_t* out, std::size_t max) {
  std::size_t count = 0;
  while (count < max) {
    auto cqe = cq_.try_pop_owned();
    if (!cqe) break;
    out[count++] = *cqe;
  }
  return count;
}

std::size_t device_core_t::purge_dead(cqe_t* out, std::size_t max) {
  for (const wire_msg_t& stalled : rnr_stash_)
    end_wire_span(stalled.trace_id, wire_err_dropped, stalled.src_rank,
                  stalled.size);
  rnr_stash_.clear();
  rnr_depth_.store(0, std::memory_order_relaxed);
  std::size_t count = 0;
  while (count < max) {
    auto msg = wire_.try_pop();
    if (!msg) break;
    if (msg->is_cqe)
      deliver_one(*msg, out[count++]);  // always deliverable
    else
      drop(*msg, msg->src_rank);
  }
  return count;
}

std::size_t device_core_t::poll_owned(cqe_t* out, std::size_t max) {
  if (fabric_->is_dead(rank_)) {
    const std::size_t count = purge_dead(out, max);
    return count + pop_cqes(out + count, max - count);
  }
  // One batch, two sources: local completions popped from the CQ, and
  // inbound messages delivered straight into out[]. The source that went
  // second last poll leads this one with up to half the batch (rounded up),
  // the other fills the rest, and the leader tops up whatever is left — so
  // neither source can starve the other, even at max == 1. The inbound side
  // tops up only if its first turn filled its share: a stalled head (RNR,
  // delay) is attempted once per poll, since each attempt burns one of a
  // delayed message's polls.
  inbound_first_ = !inbound_first_;
  const std::size_t share = max - max / 2;
  std::size_t inbound_left =
      std::min(max, fabric_->config().poll_burst);  // NIC event burst
  std::size_t count = 0;
  const auto inbound = [&](std::size_t limit) {
    const std::size_t want = std::min(limit - count, inbound_left);
    const std::size_t got = deliver_inbound(out + count, want);
    count += got;
    inbound_left -= got;
    return got == want;
  };
  const auto local = [&](std::size_t limit) {
    count += pop_cqes(out + count, limit - count);
  };
  if (inbound_first_) {
    const bool more = inbound(share);
    local(max);
    if (more) inbound(max);
  } else {
    local(share);
    inbound(max);
    local(max);
  }
  return count;
}

poll_result_t device_core_t::poll_cq(cqe_t* out, std::size_t max) {
  // An idle poll — nothing completed, nothing inbound, nothing stalled —
  // returns after three relaxed loads, without an RMW on any lock. A push
  // racing past these loads is caught by the next poll, exactly the
  // eventual-visibility contract poll loops already live with. A dead rank
  // with nothing queued needs no purge.
  if (cq_.empty_approx() && rnr_depth_.load(std::memory_order_relaxed) == 0 &&
      wire_.empty_approx())
    return poll_result_t{0, false};
  // The lock model's CQ try-lock makes this poller the single consumer of
  // the CQ and SRQ rings; its release/acquire pair hands one poller's
  // cursors to the next.
  auto guard = ofi_ ? ep_lock_.guard() : cq_lock_.guard();
  if (!guard) return poll_result_t{0, true};
  return poll_result_t{poll_owned(out, max), false};
}

}  // namespace lci::net::detail
