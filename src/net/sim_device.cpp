#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>

// Recording-side tracing only (header-inline; lci_net does not link the core
// library). Wire spans cover push -> delivery; err codes are the wire's own:
// 0 = delivered, wire_err_rejected = backpressure bounce, wire_err_dropped =
// evaporated (dead sender/target or injected loss).
#include "core/trace.hpp"
#include "net/sim_fabric.hpp"

namespace lci::net::detail {

constexpr uint8_t wire_err_rejected = 1;
constexpr uint8_t wire_err_dropped = 2;

namespace {
inline void end_wire_span(uint64_t trace_id, uint8_t err, int rank = -1,
                          uint64_t size = 0) {
  lci::trace::end(lci::trace::span_t{trace_id, 0}, lci::trace::kind_t::wire,
                  err, rank, 0, size);
}

// The CQ ring's capacity: the configured cq_depth, clamped so a deep one
// does not turn into megabytes of ring per endpoint. Only local completions
// enter it (wire deliveries go straight into the poll batch), so
// send_depth_limit() on the posts is its whole overflow protection.
std::size_t cq_capacity(const config_t& config) {
  return std::clamp<std::size_t>(config.cq_depth, 1024, 8192);
}
}  // namespace

sim_device_t::sim_device_t(sim_fabric_t* fabric, int rank, int context)
    : fabric_(fabric),
      rank_(rank),
      context_(context),
      cq_(cq_capacity(fabric->config())) {
  if (fabric_->config().lock_model == lock_model_t::ibv &&
      fabric_->config().td_strategy == td_strategy_t::per_qp) {
    qp_locks_ = std::make_unique<util::try_lock_wrapper_t[]>(
        static_cast<std::size_t>(fabric_->nranks()));
  }
  // Reserve the registry slot first (its index feeds the RNG derivation)
  // but publish `this` only once construction is complete: route() skips
  // null slots, so no peer can reach a half-built device. Registering the
  // pointer up front let a fast peer's wire_push draw from the fault RNG
  // while this constructor was still seeding it.
  index_ = fabric_->register_device(rank_, context_, nullptr);
  // Derive this device's fault-injection stream from its coordinates so a
  // fixed policy seed reproduces the same per-device decision sequence.
  uint64_t mix = fabric_->config().fault.seed;
  mix ^= util::splitmix64(mix) + static_cast<uint64_t>(rank_);
  mix ^= util::splitmix64(mix) + static_cast<uint64_t>(context_);
  mix ^= util::splitmix64(mix) + static_cast<uint64_t>(index_);
  fault_rng_ = util::xoshiro256_t(mix);
  fabric_->publish_device(rank_, context_, index_, this);
}

sim_device_t::~sim_device_t() {
  fabric_->unregister_device(rank_, context_, index_);
}

void sim_device_t::push_cqe(cqe_t cqe) {
  // Unreachable in practice: every producer is a post that stopped at
  // send_depth_limit() (half the ring), so full here needs more simultaneous
  // posters than capacity/2. Spin rather than lose a completion; some poller
  // drains the ring in any such scenario.
  while (!cq_.try_push(cqe)) {
  }
}

std::size_t sim_device_t::pop_cqes(cqe_t* out, std::size_t max) {
  std::size_t count = 0;
  while (count < max) {
    auto cqe = cq_.try_pop();
    if (!cqe) break;
    out[count++] = *cqe;
  }
  return count;
}

std::size_t sim_device_t::send_depth_limit() const {
  return std::min(effective_send_depth(), cq_.capacity() / 2);
}

post_result_t sim_device_t::maybe_inject_fault() {
  const fault_config_t& fault = fabric_->config().fault;
  if (fault.retry_rate <= 0.0) return post_result_t::ok;
  if (fault.max_faults != 0 &&
      injected_faults_.load(std::memory_order_relaxed) >= fault.max_faults)
    return post_result_t::ok;
  bool as_lock_miss;
  {
    std::lock_guard<util::spinlock_t> guard(fault_lock_);
    if (fault_rng_.uniform() >= fault.retry_rate) return post_result_t::ok;
    as_lock_miss = fault_rng_.uniform() < fault.lock_fraction;
  }
  injected_faults_.fetch_add(1, std::memory_order_relaxed);
  return as_lock_miss ? post_result_t::retry_lock : post_result_t::retry_full;
}

std::size_t sim_device_t::effective_send_depth() const {
  const config_t& cfg = fabric_->config();
  return cfg.fault.send_depth != 0 ? std::min(cfg.fault.send_depth,
                                              cfg.cq_depth)
                                   : cfg.cq_depth;
}

std::size_t sim_device_t::effective_wire_depth() const {
  const config_t& cfg = fabric_->config();
  return cfg.fault.wire_depth != 0 ? std::min(cfg.fault.wire_depth,
                                              cfg.wire_depth)
                                   : cfg.wire_depth;
}

util::try_lock_wrapper_t::guard_t sim_device_t::acquire_send_lock(
    int peer_rank) {
  const config_t& cfg = fabric_->config();
  if (cfg.lock_model == lock_model_t::ofi) return ep_lock_.guard();
  switch (cfg.td_strategy) {
    case td_strategy_t::per_qp:
      return qp_locks_[static_cast<std::size_t>(peer_rank)].guard();
    case td_strategy_t::all_qp:
    case td_strategy_t::none:
      return qp_shared_lock_.guard();
  }
  return {};
}

post_result_t sim_device_t::post_recv(void* buffer, std::size_t size,
                                      void* user_context) {
  if (fabric_->is_dead(rank_)) return post_result_t::peer_down;
  const bool ofi = fabric_->config().lock_model == lock_model_t::ofi;
  auto guard = ofi ? ep_lock_.guard() : srq_lock_.guard();
  if (!guard) return post_result_t::retry_lock;
  if (!srq_.try_push(prepost_t{buffer, size, user_context}))
    return post_result_t::retry_full;  // the SRQ ring is full
  return post_result_t::ok;
}

post_result_t sim_device_t::post_send(int peer_rank, const void* buffer,
                                      std::size_t size, uint32_t imm,
                                      void* user_context) {
  if (fabric_->is_dead(rank_) || fabric_->is_dead(peer_rank))
    return post_result_t::peer_down;
  if (const auto fault = maybe_inject_fault(); fault != post_result_t::ok)
    return fault;
  auto guard = acquire_send_lock(peer_rank);
  if (!guard) return post_result_t::retry_lock;
  // td_strategy_t::none: queue pairs share driver-owned hardware resources
  // (uUARs) whose lock is not visible to the try-lock wrapper, so sends
  // additionally serialize fabric-wide (Sec. 4.2.3).
  std::unique_lock<util::spinlock_t> uuar;
  if (fabric_->config().lock_model == lock_model_t::ibv &&
      fabric_->config().td_strategy == td_strategy_t::none) {
    uuar = std::unique_lock<util::spinlock_t>(fabric_->uuar_lock());
  }
  if (cq_.size_approx() >= send_depth_limit())
    return post_result_t::retry_full;  // send queue full
  // Pinned until return: wire_push rings the target's doorbell after the
  // push, and the pin keeps the routed device (and doorbell) alive for it.
  const auto route = fabric_->route(peer_rank, context_, index_);
  if (route.target == nullptr) return post_result_t::retry_full;

  wire_msg_t msg;
  msg.kind = op_t::send;
  msg.src_rank = rank_;
  msg.imm = imm;
  msg.ready_ns = fabric_->ready_time_ns(size);
  msg.set_payload(buffer, size);
  // Wire span: opened here so its id travels with the message; a rejected
  // push ends it immediately (the retried post opens a fresh one). The tag
  // slot carries the source device index — routing pairs it with the target
  // rank's same-index device, so it doubles as the receive-side shard id for
  // trace_summary.py's per-shard breakdown.
  const trace::span_t wire_span =
      trace::begin(trace::kind_t::wire, peer_rank,
                   static_cast<uint32_t>(index_), size);
  msg.trace_id = wire_span.id;
  if (!route.target->wire_push(std::move(msg))) {
    trace::end(wire_span, trace::kind_t::wire, wire_err_rejected, peer_rank);
    return post_result_t::retry_full;
  }

  // Local completion: the source buffer was copied onto the wire, so it is
  // immediately reusable (RDMA send semantics).
  push_cqe(cqe_t{op_t::send, peer_rank, imm, size, nullptr, user_context});
  fabric_->note_post(rank_);
  return post_result_t::ok;
}

post_result_t sim_device_t::post_write(int peer_rank, const void* local,
                                       std::size_t size, mr_id_t remote_mr,
                                       std::size_t remote_offset, bool notify,
                                       uint32_t imm, void* user_context) {
  if (fabric_->is_dead(rank_) || fabric_->is_dead(peer_rank))
    return post_result_t::peer_down;
  if (const auto fault = maybe_inject_fault(); fault != post_result_t::ok)
    return fault;
  auto guard = acquire_send_lock(peer_rank);
  if (!guard) return post_result_t::retry_lock;
  std::unique_lock<util::spinlock_t> uuar;
  if (fabric_->config().lock_model == lock_model_t::ibv &&
      fabric_->config().td_strategy == td_strategy_t::none) {
    uuar = std::unique_lock<util::spinlock_t>(fabric_->uuar_lock());
  }
  if (cq_.size_approx() >= send_depth_limit())
    return post_result_t::retry_full;

  // Pinned until return: keeps the routed device (and its doorbell, rung by
  // wire_push after the push) alive across the notify delivery.
  sim_fabric_t::route_t route;
  if (notify) {
    route = fabric_->route(peer_rank, context_, index_);
    if (route.target == nullptr) return post_result_t::retry_full;
  }
  char* remote = fabric_->resolve_remote(peer_rank, remote_mr, remote_offset,
                                         size);  // throws on violation
  std::memcpy(remote, local, size);
  if (notify) {
    wire_msg_t msg;
    msg.kind = op_t::remote_write;
    msg.src_rank = rank_;
    msg.imm = imm;
    msg.size = static_cast<uint32_t>(size);
    msg.ready_ns = fabric_->ready_time_ns(size);
    const trace::span_t wire_span =
        trace::begin(trace::kind_t::wire, peer_rank,
                     static_cast<uint32_t>(index_), size);
    msg.trace_id = wire_span.id;
    if (!route.target->wire_push(std::move(msg))) {
      trace::end(wire_span, trace::kind_t::wire, wire_err_rejected, peer_rank);
      return post_result_t::retry_full;
    }
  }
  push_cqe(cqe_t{op_t::write, peer_rank, imm, size, nullptr, user_context});
  // The write CQE carries a completion the owner must dispatch; a sleeping
  // progress engine on this very device would otherwise only notice it at
  // the bounded-sleep timeout.
  ring_doorbell();
  fabric_->note_post(rank_);
  return post_result_t::ok;
}

post_result_t sim_device_t::post_read(int peer_rank, void* local,
                                      std::size_t size, mr_id_t remote_mr,
                                      std::size_t remote_offset, bool notify,
                                      uint32_t imm, void* user_context) {
  if (fabric_->is_dead(rank_) || fabric_->is_dead(peer_rank))
    return post_result_t::peer_down;
  if (const auto fault = maybe_inject_fault(); fault != post_result_t::ok)
    return fault;
  auto guard = acquire_send_lock(peer_rank);
  if (!guard) return post_result_t::retry_lock;
  std::unique_lock<util::spinlock_t> uuar;
  if (fabric_->config().lock_model == lock_model_t::ibv &&
      fabric_->config().td_strategy == td_strategy_t::none) {
    uuar = std::unique_lock<util::spinlock_t>(fabric_->uuar_lock());
  }
  if (cq_.size_approx() >= send_depth_limit())
    return post_result_t::retry_full;

  // Pinned until return: keeps the routed device (and its doorbell, rung by
  // wire_push after the push) alive across the notify delivery.
  sim_fabric_t::route_t route;
  if (notify) {
    route = fabric_->route(peer_rank, context_, index_);
    if (route.target == nullptr) return post_result_t::retry_full;
  }
  const char* remote =
      fabric_->resolve_remote(peer_rank, remote_mr, remote_offset, size);
  std::memcpy(local, remote, size);
  if (notify) {
    // "RDMA read with notification": the paper's interconnects lack it
    // (Sec. 4.3); the simulated fabric provides it as an extension.
    wire_msg_t msg;
    msg.kind = op_t::remote_read;
    msg.src_rank = rank_;
    msg.imm = imm;
    msg.size = static_cast<uint32_t>(size);
    msg.ready_ns = fabric_->ready_time_ns(size);
    const trace::span_t wire_span =
        trace::begin(trace::kind_t::wire, peer_rank,
                     static_cast<uint32_t>(index_), size);
    msg.trace_id = wire_span.id;
    if (!route.target->wire_push(std::move(msg))) {
      trace::end(wire_span, trace::kind_t::wire, wire_err_rejected, peer_rank);
      return post_result_t::retry_full;
    }
  }
  push_cqe(cqe_t{op_t::read, peer_rank, imm, size, nullptr, user_context});
  ring_doorbell();
  fabric_->note_post(rank_);
  return post_result_t::ok;
}

bool sim_device_t::wire_push(wire_msg_t msg) {
  // A dead target evaporates everything pushed at it. The sender normally
  // checks liveness before routing here; this catches the race with a
  // concurrent kill. Report success — from the wire's point of view the
  // message was accepted, it just never arrives.
  if (fabric_->is_dead(rank_)) {
    wire_dropped_.fetch_add(1, std::memory_order_relaxed);
    end_wire_span(msg.trace_id, wire_err_dropped, rank_, msg.size);
    return true;
  }
  if (wire_.size_approx() >= effective_wire_depth()) return false;
  const fault_config_t& fault = fabric_->config().fault;
  if (fault.loss_rate > 0.0) {
    // Silent drop rides the target device's RNG stream, like delivery delay.
    bool lost;
    {
      std::lock_guard<util::spinlock_t> guard(fault_lock_);
      lost = fault_rng_.uniform() < fault.loss_rate;
    }
    if (lost) {
      wire_dropped_.fetch_add(1, std::memory_order_relaxed);
      end_wire_span(msg.trace_id, wire_err_dropped, rank_, msg.size);
      return true;
    }
  }
  if (fault.delay_rate > 0.0) {
    // Delivery delay rides the target device's RNG stream (the decision is
    // "the wire is slow getting this to the target").
    std::lock_guard<util::spinlock_t> guard(fault_lock_);
    if (fault_rng_.uniform() < fault.delay_rate)
      msg.defer_polls = fault.delay_polls;
  }
  wire_.push(std::move(msg));
  // Ring *after* the push so the woken owner's next poll observes the
  // message. Runs on the sender's thread — ring() is an atomic load plus, at
  // worst, a condvar notify when the target's engine is asleep.
  ring_doorbell();
  return true;
}

bool sim_device_t::deliver_one(wire_msg_t& msg, uint64_t& now_cache,
                               cqe_t& out) {
  if (msg.defer_polls > 0) {
    // Injected delivery delay: skip this attempt. The message stays at the
    // head of its FIFO (wire or RNR stash), so per-sender order holds.
    --msg.defer_polls;
    return false;
  }
  if (msg.ready_ns != 0) {
    // Timing model: not yet "on this side of the wire". FIFO per sender, so
    // head-of-line blocking here is the modelled serialization. One clock
    // read per poll: the caller's cache persists across messages.
    if (now_cache == 0) {
      now_cache = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    }
    if (now_cache < msg.ready_ns) return false;
  }
  if (msg.kind == op_t::send) {
    auto prepost = srq_.try_pop();
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

std::size_t sim_device_t::deliver_from_wire(cqe_t* out, std::size_t max,
                                            uint64_t& now_cache) {
  std::size_t delivered = 0;
  // Messages stalled earlier on receiver-not-ready go first (they are older).
  while (!rnr_stash_.empty() && delivered < max) {
    if (fabric_->is_dead(rnr_stash_.front().src_rank)) {
      // The sender died while this message waited: it evaporates.
      wire_dropped_.fetch_add(1, std::memory_order_relaxed);
      end_wire_span(rnr_stash_.front().trace_id, wire_err_dropped,
                    rnr_stash_.front().src_rank, rnr_stash_.front().size);
      rnr_stash_.pop_front();
      rnr_depth_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (!deliver_one(rnr_stash_.front(), now_cache, out[delivered]))
      return delivered;
    rnr_stash_.pop_front();
    rnr_depth_.fetch_sub(1, std::memory_order_relaxed);
    ++delivered;
  }
  while (delivered < max) {
    auto msg = wire_.try_pop();
    if (!msg) break;
    if (fabric_->is_dead(msg->src_rank)) {
      wire_dropped_.fetch_add(1, std::memory_order_relaxed);
      end_wire_span(msg->trace_id, wire_err_dropped, msg->src_rank, msg->size);
      continue;
    }
    if (!deliver_one(*msg, now_cache, out[delivered])) {
      rnr_stash_.push_back(std::move(*msg));
      rnr_depth_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    ++delivered;
  }
  return delivered;
}

void sim_device_t::purge_dead() {
  while (auto msg = wire_.try_pop()) {
    wire_dropped_.fetch_add(1, std::memory_order_relaxed);
    end_wire_span(msg->trace_id, wire_err_dropped, msg->src_rank, msg->size);
  }
  for (const wire_msg_t& stalled : rnr_stash_)
    end_wire_span(stalled.trace_id, wire_err_dropped, stalled.src_rank,
                  stalled.size);
  rnr_stash_.clear();
  rnr_depth_.store(0, std::memory_order_relaxed);
  cqe_t sink[16];
  while (pop_cqes(sink, 16) != 0) {
  }
}

std::size_t sim_device_t::poll_owned(cqe_t* out, std::size_t max) {
  if (fabric_->is_dead(rank_)) {
    purge_dead();
    return 0;
  }
  // One batch, two sources: local completions popped from the CQ, and
  // inbound messages delivered from the wire straight into out[]. The
  // source that went second last poll leads this one with up to half the
  // batch (rounded up), the other fills the rest, and the leader tops up
  // whatever is left — so neither source can starve the other, even at
  // max == 1. The wire tops up only if its first turn filled its share: a
  // stalled wire head (RNR, delay, timing model) is attempted once per
  // poll, since each attempt burns one of a delayed message's polls.
  inbound_first_ = !inbound_first_;
  const std::size_t share = max - max / 2;
  std::size_t inbound_left =
      std::min(max, fabric_->config().poll_burst);  // NIC event burst
  uint64_t now_cache = 0;
  std::size_t count = 0;
  const auto inbound = [&](std::size_t limit) {
    const std::size_t want = std::min(limit - count, inbound_left);
    const std::size_t got = deliver_from_wire(out + count, want, now_cache);
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

poll_result_t sim_device_t::poll_cq(cqe_t* out, std::size_t max) {
  // An idle poll — nothing completed, nothing on the wire, nothing stalled —
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
  const bool ofi = fabric_->config().lock_model == lock_model_t::ofi;
  auto guard = ofi ? ep_lock_.guard() : cq_lock_.guard();
  if (!guard) return poll_result_t{0, true};
  return poll_result_t{poll_owned(out, max), false};
}

bool sim_device_t::is_peer_down(int rank) const {
  return rank >= 0 && rank < fabric_->nranks() && fabric_->is_dead(rank);
}

uint64_t sim_device_t::death_epoch() const { return fabric_->death_epoch(); }

}  // namespace lci::net::detail
