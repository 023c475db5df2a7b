#include "net/ep_common.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>

#include "core/trace.hpp"

namespace lci::net::detail {

namespace {
// Wire-span error codes shared with the sim backend (core/trace.hpp renders
// them): 0 = handed to the transport, 1 = rejected (backpressure bounce),
// 2 = dropped (peer death).
constexpr uint8_t wire_err_rejected = 1;
constexpr uint8_t wire_err_dropped = 2;
}  // namespace

// ---------------------------------------------------------------------------
// ep_device_t
// ---------------------------------------------------------------------------

ep_device_t::ep_device_t(ep_fabric_t* fabric, int context)
    : fabric_(fabric), context_(context) {
  index_ = fabric_->add_device(context_, this);
  // Same seed mix as the sim device: a given (seed, rank, context, device)
  // replays the same fault schedule regardless of backend.
  uint64_t mix = fabric_->config().fault.seed;
  mix ^= util::splitmix64(mix) + static_cast<uint64_t>(fabric_->self_rank());
  mix ^= util::splitmix64(mix) + static_cast<uint64_t>(context_);
  mix ^= util::splitmix64(mix) + static_cast<uint64_t>(index_);
  fault_rng_ = util::xoshiro256_t(mix);
}

post_result_t ep_device_t::maybe_inject_fault() {
  const fault_config_t& fault = fabric_->config().fault;
  if (fault.retry_rate <= 0.0) return post_result_t::ok;
  if (fault.max_faults != 0 &&
      injected_faults_.load(std::memory_order_relaxed) >= fault.max_faults)
    return post_result_t::ok;
  std::lock_guard<util::spinlock_t> guard(fault_lock_);
  if (fault_rng_.uniform() >= fault.retry_rate) return post_result_t::ok;
  injected_faults_.fetch_add(1, std::memory_order_relaxed);
  return fault_rng_.uniform() < fault.lock_fraction
             ? post_result_t::retry_lock
             : post_result_t::retry_full;
}

bool ep_device_t::draw_loss() {
  const fault_config_t& fault = fabric_->config().fault;
  if (fault.loss_rate <= 0.0) return false;
  std::lock_guard<util::spinlock_t> guard(fault_lock_);
  return fault_rng_.uniform() < fault.loss_rate;
}

ep_device_t::~ep_device_t() {
  fabric_->remove_device(context_, index_);
}

void ep_device_t::set_doorbell(doorbell_t* doorbell) {
  doorbell_.store(doorbell, std::memory_order_release);
}

bool ep_device_t::is_peer_down(int rank) const {
  return fabric_->is_dead(rank);
}

uint64_t ep_device_t::death_epoch() const { return fabric_->death_epoch(); }

void ep_device_t::push_cqe(const cqe_t& cqe) {
  {
    std::lock_guard<util::spinlock_t> guard(cq_lock_);
    cq_.push_back(cqe);
  }
  ring_doorbell();
}

post_result_t ep_device_t::post_recv(void* buffer, std::size_t size,
                                     void* user_context) {
  std::lock_guard<util::spinlock_t> guard(srq_lock_);
  if (!rnr_stash_.empty()) {
    // An already-arrived send was waiting for this receive.
    stash_t msg = std::move(rnr_stash_.front());
    rnr_stash_.pop_front();
    std::memcpy(buffer, msg.data.get(), std::min(size, msg.size));
    // Like the sim, the CQE reports the full wire length so the owner can
    // detect truncation.
    push_cqe(cqe_t{op_t::recv, msg.src_rank, msg.imm, msg.size, buffer,
                   user_context});
    return post_result_t::ok;
  }
  srq_.push_back(prepost_t{buffer, size, user_context});
  srq_count_.fetch_add(1, std::memory_order_relaxed);
  return post_result_t::ok;
}

post_result_t ep_device_t::post_send(int peer_rank, const void* buffer,
                                     std::size_t size, uint32_t imm,
                                     void* user_context) {
  if (fabric_->is_dead(peer_rank) || fabric_->is_dead(fabric_->self_rank()))
    return post_result_t::peer_down;
  if (const auto fault = maybe_inject_fault(); fault != post_result_t::ok)
    return fault;
  if (!drain_pending(peer_rank)) return post_result_t::retry_full;

  const trace::span_t wire_span =
      trace::begin(trace::kind_t::wire, peer_rank, 0, size);
  if (draw_loss()) {
    // The message evaporates on the wire: the local completion still fires
    // (the data left our hands — sim loss_rate drops behave the same).
    trace::end(wire_span, trace::kind_t::wire, wire_err_dropped, peer_rank);
    wire_dropped_.fetch_add(1, std::memory_order_relaxed);
    push_cqe(cqe_t{op_t::send, peer_rank, imm, size, nullptr, user_context});
    fabric_->note_post();
    return post_result_t::ok;
  }
  frame_header_t header;
  header.payload_size = static_cast<uint32_t>(size);
  header.kind = static_cast<uint8_t>(frame_kind_t::send);
  header.flags = frame_flag_last;
  header.src_device = static_cast<uint8_t>(index_ & 0xff);
  header.context = static_cast<uint8_t>(context_ & 0xff);
  header.src_rank = fabric_->self_rank();
  header.imm = imm;
  header.trace_id = wire_span.id;
  const auto status = fabric_->push_frame_any(
      peer_rank, header, static_cast<const char*>(buffer));
  if (status == ep_fabric_t::push_status_t::full) {
    trace::end(wire_span, trace::kind_t::wire, wire_err_rejected, peer_rank);
    return post_result_t::retry_full;
  }
  if (status == ep_fabric_t::push_status_t::down) {
    trace::end(wire_span, trace::kind_t::wire, wire_err_dropped, peer_rank);
    return post_result_t::peer_down;
  }
  trace::end(wire_span, trace::kind_t::wire, 0, peer_rank);
  push_cqe(cqe_t{op_t::send, peer_rank, imm, size, nullptr, user_context});
  fabric_->note_post();
  return post_result_t::ok;
}

post_result_t ep_device_t::post_write(int peer_rank, const void* local,
                                      std::size_t size, mr_id_t remote_mr,
                                      std::size_t remote_offset, bool notify,
                                      uint32_t imm, void* user_context) {
  if (fabric_->is_dead(peer_rank) || fabric_->is_dead(fabric_->self_rank()))
    return post_result_t::peer_down;
  if (const auto fault = maybe_inject_fault(); fault != post_result_t::ok)
    return fault;
  if (!drain_pending(peer_rank)) return post_result_t::retry_full;

  const trace::span_t wire_span =
      trace::begin(trace::kind_t::wire, peer_rank, 0, size);
  if (draw_loss()) {
    trace::end(wire_span, trace::kind_t::wire, wire_err_dropped, peer_rank);
    wire_dropped_.fetch_add(1, std::memory_order_relaxed);
    push_cqe(cqe_t{op_t::write, peer_rank, imm, size, nullptr, user_context});
    fabric_->note_post();
    return post_result_t::ok;
  }
  const std::size_t chunk = fabric_->max_chunk_bytes();
  std::vector<pending_tx_t> frames;
  std::size_t done = 0;
  do {
    const std::size_t n = std::min(chunk, size - done);
    pending_tx_t tx;
    tx.header.payload_size = static_cast<uint32_t>(n);
    tx.header.kind = static_cast<uint8_t>(frame_kind_t::write);
    tx.header.src_device = static_cast<uint8_t>(index_ & 0xff);
    tx.header.context = static_cast<uint8_t>(context_ & 0xff);
    tx.header.src_rank = fabric_->self_rank();
    tx.header.mr = remote_mr;
    tx.header.offset = remote_offset + done;
    tx.header.aux = size;  // full message size (remote_write CQE length)
    tx.header.trace_id = wire_span.id;
    tx.payload = static_cast<const char*>(local) + done;
    done += n;
    if (done >= size) {
      tx.header.flags = frame_flag_last |
                        (notify ? frame_flag_notify : uint8_t{0});
      tx.header.imm = imm;
      tx.complete_local = true;
      tx.local_cqe =
          cqe_t{op_t::write, peer_rank, imm, size, nullptr, user_context};
    }
    frames.push_back(std::move(tx));
  } while (done < size);
  submit_frames(peer_rank, std::move(frames));
  trace::end(wire_span, trace::kind_t::wire, 0, peer_rank);
  fabric_->note_post();
  return post_result_t::ok;
}

post_result_t ep_device_t::post_read(int peer_rank, void* local,
                                     std::size_t size, mr_id_t remote_mr,
                                     std::size_t remote_offset, bool notify,
                                     uint32_t imm, void* user_context) {
  if (fabric_->is_dead(peer_rank) || fabric_->is_dead(fabric_->self_rank()))
    return post_result_t::peer_down;
  if (const auto fault = maybe_inject_fault(); fault != post_result_t::ok)
    return fault;
  if (!drain_pending(peer_rank)) return post_result_t::retry_full;

  uint64_t cookie;
  {
    std::lock_guard<util::spinlock_t> guard(read_lock_);
    cookie = next_cookie_.fetch_add(1, std::memory_order_relaxed);
    pending_reads_[cookie] =
        pending_read_t{peer_rank, local, size, 0, user_context};
  }
  const trace::span_t wire_span =
      trace::begin(trace::kind_t::wire, peer_rank, 0, size);
  if (draw_loss()) {
    // The request evaporates mid-wire. The pending-read entry stays: the op
    // finishes through its deadline/cancel path or when the peer dies (the
    // purge completes outstanding reads), never silently.
    trace::end(wire_span, trace::kind_t::wire, wire_err_dropped, peer_rank);
    wire_dropped_.fetch_add(1, std::memory_order_relaxed);
    fabric_->note_post();
    return post_result_t::ok;
  }
  frame_header_t header;
  header.payload_size = 0;
  header.kind = static_cast<uint8_t>(frame_kind_t::read_req);
  header.flags = notify ? frame_flag_notify : uint8_t{0};
  header.src_device = static_cast<uint8_t>(index_ & 0xff);
  header.context = static_cast<uint8_t>(context_ & 0xff);
  header.src_rank = fabric_->self_rank();
  header.imm = imm;
  header.mr = remote_mr;
  header.offset = remote_offset;
  header.cookie = cookie;
  header.aux = size;
  header.trace_id = wire_span.id;
  const auto status = fabric_->push_frame_any(peer_rank, header, nullptr);
  if (status != ep_fabric_t::push_status_t::ok) {
    {
      std::lock_guard<util::spinlock_t> guard(read_lock_);
      pending_reads_.erase(cookie);
    }
    trace::end(wire_span, trace::kind_t::wire,
               status == ep_fabric_t::push_status_t::down ? wire_err_dropped
                                                          : wire_err_rejected,
               peer_rank);
    return status == ep_fabric_t::push_status_t::down
               ? post_result_t::peer_down
               : post_result_t::retry_full;
  }
  trace::end(wire_span, trace::kind_t::wire, 0, peer_rank);
  fabric_->note_post();
  return post_result_t::ok;
}

bool ep_device_t::pending_empty(int peer_rank) {
  std::lock_guard<util::spinlock_t> guard(tx_lock_);
  auto it = pending_tx_.find(peer_rank);
  return it == pending_tx_.end() || it->second.empty();
}

void ep_device_t::submit_frames(int peer_rank,
                                std::vector<pending_tx_t> frames) {
  // Queue first, then drain: keeps the push outside tx_lock_ (a loopback
  // push re-enters dispatch) while preserving per-peer FIFO.
  {
    std::lock_guard<util::spinlock_t> guard(tx_lock_);
    auto& queue = pending_tx_[peer_rank];
    for (auto& frame : frames) queue.push_back(std::move(frame));
  }
  drain_pending(peer_rank);
}

bool ep_device_t::drain_pending(int peer_rank) {
  for (;;) {
    // Claim the head under the lock, push outside it (a loopback push
    // re-enters dispatch). A second drainer backs off a claimed head; the
    // pop / un-claim happens back under the lock, rechecking that the purge
    // has not swept the queue away meanwhile.
    frame_header_t header;
    const char* payload = nullptr;
    {
      std::lock_guard<util::spinlock_t> guard(tx_lock_);
      auto it = pending_tx_.find(peer_rank);
      if (it == pending_tx_.end() || it->second.empty()) return true;
      pending_tx_t& head = it->second.front();
      if (head.in_flight) return false;  // another drainer owns it
      head.in_flight = true;
      header = head.header;
      payload = head.owned != nullptr ? head.owned.get() : head.payload;
    }
    const auto status = fabric_->push_frame_any(peer_rank, header, payload);
    bool complete_local = false;
    cqe_t local_cqe{};
    {
      std::lock_guard<util::spinlock_t> guard(tx_lock_);
      auto it = pending_tx_.find(peer_rank);
      const bool head_alive = it != pending_tx_.end() &&
                              !it->second.empty() &&
                              it->second.front().in_flight;
      if (!head_alive) return true;  // purge swept the queue (and completed)
      if (status == ep_fabric_t::push_status_t::full) {
        it->second.front().in_flight = false;
        return false;
      }
      complete_local = it->second.front().complete_local;
      local_cqe = it->second.front().local_cqe;
      it->second.pop_front();
    }
    if (status == ep_fabric_t::push_status_t::down) {
      // The rest of the message evaporates; the local completion still
      // fires (the data left our hands — sim wire drops behave the same).
      wire_dropped_.fetch_add(1, std::memory_order_relaxed);
      if (complete_local) push_cqe(local_cqe);
      purge_peer(peer_rank);
      return true;
    }
    if (complete_local) push_cqe(local_cqe);
  }
}

void ep_device_t::drain_all_pending() {
  std::vector<int> peers;
  {
    std::lock_guard<util::spinlock_t> guard(tx_lock_);
    for (const auto& [peer, queue] : pending_tx_)
      if (!queue.empty()) peers.push_back(peer);
  }
  for (const int peer : peers) drain_pending(peer);
}

poll_result_t ep_device_t::poll_cq(cqe_t* out, std::size_t max) {
  fabric_->pump_once();
  drain_all_pending();
  poll_result_t result;
  std::lock_guard<util::spinlock_t> guard(cq_lock_);
  while (result.count < max && !cq_.empty()) {
    out[result.count++] = cq_.front();
    cq_.pop_front();
  }
  return result;
}

void ep_device_t::accept_frame(const frame_header_t& header,
                               const char* payload) {
  switch (static_cast<frame_kind_t>(header.kind)) {
    case frame_kind_t::send: {
      std::lock_guard<util::spinlock_t> guard(srq_lock_);
      if (srq_.empty()) {
        stash_t stash;
        stash.src_rank = header.src_rank;
        stash.imm = header.imm;
        stash.size = header.payload_size;
        if (header.payload_size != 0) {
          stash.data.reset(new char[header.payload_size]);
          std::memcpy(stash.data.get(), payload, header.payload_size);
        }
        rnr_stash_.push_back(std::move(stash));
        ring_doorbell();
        return;
      }
      prepost_t prepost = srq_.front();
      srq_.pop_front();
      srq_count_.fetch_sub(1, std::memory_order_relaxed);
      std::memcpy(prepost.buffer, payload,
                  std::min<std::size_t>(prepost.size, header.payload_size));
      push_cqe(cqe_t{op_t::recv, header.src_rank, header.imm,
                     header.payload_size, prepost.buffer,
                     prepost.user_context});
      return;
    }
    case frame_kind_t::write: {
      char* target =
          fabric_->resolve_mr(header.mr, header.offset, header.payload_size);
      if (target == nullptr) {
        wire_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::memcpy(target, payload, header.payload_size);
      if (header.flags & frame_flag_notify)
        push_cqe(cqe_t{op_t::remote_write, header.src_rank, header.imm,
                       static_cast<std::size_t>(header.aux), nullptr,
                       nullptr});
      return;
    }
    case frame_kind_t::read_req: {
      const std::size_t size = static_cast<std::size_t>(header.aux);
      char* source = fabric_->resolve_mr(header.mr, header.offset, size);
      if (source == nullptr) {
        wire_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Snapshot the region now (read semantics) and answer in owned
      // chunks. The frames are queued, not pushed — a direct push could
      // loop back into dispatch while the registry lock is held.
      const std::size_t chunk = fabric_->max_chunk_bytes();
      std::vector<pending_tx_t> frames;
      std::size_t done = 0;
      do {
        const std::size_t n = std::min(chunk, size - done);
        pending_tx_t tx;
        tx.header.payload_size = static_cast<uint32_t>(n);
        tx.header.kind = static_cast<uint8_t>(frame_kind_t::read_resp);
        tx.header.src_device = header.src_device;  // route back to the asker
        tx.header.context = header.context;
        tx.header.src_rank = fabric_->self_rank();
        tx.header.offset = done;  // offset into the initiator's buffer
        tx.header.cookie = header.cookie;
        tx.header.aux = size;
        if (n != 0) {
          tx.owned.reset(new char[n]);
          std::memcpy(tx.owned.get(), source + done, n);
        }
        done += n;
        if (done >= size) tx.header.flags = frame_flag_last;
        frames.push_back(std::move(tx));
      } while (done < size);
      {
        std::lock_guard<util::spinlock_t> guard(tx_lock_);
        auto& queue = pending_tx_[header.src_rank];
        for (auto& frame : frames) queue.push_back(std::move(frame));
      }
      ring_doorbell();  // a poller must come back to drain the response
      if (header.flags & frame_flag_notify)
        push_cqe(cqe_t{op_t::remote_read, header.src_rank, header.imm, size,
                       nullptr, nullptr});
      return;
    }
    case frame_kind_t::read_resp: {
      std::lock_guard<util::spinlock_t> guard(read_lock_);
      auto it = pending_reads_.find(header.cookie);
      if (it == pending_reads_.end()) {
        wire_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      pending_read_t& read = it->second;
      if (header.offset + header.payload_size <= read.size)
        std::memcpy(static_cast<char*>(read.local) + header.offset, payload,
                    header.payload_size);
      read.received += header.payload_size;
      if (header.flags & frame_flag_last) {
        push_cqe(cqe_t{op_t::read, read.peer_rank, 0, read.size, read.local,
                       read.user_context});
        pending_reads_.erase(it);
      }
      return;
    }
    case frame_kind_t::ping:
    case frame_kind_t::pong:
    case frame_kind_t::poison:
    case frame_kind_t::wrap:
      return;  // control / ring bookkeeping; consumed before device routing
  }
}

void ep_device_t::purge_peer(int rank) {
  // Queued chunks to the dead peer evaporate; messages whose final chunk was
  // queued still complete locally (their data left the poster's hands when
  // the post was accepted).
  std::vector<cqe_t> completions;
  {
    std::lock_guard<util::spinlock_t> guard(tx_lock_);
    auto it = pending_tx_.find(rank);
    if (it != pending_tx_.end()) {
      auto& queue = it->second;
      // An in-flight head belongs to its drainer: leave it in place (the
      // drainer pops it and raises its completion), sweep only the rest.
      const std::size_t keep =
          !queue.empty() && queue.front().in_flight ? 1 : 0;
      while (queue.size() > keep) {
        pending_tx_t& tx = queue.back();
        wire_dropped_.fetch_add(1, std::memory_order_relaxed);
        if (tx.complete_local) completions.push_back(tx.local_cqe);
        queue.pop_back();
      }
    }
  }
  // Outstanding reads from the dead peer: complete them (the sim's reads
  // are synchronous and can never be cut off mid-flight; the data here is
  // whatever chunks arrived). The owner observes the death separately
  // through the death epoch / is_peer_down.
  {
    std::lock_guard<util::spinlock_t> guard(read_lock_);
    for (auto it = pending_reads_.begin(); it != pending_reads_.end();) {
      if (it->second.peer_rank == rank) {
        completions.push_back(cqe_t{op_t::read, rank, 0, it->second.size,
                                    it->second.local,
                                    it->second.user_context});
        wire_dropped_.fetch_add(1, std::memory_order_relaxed);
        it = pending_reads_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const cqe_t& cqe : completions) push_cqe(cqe);
}

// ---------------------------------------------------------------------------
// ep_context_t
// ---------------------------------------------------------------------------

int ep_context_t::rank() const { return fabric_->self_rank(); }
int ep_context_t::nranks() const { return fabric_->nranks(); }

std::unique_ptr<device_t> ep_context_t::create_device() {
  return std::make_unique<ep_device_t>(fabric_.get(), index_);
}

mr_id_t ep_context_t::register_memory(void* base, std::size_t size) {
  return fabric_->register_memory(base, size);
}

void ep_context_t::deregister_memory(mr_id_t id) {
  fabric_->deregister_memory(id);
}

// ---------------------------------------------------------------------------
// ep_fabric_t
// ---------------------------------------------------------------------------

ep_fabric_t::ep_fabric_t(int self_rank, int nranks, const config_t& config)
    : self_(self_rank), nranks_(nranks), config_(config) {
  dead_.reset(new std::atomic<bool>[static_cast<std::size_t>(nranks)]);
  purged_.reset(new bool[static_cast<std::size_t>(nranks)]);
  last_heard_us_.reset(
      new std::atomic<uint64_t>[static_cast<std::size_t>(nranks)]);
  const uint64_t now = now_us();
  for (int r = 0; r < nranks; ++r) {
    dead_[static_cast<std::size_t>(r)].store(false, std::memory_order_relaxed);
    purged_[static_cast<std::size_t>(r)] = false;
    last_heard_us_[static_cast<std::size_t>(r)].store(
        now, std::memory_order_relaxed);
  }
  delayed_.resize(static_cast<std::size_t>(nranks));
  // A distinct stream from the devices' (constant salt instead of a device
  // index) so receive-side delay draws do not correlate with post faults.
  uint64_t mix = config_.fault.seed;
  mix ^= util::splitmix64(mix) + static_cast<uint64_t>(self_rank);
  mix ^= util::splitmix64(mix) + 0x9e3779b97f4a7c15ull;
  delay_rng_ = util::xoshiro256_t(mix);
}

uint64_t ep_fabric_t::now_us() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ep_fabric_t::note_heard(int rank) {
  if (rank < 0 || rank >= nranks_ || rank == self_) return;
  last_heard_us_[static_cast<std::size_t>(rank)].store(
      now_us(), std::memory_order_relaxed);
}

void ep_fabric_t::send_ping(int peer) {
  if (peer < 0 || peer >= nranks_ || peer == self_) return;
  if (is_dead(peer) || is_dead(self_)) return;
  frame_header_t header;
  header.kind = static_cast<uint8_t>(frame_kind_t::ping);
  header.src_rank = self_;
  if (push_frame(peer, header, nullptr) == push_status_t::ok)
    heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
}

void ep_fabric_t::liveness_sweep() {
  const uint64_t timeout = config_.peer_timeout_us;
  if (timeout == 0) return;
  const uint64_t now = now_us();
  const uint64_t last = last_sweep_us_;
  last_sweep_us_ = now;
  if (last == 0 || now - last > timeout / 2) {
    // Our own loop stalled (first sweep, or we were the one SIGSTOPped): the
    // staleness indicts us, not the peers — refresh instead of judging, and
    // give everyone a full timeout to be heard again.
    for (int r = 0; r < nranks_; ++r)
      last_heard_us_[static_cast<std::size_t>(r)].store(
          now, std::memory_order_relaxed);
    return;
  }
  for (int r = 0; r < nranks_; ++r) {
    if (r == self_ || is_dead(r)) continue;
    const uint64_t heard =
        last_heard_us_[static_cast<std::size_t>(r)].load(
            std::memory_order_relaxed);
    // heard can postdate this sweep's `now` sample: note_heard runs
    // concurrently (pump / listener readiness), and on a loaded box this
    // thread can sit preempted between sampling `now` and loading `heard`.
    // Unsigned now - heard would wrap to ~2^64 and kill a peer that was
    // heard microseconds ago.
    if (heard >= now || now - heard <= timeout) continue;
    if (on_liveness_timeout(r))
      peers_timed_out_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ep_fabric_t::note_post() {
  const fault_config_t& fault = config_.fault;
  if (fault.kill_rank != self_ || fault.kill_after_ops == 0) return;
  if (is_dead(self_)) return;
  if (post_count_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      fault.kill_after_ops)
    kill_rank(self_);
}

void ep_fabric_t::apply_kill_schedule() {
  const fault_config_t& fault = config_.fault;
  // kill_after_ops == 0: dead from launch (the sim fabric does the same).
  if (fault.kill_rank == self_ && fault.kill_after_ops == 0) kill_rank(self_);
}

void ep_fabric_t::poison_self() { kill_rank(self_); }

ep_fabric_t::~ep_fabric_t() = default;

std::unique_ptr<context_t> ep_fabric_t::create_context(int rank) {
  if (rank != self_)
    throw std::invalid_argument(
        "real backends host exactly one rank per process");
  int index;
  {
    std::lock_guard<util::spinlock_t> guard(dev_lock_);
    index = next_context_++;
    context_storage_.push_back(std::make_unique<context_devices_t>());
    contexts_.push_back(context_storage_.back().get());
  }
  return std::make_unique<ep_context_t>(
      std::static_pointer_cast<ep_fabric_t>(shared_from_this()), index);
}

bool ep_fabric_t::mark_dead_local(int rank) {
  if (rank < 0 || rank >= nranks_) return false;
  bool expected = false;
  if (!dead_[static_cast<std::size_t>(rank)].compare_exchange_strong(
          expected, true, std::memory_order_acq_rel))
    return false;
  death_epoch_.fetch_add(1, std::memory_order_release);
  ring_all_doorbells();
  return true;
}

ep_fabric_t::push_status_t ep_fabric_t::push_frame_any(
    int peer, const frame_header_t& header, const char* payload) {
  if (is_dead(peer) || is_dead(self_)) return push_status_t::down;
  if (peer == self_) {
    dispatch_frame(header, payload);
    return push_status_t::ok;
  }
  return push_frame(peer, header, payload);
}

void ep_fabric_t::pump_once() {
  if (!pump_lock_.try_lock()) return;
  pump(config_.poll_burst != 0 ? config_.poll_burst : 64);
  drain_delayed();
  // A death observed since the last pump (a tombstone another process wrote,
  // a hangup, a kill_rank call) triggers the one-time per-rank purge.
  const uint64_t epoch = death_epoch();
  if (epoch != purged_epoch_) {
    for (int r = 0; r < nranks_; ++r) {
      if (purged_[static_cast<std::size_t>(r)] || !is_dead(r)) continue;
      purged_[static_cast<std::size_t>(r)] = true;
      on_peer_dead(r);
      std::lock_guard<util::spinlock_t> guard(dev_lock_);
      for (const auto& ctx : context_storage_) {
        const std::size_t n = ctx->slots.size();
        for (std::size_t i = 0; i < n; ++i)
          if (ep_device_t* device = ctx->slots.get(i)) device->purge_peer(r);
      }
    }
    purged_epoch_ = epoch;
    ring_all_doorbells();
  }
  pump_lock_.unlock();
}

void ep_fabric_t::dispatch_frame(const frame_header_t& header,
                                 const char* payload) {
  if (header.src_rank >= 0 && header.src_rank < nranks_ &&
      header.src_rank != self_) {
    if (is_dead(header.src_rank))
      return;  // traffic from a dead rank evaporates (nowhere to land)
    note_heard(header.src_rank);
  }
  const auto kind = static_cast<frame_kind_t>(header.kind);
  if (kind == frame_kind_t::ping || kind == frame_kind_t::pong ||
      kind == frame_kind_t::poison) {
    handle_control(header);
    return;
  }
  if (maybe_delay_frame(header, payload)) return;
  route_frame(header, payload);
}

void ep_fabric_t::handle_control(const frame_header_t& header) {
  switch (static_cast<frame_kind_t>(header.kind)) {
    case frame_kind_t::ping: {
      // Answer so a one-directional traffic pattern still proves both sides
      // alive. Best-effort: a full transport just means the next ping tries.
      const int src = header.src_rank;
      if (src < 0 || src >= nranks_ || src == self_) return;
      if (is_dead(src) || is_dead(self_)) return;
      frame_header_t pong;
      pong.kind = static_cast<uint8_t>(frame_kind_t::pong);
      pong.src_rank = self_;
      push_frame(src, pong, nullptr);
      return;
    }
    case frame_kind_t::pong:
      return;  // its job was done by note_heard at the front door
    case frame_kind_t::poison:
      // Remote kill_rank: an order to die. Shut the transport down so every
      // peer observes the death organically.
      poison_self();
      return;
    default:
      return;
  }
}

bool ep_fabric_t::maybe_delay_frame(const frame_header_t& header,
                                    const char* payload) {
  const fault_config_t& fault = config_.fault;
  if (fault.delay_rate <= 0.0) return false;
  const int src = header.src_rank;
  if (src < 0 || src >= nranks_ || src == self_) return false;
  std::lock_guard<util::spinlock_t> guard(delay_lock_);
  auto& queue = delayed_[static_cast<std::size_t>(src)];
  uint32_t polls = 0;
  if (delay_rng_.uniform() < fault.delay_rate)
    polls = fault.delay_polls != 0 ? fault.delay_polls : 1;
  // An undelayed frame behind a held one still queues (polls 0): per-sender
  // FIFO survives the hold.
  if (polls == 0 && queue.empty()) return false;
  delayed_frame_t held;
  held.header = header;
  if (header.payload_size != 0) {
    held.payload.reset(new char[header.payload_size]);
    std::memcpy(held.payload.get(), payload, header.payload_size);
  }
  held.polls_left = polls;
  queue.push_back(std::move(held));
  has_delayed_.store(true, std::memory_order_release);
  return true;
}

void ep_fabric_t::drain_delayed() {
  // Pump lock held: single drainer. One hold-countdown tick per pump round,
  // then every consecutively ready frame delivers in arrival order.
  if (!has_delayed_.load(std::memory_order_acquire)) return;
  bool any_left = false;
  for (int src = 0; src < nranks_; ++src) {
    for (;;) {
      delayed_frame_t frame;
      {
        std::lock_guard<util::spinlock_t> guard(delay_lock_);
        auto& queue = delayed_[static_cast<std::size_t>(src)];
        if (queue.empty()) break;
        delayed_frame_t& head = queue.front();
        if (head.polls_left != 0) {
          --head.polls_left;
          any_left = true;
          break;
        }
        frame = std::move(head);
        queue.pop_front();
      }
      if (!is_dead(src))  // stale frames from a dead rank evaporate
        route_frame(frame.header,
                    frame.payload != nullptr ? frame.payload.get() : nullptr);
    }
  }
  if (!any_left) {
    std::lock_guard<util::spinlock_t> guard(delay_lock_);
    bool any = false;
    for (const auto& queue : delayed_)
      if (!queue.empty()) {
        any = true;
        break;
      }
    has_delayed_.store(any, std::memory_order_release);
  }
}

void ep_fabric_t::route_frame(const frame_header_t& header,
                              const char* payload) {
  // Lock-free steering: index-mod pick the destination shard's device and
  // hand it the frame without dev_lock_ — concurrent routers (the pumper
  // plus any loopback poster) deliver in parallel instead of serializing
  // behind one lock across the payload memcpy. The seq_cst ordering pairs
  // with remove_device's fence: either the remover sees our router count
  // (and waits), or we see its nulled slot.
  routers_.fetch_add(1, std::memory_order_seq_cst);
  const std::size_t ctx_index = header.context;
  if (ctx_index < contexts_.size()) {
    if (context_devices_t* ctx = contexts_.get(ctx_index)) {
      const std::size_t n = ctx->slots.size();
      if (n != 0) {
        const std::size_t start =
            static_cast<std::size_t>(header.src_device) % n;
        for (std::size_t k = 0; k < n; ++k) {
          if (ep_device_t* device = ctx->slots.get((start + k) % n)) {
            device->accept_frame(header, payload);
            break;
          }
        }
      }
    }
  }
  routers_.fetch_sub(1, std::memory_order_release);
}

void ep_fabric_t::ring_all_doorbells() {
  std::lock_guard<util::spinlock_t> guard(dev_lock_);
  const std::size_t nctx = contexts_.size();
  for (std::size_t c = 0; c < nctx; ++c) {
    context_devices_t* ctx = contexts_.get(c);
    if (ctx == nullptr) continue;
    const std::size_t n = ctx->slots.size();
    for (std::size_t i = 0; i < n; ++i)
      if (ep_device_t* device = ctx->slots.get(i)) device->ring_doorbell();
  }
}

int ep_fabric_t::add_device(int context, ep_device_t* device) {
  std::lock_guard<util::spinlock_t> guard(dev_lock_);
  auto& slots = context_storage_.at(static_cast<std::size_t>(context))->slots;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots.get(i) == nullptr) {
      slots.put(i, device);
      return static_cast<int>(i);
    }
  }
  return static_cast<int>(slots.push_back(device));
}

void ep_fabric_t::remove_device(int context, int index) {
  {
    std::lock_guard<util::spinlock_t> guard(dev_lock_);
    context_storage_.at(static_cast<std::size_t>(context))
        ->slots.put(static_cast<std::size_t>(index), nullptr);
  }
  // Quiesce: a route_frame that read the pointer before the null landed may
  // still be inside accept_frame — wait it out (teardown-rate path). The
  // fence orders our null store before the routers_ reads, pairing with the
  // seq_cst increment in route_frame.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  while (routers_.load(std::memory_order_acquire) != 0) {
  }
}

mr_id_t ep_fabric_t::register_memory(void* base, std::size_t size) {
  std::lock_guard<util::spinlock_t> guard(mr_lock_);
  if (!mr_freelist_.empty()) {
    const mr_id_t id = mr_freelist_.back();
    mr_freelist_.pop_back();
    mrs_[id] = ep_mr_record_t{base, size, true};
    return id;
  }
  mrs_.push_back(ep_mr_record_t{base, size, true});
  return static_cast<mr_id_t>(mrs_.size() - 1);
}

void ep_fabric_t::deregister_memory(mr_id_t id) {
  std::lock_guard<util::spinlock_t> guard(mr_lock_);
  if (id >= mrs_.size() || !mrs_[id].valid)
    throw std::invalid_argument("deregistering an unregistered MR");
  mrs_[id].valid = false;
  mr_freelist_.push_back(id);
}

char* ep_fabric_t::resolve_mr(mr_id_t id, std::size_t offset,
                              std::size_t size) {
  std::lock_guard<util::spinlock_t> guard(mr_lock_);
  if (id >= mrs_.size() || !mrs_[id].valid) return nullptr;
  const ep_mr_record_t& record = mrs_[id];
  // Overflow-safe: offset and size come off the wire, and `offset + size`
  // can wrap for a hostile/corrupt uint64 offset, passing the naive check.
  if (offset > record.size || size > record.size - offset) return nullptr;
  return static_cast<char*>(record.base) + offset;
}

}  // namespace lci::net::detail
