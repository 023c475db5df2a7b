#include "net/ep_common.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>

#include "core/trace.hpp"

namespace lci::net::detail {

namespace {
// A target-side notification (remote_write / remote_read) for the device
// core's inbound queue.
wire_msg_t notification(op_t kind, const frame_header_t& header,
                        std::size_t size) {
  wire_msg_t msg;
  msg.kind = kind;
  msg.src_rank = header.src_rank;
  msg.imm = header.imm;
  msg.size = static_cast<uint32_t>(size);
  return msg;
}

// A post whose frame the transport refused: peer_down when the peer (or
// this rank) is gone, else retry_full (ring or staging full).
post_result_t refused(push_status_t status, const trace::span_t& wire_span,
                      int peer_rank) {
  const bool down = status == push_status_t::down;
  trace::end(wire_span, trace::kind_t::wire,
             down ? wire_err_dropped : wire_err_rejected, peer_rank);
  return down ? post_result_t::peer_down : post_result_t::retry_full;
}

// Frames of one stream: same sender, same source device, same context.
bool same_stream(const frame_header_t& a, const frame_header_t& b) {
  return a.src_rank == b.src_rank && a.context == b.context &&
         a.src_device == b.src_device;
}
}  // namespace

// ---------------------------------------------------------------------------
// ep_device_t
// ---------------------------------------------------------------------------

ep_device_t::ep_device_t(ep_fabric_t* fabric, int context)
    : device_core_t(fabric, &fabric->registry(), fabric->self_rank(), context,
                    /*inbound_is_wire=*/false),
      ep_(fabric) {
  publish();
}

ep_device_t::~ep_device_t() {
  withdraw();
  ep_->flush_egress();
}

frame_header_t ep_device_t::make_header(frame_kind_t kind) const {
  frame_header_t header;
  header.kind = static_cast<uint8_t>(kind);
  header.context = static_cast<uint16_t>(context_);
  header.src_device = static_cast<uint32_t>(index_);
  header.src_rank = rank_;
  return header;
}

push_status_t ep_device_t::push(int peer, const frame_header_t& header,
                                const char* payload) {
  if (fabric_->is_dead(peer) || fabric_->is_dead(rank_))
    return push_status_t::down;
  if (peer != rank_) return ep_->push_frame(peer, header, payload);
  accept_frame(header, payload);
  return push_status_t::ok;
}

post_result_t ep_device_t::post_send(int peer_rank, const void* buffer,
                                     std::size_t size, uint32_t imm,
                                     void* user_context) {
  const auto gate = open_post(peer_rank);
  if (gate.result != post_result_t::ok) return gate.result;
  if (!drain_pending(peer_rank)) return post_result_t::retry_full;

  const trace::span_t wire_span =
      trace::begin(trace::kind_t::wire, peer_rank,
                   static_cast<uint32_t>(index_), size);
  frame_header_t header = make_header(frame_kind_t::send);
  header.payload_size = static_cast<uint32_t>(size);
  header.flags = frame_flag_last;
  header.imm = imm;
  header.trace_id = wire_span.id;
  const auto status =
      push(peer_rank, header, static_cast<const char*>(buffer));
  if (status != push_status_t::ok) return refused(status, wire_span, peer_rank);
  trace::end(wire_span, trace::kind_t::wire, 0, peer_rank);
  push_cqe(cqe_t{op_t::send, peer_rank, imm, size, nullptr, user_context});
  note_post();
  return post_result_t::ok;
}

post_result_t ep_device_t::post_write(int peer_rank, const void* local,
                                      std::size_t size, mr_id_t remote_mr,
                                      std::size_t remote_offset, bool notify,
                                      uint32_t imm, void* user_context) {
  const auto gate = open_post(peer_rank);
  if (gate.result != post_result_t::ok) return gate.result;
  if (!drain_pending(peer_rank)) return post_result_t::retry_full;

  const trace::span_t wire_span =
      trace::begin(trace::kind_t::wire, peer_rank,
                   static_cast<uint32_t>(index_), size);
  const std::size_t chunk = ep_->max_chunk_bytes();
  std::vector<pending_tx_t> frames;
  std::size_t done = 0;
  do {
    const std::size_t n = std::min(chunk, size - done);
    pending_tx_t tx;
    tx.header = make_header(frame_kind_t::write);
    tx.header.payload_size = static_cast<uint32_t>(n);
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
  note_post();
  return post_result_t::ok;
}

post_result_t ep_device_t::post_read(int peer_rank, void* local,
                                     std::size_t size, mr_id_t remote_mr,
                                     std::size_t remote_offset, bool notify,
                                     uint32_t imm, void* user_context) {
  const auto gate = open_post(peer_rank);
  if (gate.result != post_result_t::ok) return gate.result;
  if (!drain_pending(peer_rank)) return post_result_t::retry_full;

  uint64_t cookie;
  {
    std::lock_guard<util::spinlock_t> guard(read_lock_);
    cookie = next_cookie_.fetch_add(1, std::memory_order_relaxed);
    pending_reads_[cookie] =
        pending_read_t{peer_rank, local, size, 0, user_context};
  }
  const trace::span_t wire_span =
      trace::begin(trace::kind_t::wire, peer_rank,
                   static_cast<uint32_t>(index_), size);
  frame_header_t header = make_header(frame_kind_t::read_req);
  header.flags = notify ? frame_flag_notify : uint8_t{0};
  header.imm = imm;
  header.mr = remote_mr;
  header.offset = remote_offset;
  header.cookie = cookie;
  header.aux = size;
  header.trace_id = wire_span.id;
  const auto status = push(peer_rank, header, nullptr);
  if (status != push_status_t::ok) {
    std::lock_guard<util::spinlock_t> guard(read_lock_);
    pending_reads_.erase(cookie);
    return refused(status, wire_span, peer_rank);
  }
  trace::end(wire_span, trace::kind_t::wire, 0, peer_rank);
  note_post();
  return post_result_t::ok;
}

void ep_device_t::submit_frames(int peer_rank,
                                std::vector<pending_tx_t> frames) {
  // Queue first, then drain: keeps the push outside tx_lock_ (a loopback
  // push re-enters accept_frame) while preserving per-peer FIFO.
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
    // re-enters accept_frame). A second drainer backs off a claimed head;
    // the pop / un-claim happens back under the lock, rechecking that the
    // purge has not swept the queue away meanwhile.
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
    const auto status = push(peer_rank, header, payload);
    bool complete_local = false;
    cqe_t local_cqe{};
    {
      std::lock_guard<util::spinlock_t> guard(tx_lock_);
      auto it = pending_tx_.find(peer_rank);
      const bool head_alive = it != pending_tx_.end() &&
                              !it->second.empty() &&
                              it->second.front().in_flight;
      if (!head_alive) return true;  // purge swept the queue (and completed)
      if (status == push_status_t::full) {
        it->second.front().in_flight = false;
        return false;
      }
      complete_local = it->second.front().complete_local;
      local_cqe = it->second.front().local_cqe;
      it->second.pop_front();
    }
    if (status == push_status_t::down) {
      // The rest of the message evaporates; the local completion still
      // fires (the data left our hands — sim wire drops behave the same).
      count_wire_drop();
      if (complete_local) complete_late(local_cqe);
      purge_peer(peer_rank);
      return true;
    }
    if (complete_local) complete_late(local_cqe);
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
  ep_->pump_once();
  drain_all_pending();
  return device_core_t::poll_cq(out, max);
}

void ep_device_t::accept_frame(const frame_header_t& header,
                               const char* payload) {
  switch (static_cast<frame_kind_t>(header.kind)) {
    case frame_kind_t::send: {
      wire_msg_t msg;
      msg.kind = op_t::send;
      msg.src_rank = header.src_rank;
      msg.imm = header.imm;
      msg.set_payload(payload, header.payload_size);
      wire_push(std::move(msg));
      return;
    }
    case frame_kind_t::write: {
      char* target =
          ep_->resolve_mr(header.mr, header.offset, header.payload_size);
      if (target == nullptr) {
        count_wire_drop();
        return;
      }
      std::memcpy(target, payload, header.payload_size);
      if (header.flags & frame_flag_notify)
        wire_push(notification(op_t::remote_write, header,
                               static_cast<std::size_t>(header.aux)));
      return;
    }
    case frame_kind_t::read_req: {
      const std::size_t size = static_cast<std::size_t>(header.aux);
      char* source = ep_->resolve_mr(header.mr, header.offset, size);
      if (source == nullptr) {
        count_wire_drop();
        return;
      }
      // Snapshot the region now (read semantics) and answer in owned
      // chunks. The frames are queued, not pushed: the pump that steered
      // this frame here must not block on the transport.
      const std::size_t chunk = ep_->max_chunk_bytes();
      std::vector<pending_tx_t> frames;
      std::size_t done = 0;
      do {
        const std::size_t n = std::min(chunk, size - done);
        pending_tx_t tx;
        tx.header.payload_size = static_cast<uint32_t>(n);
        tx.header.kind = static_cast<uint8_t>(frame_kind_t::read_resp);
        // Route back to the asker: its device index, not this one's.
        tx.header.src_device = header.src_device;
        tx.header.context = header.context;
        tx.header.src_rank = rank_;
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
        wire_push(notification(op_t::remote_read, header, size));
      return;
    }
    case frame_kind_t::read_resp: {
      cqe_t done{};
      {
        std::lock_guard<util::spinlock_t> guard(read_lock_);
        auto it = pending_reads_.find(header.cookie);
        if (it == pending_reads_.end()) {
          count_wire_drop();
          return;
        }
        pending_read_t& read = it->second;
        if (header.offset + header.payload_size <= read.size)
          std::memcpy(static_cast<char*>(read.local) + header.offset, payload,
                      header.payload_size);
        read.received += header.payload_size;
        if (!(header.flags & frame_flag_last)) return;
        done = cqe_t{op_t::read, read.peer_rank, 0,
                     read.size, read.local, read.user_context};
        pending_reads_.erase(it);
      }
      complete_late(done);
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
        count_wire_drop();
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
        count_wire_drop();
        it = pending_reads_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const cqe_t& cqe : completions) complete_late(cqe);
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
  return fabric_->mrs().add(base, size);
}

void ep_context_t::deregister_memory(mr_id_t id) {
  fabric_->mrs().remove(id);
}

// ---------------------------------------------------------------------------
// ep_fabric_t
// ---------------------------------------------------------------------------

ep_fabric_t::ep_fabric_t(int self_rank, int nranks, const config_t& config)
    : core_fabric_t(nranks, config), self_(self_rank) {
  purged_.reset(new bool[static_cast<std::size_t>(nranks)]());
  last_heard_us_.reset(
      new std::atomic<uint64_t>[static_cast<std::size_t>(nranks)]);
  const uint64_t now = now_us();
  for (int r = 0; r < nranks; ++r)
    last_heard_us_[static_cast<std::size_t>(r)].store(
        now, std::memory_order_relaxed);
}

ep_fabric_t::~ep_fabric_t() = default;

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

void ep_fabric_t::apply_kill_schedule() {
  const fault_config_t& fault = config_.fault;
  // kill_after_ops == 0: dead from launch (the sim fabric does the same).
  if (fault.kill_rank == self_ && fault.kill_after_ops == 0) kill_rank(self_);
}

void ep_fabric_t::poison_self() { kill_rank(self_); }

std::unique_ptr<context_t> ep_fabric_t::create_context(int rank) {
  if (rank != self_)
    throw std::invalid_argument(
        "real backends host exactly one rank per process");
  return std::make_unique<ep_context_t>(
      std::static_pointer_cast<ep_fabric_t>(shared_from_this()),
      registry_.add_context());
}

bool ep_fabric_t::mark_dead_local(int rank) {
  if (rank < 0 || rank >= nranks_ || !mark_dead(rank)) return false;
  registry_.ring_all();
  return true;
}

void ep_fabric_t::note_hangup(int rank) {
  if (std::find(hangups_.begin(), hangups_.end(), rank) == hangups_.end())
    hangups_.push_back(rank);
}

void ep_fabric_t::commit_hangups() {
  if (hangups_.empty()) return;
  // Generous next to a poll loop's rate: it only bounds how long a device
  // that is never polled can hold a hangup back.
  constexpr uint32_t max_pumps = 1024;
  bool delivered = true;
  registry_.for_each_live(
      [&](device_core_t& device) { delivered &= device.inbound_idle(); });
  if (!delivered && ++hangup_pumps_ < max_pumps) return;
  for (const int rank : hangups_) mark_dead_local(rank);
  hangups_.clear();
  hangup_pumps_ = 0;
}

void ep_fabric_t::pump_once() {
  if (!pump_lock_.try_lock()) return;
  release_held();
  // Before this round's ingress: the frames an earlier round took from a
  // hung-up peer have had a poll to reach the runtime.
  commit_hangups();
  pump(config_.poll_burst != 0 ? config_.poll_burst : 64);
  const uint64_t epoch = death_epoch();
  if (epoch != purged_epoch_) {
    for (int r = 0; r < nranks_; ++r) {
      if (purged_[static_cast<std::size_t>(r)] || !is_dead(r)) continue;
      purged_[static_cast<std::size_t>(r)] = true;
      on_peer_dead(r);
      registry_.for_each_live([r](device_core_t& device) {
        static_cast<ep_device_t&>(device).purge_peer(r);
      });
    }
    purged_epoch_ = epoch;
    registry_.ring_all();
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
  steer_frame(header, payload);
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

bool ep_fabric_t::deliver(const frame_header_t& header, const char* payload,
                          const std::deque<held_frame_t>& waiting) {
  if (std::any_of(waiting.begin(), waiting.end(), [&](const held_frame_t& f) {
        return same_stream(f.header, header);
      }))
    return false;
  // Pinned until the frame is in: the device cannot go away meanwhile.
  const auto route =
      registry_.route(header.context, static_cast<int>(header.src_device));
  if (route.target == nullptr) return false;
  static_cast<ep_device_t*>(route.target)->accept_frame(header, payload);
  return true;
}

void ep_fabric_t::steer_frame(const frame_header_t& header,
                              const char* payload) {
  if (deliver(header, payload, held_)) return;
  held_frame_t frame;
  frame.header = header;
  if (header.payload_size != 0) {
    frame.payload.reset(new char[header.payload_size]);
    std::memcpy(frame.payload.get(), payload, header.payload_size);
  }
  held_.push_back(std::move(frame));
}

void ep_fabric_t::release_held() {
  if (held_.empty()) return;
  // A held frame came from a live sender, so, like a frame already handed to
  // a device, it is delivered even if that sender has died since.
  std::deque<held_frame_t> still;
  for (held_frame_t& frame : held_)
    if (!deliver(frame.header, frame.payload.get(), still))
      still.push_back(std::move(frame));
  held_.swap(still);
}

}  // namespace lci::net::detail
