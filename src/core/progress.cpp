// The progress engine (paper Sec. 3.2.6 / 4.4).
//
// progress(): (3) retry backlogged requests; (4) poll the network device and
// react once to each completion — (5) insert incoming sends into the
// matching engine, (6) signal completion objects, (7) replenish pre-posted
// receives, (8) post rendezvous continuations. All reactions that cannot be
// submitted right away go to the device's backlog queue.
//
// The receive path is one path. handle_recv answers the rendezvous control
// messages itself and hands every eager packet to one walker, handle_eager:
// a plain eager_send or eager_am packet is a batch of one entry, a coalesced
// eager_batch (coalesce.cpp) a batch of many. Wherever a receive meets a
// message — in the walker, on an RTS here, or in post_receive — match_recv
// finishes it. A message that meets no receive waits in the packet it
// arrived in, and the packet goes back once nothing holds it (packet.hpp).
#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>

#include "core/runtime_impl.hpp"
#include "util/log.hpp"

namespace lci::detail {

using counter_id_t = detail::counter_id_t;

namespace {

// Scatters `size` bytes into a buffer list (buffer-list receives). Returns
// false — copying nothing — when the list is too small for the payload; the
// caller completes the receive with fatal_truncated. (This used to be an
// assert, which vanished in release builds and silently truncated.)
bool scatter(const char* src, std::size_t size,
             const std::vector<buffer_t>& list) {
  std::size_t capacity = 0;
  for (const buffer_t& b : list) capacity += b.size;
  if (size > capacity) return false;
  std::size_t offset = 0;
  for (const buffer_t& b : list) {
    if (offset >= size) break;
    const std::size_t chunk = std::min(b.size, size - offset);
    std::memcpy(b.base, src + offset, chunk);
    offset += chunk;
  }
  return true;
}

struct rtr_msg_t {
  msg_header_t header;
  rtr_payload_t payload;
};

// Sends the RTR handshake for a matched rendezvous. `mr_offset` locates the
// receive buffer inside `mr` (nonzero when the registration cache served a
// wider interval). Returns done/retry.
status_t send_rtr(device_impl_t* device, int peer_rank, uint32_t rdv_id,
                  uint32_t pending_id, net::mr_id_t mr, uint64_t mr_offset) {
  // Matching-order rule: an RTR unlocks an RDMA write into this rank, which
  // the peer completes locally — it must not overtake a batch buffered for
  // the peer. The ordering obligation is per-peer, so every shard's slot for
  // the peer is flushed (shard -1). A retry bounces the RTR too (callers
  // backlog it); peer_down falls through so the post below reports it.
  if (device->has_armed_aggregation()) {
    const errorcode_t flushed = device->flush_peer_for_ordering(peer_rank, -1);
    if (error_t{flushed}.is_retry()) {
      status_t status;
      status.error.code = flushed;
      return status;
    }
  }
  rtr_msg_t msg;
  msg.header.kind = msg_header_t::rtr;
  msg.payload.rdv_id = rdv_id;
  msg.payload.pending_id = pending_id;
  msg.payload.mr_id = mr;
  msg.payload.mr_offset = mr_offset;
  const auto result = device->net_for(peer_rank, 0).post_send(
      peer_rank, &msg, sizeof(msg), 0, nullptr);
  status_t status;
  status.error = map_net_result(result);
  return status;
}

// Continues a matched rendezvous on the receive side: registers the target
// buffer, records the pending receive, and sends the RTR (falling back to the
// device backlog when the network pushes back). If the incoming message is
// larger than the posted buffer, the receive completes with fatal_truncated
// and a refusal RTR (mr == net::invalid_mr) tells the sender to fail too.
void start_rendezvous_recv(runtime_impl_t* runtime, device_impl_t* device,
                           int peer_rank, tag_t tag, uint32_t rdv_id,
                           uint64_t total_size, rdv_recv_t state) {
  const bool fits = total_size <= state.op.size;
  state.op.size = static_cast<std::size_t>(total_size);
  state.op.rank = peer_rank;
  state.op.tag = tag;
  if (!fits) {
    // Refusal: the incoming message does not fit the posted buffer. Complete
    // the receive with fatal_truncated (exactly once, via its comp) and NACK
    // the sender — an RTR carrying net::invalid_mr — so the sender fails too
    // instead of waiting forever for a handshake that will never come. This
    // path used to throw out of the progress engine, leaking the pending
    // rendezvous on both sides.
    if (state.runtime_owned_buffer) {
      std::free(state.op.buffer);
      state.op.buffer = nullptr;
    }
    finish_op(runtime, state.op, trace::kind_t::op_recv,
              errorcode_t::fatal_truncated);
    const status_t nack =
        send_rtr(device, peer_rank, rdv_id, 0, net::invalid_mr, 0);
    if (nack.error.is_retry()) {
      runtime->counters().add(counter_id_t::backlog_pushed);
      device->backlog().push([device, peer_rank, rdv_id](backlog_action_t a) {
        if (a == backlog_action_t::cancel) {
          // Nothing owed: the receive already failed; the sender's side is
          // cleaned up by its own deadline or the dead-peer purge.
          status_t s;
          s.error.code = errorcode_t::done;
          return s;
        }
        return send_rtr(device, peer_rank, rdv_id, 0, net::invalid_mr, 0);
      });
      device->ring_doorbell();
    }
    return;
  }
  if (!state.list.empty()) {
    // Buffer-list receive: the RDMA write needs one contiguous registered
    // region; land in runtime staging and scatter at FIN.
    state.op.buffer = std::malloc(state.op.size ? state.op.size : 1);
  }
  const net::reg_handle_t reg =
      runtime->reg_acquire(state.op.buffer, state.op.size);
  state.mr = reg.mr;
  const net::mr_id_t mr = reg.mr;
  const uint64_t mr_offset = reg.offset;
  std::shared_ptr<op_record_t> record = state.op.record;
  const uint64_t span_id = state.op.span.id;
  const uint32_t pending_id =
      runtime->pending_recvs().add(std::move(state));
  if (record) {
    // Re-home the tracked op: it now lives in pending_recvs under
    // pending_id. A sweep racing this window sees the old kind with a null
    // engine location and backs off; the next sweep finds the new home.
    std::lock_guard<util::spinlock_t> guard(record->lock);
    record->kind = op_kind_t::rdv_recv;
    record->rdv_id = pending_id;
  }
  // An RTR that cannot reach the peer (either rank is dead) fails the
  // receive here: the purge, which runs once per death, may have swept the
  // pending table before the receive entered it (take() arbitrates).
  const status_t status =
      send_rtr(device, peer_rank, rdv_id, pending_id, mr, mr_offset);
  if (status.error.is_done())
    trace::instant(trace::kind_t::rtr, span_id, peer_rank, tag, total_size);
  if (status.error.is_fatal())
    fail_pending_recv(runtime, pending_id, status.error.code);
  if (status.error.is_retry()) {
    // (8): the progress engine cannot keep retrying; push onto the backlog.
    LCI_LOG_(debug, "rank %d: RTR to %d backlogged (pending %u)",
             runtime->rank(), peer_rank, pending_id);
    runtime->counters().add(counter_id_t::backlog_pushed);
    device->backlog().push([runtime, device, peer_rank, rdv_id, pending_id,
                            mr, mr_offset, span_id](backlog_action_t a) {
      if (a == backlog_action_t::cancel) {
        // The RTR was never sent, so no FIN will ever resolve the pending
        // receive: complete it here (unless a purge/timeout already did).
        fail_pending_recv(runtime, pending_id, errorcode_t::fatal_canceled);
        status_t s;
        s.error.code = errorcode_t::fatal_canceled;
        return s;
      }
      const status_t s =
          send_rtr(device, peer_rank, rdv_id, pending_id, mr, mr_offset);
      if (s.error.is_done()) trace::instant(trace::kind_t::rtr, span_id);
      if (s.error.is_fatal())
        fail_pending_recv(runtime, pending_id, s.error.code);
      return s;
    });
    device->ring_doorbell();
  }
}

// Delivers an eager payload into a matched receive, signaling its comp when
// `signal`, and consumes (deletes) the entry. An oversized payload (posted
// buffer or buffer list too small) completes the receive with
// fatal_truncated instead of writing past the buffer, and so does
// data == nullptr: the message arrived truncated (longer than the packet
// that received it) and `size` is the length its sender sent.
status_t complete_eager_recv(runtime_impl_t* runtime, recv_entry_t* entry,
                             int peer_rank, tag_t tag, const char* data,
                             std::size_t size, bool signal) {
  op_state_t& op = entry->op;
  // Arrived truncated (the bytes past the receiving packet never landed) or
  // too large for the buffer: the receive completes with an error instead
  // of throwing out of the progress engine (which stranded the sender's
  // matched packet).
  errorcode_t code = errorcode_t::fatal_truncated;
  if (data != nullptr) {
    if (!entry->list.empty()) {
      if (scatter(data, size, entry->list)) code = errorcode_t::done;
    } else if (size <= op.size) {
      std::memcpy(op.buffer, data, size);
      code = errorcode_t::done;
    }
  }
  if (!entry->list.empty()) op.buffer = nullptr;
  op.size = size;
  op.rank = peer_rank;
  op.tag = tag;
  // The bucket removal that matched us already won the arbitration.
  if (op.record) op.record->leave_engine();
  const status_t status =
      finish_op(runtime, op, trace::kind_t::op_recv, code, signal);
  delete entry;
  return status;
}

}  // namespace

status_t make_fatal_status(runtime_impl_t* runtime, errorcode_t code,
                           const op_report_t& op) {
  runtime->counters().add(counter_id_t::comp_fatal);
  switch (code) {
    case errorcode_t::fatal_canceled:
      runtime->counters().add(counter_id_t::ops_canceled);
      break;
    case errorcode_t::fatal_timeout:
      runtime->counters().add(counter_id_t::ops_timed_out);
      break;
    case errorcode_t::fatal_peer_down:
      runtime->counters().add(counter_id_t::peer_down_completions);
      break;
    default:
      break;
  }
  return status_of(code, op);
}

status_t finish_op(runtime_impl_t* runtime, op_state_t& op,
                   trace::kind_t kind, errorcode_t code, bool signal) {
  if (op.record)
    op.record->state.store(op_record_t::st_terminal, std::memory_order_release);
  const bool done = code == errorcode_t::done;
  trace::end_op(op.span, kind, done ? 0 : static_cast<uint8_t>(code), op.rank,
                op.tag, op.size);
  const status_t status =
      done ? status_of(code, op) : make_fatal_status(runtime, code, op);
  if (signal) signal_comp(op.comp, status);
  return status;
}

status_t match_recv(runtime_impl_t* runtime, device_impl_t* device,
                    recv_entry_t* entry, const kept_msg_t& msg, bool signal) {
  const int peer_rank = msg.packet->peer_rank;
  runtime->counters().add(counter_id_t::recv_matched);
  trace::instant(trace::kind_t::match, entry->op.span.id, peer_rank, msg.tag,
                 msg.size);
  if (msg.packet->kind == msg_header_t::eager_send) {
    status_t status = complete_eager_recv(
        runtime, entry, peer_rank, msg.tag,
        msg.landed_whole() ? msg.data() : nullptr, msg.size, signal);
    if (signal) status.error.code = errorcode_t::posted;
    return status;
  }
  // A matching engine holds eager sends and RTS only.
  assert(msg.packet->kind == msg_header_t::rts);
  rts_payload_t rts;
  std::memcpy(&rts, msg.data(), sizeof(rts));
  // The receive leaves the matching engine for the pending-recv table.
  rdv_recv_t state;
  state.op = std::move(entry->op);
  state.list = std::move(entry->list);
  if (state.op.record) state.op.record->leave_engine();
  delete entry;
  start_rendezvous_recv(runtime, device, peer_rank, msg.tag, rts.rdv_id,
                        rts.size, std::move(state));
  status_t status;
  status.error.code = errorcode_t::posted;
  return status;
}

// ---------------------------------------------------------------------------
// CQE handling
// ---------------------------------------------------------------------------

void device_impl_t::handle_recv(const net::cqe_t& cqe, uint32_t& holds) {
  auto* packet = static_cast<packet_t*>(cqe.user_context);
  // The sender died after this message reached our CQ: evaporate it, as if
  // it had been lost on the wire. Without this, traffic already queued
  // locally could resurrect a dead peer's messages after the purge ran.
  if (net().is_peer_down(cqe.peer_rank)) return;
  // The fabric never writes past the receive packet but reports the length
  // the sender sent (on shm/tcp, input from another process). Shorter than
  // a header is corrupt. Longer than the packet (the sender's packet_size is
  // larger) means only the first bytes landed: the eager walk completes the
  // entry cut short with fatal_truncated, never done, and a rendezvous
  // control message cut short cannot be answered.
  if (cqe.length < sizeof(msg_header_t))
    throw fatal_error_t("message shorter than its header");
  const auto* header = static_cast<const msg_header_t*>(cqe.buffer);
  // Read by whoever takes a message kept in this packet.
  packet->peer_rank = cqe.peer_rank;
  packet->kind = header->kind == msg_header_t::rts ? msg_header_t::rts
                                                   : msg_header_t::eager_send;
  packet->landed = static_cast<uint32_t>(
      std::min(cqe.length, packet->pool->packet_capacity()));
  const bool truncated = cqe.length > packet->landed;
  const char* data =
      static_cast<const char*>(cqe.buffer) + sizeof(msg_header_t);
  const std::size_t data_size = cqe.length - sizeof(msg_header_t);
  const auto control_fits = [&](std::size_t payload_bytes) {
    if (truncated || data_size < payload_bytes)
      throw fatal_error_t("rendezvous control message cut short");
  };

  switch (header->kind) {
    case msg_header_t::rts: {
      control_fits(sizeof(rts_payload_t));
      matching_engine_impl_t* engine =
          runtime_->lookup_engine(header->engine_id);
      if (engine == nullptr)
        throw fatal_error_t("RTS names an unknown matching engine");
      const tag_t tag = header->tag;
      const auto key = engine->make_key(
          cqe.peer_rank, tag, static_cast<matching_policy_t>(header->policy));
      // Until a receive takes it, the RTS waits in its packet as a record
      // written over the header just parsed.
      auto* kept = new (packet->payload())
          kept_msg_t{packet, static_cast<uint32_t>(data_size), tag};
      void* matched =
          engine->insert(key, kept, matching_engine_impl_t::type_t::send);
      if (matched == nullptr) {
        holds = 1;
        return;
      }
      match_recv(runtime_, this, static_cast<recv_entry_t*>(matched), *kept,
                 /*signal=*/true);
      return;
    }
    case msg_header_t::rts_am: {
      control_fits(sizeof(rts_payload_t));
      comp_impl_t* comp = runtime_->lookup_rcomp(header->rcomp);
      if (comp == nullptr)
        throw fatal_error_t("rendezvous active message names an unknown rcomp");
      rts_payload_t rts;
      std::memcpy(&rts, data, sizeof(rts));
      rdv_recv_t state;
      state.op.size = static_cast<std::size_t>(rts.size);
      state.op.buffer = std::malloc(state.op.size ? state.op.size : 1);
      state.op.comp = comp;
      // The runtime owns the malloc until the payload is delivered at FIN
      // (where ownership passes to the AM consumer); a fatal handshake frees
      // it here instead of leaking.
      state.runtime_owned_buffer = true;
      // No posted receive exists for a rendezvous AM; open a fresh op span
      // covering RTS arrival -> FIN delivery.
      state.op.span = trace::begin(trace::kind_t::op_recv, cqe.peer_rank,
                                   header->tag, state.op.size);
      start_rendezvous_recv(runtime_, this, cqe.peer_rank, header->tag,
                            rts.rdv_id, rts.size, std::move(state));
      return;
    }
    case msg_header_t::rtr: {
      control_fits(sizeof(rtr_payload_t));
      rtr_payload_t rtr;
      std::memcpy(&rtr, data, sizeof(rtr));
      rdv_send_t send;
      if (!runtime_->pending_sends().take(rtr.rdv_id, &send)) {
        // The send this RTR answers was canceled, timed out, or purged with
        // its peer: the handshake is legitimately orphaned. Drop it. (This
        // used to throw, which turned every canceled rendezvous into a
        // crash when the answer eventually arrived.)
        return;
      }
      // Taking the pending entry is the arbitration point: from here the
      // write phase owns the completion and the handshake deadline is
      // disarmed (deadlines cover the handshake, not the bulk transfer).
      if (send.op.record)
        send.op.record->state.store(op_record_t::st_terminal,
                                    std::memory_order_release);
      if (rtr.mr_id == net::invalid_mr) {
        // Receiver refused the rendezvous (posted buffer too small). Fail
        // this send exactly once; the staged gather (if any) dies with
        // `send` when it goes out of scope.
        finish_op(runtime_, send.op, trace::kind_t::op_rdv,
                  errorcode_t::fatal_truncated);
        return;
      }
      const void* src = send.staged ? send.staged.get() : send.op.buffer;
      // The op moves to the write phase; it ends at the write CQE (or in the
      // attempt lambda's fatal/cancel arms).
      auto* ctx = new op_state_t(std::move(send.op));
      // Keep the staged gather alive until the write completes.
      char* staged = send.staged.release();
      const int peer = cqe.peer_rank;
      const net::mr_id_t mr = rtr.mr_id;
      const uint64_t mr_offset = rtr.mr_offset;
      const uint32_t imm = encode_fin_imm(rtr.pending_id);
      // Pick the write's shard once (by the send's key) and capture the
      // endpoint: a backlogged retry may run on a progress-engine thread
      // whose TLS pin would route differently.
      net::device_t* wire = &net_for(peer, ctx->tag);
      // Single owner of `staged` and `ctx` on every exit: retry keeps both
      // for the next attempt, done hands ctx to the write CQE and frees the
      // gather, fatal (including peer death mid-handshake) and cancel free
      // both and deliver the error to the user's comp (this path used to
      // leak ctx and drop the completion silently). Must not throw: the
      // backlog queue retires whatever status comes back.
      auto attempt = [this, peer, src, mr, mr_offset, imm, ctx, staged,
                      wire](backlog_action_t action) {
        status_t status;
        if (action == backlog_action_t::cancel) {
          status.error.code = errorcode_t::fatal_canceled;
        } else {
          try {
            status.error = map_net_result(wire->post_write(
                peer, src, ctx->size, mr, mr_offset, /*notify=*/true, imm,
                ctx));
          } catch (const std::exception&) {
            status.error.code = errorcode_t::fatal;
          }
          if (status.error.is_retry()) return status;
        }
        delete[] staged;
        if (!status.error.is_done()) {
          finish_op(runtime_, *ctx, trace::kind_t::op_rdv, status.error.code);
          delete ctx;
        }
        return status;
      };
      const status_t status = attempt(backlog_action_t::run);
      if (status.error.is_retry()) {
        LCI_LOG_(debug, "rank %d: rendezvous write to %d backlogged",
                 runtime_->rank(), cqe.peer_rank);
        runtime_->counters().add(counter_id_t::backlog_pushed);
        backlog_.push(attempt);
        ring_doorbell();
      }
      return;
    }
    default:
      // eager_send, eager_am and eager_batch; the walk refuses other kinds.
      handle_eager(cqe, holds);
      return;
  }
}

// ---------------------------------------------------------------------------
// The eager walk: one reaction per eager message, whether it arrived alone
// or inside a batch. An eager_send that finds no receive waits in the
// matching engine in the packet it arrived in; in packet-delivery mode,
// active messages are lent out of the packet in place. Each kept message
// and each lent payload is one of the walk's holds on the packet.
// ---------------------------------------------------------------------------
void device_impl_t::handle_eager(const net::cqe_t& cqe, uint32_t& holds) {
  auto* packet = static_cast<packet_t*>(cqe.user_context);
  char* const buffer = static_cast<char*>(cqe.buffer);
  // Only the bytes that landed in the packet are walked. A message longer
  // than the packet (the sender's packet_size is larger) arrived truncated:
  // the first entry whose data does not fit completes with fatal_truncated,
  // and the walk ends there, since no later entry header arrived.
  const std::size_t landed = packet->landed;
  msg_header_t header;
  std::memcpy(&header, buffer, sizeof(header));
  const bool batch = header.kind == msg_header_t::eager_batch;
  if (batch) runtime_->counters().add(counter_id_t::recv_batches);
  const bool packets_mode = runtime_->attr().am_deliver_packets;
  std::size_t off = batch ? sizeof(msg_header_t) : 0;
  while (off + sizeof(batch_sub_header_t) <= landed) {
    // A plain packet is a batch of one entry: its msg_header_t carries the
    // fields of an entry header, and the entry is the rest of the message.
    batch_sub_header_t sub;
    if (batch) {
      std::memcpy(&sub, buffer + off, sizeof(sub));
    } else {
      sub.kind = header.kind;
      sub.policy = header.policy;
      sub.engine_id = header.engine_id;
      sub.size = static_cast<uint32_t>(cqe.length - sizeof(msg_header_t));
      sub.tag = header.tag;
      sub.rcomp = header.rcomp;
    }
    char* data = buffer + off + sizeof(sub);
    // A cut-short entry is the last one: the advance below ends the walk.
    const bool cut = off + sizeof(sub) + sub.size > landed;
    off += batch ? batch_entry_bytes(sub.size) : cqe.length;

    switch (sub.kind) {
      case msg_header_t::eager_send: {
        matching_engine_impl_t* engine = runtime_->lookup_engine(sub.engine_id);
        if (engine == nullptr)
          throw fatal_error_t("message names an unknown matching engine");
        const auto key =
            engine->make_key(cqe.peer_rank, sub.tag,
                             static_cast<matching_policy_t>(sub.policy));
        // Unless a receive is waiting, the entry waits in this packet as a
        // record written over the header just parsed.
        auto* kept = new (data - sizeof(kept_msg_t))
            kept_msg_t{packet, sub.size, sub.tag};
        void* matched =
            engine->insert(key, kept, matching_engine_impl_t::type_t::send);
        if (matched == nullptr) {
          ++holds;
          continue;
        }
        match_recv(runtime_, this, static_cast<recv_entry_t*>(matched),
                   *kept, /*signal=*/true);
        continue;
      }
      case msg_header_t::eager_am: {
        comp_impl_t* comp = runtime_->lookup_rcomp(sub.rcomp);
        if (comp == nullptr)
          throw fatal_error_t("active message names an unknown rcomp");
        if (cut) {
          comp->signal(make_fatal_status(
              runtime_, errorcode_t::fatal_truncated,
              op_report_t{comp, nullptr, nullptr, sub.size, cqe.peer_rank,
                          sub.tag}));
          continue;
        }
        runtime_->counters().add(counter_id_t::am_delivered);
        status_t status;
        status.error.code = errorcode_t::done;
        status.rank = cqe.peer_rank;
        status.tag = sub.tag;
        if (packets_mode) {
          // Lend the payload in place (Sec. 3.3.1); the ref record written
          // over the entry's parsed header lets release_am_packet find the
          // packet.
          const am_packet_ref_t ref{packet, am_packet_magic};
          std::memcpy(data - sizeof(ref), &ref, sizeof(ref));
          status.buffer = buffer_t{data, sub.size};
          comp->signal(status);
          ++holds;
        } else {
          // Deliver in a plain buffer the upper layer frees with std::free.
          comp->signal_am(status, data, sub.size);
        }
        continue;
      }
      default:
        throw fatal_error_t("corrupt message header");
    }
  }
}

bool device_impl_t::handle_cqe(const net::cqe_t& cqe, net::device_t& ep) {
  switch (cqe.op) {
    case net::op_t::send:
      // Eager sends complete at posting time (the buffer was copied); the
      // CQE itself needs no action.
      return false;
    case net::op_t::recv: {
      // The packet goes back once the dispatch and every hold it left are
      // done with it, also when the dispatch throws: a refused message
      // takes no hold, and what a walk kept before it stays kept.
      auto* packet = static_cast<packet_t*>(cqe.user_context);
      uint32_t holds = 0;
      try {
        handle_recv(cqe, holds);
      } catch (...) {
        repost(packet, holds, ep);
        throw;
      }
      repost(packet, holds, ep);
      return true;
    }
    case net::op_t::write:
    case net::op_t::read: {
      if (cqe.user_context == nullptr) return false;
      auto* op = static_cast<op_state_t*>(cqe.user_context);
      // Only rendezvous writes carry a span (RMA ops have none); its end
      // here is the send-side post -> completion measurement.
      finish_op(runtime_, *op, trace::kind_t::op_rdv, errorcode_t::done);
      delete op;
      return true;
    }
    case net::op_t::remote_write:
    case net::op_t::remote_read: {
      if (imm_is_fin(cqe.imm)) {
        rdv_recv_t state;
        if (!runtime_->pending_recvs().take(imm_fin_pending_id(cqe.imm),
                                            &state))
          return true;  // receive canceled/timed out/purged: orphaned FIN
        // Taking the pending entry wins the completion.
        op_state_t& op = state.op;
        trace::instant(trace::kind_t::fin, op.span.id, op.rank, op.tag,
                       op.size);
        runtime_->reg_release(state.mr);
        errorcode_t code = errorcode_t::done;
        if (!state.list.empty()) {
          // Buffer-list receive: scatter out of the runtime staging buffer.
          if (!scatter(static_cast<const char*>(op.buffer), op.size,
                       state.list))
            code = errorcode_t::fatal_truncated;
          std::free(op.buffer);
          op.buffer = nullptr;
        }
        // A rendezvous AM hands its buffer to the consumer; a CQ that is
        // freed before the AM is popped then frees it.
        const status_t status =
            finish_op(runtime_, op, trace::kind_t::op_recv, code,
                      /*signal=*/!state.runtime_owned_buffer);
        if (state.runtime_owned_buffer) op.comp->signal_owned_am(status);
        return true;
      }
      // RMA-with-signal notification at the target.
      comp_impl_t* comp = runtime_->lookup_rcomp(imm_signal_rcomp(cqe.imm));
      if (comp != nullptr) {
        status_t status;
        status.error.code = errorcode_t::done;
        status.rank = cqe.peer_rank;
        status.tag = imm_signal_tag(cqe.imm);
        status.buffer = buffer_t{nullptr, cqe.length};
        comp->signal(status);
      }
      return true;
    }
  }
  return false;
}

bool device_impl_t::progress() {
  runtime_->counters().add(counter_id_t::progress_calls);
  const bool traced = trace::on() && trace::sampled();
  const uint64_t poll_start = traced ? trace::now_ns() : 0;
  bool advanced = false;
  // Failure lifecycle: react to newly dead peers (purge their queued state)
  // and expire operation deadlines. Both are no-op cheap on the fast path —
  // an epoch compare and an atomic next-deadline gate.
  advanced |= runtime_->check_peer_failures(this);
  advanced |= runtime_->deadline_sweep() > 0;
  // (3) Backlogged requests first: they are older than anything in the CQ.
  advanced |= backlog_.progress();
  // Flush aggregation slots that have aged past aggregation_flush_us (the
  // armed check is one relaxed load when coalescing is idle or off).
  if (has_armed_aggregation()) {
    const uint64_t now = now_ns();
    const uint64_t age_ns = agg_flush_us_ * 1000;
    if (now > age_ns) advanced |= flush_aggregation(-1, now - age_ns) > 0;
  }
  // (4) Poll every shard's CQ, one burst each. The burst is
  // net::config_t::poll_burst clamped to [1, max_cq_poll_burst] at
  // device construction — and it is a *per-shard* clamp: a burst larger than
  // one shard's pending depth must not let that shard's traffic monopolize
  // the call. Every shard is polled on every call (so `advanced == false`
  // still means "nothing pending anywhere", which quiescence loops rely
  // on); only the *order* varies. A pinned thread starts with its own shard
  // — that is where its posts complete and where its inbound traffic lands
  // under symmetric pinning — and takes the siblings after; unpinned
  // threads rotate the starting shard so no shard's depth can monopolize
  // the burst budget. The rotation cursor is thread-local: a shared atomic
  // here would put one contended cache line back on every thread's poll
  // path, which is the very sharing the shards exist to remove.
  net::cqe_t cqes[max_cq_poll_burst];
  // The first exception a completion threw (a protocol error, a throwing
  // completion handler). The rest of the burst is still handled, so no
  // later message is lost with it; it is rethrown at the end.
  std::exception_ptr error;
  const std::size_t n = shards_.size();
  std::size_t start = 0;
  if (n > 1) {
    static thread_local std::size_t tls_poll_cursor = 0;
    const int pin = thread_shard_hint();
    start = pin >= 0 ? static_cast<std::size_t>(pin) % n
                     : tls_poll_cursor++ % n;
  }
  // Each shard is polled and its burst dispatched under the shard's dispatch
  // claim. Without it, two threads could pop consecutive bursts of one shard
  // and run handle_cqe concurrently, so a key's later message could reach
  // matching first. A taken claim means another thread is draining the
  // shard in order; skipping it is the progress this call would have made
  // (the same convention as a backend's consumer claim).
  for (std::size_t k = 0; k < n; ++k) {
    shard_t& shard = shards_[(start + k) % n];
    if (shard.dispatching.load(std::memory_order_relaxed) ||
        shard.dispatching.exchange(true, std::memory_order_acquire))
      continue;
    // Released on every exit: poll_cq throws when a transport breaks.
    struct release_t {
      std::atomic<bool>& claim;
      ~release_t() { claim.store(false, std::memory_order_release); }
    } release{shard.dispatching};
    net::device_t& ep = *shard.net_device;
    const auto polled = ep.poll_cq(cqes, cq_poll_burst_);
    for (std::size_t i = 0; i < polled.count; ++i) {
      // Accumulate with |= so every CQE is handled; `advanced` must report
      // only what handle_cqe says (the old `|| cqe.op != send` term claimed
      // progress for no-op completions, defeating callers that spin until
      // quiescence).
      try {
        advanced |= handle_cqe(cqes[i], ep);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
  }
  // (7) Keep the receive queue full. Consumed packets were reposted on
  // their own endpoint during dispatch; this refills from the pool what
  // that could not (packets still held, reposts that missed).
  advanced |= replenish_preposts();
  if (traced)
    trace::hist_record(trace::hist_t::progress_poll,
                       trace::now_ns() - poll_start);
  if (error) std::rethrow_exception(error);
  return advanced;
}

}  // namespace lci::detail
