// Generic communication posting (paper Sec. 3.2.4 / Table 1).
#include <cassert>
#include <cstring>
#include <memory>

#include "core/runtime_impl.hpp"

namespace lci::detail {

using counter_id_t = detail::counter_id_t;

namespace {

struct resolved_t {
  runtime_impl_t* runtime;
  device_impl_t* device;
  matching_engine_impl_t* engine;
  packet_pool_impl_t* pool;
  // Shard this post routes to (thread pin or (rank, tag) hash): every wire
  // post and ordering flush of one call uses the same shard, so a key stream
  // never straddles endpoints.
  std::size_t shard;
};

resolved_t resolve(const post_args_t& args) {
  runtime_impl_t* rt = resolve_runtime(args.runtime);
  device_impl_t* device =
      args.device.p != nullptr ? args.device.p : &rt->default_device();
  return resolved_t{
      rt,
      device,
      args.matching_engine.p != nullptr ? args.matching_engine.p
                                        : &rt->default_engine(),
      args.packet_pool.p != nullptr ? args.packet_pool.p : &rt->default_pool(),
      device->route_shard(args.rank, args.tag),
  };
}

// Gathers the user payload (single buffer or buffer list) into `dst`.
void gather(const post_args_t& args, char* dst) {
  if (args.buffers == nullptr) {
    std::memcpy(dst, args.local_buffer, args.size);
    return;
  }
  std::size_t offset = 0;
  for (const buffer_t& b : args.buffers->list) {
    std::memcpy(dst + offset, b.base, b.size);
    offset += b.size;
  }
}

status_t retry_status(errorcode_t code) {
  status_t status;
  status.error.code = code;
  return status;
}

// Maps a failed net post to a status. Retries come back bare; fatal results
// (peer_down today) come back as a fully populated fatal status so retry
// loops terminate instead of spinning on a dead rank. Returned, not thrown:
// the op names state the user still owns, nothing was accepted.
status_t failed_post_status(const resolved_t& r, const post_args_t& args,
                            net::post_result_t result) {
  const error_t err = map_net_result(result);
  if (err.is_fatal())
    return make_fatal_status(r.runtime, err.code, report_of(args));
  return retry_status(err.code);
}

// Applies the done/posted/backlog conventions to a successfully submitted
// immediate-completion operation: if the user forbade `done`, signal the comp
// instead and report `posted`.
status_t finish_immediate(const post_args_t& args, bool via_backlog) {
  status_t status = status_of(errorcode_t::done, report_of(args));
  if (!args.allow_done && args.local_comp.p != nullptr) {
    args.local_comp.p->signal(status);
    status.error.code =
        via_backlog ? errorcode_t::posted_backlog : errorcode_t::posted;
    return status;
  }
  status.error.code = via_backlog ? errorcode_t::done_backlog
                                  : errorcode_t::done;
  return status;
}

// Op-lifecycle span for an operation that failed fatally at posting time:
// begin+end emitted as a pair so fatal posts still show up as (zero-length,
// errored) ops in a trace. Retries emit nothing — the op was never accepted.
void trace_fatal_post(const trace::span_t& post_span, trace::kind_t kind,
                      const status_t& failed, const post_args_t& args,
                      std::size_t size) {
  const trace::span_t op = trace::begin_at(post_span, kind, args.rank,
                                           args.tag, size);
  trace::end_op(op, kind, static_cast<uint8_t>(failed.error.code), args.rank,
                args.tag, size);
}

// ---------------------------------------------------------------------------
// Eager OUT path (inject / buffer-copy) for sends and active messages.
// ---------------------------------------------------------------------------
status_t post_eager_out(const resolved_t& r, const post_args_t& args,
                        uint8_t kind, bool via_backlog,
                        const trace::span_t& post_span) {
  const std::size_t size = payload_size(args);
  msg_header_t header;
  header.kind = kind;
  header.policy = static_cast<uint8_t>(args.matching_policy);
  header.engine_id = r.engine->id();
  header.tag = args.tag;
  header.rcomp = args.remote_comp;

  const std::size_t wire_size = sizeof(header) + size;
  net::post_result_t result;
  if (size <= r.runtime->inject_threshold() && !args.from_packet) {
    // Inject: assemble on the stack, no packet consumed (Sec. 4.3).
    alignas(msg_header_t) char staging[sizeof(msg_header_t) + max_inject_size];
    assert(wire_size <= sizeof(staging));
    std::memcpy(staging, &header, sizeof(header));
    gather(args, staging + sizeof(header));
    result = r.device->net(r.shard).post_send(args.rank, staging, wire_size, 0,
                                              nullptr);
    if (result != net::post_result_t::ok) {
      const status_t failed = failed_post_status(r, args, result);
      if (failed.error.is_fatal())
        trace_fatal_post(post_span, trace::kind_t::op_eager, failed, args,
                         size);
      return failed;
    }
    r.runtime->counters().add(counter_id_t::send_inject);
    const trace::span_t op = trace::begin_at(post_span, trace::kind_t::op_eager,
                                             args.rank, args.tag, size);
    trace::end_op(op, trace::kind_t::op_eager, 0, args.rank, args.tag, size);
    return finish_immediate(args, via_backlog);
  }

  // Buffer-copy: stage in a packet. With from_packet the caller already
  // assembled the payload in a packet obtained from get_packet (Sec. 3.3.1),
  // so only the header needs writing — the protocol's memory copy is saved.
  packet_t* packet;
  if (args.from_packet) {
    packet = packet_t::from_payload(static_cast<char*>(args.local_buffer) -
                                    sizeof(msg_header_t));
    std::memcpy(packet->payload(), &header, sizeof(header));
  } else {
    packet = r.pool->get();
    if (packet == nullptr) return retry_status(errorcode_t::retry_nopacket);
    std::memcpy(packet->payload(), &header, sizeof(header));
    gather(args, packet->payload() + sizeof(header));
  }
  result = r.device->net(r.shard).post_send(args.rank, packet->payload(),
                                            wire_size, 0, nullptr);
  if (result != net::post_result_t::ok) {
    const status_t failed = failed_post_status(r, args, result);
    // from_packet: the caller keeps its packet across a retry — but a fatal
    // result ends the op, so the packet is consumed either way.
    if (!args.from_packet || failed.error.is_fatal())
      packet->pool->put(packet);
    if (failed.error.is_fatal())
      trace_fatal_post(post_span, trace::kind_t::op_eager, failed, args, size);
    return failed;
  }
  // The simulated wire copies synchronously, so the packet is reusable as
  // soon as the post succeeds (a hardware backend would return it from the
  // send CQE instead). A from_packet post consumes the caller's packet.
  packet->pool->put(packet);
  r.runtime->counters().add(counter_id_t::send_bcopy);
  const trace::span_t op = trace::begin_at(post_span, trace::kind_t::op_eager,
                                           args.rank, args.tag, size);
  trace::end_op(op, trace::kind_t::op_eager, 0, args.rank, args.tag, size);
  return finish_immediate(args, via_backlog);
}

// ---------------------------------------------------------------------------
// Rendezvous OUT path (zero-copy) for sends and active messages.
// ---------------------------------------------------------------------------
status_t post_rendezvous_out(const resolved_t& r, const post_args_t& args,
                             uint8_t kind, const trace::span_t& post_span) {
  rdv_send_t state;
  state.op = report_of(args);
  const std::size_t size = state.op.size;
  state.op.span = trace::begin_at(post_span, trace::kind_t::op_rdv, args.rank,
                                  args.tag, size);
  const trace::span_t op_span = state.op.span;
  if (args.buffers != nullptr) {
    // Buffer-list rendezvous: gather into a staging copy the runtime owns
    // until the RDMA write completes.
    state.staged = std::make_unique<char[]>(size);
    gather(args, state.staged.get());
  }
  std::shared_ptr<op_record_t> record;
  if (wants_record(args)) {
    record = make_record(r.runtime, r.device, args, op_kind_t::rdv_send);
    state.op.record = record;
  }
  const uint32_t rdv_id = r.runtime->pending_sends().add(std::move(state));
  if (record) {
    std::lock_guard<util::spinlock_t> guard(record->lock);
    record->rdv_id = rdv_id;
  }

  struct rts_msg_t {
    msg_header_t header;
    rts_payload_t payload;
  } msg;
  msg.header.kind = kind;
  msg.header.policy = static_cast<uint8_t>(args.matching_policy);
  msg.header.engine_id = r.engine->id();
  msg.header.tag = args.tag;
  msg.header.rcomp = args.remote_comp;
  msg.payload.size = size;
  msg.payload.rdv_id = rdv_id;

  const auto result = r.device->net(r.shard).post_send(args.rank, &msg,
                                                       sizeof(msg), 0, nullptr);
  if (result != net::post_result_t::ok) {
    rdv_send_t rollback;
    if (!r.runtime->pending_sends().take(rdv_id, &rollback)) {
      // The peer died between the table add and the RTS post, and the purge
      // already completed this op through its comp. Report `posted`: the
      // op was accepted and its (fatal) completion delivered.
      status_t status;
      status.error.code = errorcode_t::posted;
      return status;
    }
    if (rollback.op.record)
      rollback.op.record->state.store(op_record_t::st_terminal,
                                      std::memory_order_release);
    const status_t failed = failed_post_status(r, args, result);
    // The op span opened above must close: fatal ends with the code, a
    // transient retry ends with the retry code (the op never started; a
    // resubmission opens a fresh span).
    trace::end_op(rollback.op.span, trace::kind_t::op_rdv,
                  static_cast<uint8_t>(failed.error.code), args.rank, args.tag,
                  size);
    return failed;
  }
  r.runtime->counters().add(counter_id_t::send_rdv);
  trace::instant(trace::kind_t::rts, op_span.id, args.rank, args.tag, size);
  r.runtime->track_op(std::move(record), args.out_op);
  status_t status;
  status.error.code = errorcode_t::posted;
  return status;
}

// ---------------------------------------------------------------------------
// Receive path.
// ---------------------------------------------------------------------------
status_t post_receive(const resolved_t& r, const post_args_t& args,
                      const trace::span_t& post_span) {
  // A receive fails immediately when no message can ever complete it: this
  // rank itself is dead, or the receive names its peer (rank not wildcarded
  // by the policy) and that peer is dead. A queued entry would only be
  // purged right back out.
  const bool names_peer =
      args.matching_policy == matching_policy_t::rank_tag ||
      args.matching_policy == matching_policy_t::rank_only;
  net::device_t& net = r.device->net();
  const auto unreachable = [&] {
    return net.is_peer_down(r.runtime->rank()) ||
           (names_peer && net.is_peer_down(args.rank));
  };
  if (unreachable())
    return make_fatal_status(r.runtime, errorcode_t::fatal_peer_down,
                             report_of(args));

  auto* entry = new recv_entry_t;
  entry->op = report_of(args);
  if (args.buffers != nullptr) entry->list = args.buffers->list;
  entry->op.span = trace::begin_at(post_span, trace::kind_t::op_recv,
                                   args.rank, args.tag, entry->op.size);

  const auto key =
      r.engine->make_key(args.rank, args.tag, args.matching_policy);
  std::shared_ptr<op_record_t> record;
  if (wants_record(args)) {
    record = make_record(r.runtime, r.device, args, op_kind_t::recv);
    record->engine = r.engine;
    record->key = key;
    record->entry = entry;
    entry->op.record = record;
  }
  r.runtime->counters().add(counter_id_t::recv_posted);
  void* matched =
      r.engine->insert(key, entry, matching_engine_impl_t::type_t::recv);
  if (matched == nullptr) {
    if (unreachable()) {
      // The peer (or this rank) died while we were inserting; the purge pass
      // may have swept the engine before our entry landed. Pull it back out.
      // Losing the remove race means the purge (or a real match racing the
      // kill) now owns the entry and will deliver its completion.
      if (r.engine->remove(key, entry)) {
        if (record) record->leave_engine();
        const status_t status =
            finish_op(r.runtime, entry->op, trace::kind_t::op_recv,
                      errorcode_t::fatal_peer_down, /*signal=*/false);
        delete entry;
        return status;
      }
    }
    r.runtime->track_op(std::move(record), args.out_op);
    status_t status;
    status.error.code = errorcode_t::posted;
    return status;
  }

  // (9)/(10): the posting procedure itself found the match: a message the
  // progress engine kept in the packet it arrived in.
  const auto& kept = *static_cast<const kept_msg_t*>(matched);
  packet_t* packet = kept.packet;
  // A receive that continues as a rendezvous stays tracked: the record
  // stays live (re-homed by match_recv) and cancel/deadline still apply.
  if (packet->kind == msg_header_t::rts)
    r.runtime->track_op(std::move(record), args.out_op);
  // An eager match returns `done` without signaling the comp, unless the
  // user forbade the done shortcut.
  const status_t status =
      match_recv(r.runtime, r.device, entry, kept,
                 /*signal=*/!args.allow_done && entry->op.comp != nullptr);
  drop_hold(packet);
  return status;
}

// RMA put (OUT) or get (IN), with or without a remote completion; a get
// with one is the read-with-notification extension (see DESIGN.md). An op
// that delivers a remote completion must not overtake a buffered batch
// (matching-order rule); a plain one carries no completion the peer can
// observe against the batch, so it may pass.
status_t post_rma(const resolved_t& r, const post_args_t& args) {
  if (args.buffers != nullptr)
    throw fatal_error_t("buffer lists are not supported for put/get");
  const bool has_remote_comp = args.remote_comp != rcomp_null;
  if (has_remote_comp && r.device->has_armed_aggregation()) {
    // Per-peer obligation: the signal must not pass any buffered batch for
    // the peer, whichever shard buffers it (shard -1 = all).
    const errorcode_t flushed =
        r.device->flush_peer_for_ordering(args.rank, -1);
    if (error_t{flushed}.is_retry()) return retry_status(flushed);
  }
  auto* ctx = new op_state_t(report_of(args));
  const bool put = args.direction == direction_t::out;
  const uint32_t imm =
      has_remote_comp ? encode_signal_imm(args.remote_comp, args.tag) : 0;
  net::device_t& net = r.device->net(r.shard);
  net::post_result_t result;
  try {
    result = put ? net.post_write(args.rank, args.local_buffer, args.size,
                                  args.remote_buffer.id, args.remote_offset,
                                  has_remote_comp, imm, ctx)
                 : net.post_read(args.rank, args.local_buffer, args.size,
                                 args.remote_buffer.id, args.remote_offset,
                                 has_remote_comp, imm, ctx);
  } catch (...) {
    // Posting-time fatal (bad MR / bounds): the op context never reached
    // the network, so it is still ours to free.
    delete ctx;
    throw;
  }
  if (result != net::post_result_t::ok) {
    delete ctx;
    return failed_post_status(r, args, result);
  }
  r.runtime->counters().add(put ? counter_id_t::rma_put
                                : counter_id_t::rma_get);
  status_t status;
  status.error.code = errorcode_t::posted;
  return status;
}

// ---------------------------------------------------------------------------
// Dispatch: Table-1 argument decoding. `post_span` is the (possibly null)
// span covering the user's post_* call; the accepted-op paths open their
// op-lifecycle span at its begin timestamp.
// ---------------------------------------------------------------------------
status_t post_comm_dispatch(const post_args_t& args,
                            const trace::span_t& post_span) {
  const resolved_t r = resolve(args);

  if (args.rank < 0 || args.rank >= r.runtime->nranks())
    throw fatal_error_t("post_comm: rank out of range");
  // The handle starts invalid; the paths that park cancellable state fill it.
  if (args.out_op != nullptr) args.out_op->p.reset();

  status_t status;
  const bool has_remote_buffer = args.remote_buffer.is_valid();
  const bool has_remote_comp = args.remote_comp != rcomp_null;

  if (has_remote_buffer) {
    status = post_rma(r, args);
  } else if (args.direction == direction_t::out) {
    // Send (no remote comp) or active message (remote comp given).
    const uint8_t eager_kind = has_remote_comp ? msg_header_t::eager_am
                                               : msg_header_t::eager_send;
    const uint8_t rdv_kind =
        has_remote_comp ? msg_header_t::rts_am : msg_header_t::rts;
    const std::size_t size = payload_size(args);
    // Eager-message coalescing: small single-buffer sends/AMs append into
    // the peer's aggregation slot instead of going out alone. The
    // single-poster bypass skips runtime-default coalescing while only one
    // thread posts to this device — buffering cannot raise a lone poster's
    // rate, and the flush-age wait only adds latency (the 1-thread fig3
    // regression). Explicit per-post aggregation is never bypassed.
    const bool agg_on = args.aggregation >= 0
                            ? args.aggregation == 1
                            : r.device->aggregation_default();
    if (agg_on && !args.from_packet && args.buffers == nullptr &&
        size <= r.device->agg_eager_max() &&
        !r.device->aggregation_bypass(args.aggregation)) {
      status =
          r.device->agg_append(args, eager_kind, r.pool, r.engine, post_span);
    } else {
      // Matching-order rule: nothing may overtake a buffered batch on this
      // key's shard (earlier same-key traffic can only be buffered there).
      // A retry here bounces this post too; peer_down lets the normal path
      // below report the fatal itself (the slot was aborted).
      bool blocked = false;
      if (r.device->has_armed_aggregation()) {
        const errorcode_t flushed = r.device->flush_peer_for_ordering(
            args.rank, static_cast<int>(r.shard));
        if (error_t{flushed}.is_retry()) {
          blocked = true;
          status = retry_status(flushed);
        }
      }
      if (!blocked) {
        if (size <= r.runtime->eager_threshold())
          status = post_eager_out(r, args, eager_kind, /*via_backlog=*/false,
                                  post_span);
        else
          status = post_rendezvous_out(r, args, rdv_kind, post_span);
      }
    }
  } else {
    if (has_remote_comp)
      throw fatal_error_t(
          "invalid post_comm: IN direction with a remote completion but no "
          "remote buffer (Table 1)");
    return post_receive(r, args, post_span);
  }

  // allow_retry=false: the user cannot handle retry; queue on the backlog
  // and report the *_backlog variant (Sec. 4.4). For eager-size payloads the
  // backlog entry owns a staged copy, so `done_backlog` honestly means "your
  // buffer is reusable"; larger (rendezvous/RMA) payloads keep referencing
  // the user buffer until the completion object is signaled.
  if (status.error.is_retry()) {
    switch (status.error.code) {
      case errorcode_t::retry_lock:
        r.runtime->counters().add(counter_id_t::retry_lock);
        break;
      case errorcode_t::retry_nopacket:
        r.runtime->counters().add(counter_id_t::retry_nopacket);
        break;
      case errorcode_t::retry_nomem:
        r.runtime->counters().add(counter_id_t::retry_nomem);
        break;
      default:
        break;
    }
  }
  if (status.error.is_retry() && !args.allow_retry) {
    struct backlog_capture_t {
      post_args_t args;
      buffers_t buffers;          // deep copy of a buffer list
      std::vector<char> staged;   // deep copy of an eager payload
    };
    auto capture = std::make_shared<backlog_capture_t>();
    capture->args = args;
    capture->args.allow_retry = true;
    // Pin the resolved handles: the backlog may be retired by a progress
    // engine thread with no sim binding, where default-runtime resolution
    // (get_g_runtime) would fail.
    capture->args.runtime.p = r.runtime;
    capture->args.device.p = r.device;
    capture->args.matching_engine.p = r.engine;
    capture->args.packet_pool.p = r.pool;
    // Guarantee the promised signal: a backlogged op must complete through
    // its completion object, never through a lost `done` return value.
    capture->args.allow_done = false;
    const bool eager_out = args.direction == direction_t::out &&
                           !has_remote_buffer &&
                           payload_size(args) <= r.runtime->eager_threshold();
    if (eager_out) {
      capture->staged.resize(payload_size(args));
      gather(args, capture->staged.data());
      capture->args.local_buffer = capture->staged.data();
      capture->args.size = capture->staged.size();
      capture->args.buffers = nullptr;
    } else if (args.buffers != nullptr) {
      capture->buffers = *args.buffers;
      capture->args.buffers = &capture->buffers;
    }
    // Tracked backlogged op: the record's live->executing CAS arbitrates
    // between the retry loop and cancel/timeout/purge. The resubmission must
    // not create a second record for the same logical op.
    std::shared_ptr<op_record_t> record;
    if (wants_record(args))
      record = make_record(r.runtime, r.device, args, op_kind_t::backlog);
    capture->args.deadline_us = 0;
    capture->args.out_op = nullptr;
    r.runtime->counters().add(counter_id_t::backlog_pushed);
    runtime_impl_t* runtime = r.runtime;
    r.device->backlog().push([capture, runtime,
                              record](backlog_action_t action) {
      // A backlogged operation may not throw out of the progress engine and
      // may not vanish: a fatal resubmission failure (or a cancel) is
      // delivered through the completion object the user was promised.
      if (record) {
        uint8_t expected = op_record_t::st_live;
        if (!record->state.compare_exchange_strong(
                expected, op_record_t::st_executing,
                std::memory_order_acq_rel)) {
          // Canceled/timed out/purged while queued: the winner of that CAS
          // already delivered the completion; just retire the entry.
          status_t gone;
          gone.error.code = errorcode_t::done;
          return gone;
        }
      }
      if (action == backlog_action_t::cancel) {
        if (record)
          record->state.store(op_record_t::st_terminal,
                              std::memory_order_release);
        const status_t failed = make_fatal_status(
            runtime, errorcode_t::fatal_canceled, report_of(capture->args));
        signal_comp(capture->args.local_comp.p, failed);
        return failed;
      }
      status_t st;
      try {
        st = post_comm_impl(capture->args);
      } catch (const std::exception&) {
        st = make_fatal_status(runtime, errorcode_t::fatal,
                               report_of(capture->args));
      }
      if (record)
        record->state.store(st.error.is_retry() ? op_record_t::st_live
                                                : op_record_t::st_terminal,
                            std::memory_order_release);
      // Fatal statuses are *returned* by the posting paths, never signaled
      // there; the backlogged op promised completion through the comp.
      if (st.error.is_fatal()) signal_comp(capture->args.local_comp.p, st);
      return st;
    });
    r.runtime->track_op(std::move(record), args.out_op);
    // Wake a sleeping progress thread: the backlog retry is the only way
    // this operation ever completes.
    r.device->ring_doorbell();
    status.error.code = args.local_comp.p != nullptr
                            ? errorcode_t::posted_backlog
                            : errorcode_t::done_backlog;
  }
  return status;
}

}  // namespace

status_t post_comm_impl(const post_args_t& args) {
  if (!trace::on()) return post_comm_dispatch(args, trace::span_t{});
  // The post span's id and start are reserved up front (op spans opened
  // inside share both), but its begin/end pair is recorded only for an
  // attempt that was not a retry. A retried attempt was never accepted, so
  // like its op span it records nothing: a spinning retry loop would
  // otherwise flood the rings and the sample with spans of no operation.
  const trace::span_t post_span = trace::reserve();
  const auto record = [&](errorcode_t code) {
    const std::size_t size = payload_size(args);
    trace::begin_at(post_span, trace::kind_t::post, args.rank, args.tag,
                    size);
    trace::end(post_span, trace::kind_t::post, static_cast<uint8_t>(code),
               args.rank, args.tag, size);
  };
  status_t status;
  try {
    status = post_comm_dispatch(args, post_span);
  } catch (...) {
    record(errorcode_t::fatal);
    throw;
  }
  if (!status.error.is_retry()) record(status.error.code);
  return status;
}

}  // namespace lci::detail
