// Eager-message coalescing (docs/INTERNALS.md "Message coalescing").
//
// Send side: small eager sends and active messages append into a per-(device,
// peer) aggregation slot and travel as one eager_batch wire message. A slot
// flushes when the next append would overflow one packet's payload or
// max_batch_msgs, when progress() finds it older than
// aggregation_flush_us, on an explicit flush(), or — the matching-order rule —
// whenever a non-aggregated message to the same peer is about to be posted
// (post.cpp / send_rtr call flush_peer_for_ordering so no later message can
// overtake a buffered one).
//
// Slot locking (paper Sec. 4.2.2): a flush posts the batch to the network
// while it holds the slot's lock, so every post and flush path only
// try-locks it. A post that finds the slot busy returns retry_lock before it
// copies anything; a flush skips a busy slot and its caller comes back. Only
// the abort path blocks.
//
// Receive side: the eager walk in progress.cpp, which reads a plain eager
// packet as a batch of one entry. An entry that meets a waiting receive
// completes from the batch packet in place. An unexpected send waits in the
// matching engine inside the batch packet, as a plain one does in its own,
// and in packet-delivery mode active messages are lent out of it. Each such
// entry holds the packet, which goes back when the last hold is dropped.
//
// Completion semantics: a buffered sub-op that owes nothing (allow_done and
// untracked) completes `done` at copy time exactly like a bcopy send. One
// that owes a signal (allow_done=false) or is tracked (.deadline/.op_handle)
// parks an agg_pending_t; the flush resolves it — done on a successful post,
// fatal_peer_down on a dead peer, fatal_canceled on a drain abort — and for
// tracked entries the record-state CAS arbitrates against cancel()/the
// deadline sweep, so every sub-op completes exactly once.
#include <cstring>

#include "core/runtime_impl.hpp"
#include "util/log.hpp"

namespace lci::detail {

using counter_id_t = detail::counter_id_t;

namespace {

status_t agg_status(errorcode_t code) {
  status_t status;
  status.error.code = code;
  return status;
}

// Delivers the deferred completions of detached pending entries. `code` is
// done after a successful post, or the fatal code of the abort path. Returns
// how many completions were actually delivered here (entries whose record CAS
// lost were already completed by cancel()/timeout — their data may still
// travel, but the completion belongs to the winner).
std::size_t resolve_agg_pending(runtime_impl_t* runtime, int rank,
                                std::vector<agg_pending_t>& entries,
                                errorcode_t code) {
  std::size_t delivered = 0;
  for (agg_pending_t& p : entries) {
    if (p.record) {
      uint8_t expected = op_record_t::st_live;
      if (!p.record->state.compare_exchange_strong(
              expected, op_record_t::st_terminal, std::memory_order_acq_rel)) {
        // Cancel/timeout won the completion; the span handle still lives
        // here, so end it with the code the winner published.
        trace::end_op(p.span, trace::kind_t::op_batch, trace::hist_t::post_batch,
                      p.record->terminal_code.load(std::memory_order_relaxed),
                      rank, p.tag, p.size);
        continue;
      }
    }
    const uint8_t err =
        code == errorcode_t::done ? 0 : static_cast<uint8_t>(code);
    trace::end_op(p.span, trace::kind_t::op_batch, trace::hist_t::post_batch,
                  err, rank, p.tag, p.size);
    if (code == errorcode_t::done) {
      status_t status;
      status.error.code = errorcode_t::done;
      status.rank = rank;
      status.tag = p.tag;
      status.buffer = buffer_t{p.buffer, p.size};
      status.user_context = p.user_context;
      signal_comp(p.comp, status);
    } else {
      signal_comp(p.comp, make_fatal_status(runtime, code, rank, p.tag,
                                            p.buffer, p.size, p.user_context));
    }
    ++delivered;
  }
  entries.clear();
  return delivered;
}

}  // namespace

void device_impl_t::detach_slot_locked(agg_slot_t& slot,
                                       std::vector<agg_pending_t>& out,
                                       errorcode_t code) {
  if (slot.packet == nullptr) return;
  slot.packet->pool->put(slot.packet);
  slot.packet = nullptr;
  for (agg_pending_t& p : slot.pending) out.push_back(std::move(p));
  slot.pending.clear();
  trace::end(slot.span, trace::kind_t::batch_slot,
             code == errorcode_t::done ? 0 : static_cast<uint8_t>(code),
             /*rank=*/-1, /*tag=*/slot.msgs, /*size=*/slot.bytes);
  slot.span = trace::span_t{};
  slot.bytes = 0;
  slot.msgs = 0;
  slot.armed_ns.store(0, std::memory_order_release);
  armed_slots_.fetch_sub(1, std::memory_order_acq_rel);
}

errorcode_t device_impl_t::post_batch_locked(
    agg_slot_t& slot, net::device_t& net, int rank,
    std::vector<agg_pending_t>& resolved) {
  if (slot.packet == nullptr) return errorcode_t::done;
  msg_header_t header;
  header.kind = msg_header_t::eager_batch;
  std::memcpy(slot.packet->payload(), &header, sizeof(header));
  const std::size_t wire_size = sizeof(msg_header_t) + slot.bytes;
  const auto result =
      net.post_send(rank, slot.packet->payload(), wire_size, 0, nullptr);
  const error_t err = map_net_result(result);
  if (err.is_retry()) return err.code;  // slot stays armed
  // ok or peer_down: the slot empties either way (the simulated wire copies
  // synchronously, so the packet is reusable as soon as the post succeeds).
  detach_slot_locked(slot, resolved, err.code);
  if (err.is_done()) runtime_->counters().add(counter_id_t::batches_flushed);
  return err.code;
}

status_t device_impl_t::agg_append(const post_args_t& args, uint8_t kind,
                                   packet_pool_impl_t* pool,
                                   matching_engine_impl_t* engine,
                                   const trace::span_t& post_span) {
  const int rank = args.rank;
  const std::size_t size = args.size;
  const std::size_t entry_bytes = batch_entry_bytes(size);
  std::vector<agg_pending_t> resolved;
  errorcode_t resolved_code = errorcode_t::done;
  std::shared_ptr<op_record_t> record;
  status_t status = agg_status(errorcode_t::posted);
  // The sub-message coalesces into the slot of the shard its key routes to,
  // and the batch posts on that shard's endpoint — the same endpoint any
  // bypass traffic on this key would use, so the matching-order flush keeps
  // per-key FIFO intact shard by shard.
  const std::size_t shard = route_shard(rank, args.tag);
  net::device_t& wire = net(shard);
  agg_slot_t& slot = agg_slot(shard, rank);
  {
    // Another thread in the slot (appending, or posting its batch) bounces
    // this post before anything is copied or recorded: its thread goes back
    // to progress instead of waiting out the holder's burst.
    std::unique_lock<util::spinlock_t> guard(slot.lock, std::try_to_lock);
    if (!guard.owns_lock()) return agg_status(errorcode_t::retry_lock);
    if (wire.is_peer_down(rank)) {
      detach_slot_locked(slot, resolved, errorcode_t::fatal_peer_down);
      resolved_code = errorcode_t::fatal_peer_down;
      status = make_fatal_status(runtime_, errorcode_t::fatal_peer_down, rank,
                                 args.tag, args.local_buffer, size,
                                 args.user_context);
    } else {
      // Flush first if this sub-message would not fit the armed batch.
      if (slot.packet != nullptr &&
          (slot.bytes + entry_bytes > agg_max_bytes_ ||
           slot.msgs >= max_batch_msgs)) {
        const errorcode_t code = post_batch_locked(slot, wire, rank, resolved);
        if (error_t{code}.is_retry()) {
          // The batch ahead of us cannot go out: bounce this post too, or
          // it would be appended behind back-pressure that may persist.
          status = agg_status(code);
        } else if (code == errorcode_t::fatal_peer_down) {
          resolved_code = code;
          status = make_fatal_status(runtime_, code, rank, args.tag,
                                     args.local_buffer, size,
                                     args.user_context);
        }
      }
      if (status.error.code == errorcode_t::posted) {
        if (slot.packet == nullptr) {
          packet_t* packet = pool->get();
          if (packet == nullptr) {
            status = agg_status(errorcode_t::retry_nopacket);
          } else {
            slot.packet = packet;
            slot.bytes = 0;
            slot.msgs = 0;
            slot.span = trace::begin(trace::kind_t::batch_slot, rank);
            slot.armed_ns.store(now_ns(), std::memory_order_release);
            armed_slots_.fetch_add(1, std::memory_order_acq_rel);
          }
        }
        if (slot.packet != nullptr) {
          char* base =
              slot.packet->payload() + sizeof(msg_header_t) + slot.bytes;
          batch_sub_header_t sub;
          sub.kind = kind;
          sub.policy = static_cast<uint8_t>(args.matching_policy);
          sub.engine_id = engine->id();
          sub.size = static_cast<uint32_t>(size);
          sub.tag = args.tag;
          sub.rcomp = args.remote_comp;
          std::memcpy(base, &sub, sizeof(sub));
          std::memcpy(base + sizeof(sub), args.local_buffer, size);
          slot.bytes += static_cast<uint32_t>(entry_bytes);
          slot.msgs += 1;
          runtime_->counters().add(counter_id_t::send_coalesced);
          // Op-lifecycle span of this coalesced sub-op: opened at the post
          // call's timestamp, closed when the flush resolves it (parked) or
          // right here (done-at-copy, nothing owed).
          const trace::span_t op_span = trace::begin_at(
              post_span, trace::kind_t::op_batch, rank, args.tag, size);
          trace::instant(trace::kind_t::coalesce, op_span.id, rank, args.tag,
                         size);

          const bool tracked = args.deadline_us != 0 || args.out_op != nullptr;
          const bool park =
              tracked || (!args.allow_done && args.local_comp.p != nullptr);
          if (park) {
            agg_pending_t p;
            p.comp = args.local_comp.p;
            p.buffer = args.local_buffer;
            p.size = size;
            p.tag = args.tag;
            p.user_context = args.user_context;
            if (tracked) {
              record = std::make_shared<op_record_t>();
              record->kind = op_kind_t::coalesced;
              record->runtime = runtime_;
              record->device = this;
              record->comp = args.local_comp.p;
              record->user_context = args.user_context;
              record->buffer = args.local_buffer;
              record->size = size;
              record->rank = rank;
              record->tag = args.tag;
              if (args.deadline_us != 0)
                record->deadline_ns = now_ns() + args.deadline_us * 1000;
              p.record = record;
            }
            p.span = op_span;
            slot.pending.push_back(std::move(p));
            status = agg_status(errorcode_t::posted);
          } else {
            // Copy made, nothing owed: complete `done` exactly like a bcopy
            // send (the user's buffer is reusable).
            trace::end_op(op_span, trace::kind_t::op_batch,
                          trace::hist_t::post_batch, 0, rank, args.tag, size);
            status.error.code = errorcode_t::done;
            status.rank = rank;
            status.tag = args.tag;
            status.buffer = buffer_t{args.local_buffer, size};
            status.user_context = args.user_context;
          }
          // Post immediately when this append filled the batch.
          if (slot.bytes + sizeof(batch_sub_header_t) > agg_max_bytes_ ||
              slot.msgs >= max_batch_msgs) {
            const errorcode_t code =
                post_batch_locked(slot, wire, rank, resolved);
            // A retry here leaves the slot armed for a later flush; it does
            // not fail the append (the copy was taken). peer_down resolves
            // the detached entries below — including, possibly, this one.
            if (code == errorcode_t::fatal_peer_down)
              resolved_code = code;
          }
        }
      }
    }
  }
  if (status.error.is_fatal()) {
    // Failed at posting time, never joined a batch: emit a zero-length op
    // span pair so fatal posts still show up (errored) in a trace.
    const trace::span_t op = trace::begin_at(
        post_span, trace::kind_t::op_batch, rank, args.tag, size);
    trace::end_op(op, trace::kind_t::op_batch, trace::hist_t::post_batch,
                  static_cast<uint8_t>(status.error.code), rank, args.tag,
                  size);
  }
  if (record) {
    runtime_->track_op(record);
    if (args.out_op != nullptr) args.out_op->p = record;
  }
  if (!resolved.empty())
    resolve_agg_pending(runtime_, rank, resolved, resolved_code);
  return status;
}

std::size_t device_impl_t::flush_aggregation(int rank, uint64_t older_than_ns) {
  if (!has_armed_aggregation()) return 0;
  const int nranks = runtime_->nranks();
  const int begin = rank >= 0 ? rank : 0;
  const int end = rank >= 0 ? rank + 1 : nranks;
  std::size_t posted = 0;
  std::vector<agg_pending_t> resolved;
  for (std::size_t shard = 0; shard < nshards(); ++shard) {
    for (int peer = begin; peer < end; ++peer) {
      agg_slot_t& slot = agg_slot(shard, peer);
      const uint64_t armed = slot.armed_ns.load(std::memory_order_acquire);
      if (armed == 0) continue;
      if (older_than_ns != 0 && armed > older_than_ns) continue;
      errorcode_t code;
      bool had;
      {
        // A busy slot is skipped: every caller comes back (the next
        // progress(), flush()'s loop, drain()'s quiet rounds).
        std::unique_lock<util::spinlock_t> guard(slot.lock, std::try_to_lock);
        if (!guard.owns_lock()) continue;
        had = slot.packet != nullptr;
        code = post_batch_locked(slot, net(shard), peer, resolved);
      }
      if (had && code == errorcode_t::done) ++posted;
      if (!resolved.empty())
        resolve_agg_pending(runtime_, peer, resolved, code);
    }
  }
  return posted;
}

errorcode_t device_impl_t::flush_peer_for_ordering(int rank, int shard) {
  const std::size_t begin = shard >= 0 ? static_cast<std::size_t>(shard) : 0;
  const std::size_t end =
      shard >= 0 ? static_cast<std::size_t>(shard) + 1 : nshards();
  errorcode_t worst = errorcode_t::done;
  for (std::size_t s = begin; s < end; ++s) {
    agg_slot_t& slot = agg_slot(s, rank);
    if (slot.armed_ns.load(std::memory_order_acquire) == 0) continue;
    std::vector<agg_pending_t> resolved;
    errorcode_t code = errorcode_t::retry_lock;
    bool had = true;
    {
      // A busy armed slot may still hold the caller's earlier messages: the
      // caller's message bounces as if the wire had refused the batch.
      std::unique_lock<util::spinlock_t> guard(slot.lock, std::try_to_lock);
      if (guard.owns_lock()) {
        had = slot.packet != nullptr;
        code = post_batch_locked(slot, net(s), rank, resolved);
      }
    }
    if (!had) continue;
    if (code == errorcode_t::done)
      runtime_->counters().add(counter_id_t::batch_flush_ordering);
    if (!resolved.empty()) resolve_agg_pending(runtime_, rank, resolved, code);
    // A retry anywhere must bounce the caller's message (it would overtake
    // the stuck batch); a dead peer dominates everything else.
    if (error_t{code}.is_retry() && worst != errorcode_t::fatal_peer_down)
      worst = code;
    if (code == errorcode_t::fatal_peer_down) worst = code;
  }
  return worst;
}

std::size_t device_impl_t::abort_aggregation(int rank, errorcode_t code) {
  if (!has_armed_aggregation()) return 0;
  const int nranks = runtime_->nranks();
  const int begin = rank >= 0 ? rank : 0;
  const int end = rank >= 0 ? rank + 1 : nranks;
  std::size_t completed = 0;
  std::vector<agg_pending_t> detached;
  for (std::size_t shard = 0; shard < nshards(); ++shard) {
    for (int peer = begin; peer < end; ++peer) {
      agg_slot_t& slot = agg_slot(shard, peer);
      if (slot.armed_ns.load(std::memory_order_acquire) == 0) continue;
      {
        // Blocking, unlike every post and flush path: a purge or a drain
        // kill must empty the slot, and a holder leaves it in bounded time.
        std::lock_guard<util::spinlock_t> guard(slot.lock);
        detach_slot_locked(slot, detached, code);
      }
      completed += resolve_agg_pending(runtime_, peer, detached, code);
    }
  }
  return completed;
}

}  // namespace lci::detail

namespace lci {

std::size_t flush(device_t device, int rank, runtime_t runtime) {
  detail::runtime_impl_t* rt = detail::resolve_runtime(runtime);
  detail::device_impl_t* dev =
      device.is_valid() ? device.p : &rt->default_device();
  if (rank >= rt->nranks()) throw fatal_error_t("flush: rank out of range");
  // Retry internally until every targeted batch is on the wire or has failed
  // fatally: a transient retry (send-lock miss, full wire mailbox, another
  // thread in the slot) leaves a slot armed, and returning then would
  // silently make "flushed" mean "maybe flushed — call me again". progress()
  // between attempts drains local completions so a full CQ or dry pool can
  // clear; a dead peer aborts its slots inside the flush (fatal_peer_down),
  // so the loop always terminates once the fabric either accepts the message
  // or declares the peer dead.
  std::size_t posted = dev->flush_aggregation(rank);
  while (dev->has_armed_aggregation(rank)) {
    dev->progress();
    posted += dev->flush_aggregation(rank);
  }
  return posted;
}

}  // namespace lci
