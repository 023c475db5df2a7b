// Failure lifecycle: operation deadlines, cancel(), peer-death purge, and
// graceful drain.
//
// Design invariant (see docs/INTERNALS.md "Failure propagation & drain"):
// every tracked operation completes exactly once, decided at the op's
// arbitration point —
//   * queued receive        -> the matching-engine bucket lock (remove() vs.
//                              a complementary insert),
//   * rendezvous handshake  -> the pending-table take(),
//   * backlogged submission -> the live->executing/terminal state CAS.
// The op record itself is advisory: it says where to look, never who won.
#include <algorithm>
#include <cstdlib>

#include "core/runtime_impl.hpp"
#include "util/log.hpp"

namespace lci {
namespace detail {

using counter_id_t = detail::counter_id_t;

// ---------------------------------------------------------------------------
// Pending-handshake failure helpers
// ---------------------------------------------------------------------------

void finish_failed_send(runtime_impl_t* runtime, rdv_send_t& send,
                        errorcode_t code) {
  if (send.record)
    send.record->state.store(op_record_t::st_terminal,
                             std::memory_order_release);
  trace::end_op(send.span, trace::kind_t::op_rdv, trace::hist_t::post_rdv,
                static_cast<uint8_t>(code), send.peer_rank, send.tag,
                send.size);
  signal_comp(send.comp,
              make_fatal_status(runtime, code, send.peer_rank, send.tag,
                                send.buffer, send.size, send.user_context));
  // send.staged (the buffer-list gather, if any) dies with `send`.
}

void finish_failed_recv(runtime_impl_t* runtime, rdv_recv_t& recv,
                        errorcode_t code) {
  if (recv.record)
    recv.record->state.store(op_record_t::st_terminal,
                             std::memory_order_release);
  if (recv.mr != net::invalid_mr) runtime->reg_release(recv.mr);
  void* user_buffer = recv.buffer;
  if (!recv.list.empty() || recv.runtime_owned_buffer) {
    // Runtime staging (buffer-list landing area or large-AM malloc): the
    // user never saw this pointer.
    std::free(recv.buffer);
    user_buffer = nullptr;
  }
  trace::end_op(recv.span, trace::kind_t::op_recv, trace::hist_t::post_recv,
                static_cast<uint8_t>(code), recv.peer_rank, recv.tag,
                recv.size);
  signal_comp(recv.comp,
              make_fatal_status(runtime, code, recv.peer_rank, recv.tag,
                                user_buffer, recv.size, recv.user_context));
}

bool fail_pending_send(runtime_impl_t* runtime, uint32_t rdv_id,
                       errorcode_t code) {
  rdv_send_t send;
  if (!runtime->pending_sends().take(rdv_id, &send)) return false;
  finish_failed_send(runtime, send, code);
  return true;
}

bool fail_pending_recv(runtime_impl_t* runtime, uint32_t pending_id,
                       errorcode_t code) {
  rdv_recv_t recv;
  if (!runtime->pending_recvs().take(pending_id, &recv)) return false;
  finish_failed_recv(runtime, recv, code);
  return true;
}

// ---------------------------------------------------------------------------
// Tracked-op registry
// ---------------------------------------------------------------------------

void runtime_impl_t::track_op(std::shared_ptr<op_record_t> record) {
  if (!record) return;
  if (record->deadline_ns != 0) {
    // Keep the sweep gate at min(next deadline).
    uint64_t seen = next_deadline_ns_.load(std::memory_order_relaxed);
    while (record->deadline_ns < seen &&
           !next_deadline_ns_.compare_exchange_weak(
               seen, record->deadline_ns, std::memory_order_relaxed)) {
    }
  }
  std::lock_guard<util::spinlock_t> guard(op_lock_);
  // Opportunistic compaction keeps the list bounded even when every op
  // completes normally (terminal records are otherwise only reaped by
  // deadline sweeps and drains, which cancel-only workloads never trigger).
  if (tracked_ops_.size() >= 32) prune_terminal_ops();
  tracked_ops_.push_back(std::move(record));
  tracked_count_.store(tracked_ops_.size(), std::memory_order_release);
}

void runtime_impl_t::prune_terminal_ops() {
  tracked_ops_.erase(
      std::remove_if(tracked_ops_.begin(), tracked_ops_.end(),
                     [](const std::shared_ptr<op_record_t>& r) {
                       return r->state.load(std::memory_order_acquire) ==
                              op_record_t::st_terminal;
                     }),
      tracked_ops_.end());
  tracked_count_.store(tracked_ops_.size(), std::memory_order_release);
}

std::size_t runtime_impl_t::live_tracked_ops() {
  if (tracked_count_.load(std::memory_order_acquire) == 0) return 0;
  std::lock_guard<util::spinlock_t> guard(op_lock_);
  prune_terminal_ops();
  return tracked_ops_.size();
}

bool runtime_impl_t::finish_tracked_op(
    const std::shared_ptr<op_record_t>& record, errorcode_t code) {
  if (!record) return false;
  bool won = false;
  {
    std::lock_guard<util::spinlock_t> guard(record->lock);
    if (record->state.load(std::memory_order_acquire) ==
        op_record_t::st_terminal)
      return false;
    // Published before any terminal transition below so a flush-time resolve
    // that loses the record CAS can label its trace span with our code.
    record->terminal_code.store(static_cast<uint8_t>(code),
                                std::memory_order_relaxed);
    switch (record->kind) {
      case op_kind_t::recv: {
        if (record->engine == nullptr || record->entry == nullptr)
          return false;  // mid-conversion to rendezvous: the match owns it
        recv_entry_t* entry = record->entry;
        if (!record->engine->remove(record->key, entry))
          return false;  // a complementary arrival matched it first
        record->state.store(op_record_t::st_terminal,
                            std::memory_order_release);
        record->engine = nullptr;
        record->entry = nullptr;
        trace::end_op(entry->span, trace::kind_t::op_recv,
                      trace::hist_t::post_recv, static_cast<uint8_t>(code),
                      record->rank, record->tag, entry->size);
        signal_comp(entry->comp,
                    make_fatal_status(this, code, record->rank, record->tag,
                                      entry->buffer, entry->size,
                                      entry->user_context));
        delete entry;
        won = true;
        break;
      }
      case op_kind_t::rdv_send:
        won = record->rdv_id != 0 &&
              fail_pending_send(this, record->rdv_id, code);
        break;
      case op_kind_t::rdv_recv:
        won = record->rdv_id != 0 &&
              fail_pending_recv(this, record->rdv_id, code);
        break;
      case op_kind_t::backlog:
      case op_kind_t::coalesced: {
        // Backlog: live->terminal CAS races the executor's live->executing.
        // Coalesced: the CAS races the flush-time resolve, which skips
        // records it lost (the staged bytes still travel; cancellation is
        // completion-only once data sits in an aggregation slot).
        uint8_t expected = op_record_t::st_live;
        if (!record->state.compare_exchange_strong(
                expected, op_record_t::st_terminal,
                std::memory_order_acq_rel))
          return false;  // mid-execution or already terminal
        signal_comp(record->comp,
                    make_fatal_status(this, code, record->rank, record->tag,
                                      record->buffer, record->size,
                                      record->user_context));
        won = true;
        break;
      }
    }
  }
  if (!won) return false;
  // Drop the record from the registry (it is terminal now).
  std::lock_guard<util::spinlock_t> guard(op_lock_);
  auto it = std::find(tracked_ops_.begin(), tracked_ops_.end(), record);
  if (it != tracked_ops_.end()) {
    *it = std::move(tracked_ops_.back());
    tracked_ops_.pop_back();
    tracked_count_.store(tracked_ops_.size(), std::memory_order_release);
  }
  return true;
}

std::size_t runtime_impl_t::deadline_sweep() {
  if (tracked_count_.load(std::memory_order_acquire) == 0) return 0;
  const uint64_t now = now_ns();
  if (now < next_deadline_ns_.load(std::memory_order_relaxed)) return 0;
  if (!op_lock_.try_lock()) return 0;  // another thread is sweeping
  std::vector<std::shared_ptr<op_record_t>> expired;
  uint64_t next = UINT64_MAX;
  {
    std::lock_guard<util::spinlock_t> guard(op_lock_, std::adopt_lock);
    for (std::size_t i = tracked_ops_.size(); i-- > 0;) {
      const std::shared_ptr<op_record_t>& rec = tracked_ops_[i];
      if (rec->state.load(std::memory_order_acquire) ==
          op_record_t::st_terminal) {
        tracked_ops_[i] = std::move(tracked_ops_.back());
        tracked_ops_.pop_back();
        continue;
      }
      if (rec->deadline_ns == 0) continue;
      if (rec->deadline_ns <= now)
        expired.push_back(rec);
      else
        next = std::min(next, rec->deadline_ns);
    }
    tracked_count_.store(tracked_ops_.size(), std::memory_order_release);
    next_deadline_ns_.store(next, std::memory_order_relaxed);
  }
  std::size_t completed = 0;
  for (const auto& rec : expired)
    if (finish_tracked_op(rec, errorcode_t::fatal_timeout)) ++completed;
  return completed;
}

// ---------------------------------------------------------------------------
// Dead-peer purge
// ---------------------------------------------------------------------------

std::size_t runtime_impl_t::purge_dead_peer(int peer, bool everything) {
  std::size_t completed = 0;
  // 1. Matching engines: queued receives naming the peer complete with
  //    fatal_peer_down; messages the peer left drop their packet holds.
  //    Wildcard receives (rank < 0 under tag_only/none policies) are left
  //    alone — another peer may still match them.
  using type_t = matching_engine_impl_t::type_t;
  std::vector<std::pair<void*, type_t>> removed;
  const std::size_t nengines = engine_registry_.size();
  for (std::size_t i = 0; i < nengines; ++i) {
    matching_engine_impl_t* engine =
        lookup_engine(static_cast<uint16_t>(i));
    if (engine == nullptr) continue;
    removed.clear();
    engine->purge_if(
        [&](void* value, type_t type) {
          if (type == type_t::recv) {
            auto* entry = static_cast<recv_entry_t*>(value);
            return everything || entry->rank == peer;
          }
          const auto* kept = static_cast<const kept_msg_t*>(value);
          return everything || kept->packet->peer_rank == peer;
        },
        removed);
    for (auto& [value, type] : removed) {
      if (type == type_t::recv) {
        auto* entry = static_cast<recv_entry_t*>(value);
        if (entry->record) {
          std::lock_guard<util::spinlock_t> guard(entry->record->lock);
          entry->record->engine = nullptr;
          entry->record->entry = nullptr;
          entry->record->state.store(op_record_t::st_terminal,
                                     std::memory_order_release);
        }
        trace::end_op(entry->span, trace::kind_t::op_recv,
                      trace::hist_t::post_recv,
                      static_cast<uint8_t>(errorcode_t::fatal_peer_down),
                      entry->rank, entry->tag, entry->size);
        signal_comp(entry->comp,
                    make_fatal_status(this, errorcode_t::fatal_peer_down,
                                      entry->rank, entry->tag, entry->buffer,
                                      entry->size, entry->user_context));
        delete entry;
        ++completed;
      } else {
        drop_hold(static_cast<const kept_msg_t*>(value)->packet);
      }
    }
  }
  // 2. Rendezvous handshakes parked on the peer: the RTR or FIN that would
  //    resolve them will never arrive.
  std::vector<rdv_send_t> sends;
  pending_sends_.take_if(
      [&](const rdv_send_t& s) { return everything || s.peer_rank == peer; },
      sends);
  for (rdv_send_t& send : sends) {
    finish_failed_send(this, send, errorcode_t::fatal_peer_down);
    ++completed;
  }
  std::vector<rdv_recv_t> recvs;
  pending_recvs_.take_if(
      [&](const rdv_recv_t& r) { return everything || r.peer_rank == peer; },
      recvs);
  for (rdv_recv_t& recv : recvs) {
    finish_failed_recv(this, recv, errorcode_t::fatal_peer_down);
    ++completed;
  }
  // 3. Aggregation slots holding bytes destined for the peer: the batch will
  //    never be accepted, so buffered sub-ops that still owe a signal fail
  //    with fatal_peer_down now (delivered at most once: the flush path and
  //    this purge arbitrate through the same per-entry record CAS, and
  //    detaching the slot under its lock means only one side ever holds a
  //    given pending list).
  std::vector<device_impl_t*> devices;
  {
    std::lock_guard<util::spinlock_t> guard(device_lock_);
    devices = devices_;
  }
  for (device_impl_t* device : devices)
    completed += device->abort_aggregation(everything ? -1 : peer,
                                           errorcode_t::fatal_peer_down);
  // 4. Tracked backlogged submissions naming the peer. (Untracked backlog
  //    entries need no purge: their next run posts to a dead rank, gets
  //    peer_down back, and self-delivers the fatal completion.)
  std::vector<std::shared_ptr<op_record_t>> snapshot;
  {
    std::lock_guard<util::spinlock_t> guard(op_lock_);
    snapshot = tracked_ops_;
  }
  for (const auto& rec : snapshot) {
    if (!everything && rec->rank != peer) continue;
    if (finish_tracked_op(rec, errorcode_t::fatal_peer_down)) ++completed;
  }
  if (completed > 0)
    LCI_LOG_(debug, "rank %d: purged %zu ops for dead peer %d", rank_,
             completed, peer);
  return completed;
}

bool runtime_impl_t::check_peer_failures(device_impl_t* device) {
  const uint64_t epoch = device->net().death_epoch();
  if (epoch == death_epoch_seen_.load(std::memory_order_acquire))
    return false;
  // Read the epoch before scanning so a kill that lands mid-purge bumps past
  // the value we store and the next progress call re-runs the scan.
  if (!purge_lock_.try_lock()) return false;  // a purge is already running
  std::lock_guard<util::spinlock_t> guard(purge_lock_, std::adopt_lock);
  if (peer_purged_.size() != static_cast<std::size_t>(nranks_))
    peer_purged_.assign(static_cast<std::size_t>(nranks_), 0);
  bool purged = false;
  net::device_t& net_device = device->net();
  if (net_device.is_peer_down(rank_)) {
    // This rank itself was killed: every op, toward every peer, evaporates.
    purged = purge_dead_peer(/*peer=*/-1, /*everything=*/true) > 0;
    std::fill(peer_purged_.begin(), peer_purged_.end(), 1);
  } else {
    for (int peer = 0; peer < nranks_; ++peer) {
      if (peer_purged_[static_cast<std::size_t>(peer)] != 0) continue;
      if (!net_device.is_peer_down(peer)) continue;
      purge_dead_peer(peer, /*everything=*/false);
      peer_purged_[static_cast<std::size_t>(peer)] = 1;
      purged = true;
    }
  }
  death_epoch_seen_.store(epoch, std::memory_order_release);
  return purged;
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

std::size_t runtime_impl_t::force_kill_tracked(errorcode_t code) {
  std::vector<std::shared_ptr<op_record_t>> snapshot;
  {
    std::lock_guard<util::spinlock_t> guard(op_lock_);
    snapshot = tracked_ops_;
  }
  std::size_t killed = 0;
  for (const auto& rec : snapshot)
    if (finish_tracked_op(rec, code)) ++killed;
  return killed;
}

std::size_t runtime_impl_t::drain_device(device_impl_t* device,
                                         uint64_t timeout_us) {
  // Phase 1: cooperative. Keep progressing until the device is quiet —
  // several consecutive rounds with no advance and nothing parked — or the
  // timeout expires. A zero timeout skips straight to the force-kill.
  const uint64_t give_up =
      timeout_us != 0 ? now_ns() + timeout_us * 1000 : 0;
  constexpr int quiet_rounds_needed = 8;
  int quiet = 0;
  bool quiesced = false;
  while (give_up != 0) {
    // Force-flush aggregation slots regardless of age: drain means "get
    // everything on the wire", not "wait for the flush timer".
    device->flush_aggregation();
    const bool advanced = device->progress();
    // Completed ops leave terminal records behind (a barrier's receives, for
    // one), so only live records keep the device busy.
    const bool idle = !advanced && device->backlog().size_approx() == 0 &&
                      !device->has_armed_aggregation() &&
                      pending_sends_.size() == 0 &&
                      pending_recvs_.size() == 0 && live_tracked_ops() == 0;
    quiet = idle ? quiet + 1 : 0;
    if (quiet >= quiet_rounds_needed) {
      quiesced = true;
      break;
    }
    if (now_ns() >= give_up) break;
  }
  if (quiesced) return 0;
  // Phase 2: force-kill whatever is still parked. Requires quiescence so no
  // progress thread races the aborts: pause the auto-progress engine (the
  // caller must be the only other thread progressing this device).
  progress_engine_t* engine = progress_engine();
  if (engine != nullptr) engine->pause();
  std::size_t killed = device->backlog().drain_abort();
  // Aggregation slots that survived phase 1 (e.g. the fabric kept bouncing
  // the batch post): cancel the buffered sub-ops that still owe a signal.
  killed += device->abort_aggregation(-1, errorcode_t::fatal_canceled);
  killed += force_kill_tracked(errorcode_t::fatal_canceled);
  std::vector<rdv_send_t> sends;
  pending_sends_.take_if([](const rdv_send_t&) { return true; }, sends);
  for (rdv_send_t& send : sends) {
    finish_failed_send(this, send, errorcode_t::fatal_canceled);
    ++killed;
  }
  std::vector<rdv_recv_t> recvs;
  pending_recvs_.take_if([](const rdv_recv_t&) { return true; }, recvs);
  for (rdv_recv_t& recv : recvs) {
    finish_failed_recv(this, recv, errorcode_t::fatal_canceled);
    ++killed;
  }
  if (engine != nullptr) engine->resume();
  if (killed > 0)
    LCI_LOG_(debug, "rank %d: drain force-killed %zu ops", rank_, killed);
  return killed;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

bool cancel(op_t op) {
  if (!op.is_valid()) return false;
  detail::op_record_t* record = op.p.get();
  if (record->runtime == nullptr) return false;
  return record->runtime->finish_tracked_op(op.p,
                                            errorcode_t::fatal_canceled);
}

bool kill_peer(int rank, runtime_t runtime) {
  detail::runtime_impl_t* rt = detail::resolve_runtime(runtime);
  return rt->fabric().kill_rank(rank);
}

std::size_t drain(device_t device, uint64_t timeout_us, runtime_t runtime) {
  detail::runtime_impl_t* rt = detail::resolve_runtime(runtime);
  detail::device_impl_t* dev =
      device.is_valid() ? device.p : &rt->default_device();
  return rt->drain_device(dev, timeout_us);
}

}  // namespace lci
