// Shared machinery of the real multi-process backends (SHM and TCP).
//
// Both transports move *frames*: a fixed-size header (whose first word is the
// payload length — the "length prefix" of the TCP framing, and the record
// size of the SHM rings) followed by the payload. The header carries
// everything the receiving process needs to dispatch without shared address
// space:
//
//  * send       — eager message; matches a pre-posted receive at the target
//                 device (or parks in an RNR stash until one is posted).
//  * write      — RDMA-write emulation: payload + target MR id + offset. The
//                 target resolves the MR in its local table and memcpys; the
//                 notify flag on the final chunk raises a remote_write CQE
//                 (this is how the rendezvous FIN immediate travels, so data
//                 and FIN ride one frame and ordering holds by construction).
//  * read_req   — RDMA-read emulation, request leg: MR id + offset + length +
//                 a correlation cookie. The target snapshots the region and
//                 answers with read_resp frames; notify raises remote_read.
//  * read_resp  — response leg: payload lands at the initiator's local
//                 buffer (found via the cookie); the final chunk raises the
//                 initiator's read CQE.
//
// Large messages are chunked (a frame never exceeds max_chunk_bytes), so
// bounded rings / socket buffers never have to fit a whole rendezvous
// payload. A message is accepted atomically: either all its frames are
// pushed/queued, or the post returns retry_full — per-peer FIFO order is
// preserved because a peer with queued chunks rejects new messages until the
// queue drains. Chunk payloads reference the caller's buffer (no copy); the
// local completion CQE is raised only after the last chunk is handed to the
// transport, which is exactly the buffer-reuse contract.
//
// The fabric owns the per-process state the sim kept per rank: the device
// registry (routing: src device i of context k → local context-k device
// i mod count), the MR table (only ever resolved by its owning process), the
// doorbell list, and the peer-death ledger. Subclasses provide the actual
// byte transport: push_frame() on the egress side and pump() on the ingress
// side (called from poll_cq under a try-lock, so any polling thread drives
// ingress but never two at once).
#pragma once

#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "net/net.hpp"
#include "util/mpmc_array.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"

namespace lci::net::detail {

enum class frame_kind_t : uint8_t {
  send = 0,
  write = 1,
  read_req = 2,
  read_resp = 3,
  // Control plane (fabric-consumed, never routed to a device):
  //  * ping/pong — heartbeat liveness beacons (config_t::peer_timeout_us),
  //  * poison — remote kill_rank: the receiver treats it as an order to die
  //    (shuts down its transport so every peer observes the death).
  ping = 4,
  pong = 5,
  poison = 6,
  // SHM ring bookkeeping (never dispatched): padding to the end of the ring.
  wrap = 0xff,
};

constexpr uint8_t frame_flag_notify = 0x1;  // raise the target-side CQE
constexpr uint8_t frame_flag_last = 0x2;    // final chunk of its message

struct frame_header_t {
  uint32_t payload_size = 0;  // bytes following this header
  uint8_t kind = 0;           // frame_kind_t
  uint8_t flags = 0;
  uint8_t src_device = 0;     // routing: source device index (mod count)
  uint8_t context = 0;        // routing: connection namespace (context index)
  int32_t src_rank = -1;
  uint32_t imm = 0;
  uint32_t mr = invalid_mr;   // write/read_req: target MR id
  uint32_t pad = 0;
  uint64_t offset = 0;        // write/read_req: offset into the target MR;
                              // read_resp: offset into the initiator's buffer
  uint64_t cookie = 0;        // read_req/read_resp: initiator correlation
  uint64_t aux = 0;           // read_req: requested length
  uint64_t trace_id = 0;      // sender-side wire span (diagnostic carry)
};
static_assert(sizeof(frame_header_t) == 56, "frame header layout");

struct ep_mr_record_t {
  void* base = nullptr;
  std::size_t size = 0;
  bool valid = false;
};

class ep_fabric_t;

class ep_device_t final : public device_t {
 public:
  ep_device_t(ep_fabric_t* fabric, int context);
  ~ep_device_t() override;

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
  std::size_t preposted_recvs() const override {
    return srq_count_.load(std::memory_order_relaxed);
  }
  bool is_peer_down(int rank) const override;
  uint64_t death_epoch() const override;
  uint64_t wire_dropped() const override {
    return wire_dropped_.load(std::memory_order_relaxed);
  }
  uint64_t injected_faults() const override {
    return injected_faults_.load(std::memory_order_relaxed);
  }
  void set_doorbell(doorbell_t* doorbell) override;

  // Ingress: called by the fabric pump (and by loopback posts) with a parsed
  // frame. The payload pointer is only valid for the duration of the call.
  void accept_frame(const frame_header_t& header, const char* payload);

  // Peer death cleanup: drop queued chunks to the rank (their messages
  // complete locally, like sim wire messages evaporating after the local CQE
  // was already delivered) and complete outstanding reads from it.
  void purge_peer(int rank);

  void ring_doorbell() noexcept {
    if (doorbell_t* d = doorbell_.load(std::memory_order_acquire)) d->ring();
  }

  int context() const { return context_; }

 private:
  struct prepost_t {
    void* buffer = nullptr;
    std::size_t size = 0;
    void* user_context = nullptr;
  };
  struct stash_t {  // RNR: arrived sends waiting for a pre-posted receive
    int src_rank = -1;
    uint32_t imm = 0;
    std::size_t size = 0;
    std::unique_ptr<char[]> data;
  };
  // One outbound frame awaiting transport capacity. Chunk payloads alias the
  // poster's buffer (held live by the completion contract); target-generated
  // read responses own a heap snapshot instead.
  struct pending_tx_t {
    frame_header_t header;
    const char* payload = nullptr;
    std::unique_ptr<char[]> owned;
    // Raised after this frame (the message's last) reaches the transport.
    bool complete_local = false;
    cqe_t local_cqe{};
    // Head-of-queue frame currently being pushed by a drainer (outside
    // tx_lock_). A second drainer backs off; purge_peer leaves it in place.
    bool in_flight = false;
  };
  struct pending_read_t {
    int peer_rank = -1;
    void* local = nullptr;
    std::size_t size = 0;
    std::size_t received = 0;
    void* user_context = nullptr;
  };

  void push_cqe(const cqe_t& cqe);
  // Deterministic fault injection (mirrors the sim device: the same seed mix
  // of fault.seed / rank / context / device index, so a given seed replays
  // the same fault schedule). maybe_inject_fault answers ok or a forced
  // retry; draw_loss decides whether a whole posted message evaporates on
  // the wire (local CQE still fires — the sim drop semantics).
  post_result_t maybe_inject_fault();
  bool draw_loss();
  // Pushes/queues every frame of a message. Precondition: the peer's pending
  // queue is empty (FIFO rule). Never fails: frames that do not fit are
  // queued; death mid-push drops the tail and completes locally.
  void submit_frames(int peer_rank, std::vector<pending_tx_t> frames);
  // Tries to push the peer's queued frames; returns true when empty.
  bool drain_pending(int peer_rank);
  void drain_all_pending();
  bool pending_empty(int peer_rank);

  ep_fabric_t* const fabric_;
  const int context_;
  int index_ = -1;

  // The CQ: a locked deque, unbounded because it also carries inbound
  // frames, which a producer can neither refuse nor spin on.
  mutable util::spinlock_t cq_lock_;
  std::deque<cqe_t> cq_;

  mutable util::spinlock_t srq_lock_;
  std::deque<prepost_t> srq_;
  std::deque<stash_t> rnr_stash_;
  std::atomic<std::size_t> srq_count_{0};

  mutable util::spinlock_t tx_lock_;
  std::map<int, std::deque<pending_tx_t>> pending_tx_;

  mutable util::spinlock_t read_lock_;
  std::map<uint64_t, pending_read_t> pending_reads_;
  std::atomic<uint64_t> next_cookie_{1};

  std::atomic<doorbell_t*> doorbell_{nullptr};
  std::atomic<uint64_t> wire_dropped_{0};

  mutable util::spinlock_t fault_lock_;
  util::xoshiro256_t fault_rng_;  // fault_lock_ guarded
  std::atomic<uint64_t> injected_faults_{0};

  friend class ep_fabric_t;
};

class ep_context_t final : public context_t {
 public:
  ep_context_t(std::shared_ptr<ep_fabric_t> fabric, int index)
      : fabric_(std::move(fabric)), index_(index) {}
  int rank() const override;
  int nranks() const override;
  std::unique_ptr<device_t> create_device() override;
  mr_id_t register_memory(void* base, std::size_t size) override;
  void deregister_memory(mr_id_t id) override;

 private:
  std::shared_ptr<ep_fabric_t> fabric_;
  const int index_;
};

class ep_fabric_t : public fabric_t,
                    public std::enable_shared_from_this<ep_fabric_t> {
 public:
  ep_fabric_t(int self_rank, int nranks, const config_t& config);
  ~ep_fabric_t() override;

  int nranks() const override { return nranks_; }
  const config_t& config() const override { return config_; }
  std::unique_ptr<context_t> create_context(int rank) override;

  int self_rank() const { return self_; }

  // --- peer-death ledger ---------------------------------------------------
  // Subclasses with fabric-wide shared state (SHM tombstones) override the
  // queries; the local ledger is the TCP default.
  virtual bool is_dead(int rank) const {
    return dead_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }
  virtual uint64_t death_epoch() const {
    return death_epoch_.load(std::memory_order_acquire);
  }
  // Marks a rank dead in the local ledger and runs the device purge +
  // doorbell storm. Idempotent; returns true when the rank newly
  // transitioned (the caller that won the race).
  bool mark_dead_local(int rank);

  // --- transport hooks (subclass-provided) ---------------------------------
  enum class push_status_t : uint8_t { ok, full, down };
  // Hands one frame to the transport. header.payload_size bytes at `payload`
  // (may be null when 0). Must be callable from any thread.
  virtual push_status_t push_frame(int peer, const frame_header_t& header,
                                   const char* payload) = 0;
  // Ingress: parse available frames (bounded burst) and dispatch_frame each.
  // Called with the pump lock held (single pumper at a time).
  virtual void pump(std::size_t burst) = 0;

  // Loopback-aware egress used by devices: self-sends dispatch directly.
  push_status_t push_frame_any(int peer, const frame_header_t& header,
                               const char* payload);

  // Runs the pump under a try-lock; also detects death-epoch changes (e.g. a
  // tombstone written by another process) and purges the newly dead.
  void pump_once();

  // Ingress front door: feeds the liveness ledger, consumes control frames
  // (ping/pong/poison), applies delay_rate staging, then routes data frames
  // to a local device. Frames from dead ranks are dropped (counted on the
  // routed device).
  void dispatch_frame(const frame_header_t& header, const char* payload);

  void ring_all_doorbells();

  fabric_health_t health() const override {
    fabric_health_t h;
    h.heartbeats_sent = heartbeats_sent_.load(std::memory_order_relaxed);
    h.peers_timed_out = peers_timed_out_.load(std::memory_order_relaxed);
    h.backpressure_waits =
        backpressure_waits_.load(std::memory_order_relaxed);
    return h;
  }

  // --- liveness (config_t::peer_timeout_us, 0 = off) -----------------------
  // Fed by every ingress frame and by transport-level signals of life (e.g.
  // epoll readiness on a peer's socket).
  void note_heard(int rank);
  // Heartbeat beacon: hands a ping frame to the transport (counted in
  // heartbeats_sent). Called from the backend listener thread.
  void send_ping(int peer);
  // Periodic liveness check — backend listener thread only. Applies a freeze
  // grace: if our own loop gap exceeds timeout/2 (we were the one stopped),
  // the ledger is stale, so it is refreshed instead of judging peers.
  void liveness_sweep();
  uint64_t peer_timeout_us() const { return config_.peer_timeout_us; }
  static uint64_t now_us();

  // kill_rank/kill_after_ops fault schedule: devices call note_post after
  // each successfully posted operation; hitting the budget kills self so
  // every peer observes a mid-run crash.
  void note_post();

  // --- device registry -----------------------------------------------------
  int add_device(int context, ep_device_t* device);
  void remove_device(int context, int index);

  // --- MR table (process-local; resolved only by the owning process) -------
  mr_id_t register_memory(void* base, std::size_t size);
  void deregister_memory(mr_id_t id);
  // nullptr on an invalid MR or bounds violation (the frame is dropped and
  // counted — a remote throw cannot unwind into the remote poster here).
  char* resolve_mr(mr_id_t id, std::size_t offset, std::size_t size);

  std::size_t max_chunk_bytes() const { return max_chunk_bytes_; }
  std::size_t max_send_payload() const override { return max_send_payload_; }

 protected:
  // Subclass hook run (under the pump lock) when a rank is newly observed
  // dead — close/drop transport state for it.
  virtual void on_peer_dead(int rank) { (void)rank; }

  // A peer exceeded the liveness timeout. Returns true when the rank newly
  // transitioned to dead (counted in peers_timed_out). The local-ledger
  // default fits TCP; SHM re-probes the pid and tombstones fabric-wide.
  virtual bool on_liveness_timeout(int rank) { return mark_dead_local(rank); }

  // Order-to-die from a poison control frame: shut the transport down so
  // every peer observes the death. Default: kill_rank(self).
  virtual void poison_self();

  // Subclass ctor tail hook: honors kill_after_ops == 0 (dead from launch).
  void apply_kill_schedule();

  // SHM futex backpressure + epoch-stamp heartbeats report through these.
  void note_backpressure_wait() {
    backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_heartbeat_sent() {
    heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
  }

  const int self_;
  const int nranks_;
  const config_t config_;
  std::size_t max_chunk_bytes_ = 256 * 1024;
  // Largest un-chunked (send) frame payload the transport accepts; set by the
  // subclass from its ring / staging capacity.
  std::size_t max_send_payload_ = SIZE_MAX;

 private:
  // Receive-side delay_rate staging. A delayed frame is held as an owned
  // copy for polls_left pump rounds; frames arriving behind it from the same
  // sender queue after it (per-sender FIFO survives the hold).
  struct delayed_frame_t {
    frame_header_t header;
    std::unique_ptr<char[]> payload;
    uint32_t polls_left = 0;
  };
  // True when the frame was staged (caller must not deliver it).
  bool maybe_delay_frame(const frame_header_t& header, const char* payload);
  void drain_delayed();  // pump-lock held
  void handle_control(const frame_header_t& header);
  // The routing half of dispatch (post-liveness, post-delay).
  void route_frame(const frame_header_t& header, const char* payload);

  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::atomic<uint64_t> death_epoch_{0};
  uint64_t purged_epoch_ = 0;  // pump-lock guarded
  std::unique_ptr<bool[]> purged_;  // pump-lock guarded

  util::spinlock_t pump_lock_;

  mutable util::spinlock_t delay_lock_;
  std::vector<std::deque<delayed_frame_t>> delayed_;  // delay_lock_ guarded
  util::xoshiro256_t delay_rng_;                      // delay_lock_ guarded
  std::atomic<bool> has_delayed_{false};

  std::unique_ptr<std::atomic<uint64_t>[]> last_heard_us_;
  uint64_t last_sweep_us_ = 0;  // listener thread only
  std::atomic<uint64_t> post_count_{0};
  std::atomic<uint64_t> heartbeats_sent_{0};
  std::atomic<uint64_t> peers_timed_out_{0};
  std::atomic<uint64_t> backpressure_waits_{0};

  // Steering table: per-context device slots readable lock-free (the same
  // publish/null-slot pattern as the sim fabric), so route_frame lands a
  // frame on the destination shard's device without taking dev_lock_ — the
  // old code serialized every ingress frame *and its payload memcpy* behind
  // that lock. dev_lock_ still serializes mutation (add/remove/create).
  // Removal safety: remove_device nulls the slot, then spins until
  // routers_ == 0, so no route that could have read the pointer is still in
  // accept_frame when the device dies (quiescence, not hazard pointers —
  // removal is teardown-rate).
  struct context_devices_t {
    util::mpmc_array_t<ep_device_t*> slots{8};
  };
  mutable util::spinlock_t dev_lock_;
  util::mpmc_array_t<context_devices_t*> contexts_{8};
  std::vector<std::unique_ptr<context_devices_t>> context_storage_;  // dev_lock_
  std::atomic<std::size_t> routers_{0};  // in-flight lock-free route_frames
  int next_context_ = 0;  // dev_lock_ guarded

  mutable util::spinlock_t mr_lock_;
  std::vector<ep_mr_record_t> mrs_;
  std::vector<mr_id_t> mr_freelist_;
};

// Transport factories (invoked through net::create_fabric).
std::shared_ptr<fabric_t> create_shm_fabric(int self_rank, int nranks,
                                            const config_t& config);
std::shared_ptr<fabric_t> create_tcp_fabric(int self_rank, int nranks,
                                            const config_t& config);

}  // namespace lci::net::detail
