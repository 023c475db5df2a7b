// Shared machinery of the real multi-process backends (SHM and TCP): the
// frame transport under the device core (device_core.hpp).
//
// Both transports move *frames*: a fixed-size header (whose first word is the
// payload length — the "length prefix" of the TCP framing, and the record
// size of the SHM rings) followed by the payload. The header carries
// everything the receiving process needs to dispatch without shared address
// space:
//
//  * send       — eager message; enters the target device's inbound queue
//                 and is delivered into a pre-posted receive by the core.
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
// local completion is raised only after the last chunk is handed to the
// transport, which is exactly the buffer-reuse contract.
//
// The fabric owns the per-process state: the device registry (routing is the
// core's exact rule: src device i of context k → this process's context-k
// device i; a frame for a device not yet published waits in a FIFO), the MR
// table (only ever resolved by its owning process) and the peer-death
// ledger. Subclasses provide the actual byte transport: push_frame() on the
// egress side and pump() on the ingress side (called from poll_cq under a
// try-lock, so any polling thread drives ingress but never two at once).
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "net/device_core.hpp"

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
  uint16_t context = 0;       // routing: connection namespace (context index)
  int32_t src_rank = -1;
  uint32_t imm = 0;
  uint32_t mr = invalid_mr;   // write/read_req: target MR id
  uint32_t src_device = 0;    // routing: source device index
  uint64_t offset = 0;        // write/read_req: offset into the target MR;
                              // read_resp: offset into the initiator's buffer
  uint64_t cookie = 0;        // read_req/read_resp: initiator correlation
  uint64_t aux = 0;           // read_req: requested length
  uint64_t trace_id = 0;      // sender-side wire span (diagnostic carry)
};
static_assert(sizeof(frame_header_t) == 56, "frame header layout");

// What a transport did with a frame handed to it.
enum class push_status_t : uint8_t { ok, full, down };

class ep_fabric_t;

class ep_device_t final : public device_core_t {
 public:
  ep_device_t(ep_fabric_t* fabric, int context);
  ~ep_device_t() override;

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
  // Pumps the fabric and drains this device's queued frames, then polls
  // the core.
  poll_result_t poll_cq(cqe_t* out, std::size_t max) override;

  // Ingress: a data frame routed to this device (by the pump, or by this
  // device's own loopback push). The payload pointer is only valid for the
  // duration of the call.
  void accept_frame(const frame_header_t& header, const char* payload);

  // Peer death cleanup: drop queued chunks to the rank (their messages
  // complete locally, like sim wire messages evaporating after the local CQE
  // was already delivered) and complete outstanding reads from it.
  void purge_peer(int rank);

 private:
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
  // A frame of this device's, stamped with its routing coordinates.
  frame_header_t make_header(frame_kind_t kind) const;
  // Egress to one peer: a frame to this very rank loops back into this
  // device (its own paired device); anything else goes to the transport.
  push_status_t push(int peer, const frame_header_t& header,
                     const char* payload);
  // Pushes/queues every frame of a message. Precondition: the peer's pending
  // queue is empty (FIFO rule). Never fails: frames that do not fit are
  // queued; death mid-push drops the tail and completes locally.
  void submit_frames(int peer_rank, std::vector<pending_tx_t> frames);
  // Tries to push the peer's queued frames; returns true when empty.
  bool drain_pending(int peer_rank);
  void drain_all_pending();

  ep_fabric_t* const ep_;

  mutable util::spinlock_t tx_lock_;
  std::map<int, std::deque<pending_tx_t>> pending_tx_;

  mutable util::spinlock_t read_lock_;
  std::map<uint64_t, pending_read_t> pending_reads_;
  std::atomic<uint64_t> next_cookie_{1};
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

class ep_fabric_t : public core_fabric_t,
                    public std::enable_shared_from_this<ep_fabric_t> {
 public:
  ep_fabric_t(int self_rank, int nranks, const config_t& config);
  ~ep_fabric_t() override;

  std::unique_ptr<context_t> create_context(int rank) override;

  int self_rank() const { return self_; }
  device_registry_t& registry() { return registry_; }

  // Marks a rank dead in the ledger and rings every device, so the next
  // pump runs the purge. Idempotent; returns true when the rank newly
  // transitioned (the caller that won the race).
  bool mark_dead_local(int rank);
  // A peer hung up (pump lock held). The frames this process already took
  // from it were sent while it lived and are delivered; its death is
  // marked only once no device holds inbound work any more, so the runtime
  // handles those frames before it sees the peer down — a rank that
  // finalizes right after its last send hangs up right behind it. A device
  // nobody polls delays the mark by a bounded number of pumps.
  void note_hangup(int rank);

  // --- transport hooks (subclass-provided) ---------------------------------
  // Hands one frame to the transport. header.payload_size bytes at `payload`
  // (may be null when 0). Must be callable from any thread.
  virtual push_status_t push_frame(int peer, const frame_header_t& header,
                                   const char* payload) = 0;
  // Ingress: parse available frames (bounded burst) and dispatch_frame each.
  // Called with the pump lock held (single pumper at a time).
  virtual void pump(std::size_t burst) = 0;
  // Teardown: hands whatever the transport still stages to the peers
  // (bounded), so a rank that exits right after its last post does not cut
  // a frame short. Run by every device destructor: the last user code
  // before a rank's process exits is its runtime's teardown.
  virtual void flush_egress() {}

  // Runs the pump under a try-lock: first the frames waiting for their
  // device, then the transport's ingress, then the purge of ranks newly
  // observed dead (a tombstone another process wrote, a hangup, a
  // kill_rank call).
  void pump_once();

  // Ingress front door (pump lock held): feeds the liveness ledger, drops
  // traffic from dead ranks, consumes control frames (ping/pong/poison) and
  // steers data frames to their device.
  void dispatch_frame(const frame_header_t& header, const char* payload);

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

  // --- MR table (process-local; resolved only by the owning process) -------
  mr_table_t& mrs() { return mrs_; }
  // nullptr on an invalid MR or bounds violation (the frame is dropped and
  // counted — a remote throw cannot unwind into the remote poster here).
  char* resolve_mr(mr_id_t id, std::size_t offset, std::size_t size) const {
    const mr_table_t::region_t* region = mrs_.find(id);
    return region != nullptr ? region->at(offset, size) : nullptr;
  }

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
  std::size_t max_chunk_bytes_ = 256 * 1024;
  // Largest un-chunked (send) frame payload the transport accepts; set by the
  // subclass from its ring / staging capacity.
  std::size_t max_send_payload_ = SIZE_MAX;

 private:
  // A data frame whose device is not published yet: an owned copy, in
  // arrival order.
  struct held_frame_t {
    frame_header_t header;
    std::unique_ptr<char[]> payload;
  };
  void handle_control(const frame_header_t& header);
  // The routing half of dispatch: the paired device gets the frame, or an
  // owned copy waits in held_ until deliver() succeeds.
  void steer_frame(const frame_header_t& header, const char* payload);
  // Hands the frame to its paired device; false (nothing done) when that
  // device is not published yet or an earlier frame of the same stream is
  // in `waiting`, so a stream keeps its order.
  bool deliver(const frame_header_t& header, const char* payload,
               const std::deque<held_frame_t>& waiting);
  // Delivers every held frame whose device is published by now.
  void release_held();
  // Marks the hung-up peers dead once their frames are delivered.
  void commit_hangups();

  device_registry_t registry_;
  std::deque<held_frame_t> held_;  // pump-lock guarded
  std::vector<int> hangups_;       // pump-lock guarded
  uint32_t hangup_pumps_ = 0;      // pumps the oldest hangup has waited

  uint64_t purged_epoch_ = 0;  // pump-lock guarded
  std::unique_ptr<bool[]> purged_;  // pump-lock guarded

  util::spinlock_t pump_lock_;

  std::unique_ptr<std::atomic<uint64_t>[]> last_heard_us_;
  uint64_t last_sweep_us_ = 0;  // listener thread only
  std::atomic<uint64_t> heartbeats_sent_{0};
  std::atomic<uint64_t> peers_timed_out_{0};
  std::atomic<uint64_t> backpressure_waits_{0};

  mr_table_t mrs_;
};

// Transport factories (invoked through net::create_fabric).
std::shared_ptr<fabric_t> create_shm_fabric(int self_rank, int nranks,
                                            const config_t& config);
std::shared_ptr<fabric_t> create_tcp_fabric(int self_rank, int nranks,
                                            const config_t& config);

}  // namespace lci::net::detail
