// Network backend layer (paper Sec. 4.2).
//
// LCI isolates network backends from the core runtime behind a thin wrapper
// operating on two resources: a *network context* (global resources; one per
// LCI runtime) and a *network device* (critical-path resources; one per LCI
// device). The backend must support posting send/recv/write/read, polling a
// completion queue, and (de)registering memory; it does NOT need tag matching
// or unexpected-message handling — the LCI progress engine keeps enough
// receives pre-posted.
//
// The paper's backends are libibverbs (ibv) and libfabric (ofi). This
// reproduction has no RDMA hardware, so the backend here is a *simulated
// fabric*: an in-process network connecting N simulated ranks. What the
// simulation preserves — deliberately, because it is what the paper's
// multithreaded evaluation measures — is the *lock granularity* of the two
// real backends:
//
//  * lock_model_t::ibv — mirrors the mlx5 provider analysis of Sec. 4.2.3:
//    each queue pair, the shared receive queue, and the completion queue are
//    protected by their own spinlock, shadowed at this layer by try-lock
//    wrappers. The `td_strategy_t` attribute reproduces `ibv_td_strategy`:
//    `per_qp` gives every QP its own lock, `all_qp` one lock for all QPs of a
//    device, `none` additionally funnels all sends in the fabric through a
//    shared "uUAR" lock (modelling driver-owned hardware resources shared
//    across queue pairs).
//
//  * lock_model_t::ofi — mirrors the cxi/verbs provider analysis of
//    Sec. 4.2.4: one endpoint spinlock serializes post_send/post_recv and
//    poll_cq alike.
//
// Data movement itself is memcpy: sends copy through per-device "wire"
// mailboxes (lock-free FAA queues standing in for NIC DMA engines, so the
// wire adds no host-lock contention), and RDMA write/read directly access
// remote *registered* memory with bounds checks.
//
// Beyond the simulation, two *real* multi-process backends implement the same
// contract on the same device core (net/device_core.hpp: the lock layouts,
// the receive path, the fault injector and the routing rule are shared; see
// docs/INTERNALS.md "Net backends"):
//
//  * backend_t::shm — per-peer ring buffers in a POSIX shared-memory segment
//    with futex doorbells; peer death is a tombstone word in the segment.
//  * backend_t::tcp — nonblocking loopback sockets, length-prefixed framing,
//    a writev-style sender and an epoll-driven ingress pump; peer death is a
//    hangup / ECONNRESET on the connection.
//
// Both are selected per process with the runtime attr `backend` (env default
// LCI_BACKEND) and bootstrapped from LCI_RANK / LCI_NRANKS / LCI_JOB_DIR —
// the environment scripts/launch_local.sh sets up for each forked rank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace lci::net {

using mr_id_t = uint32_t;
inline constexpr mr_id_t invalid_mr = ~uint32_t{0};

// Which transport implements the fabric contract below.
enum class backend_t : uint8_t { sim, shm, tcp };

const char* to_string(backend_t backend) noexcept;
// Parses "sim" / "shm" / "tcp" (case-sensitive). Returns false on anything
// else; *out is untouched then.
bool backend_from_string(const char* name, backend_t* out) noexcept;
// LCI_BACKEND environment default ("" / unset = sim). Throws fatal on an
// unknown value — a typo silently falling back to sim would "pass" a
// multi-process job without any processes talking to each other.
backend_t backend_env_default();

enum class lock_model_t : uint8_t { ibv, ofi };
enum class td_strategy_t : uint8_t { per_qp, all_qp, none };

// Deterministic fault injection. Under organic load the fabric returns
// retry_lock / retry_full only on rare real contention, which leaves the
// runtime's backlog and retry paths nearly untested. This policy lets a
// per-device, seeded RNG force those results on demand:
//
//  * retry_rate — probability that post_send/post_write/post_read bounces
//    with a retry result before touching any fabric state (an even split
//    between retry_lock and retry_full),
//  * send_depth — shrink the effective send-queue depth used by the
//    backpressure check, forcing organic retry_full under modest traffic,
//  * delay_rate / delay_polls — hold a wire message back for a number of
//    delivery attempts (per-sender FIFO order is preserved, so this models
//    slow links at the completion-visibility level, not reordering),
//  * kill_rank / kill_after_ops — deterministic peer death: once the doomed
//    rank's devices have completed kill_after_ops successful posts (0 = dead
//    from the start), the rank dies fabric-wide. Posts naming it (and posts
//    it makes) return peer_down, and messages already queued to it evaporate
//    as silent wire drops — on sim also those queued from it (on shm/tcp a
//    frame the target's pump already took from the ring or socket is
//    delivered),
//  * loss_rate — per-message probability that a wire push is accepted but the
//    message silently evaporates (models a lossy link; the sender sees ok).
//    A lost write or read loses only its notification.
//
// Delay and loss are drawn on the *target* device's stream as a message
// enters its inbound queue. Each device derives its RNG stream from (seed,
// rank, context, device index), so a single-threaded replay is
// bit-reproducible on every backend; multithreaded runs keep per-device
// determinism of the decision sequence while the interleaving chooses which
// operation draws each decision.
struct fault_config_t {
  double retry_rate = 0.0;     // [0,1] forced-retry probability per post
  uint64_t seed = 0x5eed5eedull;
  // Cap on injected retries per device (0 = unlimited). A nonzero cap
  // guarantees forward progress even at retry_rate == 1.0.
  uint64_t max_faults = 0;
  std::size_t send_depth = 0;  // 0 = the default 4096 (never raised)
  double delay_rate = 0.0;     // [0,1] per-message delivery-delay probability
  uint32_t delay_polls = 4;    // delivery attempts a delayed message skips
  // Peer-death schedule: rank to kill (-1 = nobody) and the number of
  // successful posts its devices complete before dying (0 = dead at start).
  int kill_rank = -1;
  uint64_t kill_after_ops = 0;
  // Silent wire-drop probability per message (the sender still sees ok).
  double loss_rate = 0.0;
  // Transport-specific faults (ignored by the sim backend):
  //  * tcp_reset_rate — per-flush probability that a peer link is torn down
  //    as if the connection had been reset (both sides observe peer death),
  //  * tcp_short_write_rate — per-flush probability that only a prefix of the
  //    staged bytes is handed to the socket (exercises partial-send resume),
  //  * shm_ring_shrink — when nonzero, the producer-side capacity check
  //    pretends each ring holds only this many bytes (clamped so any single
  //    frame still fits), forcing backpressure under modest traffic.
  double tcp_reset_rate = 0.0;
  double tcp_short_write_rate = 0.0;
  std::size_t shm_ring_shrink = 0;

  bool enabled() const {
    return retry_rate > 0.0 || send_depth != 0 || delay_rate > 0.0 ||
           kill_rank >= 0 || loss_rate > 0.0 ||
           tcp_reset_rate > 0.0 || tcp_short_write_rate > 0.0 ||
           shm_ring_shrink != 0;
  }
};

struct config_t {
  lock_model_t lock_model = lock_model_t::ibv;
  td_strategy_t td_strategy = td_strategy_t::per_qp;
  // Per-device wire-mailbox depth; a full mailbox back-pressures senders
  // (models NIC flow control / RNR). sim only: on shm/tcp the ring or the
  // socket is the wire and carries the backpressure.
  std::size_t wire_depth = 65536;
  // Max entries delivered from the wire per poll (models NIC event burst).
  std::size_t poll_burst = 64;
  // Deterministic fault injection (off by default; see fault_config_t).
  fault_config_t fault{};
  // Heartbeat liveness timeout for the real backends (0 = off, the default):
  // a peer not heard from (no frames, no beacons, no shm progress-epoch
  // advance) for this long is declared dead, feeding the same death-epoch
  // purge a crash does. The sim backend ignores it (threads in one process
  // cannot be partitioned). The runtime passes runtime_attr_t::peer_timeout_us
  // (whose default reads LCI_PEER_TIMEOUT_MS) as it is: 0 stays off.
  uint64_t peer_timeout_us = 0;
};

// Completion kinds. `remote_write` / `remote_read` are target-side
// notifications generated by write-with-immediate and read-with-notification
// (the latter is an extension the paper's interconnects lacked).
enum class op_t : uint8_t { send, recv, write, read, remote_write, remote_read };

// Wakeup doorbell: the owner of a device may register one; the backend rings
// it whenever new work lands on the device that a future poll_cq would
// observe (a wire arrival pushed by a peer, or a local completion that needs
// dispatching). ring() must be cheap, non-blocking for the common case, and
// safe from any thread — it is called from *senders'* critical paths. It is a
// hint, not a guarantee of exactly-once: spurious rings are fine, and owners
// that sleep on it must bound the sleep (see core/progress_engine.hpp).
class doorbell_t {
 public:
  virtual ~doorbell_t() = default;
  virtual void ring() noexcept = 0;
};

enum class post_result_t : uint8_t {
  ok,
  retry_lock,  // try-lock wrapper missed (Sec. 4.2.2)
  retry_full,  // send queue / wire mailbox full
  retry_nobuf, // no pre-posted receive available (only from post paths)
  peer_down    // the named peer (or this rank itself) is dead — never retry
};

struct cqe_t {
  op_t op{};
  int peer_rank = -1;
  uint32_t imm = 0;
  std::size_t length = 0;
  void* buffer = nullptr;        // recv: buffer the payload landed in
  void* user_context = nullptr;  // cookie from the posting call
};

struct poll_result_t {
  std::size_t count = 0;
  bool lock_missed = false;  // poll try-lock failed; caller should retry later
};

class device_t {
 public:
  virtual ~device_t() = default;

  // Index of this device within its rank (routing key: messages sent from
  // device i arrive at the target rank's device i of the same context, on
  // every backend. Until that device exists, a sim post retries and a
  // shm/tcp frame waits at the target; only once it is freed does traffic
  // fall over to a live sibling).
  virtual int index() const = 0;

  virtual post_result_t post_recv(void* buffer, std::size_t size,
                                  void* user_context) = 0;
  virtual post_result_t post_send(int peer_rank, const void* buffer,
                                  std::size_t size, uint32_t imm,
                                  void* user_context) = 0;
  virtual post_result_t post_write(int peer_rank, const void* local,
                                   std::size_t size, mr_id_t remote_mr,
                                   std::size_t remote_offset, bool notify,
                                   uint32_t imm, void* user_context) = 0;
  virtual post_result_t post_read(int peer_rank, void* local, std::size_t size,
                                  mr_id_t remote_mr, std::size_t remote_offset,
                                  bool notify, uint32_t imm,
                                  void* user_context) = 0;
  // Writes at most `max` completions into out[]: local send/write/read
  // completions and inbound receives/notifications alike, each sender's
  // messages in the order it sent them.
  virtual poll_result_t poll_cq(cqe_t* out, std::size_t max) = 0;

  // Diagnostics.
  virtual std::size_t preposted_recvs() const = 0;
  // Retries forced by the fault-injection policy on this device (0 when
  // injection is off or the backend does not support it).
  virtual uint64_t injected_faults() const { return 0; }
  // Peer-failure reporting. is_peer_down answers for a specific rank;
  // death_epoch is a fabric-wide counter bumped on every kill, letting owners
  // detect "somebody died since I last looked" with one relaxed load.
  virtual bool is_peer_down(int rank) const {
    (void)rank;
    return false;
  }
  virtual uint64_t death_epoch() const { return 0; }
  // Wire messages that evaporated at this device (loss_rate drops plus
  // messages discarded because an endpoint was dead).
  virtual uint64_t wire_dropped() const { return 0; }

  // Registers (nullptr: clears) the wakeup doorbell. The doorbell must
  // outlive the device or be cleared before it dies; backends without wakeup
  // support may ignore it (owners fall back to bounded sleeps).
  virtual void set_doorbell(doorbell_t* doorbell) { (void)doorbell; }
};

class context_t {
 public:
  virtual ~context_t() = default;
  virtual int rank() const = 0;
  virtual int nranks() const = 0;
  virtual std::unique_ptr<device_t> create_device() = 0;
  // Registration is required before memory may be the target of remote
  // write/read. Throws std::out_of_range on remote bounds violations at
  // access time.
  virtual mr_id_t register_memory(void* base, std::size_t size) = 0;
  virtual void deregister_memory(mr_id_t id) = 0;
};

// Transport-health statistics, read at counter-snapshot time (never reset):
// heartbeat beacons this process emitted, peers this process declared dead by
// liveness timeout, and producer waits on a full SHM ring (futex-backed
// backpressure). All zero on backends without the machinery (sim).
struct fabric_health_t {
  uint64_t heartbeats_sent = 0;
  uint64_t peers_timed_out = 0;
  uint64_t backpressure_waits = 0;
};

class fabric_t {
 public:
  virtual ~fabric_t() = default;
  virtual backend_t kind() const = 0;
  virtual int nranks() const = 0;
  virtual const config_t& config() const = 0;
  virtual fabric_health_t health() const { return {}; }
  virtual std::unique_ptr<context_t> create_context(int rank) = 0;
  // Largest single post_send payload the transport can ever carry. Sends are
  // not chunked (only write/read are), so a frame above this bound would be
  // rejected with retry_full forever — owners must validate their eager
  // frame size against it up front. SIZE_MAX when unbounded (sim).
  virtual std::size_t max_send_payload() const { return SIZE_MAX; }
  // Test hook: kills a rank at runtime, independent of the kill schedule.
  // Returns false if the backend cannot (or the rank is already dead).
  // sim and shm kill any rank fabric-wide. tcp kills its own rank directly
  // (sockets hang up, peers observe it); a *remote* rank is killed by sending
  // it a poison control frame — the victim shuts its sockets down on receipt,
  // with a local-timeout fallback at the caller in case the victim never
  // reacts — so the call returns true once the poison is on its way, before
  // the death is globally visible.
  virtual bool kill_rank(int rank) {
    (void)rank;
    return false;
  }
};

// Factory for the simulated fabric.
std::shared_ptr<fabric_t> create_sim_fabric(int nranks,
                                            const config_t& config = {});

// Rank / size of the calling process per the bootstrap environment
// (LCI_RANK / LCI_NRANKS; 0 / 1 when unset).
int bootstrap_rank();
int bootstrap_nranks();

// Fault policy from the environment, overlaid on `base`: LCI_FAULT_LOSS_RATE,
// LCI_FAULT_DELAY_RATE, LCI_FAULT_DELAY_POLLS, LCI_FAULT_SEED,
// LCI_FAULT_KILL_RANK, LCI_FAULT_KILL_AFTER_OPS, LCI_FAULT_TCP_RESET_RATE,
// LCI_FAULT_TCP_SHORT_WRITE_RATE, LCI_FAULT_SHM_RING_SHRINK. This is how a
// launch_local.sh job (forked ranks, env contract) injects faults into the
// real backends, where no in-process config handoff exists.
fault_config_t fault_env_config(const fault_config_t& base = {});

// Generic factory. For sim this is a single-rank in-process fabric (threads
// join ranks via lci::sim::world_t instead); for shm/tcp it builds the
// calling process's endpoint of the job described by the bootstrap
// environment and blocks until all ranks have connected.
std::shared_ptr<fabric_t> create_fabric(backend_t backend,
                                        const config_t& config = {});

}  // namespace lci::net
