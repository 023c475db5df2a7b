// LCI — the Lightweight Communication Interface (public API).
//
// Reproduction of the interface described in Sec. 3 of "LCI: a Lightweight
// Communication Interface for Efficient Asynchronous Multithreaded
// Communication" (Yan & Snir, SC 2025):
//
//  * explicit resources (runtime, device, matching engine, packet pool,
//    completion objects) allocated and freed by the user,
//  * a generic `post_comm` whose *direction* / *remote buffer* / *remote
//    completion* optional arguments select among send, receive, active
//    message, RMA put/get, with or without remote notification (Table 1),
//  * derived operations post_send / post_recv / post_am / post_put /
//    post_get as syntactic sugar over post_comm,
//  * ternary completion status: done (completed immediately; the completion
//    object will NOT be signaled), posted (completion object will be
//    signaled), retry (temporary resource shortage; resubmit). Fatal errors
//    are C++ exceptions,
//  * four completion-object families: handler, completion queue,
//    synchronizer, completion graph,
//  * the Objectified Flexible Function (OFF) idiom: every operation has an
//    `_x` variant returning a functor whose setters name the optional
//    arguments in any order and whose trailing `()` executes it, e.g.
//       post_send_x(rank, buf, size, tag, comp).device(d)();
//  * explicit progress, out-of-order delivery, restricted wildcard matching
//    (matching_policy_t), memory registration, buffer lists, and basic
//    collectives (dissemination barrier, tree broadcast/reduce).
//
// Bootstrap difference from the paper: with no cluster available, ranks are
// simulated in-process (see lci::sim at the bottom and DESIGN.md). A thread
// participates in a rank by holding a *rank binding*; `sim::spawn` arranges
// bindings for the common case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "core/trace.hpp"
#include "net/net.hpp"

namespace lci {

// ---------------------------------------------------------------------------
// Basic types
// ---------------------------------------------------------------------------

using tag_t = uint32_t;

// Handle to a remote completion object, registered with register_rcomp and
// communicated to peers out of band; active messages and RMA-with-signal name
// their target-side completion object through it.
using rcomp_t = uint32_t;
inline constexpr rcomp_t rcomp_null = ~rcomp_t{0};

enum class direction_t : uint8_t { out, in };

// Matching policies (Sec. 3.3.2): the default matches by (source rank, tag);
// the restricted wildcards match by rank only or tag only — both sides must
// agree on the policy for a given message.
enum class matching_policy_t : uint8_t { rank_tag, rank_only, tag_only, none };

struct buffer_t {
  void* base = nullptr;
  std::size_t size = 0;
};

struct buffers_t {
  std::vector<buffer_t> list;
  std::size_t total_size() const {
    std::size_t n = 0;
    for (const auto& b : list) n += b.size;
    return n;
  }
};

// ---------------------------------------------------------------------------
// Error / status
// ---------------------------------------------------------------------------

enum class errorcode_t : uint8_t {
  // done category: completed immediately, completion objects not signaled
  done,
  done_backlog,  // queued on the backlog (allow_retry=false); will complete
  // posted category
  posted,
  posted_backlog,
  // retry category: resubmit later; sub-codes say which resource was short
  retry,          // generic
  retry_init,     // initial value, not yet attempted
  retry_lock,     // a try-lock wrapper missed (network contention)
  retry_nopacket, // packet pool exhausted
  retry_nomem,    // send queue / wire full
  retry_backlog,  // backlog queue busy
  // fatal category: the operation failed permanently. Fatal errors raised
  // while *posting* stay C++ exceptions (Sec. 3.2.5); these codes report
  // failures detected *after* an operation was accepted — they are returned
  // or delivered through the completion object (exactly once), never thrown
  // out of progress(). Exception: fatal_peer_down is also *returned* (not
  // thrown) by posts naming an already-dead rank, so retry loops terminate.
  fatal,            // unclassified permanent failure
  fatal_truncated,  // incoming message exceeds the posted receive buffer(s)
  fatal_peer_down,  // the named peer died (kill schedule / kill_peer hook)
  fatal_canceled,   // terminated by cancel() or drain()
  fatal_timeout,    // the operation's .deadline(us) expired
};

struct error_t {
  errorcode_t code = errorcode_t::retry_init;

  bool is_done() const {
    return code == errorcode_t::done || code == errorcode_t::done_backlog;
  }
  bool is_posted() const {
    return code == errorcode_t::posted || code == errorcode_t::posted_backlog;
  }
  bool is_fatal() const {
    return code == errorcode_t::fatal ||
           code == errorcode_t::fatal_truncated ||
           code == errorcode_t::fatal_peer_down ||
           code == errorcode_t::fatal_canceled ||
           code == errorcode_t::fatal_timeout;
  }
  bool is_retry() const { return !is_done() && !is_posted() && !is_fatal(); }
};

// Fatal errors are reported through C++ exceptions (Sec. 3.2.5).
class fatal_error_t : public std::runtime_error {
 public:
  explicit fatal_error_t(const std::string& what) : std::runtime_error(what) {}
};

// Completion descriptor: returned by posting operations (when `done`) and
// delivered to completion objects (when `posted` operations finish).
struct status_t {
  error_t error{};
  int rank = -1;
  tag_t tag = 0;
  buffer_t buffer{};
  void* user_context = nullptr;

  buffer_t get_buffer() const { return buffer; }
};

// ---------------------------------------------------------------------------
// Resource handles (non-owning; pair each alloc_* with the matching free_*).
// ---------------------------------------------------------------------------

namespace detail {
class runtime_impl_t;
class device_impl_t;
class matching_engine_impl_t;
class packet_pool_impl_t;
class comp_impl_t;
class graph_impl_t;
struct op_record_t;
}  // namespace detail

struct runtime_t {
  detail::runtime_impl_t* p = nullptr;
  bool is_valid() const { return p != nullptr; }
};
struct device_t {
  detail::device_impl_t* p = nullptr;
  bool is_valid() const { return p != nullptr; }
};
struct matching_engine_t {
  detail::matching_engine_impl_t* p = nullptr;
  bool is_valid() const { return p != nullptr; }
};
struct packet_pool_t {
  detail::packet_pool_impl_t* p = nullptr;
  bool is_valid() const { return p != nullptr; }
};
struct comp_t {
  detail::comp_impl_t* p = nullptr;
  bool is_valid() const { return p != nullptr; }
};
struct graph_t {
  detail::graph_impl_t* p = nullptr;
  bool is_valid() const { return p != nullptr; }
};

// Cancellable-operation handle. Filled in by post_*_x(...).op_handle(&op)
// when the operation parks state the runtime can still pull back (a posted
// receive waiting in the matching engine, a backlogged operation, a pending
// rendezvous handshake). Invalid when the post completed or failed
// immediately — there is nothing left to cancel.
struct op_t {
  std::shared_ptr<detail::op_record_t> p;
  bool is_valid() const { return p != nullptr; }
};

// Registered memory region (local handle) and its remote token.
struct mr_t {
  net::mr_id_t id = net::invalid_mr;
  detail::runtime_impl_t* runtime = nullptr;
  bool is_valid() const { return id != net::invalid_mr; }
};
struct rmr_t {
  net::mr_id_t id = net::invalid_mr;
  bool is_valid() const { return id != net::invalid_mr; }
};

using graph_node_t = uint32_t;
inline constexpr graph_node_t graph_node_null = ~graph_node_t{0};

// ---------------------------------------------------------------------------
// Runtime attributes
// ---------------------------------------------------------------------------

enum class cq_type_t : uint8_t { lcrq, array };

namespace detail {

// Environment defaults for the tracing attributes, so any binary (benchmarks,
// shims, mini-apps) can be traced without plumbing attrs through its layers:
// LCI_TRACE=1 enables tracing for every runtime that does not explicitly set
// .trace(); LCI_TRACE_RING / LCI_TRACE_SAMPLE override ring capacity and the
// 1-in-N sampling rate. Read once and cached.
inline bool trace_env_default() {
  static const bool value = []() {
    const char* env = std::getenv("LCI_TRACE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  return value;
}

inline std::size_t trace_env_ring() {
  static const std::size_t value = []() -> std::size_t {
    const char* env = std::getenv("LCI_TRACE_RING");
    if (env == nullptr || env[0] == '\0') return std::size_t{1} << 14;
    const long parsed = std::atol(env);
    return parsed > 0 ? static_cast<std::size_t>(parsed) : std::size_t{1} << 14;
  }();
  return value;
}

inline uint32_t trace_env_sample() {
  static const uint32_t value = []() -> uint32_t {
    const char* env = std::getenv("LCI_TRACE_SAMPLE");
    if (env == nullptr || env[0] == '\0') return 1;
    const long parsed = std::atol(env);
    return parsed > 0 ? static_cast<uint32_t>(parsed) : 1;
  }();
  return value;
}

// Environment default for device sharding (runtime_attr_t::device_shards):
// LCI_DEVICE_SHARDS=N shards every device of every runtime that does not set
// the attribute explicitly. Lets CI (and users) turn sharding on for an
// existing binary without touching its attrs.
inline std::size_t device_shards_env_default() {
  static const std::size_t value = []() -> std::size_t {
    const char* env = std::getenv("LCI_DEVICE_SHARDS");
    if (env == nullptr || env[0] == '\0') return 1;
    const long parsed = std::atol(env);
    return parsed > 0 ? static_cast<std::size_t>(parsed) : 1;
  }();
  return value;
}

// Environment default for the heartbeat liveness timeout
// (runtime_attr_t::peer_timeout_us): LCI_PEER_TIMEOUT_MS=N milliseconds,
// 0 (the default) disables liveness detection.
inline uint64_t peer_timeout_env_default() {
  static const uint64_t value = []() -> uint64_t {
    const char* env = std::getenv("LCI_PEER_TIMEOUT_MS");
    if (env == nullptr || env[0] == '\0') return 0;
    const long long parsed = std::atoll(env);
    return parsed > 0 ? static_cast<uint64_t>(parsed) * 1000 : 0;
  }();
  return value;
}

}  // namespace detail

struct runtime_attr_t {
  // Network backend hosting this process's rank (net/net.hpp): sim (in-process
  // simulated ranks, the default), shm (POSIX shared-memory rings across
  // processes), or tcp (loopback sockets). Only consulted when the calling
  // thread is not already bound to a rank — the first init on an unbound
  // thread creates the process's fabric endpoint from it; afterwards (and
  // under sim::spawn bindings) the existing fabric wins and get_attr reports
  // its actual kind. Defaults to LCI_BACKEND, which is how
  // scripts/launch_local.sh selects the transport per job.
  net::backend_t backend = net::backend_env_default();
  // Heartbeat liveness timeout for the real backends (shm/tcp), in
  // microseconds; 0 (the default) turns liveness detection off. When set, a
  // peer not heard from — no frames, no heartbeat — for this long is declared
  // dead exactly as if it had crashed: every survivor observes one
  // fatal_peer_down per dead rank. Detects SIGSTOPped/wedged/partitioned
  // peers that TCP EOF and SHM pid probes cannot. Too-small values false-
  // positive under scheduler stalls; hundreds of milliseconds is a sane
  // floor. The sim backend ignores it. Defaults to LCI_PEER_TIMEOUT_MS.
  uint64_t peer_timeout_us = detail::peer_timeout_env_default();
  // Registration-cache capacity in entries (net/reg_cache.hpp): internal
  // rendezvous registrations are served from a refcounted LRU cache of live
  // registered intervals instead of hitting the fabric every transfer.
  // 0 disables the cache.
  std::size_t reg_cache_entries = 128;
  // Payload capacity of a packet; also the eager/rendezvous threshold for
  // send-receive and active messages. Messages of at most 64 bytes (or the
  // eager threshold, if lower) are injected from the user buffer without
  // consuming a packet.
  std::size_t packet_size = 4096;
  // Cap on the default packet pool; a packet is carved on first demand.
  std::size_t npackets = 8192;
  std::size_t matching_engine_buckets = 65536;
  // VCI-style device sharding (paper Sec. 4.2): each device owns this many
  // internal shards, each with its own fabric endpoint (wire mailbox + CQ +
  // send locks), pre-posted receives, and aggregation slots. Outgoing traffic
  // is routed to a shard by the calling thread's pin (pin_thread_shard) or,
  // unpinned, by a hash of (rank, tag) — either way a (thread, rank, tag)
  // stream stays on one shard, so per-key FIFO matching is unaffected. The
  // packet pool and the matching engine are shared by all shards and are
  // the same at every shard count. 1 (default): one endpoint per device.
  // Defaults to LCI_DEVICE_SHARDS when set.
  std::size_t device_shards = detail::device_shards_env_default();
  // Advanced (Sec. 3.3.1): deliver incoming active messages in packets
  // instead of malloc'd buffers, saving the copy of the buffer-copy
  // protocol. The handler/queue consumer must return each payload with
  // release_am_packet instead of std::free.
  bool am_deliver_packets = false;
  // Auto-progress engine (see docs/INTERNALS.md "The auto-progress engine"):
  // background threads the runtime owns that call progress() on the devices
  // marked auto-progressed. 0 = caller-driven progress only. The engine
  // starts lazily when the first auto-progressed device is allocated, with
  // max(1, nprogress_threads) threads; devices spread round-robin over them.
  std::size_t nprogress_threads = 0;
  // Service the runtime's default device with the engine.
  bool auto_progress_default = false;
  // Deadline (us) stamped on every internal collective receive; 0 = none.
  // When a member rank dies mid-collective, its direct peers fail with
  // fatal_peer_down, but ranks waiting on live-yet-aborted peers would wait
  // forever — the deadline turns those waits into fatal_timeout, so the
  // collective terminates with a fatal code at every member rank.
  uint64_t collective_deadline_us = 0;
  // Eager-message coalescing (docs/INTERNALS.md "Message coalescing"). Off by
  // default: every eager message is its own wire message. When on (or
  // per-post via post_*_x(...).allow_aggregation(true)), eager sends and AMs
  // of at most 256 bytes append into a per-(device, peer) slot and travel as
  // one eager_batch wire message, flushed when the slot holds a packet's
  // payload or 64 messages, when progress() finds it older than
  // aggregation_flush_us, on explicit flush(), or whenever a non-aggregated
  // message to the same peer must not overtake it (the matching-order rule).
  // Single-poster bypass: while only one thread has ever posted eager traffic
  // to a device, runtime-default aggregation is skipped and messages go out
  // individually — buffering cannot help a lone poster (nobody shares the
  // wire) and the flush-age wait only adds latency. The first post from a
  // second thread permanently re-enables coalescing on that device. Explicit
  // per-post .allow_aggregation(true) always coalesces regardless. No post
  // waits for a slot: one that finds another thread in it returns
  // retry_lock before copying anything, and so does a non-aggregated post
  // that must flush a busy slot first.
  bool allow_aggregation = false;
  uint64_t aggregation_flush_us = 100;
  // Operation-lifecycle tracing (docs/INTERNALS.md "Tracing"): the runtime
  // retains the process-global tracer while it lives. Zero-cost when false
  // (one relaxed load behind every instrumentation point). The first traced
  // runtime of a session installs ring capacity (events per thread, rounded
  // up to a power of two) and the sampling rate (trace 1 op in N; wire and
  // slot spans sample independently). Defaults come from LCI_TRACE /
  // LCI_TRACE_RING / LCI_TRACE_SAMPLE.
  bool trace = detail::trace_env_default();
  std::size_t trace_ring_size = detail::trace_env_ring();
  uint32_t trace_sample = detail::trace_env_sample();
};

// ---------------------------------------------------------------------------
// Runtime lifecycle (Sec. 3.2.2)
// ---------------------------------------------------------------------------

// Allocates / frees the calling rank's global default runtime. Nested init
// calls are reference counted.
runtime_t g_runtime_init(const runtime_attr_t& attr = {});
void g_runtime_fina();
runtime_t get_g_runtime();

// Additional runtime objects (library composition).
runtime_t alloc_runtime(const runtime_attr_t& attr = {});
void free_runtime(runtime_t* runtime);

// OFF variant: alloc_runtime_x().nprogress_threads(2).auto_progress(true)()
// allocates a runtime whose default device is serviced by two background
// progress threads.
class alloc_runtime_x {
 public:
  alloc_runtime_x() = default;
  alloc_runtime_x& attr(const runtime_attr_t& v) { attr_ = v; return *this; }
  alloc_runtime_x& nprogress_threads(std::size_t v) {
    attr_.nprogress_threads = v;
    return *this;
  }
  // Auto-progress the runtime's default device.
  alloc_runtime_x& auto_progress(bool v) {
    attr_.auto_progress_default = v;
    return *this;
  }
  // Default eager-message coalescing policy for the runtime's devices.
  alloc_runtime_x& allow_aggregation(bool v) {
    attr_.allow_aggregation = v;
    return *this;
  }
  // Shards per device (runtime_attr_t::device_shards).
  alloc_runtime_x& device_shards(std::size_t v) {
    attr_.device_shards = v;
    return *this;
  }
  // Network backend (runtime_attr_t::backend).
  alloc_runtime_x& backend(net::backend_t v) {
    attr_.backend = v;
    return *this;
  }
  // Registration-cache capacity (runtime_attr_t::reg_cache_entries).
  alloc_runtime_x& reg_cache_entries(std::size_t v) {
    attr_.reg_cache_entries = v;
    return *this;
  }
  // Heartbeat liveness timeout (runtime_attr_t::peer_timeout_us).
  alloc_runtime_x& peer_timeout_us(uint64_t v) {
    attr_.peer_timeout_us = v;
    return *this;
  }
  // Operation-lifecycle tracing (runtime_attr_t::trace and friends).
  alloc_runtime_x& trace(bool v) {
    attr_.trace = v;
    return *this;
  }
  alloc_runtime_x& trace_ring_size(std::size_t v) {
    attr_.trace_ring_size = v;
    return *this;
  }
  alloc_runtime_x& trace_sample(uint32_t v) {
    attr_.trace_sample = v;
    return *this;
  }
  runtime_t operator()() const { return alloc_runtime(attr_); }

 private:
  runtime_attr_t attr_{};
};

// Quiescence control for the auto-progress engine (no-ops when the runtime
// has none). progress_pause blocks until every engine thread is parked
// outside progress() — after it returns, no engine thread touches any device
// until progress_resume. Explicit progress() stays legal while paused (and is
// how in-flight traffic can still drain during a pause).
void progress_pause(runtime_t runtime = {});
void progress_resume(runtime_t runtime = {});

int get_rank_me(runtime_t runtime = {});
int get_rank_n(runtime_t runtime = {});

// Statistics (protocol mix, retry reasons, backlog traffic); see
// counters.hpp for field meanings.
counters_t get_counters(runtime_t runtime = {});
void reset_counters(runtime_t runtime = {});

// Fault-injection attributes: the policy the runtime's fabric was created
// with (all-zero when injection is off). Configure it through the
// net::config_t handed to sim::spawn / sim::world_t.
net::fault_config_t get_fault_config(runtime_t runtime = {});

// ---------------------------------------------------------------------------
// Failure lifecycle: cancellation, deadlines, peer death, drain
// ---------------------------------------------------------------------------

// Terminates a still-parked operation: a posted receive is pulled back out of
// the matching engine, a backlogged operation is retired before it re-runs, a
// pending rendezvous handshake is torn down. On success the operation
// completes exactly once with fatal_canceled (through its completion object
// if it has one; an operation posted without one just disappears) and cancel
// returns true. Returns false when the runtime no longer owns the operation —
// it already matched, completed, timed out, or is mid-flight — in which case
// the operation completes (or completed) through its normal path.
bool cancel(op_t op);

// Test hook: kills `rank` fabric-wide, as if its kill schedule had fired.
// Every in-flight and subsequently posted operation naming it completes with
// fatal_peer_down. On sim and shm the kill is immediate (shared state). On
// tcp a remote kill travels as a poison control frame: the victim shuts its
// transport down on receipt so every peer observes the death organically; a
// wedged victim that never reads it is covered by a local fallback deadline
// (max(peer_timeout_us, 1s)) at the calling rank, so true means "the kill is
// on its way", not "the rank is dead yet". Returns false if the rank was
// already dead (or the backend cannot kill).
bool kill_peer(int rank, runtime_t runtime = {});

// Quiesces a device for graceful teardown: progresses it until its backlog is
// empty and nothing is moving, or `timeout_us` elapses — then force-cancels
// whatever is still parked on it (backlog entries, tracked receives and
// rendezvous handshakes with handles/deadlines, and this runtime's pending
// rendezvous state). Killed operations complete with fatal_canceled. Returns
// the number of operations it had to kill (0 = clean quiesce).
std::size_t drain(device_t device = {}, uint64_t timeout_us = 0,
                  runtime_t runtime = {});

// Forces every armed aggregation slot on `device` (or only the slots for
// `rank`, when rank >= 0) to post its eager_batch now instead of waiting for
// a size/age trigger. Returns the number of batches posted. When a post hits
// transient back-pressure, flush retries internally (interleaving progress()
// so local completions keep draining) until every targeted batch is on the
// wire or has failed fatally — after flush returns, no targeted slot is still
// armed. Blocking bound: a transient retry clears as soon as the fabric
// accepts the message and no other thread is in the slot, so flush blocks
// at most until the peer drains enough of its inbound wire mailbox (or dies,
// which aborts the batch with fatal_peer_down) and the other posters leave
// the slot; it never waits on remote matching or completion.
// A no-op (returns 0) when nothing is buffered.
std::size_t flush(device_t device = {}, int rank = -1, runtime_t runtime = {});

// Thread-affinity shard routing (paper Sec. 4.2). Pins the calling thread to
// shard `shard` of every sharded device: its posts (and their coalescing
// slots) use that shard's fabric endpoint, giving a thread private send
// resources without any global coordination. The pin is a process-wide TLS
// hint applied modulo each device's shard count; a negative value unpins
// (routing falls back to the (rank, tag) hash). Pinning is purely a placement
// hint — matching is runtime-wide, so correctness never depends on it.
void pin_thread_shard(int shard);
// The calling thread's current pin (-1 = unpinned).
int get_thread_shard();

// ---------------------------------------------------------------------------
// Resources (Sec. 3.2.3, 4.1)
// ---------------------------------------------------------------------------

device_t alloc_device(runtime_t runtime = {});
void free_device(device_t* device);

matching_engine_t alloc_matching_engine(runtime_t runtime = {},
                                        std::size_t num_buckets = 0);
void free_matching_engine(matching_engine_t* engine);

packet_pool_t alloc_packet_pool(runtime_t runtime = {},
                                std::size_t npackets = 0,
                                std::size_t packet_size = 0);
void free_packet_pool(packet_pool_t* pool);

// Completion objects (Sec. 3.2.5): handler, queue, synchronizer, graph.
using handler_fn_t = std::function<void(const status_t&)>;
comp_t alloc_handler(handler_fn_t fn, runtime_t runtime = {});
// A 65536-entry LCRQ; alloc_cq_x picks the implementation and capacity.
comp_t alloc_cq(runtime_t runtime = {});
comp_t alloc_sync(std::size_t threshold = 1, runtime_t runtime = {});
void free_comp(comp_t* comp);

// ---------------------------------------------------------------------------
// OFF variants of the allocation functions (Sec. 3.1: every LCI function has
// an `_x` form) and resource-attribute queries (Sec. 3.2.3: attributes can be
// set at allocation and queried afterward).
// ---------------------------------------------------------------------------

class alloc_device_x {
 public:
  alloc_device_x() = default;
  alloc_device_x& runtime(runtime_t v) { runtime_ = v; return *this; }
  // Hand this device to the runtime's auto-progress engine (started lazily
  // with max(1, runtime_attr_t::nprogress_threads) threads). Explicit
  // progress() on the device remains legal alongside.
  alloc_device_x& auto_progress(bool v) { auto_progress_ = v; return *this; }
  device_t operator()() const;

 private:
  runtime_t runtime_{};
  bool auto_progress_ = false;
};

// Picks the queue implementation of each of the CQ's lanes, one per
// signaling thread (Sec. 4.1.4: an LCRQ-style chain of rings or one bounded
// array ring), and the array's capacity per lane (0 = 65536).
class alloc_cq_x {
 public:
  alloc_cq_x() = default;
  alloc_cq_x& runtime(runtime_t v) { runtime_ = v; return *this; }
  alloc_cq_x& type(cq_type_t v) { type_ = v; return *this; }
  alloc_cq_x& capacity(std::size_t v) { capacity_ = v; return *this; }
  comp_t operator()() const;

 private:
  runtime_t runtime_{};
  cq_type_t type_ = cq_type_t::lcrq;
  std::size_t capacity_ = 0;
};

class alloc_sync_x {
 public:
  alloc_sync_x() = default;
  alloc_sync_x& runtime(runtime_t v) { runtime_ = v; return *this; }
  alloc_sync_x& threshold(std::size_t v) { threshold_ = v; return *this; }
  comp_t operator()() const;

 private:
  runtime_t runtime_{};
  std::size_t threshold_ = 1;
};

// User-supplied matching-key derivation (Sec. 3.3.2: "users can also achieve
// more flexible matching policies by supplying their own make_key function").
using make_key_fn_t =
    std::function<uint64_t(int rank, tag_t tag, matching_policy_t policy)>;

class alloc_matching_engine_x {
 public:
  alloc_matching_engine_x() = default;
  alloc_matching_engine_x& runtime(runtime_t v) { runtime_ = v; return *this; }
  alloc_matching_engine_x& num_buckets(std::size_t v) {
    num_buckets_ = v;
    return *this;
  }
  alloc_matching_engine_x& make_key(make_key_fn_t v) {
    make_key_ = std::move(v);
    return *this;
  }
  matching_engine_t operator()() const;

 private:
  runtime_t runtime_{};
  std::size_t num_buckets_ = 0;
  make_key_fn_t make_key_;
};

class alloc_packet_pool_x {
 public:
  alloc_packet_pool_x() = default;
  alloc_packet_pool_x& runtime(runtime_t v) { runtime_ = v; return *this; }
  alloc_packet_pool_x& npackets(std::size_t v) { npackets_ = v; return *this; }
  alloc_packet_pool_x& packet_size(std::size_t v) {
    packet_size_ = v;
    return *this;
  }
  packet_pool_t operator()() const;

 private:
  runtime_t runtime_{};
  std::size_t npackets_ = 0;
  std::size_t packet_size_ = 0;
};

// Attribute snapshots, queried with get_attr overloads.
struct device_attr_t {
  // Pre-posted receive budget, over all shards: min(128, npackets / 2).
  std::size_t prepost_depth = 0;
  int net_index = -1;           // routing index of shard 0 within the context
  std::size_t device_shards = 0;  // internal shards (fabric endpoints)
  std::size_t backlog_size = 0; // queued backlog operations (approximate)
  uint64_t injected_faults = 0; // forced retries, summed over the shards
  bool auto_progress = false;   // serviced by the runtime's progress engine
  uint64_t doorbell_rings = 0;  // wakeup-hint rings observed on this device
  uint64_t wire_dropped = 0;    // evaporated wire messages, summed over shards
  std::vector<int> dead_peers;  // ranks this device knows to be dead
  // Eager-message coalescing policy of this device (runtime attrs).
  bool allow_aggregation = false;
  uint64_t aggregation_flush_us = 0;
  // CQEs drained per progress() poll: the fabric's poll_burst clamped to
  // [1, 64].
  std::size_t cq_poll_burst = 0;
};
struct matching_engine_attr_t {
  std::size_t num_buckets = 0;
  uint16_t id = 0;
  std::size_t entries = 0;  // queued sends+recvs (O(buckets) to compute)
};
struct packet_pool_attr_t {
  std::size_t npackets = 0;
  std::size_t packet_size = 0;   // payload capacity
  std::size_t pooled = 0;  // in deques or not yet carved (approximate)
};
struct comp_attr_t {
  enum class kind_t { handler, cq, sync, other } kind = kind_t::other;
  cq_type_t cq_type = cq_type_t::lcrq;  // valid when kind == cq
  std::size_t sync_threshold = 0;       // valid when kind == sync
};

runtime_attr_t get_attr(runtime_t runtime);
device_attr_t get_attr(device_t device);
matching_engine_attr_t get_attr(matching_engine_t engine);
packet_pool_attr_t get_attr(packet_pool_t pool);
comp_attr_t get_attr(comp_t comp);

// Completion queue operations. cq_pop returns a status whose error is `done`
// (an entry was popped) or `retry` (empty).
status_t cq_pop(comp_t cq);

// Synchronizer operations. sync_test returns true when the synchronizer has
// received `threshold` signals; it then atomically resets and copies the
// signaled statuses into `out` (may be null). sync_wait spins (making
// progress on the runtime's default device) until ready.
bool sync_test(comp_t sync, status_t* out);
void sync_wait(comp_t sync, status_t* out);

// Manually signal a completion object (also how LCI itself signals them).
void comp_signal(comp_t comp, const status_t& status);

// Remote completion registry (Sec. 3.2.3).
rcomp_t register_rcomp(comp_t comp, runtime_t runtime = {});
void deregister_rcomp(rcomp_t rcomp, runtime_t runtime = {});

// Memory registration (Sec. 3.3.1): optional for local buffers, mandatory
// for buffers accessed remotely by put/get.
mr_t register_memory(void* base, std::size_t size, runtime_t runtime = {});
void deregister_memory(mr_t* mr);
rmr_t get_rmr(mr_t mr);

// ---------------------------------------------------------------------------
// Advanced packet interface (Sec. 3.3.1): assemble messages directly in
// pre-registered packets to save the buffer-copy protocol's memory copy.
// ---------------------------------------------------------------------------

// A user-held packet. `address` points at the message payload area
// (`capacity` bytes, header space already reserved in front).
struct packet_handle_t {
  void* address = nullptr;
  std::size_t capacity = 0;
  bool is_valid() const { return address != nullptr; }
};

// Pops a packet from the pool (the runtime's default pool unless one is
// given). Invalid handle on exhaustion (the caller retries, like
// retry_nopacket). Assemble the message at `address` and post it with
// post_*_x(...).from_packet(true), passing `address` as the local buffer —
// the post consumes the packet. An unused packet goes back with put_packet.
packet_handle_t get_packet(runtime_t runtime = {}, packet_pool_t pool = {});
void put_packet(packet_handle_t packet);

// Returns an AM payload delivered in a packet (am_deliver_packets mode) to
// its pool; the analogue of std::free for malloc'd deliveries.
void release_am_packet(const status_t& status);

// ---------------------------------------------------------------------------
// Completion graph (Sec. 3.2.5)
// ---------------------------------------------------------------------------
//
// A graph node holds either a user function or a communication-posting
// closure. The closure returns a status: `done` completes the node
// immediately; `posted` completes it when the operation it posted signals the
// node (pass graph_node_comp(graph, node) as the operation's completion
// object); `retry` re-runs the node on the next graph_progress/graph_test.
// If u precedes v, v starts only after u completes.

using graph_fn_t = std::function<status_t()>;

graph_t alloc_graph(runtime_t runtime = {});
void free_graph(graph_t* graph);
graph_node_t graph_add_node(graph_t graph, graph_fn_t fn);
void graph_add_edge(graph_t graph, graph_node_t from, graph_node_t to);
comp_t graph_node_comp(graph_t graph, graph_node_t node);
void graph_start(graph_t graph);
// Returns true when every node has completed. Re-runs retry nodes.
bool graph_test(graph_t graph);

// ---------------------------------------------------------------------------
// Communication posting (Sec. 3.2.4) — OFF objects
// ---------------------------------------------------------------------------

namespace detail {

// Aggregate of every argument post_comm understands; the OFF functors are
// thin builders over it.
struct post_args_t {
  // positional
  int rank = -1;
  void* local_buffer = nullptr;
  std::size_t size = 0;
  comp_t local_comp{};
  // optional
  direction_t direction = direction_t::out;
  tag_t tag = 0;
  rmr_t remote_buffer{};              // engaged => RMA
  std::size_t remote_offset = 0;
  rcomp_t remote_comp = rcomp_null;   // engaged => notification at target
  runtime_t runtime{};
  device_t device{};
  matching_engine_t matching_engine{};
  packet_pool_t packet_pool{};
  matching_policy_t matching_policy = matching_policy_t::rank_tag;
  bool allow_retry = true;            // false: queue on the backlog instead
  bool allow_done = true;             // false: force signaling the comp
  void* user_context = nullptr;
  const buffers_t* buffers = nullptr; // engaged => buffer-list operation
  bool from_packet = false;           // local_buffer is a get_packet address
  // Failure lifecycle: relative deadline (0 = none) after which the deadline
  // sweep completes the operation with fatal_timeout if it is still parked
  // (receive unmatched, backlog entry unexecuted, rendezvous handshake
  // unanswered, aggregation-slot entry unflushed); and an optional out-param
  // receiving a cancel() handle.
  uint64_t deadline_us = 0;
  op_t* out_op = nullptr;
  // Eager-message coalescing override: -1 = inherit the runtime attr,
  // 0/1 = force off/on for this post.
  int8_t aggregation = -1;
};

status_t post_comm_impl(const post_args_t& args);

}  // namespace detail

// Shared setter block for all posting OFFs. Each setter returns *this so the
// arguments chain in any order; the trailing () executes (Listing 1).
#define LCI_OFF_COMM_SETTERS(class_name)                                      \
  class_name& direction(direction_t v) { args_.direction = v; return *this; } \
  class_name& tag(tag_t v) { args_.tag = v; return *this; }                   \
  class_name& remote_buffer(rmr_t v, std::size_t offset = 0) {                \
    args_.remote_buffer = v;                                                  \
    args_.remote_offset = offset;                                             \
    return *this;                                                             \
  }                                                                           \
  class_name& remote_comp(rcomp_t v) { args_.remote_comp = v; return *this; } \
  class_name& runtime(runtime_t v) { args_.runtime = v; return *this; }       \
  class_name& device(device_t v) { args_.device = v; return *this; }          \
  class_name& matching_engine(matching_engine_t v) {                          \
    args_.matching_engine = v;                                                \
    return *this;                                                             \
  }                                                                           \
  class_name& packet_pool(packet_pool_t v) {                                  \
    args_.packet_pool = v;                                                    \
    return *this;                                                             \
  }                                                                           \
  class_name& matching_policy(matching_policy_t v) {                          \
    args_.matching_policy = v;                                                \
    return *this;                                                             \
  }                                                                           \
  class_name& allow_retry(bool v) { args_.allow_retry = v; return *this; }    \
  class_name& allow_done(bool v) { args_.allow_done = v; return *this; }      \
  class_name& user_context(void* v) { args_.user_context = v; return *this; } \
  class_name& buffers(const buffers_t& v) { args_.buffers = &v; return *this; } \
  class_name& from_packet(bool v) { args_.from_packet = v; return *this; }     \
  class_name& deadline(uint64_t us) { args_.deadline_us = us; return *this; }  \
  class_name& op_handle(op_t* v) { args_.out_op = v; return *this; }           \
  class_name& allow_aggregation(bool v) {                                      \
    args_.aggregation = v ? 1 : 0;                                             \
    return *this;                                                              \
  }                                                                            \
  status_t operator()() const { return detail::post_comm_impl(args_); }

class post_comm_x {
 public:
  post_comm_x(int rank, void* local_buffer, std::size_t size,
              comp_t local_comp) {
    args_.rank = rank;
    args_.local_buffer = local_buffer;
    args_.size = size;
    args_.local_comp = local_comp;
  }
  LCI_OFF_COMM_SETTERS(post_comm_x)
 private:
  detail::post_args_t args_;
};

class post_send_x {
 public:
  post_send_x(int rank, void* buffer, std::size_t size, tag_t tag,
              comp_t comp) {
    args_.rank = rank;
    args_.local_buffer = buffer;
    args_.size = size;
    args_.tag = tag;
    args_.local_comp = comp;
    args_.direction = direction_t::out;
  }
  LCI_OFF_COMM_SETTERS(post_send_x)
 private:
  detail::post_args_t args_;
};

class post_recv_x {
 public:
  post_recv_x(int rank, void* buffer, std::size_t size, tag_t tag,
              comp_t comp) {
    args_.rank = rank;
    args_.local_buffer = buffer;
    args_.size = size;
    args_.tag = tag;
    args_.local_comp = comp;
    args_.direction = direction_t::in;
  }
  LCI_OFF_COMM_SETTERS(post_recv_x)
 private:
  detail::post_args_t args_;
};

class post_am_x {
 public:
  post_am_x(int rank, void* buffer, std::size_t size, comp_t local_comp,
            rcomp_t remote_comp) {
    args_.rank = rank;
    args_.local_buffer = buffer;
    args_.size = size;
    args_.local_comp = local_comp;
    args_.remote_comp = remote_comp;
    args_.direction = direction_t::out;
  }
  LCI_OFF_COMM_SETTERS(post_am_x)
 private:
  detail::post_args_t args_;
};

class post_put_x {
 public:
  post_put_x(int rank, void* buffer, std::size_t size, comp_t comp,
             rmr_t remote_buffer, std::size_t remote_offset = 0) {
    args_.rank = rank;
    args_.local_buffer = buffer;
    args_.size = size;
    args_.local_comp = comp;
    args_.remote_buffer = remote_buffer;
    args_.remote_offset = remote_offset;
    args_.direction = direction_t::out;
  }
  LCI_OFF_COMM_SETTERS(post_put_x)
 private:
  detail::post_args_t args_;
};

class post_get_x {
 public:
  post_get_x(int rank, void* buffer, std::size_t size, comp_t comp,
             rmr_t remote_buffer, std::size_t remote_offset = 0) {
    args_.rank = rank;
    args_.local_buffer = buffer;
    args_.size = size;
    args_.local_comp = comp;
    args_.remote_buffer = remote_buffer;
    args_.remote_offset = remote_offset;
    args_.direction = direction_t::in;
  }
  LCI_OFF_COMM_SETTERS(post_get_x)
 private:
  detail::post_args_t args_;
};

#undef LCI_OFF_COMM_SETTERS

// Standard (positional-only) forms.
inline status_t post_comm(int rank, void* buffer, std::size_t size,
                          comp_t comp) {
  return post_comm_x(rank, buffer, size, comp)();
}
inline status_t post_send(int rank, void* buffer, std::size_t size, tag_t tag,
                          comp_t comp) {
  return post_send_x(rank, buffer, size, tag, comp)();
}
inline status_t post_recv(int rank, void* buffer, std::size_t size, tag_t tag,
                          comp_t comp) {
  return post_recv_x(rank, buffer, size, tag, comp)();
}
inline status_t post_am(int rank, void* buffer, std::size_t size,
                        comp_t local_comp, rcomp_t remote_comp) {
  return post_am_x(rank, buffer, size, local_comp, remote_comp)();
}
inline status_t post_put(int rank, void* buffer, std::size_t size, comp_t comp,
                         rmr_t remote_buffer, std::size_t remote_offset = 0) {
  return post_put_x(rank, buffer, size, comp, remote_buffer, remote_offset)();
}
inline status_t post_get(int rank, void* buffer, std::size_t size, comp_t comp,
                         rmr_t remote_buffer, std::size_t remote_offset = 0) {
  return post_get_x(rank, buffer, size, comp, remote_buffer, remote_offset)();
}

// ---------------------------------------------------------------------------
// Progress (Sec. 3.2.6)
// ---------------------------------------------------------------------------

namespace detail {
bool progress_impl(runtime_t runtime, device_t device);
}

class progress_x {
 public:
  progress_x() = default;
  progress_x& runtime(runtime_t v) { runtime_ = v; return *this; }
  progress_x& device(device_t v) { device_ = v; return *this; }
  // Returns true when the call made progress (delivered, matched, signaled,
  // retried, or replenished anything).
  bool operator()() const { return detail::progress_impl(runtime_, device_); }
 private:
  runtime_t runtime_{};
  device_t device_{};
};

inline bool progress() { return progress_x()(); }

// ---------------------------------------------------------------------------
// Collectives (Sec. 6: dissemination barrier, tree broadcast / reduce).
// Blocking; call from exactly one thread per rank per collective. Internally
// they use a dedicated matching engine so user traffic cannot interfere.
// ---------------------------------------------------------------------------

void barrier(runtime_t runtime = {}, device_t device = {});
void broadcast(void* buffer, std::size_t size, int root,
               runtime_t runtime = {}, device_t device = {});
using reduce_fn_t = void (*)(void* accumulator, const void* contribution,
                             std::size_t size);
void reduce(const void* sendbuf, void* recvbuf, std::size_t size,
            reduce_fn_t op, int root, runtime_t runtime = {},
            device_t device = {});
// Compositions (reduce-then-broadcast / gather-then-broadcast), provided as
// conveniences over the three primitives above.
void allreduce(const void* sendbuf, void* recvbuf, std::size_t size,
               reduce_fn_t op, runtime_t runtime = {}, device_t device = {});
// Gathers `size` bytes from every rank into recvbuf[rank*size ...].
void allgather(const void* sendbuf, void* recvbuf, std::size_t size,
               runtime_t runtime = {}, device_t device = {});

// Nonblocking barrier expressed as a completion graph (the usage Sec. 3.2.5
// highlights): every dissemination round is a pair of graph nodes — a send
// and a receive — with the ordering edges of the algorithm. Drive it with
// graph_start / graph_test (+ progress); free it with free_graph when done.
graph_t alloc_barrier_graph(runtime_t runtime = {}, device_t device = {});

// ---------------------------------------------------------------------------
// Simulated multi-rank bootstrap (see DESIGN.md: substitution for PMI).
// ---------------------------------------------------------------------------

namespace sim {

namespace detail_sim {
struct rank_ctx_t;
}
using binding_t = std::shared_ptr<detail_sim::rank_ctx_t>;

// A world is a set of ranks connected by one simulated fabric.
class world_t {
 public:
  explicit world_t(int nranks, const net::config_t& config = {});
  ~world_t();
  world_t(const world_t&) = delete;
  world_t& operator=(const world_t&) = delete;

  int nranks() const;
  binding_t binding(int rank) const;

 private:
  struct impl_t;
  std::unique_ptr<impl_t> impl_;
};

// Thread-local rank binding. A bound thread acts as a member of that rank:
// g_runtime_init/alloc_runtime/etc. operate on the bound rank. Threads
// spawned by the application must be bound (copy the parent's binding).
void bind(binding_t binding);
binding_t current_binding();

class scoped_binding_t {
 public:
  explicit scoped_binding_t(binding_t binding)
      : previous_(current_binding()) {
    bind(std::move(binding));
  }
  ~scoped_binding_t() { bind(std::move(previous_)); }
  scoped_binding_t(const scoped_binding_t&) = delete;
  scoped_binding_t& operator=(const scoped_binding_t&) = delete;

 private:
  binding_t previous_;
};

// Creates a world of `nranks` ranks and runs fn(rank) on one thread per rank,
// each bound to its rank; joins them all before returning. Exceptions thrown
// by any rank are rethrown (the first one) after joining.
void spawn(int nranks, const std::function<void(int rank)>& fn,
           const net::config_t& config = {});

}  // namespace sim
}  // namespace lci
