// Operation-lifecycle tracing and latency histograms.
//
// An always-compiled, runtime-gated tracing layer: every stage boundary of a
// message's life (post, backlog park/retire, coalesce buffer/flush, wire
// push/deliver, match, rendezvous RTS/RTR/FIN, completion — including fatal
// completions) can emit a fixed-size event into a per-thread lock-free ring,
// and post-to-completion / progress-poll latencies feed log2-bucketed
// histograms sharded per thread like counter_block_t.
//
// Design constraints, in order:
//  1. Zero-cost when off. Every record helper starts with a single relaxed
//     load of an inline atomic (`on()`); span ends additionally short-circuit
//     on span.id == 0 without touching any atomic. Nothing else happens.
//  2. No link dependency. The simulated fabric (lci_net) instruments wire
//     push/deliver but does not link the core library, so the entire
//     recording path is header-inline; only snapshotting/exporting lives in
//     trace.cpp (core).
//  3. TSan-clean when on. Ring slots are seqlock-published but every word is
//     a std::atomic, so a concurrent snapshot never performs a non-atomic
//     racy read; torn slots are detected via the per-generation sequence
//     number and dropped from the snapshot.
//
// The tracer is process-global, not per-runtime: a wire message crosses
// runtimes (simulated ranks live in one process), so spans must share one id
// space and one clock. Runtimes allocated with alloc_runtime_x().trace(true)
// retain/release a global enable refcount; the first retain installs ring
// size and sampling.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/cacheline.hpp"
#include "util/mpmc_array.hpp"
#include "util/spinlock.hpp"
#include "util/thread.hpp"

namespace lci::trace {

// Span/event taxonomy. Op-lifecycle spans (post + the op kinds) share one op
// id across all their events, so a Chrome trace nests the post call, backlog
// residency and wire hops under the op they belong to.
enum class kind_t : uint8_t {
  post,        // span: duration of the user's post_* call
  op_eager,    // span: post -> completion, eager (inject/bcopy) path
  op_batch,    // span: post -> completion, coalesced (eager_batch) sub-op
  op_rdv,      // span: post -> completion, rendezvous send
  op_recv,     // span: recv post -> completion (eager, batch or rendezvous)
  backlog,     // span: backlog park -> retire
  batch_slot,  // span: aggregation slot armed -> flushed/aborted
  wire,        // span: fabric wire push -> delivery (or drop)
  engine_sleep,  // span: auto-progress worker doorbell sleep -> wakeup
  coalesce,    // instant: sub-message appended into an aggregation slot
  match,       // instant: send/recv matched in a matching engine
  rts,         // instant: rendezvous RTS posted (send side)
  rtr,         // instant: rendezvous RTR posted (recv side)
  fin,         // instant: rendezvous FIN immediate observed (recv side)
  count_
};

enum class phase_t : uint8_t { begin = 0, end = 1, instant = 2 };

// Latency histogram kinds: post-to-completion per op family, plus the
// duration of individual progress polls.
enum class hist_t : uint8_t {
  post_eager,
  post_batch,
  post_rdv,
  post_recv,
  progress_poll,
  count_
};

inline const char* to_string(kind_t kind) noexcept {
  switch (kind) {
    case kind_t::post:
      return "post";
    case kind_t::op_eager:
      return "eager";
    case kind_t::op_batch:
      return "eager_batch";
    case kind_t::op_rdv:
      return "rendezvous";
    case kind_t::op_recv:
      return "recv";
    case kind_t::backlog:
      return "backlog";
    case kind_t::batch_slot:
      return "batch_slot";
    case kind_t::wire:
      return "wire";
    case kind_t::engine_sleep:
      return "engine_sleep";
    case kind_t::coalesce:
      return "coalesce_append";
    case kind_t::match:
      return "match";
    case kind_t::rts:
      return "rts";
    case kind_t::rtr:
      return "rtr";
    case kind_t::fin:
      return "fin";
    default:
      return "?";
  }
}

inline const char* to_string(hist_t hist) noexcept {
  switch (hist) {
    case hist_t::post_eager:
      return "post_eager";
    case hist_t::post_batch:
      return "post_batch";
    case hist_t::post_rdv:
      return "post_rdv";
    case hist_t::post_recv:
      return "post_recv";
    case hist_t::progress_poll:
      return "progress_poll";
    default:
      return "?";
  }
}

// A live span handle carried inside op state (records, pending-table
// entries, backlog entries). id == 0 means "not traced" (tracing off or the
// op was sampled out); all downstream record sites check it first.
struct span_t {
  uint64_t id = 0;
  uint64_t begin_ns = 0;
  explicit operator bool() const noexcept { return id != 0; }
};

namespace detail {

inline std::atomic<bool> g_on{false};       // the hot-path gate
inline std::atomic<int> g_refs{0};          // runtimes holding tracing open
inline std::atomic<uint32_t> g_sample{1};   // record 1 op in N per thread
inline std::atomic<uint64_t> g_next_id{0};  // op ids; 0 is reserved
inline std::atomic<uint64_t> g_gen{1};      // bumped by configure/reset
inline std::atomic<std::size_t> g_ring_cap{1u << 14};  // slots, power of two

constexpr std::size_t hist_buckets = 64;

// One 40-byte seqlock slot per event. All words atomic: a snapshot racing
// the owning writer reads garbage-free values and uses the per-generation
// sequence (index*2+2 when slot i's generation is published) to reject
// in-progress or overwritten slots.
struct slot_t {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> w[4];
};

// Per-thread state: an SPSC event ring (this thread is the only producer;
// snapshots are the racy consumers) plus this thread's histogram cells.
// States are registered in a global mpmc_array keyed by util::thread_id(),
// exactly like counter_block_t's cell blocks; a generation bump (reconfigure
// or trace_reset) retires a state in place — it stays allocated for any
// concurrent writer but becomes invisible to snapshots, and the thread
// lazily allocates a fresh one on its next event.
struct thread_state_t {
  thread_state_t(std::size_t tid_in, std::size_t capacity, uint64_t gen_in)
      : tid(static_cast<uint32_t>(tid_in)),
        gen(gen_in),
        mask(capacity - 1),
        slots(new slot_t[capacity]) {
    for (auto& cell : hist_cells) cell.store(0, std::memory_order_relaxed);
    for (auto& cell : hist_max) cell.store(0, std::memory_order_relaxed);
  }

  void record_event(uint64_t ts, uint64_t id, uint64_t w2,
                    uint64_t w3) noexcept {
    const uint64_t h = head.load(std::memory_order_relaxed);
    slot_t& slot = slots[h & mask];
    // Seqlock write: odd marks in-progress. The release fence keeps the
    // odd store ahead of the payload stores, so a reader that observes any
    // new payload word re-reads a sequence != i*2+2 and rejects the slot.
    slot.seq.store(h * 2 + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    slot.w[0].store(ts, std::memory_order_relaxed);
    slot.w[1].store(id, std::memory_order_relaxed);
    slot.w[2].store(w2, std::memory_order_relaxed);
    slot.w[3].store(w3, std::memory_order_relaxed);
    slot.seq.store(h * 2 + 2, std::memory_order_release);
    head.store(h + 1, std::memory_order_release);
  }

  void record_hist(hist_t hist, uint64_t ns) noexcept {
    const std::size_t bucket =
        ns == 0 ? 0
                : std::min<std::size_t>(hist_buckets - 1, std::bit_width(ns));
    auto& cell =
        hist_cells[static_cast<std::size_t>(hist) * hist_buckets + bucket];
    cell.fetch_add(1, std::memory_order_relaxed);
    auto& peak = hist_max[static_cast<std::size_t>(hist)];
    if (ns > peak.load(std::memory_order_relaxed))
      peak.store(ns, std::memory_order_relaxed);
  }

  const uint32_t tid;
  const uint64_t gen;
  const std::size_t mask;
  std::atomic<uint64_t> head{0};  // monotonic next-write index
  std::unique_ptr<slot_t[]> slots;
  alignas(util::cache_line_size) std::atomic<uint64_t>
      hist_cells[static_cast<std::size_t>(hist_t::count_) * hist_buckets];
  std::atomic<uint64_t> hist_max[static_cast<std::size_t>(hist_t::count_)];
};

class registry_t {
 public:
  thread_state_t* acquire(std::size_t tid) {
    const uint64_t gen = g_gen.load(std::memory_order_acquire);
    std::size_t capacity = g_ring_cap.load(std::memory_order_acquire);
    capacity = std::max<std::size_t>(8, std::bit_ceil(capacity));
    auto owned = std::make_unique<thread_state_t>(tid, capacity, gen);
    thread_state_t* state = owned.get();
    {
      std::lock_guard<util::spinlock_t> guard(lock_);
      storage_.push_back(std::move(owned));
    }
    states_.put_extend(tid, state);
    return state;
  }

  // Snapshot-side walk over the latest state of every thread id. States from
  // older generations are retired data and skipped.
  template <typename Fn>
  void for_each_current(Fn&& fn) const {
    const uint64_t gen = g_gen.load(std::memory_order_acquire);
    const std::size_t n = states_.size();
    for (std::size_t i = 0; i < n; ++i) {
      thread_state_t* state = states_.get(i);
      if (state != nullptr && state->gen == gen) fn(state);
    }
  }

 private:
  mutable util::mpmc_array_t<thread_state_t*> states_{64};
  std::vector<std::unique_ptr<thread_state_t>> storage_;  // lock_
  util::spinlock_t lock_;
};

inline registry_t& registry() {
  static registry_t instance;
  return instance;
}

inline thread_state_t* local_state() {
  struct cache_t {
    thread_state_t* state = nullptr;
    uint64_t gen = 0;
  };
  thread_local cache_t cache;
  const uint64_t gen = g_gen.load(std::memory_order_relaxed);
  if (cache.state != nullptr && cache.gen == gen) return cache.state;
  cache.state = registry().acquire(util::thread_id());
  cache.gen = cache.state->gen;
  return cache.state;
}

// The 1-in-N sampling decision (per-thread state so no shared cacheline is
// touched on the sampled-out path). A per-thread xorshift draw, not a fixed
// 1-in-N stride: begin() is called in regular patterns (an eager send loop
// alternates post/wire begins), and a fixed stride phase-locks against such
// patterns so one span kind soaks up every sample while another is never
// picked.
inline bool sample_draw() noexcept {
  const uint32_t n = g_sample.load(std::memory_order_relaxed);
  if (n <= 1) return true;
  thread_local uint64_t rng =
      (util::thread_id() + 1) * 0x9e3779b97f4a7c15ull;
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  return rng % n == 0;
}

// Allocate the next op id, honoring sampling. Returns 0 when the op is
// sampled out; every downstream site skips on id == 0.
inline uint64_t next_id() noexcept {
  if (!sample_draw()) return 0;
  return g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

inline void emit(uint64_t ts, uint64_t id, kind_t kind, phase_t phase,
                 uint8_t err, int rank, uint32_t tag, uint64_t size) {
  const uint64_t w2 = static_cast<uint64_t>(kind) |
                      (static_cast<uint64_t>(phase) << 8) |
                      (static_cast<uint64_t>(err) << 16) |
                      (static_cast<uint64_t>(static_cast<uint32_t>(rank))
                       << 32);
  const uint64_t w3 =
      static_cast<uint64_t>(tag) |
      (std::min<uint64_t>(size, 0xffffffffull) << 32);
  local_state()->record_event(ts, id, w2, w3);
}

}  // namespace detail

// The hot-path gate: one relaxed load. Everything else is behind it.
inline bool on() noexcept {
  return detail::g_on.load(std::memory_order_relaxed);
}

// The sampling gate for per-call costs outside the op-id flow (the
// progress-poll timing pays two clock reads per poll; at spin-loop poll
// rates that dwarfs the polled work, so it honors 1-in-N too).
inline bool sampled() noexcept { return detail::sample_draw(); }

inline uint64_t now_ns() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Reserve a span — a fresh op id and its start time — without recording its
// begin: for a span kept only if the call it times turns out to count (a
// post attempt that returns retry records nothing). Record it later with
// begin_at + end. Null when tracing is off or the op was sampled out.
inline span_t reserve() {
  if (!on()) return {};
  const uint64_t id = detail::next_id();
  if (id == 0) return {};
  return span_t{id, now_ns()};
}

// Open a span with a fresh op id. Returns a null span when tracing is off or
// the op was sampled out.
inline span_t begin(kind_t kind, int rank = -1, uint32_t tag = 0,
                    uint64_t size = 0) {
  const span_t span = reserve();
  if (span)
    detail::emit(span.begin_ns, span.id, kind, phase_t::begin, 0, rank, tag,
                 size);
  return span;
}

// Open a span that shares an existing op's id (e.g. the backlog-residency
// span of an already-traced op). Null when the op itself is untraced.
inline span_t begin_linked(uint64_t id, kind_t kind, int rank = -1,
                           uint32_t tag = 0, uint64_t size = 0) {
  if (id == 0 || !on()) return {};
  span_t span{id, now_ns()};
  detail::emit(span.begin_ns, id, kind, phase_t::begin, 0, rank, tag, size);
  return span;
}

// Open a span sharing `base`'s id AND its begin timestamp: the op-lifecycle
// span of a post whose clock started when the post call did. The begin event
// is emitted retroactively at base.begin_ns (the snapshot sorts by time).
inline span_t begin_at(const span_t& base, kind_t kind, int rank = -1,
                       uint32_t tag = 0, uint64_t size = 0) {
  if (base.id == 0 || !on()) return {};
  detail::emit(base.begin_ns, base.id, kind, phase_t::begin, 0, rank, tag,
               size);
  return base;
}

inline void end(const span_t& span, kind_t kind, uint8_t err = 0,
                int rank = -1, uint32_t tag = 0, uint64_t size = 0) {
  if (span.id == 0 || !on()) return;
  detail::emit(now_ns(), span.id, kind, phase_t::end, err, rank, tag, size);
}

// End an op span and record its latency. Fatal completions (err != 0) emit
// the end event but stay out of the latency histogram: a deadline or peer
// death measures the failure policy, not the path under study.
inline void end_op(const span_t& span, kind_t kind, hist_t hist,
                   uint8_t err = 0, int rank = -1, uint32_t tag = 0,
                   uint64_t size = 0) {
  if (span.id == 0 || !on()) return;
  const uint64_t now = now_ns();
  detail::emit(now, span.id, kind, phase_t::end, err, rank, tag, size);
  if (err == 0 && now >= span.begin_ns)
    detail::local_state()->record_hist(hist, now - span.begin_ns);
}

// Instants annotate an op's track, so an untraced (sampled-out) op skips
// its instants too — every call site passes the op's span id.
inline void instant(kind_t kind, uint64_t id, int rank = -1,
                    uint32_t tag = 0, uint64_t size = 0) {
  if (id == 0 || !on()) return;
  detail::emit(now_ns(), id, kind, phase_t::instant, 0, rank, tag, size);
}

// Record a latency sample directly (progress-poll durations; too frequent
// for ring events).
inline void hist_record(hist_t hist, uint64_t ns) {
  if (!on()) return;
  detail::local_state()->record_hist(hist, ns);
}

// Runtime-lifecycle hooks (trace.cpp): a runtime built with .trace(true)
// retains on construction and releases on destruction; the first retain
// installs ring capacity and sampling.
void retain(std::size_t ring_size, uint32_t sample);
void release();

}  // namespace lci::trace

namespace lci {

// One decoded trace event. Thread id is the dense util::thread_id() of the
// recording thread; `id` groups all events of one op lifecycle (0 for
// instants not attached to a traced op).
struct trace_event_t {
  uint64_t ts_ns = 0;
  uint64_t id = 0;
  trace::kind_t kind = trace::kind_t::post;
  trace::phase_t phase = trace::phase_t::instant;
  uint8_t err = 0;
  uint32_t tid = 0;
  int32_t rank = -1;
  uint32_t tag = 0;
  uint32_t size = 0;
};

struct trace_snapshot_t {
  std::vector<trace_event_t> events;  // sorted by timestamp
  // Events lost to ring wraparound (oldest overwritten) plus the handful of
  // slots skipped because a writer was mid-publish during the snapshot.
  uint64_t trace_dropped = 0;
};

// Merged view of one latency histogram: log2 buckets (bucket i counts
// samples in [2^(i-1), 2^i) ns), count/max exact, percentiles reported at
// bucket resolution (upper bound of the bucket containing the quantile).
struct latency_histogram_t {
  uint64_t count = 0;
  uint64_t max_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  std::array<uint64_t, 64> buckets{};
};

struct histograms_t {
  latency_histogram_t post_eager;
  latency_histogram_t post_batch;
  latency_histogram_t post_rdv;
  latency_histogram_t post_recv;
  latency_histogram_t progress_poll;
};

// Drain every thread's ring into one timestamp-sorted event list. Safe to
// call while traffic is in flight (racing slots are skipped, not torn) but
// meant for quiescent points: after a run, before trace_reset.
trace_snapshot_t trace_snapshot();

// Merge the per-thread histogram cells and compute p50/p99/max.
histograms_t get_histograms();

// Export the current snapshot as Chrome trace_event JSON (load in
// chrome://tracing or https://ui.perfetto.dev). Spans are emitted as async
// begin/end pairs keyed by op id so post->complete pairs render even when
// the two halves ran on different threads. Returns false if the file could
// not be written.
bool trace_dump_json(const std::string& path);

// Discard all recorded events and histogram samples (tests; between bench
// phases). Implemented as a generation bump: per-thread state is lazily
// reallocated, never freed under a concurrent writer.
void trace_reset();

}  // namespace lci
