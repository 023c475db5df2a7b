// lci_perfbench: one workload of the LCI benchmark (see README.md).
//
// Runs a closed-loop workload on the sim fabric through LCI's public API
// (core/lci.hpp): two ranks in this process, every load thread pinned to its
// own core and driving progress itself. Every delivery is verified. The raw
// results are printed as one JSON object on the last line of stdout; run.py
// builds this program and turns that object into the benchmark's metrics.
//
//   lci_perfbench --workload NAME --seed N --seconds S
//                 [--phase warmup|setup|timed] [--trace 0|1]
//                 [--out-dir DIR] [--corrupt-expect 0|1]
//
// Each process runs one world, so set-up is timed cold and the peak resident
// set belongs to one world only. run.py runs the phases in order: a warm-up
// world (`seconds` of traffic, with spinner threads on the cores the workload
// leaves idle), several set-up-only worlds, then the timed worlds. A timed
// world sets up, runs a short unmeasured warm-up, measures `seconds` of
// traffic split into quarter-second windows, drains every accepted message,
// and tears down. Rates and percentiles are taken per window and reported as
// the median over windows, so a burst of host noise does not move a result.
//
// --trace 1 wraps every call into LCI with benchmark-side spans kept in
// per-thread memory: count, sum and a histogram per span kind, plus a bounded
// sample of raw spans written to DIR at exit. The runtime's own tracer
// (LCI_TRACE) stays off in both modes.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/lci.hpp"

namespace {

constexpr int kRanks = 2;
constexpr uint64_t kNsPerSec = 1000000000ull;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// splitmix64: the seeded generator behind payloads, patterns and tags.
uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Log-linear histogram of nanosecond values: 32 linear sub-buckets per power
// of two (~3% wide). Quantiles interpolate inside the bucket, so a percentile
// moves continuously with the data instead of snapping to bucket edges.
// ---------------------------------------------------------------------------
class histogram_t {
 public:
  void add(uint64_t v) {
    ++buckets_[index(v)];
    ++count_;
  }
  void merge(const histogram_t& other) {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }
  double quantile(double q) const {
    if (count_ == 0) return 0;
    const double target = q * static_cast<double>(count_);
    uint64_t below = 0;
    int last = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const uint64_t n = buckets_[i];
      if (n == 0) continue;
      last = i;
      if (static_cast<double>(below + n) >= target) {
        const double frac = (target - static_cast<double>(below)) /
                            static_cast<double>(n);
        return lower(i) + frac * width(i);
      }
      below += n;
    }
    return lower(last) + width(last);
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  static int index(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int e = 63 - __builtin_clzll(v);
    const int sub = static_cast<int>((v >> (e - kSubBits)) & (kSub - 1));
    return (e - kSubBits + 1) * kSub + sub;
  }
  static double lower(int i) {
    if (i < kSub) return i;
    const int e = i / kSub + kSubBits - 1;
    return std::ldexp(static_cast<double>(kSub + i % kSub), e - kSubBits);
  }
  static double width(int i) {
    if (i < kSub) return 1;
    return std::ldexp(1.0, i / kSub - 1);
  }

  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets);
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------
enum class pattern_t { pingpong, stream, bulk };

struct workload_t {
  const char* name;
  pattern_t pattern;
  int threads;             // load threads per rank
  std::size_t shards;      // device_shards of every runtime
  bool aggregation;        // runtime_attr_t::allow_aggregation
};

// Why these four: see README.md.
const workload_t kWorkloads[] = {
    {"pingpong_tag8", pattern_t::pingpong, 1, 1, false},
    {"stream_am8", pattern_t::stream, 2, 2, false},
    {"stream_am8_agg", pattern_t::stream, 2, 1, true},
    {"bulk_tag64k", pattern_t::bulk, 1, 1, false},
};

constexpr uint64_t kStreamCredits = 64;  // in-flight AMs per stream thread
constexpr int kBulkDepth = 8;            // in-flight 64 KiB transfers
constexpr int kMaxPops = 64;             // cq_pop calls per loop iteration
// Measurement window: short enough that a burst of host noise spoils few of
// the windows whose median is reported, long enough for >= 10^4 latency
// samples in each.
constexpr double kWindowSeconds = 0.25;

enum class world_kind_t { warmup, setup_only, timed };

struct options_t {
  const workload_t* workload = nullptr;
  world_kind_t phase = world_kind_t::timed;
  uint64_t seed = 1;
  double seconds = 10;  // measured traffic; the traffic itself for warmup
  bool traced = false;
  bool corrupt_expect = false;
  std::string out_dir = ".";
  double inworld_warm_s = 0.25;  // unmeasured traffic before the windows
  double drain_s = 10;           // bound on the drain after the last window
};

// ---------------------------------------------------------------------------
// Payloads. An 8 B message carries its sender's rank, thread and sequence
// number in clear (the 32-bit sequence number masked by the seed) plus a
// 24-bit seeded check over them, so a wrong payload passes with probability
// 2^-24. A 64 KiB message carries a seeded pattern whose
// page stamps are keyed by the message index (see fill_background).
// ---------------------------------------------------------------------------
class codec_t {
 public:
  explicit codec_t(uint64_t key) : key_(key) {}
  uint64_t encode(int rank, int thread, uint64_t seq) const {
    const uint64_t body = ((seq ^ key_) & kSeqMask) |
                          static_cast<uint64_t>(thread & 15) << 32 |
                          static_cast<uint64_t>(rank & 15) << 36;
    return body | check(body) << 40;
  }
  // Decodes the clear fields; returns whether the check matches.
  bool decode(uint64_t word, int* rank, int* thread, uint64_t* seq) const {
    const uint64_t body = word & ((uint64_t{1} << 40) - 1);
    *rank = static_cast<int>((body >> 36) & 15);
    *thread = static_cast<int>((body >> 32) & 15);
    *seq = (body ^ key_) & kSeqMask;
    return word >> 40 == check(body);
  }
  // A 64 KiB message is a seeded background, fixed per send buffer, with the
  // first word of every 4 KiB page replaced by a stamp keyed by the message
  // index and the page. The sender fills each buffer once and stamps it per
  // message. The receiver checks every stamp, the last word, and one whole
  // page that rotates with the index (every page offset is compared in full
  // every 16 messages): a full compare of each delivery would read 64 KiB
  // written by another core, which on a 4-core VM took ~16 us per message,
  // and the benchmark would time its own checker instead of the transfer.
  void fill_background(uint64_t* words, uint64_t buffer) const {
    const uint64_t base = background_base(buffer);
    for (std::size_t k = 0; k < kBulkWords; ++k) words[k] = base + k * kStep;
  }
  void stamp_bulk(uint64_t* words, uint64_t index) const {
    for (std::size_t p = 0; p < kPages; ++p)
      words[p * kPageWords] = stamp(index, p);
  }
  bool check_bulk(const uint64_t* words, uint64_t buffer,
                  uint64_t index) const {
    const uint64_t base = background_base(buffer);
    uint64_t bad = words[kBulkWords - 1] ^ (base + (kBulkWords - 1) * kStep);
    for (std::size_t p = 0; p < kPages; ++p)
      bad |= words[p * kPageWords] ^ stamp(index, p);
    const std::size_t first = (index % kPages) * kPageWords;
    for (std::size_t k = first + 1; k < first + kPageWords; ++k)
      bad |= words[k] ^ (base + k * kStep);
    return bad == 0;
  }
  static constexpr std::size_t kBulkWords = 64 * 1024 / sizeof(uint64_t);

 private:
  static constexpr uint64_t kSeqMask = (uint64_t{1} << 32) - 1;
  static constexpr uint64_t kStep = 0xD1B54A32D192ED03ull;
  static constexpr std::size_t kPageWords = 4096 / sizeof(uint64_t);
  static constexpr std::size_t kPages = kBulkWords / kPageWords;
  uint64_t check(uint64_t body) const { return mix64(key_ ^ body) >> 40; }
  uint64_t background_base(uint64_t buffer) const {
    return mix64(key_ ^ (buffer + 1) * 0x9E3779B97F4A7C15ull);
  }
  uint64_t stamp(uint64_t index, uint64_t page) const {
    return mix64(key_ ^ (index << 4 | page));
  }
  uint64_t key_;
};

// ---------------------------------------------------------------------------
// Post-time stamps of one sender thread's messages, read by the receiving
// thread to time the message. The sender writes a stamp after its post
// returns and the receiver reads it after handling the message, so neither
// shared cache line sits on the path being timed. Slots are reused every
// kSlots messages: the reader validates the sequence number seqlock-style
// and skips the sample (counted as stale) when the slot does not hold it. Traced runs also
// pair the post's return with the receiver's completion call ("delivery"):
// whichever side finishes second records the wait.
// ---------------------------------------------------------------------------
class stamp_table_t {
 public:
  static constexpr uint64_t kNone = ~uint64_t{0};

  void begin(uint64_t seq, uint64_t t_start) {
    slot_t& s = slots_[seq % kSlots];
    s.seq.store(kNone, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.t_start.store(t_start, std::memory_order_relaxed);
    s.sides.store(0, std::memory_order_relaxed);
    s.seq.store(seq, std::memory_order_release);
  }
  // Sender side of the delivery pairing; returns the wait when the receiver
  // finished first, else kNone.
  uint64_t posted(uint64_t seq, uint64_t t_end) {
    slot_t& s = slots_[seq % kSlots];
    s.t_end.store(t_end, std::memory_order_relaxed);
    const uint32_t prev = s.sides.fetch_or(1, std::memory_order_acq_rel);
    if ((prev & 2) == 0 || s.seq.load(std::memory_order_relaxed) != seq)
      return kNone;
    const uint64_t tc = s.t_comp.load(std::memory_order_relaxed);
    return tc > t_end ? tc - t_end : 0;
  }
  // Receiver side: the post's start time, or kNone when the slot was reused.
  uint64_t start_of(uint64_t seq) const {
    const slot_t& s = slots_[seq % kSlots];
    if (s.seq.load(std::memory_order_acquire) != seq) return kNone;
    const uint64_t t = s.t_start.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    return s.seq.load(std::memory_order_relaxed) == seq ? t : kNone;
  }
  // Receiver side of the delivery pairing; returns the wait when the sender's
  // post had already returned, else kNone.
  uint64_t completed(uint64_t seq, uint64_t t_comp) {
    slot_t& s = slots_[seq % kSlots];
    if (s.seq.load(std::memory_order_acquire) != seq) return kNone;
    s.t_comp.store(t_comp, std::memory_order_relaxed);
    const uint32_t prev = s.sides.fetch_or(2, std::memory_order_acq_rel);
    if ((prev & 1) == 0) return kNone;
    const uint64_t te = s.t_end.load(std::memory_order_relaxed);
    return t_comp > te ? t_comp - te : 0;
  }

 private:
  static constexpr uint64_t kSlots = 512;
  struct alignas(64) slot_t {
    std::atomic<uint64_t> seq{kNone};
    std::atomic<uint64_t> t_start{0};
    std::atomic<uint64_t> t_end{0};
    std::atomic<uint64_t> t_comp{0};
    std::atomic<uint32_t> sides{0};
  };
  slot_t slots_[kSlots];
};

// Which sequence numbers of one stream were delivered: a lazily allocated,
// chunked atomic bitmap that several receiving threads mark. Exact, at one
// bit per message (about 3 MiB for a 10 s stream run). A window of recent
// numbers would be smaller but cannot tell a duplicate from a message that
// arrives thousands of messages late.
class seen_bitmap_t {
 public:
  enum class mark_t { fresh, duplicate, out_of_range };

  ~seen_bitmap_t() {
    for (auto& c : chunks_) delete[] c.load(std::memory_order_relaxed);
  }
  mark_t mark(uint64_t seq) {
    const uint64_t chunk = seq / kChunkBits;
    if (chunk >= kChunks) return mark_t::out_of_range;
    std::atomic<uint64_t>* words =
        chunks_[chunk].load(std::memory_order_acquire);
    if (words == nullptr) {
      auto* fresh = new std::atomic<uint64_t>[kChunkBits / 64]();
      if (chunks_[chunk].compare_exchange_strong(words, fresh,
                                                 std::memory_order_acq_rel)) {
        words = fresh;
      } else {
        delete[] fresh;
      }
    }
    const uint64_t bit = uint64_t{1} << (seq % 64);
    const uint64_t prev = words[(seq % kChunkBits) / 64].fetch_or(
        bit, std::memory_order_relaxed);
    return (prev & bit) != 0 ? mark_t::duplicate : mark_t::fresh;
  }

 private:
  static constexpr uint64_t kChunkBits = uint64_t{1} << 16;
  static constexpr uint64_t kChunks = 4096;  // 2^28 messages per stream
  std::atomic<std::atomic<uint64_t>*> chunks_[kChunks] = {};
};

// ---------------------------------------------------------------------------
// Benchmark-side spans (--trace 1). Per span kind: calls, summed duration, a
// histogram, and a flag count (post: returned retry; progress: returned true;
// comp: returned a completion). The loop iteration (one round trip on
// pingpong) is the parent of every call span inside it. Only iterations that
// start inside the measured windows are recorded.
// ---------------------------------------------------------------------------
enum span_kind_t : int {
  k_post_send,
  k_post_recv,
  k_post_am,
  k_progress,
  k_comp,
  k_iter,
  k_span_kinds
};
const char* const kSpanNames[k_span_kinds] = {
    "post.send", "post.recv", "post.am", "progress", "comp", "iter"};

struct span_stats_t {
  uint64_t calls = 0;
  uint64_t flagged = 0;
  uint64_t sum_ns = 0;
  histogram_t hist;
};

struct raw_span_t {
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t msg;  // message id (rank << 56 | thread << 48 | seq), 0 if none
  uint64_t id;
  uint64_t parent;
  int kind;
};

class tracer_t {
 public:
  void enable(int worker, uint64_t open_ns, uint64_t close_ns) {
    on_ = true;
    worker_ = worker;
    open_ns_ = open_ns;
    close_ns_ = close_ns;
    raw_.reserve(kRawCap);
  }
  void iter_begin(uint64_t now) {
    armed_ = on_ && now >= open_ns_ && now < close_ns_;
    if (!armed_) return;
    iter_start_ = now;
    child_ns_ = 0;
    iter_id_ = next_id();
    sampling_ = iters_++ % kSampleEvery == 0 && raw_.size() + 256 < kRawCap;
  }
  // Start of a call span (0 when not recording).
  uint64_t start() const { return armed_ ? now_ns() : 0; }
  // Ends a call span begun at `start`; returns its end time, or 0 when not
  // recording.
  uint64_t end(span_kind_t kind, uint64_t start, bool flag, uint64_t msg) {
    if (!armed_) return 0;
    const uint64_t t = now_ns();
    const uint64_t d = t - start;
    span_stats_t& s = stats_[kind];
    ++s.calls;
    s.flagged += flag ? 1 : 0;
    s.sum_ns += d;
    s.hist.add(d);
    child_ns_ += d;
    if (sampling_) raw_.push_back({start, t, msg, next_id(), iter_id_, kind});
    return t;
  }
  void iter_end() {
    if (!armed_) return;
    const uint64_t t = now_ns();
    const uint64_t d = t - iter_start_;
    span_stats_t& s = stats_[k_iter];
    ++s.calls;
    s.sum_ns += d;
    s.hist.add(d);
    covered_ns_ += std::min(child_ns_, d);
    self_.add(d - std::min(child_ns_, d));
    if (sampling_) raw_.push_back({iter_start_, t, 0, iter_id_, 0, k_iter});
    armed_ = false;
  }
  void delivery(uint64_t wait_ns) {
    if (armed_ && wait_ns != stamp_table_t::kNone) delivery_.add(wait_ns);
  }
  bool recording() const { return armed_; }

  const span_stats_t& stats(span_kind_t k) const { return stats_[k]; }
  const histogram_t& delivery_hist() const { return delivery_; }
  const histogram_t& self_hist() const { return self_; }
  uint64_t covered_ns() const { return covered_ns_; }
  const std::vector<raw_span_t>& raw() const { return raw_; }
  int worker() const { return worker_; }

 private:
  static constexpr uint64_t kSampleEvery = 256;
  static constexpr std::size_t kRawCap = 1 << 15;
  uint64_t next_id() {
    return static_cast<uint64_t>(worker_ + 1) << 48 | ++ids_;
  }

  bool on_ = false;
  bool armed_ = false;
  bool sampling_ = false;
  int worker_ = 0;
  uint64_t open_ns_ = 0, close_ns_ = 0;
  uint64_t iter_start_ = 0, child_ns_ = 0, iter_id_ = 0;
  uint64_t iters_ = 0, ids_ = 0, covered_ns_ = 0;
  span_stats_t stats_[k_span_kinds];
  histogram_t delivery_, self_;
  std::vector<raw_span_t> raw_;
};

uint64_t msg_id(int rank, int thread, uint64_t seq) {
  return static_cast<uint64_t>(rank) << 56 |
         static_cast<uint64_t>(thread) << 48 |
         (seq & ((uint64_t{1} << 48) - 1));
}

// ---------------------------------------------------------------------------
// Per-thread results
// ---------------------------------------------------------------------------
struct window_t {
  uint64_t delivered = 0;
  uint64_t bytes = 0;
  histogram_t msg_lat;
  histogram_t rtt;
};

struct failures_t {
  uint64_t attempted = 0;  // messages whose post was accepted or failed fatally
  uint64_t fatal = 0;      // fatal post statuses and fatal completions
  uint64_t corrupt = 0;    // deliveries that failed verification
  uint64_t duplicate = 0;  // second deliveries of one message
  uint64_t missing = 0;    // accepted messages never delivered
  uint64_t good = 0;       // verified first deliveries
  uint64_t stale = 0;      // latency samples skipped on a reused stamp slot
  void add(const failures_t& o) {
    attempted += o.attempted;
    fatal += o.fatal;
    corrupt += o.corrupt;
    duplicate += o.duplicate;
    missing += o.missing;
    good += o.good;
    stale += o.stale;
  }
  uint64_t failed() const { return fatal + corrupt + duplicate + missing; }
};

struct alignas(64) worker_stats_t {
  std::vector<window_t> windows;
  failures_t f;
  tracer_t tracer;
};

// Per sender thread ("stream"): credits its receivers returned, post stamps,
// and which of its messages were delivered.
struct alignas(64) stream_t {
  std::atomic<uint64_t> returned{0};
  alignas(64) std::atomic<uint64_t> final_sent{0};
  alignas(64) std::atomic<uint64_t> received{0};  // non-duplicate deliveries
  stamp_table_t stamps;
  seen_bitmap_t seen;
};

struct rank_state_t {
  lci::runtime_t rt{};
  lci::comp_t cq{};     // AM deliveries / bulk completions
  lci::comp_t ssync{};  // pingpong send completions
  lci::comp_t rsync{};  // pingpong receive completions
  lci::rcomp_t rcomp = lci::rcomp_null;
  lci::counters_t c_open{}, c_close{};
  bool opened = false, closed = false;
  uint64_t init_ns = 0, barrier_ns = 0, fina_ns = 0, left_barrier_ns = 0;
};

// Out-of-band barrier between this process's worker threads; it gives up
// when the run aborts so a failed thread cannot strand the others.
class thread_barrier_t {
 public:
  thread_barrier_t(int count, const std::atomic<bool>* abort)
      : count_(count), abort_(abort) {}
  void arrive_and_wait() {
    const int gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == count_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      return;
    }
    while (generation_.load(std::memory_order_acquire) == gen &&
           !abort_->load(std::memory_order_relaxed))
      std::this_thread::yield();
  }

 private:
  const int count_;
  const std::atomic<bool>* abort_;
  std::atomic<int> arrived_{0};
  std::atomic<int> generation_{0};
};

struct placement_t {
  int rank, thread, cpu;
  bool pinned;
};

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

// ---------------------------------------------------------------------------
// One world: two ranks, their load threads, and the workload's shared state.
// ---------------------------------------------------------------------------
class world_run_t {
 public:
  world_run_t(const options_t& opt, world_kind_t kind,
              const codec_t& send_codec, const codec_t& recv_codec,
              uint64_t tag_base)
      : opt_(opt),
        w_(*opt.workload),
        kind_(kind),
        nworkers_(kRanks * w_.threads),
        send_codec_(send_codec),
        recv_codec_(recv_codec),
        tag_base_(tag_base),
        barrier_(nworkers_, &abort_) {
    for (int i = 0; i < nworkers_; ++i) {
      streams_.push_back(std::make_unique<stream_t>());
      stats_.push_back(std::make_unique<worker_stats_t>());
    }
    if (kind_ == world_kind_t::timed) {
      nwindows_ = std::clamp(
          static_cast<int>(std::ceil(opt.seconds / kWindowSeconds)), 1, 400);
      for (auto& s : stats_) s->windows.resize(nwindows_);
    }
  }

  void run() {
    const std::vector<int> cpus = allowed_cpus();
    t_world0_ = now_ns();
    lci::sim::world_t world(kRanks);
    std::vector<std::thread> threads;
    placement_.resize(nworkers_);
    for (int r = 0; r < kRanks; ++r)
      for (int t = 0; t < w_.threads; ++t)
        threads.emplace_back([this, &world, &cpus, r, t] {
          const int worker = r * w_.threads + t;
          const int cpu = cpus[static_cast<std::size_t>(worker) % cpus.size()];
          placement_[worker] = {r, t, cpu, pin_to(cpu)};
          lci::sim::scoped_binding_t binding(world.binding(r));
          worker_main(r, t);
        });
    // The warm-up loads the cores the workload leaves idle, so every core is
    // busy before anything is timed.
    std::atomic<bool> spin_stop{false};
    std::vector<std::thread> spinners;
    if (kind_ == world_kind_t::warmup)
      for (std::size_t c = nworkers_; c < cpus.size(); ++c)
        spinners.emplace_back([&spin_stop, &cpus, c] {
          pin_to(cpus[c]);
          volatile uint64_t sink = 0;
          while (!spin_stop.load(std::memory_order_relaxed)) sink = sink + 1;
        });
    for (auto& th : threads) th.join();
    spin_stop.store(true);
    for (auto& th : spinners) th.join();
    uint64_t left = 0;
    for (const auto& rs : ranks_) left = std::max(left, rs.left_barrier_ns);
    setup_ns_ = left > t_world0_ ? left - t_world0_ : 0;
  }

  // Results
  bool aborted() const { return abort_.load(); }
  const std::string& error() const { return error_; }
  uint64_t setup_ns() const { return setup_ns_; }
  const rank_state_t& rank(int r) const { return ranks_[r]; }
  int nwindows() const { return nwindows_; }
  double window_s() const {
    return static_cast<double>(window_ns_) / static_cast<double>(kNsPerSec);
  }
  const std::vector<std::unique_ptr<worker_stats_t>>& stats() const {
    return stats_;
  }
  const std::vector<placement_t>& placement() const { return placement_; }
  failures_t failures() const {
    failures_t total;
    for (const auto& s : stats_) total.add(s->f);
    total.missing += missing_.load();
    return total;
  }

 private:
  bool timed() const { return kind_ == world_kind_t::timed; }
  stream_t& stream(int rank, int thread) {
    return *streams_[static_cast<std::size_t>(rank * w_.threads + thread)];
  }
  int window_of(uint64_t t) const {
    if (t < t_open_ || t >= t_close_ || nwindows_ == 0) return -1;
    return static_cast<int>(
        std::min<uint64_t>((t - t_open_) / window_ns_, nwindows_ - 1));
  }
  void fail(const std::string& what) {
    bool expected = false;
    if (abort_.compare_exchange_strong(expected, true)) error_ = what;
  }
  // Past the drain bound: count what never arrived as missing and stop.
  bool overdue(uint64_t now) const { return now > t_hard_; }

  lci::runtime_attr_t attr() const {
    lci::runtime_attr_t a;
    a.backend = lci::net::backend_t::sim;
    a.device_shards = w_.shards;
    a.allow_aggregation = w_.aggregation;
    a.trace = false;
    a.peer_timeout_us = 0;
    a.reg_cache_entries = 128;
    return a;
  }

  void setup_rank(int r) {
    rank_state_t& rs = ranks_[r];
    uint64_t t = now_ns();
    rs.rt = lci::g_runtime_init(attr());
    rs.init_ns = now_ns() - t;
    switch (w_.pattern) {
      case pattern_t::pingpong:
        rs.ssync = lci::alloc_sync(1, rs.rt);
        rs.rsync = lci::alloc_sync(1, rs.rt);
        break;
      case pattern_t::stream:
        rs.cq = lci::alloc_cq(rs.rt);
        // Allocated in the same order on both ranks, so the ids agree.
        rs.rcomp = lci::register_rcomp(rs.cq, rs.rt);
        break;
      case pattern_t::bulk:
        rs.cq = lci::alloc_cq(rs.rt);
        break;
    }
    t = now_ns();
    lci::barrier(rs.rt);
    rs.left_barrier_ns = now_ns();
    rs.barrier_ns = rs.left_barrier_ns - t;
  }

  void teardown_rank(int r) {
    rank_state_t& rs = ranks_[r];
    lci::barrier(rs.rt);
    if (rs.rcomp != lci::rcomp_null) lci::deregister_rcomp(rs.rcomp, rs.rt);
    lci::free_comp(&rs.cq);
    lci::free_comp(&rs.ssync);
    lci::free_comp(&rs.rsync);
    const uint64_t t = now_ns();
    lci::g_runtime_fina();
    rs.fina_ns = now_ns() - t;
  }

  void worker_main(int r, int t) {
    const int worker = r * w_.threads + t;
    try {
      if (t == 0) setup_rank(r);
      barrier_.arrive_and_wait();
      if (worker == 0) plan_schedule();
      barrier_.arrive_and_wait();
      if (aborted()) return;
      if (kind_ != world_kind_t::setup_only) {
        if (timed() && opt_.traced)
          stats_[worker]->tracer.enable(worker, t_open_, t_close_);
        switch (w_.pattern) {
          case pattern_t::pingpong: pingpong_loop(r); break;
          case pattern_t::stream: stream_loop(r, t); break;
          case pattern_t::bulk: bulk_loop(r); break;
        }
        // A rank whose last iteration began before the windows closed still
        // takes its closing counter snapshot.
        if (t == 0) mark_phase(r, std::max(now_ns(), t_close_));
      }
      barrier_.arrive_and_wait();
      if (t == 0 && !aborted()) teardown_rank(r);
    } catch (const std::exception& e) {
      fail(std::string("rank ") + std::to_string(r) + " thread " +
           std::to_string(t) + ": " + e.what());
    }
  }

  // Traffic schedule, derived from when the last rank left the set-up
  // barrier.
  void plan_schedule() {
    uint64_t left = 0;
    for (const auto& rs : ranks_) left = std::max(left, rs.left_barrier_ns);
    const uint64_t warm = static_cast<uint64_t>(
        (kind_ == world_kind_t::warmup ? opt_.seconds : opt_.inworld_warm_s) *
        kNsPerSec);
    const uint64_t measure =
        timed() ? static_cast<uint64_t>(opt_.seconds * kNsPerSec) : 0;
    t_open_ = left + warm;
    t_close_ = t_open_ + measure;
    t_hard_ = t_close_ + static_cast<uint64_t>(opt_.drain_s * kNsPerSec);
    window_ns_ = nwindows_ > 0 ? std::max<uint64_t>(1, measure / nwindows_) : 1;
  }

  // Counter snapshots around the measured windows, taken by thread 0 of each
  // rank as its clock crosses the window edges.
  void mark_phase(int r, uint64_t now) {
    rank_state_t& rs = ranks_[r];
    if (!timed()) return;
    if (!rs.opened && now >= t_open_) {
      rs.c_open = lci::get_counters(rs.rt);
      rs.opened = true;
    }
    if (!rs.closed && now >= t_close_) {
      rs.c_close = lci::get_counters(rs.rt);
      rs.closed = true;
    }
  }

  void record_delivery(worker_stats_t& st, uint64_t tc, uint64_t t_start,
                       std::size_t bytes) {
    const int win = window_of(tc);
    if (win < 0) return;
    window_t& w = st.windows[win];
    ++w.delivered;
    w.bytes += bytes;
    if (t_start == stamp_table_t::kNone)
      ++st.f.stale;
    else
      w.msg_lat.add(tc > t_start ? tc - t_start : 0);
  }
  void record_rtt(worker_stats_t& st, uint64_t t_end, uint64_t t_start) {
    const int win = window_of(t_end);
    if (win >= 0)
      st.windows[win].rtt.add(t_end > t_start ? t_end - t_start : 0);
  }

  bool progress(tracer_t& tr, const rank_state_t& rs) {
    const uint64_t t = tr.start();
    const bool useful = lci::progress_x().runtime(rs.rt)();
    tr.end(k_progress, t, useful, 0);
    return useful;
  }

  // ---- pingpong_tag8 ------------------------------------------------------
  // Rank 0 times each round trip from the start of its send until its
  // receive completes; rank 1 echoes. Rank 0 announces the last round trip
  // out of band before starting it, so rank 1 never posts an extra receive.
  // Returns false when the wait ran past the drain bound.
  bool wait_sync(tracer_t& tr, const rank_state_t& rs, lci::comp_t sync,
                 lci::status_t* out, uint64_t* t_done, uint64_t msg) {
    for (uint32_t spins = 0;; ++spins) {
      progress(tr, rs);
      const uint64_t t = tr.start();
      const bool hit = lci::sync_test(sync, out);
      const uint64_t te = tr.end(k_comp, t, hit, hit ? msg : 0);
      if (hit) {
        *t_done = te != 0 ? te : now_ns();
        return true;
      }
      if ((spins & 1023) == 1023 && (overdue(now_ns()) || aborted()))
        return false;
    }
  }

  // Posts with the retry loop every LCI caller needs; returns the accepted
  // (or fatal) status and, when tracing, the end of the accepted post.
  template <class PostFn>
  lci::status_t post_retry(tracer_t& tr, const rank_state_t& rs,
                           span_kind_t kind, uint64_t msg, PostFn&& post,
                           uint64_t* t_end) {
    for (uint32_t spins = 0;; ++spins) {
      const uint64_t t0 = now_ns();
      const lci::status_t st = post();
      *t_end = tr.end(kind, t0, st.error.is_retry(), msg);
      if (!st.error.is_retry()) return st;
      progress(tr, rs);
      if ((spins & 1023) == 1023 && (overdue(now_ns()) || aborted())) {
        lci::status_t gave_up;
        gave_up.error.code = lci::errorcode_t::fatal;
        return gave_up;
      }
    }
  }

  void pingpong_loop(int r) {
    rank_state_t& rs = ranks_[r];
    worker_stats_t& st = *stats_[r];
    tracer_t& tr = st.tracer;
    const int peer = 1 - r;
    stream_t& mine = stream(r, 0);
    stream_t& theirs = stream(peer, 0);
    uint64_t sbuf = 0, rbuf = 0;
    for (uint64_t i = 0;; ++i) {
      const uint64_t t_iter = now_ns();
      tr.iter_begin(t_iter);
      mark_phase(r, t_iter);
      bool last = false;
      uint64_t t_recv = 0;
      bool verified = false;
      if (r == 0) {
        last = t_iter >= t_close_ || aborted();
        if (last) last_round_.store(i, std::memory_order_seq_cst);
      } else if (!pingpong_recv(tr, st, rs, peer, i, &rbuf, &t_recv,
                                &verified)) {
        break;
      }
      // Rank 0 sends ping i; rank 1 echoes it as pong i.
      sbuf = send_codec_.encode(r, 0, i);
      uint64_t te = 0;
      const uint64_t t_post = now_ns();
      const lci::status_t s = post_retry(
          tr, rs, k_post_send, msg_id(r, 0, i),
          [&] {
            return lci::post_send_x(peer, &sbuf, sizeof(sbuf), tag(2 * i + r),
                                    rs.ssync)
                .runtime(rs.rt)();
          },
          &te);
      mine.stamps.begin(i, t_post);
      ++st.f.attempted;
      if (s.error.is_fatal()) {
        ++st.f.fatal;
        fail("pingpong send failed");
        break;
      }
      if (te != 0) tr.delivery(mine.stamps.posted(i, te));
      if (s.error.is_posted()) {
        lci::status_t done;
        uint64_t t_done = 0;
        if (!wait_sync(tr, rs, rs.ssync, &done, &t_done, 0)) break;
      }
      if (r == 0) {
        if (!pingpong_recv(tr, st, rs, peer, i, &rbuf, &t_recv, &verified))
          break;
        record_rtt(st, t_recv, t_post);
      }
      // Off the timed path: rank 1 has already echoed, rank 0 has stopped
      // its clock.
      if (verified) {
        record_delivery(st, t_recv, theirs.stamps.start_of(i), sizeof(rbuf));
        if (tr.recording()) tr.delivery(theirs.stamps.completed(i, t_recv));
      }
      tr.iter_end();
      if (r == 0 ? last
                 : last_round_.load(std::memory_order_seq_cst) == i)
        break;
    }
  }

  // Posts the receive for message i from `peer`, waits for it and verifies
  // it. Returns false (after counting the failure) when it never arrived or
  // failed fatally.
  bool pingpong_recv(tracer_t& tr, worker_stats_t& st, rank_state_t& rs,
                     int peer, uint64_t i, uint64_t* rbuf, uint64_t* t_done,
                     bool* verified) {
    const uint64_t id = msg_id(peer, 0, i);
    const lci::tag_t want = tag(2 * i + peer);
    *rbuf = 0;
    uint64_t te = 0;
    lci::status_t s = post_retry(
        tr, rs, k_post_recv, id,
        [&] {
          return lci::post_recv_x(peer, rbuf, sizeof(*rbuf), want, rs.rsync)
              .runtime(rs.rt)();
        },
        &te);
    if (s.error.is_posted()) {
      if (!wait_sync(tr, rs, rs.rsync, &s, t_done, id)) {
        ++missing_;
        fail("pingpong message never arrived");
        return false;
      }
    } else {
      *t_done = te != 0 ? te : now_ns();
    }
    if (s.error.is_fatal()) {
      ++st.f.fatal;
      fail("pingpong receive failed");
      return false;
    }
    int rank = -1, thread = -1;
    uint64_t seq = 0;
    *verified = recv_codec_.decode(*rbuf, &rank, &thread, &seq) &&
                rank == peer && thread == 0 && seq == i && s.tag == want &&
                s.rank == peer && s.buffer.size == sizeof(*rbuf);
    if (*verified)
      ++st.f.good;
    else
      ++st.f.corrupt;
    return true;
  }

  // ---- stream_am8 / stream_am8_agg ---------------------------------------
  // Every thread posts 8 B AMs to the same thread index of the peer rank,
  // at most kStreamCredits in flight; the receiving rank's threads pop one
  // shared CQ and return each credit out of band as they verify the message.
  // The sender times the credit round trip; the receiver times the message.
  void stream_loop(int r, int t) {
    rank_state_t& rs = ranks_[r];
    const int worker = r * w_.threads + t;
    worker_stats_t& st = *stats_[worker];
    tracer_t& tr = st.tracer;
    const int peer = 1 - r;
    stream_t& mine = stream(r, t);
    if (w_.shards > 1) lci::pin_thread_shard(t);
    uint64_t sent = 0, acked = 0;
    uint64_t post_ts[kStreamCredits] = {};
    bool posting = true;
    for (;;) {
      const uint64_t now = now_ns();
      tr.iter_begin(now);
      if (t == 0) mark_phase(r, now);
      if (posting && (now >= t_close_ || aborted())) {
        posting = false;
        mine.final_sent.store(sent, std::memory_order_release);
        posting_done_.fetch_add(1, std::memory_order_acq_rel);
      }
      const uint64_t ret = mine.returned.load(std::memory_order_acquire);
      for (; acked < ret; ++acked)
        record_rtt(st, now, post_ts[acked % kStreamCredits]);
      // Spend every credit on hand, as a closed-loop client would.
      while (posting && sent - ret < kStreamCredits) {
        uint64_t payload = send_codec_.encode(r, t, sent);
        const uint64_t id = msg_id(r, t, sent);
        const uint64_t t0 = now_ns();
        const lci::status_t s =
            lci::post_am_x(peer, &payload, sizeof(payload), lci::comp_t{},
                           rs.rcomp)
                .runtime(rs.rt)();
        const uint64_t te = tr.end(k_post_am, t0, s.error.is_retry(), id);
        if (s.error.is_retry()) break;
        ++st.f.attempted;
        if (s.error.is_fatal()) {
          ++st.f.fatal;
          continue;
        }
        mine.stamps.begin(sent, t0);
        post_ts[sent % kStreamCredits] = t0;
        if (te != 0) tr.delivery(mine.stamps.posted(sent, te));
        ++sent;
      }
      progress(tr, rs);
      for (int k = 0; k < kMaxPops; ++k) {
        const uint64_t tp = tr.start();
        const lci::status_t s = lci::cq_pop(rs.cq);
        const bool hit = !s.error.is_retry();
        uint64_t tc = tr.end(k_comp, tp, hit, 0);
        if (!hit) break;
        if (tc == 0) tc = now_ns();
        stream_delivery(st, tr, s, tc);
      }
      tr.iter_end();
      if (!posting && stream_drained(now)) break;
    }
  }

  void stream_delivery(worker_stats_t& st, tracer_t& tr, const lci::status_t& s,
                       uint64_t tc) {
    if (s.error.is_fatal()) {
      ++st.f.fatal;
      std::free(s.buffer.base);
      return;
    }
    uint64_t word = 0;
    const bool sized =
        s.buffer.size == sizeof(word) && s.buffer.base != nullptr;
    if (sized) std::memcpy(&word, s.buffer.base, sizeof(word));
    std::free(s.buffer.base);
    int rank = -1, thread = -1;
    uint64_t seq = 0;
    const bool check = sized && recv_codec_.decode(word, &rank, &thread, &seq);
    const bool known = sized && rank == s.rank && rank >= 0 && rank < kRanks &&
                       thread < w_.threads;
    if (!known) {  // cannot even tell whose credit it is
      ++st.f.corrupt;
      return;
    }
    stream_t& from = stream(rank, thread);
    if (!check) {
      ++st.f.corrupt;
    } else if (from.seen.mark(seq) != seen_bitmap_t::mark_t::fresh) {
      ++st.f.duplicate;
      return;
    } else {
      ++st.f.good;
      record_delivery(st, tc, from.stamps.start_of(seq), sizeof(word));
      if (tr.recording()) tr.delivery(from.stamps.completed(seq, tc));
    }
    from.received.fetch_add(1, std::memory_order_relaxed);
    from.returned.fetch_add(1, std::memory_order_release);
  }

  // True once every stream stopped posting and everything it sent arrived;
  // past the drain bound the remainder is counted missing.
  bool stream_drained(uint64_t now) {
    if (posting_done_.load(std::memory_order_acquire) < nworkers_)
      return overdue(now) ? give_up_streams() : false;
    uint64_t sent = 0, received = 0;
    for (const auto& s : streams_) {
      sent += s->final_sent.load(std::memory_order_acquire);
      received += s->received.load(std::memory_order_relaxed);
    }
    if (received >= sent) return true;
    return overdue(now) ? give_up_streams() : false;
  }
  bool give_up_streams() {
    bool expected = false;
    if (gave_up_.compare_exchange_strong(expected, true)) {
      uint64_t missing = 0;
      for (const auto& s : streams_) {
        const uint64_t sent = s->final_sent.load();
        const uint64_t got = s->received.load();
        missing += sent > got ? sent - got : 0;
      }
      missing_ += missing;
      fail("stream drain timed out");
    }
    return true;
  }

  // ---- bulk_tag64k --------------------------------------------------------
  // Rank 1 streams 64 KiB tagged sends from 8 reused buffers; rank 0 keeps a
  // matching receive posted for each. Message i uses buffer i % 8 and tag
  // base + i on both sides. At the end both sides agree out of band on the
  // last index (the larger of what the sender sent and the receiver posted),
  // so no receive is left posted and no send is left unmatched.
  static constexpr std::size_t kBulkWords = codec_t::kBulkWords;

  uint64_t bulk_final() const {
    const uint64_t s = bulk_sent_final_.load(std::memory_order_acquire);
    const uint64_t p = bulk_posted_final_.load(std::memory_order_acquire);
    return s == stamp_table_t::kNone || p == stamp_table_t::kNone
               ? stamp_table_t::kNone
               : std::max(s, p);
  }

  void bulk_loop(int r) {
    std::vector<uint64_t> storage(kBulkWords * kBulkDepth + 8);
    // 64-byte aligned buffers.
    uint64_t* base = storage.data();
    while (reinterpret_cast<uintptr_t>(base) % 64 != 0) ++base;
    uint64_t* bufs[kBulkDepth];
    for (int k = 0; k < kBulkDepth; ++k) {
      bufs[k] = base + k * kBulkWords;
      if (r == 1) send_codec_.fill_background(bufs[k], k);
    }
    if (r == 1)
      bulk_sender(bufs);
    else
      bulk_receiver(bufs);
  }

  void bulk_sender(uint64_t* bufs[]) {
    rank_state_t& rs = ranks_[1];
    worker_stats_t& st = *stats_[1];
    tracer_t& tr = st.tracer;
    stream_t& mine = stream(1, 0);
    bool busy[kBulkDepth] = {};
    uint64_t post_ts[kBulkDepth] = {};
    uint64_t next = 0, completed = 0;
    bool stopping = false;
    for (;;) {
      const uint64_t now = now_ns();
      tr.iter_begin(now);
      mark_phase(1, now);
      if (!stopping && (now >= t_close_ || aborted())) {
        stopping = true;
        bulk_sent_final_.store(next, std::memory_order_release);
      }
      const uint64_t limit = stopping ? bulk_final() : stamp_table_t::kNone;
      while (!busy[next % kBulkDepth] &&
             (!stopping || (limit != stamp_table_t::kNone && next < limit))) {
        const int slot = static_cast<int>(next % kBulkDepth);
        send_codec_.stamp_bulk(bufs[slot], next);
        const uint64_t id = msg_id(1, 0, next);
        const uint64_t t0 = now_ns();
        const lci::status_t s =
            lci::post_send_x(0, bufs[slot], kBulkWords * sizeof(uint64_t),
                             tag(next), rs.cq)
                .runtime(rs.rt)();
        const uint64_t te = tr.end(k_post_send, t0, s.error.is_retry(), id);
        if (s.error.is_retry()) break;
        ++st.f.attempted;
        if (s.error.is_fatal()) {
          ++st.f.fatal;
          fail("bulk send failed");
          break;
        }
        mine.stamps.begin(next, t0);
        if (te != 0) tr.delivery(mine.stamps.posted(next, te));
        post_ts[slot] = t0;
        if (s.error.is_posted()) busy[slot] = true;
        else ++completed;  // completed in place; nothing will be signaled
        ++next;
      }
      progress(tr, rs);
      for (int k = 0; k < kMaxPops; ++k) {
        const uint64_t tp = tr.start();
        const lci::status_t s = lci::cq_pop(rs.cq);
        const bool hit = !s.error.is_retry();
        uint64_t tc = tr.end(k_comp, tp, hit, 0);
        if (!hit) break;
        if (tc == 0) tc = now_ns();
        const uint64_t idx = static_cast<uint32_t>(s.tag - tag(0));
        const int slot = static_cast<int>(idx % kBulkDepth);
        if (s.error.is_fatal()) ++st.f.fatal;
        if (idx >= next || !busy[slot]) {
          ++st.f.corrupt;
          continue;
        }
        busy[slot] = false;
        ++completed;
        record_rtt(st, tc, post_ts[slot]);
      }
      tr.iter_end();
      if (aborted()) break;
      if (stopping && limit != stamp_table_t::kNone && next >= limit &&
          completed >= next)
        break;
      if (overdue(now)) {
        missing_ += next - completed;
        fail("bulk sends never completed");
        break;
      }
    }
  }

  void bulk_receiver(uint64_t* bufs[]) {
    rank_state_t& rs = ranks_[0];
    worker_stats_t& st = *stats_[0];
    tracer_t& tr = st.tracer;
    stream_t& from = stream(1, 0);
    bool busy[kBulkDepth] = {};
    uint64_t posted = 0, received = 0;
    bool stopping = false;
    for (;;) {
      const uint64_t now = now_ns();
      tr.iter_begin(now);
      mark_phase(0, now);
      if (!stopping && bulk_sent_final_.load(std::memory_order_acquire) !=
                           stamp_table_t::kNone) {
        stopping = true;
        bulk_posted_final_.store(posted, std::memory_order_release);
      }
      const uint64_t limit = stopping ? bulk_final() : stamp_table_t::kNone;
      while (!busy[posted % kBulkDepth] &&
             (!stopping || (limit != stamp_table_t::kNone && posted < limit))) {
        const int slot = static_cast<int>(posted % kBulkDepth);
        const uint64_t t0 = now_ns();
        const lci::status_t s =
            lci::post_recv_x(1, bufs[slot], kBulkWords * sizeof(uint64_t),
                             tag(posted), rs.cq)
                .runtime(rs.rt)
                .allow_done(false)();
        tr.end(k_post_recv, t0, s.error.is_retry(), msg_id(1, 0, posted));
        if (s.error.is_retry()) break;
        if (s.error.is_fatal()) {
          ++st.f.fatal;
          fail("bulk receive failed");
          break;
        }
        busy[slot] = true;
        ++posted;
      }
      progress(tr, rs);
      for (int k = 0; k < kMaxPops; ++k) {
        const uint64_t tp = tr.start();
        const lci::status_t s = lci::cq_pop(rs.cq);
        const bool hit = !s.error.is_retry();
        uint64_t tc = tr.end(k_comp, tp, hit, 0);
        if (!hit) break;
        if (tc == 0) tc = now_ns();
        const uint64_t idx = static_cast<uint32_t>(s.tag - tag(0));
        const int slot = static_cast<int>(idx % kBulkDepth);
        if (s.error.is_fatal()) {
          ++st.f.fatal;
          continue;
        }
        if (idx >= posted || !busy[slot] || s.buffer.base != bufs[slot] ||
            s.buffer.size != kBulkWords * sizeof(uint64_t) || s.rank != 1) {
          ++st.f.corrupt;
          continue;
        }
        busy[slot] = false;
        ++received;
        if (recv_codec_.check_bulk(bufs[slot], slot, idx)) {
          ++st.f.good;
          record_delivery(st, tc, from.stamps.start_of(idx),
                          kBulkWords * sizeof(uint64_t));
          if (tr.recording()) tr.delivery(from.stamps.completed(idx, tc));
        } else {
          ++st.f.corrupt;
        }
      }
      tr.iter_end();
      if (aborted()) break;
      if (stopping && limit != stamp_table_t::kNone && posted >= limit &&
          received >= posted)
        break;
      if (overdue(now)) {
        missing_ += posted - received;
        fail("bulk receives never completed");
        break;
      }
    }
  }

  lci::tag_t tag(uint64_t i) const {
    return static_cast<lci::tag_t>(tag_base_ + i);
  }

  const options_t& opt_;
  const workload_t& w_;
  const world_kind_t kind_;
  const int nworkers_;
  const codec_t& send_codec_;
  const codec_t& recv_codec_;
  const uint64_t tag_base_;
  std::atomic<bool> abort_{false};
  std::string error_;
  thread_barrier_t barrier_;
  rank_state_t ranks_[kRanks];
  std::vector<std::unique_ptr<stream_t>> streams_;
  std::vector<std::unique_ptr<worker_stats_t>> stats_;
  std::vector<placement_t> placement_;
  int nwindows_ = 0;
  uint64_t t_world0_ = 0, t_open_ = 0, t_close_ = 0, t_hard_ = 0;
  uint64_t window_ns_ = 1;
  uint64_t setup_ns_ = 0;
  std::atomic<uint64_t> missing_{0};
  std::atomic<uint64_t> last_round_{stamp_table_t::kNone};
  std::atomic<int> posting_done_{0};
  std::atomic<bool> gave_up_{false};
  std::atomic<uint64_t> bulk_sent_final_{stamp_table_t::kNone};
  std::atomic<uint64_t> bulk_posted_final_{stamp_table_t::kNone};
};

// ---------------------------------------------------------------------------
// Self-check: the verifiers must flag a corrupted expectation.
// ---------------------------------------------------------------------------
bool self_check(uint64_t key) {
  const codec_t good(key), wrong(key ^ 1);
  int rank = 0, thread = 0;
  uint64_t seq = 0;
  int caught = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    const uint64_t word = good.encode(1, 1, i);
    if (!good.decode(word, &rank, &thread, &seq) || rank != 1 || thread != 1 ||
        seq != i)
      return false;
    caught += wrong.decode(word, &rank, &thread, &seq) ? 0 : 1;
  }
  if (caught < 63) return false;  // a 24-bit check may collide, rarely
  std::vector<uint64_t> words(codec_t::kBulkWords);
  good.fill_background(words.data(), 3);
  good.stamp_bulk(words.data(), 7);
  if (!good.check_bulk(words.data(), 3, 7) ||
      good.check_bulk(words.data(), 3, 8) ||
      good.check_bulk(words.data(), 2, 7) ||
      wrong.check_bulk(words.data(), 3, 7))
    return false;
  words[7 * 512 + 3] ^= 1;  // inside page 7, the page compared for index 7
  if (good.check_bulk(words.data(), 3, 7)) return false;
  seen_bitmap_t seen;
  return seen.mark(5) == seen_bitmap_t::mark_t::fresh &&
         seen.mark(5) == seen_bitmap_t::mark_t::duplicate &&
         seen.mark(uint64_t{1} << 40) == seen_bitmap_t::mark_t::out_of_range;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------
class json_t {
 public:
  json_t& key(const char* k) {
    sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  json_t& num(double v) {
    sep();
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof(buf), "%.9g", v);
    else
      std::snprintf(buf, sizeof(buf), "0");
    out_ += buf;
    return *this;
  }
  json_t& num(uint64_t v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  json_t& str(const std::string& v) {
    sep();
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += (c >= 0x20) ? c : ' ';
    }
    out_ += '"';
    return *this;
  }
  json_t& boolean(bool v) {
    sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  json_t& open() {
    sep();
    out_ += '{';
    fresh_ = true;
    return *this;
  }
  json_t& close() {
    out_ += '}';
    fresh_ = false;
    return *this;
  }
  json_t& open_list() {
    sep();
    out_ += '[';
    fresh_ = true;
    return *this;
  }
  json_t& close_list() {
    out_ += ']';
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

const char* compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

#ifndef LCI_PERFBENCH_BUILD_TYPE
#define LCI_PERFBENCH_BUILD_TYPE "unknown"
#endif

// Counter deltas over the measured windows, summed over ranks.
lci::counters_t counter_deltas(const world_run_t& run) {
  lci::counters_t d{};
  for (int r = 0; r < kRanks; ++r) {
    const lci::counters_t& a = run.rank(r).c_open;
    const lci::counters_t& b = run.rank(r).c_close;
#define LCI_PERFBENCH_DELTA(field) d.field += b.field - a.field
    LCI_PERFBENCH_DELTA(send_inject);
    LCI_PERFBENCH_DELTA(send_bcopy);
    LCI_PERFBENCH_DELTA(send_rdv);
    LCI_PERFBENCH_DELTA(recv_posted);
    LCI_PERFBENCH_DELTA(recv_matched);
    LCI_PERFBENCH_DELTA(am_delivered);
    LCI_PERFBENCH_DELTA(retry_lock);
    LCI_PERFBENCH_DELTA(retry_nopacket);
    LCI_PERFBENCH_DELTA(retry_nomem);
    LCI_PERFBENCH_DELTA(backlog_pushed);
    LCI_PERFBENCH_DELTA(comp_fatal);
    LCI_PERFBENCH_DELTA(progress_calls);
    LCI_PERFBENCH_DELTA(send_coalesced);
    LCI_PERFBENCH_DELTA(batches_flushed);
    LCI_PERFBENCH_DELTA(batch_flush_ordering);
    LCI_PERFBENCH_DELTA(recv_batches);
    LCI_PERFBENCH_DELTA(reg_cache_hits);
    LCI_PERFBENCH_DELTA(reg_cache_misses);
#undef LCI_PERFBENCH_DELTA
  }
  return d;
}

void write_counters(json_t& j, const lci::counters_t& d) {
  j.key("counters").open();
  j.key("send_inject").num(d.send_inject);
  j.key("send_bcopy").num(d.send_bcopy);
  j.key("send_rdv").num(d.send_rdv);
  j.key("recv_posted").num(d.recv_posted);
  j.key("recv_matched").num(d.recv_matched);
  j.key("am_delivered").num(d.am_delivered);
  j.key("retry_lock").num(d.retry_lock);
  j.key("retry_nopacket").num(d.retry_nopacket);
  j.key("retry_nomem").num(d.retry_nomem);
  j.key("backlog_pushed").num(d.backlog_pushed);
  j.key("comp_fatal").num(d.comp_fatal);
  j.key("progress_calls").num(d.progress_calls);
  j.key("send_coalesced").num(d.send_coalesced);
  j.key("batches_flushed").num(d.batches_flushed);
  j.key("batch_flush_ordering").num(d.batch_flush_ordering);
  j.key("recv_batches").num(d.recv_batches);
  j.key("reg_cache_hits").num(d.reg_cache_hits);
  j.key("reg_cache_misses").num(d.reg_cache_misses);
  j.close();
}

// Per-layer span aggregates of the traced run, merged over threads.
void write_spans(json_t& j, const world_run_t& run, const options_t& opt) {
  span_stats_t merged[k_span_kinds];
  histogram_t delivery, self;
  uint64_t covered = 0;
  for (const auto& s : run.stats()) {
    for (int k = 0; k < k_span_kinds; ++k) {
      const span_stats_t& x = s->tracer.stats(static_cast<span_kind_t>(k));
      merged[k].calls += x.calls;
      merged[k].flagged += x.flagged;
      merged[k].sum_ns += x.sum_ns;
      merged[k].hist.merge(x.hist);
    }
    delivery.merge(s->tracer.delivery_hist());
    self.merge(s->tracer.self_hist());
    covered += s->tracer.covered_ns();
  }
  j.key("spans").open();
  for (int k = 0; k < k_span_kinds; ++k) {
    j.key(kSpanNames[k]).open();
    j.key("calls").num(merged[k].calls);
    j.key("flagged").num(merged[k].flagged);
    j.key("busy_s").num(static_cast<double>(merged[k].sum_ns) / kNsPerSec);
    j.key("ns_p50").num(merged[k].hist.quantile(0.5));
    j.key("ns_p99").num(merged[k].hist.quantile(0.99));
    j.close();
  }
  j.close();
  j.key("delivery_us_p50").num(delivery.quantile(0.5) / 1e3);
  j.key("delivery_us_p99").num(delivery.quantile(0.99) / 1e3);
  j.key("delivery_samples").num(delivery.count());
  j.key("iter_self_ns_p50").num(self.quantile(0.5));
  j.key("coverage").num(merged[k_iter].sum_ns == 0
                            ? 0.0
                            : static_cast<double>(covered) /
                                  static_cast<double>(merged[k_iter].sum_ns));
  // The bounded raw-span sample goes to a file, written once here at exit.
  const std::string path = opt.out_dir + "/spans-" + opt.workload->name +
                           "-seed" + std::to_string(opt.seed) + ".jsonl";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    for (const auto& s : run.stats())
      for (const raw_span_t& r : s->tracer.raw())
        std::fprintf(f,
                     "{\"worker\":%d,\"kind\":\"%s\",\"id\":%" PRIu64
                     ",\"parent\":%" PRIu64 ",\"start_ns\":%" PRIu64
                     ",\"end_ns\":%" PRIu64 ",\"msg\":%" PRIu64 "}\n",
                     s->tracer.worker(), kSpanNames[r.kind], r.id, r.parent,
                     r.start_ns, r.end_ns, r.msg);
    std::fclose(f);
    j.key("raw_spans_file").str(path);
  }
}

bool parse_args(int argc, char** argv, options_t* opt) {
  std::string workload, phase = "timed";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--phase") phase = v;
    else if (k == "--seed") opt->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") opt->seconds = std::atof(v);
    else if (k == "--trace") opt->traced = std::atoi(v) != 0;
    else if (k == "--corrupt-expect") opt->corrupt_expect = std::atoi(v) != 0;
    else if (k == "--out-dir") opt->out_dir = v;
    else return false;
  }
  for (const workload_t& w : kWorkloads)
    if (workload == w.name) opt->workload = &w;
  if (phase == "warmup") opt->phase = world_kind_t::warmup;
  else if (phase == "setup") opt->phase = world_kind_t::setup_only;
  else if (phase == "timed") opt->phase = world_kind_t::timed;
  else return false;
  return opt->workload != nullptr && opt->seconds > 0;
}

const char* phase_name(world_kind_t kind) {
  switch (kind) {
    case world_kind_t::warmup: return "warmup";
    case world_kind_t::setup_only: return "setup";
    case world_kind_t::timed: return "timed";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  options_t opt;
  if (!parse_args(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: lci_perfbench --workload NAME --seed N --seconds S "
                 "[--phase warmup|setup|timed] [--trace 0|1] [--out-dir DIR] "
                 "[--corrupt-expect 0|1]\n");
    return 2;
  }
  const uint64_t key = mix64(opt.seed ^ 0x4C4349ull);
  const codec_t send_codec(key);
  const codec_t recv_codec(opt.corrupt_expect ? key ^ 1 : key);
  const uint64_t tag_base = mix64(key) & 0xFFFFFFFFull;
  const bool selfcheck_ok = self_check(key);

  world_run_t run(opt, opt.phase, send_codec, recv_codec, tag_base);
  run.run();
  const failures_t failures = run.failures();

  // Per-window rates and percentiles, merged over threads.
  std::vector<double> rate, bw, lat50, lat99, rtt50, rtt99;
  uint64_t lat_n = 0, rtt_n = 0;
  for (int w = 0; w < run.nwindows(); ++w) {
    uint64_t delivered = 0, bytes = 0;
    histogram_t lat, rtt;
    for (const auto& s : run.stats()) {
      delivered += s->windows[w].delivered;
      bytes += s->windows[w].bytes;
      lat.merge(s->windows[w].msg_lat);
      rtt.merge(s->windows[w].rtt);
    }
    lat_n += lat.count();
    rtt_n += rtt.count();
    rate.push_back(static_cast<double>(delivered) / run.window_s() / 1e6);
    bw.push_back(static_cast<double>(bytes) / run.window_s() / 1e9);
    lat50.push_back(lat.quantile(0.5) / 1e3);
    lat99.push_back(lat.quantile(0.99) / 1e3);
    rtt50.push_back(rtt.quantile(0.5) / 1e3);
    rtt99.push_back(rtt.quantile(0.99) / 1e3);
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  uint64_t init = 0, barrier = 0, fina = 0;
  for (int r = 0; r < kRanks; ++r) {
    init = std::max(init, run.rank(r).init_ns);
    barrier = std::max(barrier, run.rank(r).barrier_ns);
    fina = std::max(fina, run.rank(r).fina_ns);
  }

  json_t j;
  j.open();
  j.key("workload").str(opt.workload->name);
  j.key("phase").str(phase_name(opt.phase));
  j.key("seed").num(opt.seed);
  j.key("traced").boolean(opt.traced);
  j.key("corrupt_expect").boolean(opt.corrupt_expect);
  j.key("selfcheck_ok").boolean(selfcheck_ok);
  j.key("error").str(run.error());
  j.key("attempted").num(failures.attempted);
  j.key("failed").num(failures.failed());
  j.key("fatal").num(failures.fatal);
  j.key("missing").num(failures.missing);
  j.key("duplicate").num(failures.duplicate);
  j.key("corrupt").num(failures.corrupt);
  j.key("good").num(failures.good);
  j.key("stale_stamps").num(failures.stale);
  j.key("setup_s").num(static_cast<double>(run.setup_ns()) / kNsPerSec);
  j.key("runtime").open();
  j.key("init_s").num(static_cast<double>(init) / kNsPerSec);
  j.key("barrier_s").num(static_cast<double>(barrier) / kNsPerSec);
  j.key("fina_s").num(static_cast<double>(fina) / kNsPerSec);
  j.close();
  j.key("e2e").open();
  j.key("rtt_p50_us").num(median(rtt50));
  j.key("rtt_p99_us").num(median(rtt99));
  j.key("msg_rate_mmsgs").num(median(rate));
  j.key("msg_lat_p50_us").num(median(lat50));
  j.key("msg_lat_p99_us").num(median(lat99));
  j.key("bandwidth_gbs").num(median(bw));
  j.key("peak_rss_mb").num(static_cast<double>(usage.ru_maxrss) / 1024.0);
  j.close();
  j.key("samples").open();
  j.key("rtt").num(rtt_n);
  j.key("msg_lat").num(lat_n);
  j.key("windows").num(static_cast<uint64_t>(run.nwindows()));
  j.close();
  write_counters(j, counter_deltas(run));
  if (opt.traced && opt.phase == world_kind_t::timed) write_spans(j, run, opt);
  j.key("host").open();
  j.key("hardware_threads")
      .num(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  j.key("compiler").str(compiler_id());
  j.key("build_type").str(LCI_PERFBENCH_BUILD_TYPE);
  j.key("placement").open_list();
  for (const placement_t& p : run.placement()) {
    j.open();
    j.key("rank").num(static_cast<uint64_t>(p.rank));
    j.key("thread").num(static_cast<uint64_t>(p.thread));
    j.key("cpu").num(static_cast<uint64_t>(p.cpu));
    j.key("pinned").boolean(p.pinned);
    j.close();
  }
  j.close_list();
  j.close();
  j.close();
  std::printf("%s\n", j.text().c_str());
  return 0;
}
