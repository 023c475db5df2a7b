// Completion objects (paper Sec. 4.1.4). All built-ins are atomic-based.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "core/lci.hpp"
#include "util/cacheline.hpp"
#include "util/lcrq.hpp"
#include "util/mpmc_ring.hpp"
#include "util/thread.hpp"

namespace lci::detail {

// A completion object is a functor with a virtual signal method taking a
// status (Sec. 3.2.5). Its kind is fixed at construction, so the typed API
// calls (cq_pop, sync_test) check it without a dynamic_cast.
class comp_impl_t {
 public:
  using kind_t = comp_attr_t::kind_t;

  explicit comp_impl_t(kind_t kind) : kind_(kind) {}
  virtual ~comp_impl_t() = default;
  virtual void signal(const status_t& status) = 0;

  // Delivers an eager active message whose payload is `size` bytes at
  // `data` (Sec. 3.3.1); `status` carries its code, rank and tag, and no
  // buffer or user_context. The consumer gets the payload in a std::malloc'd
  // `status.buffer` that it releases with std::free. By default the buffer
  // is allocated and filled here, on the signaling (progress) thread.
  virtual void signal_am(const status_t& status, const void* data,
                         std::size_t size) {
    status_t delivered = status;
    delivered.buffer = buffer_t{copy_to_malloc(data, size), size};
    signal(delivered);
  }

  // Delivers an active message whose payload already sits in a std::malloc'd
  // `status.buffer` (a rendezvous AM at FIN); the consumer frees it. By
  // default this is a plain signal.
  virtual void signal_owned_am(const status_t& status) { signal(status); }

  kind_t kind() const noexcept { return kind_; }

 protected:
  // A std::malloc'd copy of an AM payload; never null, even when empty.
  static void* copy_to_malloc(const void* data, std::size_t size) {
    void* buf = std::malloc(size ? size : 1);
    std::memcpy(buf, data, size);
    return buf;
  }

 private:
  const kind_t kind_;
};

// Handler: essentially a function; runs inline in the signaling context
// (usually the progress engine), so it must be short and must not block.
class handler_impl_t final : public comp_impl_t {
 public:
  explicit handler_impl_t(handler_fn_t fn)
      : comp_impl_t(kind_t::handler), fn_(std::move(fn)) {}
  void signal(const status_t& status) override { fn_(status); }

 private:
  handler_fn_t fn_;
};

// Completion queue: two implementations selectable per paper Sec. 4.1.4 —
// the LCRQ-style unbounded queue (default; util/lcrq.hpp, a chain of rings
// that doubles when full) and a fixed-size array ring (util/mpmc_ring.hpp).
// Both claim cells with compare-exchange.
//
// Lanes. The queue is split into up to `lane_count` lanes, each a queue of
// the CQ's type. A signal goes into lane `util::thread_id() % lane_count`,
// so a thread that runs progress() and then pops, as an AMT worker does,
// pops what it pushed without a cache line leaving its core. pop() tries the
// caller's own lane first, then every other built lane from a per-thread
// rotating start, so no lane starves; it reports empty only after every
// built lane read empty, and an empty check is loads only. A lane is built
// the first time a thread maps to it and is published with a CAS. The first
// lane built lives inside the CQ, and while it is the only one pop() reads
// it directly, so a CQ that one thread signals pays what a single queue did.
// An array CQ's `capacity` bounds each lane: a signal into a full lane spins
// until a pop makes room, so a signal is never lost.
//
// Ordering: one thread's signals reach any single consumer in signal order
// (an lcrq lane that two signaling threads share, their ids equal modulo
// lane_count, can reorder them across a segment it grows; util/lcrq.hpp).
// Nothing is promised across signaling threads (Sec. 3.3.2).
//
// An eager AM of at most `inline_am_max` bytes travels inside its queue
// entry, and pop() allocates the std::free buffer on the popping thread: a
// consumer that frees right after popping hands the chunk back to its own
// thread's malloc cache, where the next pop finds it. A larger AM's buffer
// (allocated by signal_am, or handed over by signal_owned_am) is owned by
// the queue until it is popped, so freeing a queue with unpopped AMs, in any
// lane, leaks nothing.
class cq_impl_t final : public comp_impl_t {
 public:
  static constexpr std::size_t inline_am_max = 16;
  // Eight lane pointers fill one cache line, which a scan reads; eight also
  // gives every signaling thread of the shapes measured here its own lane
  // (fig3 and fig5 sweep to 8 threads, perfbench runs 2 per rank), while a
  // CQ holds at most eight queues. A power of two, so the index is a mask.
  static constexpr std::size_t lane_count = 8;

  explicit cq_impl_t(cq_type_t type, std::size_t capacity)
      : comp_impl_t(kind_t::cq),
        type_(type),
        capacity_(capacity),
        first_(type, capacity) {}
  // lanes_ points into this object (first_).
  cq_impl_t(const cq_impl_t&) = delete;
  cq_impl_t& operator=(const cq_impl_t&) = delete;

  ~cq_impl_t() override {
    for (std::atomic<lane_t*>& slot : lanes_) {
      lane_t* lane = slot.load(std::memory_order_acquire);
      if (lane == nullptr) continue;
      while (auto entry = lane->try_pop())
        if (entry->holds == holds_t::owned_am) std::free(entry->ref.base);
      if (lane != &first_) delete lane;
    }
  }

  void signal(const status_t& status) override {
    push(entry_t::of(status, holds_t::status));
  }

  void signal_am(const status_t& status, const void* data,
                 std::size_t size) override {
    if (size > inline_am_max) {
      status_t delivered = status;
      delivered.buffer = buffer_t{copy_to_malloc(data, size), size};
      push(entry_t::of(delivered, holds_t::owned_am));
      return;
    }
    entry_t entry = entry_t::of(status, holds_t::inline_am);
    entry.size = size;
    std::memcpy(entry.am, data, size);
    push(entry);
  }

  void signal_owned_am(const status_t& status) override {
    push(entry_t::of(status, holds_t::owned_am));
  }

  bool pop(status_t* out) {
    const std::optional<entry_t> entry = try_pop();
    if (!entry) return false;
    out->error = entry->error;
    out->rank = entry->rank;
    out->tag = entry->tag;
    if (entry->holds == holds_t::inline_am) {
      out->buffer = buffer_t{copy_to_malloc(entry->am, entry->size),
                             entry->size};
      out->user_context = nullptr;
    } else {
      out->buffer = buffer_t{entry->ref.base, entry->size};
      out->user_context = entry->ref.user_context;
    }
    return true;
  }

  cq_type_t type() const noexcept { return type_; }

 private:
  enum class holds_t : uint8_t {
    status,     // a status as signaled; its buffer is not the queue's
    inline_am,  // an AM payload in `am`
    owned_am,   // a malloc'd AM buffer the queue frees if nobody pops it
  };

  // A status in the size of status_t (so a ring cell stays 48 B): `holds`
  // sits in the padding after the error code, and an inline AM payload
  // overlays `buffer.base` and `user_context`, which an AM delivery does not
  // set.
  struct entry_t {
    error_t error;
    holds_t holds;
    int rank;
    tag_t tag;
    std::size_t size;  // buffer.size
    union {
      struct {
        void* base;
        void* user_context;
      } ref;
      unsigned char am[inline_am_max];
    };

    static entry_t of(const status_t& status, holds_t holds) {
      entry_t entry;
      entry.error = status.error;
      entry.holds = holds;
      entry.rank = status.rank;
      entry.tag = status.tag;
      entry.size = status.buffer.size;
      entry.ref.base = status.buffer.base;
      entry.ref.user_context = status.user_context;
      return entry;
    }
  };
  static_assert(sizeof(entry_t) == sizeof(status_t));

  // One lane: a queue of the CQ's type.
  class lane_t {
   public:
    lane_t(cq_type_t type, std::size_t capacity) {
      if (type == cq_type_t::lcrq) {
        lcrq_.emplace(1024);
      } else {
        ring_.emplace(capacity);
      }
    }

    void push(const entry_t& entry) {
      if (lcrq_) {
        lcrq_->push(entry);
        return;
      }
      util::backoff_t backoff;
      while (!ring_->try_push(entry)) backoff.spin();
    }

    std::optional<entry_t> try_pop() {
      return lcrq_ ? lcrq_->try_pop() : ring_->try_pop();
    }

   private:
    std::optional<util::lcrq_t<entry_t>> lcrq_;
    std::optional<util::mpmc_ring_t<entry_t>> ring_;
  };

  static std::size_t own_lane() noexcept {
    return util::thread_id() & (lane_count - 1);
  }

  // Inlined into each signal: a call here cost a one-thread CQ about 8% of
  // its push/pop rate (fig5's 1-thread array cell).
  [[gnu::always_inline]] void push(const entry_t& entry) {
    const std::size_t index = own_lane();
    lane_t* lane = lanes_[index].load(std::memory_order_acquire);
    if (lane == nullptr) [[unlikely]]
      lane = build_lane(index);
    lane->push(entry);
  }

  std::optional<entry_t> try_pop() {
    // While the inline lane is the only one, every entry is in it.
    if (!many_lanes_.load(std::memory_order_acquire)) return first_.try_pop();
    const std::size_t own = own_lane();
    if (lane_t* lane = lanes_[own].load(std::memory_order_acquire)) {
      if (auto entry = lane->try_pop()) return entry;
    }
    static thread_local std::size_t rotor = 0;
    const std::size_t start = rotor++;
    for (std::size_t k = 0; k < lane_count; ++k) {
      const std::size_t index = (start + k) & (lane_count - 1);
      if (index == own) continue;
      if (lane_t* lane = lanes_[index].load(std::memory_order_acquire)) {
        if (auto entry = lane->try_pop()) return entry;
      }
    }
    return std::nullopt;
  }

  // Publishes a lane at `index` and returns the lane there. The first lane
  // built is the inline one; a thread that loses the race for `index`
  // hands it back, or frees the lane it built.
  [[gnu::noinline]] lane_t* build_lane(std::size_t index) {
    const bool take_first =
        !first_taken_.exchange(true, std::memory_order_acq_rel);
    lane_t* fresh = take_first ? &first_ : new lane_t(type_, capacity_);
    lane_t* built = nullptr;
    if (!lanes_[index].compare_exchange_strong(built, fresh,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      if (take_first) {
        first_taken_.store(false, std::memory_order_release);
      } else {
        delete fresh;
      }
      return built;
    }
    if (!take_first) many_lanes_.store(true, std::memory_order_release);
    return fresh;
  }

  const cq_type_t type_;
  const std::size_t capacity_;
  // The lane of each index, or null until a thread maps to it; read by
  // every push and by a pop once many_lanes_ is set.
  alignas(util::cache_line_size) std::atomic<lane_t*> lanes_[lane_count] = {};
  std::atomic<bool> first_taken_{false};
  std::atomic<bool> many_lanes_{false};  // a lane other than first_ exists
  lane_t first_;
};

// Synchronizer: similar to an MPI request but accepts `threshold` signals
// before becoming ready. Implemented with a fixed-size status array guarded
// by two atomic counters: `arrivals` claims a slot, `committed` publishes the
// write. Reuse discipline: after test() returns true the synchronizer resets;
// new signals may only be issued after the reset (single logical consumer).
class sync_impl_t final : public comp_impl_t {
 public:
  explicit sync_impl_t(std::size_t threshold)
      : comp_impl_t(kind_t::sync),
        threshold_(threshold ? threshold : 1),
        slots_(threshold_) {}

  void signal(const status_t& status) override {
    const std::size_t i = arrivals_.fetch_add(1, std::memory_order_acq_rel);
    // Checked in every build: the slot past the threshold is past slots_.
    if (i >= threshold_)
      throw fatal_error_t("synchronizer signaled more than its threshold");
    slots_[i] = status;
    committed_.fetch_add(1, std::memory_order_release);
  }

  bool test(status_t* out) {
    if (committed_.load(std::memory_order_acquire) != threshold_) return false;
    if (out != nullptr) {
      for (std::size_t i = 0; i < threshold_; ++i) out[i] = slots_[i];
    }
    committed_.store(0, std::memory_order_relaxed);
    arrivals_.store(0, std::memory_order_release);
    return true;
  }

  std::size_t threshold() const noexcept { return threshold_; }

 private:
  const std::size_t threshold_;
  std::vector<status_t> slots_;
  std::atomic<std::size_t> arrivals_{0};
  std::atomic<std::size_t> committed_{0};
};

}  // namespace lci::detail
