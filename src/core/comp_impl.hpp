// Completion objects (paper Sec. 4.1.4). All built-ins are atomic-based.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "core/lci.hpp"
#include "util/lcrq.hpp"
#include "util/mpmc_ring.hpp"

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
// the LCRQ-based unbounded queue (default) and a fixed-size array ring. The
// array variant blocks (spin+yield) when full: a signal must never be lost.
//
// An eager AM of at most `inline_am_max` bytes travels inside its queue
// entry, and pop() allocates the std::free buffer on the popping thread: a
// consumer that frees right after popping hands the chunk back to its own
// thread's malloc cache, where the next pop finds it. A larger AM's buffer
// (allocated by signal_am, or handed over by signal_owned_am) is owned by
// the queue until it is popped, so freeing a queue with unpopped AMs leaks
// nothing.
class cq_impl_t final : public comp_impl_t {
 public:
  static constexpr std::size_t inline_am_max = 16;

  explicit cq_impl_t(cq_type_t type, std::size_t capacity)
      : comp_impl_t(kind_t::cq), type_(type) {
    if (type_ == cq_type_t::lcrq) {
      lcrq_ = std::make_unique<util::lcrq_t<entry_t>>(1024);
    } else {
      ring_ = std::make_unique<util::mpmc_ring_t<entry_t>>(capacity);
    }
  }

  ~cq_impl_t() override {
    while (auto entry = try_pop())
      if (entry->holds == holds_t::owned_am) std::free(entry->ref.base);
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

  void push(const entry_t& entry) {
    if (type_ == cq_type_t::lcrq) {
      lcrq_->push(entry);
    } else {
      util::backoff_t backoff;
      while (!ring_->try_push(entry)) backoff.spin();
    }
  }

  std::optional<entry_t> try_pop() {
    return type_ == cq_type_t::lcrq ? lcrq_->try_pop() : ring_->try_pop();
  }

  const cq_type_t type_;
  std::unique_ptr<util::lcrq_t<entry_t>> lcrq_;
  std::unique_ptr<util::mpmc_ring_t<entry_t>> ring_;
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
