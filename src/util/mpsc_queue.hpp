// Bounded lock-free MPSC queue with an explicit consumer-claim protocol.
//
// The receive-path completion queue (paper Sec. 4.1.4 / 4.2.3): many
// producers — wire delivery and local completions posted from any thread —
// and exactly one consumer at a time, the polling thread that currently
// holds the claim. Producers use the Vyukov sequence-cell protocol (one CAS
// on the shared tail plus one cell handoff, producers on different cells
// never interfere). The consumer side exploits single-consumership: pop is
// a plain load of the head cursor, one acquire load of the cell sequence,
// and two relaxed/release stores — no CAS, no RMW on shared state.
//
// Single-consumership is not assumed, it is enforced: consumers must take
// the claim (one CAS on an otherwise-uncontended flag) via
// try_claim_consumer() and pop only while holding the guard. The claim
// release-stores the flag so the head cursor and cell states written by one
// consumer happen-before the next claimant's pops — consumer *rotation*
// (different progress threads claiming in turn) is safe, concurrent
// consumption is not. An owner that already serializes its consumers under
// a lock or claim of its own (the sim SRQ, popped by whoever holds its
// device's poll) may skip this queue's claim; that lock gives the same
// ordering. empty_approx() is designed to be called without the claim: an
// empty poll costs two relaxed loads and zero RMWs, which is what makes
// polling N idle shards cheap.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <optional>
#include <utility>

#include "util/cacheline.hpp"

namespace lci::util {

template <typename T>
class mpsc_queue_t {
 public:
  // Capacity is rounded up to a power of two (minimum 2).
  explicit mpsc_queue_t(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap *= 2;
    capacity_ = cap;
    mask_ = cap - 1;
    cells_ = new cell_t[cap];
    for (std::size_t i = 0; i < cap; ++i)
      cells_[i].sequence.store(i, std::memory_order_relaxed);
  }

  mpsc_queue_t(const mpsc_queue_t&) = delete;
  mpsc_queue_t& operator=(const mpsc_queue_t&) = delete;

  ~mpsc_queue_t() {
    // Destroy any elements still enqueued (destruction is single-threaded).
    std::size_t pos = head_.value.load(std::memory_order_relaxed);
    while (true) {
      cell_t* cell = &cells_[pos & mask_];
      if (cell->sequence.load(std::memory_order_acquire) != pos + 1) break;
      reinterpret_cast<T*>(&cell->storage)->~T();
      ++pos;
    }
    delete[] cells_;
  }

  // Non-blocking push; any thread. Returns false when the ring is full,
  // leaving `value` untouched (it is moved or copied only into a claimed
  // cell).
  template <typename U>
  bool try_push(U&& value) {
    cell_t* cell;
    std::size_t pos = tail_.value.load(std::memory_order_relaxed);
    while (true) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (diff == 0) {
        if (tail_.value.compare_exchange_weak(pos, pos + 1,
                                              std::memory_order_relaxed))
          break;
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = tail_.value.load(std::memory_order_relaxed);
      }
    }
    new (&cell->storage) T(std::forward<U>(value));
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  // RAII consumer claim. Exactly one guard is live at a time; pops require
  // a live guard. Movable so a poll function can return early.
  class consumer_guard_t {
   public:
    consumer_guard_t() = default;
    explicit consumer_guard_t(mpsc_queue_t* owner) : owner_(owner) {}
    consumer_guard_t(consumer_guard_t&& other) noexcept
        : owner_(other.owner_) {
      other.owner_ = nullptr;
    }
    consumer_guard_t& operator=(consumer_guard_t&& other) noexcept {
      if (this != &other) {
        release();
        owner_ = other.owner_;
        other.owner_ = nullptr;
      }
      return *this;
    }
    consumer_guard_t(const consumer_guard_t&) = delete;
    consumer_guard_t& operator=(const consumer_guard_t&) = delete;
    ~consumer_guard_t() { release(); }

    explicit operator bool() const noexcept { return owner_ != nullptr; }

    void release() {
      if (owner_ != nullptr) {
        // Publishes this consumer's head/cell writes to the next claimant.
        owner_->consumer_busy_.value.store(false, std::memory_order_release);
        owner_ = nullptr;
      }
    }

   private:
    mpsc_queue_t* owner_ = nullptr;
  };

  // One CAS when the queue is unclaimed; a single relaxed load (no RMW, no
  // cache-line ownership transfer) when another thread already holds it.
  consumer_guard_t try_claim_consumer() {
    if (consumer_busy_.value.load(std::memory_order_relaxed))
      return consumer_guard_t{};
    bool expected = false;
    if (!consumer_busy_.value.compare_exchange_strong(
            expected, true, std::memory_order_acquire))
      return consumer_guard_t{};
    return consumer_guard_t{this};
  }

  // Non-blocking pop. The caller must be the only consumer: it holds the
  // consumer claim, or its owner serializes consumers by other means that
  // also order one consumer's pops before the next's (the sim SRQ pops
  // under its device's polling lock or CQ claim).
  std::optional<T> try_pop() {
    const std::size_t pos = head_.value.load(std::memory_order_relaxed);
    cell_t* cell = &cells_[pos & mask_];
    const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
    if (seq != pos + 1) return std::nullopt;  // empty (or producer mid-write)
    T* slot = reinterpret_cast<T*>(&cell->storage);
    std::optional<T> result(std::move(*slot));
    slot->~T();
    cell->sequence.store(pos + capacity_, std::memory_order_release);
    head_.value.store(pos + 1, std::memory_order_relaxed);
    return result;
  }

  std::size_t capacity() const noexcept { return capacity_; }

  // Approximate size; exact only in quiescence. Safe from any thread.
  std::size_t size_approx() const noexcept {
    const std::size_t tail = tail_.value.load(std::memory_order_relaxed);
    const std::size_t head = head_.value.load(std::memory_order_relaxed);
    return tail >= head ? tail - head : 0;
  }

  // The idle fast path: two relaxed loads, no RMW. A concurrent push may be
  // missed this round; the caller polls again, so visibility is eventual
  // (the doorbell/poll loop, not this load, is the wakeup mechanism).
  bool empty_approx() const noexcept { return size_approx() == 0; }

 private:
  struct cell_t {
    std::atomic<std::size_t> sequence;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  cell_t* cells_ = nullptr;
  padded<std::atomic<std::size_t>> head_{};
  padded<std::atomic<std::size_t>> tail_{};
  padded<std::atomic<bool>> consumer_busy_{};
};

}  // namespace lci::util
