// Bounded MPMC ring with per-cell sequence numbers (Vyukov-style).
//
// This is the fixed-size array completion queue of paper Sec. 4.1.4 (the
// paper's is fetch-and-add based), and also the segment type of the
// LCRQ-style unbounded queue. Each cell carries a sequence counter; a
// producer or consumer reads the shared tail/head counter, checks that
// cell's sequence, and claims the slot with a compare_exchange_weak on the
// counter (re-reading it when another thread got there first). It then
// hands the cell over through the sequence, so the fast path is one CAS plus
// one cell handoff and threads contending on *different* cells never
// interfere.
//
// The device core's CQ ring and shared receive queue (paper Sec. 4.1.4 /
// 4.2.3) use the same ring with one consumer at a time: try_pop_owned()
// exploits that single-consumership, so a pop is a plain load of the head
// cursor, one acquire load of the cell sequence, and two relaxed/release
// stores — no CAS, no RMW on shared state. The ring does not serialize those
// consumers itself: their owner pops only under a lock of its own (the
// device's lock-model try-lock), whose release/acquire pair orders one
// consumer's head cursor and cell writes before the next consumer's pops —
// consumer *rotation* is safe, concurrent consumption is not. A ring is
// popped through one of the two methods, never both.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <optional>
#include <utility>

#include "util/backoff.hpp"
#include "util/cacheline.hpp"

namespace lci::util {

template <typename T>
class mpmc_ring_t {
 public:
  // Capacity is rounded up to a power of two (minimum 2).
  explicit mpmc_ring_t(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap *= 2;
    capacity_ = cap;
    mask_ = cap - 1;
    cells_ = new cell_t[cap];
    for (std::size_t i = 0; i < cap; ++i)
      cells_[i].sequence.store(i, std::memory_order_relaxed);
  }

  mpmc_ring_t(const mpmc_ring_t&) = delete;
  mpmc_ring_t& operator=(const mpmc_ring_t&) = delete;

  ~mpmc_ring_t() {
    // Destroy any elements still enqueued (destruction is single-threaded).
    while (try_pop_owned().has_value()) {
    }
    delete[] cells_;
  }

  // Non-blocking push. Returns false when the ring is full, leaving `value`
  // untouched: it is moved (or copied) only into a claimed cell, so a caller
  // that retries elsewhere — lcrq_t growing its chain — still owns it.
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

  // Non-blocking pop. Returns nullopt when the ring is empty.
  std::optional<T> try_pop() {
    cell_t* cell;
    std::size_t pos = head_.value.load(std::memory_order_relaxed);
    while (true) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.value.compare_exchange_weak(pos, pos + 1,
                                              std::memory_order_relaxed))
          break;
      } else if (diff < 0) {
        return std::nullopt;  // empty
      } else {
        pos = head_.value.load(std::memory_order_relaxed);
      }
    }
    T* slot = reinterpret_cast<T*>(&cell->storage);
    std::optional<T> result(std::move(*slot));
    slot->~T();
    cell->sequence.store(pos + capacity_, std::memory_order_release);
    return result;
  }

  // Non-blocking pop for the one consumer its owner admits at a time. The
  // caller must be the only consumer: its owner serializes consumers under a
  // lock that also orders one consumer's pops before the next's.
  std::optional<T> try_pop_owned() {
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
};

}  // namespace lci::util
