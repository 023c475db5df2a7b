// Bounded lock-free MPSC queue.
//
// The sim fabric's completion queue and shared receive queue (paper Sec.
// 4.1.4 / 4.2.3): many producers — posts from any thread — and exactly one
// consumer at a time. Producers use the Vyukov sequence-cell protocol (one
// CAS on the shared tail plus one cell handoff, producers on different
// cells never interfere). The consumer side exploits single-consumership:
// pop is a plain load of the head cursor, one acquire load of the cell
// sequence, and two relaxed/release stores — no CAS, no RMW on shared
// state.
//
// The queue does not serialize its consumers itself: the owner pops only
// under a lock of its own (the sim device's lock-model try-lock), whose
// release/acquire pair orders one consumer's head cursor and cell writes
// before the next consumer's pops — consumer *rotation* is safe, concurrent
// consumption is not. empty_approx() needs no lock: an empty poll costs two
// relaxed loads and zero RMWs, which is what makes polling N idle shards
// cheap.
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

  // Non-blocking pop. The caller must be the only consumer: its owner
  // serializes consumers under a lock that also orders one consumer's pops
  // before the next's.
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
};

}  // namespace lci::util
