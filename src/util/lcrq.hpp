// LCRQ-style unbounded MPMC queue (paper Sec. 4.1.4).
//
// The paper's default completion queue follows Morrison & Afek's LCRQ [38]:
// a linked list of fetch-and-add rings. We keep that structure — each segment
// is a Vyukov-style ring whose slots are claimed with compare_exchange_weak
// (see mpmc_ring.hpp) and segments are chained when a ring fills up — with
// two simplifications that preserve correctness:
//
//  * Segment capacity doubles along the chain, so the total number of
//    segments is logarithmic in the peak queue size.
//  * Segments are only reclaimed at destruction. A consumer therefore never
//    races with reclamation (no hazard pointers needed), and a producer that
//    read a stale tail pointer can safely complete its push into an earlier
//    segment: consumers scan the chain from the first segment, so no element
//    is ever stranded.
//
// FIFO order is maintained per segment but not across segments under
// contention; LCI's completion queues do not promise inter-thread ordering
// (out-of-order delivery is part of the interface contract, Sec. 3.3.2).
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>

#include "util/mpmc_ring.hpp"

namespace lci::util {

template <typename T>
class lcrq_t {
 public:
  explicit lcrq_t(std::size_t initial_segment_capacity = 1024)
      : head_(new node_t(initial_segment_capacity)) {
    tail_.store(head_, std::memory_order_relaxed);
  }

  lcrq_t(const lcrq_t&) = delete;
  lcrq_t& operator=(const lcrq_t&) = delete;

  ~lcrq_t() {
    node_t* node = head_;
    while (node != nullptr) {
      node_t* next = node->next.load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }

  // Always succeeds; grows the queue when the tail segment is full.
  void push(T value) {
    while (true) {
      node_t* tail = tail_.load(std::memory_order_acquire);
      if (tail->ring.try_push(std::move(value))) return;
      // Tail segment full: extend the chain with a segment twice as large.
      node_t* next = tail->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        auto* fresh = new node_t(tail->ring.capacity() * 2);
        node_t* expected = nullptr;
        if (tail->next.compare_exchange_strong(expected, fresh,
                                               std::memory_order_acq_rel)) {
          next = fresh;
        } else {
          delete fresh;
          next = expected;
        }
      }
      // Help swing the tail; losing the race is fine.
      tail_.compare_exchange_strong(tail, next, std::memory_order_acq_rel);
    }
  }

  // Non-blocking pop; scans the segment chain from the head so a value pushed
  // into an earlier (stale-tail) segment is still found.
  std::optional<T> try_pop() {
    for (node_t* node = head_; node != nullptr;
         node = node->next.load(std::memory_order_acquire)) {
      if (auto value = node->ring.try_pop()) return value;
    }
    return std::nullopt;
  }

  bool empty_approx() const noexcept {
    for (const node_t* node = head_; node != nullptr;
         node = node->next.load(std::memory_order_acquire)) {
      if (!node->ring.empty_approx()) return false;
    }
    return true;
  }

  std::size_t size_approx() const noexcept {
    std::size_t total = 0;
    for (const node_t* node = head_; node != nullptr;
         node = node->next.load(std::memory_order_acquire)) {
      total += node->ring.size_approx();
    }
    return total;
  }

  // Number of segments in the chain (diagnostic; 1 unless the queue ever
  // overflowed its initial segment).
  std::size_t segment_count() const noexcept {
    std::size_t count = 0;
    for (const node_t* node = head_; node != nullptr;
         node = node->next.load(std::memory_order_acquire)) {
      ++count;
    }
    return count;
  }

 private:
  struct node_t {
    explicit node_t(std::size_t capacity) : ring(capacity) {}
    mpmc_ring_t<T> ring;
    std::atomic<node_t*> next{nullptr};
  };

  node_t* const head_;
  std::atomic<node_t*> tail_;
};

}  // namespace lci::util
