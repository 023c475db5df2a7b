// Per-thread deque with head-end stealing (paper Sec. 4.1.2).
//
// The packet pool stores packets in one such deque per thread. The owning
// thread pushes and pops at the *tail* (hot end, best cache locality: the
// most recently freed packet is re-used first); thieves take *half* the
// packets from the *head* (cold end). Thread safety comes from a per-deque
// spinlock, so under normal operation (every thread working its own deque)
// there is no contention at all. The size is written only under the lock,
// but it is a relaxed atomic so size_approx() may read it from any thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "util/cacheline.hpp"
#include "util/spinlock.hpp"

namespace lci::util {

template <typename T>
class alignas(cache_line_size) steal_deque_t {
 public:
  explicit steal_deque_t(std::size_t initial_capacity = 64) {
    buffer_.resize(initial_capacity ? initial_capacity : 1);
  }

  steal_deque_t(const steal_deque_t&) = delete;
  steal_deque_t& operator=(const steal_deque_t&) = delete;

  // Owner-side push at the tail.
  void push_tail(T value) {
    std::lock_guard<spinlock_t> guard(lock_);
    const std::size_t size = size_.load(std::memory_order_relaxed);
    if (size == buffer_.size()) grow_locked(size);
    buffer_[index(head_ + size)] = value;
    size_.store(size + 1, std::memory_order_relaxed);
  }

  // Owner-side pop at the tail. Returns false when empty.
  bool pop_tail(T* out) {
    std::lock_guard<spinlock_t> guard(lock_);
    const std::size_t size = size_.load(std::memory_order_relaxed);
    if (size == 0) return false;
    size_.store(size - 1, std::memory_order_relaxed);
    *out = buffer_[index(head_ + size - 1)];
    return true;
  }

  // Thief-side: removes ceil(size/2) elements from the head into `out`.
  // Returns the number of elements stolen (0 when empty or when the lock
  // would block — stealing is opportunistic, so we only try-lock).
  std::size_t try_steal_half(std::vector<T>& out) {
    if (!lock_.try_lock()) return 0;
    const std::size_t size = size_.load(std::memory_order_relaxed);
    const std::size_t count = (size + 1) / 2;
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(buffer_[index(head_)]);
      head_ = index(head_ + 1);
    }
    size_.store(size - count, std::memory_order_relaxed);
    lock_.unlock();
    return count;
  }

  std::size_t size_approx() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t index(std::size_t i) const noexcept { return i % buffer_.size(); }

  // Caller holds lock_; `size` elements are queued.
  void grow_locked(std::size_t size) {
    std::vector<T> bigger(buffer_.size() * 2);
    for (std::size_t i = 0; i < size; ++i) bigger[i] = buffer_[index(head_ + i)];
    buffer_.swap(bigger);
    head_ = 0;
  }

  spinlock_t lock_;
  std::vector<T> buffer_;
  std::size_t head_ = 0;  // index of the oldest element
  std::atomic<std::size_t> size_{0};  // written under lock_
};

}  // namespace lci::util
