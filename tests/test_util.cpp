// Unit tests for the concurrency building blocks (paper Sec. 4.1 prereqs).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/backoff.hpp"
#include "util/lcrq.hpp"
#include "util/mpmc_array.hpp"
#include "util/mpmc_ring.hpp"
#include "util/reserved_memory.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/steal_deque.hpp"
#include "util/thread.hpp"

namespace {

// ---------------------------------------------------------------------------
// spinlock / try-lock wrapper
// ---------------------------------------------------------------------------

TEST(Spinlock, MutualExclusion) {
  lci::util::spinlock_t lock;
  long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        std::lock_guard<lci::util::spinlock_t> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 40000);
}

TEST(Spinlock, TryLockFailsWhenHeld) {
  lci::util::spinlock_t lock;
  lock.lock();
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(TryLockWrapper, GuardSemantics) {
  lci::util::try_lock_wrapper_t wrapper;
  {
    auto guard = wrapper.guard();
    EXPECT_TRUE(static_cast<bool>(guard));
    auto second = wrapper.guard();
    EXPECT_FALSE(static_cast<bool>(second));  // miss => retry error upstream
  }
  // Released on scope exit.
  auto again = wrapper.guard();
  EXPECT_TRUE(static_cast<bool>(again));
}

TEST(TryLockWrapper, GuardMoveTransfersOwnership) {
  lci::util::try_lock_wrapper_t wrapper;
  auto guard = wrapper.guard();
  ASSERT_TRUE(static_cast<bool>(guard));
  auto moved = std::move(guard);
  EXPECT_TRUE(static_cast<bool>(moved));
  EXPECT_FALSE(static_cast<bool>(guard));  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(wrapper.guard()));  // still held by `moved`
}

// ---------------------------------------------------------------------------
// MPMC array (Sec. 4.1.1)
// ---------------------------------------------------------------------------

TEST(MpmcArray, PushBackAndGet) {
  lci::util::mpmc_array_t<int*> array(2);
  int values[10];
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(array.push_back(&values[i]), static_cast<std::size_t>(i));
  EXPECT_EQ(array.size(), 10u);
  EXPECT_GE(array.capacity(), 10u);  // doubled from 2
  for (int i = 0; i < 10; ++i) EXPECT_EQ(array.get(i), &values[i]);
}

TEST(MpmcArray, PutOverwrites) {
  lci::util::mpmc_array_t<int*> array(4);
  int a = 1, b = 2;
  array.push_back(&a);
  array.put(0, &b);
  EXPECT_EQ(array.get(0), &b);
  array.put(0, nullptr);
  EXPECT_EQ(array.get(0), nullptr);
}

TEST(MpmcArray, PutExtendGrows) {
  lci::util::mpmc_array_t<int*> array(2);
  int v = 7;
  array.put_extend(100, &v);
  EXPECT_GE(array.size(), 101u);
  EXPECT_EQ(array.get(100), &v);
  EXPECT_EQ(array.get(50), nullptr);  // untouched slots default-initialize
}

// Readers race with appends (and therefore resizes); deferred reclamation
// must keep every observed snapshot valid.
TEST(MpmcArray, ConcurrentReadDuringResize) {
  lci::util::mpmc_array_t<int*> array(2);
  std::vector<std::unique_ptr<int>> storage;
  for (int i = 0; i < 1000; ++i) storage.push_back(std::make_unique<int>(i));

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    lci::util::xoshiro256_t rng(1);
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t size = array.size();
      if (size == 0) continue;
      const std::size_t index = rng.below(size);
      int* p = array.get(index);
      ASSERT_NE(p, nullptr);
      ASSERT_EQ(*p, static_cast<int>(index));  // slot content is stable
    }
  });
  for (int i = 0; i < 1000; ++i) array.push_back(storage[i].get());
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(array.size(), 1000u);
}

// ---------------------------------------------------------------------------
// Bounded MPMC ring (the FAA-array completion queue, Sec. 4.1.4)
// ---------------------------------------------------------------------------

TEST(MpmcRing, FifoWhenSequential) {
  lci::util::mpmc_ring_t<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full
  for (int i = 0; i < 8; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());  // empty
}

TEST(MpmcRing, WrapsAround) {
  lci::util::mpmc_ring_t<int> ring(4);
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(ring.try_push(round));
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, round);
  }
}

TEST(MpmcRing, MoveOnlyElements) {
  lci::util::mpmc_ring_t<std::unique_ptr<int>> ring(4);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(5)));
  auto v = ring.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

TEST(MpmcRing, DestructorReleasesRemainingElements) {
  auto counter = std::make_shared<int>(0);
  struct probe_t {
    std::shared_ptr<int> c;
    ~probe_t() {
      if (c) ++*c;
    }
    probe_t(std::shared_ptr<int> p) : c(std::move(p)) {}
    probe_t(probe_t&&) = default;
    probe_t& operator=(probe_t&&) = default;
  };
  {
    lci::util::mpmc_ring_t<probe_t> ring(8);
    ring.try_push(probe_t(counter));
    ring.try_push(probe_t(counter));
  }
  EXPECT_EQ(*counter, 2);
}

TEST(MpmcRing, ConcurrentSum) {
  lci::util::mpmc_ring_t<int> ring(1024);
  constexpr int producers = 2, consumers = 2, per = 20000;
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&] {
      for (int i = 1; i <= per; ++i) {
        while (!ring.try_push(i)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      while (popped.load() < producers * per) {
        if (auto v = ring.try_pop()) {
          sum.fetch_add(*v);
          popped.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sum.load(), static_cast<long>(producers) * per * (per + 1) / 2);
}

// ---------------------------------------------------------------------------
// LCRQ-style unbounded queue
// ---------------------------------------------------------------------------

TEST(Lcrq, GrowsAcrossSegments) {
  lci::util::lcrq_t<int> queue(4);
  for (int i = 0; i < 100; ++i) queue.push(i);
  EXPECT_GT(queue.segment_count(), 1u);
  EXPECT_EQ(queue.size_approx(), 100u);
  std::multiset<int> seen;
  while (auto v = queue.try_pop()) seen.insert(*v);
  EXPECT_EQ(seen.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(seen.count(i), 1u);
}

// A push that finds its segment full moves on to the next one, so the
// segment's refused try_push must leave the value intact: a move-only
// payload pushed at a segment boundary must arrive whole (the sim wire
// carries eager payloads above 128 B this way once 1024 messages queue).
TEST(Lcrq, GrowthKeepsMoveOnlyPayloads) {
  lci::util::lcrq_t<std::unique_ptr<int>> queue(4);
  for (int i = 0; i < 100; ++i) queue.push(std::make_unique<int>(i));
  EXPECT_GT(queue.segment_count(), 1u);
  for (int i = 0; i < 100; ++i) {
    auto v = queue.try_pop();
    ASSERT_TRUE(v.has_value());
    ASSERT_NE(*v, nullptr) << "payload " << i << " lost at a segment boundary";
    EXPECT_EQ(**v, i);
  }
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(MpmcRing, RefusedPushLeavesTheValue) {
  lci::util::mpmc_ring_t<std::unique_ptr<int>> ring(2);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(1)));
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(2)));
  auto value = std::make_unique<int>(3);
  EXPECT_FALSE(ring.try_push(std::move(value)));  // full
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 3);
}

TEST(Lcrq, SpscFifo) {
  lci::util::lcrq_t<int> queue(8);
  std::thread producer([&] {
    for (int i = 0; i < 50000; ++i) queue.push(i);
  });
  int expect = 0;
  while (expect < 50000) {
    if (auto v = queue.try_pop()) {
      ASSERT_EQ(*v, expect);
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(queue.empty_approx());
}

TEST(Lcrq, MpmcNoLossNoDuplication) {
  lci::util::lcrq_t<long> queue(16);
  constexpr int producers = 3, consumers = 3;
  constexpr long per = 20000;
  std::vector<std::atomic<int>> seen(producers * per);
  for (auto& s : seen) s.store(0);
  std::atomic<long> total{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (long i = 0; i < per; ++i) queue.push(p * per + i);
    });
  }
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      while (total.load() < producers * per) {
        if (auto v = queue.try_pop()) {
          seen[static_cast<std::size_t>(*v)].fetch_add(1);
          total.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

// ---------------------------------------------------------------------------
// steal_deque (packet-pool substrate, Sec. 4.1.2)
// ---------------------------------------------------------------------------

TEST(StealDeque, LifoAtTail) {
  lci::util::steal_deque_t<int> deque(4);
  for (int i = 1; i <= 3; ++i) deque.push_tail(i);
  int out;
  ASSERT_TRUE(deque.pop_tail(&out));
  EXPECT_EQ(out, 3);  // tail is the hot end
  ASSERT_TRUE(deque.pop_tail(&out));
  EXPECT_EQ(out, 2);
}

TEST(StealDeque, StealTakesOldestHalf) {
  lci::util::steal_deque_t<int> deque(4);
  for (int i = 1; i <= 4; ++i) deque.push_tail(i);
  std::vector<int> stolen;
  EXPECT_EQ(deque.try_steal_half(stolen), 2u);
  EXPECT_EQ(stolen, (std::vector<int>{1, 2}));  // head = cold/oldest end
  EXPECT_EQ(deque.size_approx(), 2u);
}

TEST(StealDeque, GrowsPastInitialCapacity) {
  lci::util::steal_deque_t<int> deque(2);
  for (int i = 0; i < 100; ++i) deque.push_tail(i);
  EXPECT_EQ(deque.size_approx(), 100u);
  int out;
  for (int i = 99; i >= 0; --i) {
    ASSERT_TRUE(deque.pop_tail(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(deque.pop_tail(&out));
}

TEST(StealDeque, ConcurrentOwnerAndThieves) {
  lci::util::steal_deque_t<int> deque(8);
  constexpr int items = 50000;
  std::atomic<long> balance{0};  // pushes - (pops + steals)
  std::thread owner([&] {
    int out;
    for (int i = 0; i < items; ++i) {
      deque.push_tail(i);
      balance.fetch_add(1);
      if (i % 3 == 0 && deque.pop_tail(&out)) balance.fetch_sub(1);
    }
  });
  std::atomic<bool> stop{false};
  std::thread thief([&] {
    std::vector<int> loot;
    while (!stop.load()) {
      loot.clear();
      const std::size_t n = deque.try_steal_half(loot);
      balance.fetch_sub(static_cast<long>(n));
      std::this_thread::yield();
    }
  });
  owner.join();
  stop.store(true);
  thief.join();
  int out;
  long remaining = 0;
  while (deque.pop_tail(&out)) ++remaining;
  EXPECT_EQ(remaining, balance.load());
}

// ---------------------------------------------------------------------------
// RNG and thread ids
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicBySeed) {
  lci::util::xoshiro256_t a(7), b(7), c(8);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a(), vb = b(), vc = c();
    all_equal &= (va == vb);
    any_diff |= (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange) {
  lci::util::xoshiro256_t rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(ThreadId, DenseAndStable) {
  const std::size_t mine = lci::util::thread_id();
  EXPECT_EQ(lci::util::thread_id(), mine);  // stable per thread
  std::set<std::size_t> ids;
  std::mutex lock;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      const std::size_t id = lci::util::thread_id();
      std::lock_guard<std::mutex> guard(lock);
      ids.insert(id);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ids.size(), 8u);  // all distinct
  EXPECT_EQ(ids.count(mine), 0u);
  EXPECT_GT(lci::util::thread_id_bound(), mine);
}

// A region that spans a huge page starts on one, so touching it from the
// start fills whole huge pages; a smaller one is page aligned. Both read as
// zero and take writes at either end.
TEST(ReservedMemory, AlignsAndStartsZeroed) {
  constexpr std::size_t huge = lci::util::reserved_memory_t::huge_page_size;
  for (const std::size_t bytes : {std::size_t{100}, huge + 4096, 3 * huge}) {
    const lci::util::reserved_memory_t region(bytes);
    const auto start = reinterpret_cast<uintptr_t>(region.data());
    EXPECT_EQ(start % (bytes >= huge ? huge : 4096), 0u) << bytes;
    EXPECT_EQ(region.data()[0], 0);
    EXPECT_EQ(region.data()[bytes - 1], 0);
    region.data()[0] = 1;
    region.data()[bytes - 1] = 1;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Logging facility
// ---------------------------------------------------------------------------

#include "util/log.hpp"

namespace {

TEST(Log, LevelsGate) {
  const auto original = lci::util::log_level();
  lci::util::set_log_level(lci::util::log_level_t::warn);
  EXPECT_TRUE(lci::util::log_enabled(lci::util::log_level_t::error));
  EXPECT_TRUE(lci::util::log_enabled(lci::util::log_level_t::warn));
  EXPECT_FALSE(lci::util::log_enabled(lci::util::log_level_t::info));
  EXPECT_FALSE(lci::util::log_enabled(lci::util::log_level_t::trace));
  lci::util::set_log_level(lci::util::log_level_t::none);
  EXPECT_FALSE(lci::util::log_enabled(lci::util::log_level_t::error));
  lci::util::set_log_level(original);
}

TEST(Log, NamesRoundTrip) {
  using lci::util::log_level_name;
  using lci::util::log_level_t;
  EXPECT_STREQ(log_level_name(log_level_t::error), "error");
  EXPECT_STREQ(log_level_name(log_level_t::trace), "trace");
  EXPECT_STREQ(log_level_name(log_level_t::none), "none");
}

}  // namespace
