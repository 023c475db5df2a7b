// Matching engine tests (paper Sec. 4.1.3 / 3.3.2).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "core/matching.hpp"

namespace {

using engine_t = lci::detail::matching_engine_impl_t;
using type_t = engine_t::type_t;
using lci::matching_policy_t;

TEST(MatchingKey, PoliciesNeverCollide) {
  // The same (rank, tag) under different policies must map to distinct keys.
  const int rank = 5;
  const lci::tag_t tag = 77;
  const auto a = engine_t::default_make_key(rank, tag,
                                            matching_policy_t::rank_tag);
  const auto b = engine_t::default_make_key(rank, tag,
                                            matching_policy_t::rank_only);
  const auto c = engine_t::default_make_key(rank, tag,
                                            matching_policy_t::tag_only);
  const auto d = engine_t::default_make_key(rank, tag,
                                            matching_policy_t::none);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_NE(b, c);
  EXPECT_NE(b, d);
  EXPECT_NE(c, d);
}

TEST(MatchingKey, WildcardsIgnoreTheWildcardedField) {
  // rank_only: any tag matches the same key.
  EXPECT_EQ(
      engine_t::default_make_key(3, 1, matching_policy_t::rank_only),
      engine_t::default_make_key(3, 999, matching_policy_t::rank_only));
  // tag_only: any rank matches the same key.
  EXPECT_EQ(
      engine_t::default_make_key(0, 42, matching_policy_t::tag_only),
      engine_t::default_make_key(17, 42, matching_policy_t::tag_only));
  // rank_tag: both matter.
  EXPECT_NE(
      engine_t::default_make_key(1, 2, matching_policy_t::rank_tag),
      engine_t::default_make_key(1, 3, matching_policy_t::rank_tag));
  EXPECT_NE(
      engine_t::default_make_key(1, 2, matching_policy_t::rank_tag),
      engine_t::default_make_key(2, 2, matching_policy_t::rank_tag));
}

TEST(Matching, SendThenRecvMatches) {
  engine_t engine(64);
  int send_value, recv_value;
  const auto key = engine.make_key(0, 1, matching_policy_t::rank_tag);
  EXPECT_EQ(engine.insert(key, &send_value, type_t::send), nullptr);
  EXPECT_EQ(engine.insert(key, &recv_value, type_t::recv), &send_value);
  EXPECT_EQ(engine.size_slow(), 0u);  // fully drained
}

TEST(Matching, RecvThenSendMatches) {
  engine_t engine(64);
  int send_value, recv_value;
  const auto key = engine.make_key(0, 1, matching_policy_t::rank_tag);
  EXPECT_EQ(engine.insert(key, &recv_value, type_t::recv), nullptr);
  EXPECT_EQ(engine.insert(key, &send_value, type_t::send), &recv_value);
}

TEST(Matching, DifferentKeysDoNotMatch) {
  engine_t engine(64);
  int a, b;
  const auto k1 = engine.make_key(0, 1, matching_policy_t::rank_tag);
  const auto k2 = engine.make_key(0, 2, matching_policy_t::rank_tag);
  EXPECT_EQ(engine.insert(k1, &a, type_t::send), nullptr);
  EXPECT_EQ(engine.insert(k2, &b, type_t::recv), nullptr);
  EXPECT_EQ(engine.size_slow(), 2u);
}

TEST(Matching, FifoPerKey) {
  engine_t engine(64);
  int v1, v2, v3;
  const auto key = engine.make_key(1, 1, matching_policy_t::rank_tag);
  engine.insert(key, &v1, type_t::send);
  engine.insert(key, &v2, type_t::send);
  engine.insert(key, &v3, type_t::send);
  int r;
  EXPECT_EQ(engine.insert(key, &r, type_t::recv), &v1);
  EXPECT_EQ(engine.insert(key, &r, type_t::recv), &v2);
  EXPECT_EQ(engine.insert(key, &r, type_t::recv), &v3);
}

// Exercises the inline fast path overflow: > 2 entries per queue spills to
// the heap deque, > 3 queues per bucket spills to the overflow vector.
TEST(Matching, OverflowPathsPreserveSemantics) {
  engine_t engine(2);  // tiny table: everything collides into 2 buckets
  constexpr int keys = 16, per_key = 5;
  std::vector<std::vector<int>> values(keys, std::vector<int>(per_key));
  for (int k = 0; k < keys; ++k) {
    const auto key = engine.make_key(k, 0, matching_policy_t::rank_tag);
    for (int i = 0; i < per_key; ++i)
      EXPECT_EQ(engine.insert(key, &values[k][i], type_t::send), nullptr);
  }
  EXPECT_EQ(engine.size_slow(),
            static_cast<std::size_t>(keys) * per_key);
  int r;
  for (int k = 0; k < keys; ++k) {
    const auto key = engine.make_key(k, 0, matching_policy_t::rank_tag);
    for (int i = 0; i < per_key; ++i)
      EXPECT_EQ(engine.insert(key, &r, type_t::recv), &values[k][i])
          << "key " << k << " entry " << i;
  }
  EXPECT_EQ(engine.size_slow(), 0u);
}

TEST(Matching, CustomMakeKey) {
  engine_t engine(64);
  // Collapse everything onto one key: any send matches any recv.
  engine.set_make_key([](int, lci::tag_t, matching_policy_t) -> uint64_t {
    return 42;
  });
  int send_value, recv_value;
  const auto k1 = engine.make_key(1, 100, matching_policy_t::rank_tag);
  const auto k2 = engine.make_key(9, 999, matching_policy_t::tag_only);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(engine.insert(k1, &send_value, type_t::send), nullptr);
  EXPECT_EQ(engine.insert(k2, &recv_value, type_t::recv), &send_value);
}

// Concurrent stress: every send matched exactly once, nothing lost.
TEST(Matching, ConcurrentSendRecvBalance) {
  engine_t engine(1024);
  constexpr int threads = 4;
  constexpr int per_thread = 20000;
  std::atomic<long> matches{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      int dummy;
      for (int i = 0; i < per_thread; ++i) {
        // Half the threads insert sends, half insert recvs, same key space.
        const auto key = engine.make_key(i % 97, 0,
                                         matching_policy_t::rank_tag);
        const auto type = (t % 2 == 0) ? type_t::send : type_t::recv;
        if (engine.insert(key, &dummy, type) != nullptr) matches.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  // Every match removes one send and one recv:
  // remaining = inserted - 2 * matches.
  const long total = static_cast<long>(threads) * per_thread;
  EXPECT_EQ(engine.size_slow(),
            static_cast<std::size_t>(total - 2 * matches.load()));
  EXPECT_GT(matches.load(), 0);
}

TEST(Matching, BucketCountRoundsToPowerOfTwo) {
  engine_t engine(1000);
  EXPECT_EQ(engine.num_buckets(), 1024u);
  engine_t tiny(0);
  EXPECT_GE(tiny.num_buckets(), 2u);
}

// ---------------------------------------------------------------------------
// Chunked table: a chunk of buckets is built when a key first reaches it
// ---------------------------------------------------------------------------

// Four threads race to publish the chunks: two insert one send per key, two
// insert one receive per key, all walking the keys in the same order. Each
// key matches exactly once, with its own partner.
TEST(Matching, ConcurrentFirstUseOfChunksMatchesEachKeyOnce) {
  engine_t engine(65536);
  EXPECT_EQ(engine.chunks_published(), 0u);
  constexpr int nkeys = 4096;
  std::vector<int> sends(nkeys), recvs(nkeys);
  std::vector<std::atomic<int>> matched(nkeys);
  std::atomic<int> wrong{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const bool send = t < 2;
      while (!go.load()) std::this_thread::yield();
      for (int k = t % 2; k < nkeys; k += 2) {
        const auto key =
            engine.make_key(k % 7, static_cast<lci::tag_t>(k),
                            matching_policy_t::rank_tag);
        void* mine = send ? static_cast<void*>(&sends[k]) : &recvs[k];
        void* partner = send ? static_cast<void*>(&recvs[k]) : &sends[k];
        void* got = engine.insert(key, mine, send ? type_t::send
                                                  : type_t::recv);
        if (got == nullptr) continue;
        if (got != partner) wrong.fetch_add(1);
        matched[k].fetch_add(1);
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  for (int k = 0; k < nkeys; ++k) ASSERT_EQ(matched[k].load(), 1) << k;
  EXPECT_EQ(engine.size_slow(), 0u);
  EXPECT_GE(engine.chunks_published(), 8u);
}

// size_slow and purge_if walk every published chunk; a purge of a fresh
// engine builds none.
TEST(Matching, WalksSeeEntriesInEveryChunk) {
  engine_t fresh(65536);
  std::vector<std::pair<void*, type_t>> out;
  EXPECT_EQ(fresh.purge_if([](void*, type_t) { return true; }, out), 0u);
  EXPECT_EQ(fresh.size_slow(), 0u);
  EXPECT_EQ(fresh.chunks_published(), 0u);

  engine_t engine(65536);
  constexpr int nkeys = 8192;
  std::vector<int> values(nkeys);
  for (int k = 0; k < nkeys; ++k) {
    const auto key = engine.make_key(1, static_cast<lci::tag_t>(k),
                                     matching_policy_t::rank_tag);
    ASSERT_EQ(engine.insert(key, &values[k], type_t::recv), nullptr);
  }
  ASSERT_EQ(engine.chunks_published(), engine.chunk_count());
  EXPECT_EQ(engine.size_slow(), static_cast<std::size_t>(nkeys));
  // Purge the even values, then the rest.
  const auto is_even = [&](void* v, type_t) {
    return (static_cast<int*>(v) - values.data()) % 2 == 0;
  };
  EXPECT_EQ(engine.purge_if(is_even, out), static_cast<std::size_t>(nkeys / 2));
  EXPECT_EQ(engine.size_slow(), static_cast<std::size_t>(nkeys / 2));
  for (const auto& [v, type] : out) {
    EXPECT_TRUE(is_even(v, type));
    EXPECT_EQ(type, type_t::recv);
  }
  out.clear();
  EXPECT_EQ(engine.purge_if([](void*, type_t) { return true; }, out),
            static_cast<std::size_t>(nkeys / 2));
  EXPECT_EQ(engine.size_slow(), 0u);
}

}  // namespace
