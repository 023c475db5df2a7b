// Matching engine (paper Sec. 4.1.3).
//
// Matches incoming sends with user-posted receives on the target side.
// Structure: a hashtable of `num_buckets` buckets (default 65536), each
// protected by its own spinlock — far more buckets than threads, so
// contention is rare. Each bucket holds a list of per-key queues; a queue
// holds either pending sends or pending receives for one key (never both: a
// complementary arrival matches instead of queueing). The fast path uses
// fixed-size arrays — up to 3 queues inline per bucket and up to 2 entries
// inline per queue — so a low-load-factor insertion costs a single cache
// miss; overflow spills to heap containers. The table is the same at every
// device shard count: with far more buckets than threads, a shard's keys
// rarely share a bucket lock with another shard's. The table's storage is
// one block, reserved but not written (util/reserved_memory.hpp); its
// buckets are constructed in place in chunks of `chunk_buckets`, the first
// time a key hashes into a chunk, so an engine touches only the chunks its
// keys reach. Being one block, the table stays apart from the small heap
// objects the matching paths allocate, whatever order chunks are built in.
// Note: set_make_key must be called before any traffic — entries inserted
// under the default key derivation hash differently from a custom key.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/lci.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"
#include "util/reserved_memory.hpp"
#include "util/spinlock.hpp"

namespace lci::detail {

class matching_engine_impl_t {
 public:
  using key_t = uint64_t;
  enum class type_t : uint8_t { send, recv };

  // Custom key derivation (Sec. 3.3.2: users may supply their own make_key).
  using make_key_fn_t = std::function<key_t(int rank, tag_t tag,
                                            matching_policy_t policy)>;

  // num_buckets rounded up to a power of two, in chunks of chunk_buckets
  // (one chunk when the table is smaller); no chunk is built yet.
  explicit matching_engine_impl_t(std::size_t num_buckets)
      : mask_(round_pow2(num_buckets) - 1),
        chunk_len_(std::min(chunk_buckets, mask_ + 1)),
        chunk_shift_(std::countr_zero(chunk_len_)),
        // A page no chunk reaches is never touched. Keys land at random, so
        // with huge pages a chunk's first key touches its whole huge page
        // (the default table is six), but a lookup no longer takes a page
        // walk of its own.
        storage_((mask_ + 1) * sizeof(bucket_t)),
        buckets_(reinterpret_cast<bucket_t*>(storage_.data())),
        state_(std::make_unique<std::atomic<uint8_t>[]>(chunk_count())) {}

  ~matching_engine_impl_t() {
    for (std::size_t c = 0; c < chunk_count(); ++c)
      if (state_[c].load(std::memory_order_relaxed) == built)
        std::destroy_n(chunk(c), chunk_len_);
  }
  matching_engine_impl_t(const matching_engine_impl_t&) = delete;
  matching_engine_impl_t& operator=(const matching_engine_impl_t&) = delete;

  // Default key: [2 bits policy][30 bits rank][32 bits tag] with the wildcard
  // component zeroed, so different policies never collide.
  static key_t default_make_key(int rank, tag_t tag,
                                matching_policy_t policy) {
    assert(rank >= 0 && rank < (1 << 30));
    const auto p = static_cast<key_t>(policy) << 62;
    switch (policy) {
      case matching_policy_t::rank_tag:
        return p | (static_cast<key_t>(rank) << 32) | tag;
      case matching_policy_t::rank_only:
        return p | (static_cast<key_t>(rank) << 32);
      case matching_policy_t::tag_only:
        return p | tag;
      case matching_policy_t::none:
        return p;
    }
    return p;
  }

  void set_make_key(make_key_fn_t fn) { make_key_fn_ = std::move(fn); }

  key_t make_key(int rank, tag_t tag, matching_policy_t policy) const {
    return make_key_fn_ ? make_key_fn_(rank, tag, policy)
                        : default_make_key(rank, tag, policy);
  }

  // Tries to insert (key, value) with the given type. If an entry with the
  // same key and the complementary type exists, removes and returns the
  // oldest such value instead of inserting; otherwise inserts and returns
  // nullptr.
  void* insert(key_t key, void* value, type_t type) {
    bucket_t& bucket = bucket_for(key);
    std::lock_guard<util::spinlock_t> guard(bucket.lock);
    // Fast-path scan.
    for (std::size_t i = 0; i < bucket.nfast; ++i) {
      if (bucket.fast[i].key == key)
        return resolve(bucket, /*in_fast=*/true, i, value, type);
    }
    if (bucket.overflow) {
      for (std::size_t i = 0; i < bucket.overflow->size(); ++i) {
        if ((*bucket.overflow)[i].key == key)
          return resolve(bucket, /*in_fast=*/false, i, value, type);
      }
    }
    // No queue for this key yet: create one.
    if (bucket.nfast < fast_queues) {
      slot_t& slot = bucket.fast[bucket.nfast++];
      slot.reset(key, type);
      slot.push(value);
    } else {
      if (!bucket.overflow) bucket.overflow = std::make_unique<overflow_t>();
      bucket.overflow->emplace_back();
      slot_t& slot = bucket.overflow->back();
      slot.reset(key, type);
      slot.push(value);
    }
    return nullptr;
  }

  // Removes one specific queued entry (pointer identity). Returns true when
  // the entry was found and removed — the caller then owns it exclusively.
  // False means a complementary arrival already consumed it (or it was never
  // queued): whoever popped it owns its completion. The bucket lock is the
  // arbitration point between cancel/timeout/purge and the matching paths.
  bool remove(key_t key, void* value) {
    bucket_t& bucket = bucket_for(key);
    std::lock_guard<util::spinlock_t> guard(bucket.lock);
    for (std::size_t i = 0; i < bucket.nfast; ++i) {
      if (bucket.fast[i].key == key)
        return remove_from_slot(bucket, /*in_fast=*/true, i, value);
    }
    if (bucket.overflow) {
      for (std::size_t i = 0; i < bucket.overflow->size(); ++i) {
        if ((*bucket.overflow)[i].key == key)
          return remove_from_slot(bucket, /*in_fast=*/false, i, value);
      }
    }
    return false;
  }

  // Removes every queued entry the predicate claims; pred(value, type) must
  // be side-effect free. Removed entries are appended to `out` so the caller
  // can complete or recycle them (it now owns them exclusively). Takes every
  // bucket lock of every published chunk in turn — a purge-rate operation,
  // not a fast-path one.
  template <class Pred>
  std::size_t purge_if(Pred&& pred,
                       std::vector<std::pair<void*, type_t>>& out) {
    std::size_t removed = 0;
    std::vector<void*> vals;
    for_each_published_bucket([&](bucket_t& bucket) {
      std::lock_guard<util::spinlock_t> guard(bucket.lock);
      // Backwards so remove_slot's swap-from-back only re-seats slots this
      // loop has already visited.
      for (std::size_t i = bucket.nfast; i-- > 0;)
        removed += purge_slot(bucket, /*in_fast=*/true, i, pred, out, vals);
      if (bucket.overflow) {
        for (std::size_t i = bucket.overflow->size(); i-- > 0;)
          removed += purge_slot(bucket, /*in_fast=*/false, i, pred, out, vals);
      }
    });
    return removed;
  }

  // Total queued entries (for tests; takes every published bucket lock).
  std::size_t size_slow() const {
    std::size_t total = 0;
    for_each_published_bucket([&](const bucket_t& bucket) {
      std::lock_guard<util::spinlock_t> guard(bucket.lock);
      for (std::size_t i = 0; i < bucket.nfast; ++i)
        total += bucket.fast[i].count;
      if (bucket.overflow)
        for (const auto& slot : *bucket.overflow) total += slot.count;
    });
    return total;
  }

  std::size_t num_buckets() const noexcept { return mask_ + 1; }
  // Chunks built so far (for tests).
  std::size_t chunks_published() const {
    std::size_t n = 0;
    for (std::size_t c = 0; c < chunk_count(); ++c)
      n += published(c);
    return n;
  }
  // Chunks the table is split into.
  std::size_t chunk_count() const noexcept {
    return (mask_ + 1) >> chunk_shift_;
  }

  // Engine id within its runtime. Carried in message headers so the target
  // matches in the same engine the sender named; like rcomps, ids agree
  // across ranks when every rank allocates its engines in the same order.
  uint16_t id() const noexcept { return id_; }
  void set_id(uint16_t id) noexcept { id_ = id; }

  // Owning runtime (set for user-allocated engines so free_matching_engine
  // can deregister the id).
  runtime_impl_t* owner = nullptr;

 private:
  static constexpr std::size_t fast_queues = 3;    // queues inline per bucket
  static constexpr std::size_t fast_entries = 2;   // entries inline per queue
  static constexpr std::size_t chunk_buckets = 256;  // 48 KiB per chunk

  // One per-key queue. FIFO; the first `fast_entries` live inline.
  struct slot_t {
    key_t key = 0;
    type_t type = type_t::send;
    uint32_t count = 0;
    void* inline_vals[fast_entries] = {nullptr, nullptr};
    std::unique_ptr<std::deque<void*>> extra;

    void reset(key_t k, type_t t) {
      key = k;
      type = t;
      count = 0;
      if (extra) extra->clear();
    }
    void push(void* value) {
      if (count < fast_entries) {
        inline_vals[count] = value;
      } else {
        if (!extra) extra = std::make_unique<std::deque<void*>>();
        extra->push_back(value);
      }
      ++count;
    }
    void* pop_front() {
      assert(count > 0);
      void* front = inline_vals[0];
      inline_vals[0] = inline_vals[1];
      if (count > fast_entries) {
        inline_vals[1] = extra->front();
        extra->pop_front();
      }
      --count;
      return front;
    }
    // FIFO snapshot / rebuild, used by the removal paths.
    void collect(std::vector<void*>& out) const {
      const uint32_t ninline =
          count < fast_entries ? count : static_cast<uint32_t>(fast_entries);
      for (uint32_t i = 0; i < ninline; ++i) out.push_back(inline_vals[i]);
      if (extra)
        for (void* v : *extra) out.push_back(v);
    }
    void assign(const std::vector<void*>& vals) {
      count = 0;
      inline_vals[0] = inline_vals[1] = nullptr;
      if (extra) extra->clear();
      for (void* v : vals) push(v);
    }
  };

  // Cache-line aligned: neighbouring buckets are hit by unrelated keys from
  // different threads, and an unaligned bucket would put two buckets' locks
  // on one line — every lock acquisition would then invalidate the neighbour
  // (false sharing), exactly the contention the per-bucket locking exists to
  // avoid. sizeof(bucket_t) already exceeds one line (three inline slots),
  // so the alignment costs no memory beyond rounding.
  struct alignas(util::cache_line_size) bucket_t {
    mutable util::spinlock_t lock;
    slot_t fast[fast_queues];
    uint8_t nfast = 0;
    std::unique_ptr<std::vector<slot_t>> overflow;
  };
  using overflow_t = std::vector<slot_t>;

  // A chunk's state: empty until a key first hashes into it, building while
  // one thread constructs its buckets, then built.
  enum : uint8_t { empty, building, built };

  // The bucket `key` hashes to, building its chunk on first use.
  bucket_t& bucket_for(key_t key) {
    const std::size_t i = hash(key) & mask_;
    const std::size_t c = i >> chunk_shift_;
    if (state_[c].load(std::memory_order_acquire) != built) [[unlikely]]
      build(c);
    return buckets_[i];
  }

  // Constructs chunk c's buckets in place and marks it built; a thread that
  // finds another building it waits until it is built. Out of line, so the
  // bucket construction it runs once per chunk stays off the insert path.
  [[gnu::noinline]] void build(std::size_t c) {
    std::atomic<uint8_t>& state = state_[c];
    uint8_t expected = empty;
    if (state.compare_exchange_strong(expected, building,
                                      std::memory_order_acquire)) {
      std::uninitialized_default_construct_n(chunk(c), chunk_len_);
      state.store(built, std::memory_order_release);
      return;
    }
    util::backoff_t backoff;
    while (state.load(std::memory_order_acquire) != built) backoff.spin();
  }

  bucket_t* chunk(std::size_t c) const noexcept {
    return buckets_ + (c << chunk_shift_);
  }

  // Calls fn(bucket) for each bucket of every built chunk; chunks no key
  // ever reached are skipped.
  template <class Fn>
  void for_each_published_bucket(Fn&& fn) const {
    for (std::size_t c = 0; c < chunk_count(); ++c)
      if (published(c))
        for (std::size_t b = 0; b < chunk_len_; ++b) fn(chunk(c)[b]);
  }

  // Whether chunk c is built. Read with a read-modify-write, so a walk that
  // starts after an insert returned sees its chunk, just as taking the
  // bucket lock would see the insert.
  bool published(std::size_t c) const {
    return state_[c].fetch_add(0, std::memory_order_acq_rel) == built;
  }

  // Caller holds the bucket lock; the slot at (in_fast, i) has `key`.
  void* resolve(bucket_t& bucket, bool in_fast, std::size_t i, void* value,
                type_t type) {
    slot_t& slot = in_fast ? bucket.fast[i] : (*bucket.overflow)[i];
    if (slot.type == type || slot.count == 0) {
      slot.type = type;  // count==0 can only happen transiently; retype
      slot.push(value);
      return nullptr;
    }
    void* matched = slot.pop_front();
    if (slot.count == 0) remove_slot(bucket, in_fast, i);
    return matched;
  }

  // Caller holds the bucket lock; the slot at (in_fast, i) has the key.
  bool remove_from_slot(bucket_t& bucket, bool in_fast, std::size_t i,
                        void* value) {
    slot_t& slot = in_fast ? bucket.fast[i] : (*bucket.overflow)[i];
    std::vector<void*> vals;
    slot.collect(vals);
    auto it = std::find(vals.begin(), vals.end(), value);
    if (it == vals.end()) return false;
    vals.erase(it);
    slot.assign(vals);
    if (slot.count == 0) remove_slot(bucket, in_fast, i);
    return true;
  }

  // Caller holds the bucket lock. Removes the slot's entries claimed by pred.
  template <class Pred>
  std::size_t purge_slot(bucket_t& bucket, bool in_fast, std::size_t i,
                         Pred&& pred,
                         std::vector<std::pair<void*, type_t>>& out,
                         std::vector<void*>& scratch) {
    slot_t& slot = in_fast ? bucket.fast[i] : (*bucket.overflow)[i];
    scratch.clear();
    slot.collect(scratch);
    std::size_t kept = 0, removed = 0;
    for (void* v : scratch) {
      if (pred(v, slot.type)) {
        out.emplace_back(v, slot.type);
        ++removed;
      } else {
        scratch[kept++] = v;
      }
    }
    if (removed == 0) return 0;
    scratch.resize(kept);
    slot.assign(scratch);
    if (slot.count == 0) remove_slot(bucket, in_fast, i);
    return removed;
  }

  static void remove_slot(bucket_t& bucket, bool in_fast, std::size_t i) {
    if (in_fast) {
      const std::size_t last = static_cast<std::size_t>(bucket.nfast) - 1;
      if (i != last) bucket.fast[i] = std::move(bucket.fast[last]);
      bucket.fast[last] = slot_t{};
      --bucket.nfast;
    } else {
      auto& overflow = *bucket.overflow;
      if (i != overflow.size() - 1) overflow[i] = std::move(overflow.back());
      overflow.pop_back();
    }
  }

  static std::size_t round_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p *= 2;
    return p < 2 ? 2 : p;
  }

  static std::size_t hash(key_t key) noexcept {
    // Fibonacci-style mixing; keys differ mostly in low tag bits and the
    // rank field, both of which this spreads across buckets.
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return static_cast<std::size_t>(key);
  }

  const std::size_t mask_;        // num_buckets() - 1
  const std::size_t chunk_len_;   // buckets per chunk (a power of two)
  const int chunk_shift_;         // log2(chunk_len_)
  const util::reserved_memory_t storage_;  // room for every bucket
  bucket_t* const buckets_;                // storage_, page aligned
  // One state per chunk; buckets of a chunk not yet built are raw storage.
  const std::unique_ptr<std::atomic<uint8_t>[]> state_;
  make_key_fn_t make_key_fn_;
  uint16_t id_ = 0;
};

}  // namespace lci::detail
