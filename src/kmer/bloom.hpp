// Two-layer atomic Bloom filter (paper Sec. 5.3).
//
// HipMer's k-mer counting inserts every k-mer into a two-layer Bloom filter
// on the first pass: the first occurrence of a k-mer sets its bits in layer
// 1; a k-mer that already hits layer 1 is recorded in layer 2. On the second
// pass only k-mers present in layer 2 (seen at least twice, so unlikely to
// be pure sequencing error) enter the counting hashmap — trading a small
// false-positive rate for a much smaller memory footprint.
//
// This is the "hand-written atomic-based Bloom filter" of the paper's
// multithreaded implementation: bit arrays of std::atomic<uint64_t>, set via
// fetch_or, probed with double hashing. Each bit is set atomically, but the
// "was it present?" check reads several bits, so two threads inserting the
// same k-mer could each find one layer-1 bit unset and neither would mark
// layer 2: a k-mer seen twice would never be counted. Inserts of one k-mer
// therefore run under one of 256 striped spinlocks, keyed by its first
// hash; inserts of different k-mers mostly take different locks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "kmer/kmer.hpp"
#include "util/spinlock.hpp"

namespace kmer {

class atomic_bitset_t {
 public:
  explicit atomic_bitset_t(std::size_t nbits)
      : nbits_(round_pow2(nbits)),
        mask_(nbits_ - 1),
        words_(new std::atomic<uint64_t>[nbits_ / 64]) {
    for (std::size_t i = 0; i < nbits_ / 64; ++i)
      words_[i].store(0, std::memory_order_relaxed);
  }

  // Sets the bit; returns its previous value.
  bool test_and_set(uint64_t bit) noexcept {
    bit &= mask_;
    const uint64_t word_mask = uint64_t{1} << (bit & 63);
    const uint64_t previous = words_[bit >> 6].fetch_or(
        word_mask, std::memory_order_relaxed);
    return (previous & word_mask) != 0;
  }

  bool test(uint64_t bit) const noexcept {
    bit &= mask_;
    return (words_[bit >> 6].load(std::memory_order_relaxed) &
            (uint64_t{1} << (bit & 63))) != 0;
  }

  std::size_t size_bits() const noexcept { return nbits_; }

 private:
  static std::size_t round_pow2(std::size_t n) {
    std::size_t p = 64;
    while (p < n) p *= 2;
    return p;
  }
  const std::size_t nbits_;
  const uint64_t mask_;
  std::unique_ptr<std::atomic<uint64_t>[]> words_;
};

class two_layer_bloom_t {
 public:
  // `expected_distinct` sizes both layers (bits_per_element * n).
  explicit two_layer_bloom_t(std::size_t expected_distinct,
                             int num_hashes = 3, int bits_per_element = 10)
      : num_hashes_(num_hashes),
        layer1_(expected_distinct * static_cast<std::size_t>(bits_per_element)),
        layer2_(expected_distinct * static_cast<std::size_t>(bits_per_element)) {}

  // Records one occurrence. Returns true if the k-mer had (probably) been
  // seen before this insertion.
  bool insert(kmer_t kmer) noexcept {
    const uint64_t h1 = hash_kmer(kmer);
    const uint64_t h2 = hash_kmer(h1 ^ 0x5851f42d4c957f2dull) | 1;
    std::lock_guard<lci::util::spinlock_t> guard(
        insert_locks_[h1 & (insert_lock_count - 1)]);
    bool was_in_layer1 = true;
    for (int i = 0; i < num_hashes_; ++i) {
      was_in_layer1 &=
          layer1_.test_and_set(h1 + static_cast<uint64_t>(i) * h2);
    }
    if (!was_in_layer1) return false;
    for (int i = 0; i < num_hashes_; ++i) {
      layer2_.test_and_set(h1 + static_cast<uint64_t>(i) * h2);
    }
    return true;
  }

  // True if the k-mer was (probably) seen at least twice.
  bool seen_twice(kmer_t kmer) const noexcept {
    const uint64_t h1 = hash_kmer(kmer);
    const uint64_t h2 = hash_kmer(h1 ^ 0x5851f42d4c957f2dull) | 1;
    for (int i = 0; i < num_hashes_; ++i) {
      if (!layer2_.test(h1 + static_cast<uint64_t>(i) * h2)) return false;
    }
    return true;
  }

  std::size_t memory_bytes() const noexcept {
    return (layer1_.size_bits() + layer2_.size_bits()) / 8;
  }

 private:
  static constexpr std::size_t insert_lock_count = 256;

  const int num_hashes_;
  atomic_bitset_t layer1_;
  atomic_bitset_t layer2_;
  lci::util::spinlock_t insert_locks_[insert_lock_count];
};

}  // namespace kmer
