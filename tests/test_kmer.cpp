// k-mer counting mini-app tests: encoding, Bloom filter, concurrent hashmap,
// read generation, and the distributed pipeline against a serial oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <unordered_map>

#include <cstdio>

#include "kmer/bloom.hpp"
#include "kmer/fasta.hpp"
#include "kmer/hashmap.hpp"
#include "kmer/kmer.hpp"
#include "kmer/pipeline.hpp"
#include "kmer/read_generator.hpp"

namespace {

TEST(Kmer, EncodeDecodeBases) {
  EXPECT_EQ(kmer::encode_base('A'), 0);
  EXPECT_EQ(kmer::encode_base('c'), 1);
  EXPECT_EQ(kmer::encode_base('G'), 2);
  EXPECT_EQ(kmer::encode_base('t'), 3);
  EXPECT_LT(kmer::encode_base('N'), 0);
  for (int code = 0; code < 4; ++code)
    EXPECT_EQ(kmer::encode_base(kmer::decode_base(code)), code);
}

TEST(Kmer, ReverseComplementIsInvolution) {
  for (uint64_t v : {0ull, 1ull, 0x123456789abcull, 0x3ffffffffffull}) {
    for (int k : {3, 15, 31}) {
      const kmer::kmer_t kmer =
          v & ((k < 32 ? (kmer::kmer_t{1} << (2 * k)) : 0) - 1);
      EXPECT_EQ(kmer::reverse_complement(kmer::reverse_complement(kmer, k), k),
                kmer);
    }
  }
}

TEST(Kmer, CanonicalMergesStrands) {
  // "ACG" (k=3): revcomp is "CGT"; both must canonicalize identically.
  std::vector<kmer::kmer_t> fwd, rev;
  kmer::extract_kmers("ACG", 3, fwd);
  kmer::extract_kmers("CGT", 3, rev);
  ASSERT_EQ(fwd.size(), 1u);
  ASSERT_EQ(rev.size(), 1u);
  EXPECT_EQ(fwd[0], rev[0]);
}

TEST(Kmer, ExtractSkipsAmbiguousBases) {
  std::vector<kmer::kmer_t> kmers;
  kmer::extract_kmers("ACGTNACGT", 4, kmers);
  // "ACGT" yields 1 window; the N breaks the run; "ACGT" again yields 1.
  EXPECT_EQ(kmers.size(), 2u);
  kmers.clear();
  kmer::extract_kmers("ACGTACGT", 4, kmers);
  EXPECT_EQ(kmers.size(), 5u);
}

TEST(Bloom, FirstVsSecondOccurrence) {
  kmer::two_layer_bloom_t bloom(10000);
  EXPECT_FALSE(bloom.insert(42));       // first occurrence
  EXPECT_FALSE(bloom.seen_twice(42));   // only once so far
  EXPECT_TRUE(bloom.insert(42));        // second occurrence
  EXPECT_TRUE(bloom.seen_twice(42));
  EXPECT_FALSE(bloom.seen_twice(43));   // never inserted
}

TEST(Bloom, FalsePositiveRateIsSmall) {
  kmer::two_layer_bloom_t bloom(20000, 3, 12);
  for (uint64_t i = 0; i < 10000; ++i) {
    bloom.insert(i);
    bloom.insert(i);
  }
  int false_positives = 0;
  for (uint64_t i = 1000000; i < 1010000; ++i)
    false_positives += bloom.seen_twice(i) ? 1 : 0;
  EXPECT_LT(false_positives, 100);  // < 1%
}

TEST(Bloom, ConcurrentInsertsAllLand) {
  kmer::two_layer_bloom_t bloom(100000, 3, 12);
  constexpr int nthreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&bloom, t] {
      for (uint64_t i = 0; i < 20000; ++i) bloom.insert(i * nthreads + t);
    });
  }
  for (auto& th : threads) th.join();
  // Insert everything again: all must now report seen-twice.
  for (uint64_t i = 0; i < 20000 * nthreads; ++i) {
    bloom.insert(i);
    EXPECT_TRUE(bloom.seen_twice(i));
  }
}

// Two threads insert each k-mer at the same moment: every round releases
// both on one fresh k-mer, so their layer-1 probes interleave. Whatever the
// interleaving, a k-mer inserted twice must read seen_twice afterwards.
TEST(Bloom, RacingInsertsOfOneKmerMarkTheSecond) {
  constexpr uint64_t rounds = 50000;
  kmer::two_layer_bloom_t bloom(rounds, 3, 12);
  std::atomic<uint64_t> inserted{0};  // inserts finished, both threads
  auto racer = [&] {
    for (uint64_t round = 0; round < rounds; ++round) {
      // Wait for both inserts of the previous round: the two threads then
      // leave together and race on this round's k-mer.
      while (inserted.load(std::memory_order_acquire) < 2 * round)
        std::this_thread::yield();
      bloom.insert(round);
      inserted.fetch_add(1, std::memory_order_acq_rel);
    }
  };
  std::thread a(racer), b(racer);
  a.join();
  b.join();
  uint64_t missed = 0;
  for (uint64_t kmer = 0; kmer < rounds; ++kmer)
    missed += bloom.seen_twice(kmer) ? 0 : 1;
  EXPECT_EQ(missed, 0u) << "k-mers inserted twice but not seen twice";
}

TEST(Hashmap, BasicCounting) {
  kmer::counting_hashmap_t map(1000);
  map.increment(7);
  map.increment(7);
  map.increment(8, 5);
  EXPECT_EQ(map.count(7), 2u);
  EXPECT_EQ(map.count(8), 5u);
  EXPECT_EQ(map.count(9), 0u);
  EXPECT_EQ(map.size(), 2u);
}

TEST(Hashmap, ConcurrentIncrementsAreExact) {
  kmer::counting_hashmap_t map(4096);
  constexpr int nthreads = 4;
  constexpr int per_thread = 20000;
  constexpr int nkeys = 257;
  std::vector<std::thread> threads;
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&map] {
      for (int i = 0; i < per_thread; ++i)
        map.increment(static_cast<kmer::kmer_t>(i % nkeys));
    });
  }
  for (auto& th : threads) th.join();
  uint64_t total = 0;
  for (int key = 0; key < nkeys; ++key) total += map.count(key);
  EXPECT_EQ(total, static_cast<uint64_t>(nthreads) * per_thread);
}

TEST(Hashmap, HistogramMatchesCounts) {
  kmer::counting_hashmap_t map(1000);
  for (int i = 0; i < 10; ++i) map.increment(100 + i);        // count 1
  for (int i = 0; i < 5; ++i) {
    map.increment(200 + i);
    map.increment(200 + i);
  }
  const auto hist = map.histogram(16);
  EXPECT_EQ(hist[1], 10u);
  EXPECT_EQ(hist[2], 5u);
}

TEST(ReadGenerator, DeterministicAndShardable) {
  kmer::genome_params_t params;
  params.genome_length = 10000;
  params.read_length = 50;
  params.coverage = 4;
  kmer::read_generator_t gen_a(params), gen_b(params);
  EXPECT_EQ(gen_a.genome(), gen_b.genome());
  EXPECT_EQ(gen_a.total_reads(), gen_b.total_reads());
  for (std::size_t i : {0ul, 7ul, gen_a.total_reads() - 1}) {
    EXPECT_EQ(gen_a.read(i), gen_b.read(i));
    EXPECT_EQ(gen_a.read(i).size(), params.read_length);
  }
  // Shards tile [0, total) exactly.
  std::size_t covered = 0;
  for (int r = 0; r < 7; ++r) {
    std::size_t begin, end;
    gen_a.shard(r, 7, &begin, &end);
    EXPECT_EQ(begin, covered);
    covered = end;
  }
  EXPECT_EQ(covered, gen_a.total_reads());
}

TEST(ReadGenerator, ErrorRateRoughlyHonored) {
  kmer::genome_params_t params;
  params.genome_length = 50000;
  params.read_length = 100;
  params.coverage = 2;
  params.error_rate = 0.05;
  kmer::read_generator_t gen(params);
  // Count mismatches of read 0..99 against the genome is hard without the
  // position; instead compare error_rate=0 output: those reads must be exact
  // substrings.
  kmer::genome_params_t clean = params;
  clean.error_rate = 0.0;
  kmer::read_generator_t exact(clean);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_NE(exact.genome().find(exact.read(i)), std::string::npos);
  }
}

class KmerPipeline : public ::testing::TestWithParam<kmer::pipeline_mode_t> {};

TEST_P(KmerPipeline, MatchesSerialOracle) {
  kmer::pipeline_config_t config;
  config.genome.genome_length = 20000;
  config.genome.read_length = 80;
  config.genome.coverage = 6;
  config.genome.error_rate = 0.01;
  config.k = 21;
  config.nranks = 2;
  config.nthreads = 2;
  config.mode = GetParam();

  const auto oracle = kmer::run_serial_oracle(config);
  const auto result = kmer::run_pipeline(config);

  // The two-layer Bloom filter admits false positives but no false
  // negatives: every k-mer the oracle counts must be counted identically,
  // and at most a small number of once-only k-mers may slip in.
  ASSERT_GE(result.distinct_counted, oracle.distinct_counted);
  const std::size_t slack = oracle.distinct_counted / 50 + 8;
  EXPECT_LE(result.distinct_counted, oracle.distinct_counted + slack);
  EXPECT_GE(result.total_kmers, oracle.total_kmers);
  // Histogram shape: counts >= 2 must match exactly up to FP slack.
  for (std::size_t c = 3; c < 32; ++c) {
    EXPECT_EQ(result.histogram[c], oracle.histogram[c]) << "count " << c;
  }
}

// The pipeline consumes FASTA files identically to the generator: export
// the synthetic reads, run both paths, compare.
TEST(KmerPipeline, FastaInputMatchesGenerator) {
  kmer::pipeline_config_t config;
  config.genome.genome_length = 8000;
  config.genome.read_length = 80;
  config.genome.coverage = 5;
  config.genome.error_rate = 0.01;
  config.k = 17;
  config.nranks = 2;
  config.nthreads = 2;

  kmer::read_generator_t generator(config.genome);
  std::vector<kmer::sequence_record_t> records;
  for (std::size_t i = 0; i < generator.total_reads(); ++i)
    records.push_back({"r" + std::to_string(i), generator.read(i)});
  const std::string path = "/tmp/lci_repro_kmer_test.fa";
  kmer::write_fasta_file(path, records);

  const auto from_generator = kmer::run_pipeline(config);
  kmer::pipeline_config_t file_config = config;
  file_config.reads_path = path;
  const auto from_file = kmer::run_pipeline(file_config);
  // The concurrent two-layer Bloom filter is deliberately approximate under
  // racing inserts (bloom.hpp), so runs over identical reads may differ by a
  // few false positives; the true counts (>= 2 occurrences) must agree
  // tightly and exactly against the oracle elsewhere.
  const auto diff = [](std::size_t a, std::size_t b) {
    return a > b ? a - b : b - a;
  };
  EXPECT_LE(diff(from_file.distinct_counted, from_generator.distinct_counted),
            8u);
  for (std::size_t c = 2; c < 32; ++c)
    EXPECT_LE(diff(from_file.histogram[c], from_generator.histogram[c]), 2u)
        << "count " << c;
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Modes, KmerPipeline,
                         ::testing::Values(kmer::pipeline_mode_t::lci_mt,
                                           kmer::pipeline_mode_t::gex_mt,
                                           kmer::pipeline_mode_t::ref_st),
                         [](const auto& info) {
                           return kmer::to_string(info.param);
                         });

}  // namespace
