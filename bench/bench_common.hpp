// Shared helpers for the benchmark harnesses that regenerate the paper's
// tables and figures. Each binary prints the same rows/series the paper
// reports; absolute numbers are not comparable to the paper's clusters (the
// substrate is a simulated fabric on whatever host runs this), but the shape
// — who wins, by roughly what factor, where crossovers fall — is the
// reproduction target (see EXPERIMENTS.md).
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/lci.hpp"
#include "net/net.hpp"

namespace bench {

inline long env_long(const char* name, long fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atol(value) : fallback;
}

inline double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

// CI smoke mode: LCI_BENCH_SMOKE=1 shrinks iteration counts and thread
// sweeps so the full bench suite finishes in CI minutes, while keeping the
// row schema identical to a full run (the regression checker joins rows on
// their config fields, so a smoke run compares against a smoke baseline).
inline bool smoke() { return env_long("LCI_BENCH_SMOKE", 0) != 0; }

// Global scale knobs: LCI_BENCH_MAX_THREADS caps thread sweeps (the paper
// sweeps to 128 threads on 128-core nodes; pick what your host can bear),
// LCI_BENCH_ITERS scales per-thread iteration counts.
inline int max_threads() {
  const int cap = static_cast<int>(env_long("LCI_BENCH_MAX_THREADS", 8));
  return smoke() ? std::min(cap, 8) : cap;
}
inline long iters(long dflt) {
  const long scale = env_long("LCI_BENCH_ITERS", 0);
  if (scale > 0) return scale;
  // Smoke caps rather than divides: the microbenchmarks already default to
  // ~2000 iterations (seconds of wall clock) and dividing further makes the
  // rates too noisy to gate on; the cap only bites the long mini-app runs.
  return smoke() ? std::min(dflt, 2000L) : dflt;
}

// Failure knobs for the robustness sweeps: LCI_BENCH_KILL_RANK and
// LCI_BENCH_KILL_AFTER schedule a peer death, LCI_BENCH_LOSS_RATE drops wire
// messages silently.
inline void apply_net_env(lci::net::config_t* config) {
  config->fault.kill_rank = static_cast<int>(
      env_long("LCI_BENCH_KILL_RANK", config->fault.kill_rank));
  config->fault.kill_after_ops = static_cast<uint64_t>(env_long(
      "LCI_BENCH_KILL_AFTER", static_cast<long>(config->fault.kill_after_ops)));
  config->fault.loss_rate =
      env_double("LCI_BENCH_LOSS_RATE", config->fault.loss_rate);
}

inline double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Barrier for in-process benchmark threads (not the LCI barrier: benchmark
// harness threads synchronize out of band, like the paper's LCW harness).
class thread_barrier_t {
 public:
  explicit thread_barrier_t(int count) : count_(count) {}
  void arrive_and_wait() {
    const int generation = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == count_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
    } else {
      while (generation_.load(std::memory_order_acquire) == generation)
        std::this_thread::yield();
    }
  }

 private:
  const int count_;
  std::atomic<int> arrived_{0};
  std::atomic<int> generation_{0};
};

inline std::vector<int> pow2_up_to(int max, int from = 1) {
  std::vector<int> values;
  for (int v = from; v <= max; v *= 2) values.push_back(v);
  return values;
}

inline void print_header(const char* title, const char* columns) {
  std::printf("\n## %s\n%s\n", title, columns);
}

// The CPUs this process may run on, in order.
inline std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

// Passes per run_threads call: one untimed warm-up, which pays the lazy
// set-up a cell's first touches trigger (matching chunks built, packets
// stolen into the workers' deques), then the timed ones.
inline constexpr int timed_passes = 5;

// Runs fn(t) on `threads` workers, worker t pinned to the (t mod n)-th
// allowed CPU (perfbench's placement), for a warm-up pass and then
// `timed_passes` timed passes. Each worker stamps its own start after the
// pass's start barrier and its own end when fn returns; a pass's window runs
// from the earliest start to the latest end, as in pingpong.hpp. So a
// descheduled thread can lengthen a window but never shorten it below the
// time the work took. Returns the timed passes' windows in seconds.
inline std::vector<double> run_threads(int threads,
                                       const std::function<void(int)>& fn) {
  constexpr int passes = 1 + timed_passes;
  const std::vector<int> cpus = allowed_cpus();
  const auto n = static_cast<std::size_t>(threads);
  std::vector<double> starts(passes * n), ends(passes * n);
  thread_barrier_t barrier(threads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < n; ++t) {
    workers.emplace_back([&, t] {
      // Best effort: an unpinned worker is still timed correctly.
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus[t % cpus.size()], &set);
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
      for (std::size_t p = 0; p < passes; ++p) {
        barrier.arrive_and_wait();
        starts[p * n + t] = now_sec();
        fn(static_cast<int>(t));
        ends[p * n + t] = now_sec();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  std::vector<double> windows;
  for (std::size_t p = 1; p < passes; ++p) {
    const double* pass_starts = &starts[p * n];
    const double* pass_ends = &ends[p * n];
    windows.push_back(*std::max_element(pass_ends, pass_ends + n) -
                      *std::min_element(pass_starts, pass_starts + n));
  }
  return windows;
}

// Machine-readable results next to the human-readable tables: every bench
// writes BENCH_<name>.json ({"bench": ..., "meta": {...}, "rows": [...]})
// so sweeps can be scripted/plotted without scraping stdout.
// LCI_BENCH_JSON=0 disables; LCI_BENCH_JSON_DIR overrides the output
// directory (default: build/bench_reports/ under the current directory,
// created on demand — reports used to land in whatever directory the binary
// ran from, silently overwriting the checked-in baselines on an in-tree
// run). The "meta" object records the machine/config context a number is
// meaningless without; when tracing is enabled (LCI_TRACE=1) a "perf"
// object adds the merged post-to-completion / progress-poll latency
// histograms (count, p50/p99/max ns).
class json_report_t {
 public:
  explicit json_report_t(std::string name) : name_(std::move(name)) {}
  ~json_report_t() { write(); }
  json_report_t(const json_report_t&) = delete;
  json_report_t& operator=(const json_report_t&) = delete;

  // Starts a new result row; field() calls populate the current row.
  json_report_t& row() {
    rows_.emplace_back();
    return *this;
  }
  json_report_t& field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return raw_field(key, buf);
  }
  json_report_t& field(const std::string& key, long value) {
    return raw_field(key, std::to_string(value));
  }
  json_report_t& field(const std::string& key, int value) {
    return raw_field(key, std::to_string(value));
  }
  json_report_t& field(const std::string& key, const std::string& value) {
    return raw_field(key, "\"" + value + "\"");
  }

  void write() {
    if (written_ || env_long("LCI_BENCH_JSON", 1) == 0) return;
    written_ = true;
    const std::string path = output_path();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "json_report: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    write_meta(f);
    write_perf(f);
    std::fprintf(f, "  \"rows\": [");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s\n    {", i == 0 ? "" : ",");
      const auto& row = rows_[i];
      for (std::size_t j = 0; j < row.size(); ++j) {
        std::fprintf(f, "%s\"%s\": %s", j == 0 ? "" : ", ",
                     row[j].first.c_str(), row[j].second.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("json: %s (%zu rows)\n", path.c_str(), rows_.size());
    // LCI_TRACE_DUMP=<path>: export the Chrome trace alongside the report
    // (only meaningful when the run was traced; see scripts/trace_summary.py).
    if (const char* trace_path = std::getenv("LCI_TRACE_DUMP")) {
      if (lci::trace_dump_json(trace_path))
        std::printf("trace: %s\n", trace_path);
      else
        std::fprintf(stderr, "json_report: cannot write trace %s\n",
                     trace_path);
    }
  }

 private:
  json_report_t& raw_field(const std::string& key, std::string rendered) {
    if (rows_.empty()) rows_.emplace_back();
    rows_.back().emplace_back(key, std::move(rendered));
    return *this;
  }

  std::string output_path() const {
    const char* env_dir = std::getenv("LCI_BENCH_JSON_DIR");
    const std::string dir = env_dir != nullptr
                                ? std::string(env_dir)
                                : std::string("build/bench_reports");
    const std::string file = "BENCH_" + name_ + ".json";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec && !std::filesystem::is_directory(dir)) {
      std::fprintf(stderr, "json_report: cannot create %s (%s), using cwd\n",
                   dir.c_str(), ec.message().c_str());
      return file;
    }
    return dir + "/" + file;
  }

  void write_meta(std::FILE* f) const {
    char timestamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    if (gmtime_r(&now, &tm_utc) != nullptr)
      std::strftime(timestamp, sizeof(timestamp), "%Y-%m-%dT%H:%M:%SZ",
                    &tm_utc);
    std::fprintf(f,
                 "  \"meta\": {\"hardware_threads\": %u, "
                 "\"compiler\": \"%s\", \"build\": \"%s\", "
                 "\"smoke\": %d, \"max_threads\": %d, \"timestamp\": "
                 "\"%s\"},\n",
                 std::thread::hardware_concurrency(), compiler_id(),
#ifdef NDEBUG
                 "optimized",
#else
                 "debug",
#endif
                 smoke() ? 1 : 0, max_threads(), timestamp);
  }

  static const char* compiler_id() {
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
  }

  // When the run was traced (LCI_TRACE=1 or .trace(true)), fold the merged
  // latency histograms into the report so every BENCH_*.json carries
  // percentiles next to its throughput rows. Counts are zero when tracing
  // was off — then the section is omitted entirely.
  void write_perf(std::FILE* f) const {
    const lci::histograms_t h = lci::get_histograms();
    const std::pair<const char*, const lci::latency_histogram_t*> entries[] = {
        {"post_eager", &h.post_eager},   {"post_batch", &h.post_batch},
        {"post_rdv", &h.post_rdv},       {"post_recv", &h.post_recv},
        {"progress_poll", &h.progress_poll}};
    bool any = false;
    for (const auto& entry : entries) any |= entry.second->count > 0;
    if (!any) return;
    std::fprintf(f, "  \"perf\": {");
    bool first = true;
    for (const auto& entry : entries) {
      if (entry.second->count == 0) continue;
      std::fprintf(f,
                   "%s\n    \"%s\": {\"count\": %llu, \"p50_ns\": %llu, "
                   "\"p99_ns\": %llu, \"max_ns\": %llu}",
                   first ? "" : ",", entry.first,
                   static_cast<unsigned long long>(entry.second->count),
                   static_cast<unsigned long long>(entry.second->p50_ns),
                   static_cast<unsigned long long>(entry.second->p99_ns),
                   static_cast<unsigned long long>(entry.second->max_ns));
      first = false;
    }
    std::fprintf(f, "\n  },\n");
  }

  std::string name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
  bool written_ = false;
};

}  // namespace bench
