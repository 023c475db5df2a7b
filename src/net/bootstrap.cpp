#include "net/bootstrap.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace lci::net::bootstrap {

namespace {

int env_int(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  return std::atoi(env);
}

void validate_key(const std::string& key) {
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok)
      throw std::runtime_error("bootstrap: key is not filename-safe: " + key);
  }
}

// Single-process fallback store (no job directory needed).
std::mutex& local_lock() {
  static std::mutex lock;
  return lock;
}
std::map<std::string, std::string>& local_store() {
  static std::map<std::string, std::string> store;
  return store;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool path_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// Barrier epochs, so one barrier name can be reused (a per-name counter
// makes each use a distinct file set).
std::map<std::string, int>& barrier_epochs() {
  static std::map<std::string, int> epochs;
  return epochs;
}

// The fd holding this rank's boot-liveness flock. Held (leaked) for the
// process lifetime; the kernel releases the lock on any exit.
int& announce_fd() {
  static int fd = -1;
  return fd;
}

}  // namespace

void announce_self() {
  const std::string dir = job_dir();
  if (dir.empty() || nranks() <= 1) return;
  std::lock_guard<std::mutex> guard(local_lock());
  int& fd = announce_fd();
  if (fd >= 0) return;
  const std::string path = dir + "/boot-" + std::to_string(rank());
  // Lock first, publish after: the marker appears under its name already
  // locked. Creating it in place would let a peer's probe open it and take
  // the free lock in between, declaring this rank dead (and making this
  // rank's own flock fail).
  const std::string tmp = path + ".tmp";
  fd = ::open(tmp.c_str(), O_CREAT | O_RDWR, 0600);
  if (fd < 0 || ::flock(fd, LOCK_EX | LOCK_NB) != 0 ||
      ::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("bootstrap: cannot take liveness marker " + path);
}

bool rank_alive(int r) {
  const std::string dir = job_dir();
  if (dir.empty()) return true;
  const std::string path = dir + "/boot-" + std::to_string(r);
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return true;  // not announced yet — may still be launching
  const bool lock_free = ::flock(fd, LOCK_EX | LOCK_NB) == 0;
  ::close(fd);  // releases the probe's lock if it got one
  return !lock_free;
}

int rank() {
  const int r = env_int("LCI_RANK", 0);
  const int n = nranks();
  if (r < 0 || r >= n)
    throw std::runtime_error("bootstrap: LCI_RANK out of [0, LCI_NRANKS)");
  return r;
}

int nranks() {
  const int n = env_int("LCI_NRANKS", 1);
  if (n <= 0) throw std::runtime_error("bootstrap: LCI_NRANKS must be >= 1");
  return n;
}

std::string job_dir() {
  const char* env = std::getenv("LCI_JOB_DIR");
  return env != nullptr ? std::string(env) : std::string();
}

std::string job_id() {
  const char* env = std::getenv("LCI_JOB_ID");
  if (env != nullptr && env[0] != '\0') return env;
  const std::string dir = job_dir();
  if (!dir.empty()) {
    // Stable across the job's ranks: hash the shared directory path.
    uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (const char c : dir) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
  return "pid" + std::to_string(::getpid());
}

void put(const std::string& key, const std::string& value) {
  validate_key(key);
  const std::string dir = job_dir();
  if (dir.empty()) {
    if (nranks() > 1)
      throw std::runtime_error("bootstrap: LCI_JOB_DIR required for multi-rank jobs");
    std::lock_guard<std::mutex> guard(local_lock());
    local_store()[key] = value;
    return;
  }
  const std::string tmp =
      dir + "/kv-" + key + ".tmp." + std::to_string(::getpid());
  const std::string final_path = dir + "/kv-" + key;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("bootstrap: cannot write " + tmp);
    out << value;
  }
  if (::rename(tmp.c_str(), final_path.c_str()) != 0)
    throw std::runtime_error("bootstrap: rename failed for " + final_path +
                             ": " + std::strerror(errno));
}

std::string get(const std::string& key, int timeout_ms, int owner_rank) {
  validate_key(key);
  const std::string dir = job_dir();
  if (dir.empty()) {
    std::lock_guard<std::mutex> guard(local_lock());
    auto it = local_store().find(key);
    if (it == local_store().end())
      throw std::runtime_error("bootstrap: key not published: " + key);
    return it->second;
  }
  const std::string path = dir + "/kv-" + key;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::string value;
  int polls = 0;
  while (!read_file(path, &value)) {
    if (std::chrono::steady_clock::now() >= deadline)
      throw std::runtime_error("bootstrap: timeout waiting for key " + key);
    if (owner_rank >= 0 && ++polls % 50 == 0 && !rank_alive(owner_rank))
      throw std::runtime_error("bootstrap: rank " +
                               std::to_string(owner_rank) +
                               " died before publishing key " + key);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return value;
}

void barrier(const std::string& name, int timeout_ms) {
  validate_key(name);
  const int n = nranks();
  if (n == 1) return;
  const std::string dir = job_dir();
  if (dir.empty())
    throw std::runtime_error("bootstrap: LCI_JOB_DIR required for barrier");
  int epoch;
  {
    std::lock_guard<std::mutex> guard(local_lock());
    epoch = barrier_epochs()[name]++;
  }
  const std::string base =
      dir + "/bar-" + name + "-" + std::to_string(epoch) + "-";
  {
    std::ofstream out(base + std::to_string(rank()));
    if (!out)
      throw std::runtime_error("bootstrap: cannot write barrier marker");
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (int r = 0; r < n; ++r) {
    int polls = 0;
    while (!path_exists(base + std::to_string(r))) {
      if (std::chrono::steady_clock::now() >= deadline)
        throw std::runtime_error("bootstrap: timeout in barrier " + name +
                                 " waiting for rank " + std::to_string(r));
      if (++polls % 50 == 0 && !rank_alive(r))
        throw std::runtime_error("bootstrap: rank " + std::to_string(r) +
                                 " died before reaching barrier " + name);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

}  // namespace lci::net::bootstrap
