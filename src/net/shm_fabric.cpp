// SHM backend: per-peer ring buffers in one POSIX shared-memory segment.
//
// Segment layout (created and initialized by rank 0, attached by the rest):
//
//   [segment header]  magic / nranks / ring capacity / ready flag /
//                     fabric-wide death epoch
//   [rank slots]      per rank: pid, tombstone word, futex doorbell word
//   [rings]           nranks * nranks SPSC byte rings; ring(src, dst) carries
//                     frames from process src to process dst
//
// Each ring is a power-of-two byte buffer with head (consumer) / tail
// (producer) offsets. Only process `src` produces into ring(src, dst) — a
// process-local per-destination lock serializes its threads — and only
// process `dst` consumes, under the fabric pump lock. Frames are contiguous:
// a frame that would straddle the end of the buffer is preceded by a `wrap`
// filler record, so payloads never need scatter-gather.
//
// Doorbells: after pushing, the producer bumps the destination's doorbell
// word and FUTEX_WAKEs it. A fabric-owned listener thread FUTEX_WAITs on the
// local word and rings every registered device doorbell on each bump — the
// cross-process analogue of the sim's direct doorbell ring.
//
// Peer death: kill_rank (any rank, from any process) sets the victim's
// tombstone word and bumps the shared death epoch — every process observes
// both on its next pump. A rank killed by the OS (kill -9) cannot write its
// tombstone, so liveness is additionally probed with kill(pid, 0): on every
// ring-full bounce and periodically during the pump. ESRCH converts to a
// tombstone exactly as an explicit kill would.
#include "net/ep_common.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#endif

#include "net/bootstrap.hpp"

namespace lci::net::detail {

namespace {

constexpr uint64_t shm_magic = 0x4c43495f53484d31ull;  // "LCI_SHM1"

void futex_wake_all(std::atomic<uint32_t>* word) {
#ifdef __linux__
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE, INT32_MAX,
            nullptr, nullptr, 0);
#else
  (void)word;
#endif
}

void futex_wait(std::atomic<uint32_t>* word, uint32_t expected,
                long timeout_ms) {
#ifdef __linux__
  struct timespec ts;
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = (timeout_ms % 1000) * 1000000L;
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAIT, expected,
            &ts, nullptr, 0);
#else
  (void)word;
  (void)expected;
  std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
#endif
}

struct alignas(64) shm_rank_slot_t {
  std::atomic<int32_t> pid;
  std::atomic<uint32_t> tombstone;
  std::atomic<uint32_t> doorbell;
  // Heartbeat stamp (liveness): bumped by the owner's listener thread and
  // progress path. A pid can be alive (kill(pid,0) == 0, flock held) while
  // the process is frozen — a stale epoch is the only tell.
  std::atomic<uint64_t> progress_epoch;
};

struct alignas(64) shm_ring_hdr_t {
  alignas(64) std::atomic<uint64_t> head;  // consumer offset (monotonic)
  alignas(64) std::atomic<uint64_t> tail;  // producer offset (monotonic)
  // Futex backpressure: `consumed` bumps once per pump burst that freed ring
  // space; a producer that found the ring full parks on it (bounded wait)
  // instead of spinning. `waiters` gates the wake syscall.
  alignas(64) std::atomic<uint32_t> consumed;
  std::atomic<uint32_t> waiters;
};

struct shm_seg_hdr_t {
  uint64_t magic;
  int32_t nranks;
  uint32_t reserved;
  uint64_t ring_bytes;
  std::atomic<uint32_t> ready;
  std::atomic<uint64_t> death_epoch;
};

std::size_t round_pow2(std::size_t v) {
  std::size_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

std::size_t env_ring_bytes() {
  const char* env = std::getenv("LCI_SHM_RING_KB");
  const long kb = env != nullptr && env[0] != '\0' ? std::atol(env) : 1024;
  return round_pow2(static_cast<std::size_t>(kb > 0 ? kb : 1024) * 1024);
}

class shm_fabric_t final : public ep_fabric_t {
 public:
  shm_fabric_t(int self_rank, int nranks, const config_t& config)
      : ep_fabric_t(self_rank, nranks, config),
        ring_bytes_(env_ring_bytes()),
        seg_name_("/lci-" + bootstrap::job_id()) {
    max_chunk_bytes_ = std::min<std::size_t>(max_chunk_bytes_, ring_bytes_ / 4);
    // A frame must be contiguous in the ring, and the worst-case wrap filler
    // consumes up to one frame's length — so only frames of at most half the
    // capacity are guaranteed to ever fit. Sends are not chunked; anything
    // larger would bounce with `full` forever (see max_send_payload()).
    max_send_payload_ = ring_bytes_ / 2 - sizeof(frame_header_t);
    producer_locks_.reset(
        new util::spinlock_t[static_cast<std::size_t>(nranks)]);
    epoch_cache_.reset(new uint64_t[static_cast<std::size_t>(nranks)]());
    attach();
    // The peer-death ledger lives in the segment: every process reads the
    // same tombstones and death epoch.
    use_death_ledger(&slot(0)->tombstone, sizeof(shm_rank_slot_t),
                     &header()->death_epoch);
    bootstrap::barrier("shm-attach");
    start_listener();
    apply_kill_schedule();
  }

  ~shm_fabric_t() override {
    stop_listener();
    if (lock_fd_ >= 0) ::close(lock_fd_);
    if (map_ != nullptr) ::munmap(map_, map_bytes_);
    // Rank 0 owns the name. A crashed rank 0 leaves the segment behind;
    // scripts/launch_local.sh removes it when the job exits.
    if (self_ == 0) ::shm_unlink(seg_name_.c_str());
  }

  backend_t kind() const override { return backend_t::shm; }

  bool kill_rank(int rank) override {
    if (rank < 0 || rank >= nranks_) return false;
    return tombstone(rank);
  }

  push_status_t push_frame(int peer, const frame_header_t& header,
                           const char* payload) override {
    const std::size_t need =
        align8(sizeof(frame_header_t) + header.payload_size);
    shm_ring_hdr_t* ring = ring_hdr(self_, peer);
    uint32_t seen;
    {
      std::lock_guard<util::spinlock_t> guard(
          producer_locks_[static_cast<std::size_t>(peer)]);
      // Loaded before the fullness check: a consumer bump between the check
      // and the futex wait makes the wait return immediately (no lost wake).
      seen = ring->consumed.load(std::memory_order_acquire);
      char* data = ring_data(self_, peer);
      const std::size_t cap = ring_bytes_;
      // Ring-shrink fault: pretend the ring is smaller (clamped so any single
      // frame still eventually fits — shrinking below 2*need would turn a
      // retry_full bounce into a livelock).
      std::size_t cap_eff = cap;
      const std::size_t shrink = config_.fault.shm_ring_shrink;
      if (shrink != 0) cap_eff = std::min(cap, std::max(shrink, 2 * need));
      uint64_t head = ring->head.load(std::memory_order_acquire);
      uint64_t tail = ring->tail.load(std::memory_order_relaxed);
      std::size_t off = static_cast<std::size_t>(tail) & (cap - 1);
      std::size_t pad = 0;
      if (need > cap - off) pad = cap - off;  // frame must not straddle the end
      if (static_cast<std::size_t>(tail - head) + pad + need <= cap_eff)
        return write_frame(ring, data, header, payload, peer, tail, off, pad,
                           need);
    }
    // Full. A dead consumer's ring never drains — probe it now so the bounce
    // converts to peer_down instead of a retry livelock. Otherwise park on
    // the consumer-progress word (bounded; the producer lock is released so
    // sibling threads are not held hostage) and surface retry_full upward —
    // deadlines and cancel still fire.
    probe_peer(peer);
    if (is_dead(peer)) return push_status_t::down;
    ring->waiters.fetch_add(1, std::memory_order_acq_rel);
    futex_wait(&ring->consumed, seen, 1);
    ring->waiters.fetch_sub(1, std::memory_order_acq_rel);
    note_backpressure_wait();
    return push_status_t::full;
  }

 private:
  // The fitting half of push_frame, still under the producer lock.
  push_status_t write_frame(shm_ring_hdr_t* ring, char* data,
                            const frame_header_t& header, const char* payload,
                            int peer, uint64_t tail, std::size_t off,
                            std::size_t pad, std::size_t need) {
    if (pad != 0) {
      if (pad >= sizeof(frame_header_t)) {
        frame_header_t wrap{};
        wrap.payload_size =
            static_cast<uint32_t>(pad - sizeof(frame_header_t));
        wrap.kind = static_cast<uint8_t>(frame_kind_t::wrap);
        std::memcpy(data + off, &wrap, sizeof(wrap));
      }
      // pad < header size: the consumer skips the remainder implicitly.
      tail += pad;
      off = 0;
    }
    std::memcpy(data + off, &header, sizeof(header));
    if (header.payload_size != 0)
      std::memcpy(data + off + sizeof(frame_header_t), payload,
                  header.payload_size);
    ring->tail.store(tail + need, std::memory_order_release);
    // Doorbell: bump + wake the consumer process's listener.
    shm_rank_slot_t* s = slot(peer);
    s->doorbell.fetch_add(1, std::memory_order_release);
    futex_wake_all(&s->doorbell);
    return push_status_t::ok;
  }

  void pump(std::size_t burst) override {
    if (++pump_calls_ % 4096 == 0) {
      probe_all_peers();
      // The progress path also stamps the heartbeat epoch, so a process
      // whose listener is starved but is otherwise making progress still
      // beacons life to its peers.
      if (peer_timeout_us() != 0)
        slot(self_)->progress_epoch.fetch_add(1, std::memory_order_release);
    }
    for (int src = 0; src < nranks_; ++src) {
      if (src == self_) continue;
      const bool src_dead = is_dead(src);
      shm_ring_hdr_t* ring = ring_hdr(src, self_);
      char* data = ring_data(src, self_);
      const std::size_t cap = ring_bytes_;
      uint64_t head = ring->head.load(std::memory_order_relaxed);
      const uint64_t head_at_entry = head;
      for (std::size_t n = 0; n < burst; ++n) {
        const uint64_t tail = ring->tail.load(std::memory_order_acquire);
        if (head == tail) break;
        std::size_t off = static_cast<std::size_t>(head) & (cap - 1);
        if (cap - off < sizeof(frame_header_t)) {
          head += cap - off;  // implicit pad at the very end of the buffer
          off = 0;
          if (head == tail) break;
        }
        frame_header_t header;
        std::memcpy(&header, data + off, sizeof(header));
        const std::size_t need =
            align8(sizeof(frame_header_t) + header.payload_size);
        if (static_cast<frame_kind_t>(header.kind) == frame_kind_t::wrap) {
          head += need;
          ring->head.store(head, std::memory_order_release);
          continue;
        }
        // Dispatch straight from the ring: head advances only after it, so
        // the producer cannot reuse the bytes while they are read (the
        // device core copies what it keeps).
        head += need;
        if (!src_dead)  // a dead sender's frames evaporate
          dispatch_frame(header, data + off + sizeof(frame_header_t));
        ring->head.store(head, std::memory_order_release);
      }
      if (head != head_at_entry) {
        // Space was freed: bump the consumer-progress word and wake any
        // producer parked on the full ring.
        ring->consumed.fetch_add(1, std::memory_order_release);
        if (ring->waiters.load(std::memory_order_acquire) != 0)
          futex_wake_all(&ring->consumed);
      }
    }
  }

 private:
  static std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

  shm_seg_hdr_t* header() const {
    return reinterpret_cast<shm_seg_hdr_t*>(map_);
  }
  shm_rank_slot_t* slot(int rank) const {
    return reinterpret_cast<shm_rank_slot_t*>(
               static_cast<char*>(map_) + slots_off_) +
           rank;
  }
  shm_ring_hdr_t* ring_hdr(int src, int dst) const {
    return reinterpret_cast<shm_ring_hdr_t*>(
        static_cast<char*>(map_) + rings_off_ +
        static_cast<std::size_t>(src * nranks_ + dst) * ring_stride_);
  }
  char* ring_data(int src, int dst) const {
    return reinterpret_cast<char*>(ring_hdr(src, dst)) + sizeof(shm_ring_hdr_t);
  }

  bool tombstone(int rank) {
    if (!mark_dead(rank)) return false;
    // Wake every rank's listener so sleeping progress engines purge.
    for (int r = 0; r < nranks_; ++r) {
      slot(r)->doorbell.fetch_add(1, std::memory_order_release);
      futex_wake_all(&slot(r)->doorbell);
    }
    return true;
  }

  // Liveness: each rank holds an exclusive flock on <job_dir>/alive-<rank>
  // for its whole life (taken before the attach barrier, so every peer's lock
  // exists before anyone probes). The kernel releases the lock on ANY death —
  // including SIGKILL, and including the zombie window before the launcher
  // reaps the process, where a kill(pid, 0) probe would still say "alive".
  // The pid check stays as a cheap first test (ESRCH is definitive).
  void probe_peer(int rank) {
    if (rank == self_ || is_dead(rank)) return;
    const int32_t pid = slot(rank)->pid.load(std::memory_order_acquire);
    if (pid <= 0) return;  // not attached yet
    if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
      tombstone(rank);
      return;
    }
    if (lock_dir_.empty()) return;
    const std::string path = lock_dir_ + "/alive-" + std::to_string(rank);
    const int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0) return;
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0) tombstone(rank);
    ::close(fd);  // releases the probe's lock if it got one
  }

  void probe_all_peers() {
    for (int r = 0; r < nranks_; ++r) probe_peer(r);
  }

  // Heartbeats (listener thread): stamp our own epoch, harvest peers' epoch
  // advances into the last-heard ledger, then let the generic sweep judge.
  void heartbeat_tick() {
    slot(self_)->progress_epoch.fetch_add(1, std::memory_order_release);
    note_heartbeat_sent();
    for (int r = 0; r < nranks_; ++r) {
      if (r == self_ || is_dead(r)) continue;
      const uint64_t e =
          slot(r)->progress_epoch.load(std::memory_order_acquire);
      if (e != epoch_cache_[static_cast<std::size_t>(r)]) {
        epoch_cache_[static_cast<std::size_t>(r)] = e;
        note_heard(r);
      }
    }
    liveness_sweep();
  }

  bool on_liveness_timeout(int rank) override {
    // Definitive probes first: a pid/flock-dead peer tombstones through
    // probe_peer and is an organic death, not a timeout.
    probe_peer(rank);
    if (is_dead(rank)) return false;
    // pid alive, lock held, epoch frozen: wedged. Tombstone fabric-wide so
    // every survivor folds it through the death-epoch purge.
    return tombstone(rank);
  }

  void attach() {
    const std::size_t hdr_bytes = align_up(sizeof(shm_seg_hdr_t), 64);
    const std::size_t slots_bytes =
        align_up(sizeof(shm_rank_slot_t) * static_cast<std::size_t>(nranks_),
                 64);
    ring_stride_ = sizeof(shm_ring_hdr_t) + ring_bytes_;
    slots_off_ = hdr_bytes;
    rings_off_ = hdr_bytes + slots_bytes;
    map_bytes_ = rings_off_ + static_cast<std::size_t>(nranks_ * nranks_) *
                                  ring_stride_;
    int fd = -1;
    if (self_ == 0) {
      ::shm_unlink(seg_name_.c_str());  // stale segment from a crashed job
      fd = ::shm_open(seg_name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
      if (fd < 0)
        throw std::runtime_error("shm_open(create) failed for " + seg_name_);
      if (::ftruncate(fd, static_cast<off_t>(map_bytes_)) != 0) {
        ::close(fd);
        throw std::runtime_error("ftruncate failed for " + seg_name_);
      }
    } else {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::seconds(30);
      // Rank 0 creates the segment empty and sizes it after: mapping it
      // before the ftruncate lands would fault (SIGBUS) on the first read.
      while (true) {
        fd = ::shm_open(seg_name_.c_str(), O_RDWR, 0600);
        struct stat st;
        if (fd >= 0 && ::fstat(fd, &st) == 0 &&
            static_cast<std::size_t>(st.st_size) >= map_bytes_)
          break;
        if (fd >= 0) ::close(fd);
        if (std::chrono::steady_clock::now() >= deadline)
          throw std::runtime_error("timeout attaching to " + seg_name_);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    map_ = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                  0);
    ::close(fd);
    if (map_ == MAP_FAILED) {
      map_ = nullptr;
      throw std::runtime_error("mmap failed for " + seg_name_);
    }
    if (self_ == 0) {
      shm_seg_hdr_t* hdr = header();
      hdr->magic = shm_magic;
      hdr->nranks = nranks_;
      hdr->ring_bytes = ring_bytes_;
      hdr->death_epoch.store(0, std::memory_order_relaxed);
      for (int r = 0; r < nranks_; ++r) {
        slot(r)->pid.store(0, std::memory_order_relaxed);
        slot(r)->tombstone.store(0, std::memory_order_relaxed);
        slot(r)->doorbell.store(0, std::memory_order_relaxed);
        slot(r)->progress_epoch.store(0, std::memory_order_relaxed);
      }
      for (int s = 0; s < nranks_; ++s)
        for (int d = 0; d < nranks_; ++d) {
          ring_hdr(s, d)->head.store(0, std::memory_order_relaxed);
          ring_hdr(s, d)->tail.store(0, std::memory_order_relaxed);
          ring_hdr(s, d)->consumed.store(0, std::memory_order_relaxed);
          ring_hdr(s, d)->waiters.store(0, std::memory_order_relaxed);
        }
      hdr->ready.store(1, std::memory_order_release);
    } else {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::seconds(30);
      while (header()->ready.load(std::memory_order_acquire) != 1) {
        if (std::chrono::steady_clock::now() >= deadline)
          throw std::runtime_error("timeout waiting for segment init");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (header()->magic != shm_magic || header()->nranks != nranks_ ||
          header()->ring_bytes != ring_bytes_)
        throw std::runtime_error(
            "shm segment mismatch (stale job or inconsistent LCI_SHM_RING_KB)");
    }
    slot(self_)->pid.store(static_cast<int32_t>(::getpid()),
                           std::memory_order_release);
    lock_dir_ = bootstrap::job_dir();
    if (!lock_dir_.empty()) {
      const std::string path = lock_dir_ + "/alive-" + std::to_string(self_);
      lock_fd_ = ::open(path.c_str(), O_CREAT | O_RDWR, 0600);
      if (lock_fd_ < 0 || ::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0)
        throw std::runtime_error("cannot take liveness lock " + path);
    }
  }

  static std::size_t align_up(std::size_t n, std::size_t a) {
    return (n + a - 1) & ~(a - 1);
  }

  // Doorbell listener: forwards futex bumps on this rank's word to every
  // registered device doorbell. The waits are bounded (and the thread also
  // serves as the periodic liveness probe for fully idle processes).
  void start_listener() {
    listener_ = std::thread([this] {
      uint32_t seen = slot(self_)->doorbell.load(std::memory_order_acquire);
      const uint64_t timeout_us = peer_timeout_us();
      // With heartbeats on, wake often enough to stamp/judge well inside the
      // timeout; the sweep's freeze grace handles our own stalls.
      long wait_ms = 200;
      if (timeout_us != 0)
        wait_ms = std::max<long>(
            1, std::min<long>(200, static_cast<long>(timeout_us / 4000)));
      while (!listener_stop_.load(std::memory_order_acquire)) {
        futex_wait(&slot(self_)->doorbell, seen, wait_ms);
        const uint32_t now =
            slot(self_)->doorbell.load(std::memory_order_acquire);
        if (now != seen) {
          seen = now;
          registry().ring_all();
        } else {
          probe_all_peers();
        }
        if (timeout_us != 0) heartbeat_tick();
      }
    });
  }

  void stop_listener() {
    listener_stop_.store(true, std::memory_order_release);
    slot(self_)->doorbell.fetch_add(1, std::memory_order_release);
    futex_wake_all(&slot(self_)->doorbell);
    if (listener_.joinable()) listener_.join();
  }

  const std::size_t ring_bytes_;
  const std::string seg_name_;
  std::size_t ring_stride_ = 0;
  std::size_t slots_off_ = 0;
  std::size_t rings_off_ = 0;
  std::size_t map_bytes_ = 0;
  void* map_ = nullptr;
  std::string lock_dir_;
  int lock_fd_ = -1;
  std::unique_ptr<util::spinlock_t[]> producer_locks_;
  std::unique_ptr<uint64_t[]> epoch_cache_;  // listener thread only
  uint64_t pump_calls_ = 0;  // pump-lock guarded
  std::thread listener_;
  std::atomic<bool> listener_stop_{false};
};

}  // namespace

std::shared_ptr<fabric_t> create_shm_fabric(int self_rank, int nranks,
                                            const config_t& config) {
  return std::make_shared<shm_fabric_t>(self_rank, nranks, config);
}

}  // namespace lci::net::detail
