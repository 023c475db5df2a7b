// Hostile-conditions matrix for the real backends (net/shm_fabric.cpp,
// net/tcp_fabric.cpp): the deterministic fault-injection knobs and the
// heartbeat liveness layer under adversarial schedules.
//
// Like test_net_backends, every test forks + execs N copies of this binary
// (the scripts/launch_local.sh environment contract) with LCI_FAULT_* /
// LCI_PEER_TIMEOUT_MS set, and the children run one role each:
//
//   * delay        — seeded receive-side frame holds; full data integrity
//   * loss         — seeded drops at the receiving device; deadline-bounded
//                    receives, no hang, wire_dropped observed
//   * killsched    — LCI_FAULT_KILL_RANK/KILL_AFTER_OPS; the survivor sees
//                    exactly-once fatal_peer_down
//   * sigstop      — a SIGSTOPped (wedged, not dead) rank is declared dead
//                    by the heartbeat timeout within a bounded wall clock
//   * backpressure — (shm) a shrunken ring parks producers on the futex
//   * tcpreset     — (tcp) injected connection resets; bounded, no hang
//   * tcpshort     — (tcp) injected short writes are invisible to the data
//   * exitflush    — (tcp) a rank that finalizes right after a send whose
//                    tail a short write left staged still delivers it
//
// Runs are reproducible per seed: the parent forwards LCI_FAULT_SEED from
// its own environment (default 1), so CI can sweep seeds.
//
// Not part of tier-1 (label "backend"): tier-1 stays the in-process sim
// suite; CI drives this binary in the backend-chaos legs.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/lci.hpp"

namespace {

// ---------------------------------------------------------------------------
// Child roles. A child process is this same binary with LCI_TEST_CHILD_ROLE
// set; the static runner below intercepts it before gtest sees anything.
// ---------------------------------------------------------------------------

int env_rank() {
  const char* env = std::getenv("LCI_RANK");
  return env != nullptr ? std::atoi(env) : 0;
}

#define CHILD_CHECK(cond)                                                  \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "[child rank %d] CHECK failed at %s:%d: %s\n",  \
                   env_rank(), __FILE__, __LINE__, #cond);                 \
      return 1;                                                            \
    }                                                                      \
  } while (0)

uint64_t wall_us() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Blocking send with the retry idiom.
void send_blocking(int peer, const void* buf, std::size_t size,
                   lci::tag_t tag) {
  lci::status_t s;
  do {
    s = lci::post_send(peer, const_cast<void*>(buf), size, tag, {});
    lci::progress();
  } while (s.error.is_retry());
}

// Blocking send that gives up on fatal errors (peer death mid-test is part
// of some scenarios). Returns false once the post stops being retryable-ok.
bool send_blocking_or_down(int peer, const void* buf, std::size_t size,
                           lci::tag_t tag) {
  for (int i = 0; i < 2000000; ++i) {
    lci::status_t s = lci::post_send(peer, const_cast<void*>(buf), size, tag,
                                     lci::comp_t{});
    lci::progress();
    if (s.error.is_fatal()) return false;
    if (!s.error.is_retry()) return true;
    if (i % 64 == 0) usleep(100);
  }
  return false;
}

// Neighbour-ring integrity sweep under delay injection: every frame may be
// held for several pump rounds, but per-sender FIFO and the payload bytes
// must survive intact, at any rank count.
int child_delay() {
  lci::g_runtime_init();
  const int me = lci::get_rank_me();
  const int n = lci::get_rank_n();
  const int to = (me + 1) % n;
  const int from = (me + n - 1) % n;
  constexpr int count = 100;
  constexpr std::size_t size = 64;
  lci::comp_t sync = lci::alloc_sync(1);
  char in[size], out[size];
  for (int i = 0; i < count; ++i) {
    std::snprintf(out, size, "delayed %d from rank %d", i, me);
    std::memset(in, 0, size);
    lci::status_t rs = lci::post_recv(from, in, size, /*tag=*/1, sync);
    send_blocking(to, out, size, 1);
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    CHILD_CHECK(rs.error.is_done());
    char expect[size];
    std::snprintf(expect, size, "delayed %d from rank %d", i, from);
    CHILD_CHECK(std::memcmp(in, expect, std::strlen(expect) + 1) == 0);
  }
  // No closing barrier: a barrier token can itself be held by the delay
  // injection while its sender finishes and exits, and the runtime drops a
  // message that reaches it after its sender is seen dead. The lockstep
  // loop above means both ranks are data-complete here, but the slower
  // rank's *last* inbound message may still be held at the head of its
  // inbound queue — stay alive and progressing for a grace period so its
  // countdown ticks out before our exit looks like a death to it.
  const uint64_t grace_until = wall_us() + 500 * 1000;
  while (wall_us() < grace_until) {
    lci::progress();
    usleep(1000);
  }
  lci::free_comp(&sync);
  lci::g_runtime_fina();
  return 0;
}

// Lockstep exchange under message loss: dropped messages never arrive,
// so every receive carries a deadline. The run must stay bounded, some
// drops must actually happen (the RNG is seeded, rates are high enough that
// zero drops is astronomically unlikely), and everything that does arrive
// must be intact.
int child_loss() {
  lci::g_runtime_init();
  const int me = lci::get_rank_me();
  const int peer = 1 - me;
  constexpr int count = 150;
  constexpr std::size_t size = 64;
  lci::comp_t sync = lci::alloc_sync(1);
  char in[size], out[size];
  int delivered = 0, timed_out = 0, peer_exited = 0;
  for (int i = 0; i < count; ++i) {
    std::snprintf(out, size, "lossy %d from rank %d", i, me);
    std::memset(in, 0, size);
    lci::status_t rs = lci::post_recv_x(peer, in, size, /*tag=*/1, sync)
                           .deadline(200 * 1000)();
    if (rs.error.code == lci::errorcode_t::fatal_peer_down) {
      ++peer_exited;
      break;
    }
    if (!send_blocking_or_down(peer, out, size, 1)) {
      ++peer_exited;
      if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
      break;
    }
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    if (rs.error.is_done()) {
      ++delivered;
      // Drops shift the sequence but per-(rank, tag) FIFO holds: whatever
      // arrives is a prefix-intact message from the peer.
      char prefix[16];
      std::snprintf(prefix, sizeof(prefix), "lossy ");
      CHILD_CHECK(std::memcmp(in, prefix, std::strlen(prefix)) == 0);
    } else if (rs.error.code == lci::errorcode_t::fatal_peer_down) {
      // The peer ran out of its own iterations, finalized, and exited —
      // without a closing barrier (impossible under loss) the tail of the
      // exchange legitimately observes the organic death.
      ++peer_exited;
      break;
    } else {
      CHILD_CHECK(rs.error.code == lci::errorcode_t::fatal_timeout);
      ++timed_out;
    }
  }
  CHILD_CHECK(delivered + timed_out + peer_exited >= 1);
  CHILD_CHECK(delivered > 0);
  const lci::counters_t c = lci::get_counters();
  CHILD_CHECK(c.wire_dropped > 0);
  // No closing barrier: barrier traffic is lossy too and would hang.
  lci::free_comp(&sync);
  lci::g_runtime_fina();
  return 0;
}

// LCI_FAULT_KILL_RANK=1 / KILL_AFTER_OPS=<n>: rank 1 self-destructs after
// its n-th successful post, exactly like the sim kill schedule. Rank 0
// asserts the exactly-once fatal_peer_down contract.
int child_killsched() {
  lci::g_runtime_init();
  const int me = lci::get_rank_me();
  if (me == 1) {
    // Victim: spray eager traffic until the schedule fires. After the
    // self-kill, posts either fail fatally (tcp: our sockets are gone) or
    // land in a tombstoned world (shm) — either way the loop stays bounded.
    char out[64];
    for (int i = 0; i < 200; ++i) {
      std::snprintf(out, sizeof(out), "doomed %d", i);
      if (!send_blocking_or_down(0, out, sizeof(out), 5)) break;
    }
    lci::g_runtime_fina();
    return 0;
  }
  // Survivor: a parked receive the victim will never satisfy must complete
  // exactly once with fatal_peer_down once the death is observed.
  // On shm the victim's self-kill tombstone is visible through the shared
  // segment the moment it lands, so a fast victim can be dead before this
  // post: the recv is then rejected with fatal_peer_down at post time
  // instead of parking — both are the exactly-once contract.
  char parked[64];
  lci::comp_t parked_sync = lci::alloc_sync(1);
  lci::status_t parked_rs =
      lci::post_recv(1, parked, sizeof(parked), /*tag=*/99, parked_sync);
  const bool was_parked = parked_rs.error.is_posted();
  CHILD_CHECK(was_parked ||
              parked_rs.error.code == lci::errorcode_t::fatal_peer_down);
  bool saw_peer_down = false;
  char probe[64] = "are you there";
  for (int i = 0; i < 200000 && !saw_peer_down; ++i) {
    lci::status_t s =
        lci::post_send(1, probe, sizeof(probe), /*tag=*/6, lci::comp_t{});
    lci::progress();
    if (s.error.code == lci::errorcode_t::fatal_peer_down) saw_peer_down = true;
    if (s.error.is_retry() || i % 16 == 0) usleep(500);
  }
  CHILD_CHECK(saw_peer_down);
  if (was_parked) {
    lci::sync_wait(parked_sync, &parked_rs);
    CHILD_CHECK(parked_rs.error.code == lci::errorcode_t::fatal_peer_down);
    const lci::counters_t c = lci::get_counters();
    CHILD_CHECK(c.peer_down_completions >= 1);
  }
  lci::free_comp(&parked_sync);
  lci::g_runtime_fina();
  return 0;
}

// Rank 1 wedges (the parent SIGSTOPs it — the process is alive, its pid
// probes pass, its flocks are held, but it makes no progress). With
// LCI_PEER_TIMEOUT_MS set the heartbeat layer must declare it dead and fold
// the death through the usual exactly-once fatal_peer_down purge.
int child_sigstop() {
  lci::g_runtime_init();
  const int me = lci::get_rank_me();
  const int n = lci::get_rank_n();
  lci::barrier();  // everyone heard from everyone just now
  if (me == 1) {
    // Victim: tell the parent we are ready to be wedged, then spin on
    // progress until the SIGSTOP lands (the parent SIGKILLs us later).
    const char* dir = std::getenv("LCI_JOB_DIR");
    if (dir != nullptr) {
      const std::string path = std::string(dir) + "/chaos-ready";
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f != nullptr) std::fclose(f);
    }
    const uint64_t until = wall_us() + 60u * 1000 * 1000;
    while (wall_us() < until) {
      lci::progress();
      usleep(1000);
    }
    lci::g_runtime_fina();
    return 0;
  }
  // Survivor: park a receive on the victim, then probe it until the
  // liveness timeout declares it dead. Bounded wall clock — a hang here is
  // exactly the failure mode this layer exists to remove.
  char parked[64];
  lci::comp_t parked_sync = lci::alloc_sync(1);
  lci::status_t parked_rs =
      lci::post_recv(1, parked, sizeof(parked), /*tag=*/99, parked_sync);
  CHILD_CHECK(parked_rs.error.is_posted());
  // Post the survivors-ring receive NOW, before the probe loop: survivors
  // leave that loop at different times, and a fast survivor may send its
  // ring message and exit while a slow one is still probing — an unmatched
  // frame from a now-dead peer evaporates in the death purge. With the recv
  // pre-posted the frame matches (and completes) the moment it arrives.
  std::vector<int> survivors;
  for (int r = 0; r < n; ++r)
    if (r != 1) survivors.push_back(r);
  lci::comp_t ring_sync = lci::alloc_sync(1);
  lci::status_t ring_rs;
  int ring_to = -1, ring_from = -1;
  char ring_in[64] = {};
  if (survivors.size() >= 2) {
    std::size_t idx = 0;
    while (survivors[idx] != me) ++idx;
    ring_to = survivors[(idx + 1) % survivors.size()];
    ring_from = survivors[(idx + survivors.size() - 1) % survivors.size()];
    ring_rs =
        lci::post_recv(ring_from, ring_in, sizeof(ring_in), /*tag=*/7, ring_sync);
    CHILD_CHECK(ring_rs.error.is_posted() || ring_rs.error.is_done());
  }
  const uint64_t start = wall_us();
  const uint64_t limit = start + 20u * 1000 * 1000;
  bool saw_peer_down = false;
  char probe[64] = "anyone home";
  while (!saw_peer_down && wall_us() < limit) {
    lci::status_t s =
        lci::post_send(1, probe, sizeof(probe), /*tag=*/6, lci::comp_t{});
    lci::progress();
    if (s.error.code == lci::errorcode_t::fatal_peer_down) saw_peer_down = true;
    usleep(1000);
  }
  CHILD_CHECK(saw_peer_down);
  lci::sync_wait(parked_sync, &parked_rs);
  CHILD_CHECK(parked_rs.error.code == lci::errorcode_t::fatal_peer_down);
  const lci::counters_t c = lci::get_counters();
  CHILD_CHECK(c.heartbeats_sent > 0);
  // peers_timed_out is NOT asserted per survivor: on shm the timeout
  // handler tombstones the victim fabric-wide, so only the first sweeper
  // counts it — the others observe the tombstone organically. Publish the
  // local count; the parent asserts the sum across survivors >= 1.
  if (const char* dir = std::getenv("LCI_JOB_DIR")) {
    const std::string path =
        std::string(dir) + "/timeout-count-" + std::to_string(me);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%llu",
                   static_cast<unsigned long long>(c.peers_timed_out));
      std::fclose(f);
    }
  }
  // The survivors can still talk to each other (a ring over everyone but
  // the victim; only meaningful with at least two survivors). The receive
  // was pre-posted before the probe loop, above.
  if (survivors.size() >= 2) {
    char out[64];
    std::snprintf(out, sizeof(out), "still alive (rank %d)", me);
    send_blocking(ring_to, out, sizeof(out), 7);
    if (ring_rs.error.is_posted()) lci::sync_wait(ring_sync, &ring_rs);
    if (!ring_rs.error.is_done())
      std::fprintf(stderr, "[child rank %d] ring recv from %d code=%d\n", me,
                   ring_from, static_cast<int>(ring_rs.error.code));
    CHILD_CHECK(ring_rs.error.is_done());
    char expect[64];
    std::snprintf(expect, sizeof(expect), "still alive (rank %d)", ring_from);
    CHILD_CHECK(std::memcmp(ring_in, expect, std::strlen(expect) + 1) == 0);
  }
  lci::free_comp(&ring_sync);
  lci::free_comp(&parked_sync);
  lci::g_runtime_fina();
  return 0;
}

// (shm) LCI_FAULT_SHM_RING_SHRINK squeezes the effective ring capacity to a
// few frames: the producer must hit ring-full, park on the consumer-progress
// futex (instead of spinning), and surface the event in the counters.
int child_backpressure() {
  lci::g_runtime_init();
  const int me = lci::get_rank_me();
  constexpr int count = 1000;
  constexpr std::size_t size = 1024;
  if (me == 0) {
    std::vector<char> out(size, 'b');
    for (int i = 0; i < count; ++i) {
      std::snprintf(out.data(), 32, "bp %d", i);
      send_blocking(1, out.data(), size, 8);
    }
    const lci::counters_t c = lci::get_counters();
    CHILD_CHECK(c.backpressure_waits > 0);
  } else {
    std::vector<char> in(size);
    lci::comp_t sync = lci::alloc_sync(1);
    for (int i = 0; i < count; ++i) {
      std::memset(in.data(), 0, 32);
      lci::status_t rs = lci::post_recv(0, in.data(), size, /*tag=*/8, sync);
      if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
      CHILD_CHECK(rs.error.is_done());
      char expect[32];
      std::snprintf(expect, sizeof(expect), "bp %d", i);
      CHILD_CHECK(std::memcmp(in.data(), expect, std::strlen(expect) + 1) == 0);
      // Stay a little behind the producer so the shrunken ring really fills.
      if (i % 16 == 0) usleep(200);
    }
    lci::free_comp(&sync);
  }
  lci::barrier();
  lci::g_runtime_fina();
  return 0;
}

// (tcp) Injected connection resets: either the exchange completes, or the
// link dies and both sides observe fatal_peer_down — never a hang, never a
// crash. Intact payloads are checked for whatever does get through.
int child_tcpreset() {
  lci::g_runtime_init();
  const int me = lci::get_rank_me();
  const int peer = 1 - me;
  constexpr int count = 200;
  constexpr std::size_t size = 64;
  lci::comp_t sync = lci::alloc_sync(1);
  char in[size], out[size];
  for (int i = 0; i < count; ++i) {
    std::snprintf(out, size, "reset %d from rank %d", i, me);
    std::memset(in, 0, size);
    lci::status_t rs = lci::post_recv_x(peer, in, size, /*tag=*/1, sync)
                           .deadline(500 * 1000)();
    if (rs.error.code == lci::errorcode_t::fatal_peer_down) break;
    const bool sent = send_blocking_or_down(peer, out, size, 1);
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    if (rs.error.is_done()) {
      char prefix[16];
      std::snprintf(prefix, sizeof(prefix), "reset ");
      CHILD_CHECK(std::memcmp(in, prefix, std::strlen(prefix)) == 0);
    } else {
      CHILD_CHECK(rs.error.code == lci::errorcode_t::fatal_timeout ||
                  rs.error.code == lci::errorcode_t::fatal_peer_down);
    }
    if (!sent) break;  // link is gone — nothing more to exchange
  }
  lci::free_comp(&sync);
  lci::g_runtime_fina();
  return 0;
}

// (tcp) Injected short writes: the transport must resume mid-frame and the
// injection must be invisible to the data — full integrity for both eager
// and rendezvous-sized messages at an aggressive injection rate.
int child_tcpshort() {
  lci::g_runtime_init();
  const int me = lci::get_rank_me();
  const int peer = 1 - me;
  lci::comp_t sync = lci::alloc_sync(1);
  lci::comp_t send_sync = lci::alloc_sync(1);
  // Eager sweep.
  constexpr int count = 100;
  constexpr std::size_t size = 64;
  char in[size], out[size];
  for (int i = 0; i < count; ++i) {
    std::snprintf(out, size, "short %d from rank %d", i, me);
    std::memset(in, 0, size);
    lci::status_t rs = lci::post_recv(peer, in, size, /*tag=*/1, sync);
    send_blocking(peer, out, size, 1);
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    CHILD_CHECK(rs.error.is_done());
    char expect[size];
    std::snprintf(expect, size, "short %d from rank %d", i, peer);
    CHILD_CHECK(std::memcmp(in, expect, std::strlen(expect) + 1) == 0);
  }
  // Rendezvous sweep — large frames make partial writev the common case.
  constexpr int iters = 4;
  constexpr std::size_t big = 128 * 1024;
  std::vector<char> bin(big), bout(big);
  for (int i = 0; i < iters; ++i) {
    for (std::size_t j = 0; j < big; j += 512)
      bout[j] = static_cast<char>((i * 37 + me * 11 + j / 512) & 0x7f);
    std::memset(bin.data(), 0, big);
    lci::status_t rs = lci::post_recv(peer, bin.data(), big, /*tag=*/2, sync);
    lci::status_t ss;
    do {
      ss = lci::post_send(peer, bout.data(), big, 2, send_sync);
      lci::progress();
    } while (ss.error.is_retry());
    if (ss.error.is_posted()) lci::sync_wait(send_sync, &ss);
    CHILD_CHECK(ss.error.is_done());
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    CHILD_CHECK(rs.error.is_done());
    for (std::size_t j = 0; j < big; j += 512) {
      const char want = static_cast<char>((i * 37 + peer * 11 + j / 512) & 0x7f);
      CHILD_CHECK(bin[j] == want);
    }
  }
  lci::barrier();
  lci::free_comp(&send_sync);
  lci::free_comp(&sync);
  lci::g_runtime_fina();
  return 0;
}

// (tcp) Every write is short, so the tail of rank 0's only frame is still
// staged when its send returns done. Rank 0 finalizes and exits at once; the
// frame must still reach rank 1 whole, before the hangup.
int child_exitflush() {
  lci::g_runtime_init();
  const int me = lci::get_rank_me();
  constexpr std::size_t size = 64;
  char buf[size] = {};
  if (me == 0) {
    std::snprintf(buf, size, "last words from rank 0");
    send_blocking(1, buf, size, /*tag=*/1);
  } else {
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t rs = lci::post_recv(0, buf, size, /*tag=*/1, sync);
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    CHILD_CHECK(rs.error.is_done());
    CHILD_CHECK(std::strcmp(buf, "last words from rank 0") == 0);
    lci::free_comp(&sync);
  }
  lci::g_runtime_fina();
  return 0;
}

int run_child(const std::string& role) {
  if (role == "delay") return child_delay();
  if (role == "loss") return child_loss();
  if (role == "killsched") return child_killsched();
  if (role == "sigstop") return child_sigstop();
  if (role == "backpressure") return child_backpressure();
  if (role == "tcpreset") return child_tcpreset();
  if (role == "tcpshort") return child_tcpshort();
  if (role == "exitflush") return child_exitflush();
  std::fprintf(stderr, "unknown chaos child role: %s\n", role.c_str());
  return 2;
}

// Runs before main(): children never reach gtest.
struct child_runner_t {
  child_runner_t() {
    const char* role = std::getenv("LCI_TEST_CHILD_ROLE");
    if (role == nullptr) return;
    std::_Exit(run_child(role));
  }
} child_runner_;

// ---------------------------------------------------------------------------
// Parent-side launcher. Extends the test_net_backends launcher with
// per-scenario environment (the fault knobs) and the SIGSTOP schedule.
// ---------------------------------------------------------------------------

struct launch_opt_t {
  std::vector<std::pair<std::string, std::string>> env;
  // When >= 0: wait for the victim's chaos-ready marker, SIGSTOP that rank,
  // reap every other rank, then SIGCONT+SIGKILL the victim.
  int sigstop_rank = -1;
};

struct launch_result_t {
  std::vector<int> exit_codes;    // -1 when the rank died of a signal
  std::vector<int> term_signals;  // 0 when the rank exited normally
  double stop_to_exit_s = 0.0;    // SIGSTOP → last survivor reaped
  unsigned long long peers_timed_out_sum = 0;  // from timeout-count-* files
};

std::string fault_seed() {
  const char* env = std::getenv("LCI_FAULT_SEED");
  return env != nullptr && env[0] != '\0' ? env : "1";
}

launch_result_t launch(const std::string& backend, int nranks,
                       const std::string& role, const launch_opt_t& opt = {}) {
  char tmpl[] = "/tmp/lci-chaos-job.XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) throw std::runtime_error("mkdtemp failed");
  const std::string job_dir = dir;
  const std::string job_id =
      "chaos" + std::to_string(static_cast<unsigned>(::getpid())) +
      job_dir.substr(job_dir.size() - 6);
  std::vector<pid_t> pids;
  for (int r = 0; r < nranks; ++r) {
    const pid_t pid = fork();
    if (pid == 0) {
      setenv("LCI_BACKEND", backend.c_str(), 1);
      setenv("LCI_RANK", std::to_string(r).c_str(), 1);
      setenv("LCI_NRANKS", std::to_string(nranks).c_str(), 1);
      setenv("LCI_JOB_DIR", job_dir.c_str(), 1);
      setenv("LCI_JOB_ID", job_id.c_str(), 1);
      setenv("LCI_TEST_CHILD_ROLE", role.c_str(), 1);
      setenv("LCI_FAULT_SEED", fault_seed().c_str(), 1);
      for (const auto& kv : opt.env) setenv(kv.first.c_str(), kv.second.c_str(), 1);
      execl("/proc/self/exe", "test_net_chaos_child",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    pids.push_back(pid);
  }
  launch_result_t result;
  result.exit_codes.assign(static_cast<std::size_t>(nranks), -1);
  result.term_signals.assign(static_cast<std::size_t>(nranks), 0);
  auto reap = [&](int r) {
    int status = 0;
    waitpid(pids[static_cast<std::size_t>(r)], &status, 0);
    result.exit_codes[static_cast<std::size_t>(r)] =
        WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result.term_signals[static_cast<std::size_t>(r)] =
        WIFSIGNALED(status) ? WTERMSIG(status) : 0;
  };
  if (opt.sigstop_rank >= 0) {
    // Wedge the victim only once its runtime is up (it write the marker
    // after the post-init barrier) so the bootstrap handshake is clean.
    const std::string marker = job_dir + "/chaos-ready";
    struct stat st;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (::stat(marker.c_str(), &st) != 0 &&
           std::chrono::steady_clock::now() < deadline)
      usleep(2000);
    kill(pids[static_cast<std::size_t>(opt.sigstop_rank)], SIGSTOP);
    const auto stopped = std::chrono::steady_clock::now();
    for (int r = 0; r < nranks; ++r)
      if (r != opt.sigstop_rank) reap(r);
    result.stop_to_exit_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      stopped)
            .count();
    kill(pids[static_cast<std::size_t>(opt.sigstop_rank)], SIGCONT);
    kill(pids[static_cast<std::size_t>(opt.sigstop_rank)], SIGKILL);
    reap(opt.sigstop_rank);
  } else {
    for (int r = 0; r < nranks; ++r) reap(r);
  }
  for (int r = 0; r < nranks; ++r) {
    const std::string path = job_dir + "/timeout-count-" + std::to_string(r);
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    unsigned long long v = 0;
    if (std::fscanf(f, "%llu", &v) == 1) result.peers_timed_out_sum += v;
    std::fclose(f);
  }
  const std::string rm = "rm -rf " + job_dir;
  std::system(rm.c_str());
  const std::string shm = "/dev/shm/lci-" + job_id;
  ::unlink(shm.c_str());
  return result;
}

std::vector<int> zeros(int n) { return std::vector<int>(static_cast<std::size_t>(n), 0); }

class NetChaos : public ::testing::TestWithParam<const char*> {};

TEST_P(NetChaos, DelaySweep2) {
  launch_opt_t opt;
  opt.env = {{"LCI_FAULT_DELAY_RATE", "0.3"}, {"LCI_FAULT_DELAY_POLLS", "8"}};
  const launch_result_t r = launch(GetParam(), 2, "delay", opt);
  EXPECT_EQ(r.exit_codes, zeros(2));
}

TEST_P(NetChaos, DelaySweep4) {
  launch_opt_t opt;
  opt.env = {{"LCI_FAULT_DELAY_RATE", "0.3"}, {"LCI_FAULT_DELAY_POLLS", "8"}};
  const launch_result_t r = launch(GetParam(), 4, "delay", opt);
  EXPECT_EQ(r.exit_codes, zeros(4));
}

TEST_P(NetChaos, LossSweep) {
  launch_opt_t opt;
  opt.env = {{"LCI_FAULT_LOSS_RATE", "0.15"}};
  const launch_result_t r = launch(GetParam(), 2, "loss", opt);
  EXPECT_EQ(r.exit_codes, zeros(2));
}

TEST_P(NetChaos, KillSchedule) {
  launch_opt_t opt;
  opt.env = {{"LCI_FAULT_KILL_RANK", "1"}, {"LCI_FAULT_KILL_AFTER_OPS", "20"}};
  const launch_result_t r = launch(GetParam(), 2, "killsched", opt);
  EXPECT_EQ(r.exit_codes[0], 0);
  EXPECT_EQ(r.exit_codes[1], 0);
}

// 2000 ms rather than a snappier value: liveness timeouts cannot tell a
// SIGSTOPped peer from one that is merely starved of CPU, and CI boxes (and
// this repo's single-core container) starve freely. The detection bound
// asserted below is still far under the hang this test exists to rule out.
TEST_P(NetChaos, SigstopHang2) {
  launch_opt_t opt;
  opt.env = {{"LCI_PEER_TIMEOUT_MS", "2000"}};
  opt.sigstop_rank = 1;
  const launch_result_t r = launch(GetParam(), 2, "sigstop", opt);
  EXPECT_EQ(r.exit_codes[0], 0);
  EXPECT_EQ(r.term_signals[1], SIGKILL);
  EXPECT_GE(r.peers_timed_out_sum, 1u);
  // Survivors must be out well within a handful of timeouts (the acceptance
  // bound is 2x the 2 s timeout for the detection itself; the exit adds
  // teardown, so give scheduling slack without letting a hang pass).
  EXPECT_LT(r.stop_to_exit_s, 10.0);
}

TEST_P(NetChaos, SigstopHang4) {
  launch_opt_t opt;
  opt.env = {{"LCI_PEER_TIMEOUT_MS", "2000"}};
  opt.sigstop_rank = 1;
  const launch_result_t r = launch(GetParam(), 4, "sigstop", opt);
  EXPECT_EQ(r.exit_codes[0], 0);
  EXPECT_EQ(r.exit_codes[2], 0);
  EXPECT_EQ(r.exit_codes[3], 0);
  EXPECT_EQ(r.term_signals[1], SIGKILL);
  EXPECT_GE(r.peers_timed_out_sum, 1u);
  EXPECT_LT(r.stop_to_exit_s, 10.0);
}

TEST_P(NetChaos, Backpressure) {
  if (std::string(GetParam()) != "shm")
    GTEST_SKIP() << "futex backpressure is an shm-ring mechanism";
  launch_opt_t opt;
  opt.env = {{"LCI_FAULT_SHM_RING_SHRINK", "4096"}};
  const launch_result_t r = launch(GetParam(), 2, "backpressure", opt);
  EXPECT_EQ(r.exit_codes, zeros(2));
}

TEST_P(NetChaos, TcpReset) {
  if (std::string(GetParam()) != "tcp")
    GTEST_SKIP() << "connection resets are a tcp fault";
  launch_opt_t opt;
  opt.env = {{"LCI_FAULT_TCP_RESET_RATE", "0.02"},
             {"LCI_PEER_TIMEOUT_MS", "500"}};
  const launch_result_t r = launch(GetParam(), 2, "tcpreset", opt);
  EXPECT_EQ(r.exit_codes, zeros(2));
}

TEST_P(NetChaos, TcpShortWrite) {
  if (std::string(GetParam()) != "tcp")
    GTEST_SKIP() << "short writes are a tcp fault";
  launch_opt_t opt;
  opt.env = {{"LCI_FAULT_TCP_SHORT_WRITE_RATE", "0.3"}};
  const launch_result_t r = launch(GetParam(), 2, "tcpshort", opt);
  EXPECT_EQ(r.exit_codes, zeros(2));
}

// The exit flush: staged bytes leave before the sockets close.
TEST_P(NetChaos, TcpExitFlushesStagedFrames) {
  if (std::string(GetParam()) != "tcp")
    GTEST_SKIP() << "short writes are a tcp fault";
  launch_opt_t opt;
  opt.env = {{"LCI_FAULT_TCP_SHORT_WRITE_RATE", "1.0"}};
  const launch_result_t r = launch(GetParam(), 2, "exitflush", opt);
  EXPECT_EQ(r.exit_codes, zeros(2));
}

INSTANTIATE_TEST_SUITE_P(Backends, NetChaos,
                         ::testing::Values("shm", "tcp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
