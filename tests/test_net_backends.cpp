// Multi-process backend matrix (net/shm_fabric.cpp, net/tcp_fabric.cpp).
//
// Unlike the rest of the suite these tests cross real process boundaries:
// each test forks + execs N copies of this binary (the same environment
// contract as scripts/launch_local.sh) and the children run one role each —
// eager traffic, rendezvous traffic (which also exercises the registration
// cache), coalesced eager batches, a SIGKILL of one rank mid-traffic with
// the survivors asserting exactly-once fatal_peer_down, and two roles that
// drive the net:: layer directly: exact device routing when a peer creates
// its devices late, and every lock layout under concurrent posters. Every
// scenario runs on both shm and tcp.
//
// Not part of tier-1 (label "backend"): tier-1 stays the in-process sim
// suite; CI drives this binary in the dedicated backend legs.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/lci.hpp"
#include "net/net.hpp"

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

// Blocking send with the retry idiom.
void send_blocking(int peer, const void* buf, std::size_t size,
                   lci::tag_t tag) {
  lci::status_t s;
  do {
    s = lci::post_send(peer, const_cast<void*>(buf), size, tag, {});
    lci::progress();
  } while (s.error.is_retry());
}

int child_eager() {
  lci::g_runtime_init();
  const int me = lci::get_rank_me();
  const int peer = 1 - me;
  constexpr int count = 100;
  constexpr std::size_t size = 64;
  lci::comp_t sync = lci::alloc_sync(1);
  char in[size], out[size];
  for (int i = 0; i < count; ++i) {
    std::snprintf(out, size, "msg %d from rank %d", i, me);
    std::memset(in, 0, size);
    lci::status_t rs = lci::post_recv(peer, in, size, /*tag=*/1, sync);
    send_blocking(peer, out, size, 1);
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    CHILD_CHECK(rs.error.is_done());
    char expect[size];
    std::snprintf(expect, size, "msg %d from rank %d", i, peer);
    CHILD_CHECK(std::memcmp(in, expect, std::strlen(expect) + 1) == 0);
  }
  lci::barrier();
  lci::free_comp(&sync);
  lci::g_runtime_fina();
  return 0;
}

int child_rendezvous() {
  lci::g_runtime_init();
  const int me = lci::get_rank_me();
  const int peer = 1 - me;
  constexpr int iters = 8;
  constexpr std::size_t size = 256 * 1024;  // well past the eager threshold
  std::vector<char> in(size), out(size);
  lci::comp_t sync = lci::alloc_sync(1);
  lci::comp_t send_sync = lci::alloc_sync(1);
  for (int i = 0; i < iters; ++i) {
    for (std::size_t j = 0; j < size; j += 1024)
      out[j] = static_cast<char>((i * 31 + me * 7 + j / 1024) & 0x7f);
    std::memset(in.data(), 0, size);
    lci::status_t rs = lci::post_recv(peer, in.data(), size, /*tag=*/2, sync);
    // Rendezvous sends transfer straight out of `out` — wait for the send
    // completion before reusing the buffer next iteration (on the real
    // backends the data leaves asynchronously; sim's synchronous copy would
    // mask the aliasing).
    lci::status_t ss;
    do {
      ss = lci::post_send(peer, out.data(), size, 2, send_sync);
      lci::progress();
    } while (ss.error.is_retry());
    if (ss.error.is_posted()) lci::sync_wait(send_sync, &ss);
    CHILD_CHECK(ss.error.is_done());
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    CHILD_CHECK(rs.error.is_done());
    for (std::size_t j = 0; j < size; j += 1024) {
      const char want = static_cast<char>((i * 31 + peer * 7 + j / 1024) & 0x7f);
      if (in[j] != want)
        std::fprintf(stderr, "[child rank %d] mismatch i=%d j=%zu got=%d want=%d\n",
                     me, i, j, in[j], want);
      CHILD_CHECK(in[j] == want);
    }
  }
  // The receive buffer was re-registered every iteration at the same base and
  // size — from the second transfer on, the registration cache must serve it.
  const lci::counters_t c = lci::get_counters();
  CHILD_CHECK(c.send_rdv >= iters);
  if (lci::get_attr(lci::get_g_runtime()).reg_cache_entries > 0)
    CHILD_CHECK(c.reg_cache_hits >= iters - 1);
  lci::barrier();
  lci::free_comp(&send_sync);
  lci::free_comp(&sync);
  lci::g_runtime_fina();
  return 0;
}

int child_coalesced() {
  lci::g_runtime_init();
  const int me = lci::get_rank_me();
  constexpr int count = 200;
  constexpr std::size_t size = 48;
  if (me == 0) {
    // Explicit per-post aggregation: sub-messages batch into eager_batch
    // wire messages regardless of runtime defaults.
    char out[size];
    for (int i = 0; i < count; ++i) {
      std::snprintf(out, size, "coalesced %d", i);
      lci::status_t s;
      do {
        s = lci::post_send_x(1, out, size, /*tag=*/3, lci::comp_t{})
                .allow_aggregation(true)();
        lci::progress();
      } while (s.error.is_retry());
    }
    // Drain any armed slot (age-based flush) until the peer confirms.
    char ack = 0;
    lci::comp_t sync = lci::alloc_sync(1);
    lci::status_t rs = lci::post_recv(1, &ack, 1, /*tag=*/4, sync);
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    CHILD_CHECK(ack == 'k');
    lci::free_comp(&sync);
  } else {
    char in[size];
    lci::comp_t sync = lci::alloc_sync(1);
    for (int i = 0; i < count; ++i) {
      std::memset(in, 0, size);
      lci::status_t rs = lci::post_recv(0, in, size, /*tag=*/3, sync);
      if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
      CHILD_CHECK(rs.error.is_done());
      char expect[size];
      std::snprintf(expect, size, "coalesced %d", i);  // FIFO per (rank, tag)
      CHILD_CHECK(std::memcmp(in, expect, std::strlen(expect) + 1) == 0);
    }
    const char ack = 'k';
    send_blocking(0, &ack, 1, 4);
  }
  lci::barrier();
  lci::g_runtime_fina();
  return 0;
}

// Rank 1 raises SIGKILL mid-traffic; the survivors (0 and 2) assert that
//  * a parked receive from the victim completes exactly once, with
//    fatal_peer_down,
//  * posts naming the victim stop succeeding (fatal_peer_down, returned not
//    thrown) within a bounded number of attempts,
//  * the fabric still works between the survivors afterwards.
int child_kill() {
  lci::g_runtime_init();
  const int me = lci::get_rank_me();
  if (me == 1) {
    // Victim: spray a little eager traffic at both survivors, then die
    // without a goodbye (some frames may still sit in transport buffers).
    char out[64];
    for (int i = 0; i < 10; ++i) {
      std::snprintf(out, sizeof(out), "doomed %d", i);
      send_blocking(0, out, sizeof(out), 5);
      send_blocking(2, out, sizeof(out), 5);
    }
    raise(SIGKILL);
    return 9;  // unreachable
  }
  const int buddy = me == 0 ? 2 : 0;
  // Parked receive the victim will never satisfy.
  char parked[64];
  lci::comp_t parked_sync = lci::alloc_sync(1);
  lci::status_t parked_rs =
      lci::post_recv(1, parked, sizeof(parked), /*tag=*/99, parked_sync);
  CHILD_CHECK(parked_rs.error.is_posted());
  // Drain the victim's pre-death traffic (each message completes done; once
  // the death is observed, the remaining parked receives turn peer_down).
  lci::comp_t sync = lci::alloc_sync(1);
  int delivered = 0, failed = 0;
  for (int i = 0; i < 10; ++i) {
    char in[64] = {};
    lci::status_t rs = lci::post_recv(1, in, sizeof(in), /*tag=*/5, sync);
    if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
    if (rs.error.is_done())
      ++delivered;
    else if (rs.error.code == lci::errorcode_t::fatal_peer_down)
      ++failed;
    else
      CHILD_CHECK(false);
  }
  CHILD_CHECK(delivered + failed == 10);
  // Posts naming the victim must start failing with fatal_peer_down.
  bool saw_peer_down = false;
  char probe[64] = "are you there";
  for (int i = 0; i < 20000 && !saw_peer_down; ++i) {
    lci::status_t s =
        lci::post_send(1, probe, sizeof(probe), /*tag=*/6, lci::comp_t{});
    lci::progress();
    if (s.error.code == lci::errorcode_t::fatal_peer_down) saw_peer_down = true;
    if (s.error.is_retry() || i % 16 == 0) usleep(1000);
  }
  CHILD_CHECK(saw_peer_down);
  // Exactly once: the parked receive has fired (or fires now) with
  // fatal_peer_down — sync_wait returns a single completion.
  lci::sync_wait(parked_sync, &parked_rs);
  CHILD_CHECK(parked_rs.error.code == lci::errorcode_t::fatal_peer_down);
  // The survivors can still talk to each other.
  char in[64] = {}, out[64];
  std::snprintf(out, sizeof(out), "still alive (rank %d)", me);
  lci::status_t rs = lci::post_recv(buddy, in, sizeof(in), /*tag=*/7, sync);
  send_blocking(buddy, out, sizeof(out), 7);
  if (rs.error.is_posted()) lci::sync_wait(sync, &rs);
  CHILD_CHECK(rs.error.is_done());
  char expect[64];
  std::snprintf(expect, sizeof(expect), "still alive (rank %d)", buddy);
  CHILD_CHECK(std::memcmp(in, expect, std::strlen(expect) + 1) == 0);
  const lci::counters_t c = lci::get_counters();
  CHILD_CHECK(c.peer_down_completions >= 1);
  lci::free_comp(&parked_sync);
  lci::free_comp(&sync);
  lci::g_runtime_fina();
  return 0;
}

// ---------------------------------------------------------------------------
// net::-level roles: a fabric straight from net::create_fabric, no runtime.
// The ranks coordinate through marker files in the job directory, so the
// only traffic on the fabric is the traffic under test.
// ---------------------------------------------------------------------------

namespace net = lci::net;

std::string job_file(const std::string& name) {
  const char* dir = std::getenv("LCI_JOB_DIR");
  return std::string(dir != nullptr ? dir : ".") + "/" + name;
}

void touch(const std::string& name) {
  std::FILE* f = std::fopen(job_file(name).c_str(), "w");
  if (f != nullptr) std::fclose(f);
}

bool exists(const std::string& name) {
  struct stat st;
  return ::stat(job_file(name).c_str(), &st) == 0;
}

std::shared_ptr<net::fabric_t> child_fabric(const net::config_t& config = {}) {
  net::backend_t backend = net::backend_t::sim;
  net::backend_from_string(std::getenv("LCI_BACKEND"), &backend);
  return net::create_fabric(backend, config);
}

using clock_type = std::chrono::steady_clock;

// Polls `dev` once; counts receive completions into *recvs and stores the
// last one in *last.
void poll_count(net::device_t& dev, int* recvs, net::cqe_t* last) {
  net::cqe_t cqes[16];
  const auto polled = dev.poll_cq(cqes, 16);
  for (std::size_t i = 0; i < polled.count; ++i) {
    if (cqes[i].op != net::op_t::recv) continue;
    ++*recvs;
    *last = cqes[i];
  }
}

// Exact routing: rank 0 sends from its device 1 while rank 1 has only its
// device 0. The frame must wait for rank 1's device 1 — landing on device 0
// would split device 1's stream over two endpoints — and arrive there once
// rank 1 creates it.
int child_exact_route() {
  auto fabric = child_fabric();
  const int me = net::bootstrap_rank();
  auto ctx = fabric->create_context(me);
  auto dev0 = ctx->create_device();
  const auto deadline = clock_type::now() + std::chrono::seconds(20);
  int recvs0 = 0;
  net::cqe_t last{};
  if (me == 0) {
    auto dev1 = ctx->create_device();
    const uint32_t payload = 0xfeedu;
    net::post_result_t r;
    while ((r = dev1->post_send(1, &payload, sizeof(payload), /*imm=*/7,
                                nullptr)) != net::post_result_t::ok) {
      CHILD_CHECK(r != net::post_result_t::peer_down);
      CHILD_CHECK(clock_type::now() < deadline);
      poll_count(*dev1, &recvs0, &last);
    }
    touch("route-sent");
    // Keep pumping (tcp flushes staged egress there) until rank 1 is done
    // (or gone: a failed check there exits early).
    while (!exists("route-done") && !dev0->is_peer_down(1)) {
      CHILD_CHECK(clock_type::now() < deadline);
      poll_count(*dev0, &recvs0, &last);
      poll_count(*dev1, &recvs0, &last);
      usleep(1000);
    }
    return 0;
  }
  char bufs0[4][64];
  for (auto& buf : bufs0)
    CHILD_CHECK(dev0->post_recv(buf, sizeof(buf), buf) ==
                net::post_result_t::ok);
  while (!exists("route-sent")) {
    CHILD_CHECK(clock_type::now() < deadline);
    poll_count(*dev0, &recvs0, &last);
    usleep(1000);
  }
  // The frame is on its way or already here: give the pump time to take it.
  for (int i = 0; i < 200; ++i) {
    poll_count(*dev0, &recvs0, &last);
    usleep(1000);
  }
  CHILD_CHECK(recvs0 == 0);
  auto dev1 = ctx->create_device();
  char bufs1[4][64];
  for (auto& buf : bufs1)
    CHILD_CHECK(dev1->post_recv(buf, sizeof(buf), buf) ==
                net::post_result_t::ok);
  int recvs1 = 0;
  net::cqe_t got{};
  while (recvs1 == 0) {
    CHILD_CHECK(clock_type::now() < deadline);
    poll_count(*dev1, &recvs1, &got);
    poll_count(*dev0, &recvs0, &last);
  }
  CHILD_CHECK(recvs1 == 1);
  CHILD_CHECK(got.peer_rank == 0 && got.imm == 7 &&
              got.length == sizeof(uint32_t));
  CHILD_CHECK(*static_cast<const uint32_t*>(got.buffer) == 0xfeedu);
  CHILD_CHECK(recvs0 == 0);
  touch("route-done");
  return 0;
}

// The paper's lock layouts on a real transport: two threads per rank post
// to the peer while a third polls and reposts. Posts retry on every retry
// result (retry_lock included); every message must arrive exactly once and
// in its sender's order.
int child_lock_layout(const std::string& layout) {
  net::config_t config;
  if (layout == "ofi") {
    config.lock_model = net::lock_model_t::ofi;
  } else {
    config.lock_model = net::lock_model_t::ibv;
    if (layout == "ibv/all_qp") config.td_strategy = net::td_strategy_t::all_qp;
    if (layout == "ibv/none") config.td_strategy = net::td_strategy_t::none;
  }
  auto fabric = child_fabric(config);
  const int me = net::bootstrap_rank();
  const int peer = 1 - me;
  auto ctx = fabric->create_context(me);
  auto dev = ctx->create_device();
  struct msg_t {
    uint32_t thread;
    uint32_t seq;
  };
  constexpr int nposters = 2;
  constexpr uint32_t per_poster = 2000;
  constexpr std::size_t nbufs = 64;
  std::vector<msg_t> bufs(nbufs);
  const auto repost = [&](msg_t* buf) {
    net::post_result_t r;
    while ((r = dev->post_recv(buf, sizeof(msg_t), buf)) !=
           net::post_result_t::ok) {
      if (r == net::post_result_t::peer_down) return false;
    }
    return true;
  };
  for (auto& buf : bufs) CHILD_CHECK(repost(&buf));

  std::atomic<bool> poster_failed{false};
  std::atomic<bool> stop{false};  // the poller gave up: posters bail out
  std::atomic<uint64_t> lock_retries{0};
  std::vector<std::thread> posters;
  for (uint32_t t = 0; t < nposters; ++t) {
    posters.emplace_back([&, t] {
      for (uint32_t seq = 0; seq < per_poster; ++seq) {
        const msg_t msg{t, seq};
        net::post_result_t r;
        while ((r = dev->post_send(peer, &msg, sizeof(msg), 0, nullptr)) !=
               net::post_result_t::ok) {
          if (r == net::post_result_t::peer_down) {
            poster_failed.store(true);
            return;
          }
          if (stop.load()) return;
          if (r == net::post_result_t::retry_lock) lock_retries.fetch_add(1);
        }
      }
    });
  }
  const auto deadline = clock_type::now() + std::chrono::seconds(60);
  uint32_t next[nposters] = {};
  uint32_t received = 0, sent = 0;
  bool in_order = true;
  net::cqe_t cqes[16];
  while ((received < nposters * per_poster || sent < nposters * per_poster) &&
         in_order && !poster_failed.load() && clock_type::now() < deadline) {
    const auto polled = dev->poll_cq(cqes, 16);
    for (std::size_t i = 0; i < polled.count; ++i) {
      if (cqes[i].op == net::op_t::send) {
        ++sent;
        continue;
      }
      if (cqes[i].op != net::op_t::recv) continue;
      auto* msg = static_cast<msg_t*>(cqes[i].buffer);
      if (cqes[i].length != sizeof(msg_t) || msg->thread >= nposters ||
          msg->seq != next[msg->thread]) {
        std::fprintf(stderr, "[child rank %d] %s: got (%u, %u)\n", me,
                     layout.c_str(), msg->thread, msg->seq);
        in_order = false;
        break;
      }
      ++next[msg->thread];
      ++received;
      if (!repost(msg)) in_order = false;
    }
  }
  stop.store(true);
  for (auto& t : posters) t.join();
  CHILD_CHECK(in_order && !poster_failed.load());
  CHILD_CHECK(next[0] == per_poster && next[1] == per_poster);
  CHILD_CHECK(sent == nposters * per_poster);
  std::fprintf(stderr, "[child rank %d] %s: %llu posts retried on a lock miss\n",
               me, layout.c_str(),
               static_cast<unsigned long long>(lock_retries.load()));
  // Stay up, pumping, until the peer has everything it expects from us.
  touch("layout-done-" + std::to_string(me));
  while (!exists("layout-done-" + std::to_string(peer))) {
    CHILD_CHECK(clock_type::now() < deadline);
    dev->poll_cq(cqes, 16);
    usleep(1000);
  }
  return 0;
}

int run_child(const std::string& role) {
  if (role == "eager") return child_eager();
  if (role == "rendezvous") return child_rendezvous();
  if (role == "coalesced") return child_coalesced();
  if (role == "kill") return child_kill();
  if (role == "exact_route") return child_exact_route();
  // "lock_layout:<layout>", e.g. "lock_layout:ibv/per_qp".
  if (role.rfind("lock_layout:", 0) == 0)
    return child_lock_layout(role.substr(std::strlen("lock_layout:")));
  std::fprintf(stderr, "unknown child role: %s\n", role.c_str());
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
// Parent-side launcher (the in-process analogue of scripts/launch_local.sh).
// ---------------------------------------------------------------------------

struct launch_result_t {
  std::vector<int> exit_codes;   // -1 when the rank died of a signal
  std::vector<int> term_signals;  // 0 when the rank exited normally
};

launch_result_t launch(const std::string& backend, int nranks,
                       const std::string& role) {
  char tmpl[] = "/tmp/lci-test-job.XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) throw std::runtime_error("mkdtemp failed");
  const std::string job_dir = dir;
  const std::string job_id =
      "test" + std::to_string(static_cast<unsigned>(::getpid())) +
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
      execl("/proc/self/exe", "test_net_backends_child",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    pids.push_back(pid);
  }
  launch_result_t result;
  for (const pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    result.exit_codes.push_back(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    result.term_signals.push_back(WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  }
  const std::string rm = "rm -rf " + job_dir;
  std::system(rm.c_str());
  const std::string shm = "/dev/shm/lci-" + job_id;
  ::unlink(shm.c_str());
  return result;
}

class NetBackends : public ::testing::TestWithParam<const char*> {};

TEST_P(NetBackends, Eager) {
  const launch_result_t r = launch(GetParam(), 2, "eager");
  EXPECT_EQ(r.exit_codes, (std::vector<int>{0, 0}));
}

TEST_P(NetBackends, Rendezvous) {
  const launch_result_t r = launch(GetParam(), 2, "rendezvous");
  EXPECT_EQ(r.exit_codes, (std::vector<int>{0, 0}));
}

TEST_P(NetBackends, Coalesced) {
  const launch_result_t r = launch(GetParam(), 2, "coalesced");
  EXPECT_EQ(r.exit_codes, (std::vector<int>{0, 0}));
}

TEST_P(NetBackends, KillMidTraffic) {
  const launch_result_t r = launch(GetParam(), 3, "kill");
  EXPECT_EQ(r.exit_codes[0], 0);
  EXPECT_EQ(r.exit_codes[2], 0);
  EXPECT_EQ(r.term_signals[1], SIGKILL);  // the victim died of the signal
}

// A frame sent before the peer created its paired device lands on that
// device once it exists, and never on a sibling.
TEST_P(NetBackends, ExactRoutingWaitsForPairedDevice) {
  const launch_result_t r = launch(GetParam(), 2, "exact_route");
  EXPECT_EQ(r.exit_codes, (std::vector<int>{0, 0}));
}

TEST_P(NetBackends, LockLayouts) {
  for (const char* layout : {"ibv/per_qp", "ibv/all_qp", "ibv/none", "ofi"}) {
    const launch_result_t r =
        launch(GetParam(), 2, std::string("lock_layout:") + layout);
    EXPECT_EQ(r.exit_codes, (std::vector<int>{0, 0})) << layout;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, NetBackends,
                         ::testing::Values("shm", "tcp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
