// Unit tests for the simulated network backend layer (paper Sec. 4.2).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "net/net.hpp"

namespace {

using namespace lci::net;

struct two_rank_fixture_t {
  explicit two_rank_fixture_t(const config_t& config = {})
      : fabric(create_sim_fabric(2, config)),
        ctx0(fabric->create_context(0)),
        ctx1(fabric->create_context(1)),
        dev0(ctx0->create_device()),
        dev1(ctx1->create_device()) {}

  // Pre-posts `n` buffers of `size` bytes on `dev`.
  std::vector<std::unique_ptr<char[]>> prepost(device_t& dev, int n,
                                               std::size_t size) {
    std::vector<std::unique_ptr<char[]>> buffers;
    for (int i = 0; i < n; ++i) {
      buffers.push_back(std::make_unique<char[]>(size));
      EXPECT_EQ(dev.post_recv(buffers.back().get(), size,
                              buffers.back().get()),
                post_result_t::ok);
    }
    return buffers;
  }

  // Polls until one CQE of kind `op` appears (draining others into `extra`).
  cqe_t poll_for(device_t& dev, op_t op) {
    cqe_t cqes[8];
    while (true) {
      const auto polled = dev.poll_cq(cqes, 8);
      for (std::size_t i = 0; i < polled.count; ++i) {
        if (cqes[i].op == op) return cqes[i];
      }
      std::this_thread::yield();
    }
  }

  std::shared_ptr<fabric_t> fabric;
  std::unique_ptr<context_t> ctx0, ctx1;
  std::unique_ptr<device_t> dev0, dev1;
};

TEST(Net, FabricValidation) {
  EXPECT_THROW(create_sim_fabric(0), std::invalid_argument);
  auto fabric = create_sim_fabric(3);
  EXPECT_EQ(fabric->nranks(), 3);
  EXPECT_THROW(fabric->create_context(3), std::out_of_range);
  EXPECT_THROW(fabric->create_context(-1), std::out_of_range);
}

TEST(Net, SendDeliversPayloadAndMetadata) {
  two_rank_fixture_t f;
  auto buffers = f.prepost(*f.dev1, 4, 256);
  const char msg[] = "payload!";
  ASSERT_EQ(f.dev0->post_send(1, msg, sizeof(msg), /*imm=*/7, nullptr),
            post_result_t::ok);

  // Source-side completion.
  const cqe_t send_cqe = f.poll_for(*f.dev0, op_t::send);
  EXPECT_EQ(send_cqe.peer_rank, 1);
  EXPECT_EQ(send_cqe.length, sizeof(msg));

  // Target-side delivery into the pre-posted buffer.
  const cqe_t recv_cqe = f.poll_for(*f.dev1, op_t::recv);
  EXPECT_EQ(recv_cqe.peer_rank, 0);
  EXPECT_EQ(recv_cqe.imm, 7u);
  EXPECT_EQ(recv_cqe.length, sizeof(msg));
  EXPECT_STREQ(static_cast<char*>(recv_cqe.buffer), "payload!");
  EXPECT_EQ(recv_cqe.buffer, recv_cqe.user_context);
}

TEST(Net, LargePayloadTakesHeapPath) {
  two_rank_fixture_t f;
  auto buffers = f.prepost(*f.dev1, 2, 8192);
  std::vector<char> big(4000);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<char>(i * 7);
  ASSERT_EQ(f.dev0->post_send(1, big.data(), big.size(), 0, nullptr),
            post_result_t::ok);
  const cqe_t cqe = f.poll_for(*f.dev1, op_t::recv);
  EXPECT_EQ(cqe.length, big.size());
  EXPECT_EQ(std::memcmp(cqe.buffer, big.data(), big.size()), 0);
}

TEST(Net, ReceiverNotReadyStallsUntilPrepost) {
  two_rank_fixture_t f;
  const int value = 99;
  ASSERT_EQ(f.dev0->post_send(1, &value, sizeof(value), 0, nullptr),
            post_result_t::ok);
  // No pre-posted receives at dev1: polls deliver nothing (RNR stash).
  cqe_t cqes[4];
  for (int i = 0; i < 5; ++i) {
    const auto polled = f.dev1->poll_cq(cqes, 4);
    EXPECT_EQ(polled.count, 0u);
  }
  auto buffers = f.prepost(*f.dev1, 1, 64);
  const cqe_t cqe = f.poll_for(*f.dev1, op_t::recv);
  EXPECT_EQ(*static_cast<int*>(cqe.buffer), 99);
}

TEST(Net, WireBackpressureReturnsRetry) {
  config_t config;
  config.wire_depth = 4;
  two_rank_fixture_t f(config);
  const int v = 1;
  int accepted = 0;
  while (f.dev0->post_send(1, &v, sizeof(v), 0, nullptr) ==
         post_result_t::ok) {
    ++accepted;
    ASSERT_LT(accepted, 100);  // must back-pressure eventually
  }
  EXPECT_GE(accepted, 4);
  // Draining the target frees the wire.
  auto buffers = f.prepost(*f.dev1, 8, 64);
  f.poll_for(*f.dev1, op_t::recv);
  EXPECT_EQ(f.dev0->post_send(1, &v, sizeof(v), 0, nullptr),
            post_result_t::ok);
}

TEST(Net, WriteReachesRegisteredMemory) {
  two_rank_fixture_t f;
  std::vector<char> window(128, 'x');
  const mr_id_t mr = f.ctx1->register_memory(window.data(), window.size());

  const char data[] = "written";
  ASSERT_EQ(f.dev0->post_write(1, data, sizeof(data), mr, /*offset=*/8,
                               /*notify=*/false, 0, nullptr),
            post_result_t::ok);
  f.poll_for(*f.dev0, op_t::write);
  EXPECT_EQ(std::memcmp(window.data() + 8, data, sizeof(data)), 0);
  EXPECT_EQ(window[0], 'x');  // untouched before the offset
}

TEST(Net, WriteWithNotifyRaisesRemoteCqe) {
  two_rank_fixture_t f;
  std::vector<char> window(64);
  const mr_id_t mr = f.ctx1->register_memory(window.data(), window.size());
  const char data[] = "ping";
  ASSERT_EQ(f.dev0->post_write(1, data, sizeof(data), mr, 0, /*notify=*/true,
                               /*imm=*/0x1234, nullptr),
            post_result_t::ok);
  const cqe_t cqe = f.poll_for(*f.dev1, op_t::remote_write);
  EXPECT_EQ(cqe.imm, 0x1234u);
  EXPECT_EQ(cqe.peer_rank, 0);
  EXPECT_EQ(cqe.length, sizeof(data));
}

TEST(Net, ReadPullsRemoteMemory) {
  two_rank_fixture_t f;
  std::vector<char> window(64);
  snprintf(window.data(), window.size(), "remote content");
  const mr_id_t mr = f.ctx1->register_memory(window.data(), window.size());
  char local[64] = {};
  ASSERT_EQ(f.dev0->post_read(1, local, sizeof(local), mr, 0, false, 0,
                              nullptr),
            post_result_t::ok);
  f.poll_for(*f.dev0, op_t::read);
  EXPECT_STREQ(local, "remote content");
}

TEST(Net, ReadWithNotifyIsTheExtension) {
  two_rank_fixture_t f;
  std::vector<char> window(32, 'z');
  const mr_id_t mr = f.ctx1->register_memory(window.data(), window.size());
  char local[32];
  ASSERT_EQ(f.dev0->post_read(1, local, sizeof(local), mr, 0, /*notify=*/true,
                              /*imm=*/42, nullptr),
            post_result_t::ok);
  const cqe_t cqe = f.poll_for(*f.dev1, op_t::remote_read);
  EXPECT_EQ(cqe.imm, 42u);
}

// A notifying RMA post bounced by a full wire has touched no memory: the
// retry is decided before the copy, so the retried post is the only one that
// writes (or reads), and a caller that gives up leaves nothing behind.
struct full_wire_fixture_t : two_rank_fixture_t {
  static config_t shallow_wire() {
    config_t config;
    config.wire_depth = 4;
    return config;
  }
  full_wire_fixture_t() : two_rank_fixture_t(shallow_wire()) {
    const int v = 1;
    while (dev0->post_send(1, &v, sizeof(v), 0, nullptr) ==
           post_result_t::ok) {
      ++queued;
      EXPECT_LT(queued, 100);  // must back-pressure eventually
      if (queued >= 100) break;
    }
  }
  // Delivers every queued send, which empties the wire.
  void drain_wire() {
    buffers = prepost(*dev1, queued, 64);
    cqe_t cqes[8];
    for (int got = 0; got < queued;) {
      const auto polled = dev1->poll_cq(cqes, 8);
      for (std::size_t i = 0; i < polled.count; ++i)
        got += cqes[i].op == op_t::recv ? 1 : 0;
    }
  }
  int queued = 0;
  std::vector<std::unique_ptr<char[]>> buffers;
};

TEST(Net, WriteBouncedByFullWireWritesNothing) {
  full_wire_fixture_t f;
  std::vector<char> window(64, 'x');
  const mr_id_t mr = f.ctx1->register_memory(window.data(), window.size());
  const char data[] = "written";
  EXPECT_NE(f.dev0->post_write(1, data, sizeof(data), mr, 0, /*notify=*/true,
                               /*imm=*/5, nullptr),
            post_result_t::ok);
  EXPECT_EQ(window[0], 'x');
  f.drain_wire();
  ASSERT_EQ(f.dev0->post_write(1, data, sizeof(data), mr, 0, true, 5, nullptr),
            post_result_t::ok);
  EXPECT_EQ(std::memcmp(window.data(), data, sizeof(data)), 0);
  EXPECT_EQ(f.poll_for(*f.dev1, op_t::remote_write).imm, 5u);
}

TEST(Net, ReadBouncedByFullWireReadsNothing) {
  full_wire_fixture_t f;
  std::vector<char> window(32, 'z');
  const mr_id_t mr = f.ctx1->register_memory(window.data(), window.size());
  char local[32];
  std::memset(local, 'y', sizeof(local));
  EXPECT_NE(f.dev0->post_read(1, local, sizeof(local), mr, 0, /*notify=*/true,
                              /*imm=*/6, nullptr),
            post_result_t::ok);
  EXPECT_EQ(local[0], 'y');
  f.drain_wire();
  ASSERT_EQ(f.dev0->post_read(1, local, sizeof(local), mr, 0, true, 6, nullptr),
            post_result_t::ok);
  EXPECT_EQ(local[0], 'z');
  EXPECT_EQ(f.poll_for(*f.dev1, op_t::remote_read).imm, 6u);
}

TEST(Net, RemoteAccessValidation) {
  two_rank_fixture_t f;
  std::vector<char> window(64);
  const mr_id_t mr = f.ctx1->register_memory(window.data(), window.size());
  char buf[128];
  // Bounds violation.
  EXPECT_THROW(f.dev0->post_write(1, buf, sizeof(buf), mr, 0, false, 0,
                                  nullptr),
               std::out_of_range);
  EXPECT_THROW(
      f.dev0->post_write(1, buf, 32, mr, 40, false, 0, nullptr),
      std::out_of_range);
  // Unknown MR.
  EXPECT_THROW(f.dev0->post_write(1, buf, 8, 12345, 0, false, 0, nullptr),
               std::invalid_argument);
  // Deregistered MR.
  f.ctx1->deregister_memory(mr);
  EXPECT_THROW(f.dev0->post_write(1, buf, 8, mr, 0, false, 0, nullptr),
               std::invalid_argument);
  EXPECT_THROW(f.ctx1->deregister_memory(mr), std::invalid_argument);
}

TEST(Net, MrIdsAreRecycled) {
  two_rank_fixture_t f;
  char a[16], b[16];
  const mr_id_t first = f.ctx0->register_memory(a, sizeof(a));
  f.ctx0->deregister_memory(first);
  const mr_id_t second = f.ctx0->register_memory(b, sizeof(b));
  EXPECT_EQ(first, second);  // freelist reuse
  f.ctx0->deregister_memory(second);
}

TEST(Net, RoutingByDeviceIndex) {
  // Messages from device i land on the target's device i (mod count).
  two_rank_fixture_t f;
  auto dev1b = f.ctx1->create_device();  // rank1 now has devices {0, 1}
  auto dev0b = f.ctx0->create_device();  // rank0 too

  auto buffers0 = f.prepost(*f.dev1, 2, 64);
  auto buffers1 = f.prepost(*dev1b, 2, 64);

  const int from_dev0 = 0xaaaa, from_dev1 = 0xbbbb;
  ASSERT_EQ(f.dev0->post_send(1, &from_dev0, sizeof(int), 0, nullptr),
            post_result_t::ok);
  ASSERT_EQ(dev0b->post_send(1, &from_dev1, sizeof(int), 0, nullptr),
            post_result_t::ok);

  const cqe_t on_dev0 = f.poll_for(*f.dev1, op_t::recv);
  EXPECT_EQ(*static_cast<int*>(on_dev0.buffer), 0xaaaa);
  const cqe_t on_dev1 = f.poll_for(*dev1b, op_t::recv);
  EXPECT_EQ(*static_cast<int*>(on_dev1.buffer), 0xbbbb);
}

TEST(Net, RoutingSkipsFreedDevices) {
  two_rank_fixture_t f;
  auto dev1b = f.ctx1->create_device();
  auto dev0b = f.ctx0->create_device();
  dev1b.reset();  // rank1 frees its second device
  auto buffers = f.prepost(*f.dev1, 2, 64);
  const int v = 5;
  // Device index 1 at rank 1 is gone; the message must fall over to dev 0.
  ASSERT_EQ(dev0b->post_send(1, &v, sizeof(v), 0, nullptr),
            post_result_t::ok);
  const cqe_t cqe = f.poll_for(*f.dev1, op_t::recv);
  EXPECT_EQ(*static_cast<int*>(cqe.buffer), 5);
}

// Pairing is exact: until the peer creates the device paired with ours,
// posts from it find no route and retry — they never fall over to the
// peer's other device, or one source's stream could split across two
// target endpoints (and lose FIFO order) once the paired one appears.
TEST(Net, RoutingWaitsForPairedDevice) {
  two_rank_fixture_t f;
  auto dev0b = f.ctx0->create_device();  // index 1; rank 1 has only index 0
  auto on_dev1 = f.prepost(*f.dev1, 2, 64);
  const int v = 9;
  EXPECT_EQ(dev0b->post_send(1, &v, sizeof(v), 0, nullptr),
            post_result_t::retry_full);
  auto dev1b = f.ctx1->create_device();
  auto on_dev1b = f.prepost(*dev1b, 2, 64);
  ASSERT_EQ(dev0b->post_send(1, &v, sizeof(v), 0, nullptr),
            post_result_t::ok);
  const cqe_t cqe = f.poll_for(*dev1b, op_t::recv);
  EXPECT_EQ(*static_cast<int*>(cqe.buffer), 9);
  cqe_t cqes[4];
  EXPECT_EQ(f.dev1->poll_cq(cqes, 4).count, 0u);  // nothing fell over
}

// Teardown under traffic: several threads post to rank 1 in a loop while
// rank 1's device is destroyed and re-created. Route pins count per posting
// thread, so these posters pin different cells, and unregister_device must
// drain every cell before the device — and the doorbell its wire_push rings
// after the push — may go away. The doorbell is freed right after the
// device: under ASan/TSan a sender still inside route -> push -> ring on
// either one is a reported use-after-free or race.
TEST(Net, UnregisterDrainsPinsOfEveryPoster) {
  struct counting_doorbell_t final : doorbell_t {
    void ring() noexcept override {
      rings.fetch_add(1, std::memory_order_relaxed);
    }
    std::atomic<uint64_t> rings{0};
  };
  config_t config;
  config.wire_depth = 256;  // a fresh incarnation takes pushes, then bounces
  auto fabric = create_sim_fabric(2, config);
  auto ctx0 = fabric->create_context(0);
  auto ctx1 = fabric->create_context(1);
  constexpr int nposters = 4;
  std::vector<std::unique_ptr<device_t>> senders;
  for (int t = 0; t < nposters; ++t) senders.push_back(ctx0->create_device());

  std::atomic<bool> stop{false};
  std::atomic<bool> paused{false};
  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < nposters; ++t) {
    posters.emplace_back([&, t] {
      device_t& dev = *senders[static_cast<std::size_t>(t)];
      const uint64_t payload = 0x5eed0000u + static_cast<uint64_t>(t);
      cqe_t cqes[64];
      uint64_t mine = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (!paused.load(std::memory_order_acquire) &&
            dev.post_send(1, &payload, sizeof(payload), 0, nullptr) ==
                post_result_t::ok)
          ++mine;
        dev.poll_cq(cqes, 64);  // retire local send CQEs
      }
      accepted.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  constexpr int rounds = 300;
  uint64_t rung = 0;
  for (int round = 0; round < rounds; ++round) {
    auto bell = std::make_unique<counting_doorbell_t>();
    // The posters hold off while the incarnation comes up: a push that lands
    // before set_doorbell rings nothing, and a wire filled by such pushes
    // (wire_depth of them, never polled) would never ring below.
    paused.store(true, std::memory_order_release);
    auto target = ctx1->create_device();
    target->set_doorbell(bell.get());
    paused.store(false, std::memory_order_release);
    // Tear down mid-stream: once pushes reach this incarnation, posters are
    // pinned on it while it goes away.
    while (bell->rings.load(std::memory_order_relaxed) < 8)
      std::this_thread::yield();
    target.reset();
    rung += bell->rings.load(std::memory_order_relaxed);
    bell.reset();
  }
  stop.store(true, std::memory_order_release);
  for (auto& p : posters) p.join();
  EXPECT_GE(rung, static_cast<uint64_t>(8 * rounds));
  EXPECT_GT(accepted.load(), 0u);
}

// poll_cq(out, max) writes at most `max` entries — local completions and
// inbound deliveries together — and keeps each sender's FIFO across polls,
// through the RNR stash (bursts outrun the few preposts) and through
// deferred heads (injected delivery delay). Both devices send and receive,
// so every poll mixes the two sources.
TEST(Net, PollBatchIsBoundedAndKeepsSenderFifo) {
  config_t config;
  config.fault.delay_rate = 0.25;
  config.fault.delay_polls = 2;
  two_rank_fixture_t f(config);
  constexpr uint32_t count = 3000;
  constexpr std::size_t max = 3;
  constexpr int slots = 4;
  struct side_t {
    device_t* dev;
    int peer;
    uint32_t buffers[slots] = {};
    uint32_t sent = 0;
    uint32_t expected = 0;
    uint32_t local = 0;
  };
  side_t sides[2] = {{f.dev0.get(), 1}, {f.dev1.get(), 0}};
  for (side_t& s : sides)
    for (uint32_t& b : s.buffers)
      ASSERT_EQ(s.dev->post_recv(&b, sizeof(b), &b), post_result_t::ok);
  const auto done = [&] {
    for (const side_t& s : sides)
      if (s.expected < count || s.local < count) return false;
    return true;
  };
  for (long iter = 0; !done(); ++iter) {
    ASSERT_LT(iter, 10000000L) << "traffic stalled";
    for (side_t& s : sides) {
      for (int burst = 0; burst < 8 && s.sent < count; ++burst) {
        if (s.dev->post_send(s.peer, &s.sent, sizeof(s.sent), 0, nullptr) !=
            post_result_t::ok)
          break;
        ++s.sent;
      }
      cqe_t cqes[max + 1];
      cqes[max].op = op_t::remote_read;  // canary past the batch
      const auto polled = s.dev->poll_cq(cqes, max);
      ASSERT_LE(polled.count, max);
      ASSERT_EQ(cqes[max].op, op_t::remote_read) << "poll wrote past max";
      for (std::size_t i = 0; i < polled.count; ++i) {
        if (cqes[i].op == op_t::send) {
          ++s.local;
          continue;
        }
        ASSERT_EQ(cqes[i].op, op_t::recv);
        auto* b = static_cast<uint32_t*>(cqes[i].buffer);
        ASSERT_EQ(*b, s.expected) << "per-sender FIFO broken";
        ++s.expected;
        ASSERT_EQ(s.dev->post_recv(b, sizeof(*b), b), post_result_t::ok);
      }
    }
  }
}

// At max == 1 the two sources of a poll take turns: with a local completion
// and an inbound message always pending, neither starves the other.
TEST(Net, PollBurstOneServesBothSources) {
  two_rank_fixture_t f;
  constexpr int iters = 1000;
  std::vector<int> inbox(64);
  for (int& b : inbox)
    ASSERT_EQ(f.dev1->post_recv(&b, sizeof(b), &b), post_result_t::ok);
  auto outbox = f.prepost(*f.dev0, 64, sizeof(int));
  int local = 0;
  int inbound = 0;
  for (int i = 0; i < iters; ++i) {
    ASSERT_EQ(f.dev0->post_send(1, &i, sizeof(i), 0, nullptr),
              post_result_t::ok);
    ASSERT_EQ(f.dev1->post_send(0, &i, sizeof(i), 0, nullptr),
              post_result_t::ok);
    cqe_t cqe;
    ASSERT_EQ(f.dev1->poll_cq(&cqe, 1).count, 1u);
    if (cqe.op == op_t::send) {
      ++local;
    } else {
      ASSERT_EQ(cqe.op, op_t::recv);
      EXPECT_EQ(*static_cast<int*>(cqe.buffer), inbound);
      ++inbound;
      ASSERT_EQ(f.dev1->post_recv(cqe.buffer, sizeof(int), cqe.buffer),
                post_result_t::ok);
    }
    // dev0 only keeps its side flowing: reap and repost.
    cqe_t reap[8];
    const auto polled = f.dev0->poll_cq(reap, 8);
    for (std::size_t k = 0; k < polled.count; ++k) {
      if (reap[k].op == op_t::recv) {
        ASSERT_EQ(f.dev0->post_recv(reap[k].buffer, sizeof(int),
                                    reap[k].user_context),
                  post_result_t::ok);
      }
    }
  }
  EXPECT_GE(local, iters / 3);
  EXPECT_GE(inbound, iters / 3);
}

// The SRQ is a bounded ring: a post past its capacity returns retry_full and
// leaves the queue as it was, and deliveries consume preposts in post order.
TEST(Net, FullSrqRingReturnsRetryFull) {
  two_rank_fixture_t f;
  std::vector<uint32_t> slots(1u << 16);
  std::size_t posted = 0;
  while (f.dev1->post_recv(&slots[posted], sizeof(uint32_t),
                           &slots[posted]) == post_result_t::ok) {
    ++posted;
    ASSERT_LT(posted, slots.size()) << "the SRQ never filled";
  }
  EXPECT_GE(posted, 512u);  // room for every caller's prepost budget
  EXPECT_EQ(f.dev1->preposted_recvs(), posted);
  EXPECT_EQ(f.dev1->post_recv(&slots[posted], sizeof(uint32_t), nullptr),
            post_result_t::retry_full);
  EXPECT_EQ(f.dev1->preposted_recvs(), posted);

  constexpr uint32_t count = 5;
  for (uint32_t v = 0; v < count; ++v)
    ASSERT_EQ(f.dev0->post_send(1, &v, sizeof(v), 0, nullptr),
              post_result_t::ok);
  for (uint32_t v = 0; v < count;) {
    cqe_t cqes[count];
    const auto polled = f.dev1->poll_cq(cqes, count);
    for (std::size_t i = 0; i < polled.count; ++i, ++v) {
      ASSERT_EQ(cqes[i].op, op_t::recv);
      EXPECT_EQ(cqes[i].user_context, &slots[v]);  // the v-th prepost
      EXPECT_EQ(slots[v], v);
    }
  }
  EXPECT_EQ(f.dev1->preposted_recvs(), posted - count);
  EXPECT_EQ(f.dev1->post_recv(&slots[0], sizeof(uint32_t), &slots[0]),
            post_result_t::ok);  // consumed slots made room again
}

// The ofi lock model serializes polls and posts on one endpoint lock: while
// the endpoint is held, a poll reports lock_missed and a post_recv returns
// retry_lock, queueing nothing. A self-send holds dev0's endpoint lock
// across its wire push, which rings dev0's doorbell — so the doorbell runs
// with the lock held and tries both.
TEST(Net, OfiEndpointLockMiss) {
  config_t config;
  config.lock_model = lock_model_t::ofi;
  two_rank_fixture_t f(config);

  struct probing_doorbell_t final : doorbell_t {
    device_t* dev = nullptr;
    int rings = 0;
    bool poll_missed = false;
    post_result_t recv_result = post_result_t::ok;
    char buffer[16] = {};
    void ring() noexcept override {
      if (rings++ != 0) return;
      cqe_t cqe;
      poll_missed = dev->poll_cq(&cqe, 1).lock_missed;
      recv_result = dev->post_recv(buffer, sizeof(buffer), buffer);
    }
  } bell;
  bell.dev = f.dev0.get();
  f.dev0->set_doorbell(&bell);
  const int v = 5;
  ASSERT_EQ(f.dev0->post_send(0, &v, sizeof(v), 0, nullptr),
            post_result_t::ok);
  f.dev0->set_doorbell(nullptr);
  ASSERT_GE(bell.rings, 1);
  EXPECT_TRUE(bell.poll_missed);
  EXPECT_EQ(bell.recv_result, post_result_t::retry_lock);
  EXPECT_EQ(f.dev0->preposted_recvs(), 0u);

  // Uncontended, both go through.
  cqe_t cqes[4];
  EXPECT_FALSE(f.dev0->poll_cq(cqes, 4).lock_missed);
  EXPECT_EQ(f.dev0->post_recv(bell.buffer, sizeof(bell.buffer), bell.buffer),
            post_result_t::ok);
}

TEST(Net, SelfSendLoopsBack) {
  auto fabric = create_sim_fabric(1);
  auto ctx = fabric->create_context(0);
  auto dev = ctx->create_device();
  char buffer[64];
  ASSERT_EQ(dev->post_recv(buffer, sizeof(buffer), buffer),
            post_result_t::ok);
  const char msg[] = "to myself";
  ASSERT_EQ(dev->post_send(0, msg, sizeof(msg), 0, nullptr),
            post_result_t::ok);
  cqe_t cqes[4];
  bool got_recv = false;
  for (int i = 0; i < 100 && !got_recv; ++i) {
    const auto polled = dev->poll_cq(cqes, 4);
    for (std::size_t j = 0; j < polled.count; ++j)
      if (cqes[j].op == op_t::recv) {
        got_recv = true;
        EXPECT_STREQ(static_cast<char*>(cqes[j].buffer), "to myself");
      }
  }
  EXPECT_TRUE(got_recv);
}

}  // namespace
