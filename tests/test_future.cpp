// minihpx futures tests: value/exception propagation, continuations (inline
// and scheduled), async, when_all, and integration with the parcelport
// (future-based remote request/response — the HPX programming style).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>

#include "amt/future.hpp"
#include "amt/minihpx.hpp"
#include "core/lci.hpp"

namespace {

// Cross-rank startup rendezvous (see DESIGN.md): no traffic before every
// rank finished creating its devices.
inline void startup_rendezvous(std::atomic<int>& arrived, int n) {
  arrived.fetch_add(1, std::memory_order_acq_rel);
  while (arrived.load(std::memory_order_acquire) < n)
    std::this_thread::yield();
}

TEST(Future, ReadyFutureGet) {
  auto f = minihpx::make_ready_future(42);
  EXPECT_TRUE(f.is_ready());
  EXPECT_EQ(f.get(), 42);
  EXPECT_EQ(f.get(), 42);  // get is repeatable (shared state)
}

TEST(Future, PromiseSetThenGet) {
  minihpx::promise_t<std::string> promise;
  auto f = promise.get_future();
  EXPECT_FALSE(f.is_ready());
  promise.set_value("done");
  EXPECT_TRUE(f.is_ready());
  EXPECT_EQ(f.get(), "done");
}

TEST(Future, ExceptionPropagates) {
  minihpx::promise_t<int> promise;
  auto f = promise.get_future();
  promise.set_exception(
      std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(Future, DoubleSetThrows) {
  minihpx::promise_t<int> promise;
  promise.set_value(1);
  EXPECT_THROW(promise.set_value(2), std::logic_error);
}

TEST(Future, ThenChainsInline) {
  auto f = minihpx::make_ready_future(10)
               .then([](int v) { return v * 2; })
               .then([](int v) { return v + 1; });
  EXPECT_EQ(f.get(), 21);
}

TEST(Future, ThenBeforeReadyRunsAtSetValue) {
  minihpx::promise_t<int> promise;
  int observed = -1;
  auto f = promise.get_future().then([&](int v) {
    observed = v;
    return v;
  });
  EXPECT_EQ(observed, -1);
  promise.set_value(7);
  EXPECT_EQ(observed, 7);
  EXPECT_EQ(f.get(), 7);
}

TEST(Future, ThenPropagatesExceptions) {
  minihpx::promise_t<int> promise;
  auto f = promise.get_future().then([](int v) { return v; });
  promise.set_exception(std::make_exception_ptr(std::runtime_error("x")));
  EXPECT_THROW(f.get(), std::runtime_error);
  // A throwing continuation also surfaces downstream.
  auto g = minihpx::make_ready_future(1).then(
      [](int) -> int { throw std::logic_error("inner"); });
  EXPECT_THROW(g.get(), std::logic_error);
}

TEST(Future, AsyncRunsOnScheduler) {
  minihpx::scheduler_t scheduler(2);
  scheduler.start([](int) { return false; });
  auto f = minihpx::async(scheduler, [] { return 6 * 7; });
  scheduler.run_until([&] { return f.is_ready(); });
  EXPECT_EQ(f.get(), 42);
  scheduler.stop();
}

TEST(Future, ScheduledContinuationsRunAsTasks) {
  minihpx::scheduler_t scheduler(2);
  scheduler.start([](int) { return false; });
  std::atomic<int> sum{0};
  std::vector<minihpx::future_t<int>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(minihpx::async(scheduler, [i] { return i; })
                          .then(
                              [&sum](int v) {
                                sum.fetch_add(v);
                                return v;
                              },
                              &scheduler));
  }
  auto all = minihpx::when_all(std::move(futures), &scheduler);
  scheduler.run_until([&] { return all.is_ready(); });
  scheduler.stop();
  EXPECT_EQ(sum.load(), 120);
  const auto values = all.get();
  ASSERT_EQ(values.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(values[static_cast<std::size_t>(i)], i);
}

TEST(Future, WhenAllEmpty) {
  auto all = minihpx::when_all(std::vector<minihpx::future_t<int>>{});
  EXPECT_TRUE(all.is_ready());
  EXPECT_TRUE(all.get().empty());
}

// The HPX style end to end: a remote "square" service where the caller gets
// a future for the response parcel.
TEST(Future, RemoteRequestResponse) {
  std::atomic<int> ready{0};
  std::atomic<int> finished{0};
  lci::sim::spawn(2, [&](int rank) {
    (void)rank;
    minihpx::scheduler_t scheduler(2);
    minihpx::parcelport_config_t config;
    config.ndevices = 2;
    minihpx::parcelport_t port(config, &scheduler);
    startup_rendezvous(ready, 2);

    // Response handler: fulfils the promise stored by request id.
    struct pending_t {
      lci::util::spinlock_t lock;
      std::vector<minihpx::promise_t<int>> promises;
    } pending;
    uint32_t respond_handler = 0;
    const uint32_t response_handler = port.register_handler(
        [&](int, const void* data, std::size_t) {
          int payload[2];  // {request id, result}
          std::memcpy(payload, data, sizeof(payload));
          minihpx::promise_t<int> promise;
          {
            std::lock_guard<lci::util::spinlock_t> guard(pending.lock);
            promise = pending.promises[static_cast<std::size_t>(payload[0])];
          }
          promise.set_value(payload[1]);
        });
    // Request handler: computes and sends the response parcel back.
    respond_handler = port.register_handler(
        [&](int src, const void* data, std::size_t) {
          int payload[2];  // {request id, argument}
          std::memcpy(payload, data, sizeof(payload));
          const int response[2] = {payload[0], payload[1] * payload[1]};
          while (!port.send_parcel(src, response_handler, response,
                                   sizeof(response)))
            port.progress(0);
        });

    auto call_square = [&](int target, int value) {
      minihpx::promise_t<int> promise;
      int id;
      {
        std::lock_guard<lci::util::spinlock_t> guard(pending.lock);
        id = static_cast<int>(pending.promises.size());
        pending.promises.push_back(promise);
      }
      const int request[2] = {id, value};
      while (!port.send_parcel(target, respond_handler, request,
                               sizeof(request)))
        port.progress(0);
      return promise.get_future();
    };

    scheduler.start([&port](int worker) { return port.progress(worker); });
    std::vector<minihpx::future_t<int>> results;
    for (int v = 1; v <= 8; ++v) results.push_back(call_square(1 - rank, v));
    auto all = minihpx::when_all(std::move(results));
    scheduler.run_until([&] { return all.is_ready() && port.quiescent(); });
    const auto squares = all.get();
    for (int v = 1; v <= 8; ++v)
      EXPECT_EQ(squares[static_cast<std::size_t>(v - 1)], v * v);
    // Serve the peer until it is done too: its last requests may not have
    // arrived yet. The scheduler keeps running, so its workers keep
    // progressing every device meanwhile.
    finished.fetch_add(1, std::memory_order_acq_rel);
    while (finished.load(std::memory_order_acquire) < 2) port.progress(0);
    scheduler.stop();
  });
}

}  // namespace
