// minihpx (AMT runtime) and octo (octree mini-app) tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "amt/minihpx.hpp"
#include "amt/octo.hpp"
#include "core/lci.hpp"

namespace {

// Cross-rank startup rendezvous (see DESIGN.md): no traffic before every
// rank finished creating its devices.
inline void startup_rendezvous(std::atomic<int>& arrived, int n) {
  arrived.fetch_add(1, std::memory_order_acq_rel);
  while (arrived.load(std::memory_order_acquire) < n)
    std::this_thread::yield();
}

TEST(Scheduler, RunsSpawnedTasks) {
  minihpx::scheduler_t scheduler(3);
  std::atomic<int> done{0};
  scheduler.start([](int) { return false; });
  for (int i = 0; i < 100; ++i)
    scheduler.spawn([&done] { done.fetch_add(1); });
  scheduler.run_until([&] { return done.load() == 100; });
  scheduler.stop();
  EXPECT_EQ(done.load(), 100);
}

TEST(Scheduler, TasksMaySpawnTasks) {
  minihpx::scheduler_t scheduler(2);
  std::atomic<int> countdown{64};
  scheduler.start([](int) { return false; });
  std::function<void()> fission = [&]() {
    if (countdown.fetch_sub(1) > 1) scheduler.spawn(fission);
  };
  scheduler.spawn(fission);
  scheduler.run_until([&] { return countdown.load() <= 0; });
  scheduler.stop();
  EXPECT_LE(countdown.load(), 0);
}

// Work stealing: a single task floods its own worker's deque with children;
// the other workers must steal and complete them all.
std::atomic<long> benchmark_sink{0};  // defeats optimizing the work away

TEST(Scheduler, WorkStealingBalancesUnevenSpawns) {
  minihpx::scheduler_t scheduler(4);
  std::atomic<int> done{0};
  std::atomic<int> distinct_runners{0};
  // A thread counts itself once per run of this test: a thread_local
  // outlives the run (the calling thread runs tasks too, and
  // --gtest_repeat runs the test again on it), so it records the run it
  // last counted in.
  static std::atomic<int> runs{0};
  const int run = runs.fetch_add(1) + 1;
  thread_local int counted_in = 0;
  scheduler.start([](int) { return false; });
  scheduler.spawn([&] {
    for (int i = 0; i < 400; ++i) {
      scheduler.spawn([&] {
        if (counted_in != run) {
          counted_in = run;
          distinct_runners.fetch_add(1);
        }
        // A little work so stealing has time to engage.
        int x = 0;
        for (int j = 0; j < 500; ++j) x += j;
        benchmark_sink.fetch_add(x, std::memory_order_relaxed);
        done.fetch_add(1);
      });
    }
  });
  scheduler.run_until([&] { return done.load() == 400; });
  scheduler.stop();
  EXPECT_EQ(done.load(), 400);
  // On a timeshared core we cannot guarantee >1 runner, but the count must
  // be sane and the scheduler must not have lost tasks.
  EXPECT_GE(distinct_runners.load(), 1);
  EXPECT_GE(scheduler.tasks_executed(), 401u);
}

class Parcelport : public ::testing::TestWithParam<lcw::backend_t> {};

TEST_P(Parcelport, RoundTrip) {
  const auto backend = GetParam();
  std::atomic<int> ready{0};
  lci::sim::spawn(2, [&](int rank) {
    minihpx::scheduler_t scheduler(2);
    minihpx::parcelport_config_t config;
    config.backend = backend;
    config.ndevices = backend == lcw::backend_t::mpi ? 1 : 2;
    minihpx::parcelport_t port(config, &scheduler);
    startup_rendezvous(ready, 2);
    ASSERT_EQ(port.rank(), rank);

    std::atomic<int> received{0};
    const uint32_t handler = port.register_handler(
        [&](int src, const void* data, std::size_t size) {
          EXPECT_EQ(src, 1 - rank);
          EXPECT_EQ(size, sizeof(int));
          int value;
          std::memcpy(&value, data, sizeof(value));
          EXPECT_EQ(value, 1 - rank);
          received.fetch_add(1);
        });

    scheduler.start([&port](int worker) { return port.progress(worker); });
    constexpr int count = 40;
    for (int i = 0; i < count; ++i) {
      while (!port.send_parcel(1 - rank, handler, &rank, sizeof(rank)))
        port.progress(0);
    }
    scheduler.run_until(
        [&] { return received.load() == count && port.quiescent(); });
    scheduler.stop();
    EXPECT_EQ(received.load(), count);
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, Parcelport,
                         ::testing::Values(lcw::backend_t::lci,
                                           lcw::backend_t::mpi,
                                           lcw::backend_t::mpix),
                         [](const auto& info) {
                           return lcw::to_string(info.param);
                         });

// The mini-app's checksum must be bit-identical regardless of distribution,
// thread count, or parcelport backend (the computation is deterministic; only
// the communication schedule varies).
TEST(Octo, ChecksumInvariantAcrossConfigurations) {
  octo::config_t base;
  base.grid_dim = 3;
  base.subgrid_dim = 4;
  base.steps = 3;

  const auto serial = octo::run_serial(base);
  EXPECT_GT(serial.checksum, 0.0);

  for (const auto backend :
       {lcw::backend_t::lci, lcw::backend_t::mpi, lcw::backend_t::mpix}) {
    for (int nranks : {2, 3}) {
      octo::config_t config = base;
      config.backend = backend;
      config.nranks = nranks;
      config.nthreads = 2;
      config.ndevices = backend == lcw::backend_t::mpi ? 1 : 2;
      const auto result = octo::run(config);
      EXPECT_DOUBLE_EQ(result.checksum, serial.checksum)
          << lcw::to_string(backend) << " nranks=" << nranks;
      EXPECT_GT(result.parcels, 0u);
    }
  }
}

// The in-band octree reduction: per-step masses arrive at rank 0 through
// the parcel tree and must match the serial run (exactly at equal rank
// counts; within float-summation-order tolerance otherwise).
TEST(Octo, StepMassReductionMatchesSerial) {
  octo::config_t base;
  base.grid_dim = 3;
  base.subgrid_dim = 4;
  base.steps = 4;
  const auto serial = octo::run_serial(base);
  ASSERT_EQ(serial.step_mass.size(), 4u);
  // Absorbing boundaries: per-step mass strictly decreases.
  for (std::size_t s = 1; s < serial.step_mass.size(); ++s)
    EXPECT_LT(serial.step_mass[s], serial.step_mass[s - 1]);

  for (const auto backend :
       {lcw::backend_t::lci, lcw::backend_t::mpi, lcw::backend_t::mpix}) {
    octo::config_t config = base;
    config.backend = backend;
    config.nranks = 3;
    config.nthreads = 2;
    config.ndevices = backend == lcw::backend_t::mpi ? 1 : 2;
    const auto result = octo::run(config);
    ASSERT_EQ(result.step_mass.size(), 4u);
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_NEAR(result.step_mass[s], serial.step_mass[s],
                  1e-9 * std::abs(serial.step_mass[s]))
          << lcw::to_string(backend) << " step " << s;
    }
  }
}

TEST(Octo, MoreStepsDiffuse) {
  octo::config_t config;
  config.grid_dim = 2;
  config.subgrid_dim = 4;
  config.steps = 1;
  const auto one = octo::run_serial(config);
  config.steps = 4;
  const auto four = octo::run_serial(config);
  // The relaxation with absorbing domain boundaries strictly decreases the
  // total, so more steps => smaller checksum.
  EXPECT_LT(four.checksum, one.checksum);
}

}  // namespace
