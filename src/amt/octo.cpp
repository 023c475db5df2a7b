#include "amt/octo.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "amt/minihpx.hpp"
#include "core/lci.hpp"

namespace octo {

namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Faces: 0 x-, 1 x+, 2 y-, 3 y+, 4 z-, 5 z+.
constexpr int opposite_face(int face) { return face ^ 1; }

struct face_msg_t {
  int32_t target;  // global subgrid id
  int32_t face;    // ghost slot at the target
  int32_t step;
  int32_t pad = 0;
  // followed by subgrid_dim^2 doubles
};

class subgrid_t {
 public:
  void init(int id, int dim, double seed_value) {
    id_ = id;
    dim_ = dim;
    const std::size_t n = static_cast<std::size_t>(dim) * dim * dim;
    cur_.assign(n, 0.0);
    next_.assign(n, 0.0);
    // Deterministic initial condition: a smooth bump keyed by the global id.
    for (int z = 0; z < dim; ++z)
      for (int y = 0; y < dim; ++y)
        for (int x = 0; x < dim; ++x)
          cur_[index(x, y, z)] =
              seed_value + 0.01 * std::sin(0.7 * x + 1.3 * y + 2.1 * z);
    for (auto& parity : ghosts_)
      for (auto& face : parity)
        face.assign(static_cast<std::size_t>(dim) * dim, 0.0);
  }

  std::size_t index(int x, int y, int z) const {
    return static_cast<std::size_t>(x) +
           static_cast<std::size_t>(dim_) *
               (static_cast<std::size_t>(y) +
                static_cast<std::size_t>(dim_) * static_cast<std::size_t>(z));
  }

  // Extracts face `f` of the current state into `out` (dim^2 doubles).
  void extract_face(int f, double* out) const {
    const int d = dim_;
    std::size_t o = 0;
    for (int b = 0; b < d; ++b)
      for (int a = 0; a < d; ++a) out[o++] = cur_[face_cell(f, a, b)];
  }

  std::size_t face_cell(int f, int a, int b) const {
    const int d = dim_;
    switch (f) {
      case 0: return index(0, a, b);
      case 1: return index(d - 1, a, b);
      case 2: return index(a, 0, b);
      case 3: return index(a, d - 1, b);
      case 4: return index(a, b, 0);
      default: return index(a, b, d - 1);
    }
  }

  void store_ghost(int face, int step, const double* data) {
    auto& slot = ghosts_[step & 1][static_cast<std::size_t>(face)];
    std::memcpy(slot.data(), data, slot.size() * sizeof(double));
  }

  // 7-point relaxation using parity ghosts for out-of-subgrid neighbors;
  // missing (domain-boundary) faces read 0 contributions.
  void update(int step, const bool* has_neighbor) {
    const int d = dim_;
    const auto& g = ghosts_[step & 1];
    auto neighbor_value = [&](int x, int y, int z, int f) -> double {
      // (x,y,z) is in range except along the face axis.
      if (x < 0) return has_neighbor[0] ? g[0][ghost_index(y, z)] : 0.0;
      if (x >= d) return has_neighbor[1] ? g[1][ghost_index(y, z)] : 0.0;
      if (y < 0) return has_neighbor[2] ? g[2][ghost_index(x, z)] : 0.0;
      if (y >= d) return has_neighbor[3] ? g[3][ghost_index(x, z)] : 0.0;
      if (z < 0) return has_neighbor[4] ? g[4][ghost_index(x, y)] : 0.0;
      if (z >= d) return has_neighbor[5] ? g[5][ghost_index(x, y)] : 0.0;
      (void)f;
      return cur_[index(x, y, z)];
    };
    for (int z = 0; z < d; ++z)
      for (int y = 0; y < d; ++y)
        for (int x = 0; x < d; ++x) {
          const double sum = neighbor_value(x - 1, y, z, 0) +
                             neighbor_value(x + 1, y, z, 1) +
                             neighbor_value(x, y - 1, z, 2) +
                             neighbor_value(x, y + 1, z, 3) +
                             neighbor_value(x, y, z - 1, 4) +
                             neighbor_value(x, y, z + 1, 5);
          next_[index(x, y, z)] = 0.125 * (2.0 * cur_[index(x, y, z)] + sum);
        }
    cur_.swap(next_);
  }

  std::size_t ghost_index(int a, int b) const {
    return static_cast<std::size_t>(a) +
           static_cast<std::size_t>(dim_) * static_cast<std::size_t>(b);
  }

  double sum() const {
    double total = 0;
    for (const double v : cur_) total += v;
    return total;
  }

  int id() const { return id_; }

  // Asynchronous-progress state. Face arrivals are counted per step parity:
  // a face for step s+1 may overtake a face for step s (its sender only
  // depended on its own neighborhood), so a cumulative count could claim an
  // update while one of the current step's ghosts is still stale.
  std::atomic<long> arrived[2] = {0, 0};
  std::atomic<int> claimed_step{0};
  // The step whose faces this subgrid has shipped; the update for that step
  // may run. -1 until the kick-off has shipped the step-0 faces: an update
  // claimed earlier would swap the state that extraction reads.
  std::atomic<int> completed_steps{-1};

 private:
  int id_ = 0;
  int dim_ = 0;
  std::vector<double> cur_;
  std::vector<double> next_;
  std::vector<double> ghosts_[2][6];
};

struct rank_app_t {
  config_t config;
  int me = 0;
  int nranks = 1;
  minihpx::scheduler_t* scheduler = nullptr;
  minihpx::parcelport_t* port = nullptr;

  std::vector<std::unique_ptr<subgrid_t>> owned;  // indexed by local id
  std::vector<int> local_of_global;               // -1 if not owned
  std::atomic<int> subgrids_finished{0};
  std::atomic<std::size_t> parcels_sent{0};

  // Per-step mass reduction (the upward pass): every completed subgrid
  // update contributes its cell sum; when all local subgrids and both tree
  // children have reported, the partial flows to the parent rank.
  std::vector<std::atomic<double>> step_mass;       // accumulators per step
  std::vector<std::atomic<int>> step_reports;       // local + child reports
  std::vector<double> root_mass;                    // rank 0: final values
  std::atomic<int> steps_reduced{0};                // rank 0: completed steps
  uint32_t mass_handler = 0;

  int total() const { return config.grid_dim * config.grid_dim * config.grid_dim; }
  int owner(int id) const {
    return static_cast<int>(static_cast<long>(id) * nranks / total());
  }

  int neighbor_id(int id, int face) const {
    const int g = config.grid_dim;
    int x = id % g, y = (id / g) % g, z = id / (g * g);
    switch (face) {
      case 0: x -= 1; break;
      case 1: x += 1; break;
      case 2: y -= 1; break;
      case 3: y += 1; break;
      case 4: z -= 1; break;
      default: z += 1; break;
    }
    if (x < 0 || x >= g || y < 0 || y >= g || z < 0 || z >= g) return -1;
    return x + g * (y + g * z);
  }

  int neighbor_count(int id) const {
    int count = 0;
    for (int f = 0; f < 6; ++f) count += neighbor_id(id, f) >= 0 ? 1 : 0;
    return count;
  }

  // A face for `step` arrived at owned subgrid `sg` (from handler or local
  // copy). Checks whether the subgrid can run its next update.
  void on_face(subgrid_t& sg, int step) {
    sg.arrived[step & 1].fetch_add(1, std::memory_order_acq_rel);
    maybe_spawn_update(sg);
  }

  void maybe_spawn_update(subgrid_t& sg) {
    while (true) {
      const int s = sg.claimed_step.load(std::memory_order_acquire);
      if (s >= config.steps) return;
      if (sg.completed_steps.load(std::memory_order_acquire) != s) return;
      const long needed = neighbor_count(sg.id());
      if (sg.arrived[s & 1].load(std::memory_order_acquire) < needed) return;
      int expected = s;
      if (sg.claimed_step.compare_exchange_strong(expected, s + 1,
                                                  std::memory_order_acq_rel)) {
        scheduler->spawn([this, &sg, s] { run_update(sg, s); });
        return;
      }
      // Lost the claim; someone else spawned it.
      return;
    }
  }

  void run_update(subgrid_t& sg, int step) {
    bool has_neighbor[6];
    for (int f = 0; f < 6; ++f) has_neighbor[f] = neighbor_id(sg.id(), f) >= 0;
    sg.update(step, has_neighbor);
    report_mass(step, sg.sum());  // upward-pass contribution for this step
    // This parity slot now counts step+2 arrivals; reset it before sending
    // our step+1 faces (a neighbor cannot ship step+2 until it has them).
    sg.arrived[step & 1].store(0, std::memory_order_release);
    if (step + 1 < config.steps) {
      // Ship the new state BEFORE publishing completion: once
      // completed_steps reads step+1, the step+1 update may claim the
      // subgrid and swap the buffers this extraction reads from.
      send_faces(sg, step + 1);
      sg.completed_steps.store(step + 1, std::memory_order_release);
      maybe_spawn_update(sg);  // next step's faces may already be here
    } else {
      sg.completed_steps.store(step + 1, std::memory_order_release);
      subgrids_finished.fetch_add(1, std::memory_order_release);
    }
  }

  // Ships subgrid `sg`'s state for update `step` to all existing neighbors.
  void send_faces(subgrid_t& sg, int step) {
    const int d = config.subgrid_dim;
    const std::size_t face_doubles = static_cast<std::size_t>(d) * d;
    std::vector<char> wire(sizeof(face_msg_t) + face_doubles * sizeof(double));
    for (int f = 0; f < 6; ++f) {
      const int nid = neighbor_id(sg.id(), f);
      if (nid < 0) continue;
      auto* msg = reinterpret_cast<face_msg_t*>(wire.data());
      msg->target = nid;
      msg->face = opposite_face(f);
      msg->step = step;
      sg.extract_face(
          f, reinterpret_cast<double*>(wire.data() + sizeof(face_msg_t)));
      deliver(wire.data(), wire.size());
    }
  }

  uint32_t face_handler = 0;

  // Binary reduction tree over ranks.
  int tree_parent() const { return (me - 1) / 2; }
  int tree_children() const {
    int count = 0;
    if (2 * me + 1 < nranks) ++count;
    if (2 * me + 2 < nranks) ++count;
    return count;
  }

  // Called for every local subgrid completion and every child partial.
  void report_mass(int step, double value) {
    const auto s = static_cast<std::size_t>(step);
    double expected = step_mass[s].load(std::memory_order_relaxed);
    while (!step_mass[s].compare_exchange_weak(
        expected, expected + value, std::memory_order_acq_rel)) {
    }
    const int needed = static_cast<int>(owned.size()) + tree_children();
    if (step_reports[s].fetch_add(1, std::memory_order_acq_rel) + 1 !=
        needed)
      return;
    const double partial = step_mass[s].load(std::memory_order_acquire);
    if (me == 0) {
      root_mass[s] = partial;
      steps_reduced.fetch_add(1, std::memory_order_release);
      return;
    }
    struct mass_msg_t {
      int32_t step;
      double value;
    } msg{step, partial};
    parcels_sent.fetch_add(1, std::memory_order_relaxed);
    while (!port->send_parcel(tree_parent(), mass_handler, &msg,
                              sizeof(msg))) {
      port->progress(0);
      std::this_thread::yield();
    }
  }

  void deliver(const char* wire, std::size_t size) {
    const auto* msg = reinterpret_cast<const face_msg_t*>(wire);
    const int dest = owner(msg->target);
    if (dest == me) {
      handle_face(wire, size);
      return;
    }
    parcels_sent.fetch_add(1, std::memory_order_relaxed);
    while (!port->send_parcel(dest, face_handler, wire, size)) {
      port->progress(0);
      std::this_thread::yield();
    }
  }

  void handle_face(const char* data, std::size_t size) {
    (void)size;
    const auto* msg = reinterpret_cast<const face_msg_t*>(data);
    subgrid_t& sg =
        *owned[static_cast<std::size_t>(local_of_global[
            static_cast<std::size_t>(msg->target)])];
    sg.store_ghost(msg->face,
                   msg->step,
                   reinterpret_cast<const double*>(data + sizeof(face_msg_t)));
    on_face(sg, msg->step);
  }
};

}  // namespace

result_t run(const config_t& config) {
  struct shared_t {
    std::mutex lock;
    std::vector<double> step_mass;
    std::vector<double> subgrid_sums;
    std::atomic<std::size_t> parcels{0};
    std::atomic<double> t0{0}, t1{0};
    std::atomic<int> ranks_ready{0};
    std::atomic<int> ranks_done{0};
  } shared;
  const int total =
      config.grid_dim * config.grid_dim * config.grid_dim;
  shared.subgrid_sums.assign(static_cast<std::size_t>(total), 0.0);

  lci::sim::spawn(
      config.nranks,
      [&](int rank) {
    minihpx::scheduler_t scheduler(config.nthreads);
    minihpx::parcelport_config_t pp_config;
    pp_config.backend = config.backend;
    pp_config.ndevices = config.ndevices;
    pp_config.max_parcel_size =
        sizeof(face_msg_t) +
        static_cast<std::size_t>(config.subgrid_dim) * config.subgrid_dim *
            sizeof(double) +
        64;
    minihpx::parcelport_t port(pp_config, &scheduler);

    rank_app_t app;
    app.config = config;
    app.me = rank;
    app.nranks = config.nranks;
    app.scheduler = &scheduler;
    app.port = &port;
    app.local_of_global.assign(static_cast<std::size_t>(total), -1);
    for (int id = 0; id < total; ++id) {
      if (app.owner(id) != rank) continue;
      app.local_of_global[static_cast<std::size_t>(id)] =
          static_cast<int>(app.owned.size());
      app.owned.push_back(std::make_unique<subgrid_t>());
      app.owned.back()->init(id, config.subgrid_dim,
                             1.0 + 0.001 * static_cast<double>(id));
    }
    app.step_mass = std::vector<std::atomic<double>>(
        static_cast<std::size_t>(config.steps));
    app.step_reports =
        std::vector<std::atomic<int>>(static_cast<std::size_t>(config.steps));
    for (int s = 0; s < config.steps; ++s) {
      app.step_mass[static_cast<std::size_t>(s)].store(0.0);
      app.step_reports[static_cast<std::size_t>(s)].store(0);
    }
    app.root_mass.assign(static_cast<std::size_t>(config.steps), 0.0);
    app.face_handler = port.register_handler(
        [&app](int, const void* data, std::size_t size) {
          app.handle_face(static_cast<const char*>(data), size);
        });
    app.mass_handler = port.register_handler(
        [&app](int, const void* data, std::size_t) {
          struct mass_msg_t {
            int32_t step;
            double value;
          } msg;
          std::memcpy(&msg, data, sizeof(msg));
          app.report_mass(msg.step, msg.value);
        });

    // Rendezvous before traffic: every rank's handlers must be registered.
    shared.ranks_ready.fetch_add(1, std::memory_order_acq_rel);
    while (shared.ranks_ready.load(std::memory_order_acquire) != config.nranks)
      std::this_thread::yield();

    if (rank == 0) shared.t0.store(now_sec());
    scheduler.start([&port](int worker) { return port.progress(worker); });

    // Kick off: ship every owned subgrid's step-0 faces, then let it update.
    // Workers are already receiving, so all its neighbours' faces may be here.
    for (auto& sg : app.owned) {
      app.send_faces(*sg, 0);
      sg->completed_steps.store(0, std::memory_order_release);
      app.maybe_spawn_update(*sg);
    }
    const int target = static_cast<int>(app.owned.size());
    scheduler.run_until([&] {
      const bool reduced =
          rank != 0 ||
          app.steps_reduced.load(std::memory_order_acquire) == config.steps;
      return app.subgrids_finished.load(std::memory_order_acquire) ==
                 target &&
             reduced && port.quiescent();
    });
    // Keep progressing until every rank is done (peers may still need our
    // progress to receive their final faces).
    shared.ranks_done.fetch_add(1, std::memory_order_acq_rel);
    while (shared.ranks_done.load(std::memory_order_acquire) !=
           config.nranks) {
      port.progress(0);
      std::this_thread::yield();
    }
    scheduler.stop();
    if (rank == 0) shared.t1.store(now_sec());

    shared.parcels.fetch_add(app.parcels_sent.load());
    std::lock_guard<std::mutex> guard(shared.lock);
    if (rank == 0) shared.step_mass = app.root_mass;
    for (auto& sg : app.owned)
      shared.subgrid_sums[static_cast<std::size_t>(sg->id())] = sg->sum();
      },
      config.fabric);

  result_t result;
  result.seconds = shared.t1.load() - shared.t0.load();
  result.seconds_per_step = result.seconds / config.steps;
  result.parcels = shared.parcels.load();
  result.step_mass = shared.step_mass;
  double checksum = 0;
  for (const double s : shared.subgrid_sums) checksum += s;
  result.checksum = checksum;
  return result;
}

result_t run_serial(const config_t& config) {
  config_t serial = config;
  serial.nranks = 1;
  serial.nthreads = 1;
  return run(serial);
}

}  // namespace octo
