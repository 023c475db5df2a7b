// Backend selection: names, the LCI_BACKEND environment default, and the
// generic fabric factory dispatching to sim / shm / tcp.
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "net/bootstrap.hpp"
#include "net/ep_common.hpp"
#include "net/net.hpp"

namespace lci::net {

const char* to_string(backend_t backend) noexcept {
  switch (backend) {
    case backend_t::sim:
      return "sim";
    case backend_t::shm:
      return "shm";
    case backend_t::tcp:
      return "tcp";
  }
  return "?";
}

bool backend_from_string(const char* name, backend_t* out) noexcept {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "sim") == 0) {
    *out = backend_t::sim;
    return true;
  }
  if (std::strcmp(name, "shm") == 0) {
    *out = backend_t::shm;
    return true;
  }
  if (std::strcmp(name, "tcp") == 0) {
    *out = backend_t::tcp;
    return true;
  }
  return false;
}

backend_t backend_env_default() {
  const char* env = std::getenv("LCI_BACKEND");
  if (env == nullptr || env[0] == '\0') return backend_t::sim;
  backend_t backend;
  if (!backend_from_string(env, &backend))
    throw std::runtime_error(
        std::string("LCI_BACKEND must be sim, shm, or tcp (got \"") + env +
        "\")");
  return backend;
}

int bootstrap_rank() { return bootstrap::rank(); }
int bootstrap_nranks() { return bootstrap::nranks(); }

namespace {

double env_rate(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  const double v = std::atof(env);
  return v >= 0.0 ? v : fallback;
}

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  const long long v = std::atoll(env);
  return v >= 0 ? static_cast<uint64_t>(v) : fallback;
}

}  // namespace

fault_config_t fault_env_config(const fault_config_t& base) {
  fault_config_t fault = base;
  fault.loss_rate = env_rate("LCI_FAULT_LOSS_RATE", fault.loss_rate);
  fault.delay_rate = env_rate("LCI_FAULT_DELAY_RATE", fault.delay_rate);
  fault.delay_polls = static_cast<uint32_t>(
      env_u64("LCI_FAULT_DELAY_POLLS", fault.delay_polls));
  fault.seed = env_u64("LCI_FAULT_SEED", fault.seed);
  const char* kill = std::getenv("LCI_FAULT_KILL_RANK");
  if (kill != nullptr && kill[0] != '\0') fault.kill_rank = std::atoi(kill);
  fault.kill_after_ops =
      env_u64("LCI_FAULT_KILL_AFTER_OPS", fault.kill_after_ops);
  fault.tcp_reset_rate =
      env_rate("LCI_FAULT_TCP_RESET_RATE", fault.tcp_reset_rate);
  fault.tcp_short_write_rate =
      env_rate("LCI_FAULT_TCP_SHORT_WRITE_RATE", fault.tcp_short_write_rate);
  fault.shm_ring_shrink = static_cast<std::size_t>(
      env_u64("LCI_FAULT_SHM_RING_SHRINK", fault.shm_ring_shrink));
  return fault;
}

std::shared_ptr<fabric_t> create_fabric(backend_t backend,
                                        const config_t& config) {
  switch (backend) {
    case backend_t::sim:
      // One in-process rank; multi-rank sim worlds are built explicitly via
      // create_sim_fabric (lci::sim::world_t).
      return create_sim_fabric(1, config);
    case backend_t::shm:
    case backend_t::tcp: {
      // Real backends are created from the forked-child env contract, so the
      // fault policy rides the environment too.
      config_t real = config;
      real.fault = fault_env_config(real.fault);
      // Taken before any handshake wait: a rank that dies mid-handshake is
      // detected by its peers' bootstrap probes instead of a blind timeout.
      bootstrap::announce_self();
      return backend == backend_t::shm
                 ? detail::create_shm_fabric(bootstrap::rank(),
                                             bootstrap::nranks(), real)
                 : detail::create_tcp_fabric(bootstrap::rank(),
                                             bootstrap::nranks(), real);
    }
  }
  throw std::runtime_error("create_fabric: unknown backend");
}

}  // namespace lci::net
