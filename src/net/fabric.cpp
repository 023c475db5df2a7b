#include <chrono>
#include <stdexcept>
#include <string>

#include "net/sim_fabric.hpp"

namespace lci::net {

std::shared_ptr<fabric_t> create_sim_fabric(int nranks,
                                            const config_t& config) {
  if (nranks <= 0) throw std::invalid_argument("fabric needs >= 1 rank");
  return std::make_shared<detail::sim_fabric_t>(nranks, config);
}

namespace detail {

sim_fabric_t::sim_fabric_t(int nranks, const config_t& config)
    : core_fabric_t(nranks, config) {
  ranks_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    ranks_.push_back(std::make_unique<rank_state_t>());
  const fault_config_t& fault = config_.fault;
  // Dead from the start: no devices exist yet, so no doorbells to ring.
  if (fault.kill_rank >= 0 && fault.kill_rank < nranks &&
      fault.kill_after_ops == 0)
    mark_dead(fault.kill_rank);
}

sim_fabric_t::~sim_fabric_t() = default;

std::unique_ptr<context_t> sim_fabric_t::create_context(int rank) {
  if (rank < 0 || rank >= nranks_)
    throw std::out_of_range("context rank out of range");
  return std::make_unique<sim_context_t>(shared_from_this(), rank,
                                         registry(rank).add_context());
}

bool sim_fabric_t::kill_rank(int rank) {
  if (rank < 0 || rank >= nranks_ || !mark_dead(rank)) return false;
  // Wake every live device: sleeping progress engines must notice the epoch
  // bump and run the dead-peer purge. The registry's pin keeps each rank's
  // devices (and their doorbells) alive across the ring, exactly like a send
  // path would.
  for (int r = 0; r < nranks_; ++r) registry(r).ring_all();
  return true;
}

uint64_t sim_fabric_t::ready_time_ns(std::size_t size) const {
  if (config_.latency_us <= 0.0 && config_.bandwidth_gbps <= 0.0) return 0;
  const auto now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  double delay_ns = config_.latency_us * 1e3;
  if (config_.bandwidth_gbps > 0.0)
    delay_ns += static_cast<double>(size) / config_.bandwidth_gbps;  // B/GBps = ns
  return now + static_cast<uint64_t>(delay_ns);
}

char* sim_fabric_t::resolve_remote(int rank, mr_id_t id, std::size_t offset,
                                   std::size_t size) const {
  const mr_table_t::region_t* region =
      ranks_[static_cast<std::size_t>(rank)]->mrs.find(id);
  if (region == nullptr)
    throw std::invalid_argument("remote access to an unregistered MR (rank " +
                                std::to_string(rank) + ", mr " +
                                std::to_string(id) + ")");
  char* target = region->at(offset, size);
  if (target == nullptr)
    throw std::out_of_range("remote access beyond the registered region");
  return target;
}

int sim_context_t::nranks() const { return fabric_->nranks(); }

std::unique_ptr<device_t> sim_context_t::create_device() {
  return std::make_unique<sim_device_t>(fabric_.get(), rank_, index_);
}

mr_id_t sim_context_t::register_memory(void* base, std::size_t size) {
  return fabric_->mrs(rank_).add(base, size);
}

void sim_context_t::deregister_memory(mr_id_t id) {
  fabric_->mrs(rank_).remove(id);
}

}  // namespace detail
}  // namespace lci::net
