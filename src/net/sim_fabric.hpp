// Internal definitions of the simulated fabric (not part of the public
// backend interface in net.hpp): the in-process transport under the device
// core. A post routes to the paired device, pushes into its inbound queue,
// and moves RMA data by memcpy.
#pragma once

#include <memory>
#include <vector>

#include "net/device_core.hpp"

namespace lci::net::detail {

class sim_fabric_t;

class sim_device_t final : public device_core_t {
 public:
  sim_device_t(sim_fabric_t* fabric, int rank, int context);
  ~sim_device_t() override;

  post_result_t post_send(int peer_rank, const void* buffer, std::size_t size,
                          uint32_t imm, void* user_context) override;
  post_result_t post_write(int peer_rank, const void* local, std::size_t size,
                           mr_id_t remote_mr, std::size_t remote_offset,
                           bool notify, uint32_t imm,
                           void* user_context) override;
  post_result_t post_read(int peer_rank, void* local, std::size_t size,
                          mr_id_t remote_mr, std::size_t remote_offset,
                          bool notify, uint32_t imm,
                          void* user_context) override;

 private:
  // Pushes a remote_write / remote_read notification to the routed device.
  bool push_notification(device_core_t* target, op_t kind, int peer_rank,
                         std::size_t size, uint32_t imm);

  sim_fabric_t* const sim_;
};

class sim_context_t final : public context_t {
 public:
  sim_context_t(std::shared_ptr<sim_fabric_t> fabric, int rank, int index)
      : fabric_(std::move(fabric)), rank_(rank), index_(index) {}

  int rank() const override { return rank_; }
  int nranks() const override;
  std::unique_ptr<device_t> create_device() override;
  mr_id_t register_memory(void* base, std::size_t size) override;
  void deregister_memory(mr_id_t id) override;
  int index() const noexcept { return index_; }

 private:
  std::shared_ptr<sim_fabric_t> fabric_;
  const int rank_;
  // Connection namespace: devices of context k only exchange messages with
  // devices of the peer ranks' context k (contexts must be created in the
  // same order on every rank, like every other replicated resource).
  const int index_;
};

class sim_fabric_t final : public core_fabric_t,
                           public std::enable_shared_from_this<sim_fabric_t> {
 public:
  sim_fabric_t(int nranks, const config_t& config);
  ~sim_fabric_t() override;

  backend_t kind() const override { return backend_t::sim; }
  std::unique_ptr<context_t> create_context(int rank) override;
  // Peer death. kill_rank marks the rank dead (idempotent; also the
  // kill_after_ops trigger), bumps the fabric-wide death epoch and rings every
  // live device's doorbell so sleeping progress engines wake up and purge.
  bool kill_rank(int rank) override;

  device_registry_t& registry(int rank) {
    return ranks_[static_cast<std::size_t>(rank)]->registry;
  }
  // Messages from device `src_index` of context `context` arrive at the
  // target rank's same-context device `src_index` (device_registry_t). The
  // caller holds the returned pin across wire_push(), which rings the
  // target's doorbell *after* the push: without the pin the receiver could
  // consume the message, complete and tear down between the push and the
  // ring.
  device_registry_t::route_t route(int rank, int context, int src_index) {
    return registry(rank).route(context, src_index);
  }

  // Memory registrations: one table per rank, readable by any rank.
  mr_table_t& mrs(int rank) {
    return ranks_[static_cast<std::size_t>(rank)]->mrs;
  }
  // Resolves a remote address or throws: std::invalid_argument for an
  // unregistered MR, std::out_of_range past the registered region.
  char* resolve_remote(int rank, mr_id_t id, std::size_t offset,
                       std::size_t size) const;

  // Timing model: earliest delivery time for a message of `size` bytes sent
  // now (0 when the model is off).
  uint64_t ready_time_ns(std::size_t size) const;

 private:
  struct rank_state_t {
    // Peers inside route() -> push -> ring pin cells on their own lines
    // (see device_registry_t); the rank's dead flag is in the fabric's
    // ledger, alone on its line.
    device_registry_t registry;
    mr_table_t mrs;
  };

  std::vector<std::unique_ptr<rank_state_t>> ranks_;
};

}  // namespace lci::net::detail
