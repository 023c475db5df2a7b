#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>

#include "net/sim_fabric.hpp"
#include "util/backoff.hpp"

namespace lci::net {

std::shared_ptr<fabric_t> create_sim_fabric(int nranks,
                                            const config_t& config) {
  if (nranks <= 0) throw std::invalid_argument("fabric needs >= 1 rank");
  return std::make_shared<detail::sim_fabric_t>(nranks, config);
}

namespace detail {

sim_fabric_t::sim_fabric_t(int nranks, const config_t& config)
    : nranks_(nranks), config_(config) {
  ranks_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    ranks_.push_back(std::make_unique<rank_state_t>());
  const fault_config_t& fault = config_.fault;
  if (fault.kill_rank >= 0 && fault.kill_rank < nranks &&
      fault.kill_after_ops == 0) {
    // Dead from the start: no devices exist yet, so no doorbells to ring.
    ranks_[static_cast<std::size_t>(fault.kill_rank)]->dead->store(
        true, std::memory_order_release);
    death_epoch_.fetch_add(1, std::memory_order_release);
  }
}

sim_fabric_t::~sim_fabric_t() = default;

std::unique_ptr<context_t> sim_fabric_t::create_context(int rank) {
  if (rank < 0 || rank >= nranks_)
    throw std::out_of_range("context rank out of range");
  return std::make_unique<sim_context_t>(shared_from_this(), rank,
                                         next_context_index(rank));
}

int sim_fabric_t::next_context_index(int rank) {
  rank_state_t& state = *ranks_[static_cast<std::size_t>(rank)];
  std::lock_guard<util::spinlock_t> guard(state.context_lock);
  const int index = state.next_context++;
  state.context_storage.push_back(std::make_unique<context_devices_t>());
  state.contexts.put_extend(static_cast<std::size_t>(index),
                            state.context_storage.back().get());
  return index;
}

int sim_fabric_t::register_device(int rank, int context,
                                  sim_device_t* device) {
  rank_state_t& state = *ranks_[static_cast<std::size_t>(rank)];
  context_devices_t* slot =
      state.contexts.get(static_cast<std::size_t>(context));
  return static_cast<int>(
      slot->devices.push_back(device != nullptr ? device : reserved_slot()));
}

void sim_fabric_t::publish_device(int rank, int context, int index,
                                  sim_device_t* device) {
  rank_state_t& state = *ranks_[static_cast<std::size_t>(rank)];
  context_devices_t* slot =
      state.contexts.get(static_cast<std::size_t>(context));
  slot->devices.put(static_cast<std::size_t>(index), device);
}

void sim_fabric_t::unregister_device(int rank, int context, int index) {
  rank_state_t& state = *ranks_[static_cast<std::size_t>(rank)];
  context_devices_t* slot =
      state.contexts.get(static_cast<std::size_t>(context));
  slot->devices.put(static_cast<std::size_t>(index), nullptr);
  // Drain peers still pinned inside route() -> wire_push() -> doorbell ring:
  // their pin's re-check of the slot may have run before the clear, so they
  // may hold a pointer to this device. Once every cell has been seen at zero
  // no such pointer survives. Pins span a single post call, so this wait is
  // short and cannot deadlock (a pinned thread never unregisters or blocks
  // on teardown).
  //
  // Each cell is read with an RMW, not a load: the RMW lands in the cell's
  // modification order after the slot clear, so a pin taken after it
  // acquires the clear (route()'s re-check rejects this device) and a pin
  // taken before it is counted. A plain load could be satisfied before the
  // clear is visible to a concurrent poster (store-load reordering).
  for (route_pin_cell_t& cell : state.route_pins) {
    util::backoff_t backoff;
    while (cell.count.fetch_add(0, std::memory_order_acq_rel) != 0)
      backoff.spin();
  }
}

const sim_fabric_t::context_devices_t* sim_fabric_t::devices_of(
    int rank, int context) const {
  const rank_state_t& state = *ranks_[static_cast<std::size_t>(rank)];
  if (static_cast<std::size_t>(context) >= state.contexts.size())
    return nullptr;  // the peer has not created this context yet
  return state.contexts.get(static_cast<std::size_t>(context));
}

sim_device_t* sim_fabric_t::find_route(const context_devices_t& slots,
                                       int src_index,
                                       std::size_t* slot) const {
  const auto& devices = slots.devices;
  const std::size_t n = devices.size();
  const auto paired = static_cast<std::size_t>(src_index);
  if (paired >= n) return nullptr;  // not created yet
  sim_device_t* d = devices.get(paired);
  if (d == reserved_slot()) return nullptr;  // still under construction
  *slot = paired;
  if (d != nullptr) return d;
  // The paired device was freed: any live one will do.
  for (std::size_t k = 1; k < n; ++k) {
    *slot = (paired + k) % n;
    sim_device_t* other = devices.get(*slot);
    if (is_live(other)) return other;
  }
  return nullptr;
}

sim_fabric_t::route_t sim_fabric_t::route(int rank, int context,
                                          int src_index) {
  const context_devices_t* slots = devices_of(rank, context);
  if (slots == nullptr) return {};
  // Look up first, pin after, then re-check the slot. The lookup reads only
  // registry slots, never a device, so it needs no pin; and once paired
  // devices are freed it scans every freed slot, which under a held pin
  // would keep unregister_device's drain from seeing a zero. The re-check
  // makes the late pin safe: a pin taken after the drain's RMW on its cell
  // acquires the slot clear, so the re-read sees the slot emptied (slots are
  // never reused) and the lookup runs again; a pin taken before it is
  // counted, and the drain waits for it.
  while (true) {
    std::size_t slot = 0;
    sim_device_t* d = find_route(*slots, src_index, &slot);
    if (d == nullptr) return {};
    route_t routed{d, pin_route(rank)};
    if (slots->devices.get(slot) == d) return routed;
  }
}

bool sim_fabric_t::kill_rank(int rank) {
  if (rank < 0 || rank >= nranks_) return false;
  rank_state_t& victim = *ranks_[static_cast<std::size_t>(rank)];
  bool expected = false;
  if (!victim.dead->compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel))
    return false;  // already dead
  death_epoch_.fetch_add(1, std::memory_order_release);
  // Wake every live device: sleeping progress engines must notice the epoch
  // bump and run the dead-peer purge. The pin keeps each rank's devices (and
  // their doorbells) alive across the ring, exactly like a send path would.
  for (int r = 0; r < nranks_; ++r) {
    rank_state_t& state = *ranks_[static_cast<std::size_t>(r)];
    auto pin = pin_route(r);
    const std::size_t ncontexts = state.contexts.size();
    for (std::size_t c = 0; c < ncontexts; ++c) {
      const context_devices_t* slot = state.contexts.get(c);
      if (slot == nullptr) continue;
      const std::size_t n = slot->devices.size();
      for (std::size_t i = 0; i < n; ++i) {
        sim_device_t* d = slot->devices.get(i);
        if (is_live(d)) d->ring_doorbell();
      }
    }
  }
  return true;
}

void sim_fabric_t::note_post(int rank) {
  const fault_config_t& fault = config_.fault;
  if (fault.kill_rank != rank) return;
  if (is_dead(rank)) return;
  if (kill_ops_posted_.fetch_add(1, std::memory_order_acq_rel) + 1 >=
      fault.kill_after_ops)
    kill_rank(rank);
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

mr_id_t sim_fabric_t::register_memory(int rank, void* base, std::size_t size) {
  rank_state_t& state = *ranks_[static_cast<std::size_t>(rank)];
  std::lock_guard<util::spinlock_t> guard(state.mr_lock);
  mr_record_t* record;
  mr_id_t id;
  if (!state.mr_freelist.empty()) {
    id = state.mr_freelist.back();
    state.mr_freelist.pop_back();
    record = state.mrs.get(id);
  } else {
    state.mr_storage.push_back(std::make_unique<mr_record_t>());
    record = state.mr_storage.back().get();
    id = static_cast<mr_id_t>(state.mrs.push_back(record));
  }
  record->base = base;
  record->size = size;
  record->valid.store(true, std::memory_order_release);
  return id;
}

void sim_fabric_t::deregister_memory(int rank, mr_id_t id) {
  rank_state_t& state = *ranks_[static_cast<std::size_t>(rank)];
  std::lock_guard<util::spinlock_t> guard(state.mr_lock);
  mr_record_t* record = state.mrs.get(id);
  if (record == nullptr || !record->valid.load(std::memory_order_acquire))
    throw std::invalid_argument("deregistering an unregistered MR");
  record->valid.store(false, std::memory_order_release);
  state.mr_freelist.push_back(id);
}

char* sim_fabric_t::resolve_remote(int rank, mr_id_t id, std::size_t offset,
                                   std::size_t size) const {
  const rank_state_t& state = *ranks_[static_cast<std::size_t>(rank)];
  mr_record_t* record = id < state.mrs.size() ? state.mrs.get(id) : nullptr;
  if (record == nullptr || !record->valid.load(std::memory_order_acquire))
    throw std::invalid_argument("remote access to an unregistered MR (rank " +
                                std::to_string(rank) + ", mr " +
                                std::to_string(id) + ")");
  if (offset > record->size || size > record->size - offset)
    throw std::out_of_range("remote access beyond the registered region");
  return static_cast<char*>(record->base) + offset;
}

int sim_context_t::nranks() const { return fabric_->nranks(); }

std::unique_ptr<device_t> sim_context_t::create_device() {
  return std::make_unique<sim_device_t>(fabric_.get(), rank_, index_);
}

mr_id_t sim_context_t::register_memory(void* base, std::size_t size) {
  return fabric_->register_memory(rank_, base, size);
}

void sim_context_t::deregister_memory(mr_id_t id) {
  fabric_->deregister_memory(rank_, id);
}

}  // namespace detail
}  // namespace lci::net
