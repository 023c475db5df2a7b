// Runtime object: wraps default configuration and communication resources
// (paper Sec. 3.2.2 / 4.1).
#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>

#include "core/runtime_impl.hpp"
#include "util/log.hpp"
#include "core/sim_internal.hpp"

namespace lci::detail {

namespace {

// get_attr must report the backend actually hosting the rank, which can
// differ from the request when the thread was already bound (sim::spawn
// worlds, a second runtime on a real-backend process).
runtime_attr_t stamp_backend(runtime_attr_t attr, const net::fabric_t& fabric) {
  attr.backend = fabric.kind();
  return attr;
}

}  // namespace

runtime_impl_t::runtime_impl_t(std::shared_ptr<net::fabric_t> fabric, int rank,
                               const runtime_attr_t& attr)
    : attr_(stamp_backend(attr, *fabric)),
      fabric_(std::move(fabric)),
      net_context_(fabric_->create_context(rank)),
      rank_(rank),
      nranks_(fabric_->nranks()) {
  if (attr_.packet_size <= sizeof(msg_header_t))
    throw fatal_error_t("packet_size must exceed the message header size");
  // Eager frames (a packet plus the transport frame header) are not chunked:
  // one that can never fit the backend's ring / staging buffer would retry
  // forever in a silent livelock, so refuse the combination up front.
  if (attr_.packet_size > fabric_->max_send_payload())
    throw fatal_error_t(
        "packet_size exceeds what the backend transport can frame "
        "(shrink packet_size, or raise LCI_SHM_RING_KB on shm)");
  if (attr_.reg_cache_entries > 0)
    reg_cache_ = std::make_unique<net::reg_cache_t>(net_context_.get(),
                                                    attr_.reg_cache_entries);
  default_pool_ = std::make_unique<packet_pool_impl_t>(attr_.npackets,
                                                       attr_.packet_size);
  default_engine_ = std::make_unique<matching_engine_impl_t>(
      attr_.matching_engine_buckets);
  coll_engine_ = std::make_unique<matching_engine_impl_t>(1024);
  register_engine(default_engine_.get());  // id 0
  register_engine(coll_engine_.get());     // id 1
  // Tracing is process-global (wire messages cross runtimes in-process):
  // retain before any device can emit. The first retain installs ring
  // capacity and sampling; later retains keep the gate open.
  if (attr_.trace) trace::retain(attr_.trace_ring_size, attr_.trace_sample);
  default_device_ =
      std::make_unique<device_impl_t>(this, attr_.auto_progress_default);
  LCI_LOG_(info,
           "runtime up: rank %d/%d packet_size=%zu npackets=%zu "
           "buckets=%zu",
           rank_, nranks_, attr_.packet_size, attr_.npackets,
           attr_.matching_engine_buckets);
}

runtime_impl_t::~runtime_impl_t() {
  // Teardown order matters: the default device detaches from the engine
  // (pause-the-world) while the engine is still alive, then the engine stops
  // and joins its threads. Only then can the rest of the runtime go away.
  default_device_.reset();
  progress_engine_.reset();
  if (util::log_enabled(util::log_level_t::info)) {
    const counters_t c = counters_.snapshot();
    LCI_LOG_(info,
             "runtime down: rank %d sends inj/bcopy/rdv=%lu/%lu/%lu "
             "matched=%lu am=%lu retries lock/pkt/mem=%lu/%lu/%lu backlog=%lu",
             rank_, c.send_inject, c.send_bcopy, c.send_rdv, c.recv_matched,
             c.am_delivered, c.retry_lock, c.retry_nopacket, c.retry_nomem,
             c.backlog_pushed);
  }
  // Last release closes the recording gate; recorded data stays readable
  // (trace_snapshot / trace_dump_json work after the runtimes are gone).
  if (attr_.trace) trace::release();
}

rcomp_t runtime_impl_t::register_rcomp(comp_impl_t* comp) {
  std::lock_guard<util::spinlock_t> guard(rcomp_lock_);
  if (!rcomp_freelist_.empty()) {
    const rcomp_t id = rcomp_freelist_.back();
    rcomp_freelist_.pop_back();
    rcomp_registry_.put(id, comp);
    return id;
  }
  return static_cast<rcomp_t>(rcomp_registry_.push_back(comp));
}

void runtime_impl_t::deregister_rcomp(rcomp_t rcomp) {
  std::lock_guard<util::spinlock_t> guard(rcomp_lock_);
  rcomp_registry_.put(rcomp, nullptr);
  rcomp_freelist_.push_back(rcomp);
}

comp_impl_t* runtime_impl_t::lookup_rcomp(rcomp_t rcomp) const {
  if (rcomp == rcomp_null || rcomp >= rcomp_registry_.size()) return nullptr;
  return rcomp_registry_.get(rcomp);
}

uint16_t runtime_impl_t::register_engine(matching_engine_impl_t* engine) {
  std::lock_guard<util::spinlock_t> guard(engine_lock_);
  uint16_t id;
  if (!engine_freelist_.empty()) {
    id = engine_freelist_.back();
    engine_freelist_.pop_back();
    engine_registry_.put(id, engine);
  } else {
    id = static_cast<uint16_t>(engine_registry_.push_back(engine));
  }
  engine->set_id(id);
  return id;
}

void runtime_impl_t::deregister_engine(uint16_t id) {
  std::lock_guard<util::spinlock_t> guard(engine_lock_);
  engine_registry_.put(id, nullptr);
  engine_freelist_.push_back(id);
}

matching_engine_impl_t* runtime_impl_t::lookup_engine(uint16_t id) const {
  if (id >= engine_registry_.size()) return nullptr;
  return engine_registry_.get(id);
}

void runtime_impl_t::attach_progress_device(device_impl_t* device) {
  {
    std::lock_guard<util::spinlock_t> guard(engine_create_lock_);
    if (progress_engine_ == nullptr) {
      const std::size_t n = std::max<std::size_t>(1, attr_.nprogress_threads);
      progress_engine_ = std::make_unique<progress_engine_t>(this, n);
    }
  }
  progress_engine_->attach_device(device);
}

void runtime_impl_t::detach_progress_device(device_impl_t* device) {
  // No lock: the engine pointer only transitions null -> engine while the
  // runtime is alive, and a device can only detach after attaching.
  if (progress_engine_ != nullptr) progress_engine_->detach_device(device);
}

uint64_t runtime_impl_t::injected_faults() const {
  std::lock_guard<util::spinlock_t> guard(device_lock_);
  uint64_t total = 0;
  for (device_impl_t* device : devices_)
    total += device->injected_faults_total();
  return total;
}

uint64_t runtime_impl_t::dropped_wire_messages() const {
  std::lock_guard<util::spinlock_t> guard(device_lock_);
  uint64_t total = 0;
  for (device_impl_t* device : devices_)
    total += device->wire_dropped_total();
  return total;
}

runtime_impl_t* resolve_runtime(runtime_t runtime) {
  if (runtime.p != nullptr) return runtime.p;
  runtime_t g = get_g_runtime();
  if (g.p == nullptr)
    throw fatal_error_t(
        "no runtime: pass one explicitly or call g_runtime_init first");
  return g.p;
}

}  // namespace lci::detail

namespace lci {

int get_rank_me(runtime_t runtime) {
  return detail::resolve_runtime(runtime)->rank();
}

int get_rank_n(runtime_t runtime) {
  return detail::resolve_runtime(runtime)->nranks();
}

counters_t get_counters(runtime_t runtime) {
  auto* rt = detail::resolve_runtime(runtime);
  counters_t c = rt->counters().snapshot();
  c.fault_injected = rt->injected_faults();
  c.wire_dropped = rt->dropped_wire_messages();
  if (net::reg_cache_t* cache = rt->reg_cache()) {
    const net::reg_cache_t::stats_t stats = cache->stats();
    c.reg_cache_hits = stats.hits;
    c.reg_cache_misses = stats.misses;
    c.reg_cache_evictions = stats.evictions;
  }
  const net::fabric_health_t health = rt->fabric().health();
  c.heartbeats_sent = health.heartbeats_sent;
  c.peers_timed_out = health.peers_timed_out;
  c.backpressure_waits = health.backpressure_waits;
  return c;
}

void reset_counters(runtime_t runtime) {
  detail::resolve_runtime(runtime)->counters().reset();
}

net::fault_config_t get_fault_config(runtime_t runtime) {
  return detail::resolve_runtime(runtime)->net_config().fault;
}

void progress_pause(runtime_t runtime) {
  auto* rt = detail::resolve_runtime(runtime);
  if (auto* engine = rt->progress_engine()) engine->pause();
}

void progress_resume(runtime_t runtime) {
  auto* rt = detail::resolve_runtime(runtime);
  if (auto* engine = rt->progress_engine()) engine->resume();
}

matching_engine_t alloc_matching_engine(runtime_t runtime,
                                        std::size_t num_buckets) {
  return alloc_matching_engine_x().runtime(runtime).num_buckets(num_buckets)();
}

void free_matching_engine(matching_engine_t* engine) {
  if (engine == nullptr || engine->p == nullptr) return;
  engine->p->owner->deregister_engine(engine->p->id());
  delete engine->p;
  engine->p = nullptr;
}

packet_pool_t alloc_packet_pool(runtime_t runtime, std::size_t npackets,
                                std::size_t packet_size) {
  return alloc_packet_pool_x()
      .runtime(runtime)
      .npackets(npackets)
      .packet_size(packet_size)();
}

void free_packet_pool(packet_pool_t* pool) {
  if (pool == nullptr || pool->p == nullptr) return;
  delete pool->p;
  pool->p = nullptr;
}

mr_t register_memory(void* base, std::size_t size, runtime_t runtime) {
  auto* rt = detail::resolve_runtime(runtime);
  mr_t mr;
  mr.id = rt->net_context().register_memory(base, size);
  mr.runtime = rt;
  return mr;
}

void deregister_memory(mr_t* mr) {
  if (mr == nullptr || !mr->is_valid()) return;
  mr->runtime->net_context().deregister_memory(mr->id);
  mr->id = net::invalid_mr;
  mr->runtime = nullptr;
}

packet_handle_t get_packet(runtime_t runtime, packet_pool_t pool) {
  auto* rt = detail::resolve_runtime(runtime);
  detail::packet_pool_impl_t* p = pool.p != nullptr ? pool.p
                                                    : &rt->default_pool();
  detail::packet_t* packet = p->get();
  packet_handle_t handle;
  if (packet == nullptr) return handle;  // exhaustion: invalid handle
  handle.address = packet->payload() + sizeof(detail::msg_header_t);
  handle.capacity = p->packet_capacity() - sizeof(detail::msg_header_t);
  return handle;
}

void put_packet(packet_handle_t handle) {
  if (!handle.is_valid()) return;
  auto* packet = detail::packet_t::from_payload(
      static_cast<char*>(handle.address) - sizeof(detail::msg_header_t));
  packet->pool->put(packet);
}

void release_am_packet(const status_t& status) {
  if (status.buffer.base == nullptr) return;
  // The delivery path stamps an am_packet_ref_t immediately before the
  // payload (over the already-consumed wire header), so this works for both
  // standalone AM packets and sub-messages inside an eager_batch (which share
  // one refcounted packet).
  detail::am_packet_ref_t ref;
  std::memcpy(&ref, static_cast<char*>(status.buffer.base) -
                        sizeof(detail::am_packet_ref_t),
              sizeof(ref));
  assert(ref.magic == detail::am_packet_magic &&
         "release_am_packet: buffer was not delivered in packet mode");
  detail::drop_hold(ref.owner);
}

rmr_t get_rmr(mr_t mr) {
  rmr_t rmr;
  rmr.id = mr.id;
  return rmr;
}

}  // namespace lci
