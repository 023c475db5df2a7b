// Completion-object API (paper Sec. 3.2.5 / 4.1.4).
#include "core/comp_impl.hpp"
#include "core/runtime_impl.hpp"

namespace lci {

comp_t alloc_handler(handler_fn_t fn, runtime_t) {
  comp_t comp;
  comp.p = new detail::handler_impl_t(std::move(fn));
  return comp;
}

comp_t alloc_cq(runtime_t runtime) { return alloc_cq_x().runtime(runtime)(); }

comp_t alloc_sync(std::size_t threshold, runtime_t runtime) {
  return alloc_sync_x().runtime(runtime).threshold(threshold)();
}

void free_comp(comp_t* comp) {
  if (comp == nullptr || comp->p == nullptr) return;
  delete comp->p;
  comp->p = nullptr;
}

namespace {

// The completion object behind `comp` as its concrete type; throws
// fatal_error_t(what) when `comp` is of another kind.
template <typename impl_t>
impl_t* comp_as(comp_t comp, comp_attr_t::kind_t kind, const char* what) {
  if (comp.p == nullptr || comp.p->kind() != kind) throw fatal_error_t(what);
  return static_cast<impl_t*>(comp.p);
}

}  // namespace

status_t cq_pop(comp_t cq) {
  auto* impl = comp_as<detail::cq_impl_t>(cq, comp_attr_t::kind_t::cq,
                                          "cq_pop: not a completion queue");
  status_t status;
  if (impl->pop(&status)) {
    // Keep a fatal completion's code (peer down / canceled / timed out) —
    // rewriting it to `done` would hide the failure from the consumer.
    if (!status.error.is_fatal()) status.error.code = errorcode_t::done;
    return status;
  }
  status.error.code = errorcode_t::retry;
  return status;
}

bool sync_test(comp_t sync, status_t* out) {
  return comp_as<detail::sync_impl_t>(sync, comp_attr_t::kind_t::sync,
                                      "sync_test: not a synchronizer")
      ->test(out);
}

void sync_wait(comp_t sync, status_t* out) {
  auto* impl = comp_as<detail::sync_impl_t>(sync, comp_attr_t::kind_t::sync,
                                            "sync_wait: not a synchronizer");
  // Drive the calling rank's default device while waiting so a single
  // threaded client cannot deadlock on its own progress.
  runtime_t g = get_g_runtime();
  util::backoff_t backoff;
  while (!impl->test(out)) {
    if (g.p != nullptr) {
      if (g.p->default_device().progress()) {
        backoff.reset();
        continue;
      }
    }
    backoff.spin();
  }
}

void comp_signal(comp_t comp, const status_t& status) {
  if (comp.p != nullptr) comp.p->signal(status);
}

rcomp_t register_rcomp(comp_t comp, runtime_t runtime) {
  return detail::resolve_runtime(runtime)->register_rcomp(comp.p);
}

void deregister_rcomp(rcomp_t rcomp, runtime_t runtime) {
  detail::resolve_runtime(runtime)->deregister_rcomp(rcomp);
}

}  // namespace lci

namespace lci {

// ---------------------------------------------------------------------------
// OFF allocation variants and attribute queries
// ---------------------------------------------------------------------------

device_t alloc_device_x::operator()() const {
  auto* rt = detail::resolve_runtime(runtime_);
  device_t device;
  device.p = new detail::device_impl_t(rt, auto_progress_);
  return device;
}

comp_t alloc_cq_x::operator()() const {
  comp_t comp;
  comp.p = new detail::cq_impl_t(type_, capacity_ != 0 ? capacity_ : 65536);
  return comp;
}

comp_t alloc_sync_x::operator()() const {
  comp_t comp;
  comp.p = new detail::sync_impl_t(threshold_);
  return comp;
}

matching_engine_t alloc_matching_engine_x::operator()() const {
  auto* rt = detail::resolve_runtime(runtime_);
  matching_engine_t engine;
  engine.p = new detail::matching_engine_impl_t(
      num_buckets_ != 0 ? num_buckets_ : rt->attr().matching_engine_buckets);
  if (make_key_) engine.p->set_make_key(make_key_);
  rt->register_engine(engine.p);
  engine.p->owner = rt;
  return engine;
}

packet_pool_t alloc_packet_pool_x::operator()() const {
  auto* rt = detail::resolve_runtime(runtime_);
  packet_pool_t pool;
  pool.p = new detail::packet_pool_impl_t(
      npackets_ != 0 ? npackets_ : rt->attr().npackets,
      packet_size_ != 0 ? packet_size_ : rt->attr().packet_size);
  return pool;
}

runtime_attr_t get_attr(runtime_t runtime) {
  return detail::resolve_runtime(runtime)->attr();
}

device_attr_t get_attr(device_t device) {
  device_attr_t attr;
  detail::device_impl_t* dev =
      device.p != nullptr ? device.p
                          : &detail::resolve_runtime({})->default_device();
  attr.prepost_depth = dev->prepost_depth();
  attr.net_index = dev->net().index();
  attr.device_shards = dev->nshards();
  attr.backlog_size = dev->backlog().size_approx();
  attr.injected_faults = dev->injected_faults_total();
  attr.auto_progress = dev->auto_progress();
  attr.doorbell_rings = dev->doorbell().rings();
  attr.wire_dropped = dev->wire_dropped_total();
  attr.allow_aggregation = dev->aggregation_default();
  attr.aggregation_flush_us = dev->agg_flush_us();
  attr.cq_poll_burst = dev->cq_poll_burst();
  const int nranks = dev->runtime()->nranks();
  for (int rank = 0; rank < nranks; ++rank)
    if (dev->net().is_peer_down(rank)) attr.dead_peers.push_back(rank);
  return attr;
}

matching_engine_attr_t get_attr(matching_engine_t engine) {
  matching_engine_attr_t attr;
  if (engine.p == nullptr) return attr;
  attr.num_buckets = engine.p->num_buckets();
  attr.id = engine.p->id();
  attr.entries = engine.p->size_slow();
  return attr;
}

packet_pool_attr_t get_attr(packet_pool_t pool) {
  packet_pool_attr_t attr;
  if (pool.p == nullptr) return attr;
  attr.npackets = pool.p->total_packets();
  attr.packet_size = pool.p->packet_capacity();
  attr.pooled = pool.p->pooled_approx();
  return attr;
}

comp_attr_t get_attr(comp_t comp) {
  comp_attr_t attr;
  if (comp.p == nullptr) return attr;
  attr.kind = comp.p->kind();
  if (attr.kind == comp_attr_t::kind_t::cq) {
    attr.cq_type = static_cast<detail::cq_impl_t*>(comp.p)->type();
  } else if (attr.kind == comp_attr_t::kind_t::sync) {
    attr.sync_threshold =
        static_cast<detail::sync_impl_t*>(comp.p)->threshold();
  }
  return attr;
}

}  // namespace lci
