// Device: a complete set of low-level network resources. Threads operating
// on different devices never interfere (paper Sec. 3.2.3 / 4.2). A device
// may be split into N internal shards (runtime_attr_t::device_shards), each
// a full fabric endpoint with its own pre-posted receives and aggregation
// slots — the VCI idea: threads routed to different shards contend on
// nothing on the send path.
#include <algorithm>

#include "core/runtime_impl.hpp"
#include "util/log.hpp"

namespace lci::detail {

namespace {
// The TLS shard pin behind lci::pin_thread_shard. Process-wide (one hint for
// every device) so benches and apps can pin worker t to shard t once,
// whatever devices they post through.
thread_local int tls_shard_pin = -1;
}  // namespace

int thread_shard_hint() noexcept { return tls_shard_pin; }

device_impl_t::device_impl_t(runtime_impl_t* runtime, bool auto_progress)
    : runtime_(runtime),
      // The receive budget leaves at least half the pool for sends, so a
      // small pool still has packets to stage with.
      prepost_depth_(
          std::min(max_prepost_depth, runtime->attr().npackets / 2)),
      auto_progress_(auto_progress) {
  backlog_.bind_counters(&runtime_->counters());
  // The eager-coalescing limits follow the packet geometry: a batch fills
  // at most one packet's payload, and a sub-message must fit one with its
  // header. One aggregation slot per (shard, peer).
  const runtime_attr_t& attr = runtime_->attr();
  agg_default_ = attr.allow_aggregation;
  agg_max_bytes_ =
      std::max(runtime_->eager_threshold(), batch_entry_bytes(1));
  agg_eager_max_ = std::min(max_agg_eager_size,
                            agg_max_bytes_ - sizeof(batch_sub_header_t));
  agg_flush_us_ = attr.aggregation_flush_us;
  // Shards are created in order, so with symmetric configs shard s of the
  // k-th device on every rank gets the same net index — the fabric's
  // index pairing then connects shard s with the peers' shard s, keeping
  // one shard's traffic on one wire mailbox end to end.
  const std::size_t nshards = std::max<std::size_t>(1, attr.device_shards);
  const auto nranks = static_cast<std::size_t>(runtime_->nranks());
  // prepost_depth is a per-device budget: split it across the shards so the
  // packet-pool draw is invariant in the shard count (a 16-packet pool that
  // leaves 8 packets free at shards=1 still leaves 8 free at shards=4).
  prepost_per_shard_ = std::max<std::size_t>(1, prepost_depth_ / nshards);
  shards_ = std::vector<shard_t>(nshards);  // shard_t is immovable
  for (auto& shard : shards_) {
    shard.net_device = runtime_->net_context().create_device();
    shard.agg_slots = std::make_unique<agg_slot_t[]>(nranks);
    // Every shard rings the same device doorbell: engine wakeups are a
    // device-level concern, and progress() services all shards anyway.
    shard.net_device->set_doorbell(&doorbell_);
  }
  // CQ poll burst: the fabric's own burst, per shard per progress() call
  // (see the round-robin in progress()).
  cq_poll_burst_ = std::clamp<std::size_t>(runtime_->net_config().poll_burst,
                                           1, max_cq_poll_burst);
  runtime_->register_device(this);
  // Fill the receive queues up front so early senders find buffers; further
  // replenishment is the progress engine's job.
  replenish_preposts();
  if (auto_progress_) runtime_->attach_progress_device(this);
  LCI_LOG_(debug, "rank %d: device %d up (prepost_depth=%zu shards=%zu auto=%d)",
           runtime_->rank(), net().index(), prepost_depth_, shards_.size(),
           static_cast<int>(auto_progress_));
}

device_impl_t::~device_impl_t() {
  // Leave the engine first (pause-the-world inside): after this no engine
  // thread can hold a pointer to this device or its doorbell.
  if (auto_progress_) runtime_->detach_progress_device(this);
  for (auto& shard : shards_) shard.net_device->set_doorbell(nullptr);
  // Packets still sitting in the pre-posted receive queues are reclaimed when
  // the pool frees its slabs; quiesce traffic before freeing a device.
  runtime_->unregister_device(this);
}

bool device_impl_t::replenish_preposts() {
  bool advanced = false;
  for (auto& shard : shards_) {
    while (shard.net_device->preposted_recvs() < prepost_per_shard_) {
      packet_t* packet = runtime_->default_pool().get();
      if (packet == nullptr) return advanced;  // pool dry; retry next progress
      const auto result = shard.net_device->post_recv(
          packet->payload(), runtime_->default_pool().packet_capacity(),
          packet);
      if (result != net::post_result_t::ok) {
        runtime_->default_pool().put(packet);
        break;
      }
      advanced = true;
    }
  }
  return advanced;
}

void device_impl_t::repost(packet_t* packet, uint32_t holds,
                           net::device_t& ep) {
  if (holds != 0 &&
      packet->refs.fetch_add(holds, std::memory_order_acq_rel) + holds != 0)
    return;
  if (ep.preposted_recvs() < prepost_per_shard_ &&
      ep.post_recv(packet->payload(), packet->pool->packet_capacity(),
                   packet) == net::post_result_t::ok)
    return;
  packet->pool->put(packet);
}

}  // namespace lci::detail

namespace lci {

device_t alloc_device(runtime_t runtime) {
  return alloc_device_x().runtime(runtime)();
}

void free_device(device_t* device) {
  if (device == nullptr || device->p == nullptr) return;
  delete device->p;
  device->p = nullptr;
}

void pin_thread_shard(int shard) {
  detail::tls_shard_pin = shard < 0 ? -1 : shard;
}

int get_thread_shard() { return detail::tls_shard_pin; }

namespace detail {
bool progress_impl(runtime_t runtime, device_t device) {
  device_impl_t* dev =
      device.p != nullptr ? device.p : &resolve_runtime(runtime)->default_device();
  return dev->progress();
}
}  // namespace detail

}  // namespace lci
