// Packet pool implementation (paper Sec. 4.1.2).
#include <algorithm>
#include <cstring>
#include <mutex>
#include <new>

#include "core/packet.hpp"
#include "core/lci.hpp"

namespace lci::detail {

namespace {
// Payload stride rounded so every packet header stays cache-line aligned.
std::size_t packet_stride(std::size_t capacity) {
  const std::size_t raw = sizeof(packet_t) + capacity;
  return (raw + util::cache_line_size - 1) & ~(util::cache_line_size - 1);
}
}  // namespace

packet_pool_impl_t::packet_pool_impl_t(std::size_t npackets,
                                       std::size_t packet_capacity)
    : npackets_(npackets),
      packet_capacity_(packet_capacity),
      stride_(packet_stride(packet_capacity)),
      // Carves run from the slab's start, so the pages a runtime touches
      // are a prefix of it.
      slab_(npackets_ * stride_) {}

packet_pool_impl_t::~packet_pool_impl_t() = default;

packet_pool_impl_t::deque_t* packet_pool_impl_t::local_deque() {
  const std::size_t tid = util::thread_id();
  if (tid < deques_.size()) {
    if (deque_t* d = deques_.get(tid)) return d;
  }
  std::lock_guard<util::spinlock_t> guard(reg_lock_);
  // Re-check under the lock (another call on this thread cannot race, but
  // keep the invariant local).
  if (tid < deques_.size()) {
    if (deque_t* d = deques_.get(tid)) return d;
  }
  deque_storage_.push_back(std::make_unique<deque_t>());
  deque_t* d = deque_storage_.back().get();
  members_.push_back(d);
  deques_.put_extend(tid, d);
  return d;
}

packet_t* packet_pool_impl_t::get() {
  deque_t* local = local_deque();
  packet_t* packet = nullptr;
  if (local->pop_tail(&packet)) return packet;

  // Local deque empty: try stealing half the packets from a few randomly
  // selected victims (paper: one random victim per failed get; we allow a
  // small number of attempts before carving or reporting retry_nopacket).
  // Each victim is drawn uniformly from the pool's other deques: the
  // caller's own, which is among the first n, trades places with the last.
  thread_local util::xoshiro256_t rng(0x243f6a8885a308d3ull ^
                                      util::thread_id());
  const std::size_t n = members_.size();
  std::vector<packet_t*> stolen;
  for (int attempt = 0; attempt < 3 && n > 1; ++attempt) {
    deque_t* victim = members_.get(rng.below(n - 1));
    if (victim == local) victim = members_.get(n - 1);
    stolen.clear();
    if (victim->try_steal_half(stolen) > 0) {
      packet = stolen.back();
      stolen.pop_back();
      for (packet_t* p : stolen) local->push_tail(p);
      return packet;
    }
  }
  // Carving only after stealing keeps the touched packets close to the
  // working set: packets that pile up in the deque of a thread that puts
  // more than it gets are found before the slab grows.
  return carve();
}

packet_t* packet_pool_impl_t::carve() {
  if (carved_.load(std::memory_order_relaxed) >= npackets_) return nullptr;
  const std::size_t i = carved_.fetch_add(1, std::memory_order_relaxed);
  if (i >= npackets_) return nullptr;
  auto* packet = new (slab_.data() + i * stride_) packet_t;
  packet->pool = this;
  return packet;
}

void packet_pool_impl_t::put(packet_t* packet) {
  local_deque()->push_tail(packet);
}

std::size_t packet_pool_impl_t::pooled_approx() const noexcept {
  std::size_t total = npackets_ - carved();
  const std::size_t n = members_.size();
  for (std::size_t i = 0; i < n; ++i) total += members_.get(i)->size_approx();
  return total;
}

}  // namespace lci::detail
