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
    : npackets_(npackets), packet_capacity_(packet_capacity) {
  const std::size_t stride = packet_stride(packet_capacity_);
  // One slab, over-allocated for alignment.
  auto slab = std::make_unique<char[]>(npackets_ * stride +
                                       util::cache_line_size);
  char* base = slab.get();
  auto misalign = reinterpret_cast<uintptr_t>(base) % util::cache_line_size;
  if (misalign != 0) base += util::cache_line_size - misalign;
  slabs_.push_back(std::move(slab));

  // All packets start in the creating thread's deque; work stealing spreads
  // them to other threads on demand.
  deque_t* local = local_deque();
  for (std::size_t i = 0; i < npackets_; ++i) {
    auto* packet = new (base + i * stride) packet_t;
    packet->pool = this;
    local->push_tail(packet);
  }
}

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
  deques_.put_extend(tid, d);
  return d;
}

packet_t* packet_pool_impl_t::get() {
  deque_t* local = local_deque();
  packet_t* packet = nullptr;
  if (local->pop_tail(&packet)) return packet;

  // Local deque empty: try stealing half the packets from a few randomly
  // selected victims (paper: one random victim per failed get; we allow a
  // small number of attempts before reporting retry_nopacket).
  thread_local util::xoshiro256_t rng(0x243f6a8885a308d3ull ^
                                      util::thread_id());
  const std::size_t n = deques_.size();
  if (n == 0) return nullptr;
  std::vector<packet_t*> stolen;
  for (int attempt = 0; attempt < 3; ++attempt) {
    deque_t* victim = deques_.get(rng.below(n));
    if (victim == nullptr || victim == local) continue;
    stolen.clear();
    if (victim->try_steal_half(stolen) > 0) {
      packet = stolen.back();
      stolen.pop_back();
      for (packet_t* p : stolen) local->push_tail(p);
      return packet;
    }
  }
  return nullptr;
}

void packet_pool_impl_t::put(packet_t* packet) {
  if (packet->heap_orphan != 0) {
    // Overflow packet minted by the batch unpacker when the pool was dry:
    // free it instead of growing the pool past npackets.
    packet->~packet_t();
    ::operator delete(packet, std::align_val_t{util::cache_line_size});
    return;
  }
  local_deque()->push_tail(packet);
}

std::size_t packet_pool_impl_t::pooled_approx() const noexcept {
  std::size_t total = 0;
  const std::size_t n = deques_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (const deque_t* d = deques_.get(i)) total += d->size_approx();
  }
  return total;
}

}  // namespace lci::detail
