// Packets and the packet pool (paper Sec. 4.1.2).
//
// Packets are fixed-size pre-registered buffers used by the buffer-copy
// protocol and as pre-posted receive buffers. The pool is a collection of
// per-thread deques managed by an MPMC array: each thread gets/puts at the
// tail of its own deque (cache-hot end); when its deque is empty it steals
// half the packets from the head of a randomly chosen victim. Thread safety
// is a per-deque spinlock, so there is no contention during normal operation.
// The pool is the same at every device shard count: a thread's deque is
// private to it whichever shard it posts through.
//
// The slab behind the packets is reserved, not written: a packet is carved
// from it (its header constructed) only when a get() finds its own deque
// empty and its steal attempts fail. A runtime thus touches only the
// packets its traffic keeps in flight, and npackets stays a hard cap. The
// slab asks for huge pages (util/reserved_memory.hpp): the preposted
// receives cycle through a hundred-odd packets, which would otherwise each
// take a TLB entry of their own.
// A received packet is also where its unexpected messages wait (Sec. 4.3),
// alone or batched, until nothing holds it (packet_t::refs).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "util/cacheline.hpp"
#include "util/mpmc_array.hpp"
#include "util/reserved_memory.hpp"
#include "util/rng.hpp"
#include "util/steal_deque.hpp"
#include "util/thread.hpp"

namespace lci::detail {

class packet_pool_impl_t;

// Packet layout: one cache-line header followed by `capacity` payload bytes.
struct alignas(util::cache_line_size) packet_t {
  packet_pool_impl_t* pool = nullptr;
  // Stamped on a received packet for whoever takes a message kept in it:
  // the sender, the kind kept (eager_send or rts), and the bytes that
  // landed. Data past `landed` never arrived (the sender's packet_size is
  // larger): its receive completes with fatal_truncated.
  int peer_rank = -1;
  uint32_t landed = 0;
  uint8_t kind = 0;
  // Holds: one per message a matching engine keeps in the packet and one
  // per AM payload lent out of it. The receive path adds its holds once,
  // when done with the packet; holders drop theirs through drop_hold, maybe
  // before that. Whoever brings the count back to zero returns the packet:
  // a holder to its pool, the receive path to the receive queue.
  std::atomic<uint32_t> refs{0};

  char* payload() noexcept {
    return reinterpret_cast<char*>(this) + sizeof(packet_t);
  }
  static packet_t* from_payload(void* payload) noexcept {
    return reinterpret_cast<packet_t*>(static_cast<char*>(payload) -
                                       sizeof(packet_t));
  }
};
static_assert(sizeof(packet_t) == util::cache_line_size);

// Written over the parsed 16-byte header (msg_header_t or batch sub-header)
// in front of a packet-delivered active-message payload. release_am_packet
// reads it back to find the owning packet, which may not be header-adjacent
// when the payload is a slice of an eager_batch.
struct am_packet_ref_t {
  packet_t* owner = nullptr;
  uint64_t magic = 0;
};
inline constexpr uint64_t am_packet_magic = 0x4c4349414d524546ull;  // LCIAMREF
static_assert(sizeof(am_packet_ref_t) == 16);

// Written the same way in front of a message a matching engine keeps as a
// send (a plain or batched eager_send, or an RTS) until a receive or the
// dead-peer purge takes it; the engine's value is its address.
struct kept_msg_t {
  packet_t* packet = nullptr;
  uint32_t size = 0;  // data bytes as the sender sent them
  uint32_t tag = 0;

  const char* data() const noexcept {
    return reinterpret_cast<const char*>(this + 1);
  }
  bool landed_whole() const noexcept {
    return data() - packet->payload() + size <= packet->landed;
  }
};
static_assert(sizeof(kept_msg_t) == 16);

class packet_pool_impl_t {
 public:
  packet_pool_impl_t(std::size_t npackets, std::size_t packet_capacity);
  ~packet_pool_impl_t();
  packet_pool_impl_t(const packet_pool_impl_t&) = delete;
  packet_pool_impl_t& operator=(const packet_pool_impl_t&) = delete;

  // Non-blocking get: pops from the caller's deque, stealing on miss and
  // carving a fresh packet when the steal attempts fail. Returns nullptr
  // when every packet is carved and out of reach (=> retry_nopacket).
  packet_t* get();
  // Returns a packet to the caller's deque.
  void put(packet_t* packet);

  std::size_t packet_capacity() const noexcept { return packet_capacity_; }
  std::size_t total_packets() const noexcept { return npackets_; }
  // Packets sitting in deques plus packets not yet carved (approximate;
  // excludes in-flight).
  std::size_t pooled_approx() const noexcept;
  // Packets carved from the slab so far.
  std::size_t carved() const noexcept {
    return std::min(carved_.load(std::memory_order_relaxed), npackets_);
  }

 private:
  using deque_t = util::steal_deque_t<packet_t*>;
  deque_t* local_deque();
  packet_t* carve();

  const std::size_t npackets_;
  const std::size_t packet_capacity_;
  const std::size_t stride_;  // header + payload, rounded to a cache line
  const util::reserved_memory_t slab_;
  // Next slab slot to carve; runs past npackets_ only by failed carves.
  std::atomic<std::size_t> carved_{0};
  // Each thread's deque, by util::thread_id(): the lookup of every get/put.
  util::mpmc_array_t<deque_t*> deques_{64};
  // The same deques, densely: steal victims are drawn from here, not from
  // the thread-id slots of threads that never touched this pool.
  util::mpmc_array_t<deque_t*> members_{8};
  std::vector<std::unique_ptr<deque_t>> deque_storage_;  // guarded by reg_lock_
  util::spinlock_t reg_lock_;
};

// Drops one hold on a received packet (see packet_t::refs); the drop that
// brings the count back to zero returns the packet to its pool.
inline void drop_hold(packet_t* packet) {
  if (packet->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
    packet->pool->put(packet);
}

}  // namespace lci::detail
