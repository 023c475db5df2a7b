// Wire protocol of the LCI runtime (paper Sec. 4.3 / 4.4).
//
// Send-receive and active messages use three protocols by message size:
//   inject      (size <= min(max_inject_size, eager threshold)):
//               header+data assembled on the stack and handed to the
//               network, no packet consumed;
//   buffer-copy (size <= eager threshold): header+data staged in a packet;
//   zero-copy   (larger): RTS -> match -> RTR -> RDMA write with immediate
//               ("FIN") rendezvous.
// Put/get translate directly to network write/read; put-with-signal uses
// write-with-immediate, get-with-signal uses the simulated fabric's
// read-with-notification extension.
#pragma once

#include <cstdint>
#include <cstring>

#include "core/lci.hpp"

namespace lci::detail {

inline constexpr std::size_t max_inject_size = 64;

struct msg_header_t {
  enum kind_t : uint8_t {
    eager_send,   // matched against posted receives
    eager_am,     // delivered to the rcomp completion object
    rts,          // rendezvous request for a send-receive
    rts_am,       // rendezvous request for an active message
    rtr,          // rendezvous reply (ready to receive)
    eager_batch,  // coalesced sequence of eager_send/eager_am sub-messages
  };

  uint8_t kind = eager_send;
  uint8_t policy = 0;      // matching_policy_t used by the sender
  uint16_t engine_id = 0;  // matching engine the target should match in
  tag_t tag = 0;
  rcomp_t rcomp = rcomp_null;
  uint32_t reserved = 0;
};
static_assert(sizeof(msg_header_t) == 16);

// Sub-message header inside an eager_batch payload: the batch payload is a
// sequence of [batch_sub_header_t][data] entries packed back to back, each
// data block padded to 8-byte alignment so sub-headers stay aligned. The
// sub-header carries exactly the msg_header_t fields a single eager message
// would have carried, plus its payload size.
struct batch_sub_header_t {
  uint8_t kind = msg_header_t::eager_send;  // eager_send or eager_am
  uint8_t policy = 0;
  uint16_t engine_id = 0;
  uint32_t size = 0;  // payload bytes (unpadded)
  tag_t tag = 0;
  rcomp_t rcomp = rcomp_null;
};
static_assert(sizeof(batch_sub_header_t) == 16);

inline constexpr std::size_t batch_align = 8;
inline constexpr std::size_t batch_pad(std::size_t size) noexcept {
  return (size + batch_align - 1) & ~(batch_align - 1);
}
// Bytes one sub-message occupies inside a batch payload.
inline constexpr std::size_t batch_entry_bytes(std::size_t size) noexcept {
  return sizeof(batch_sub_header_t) + batch_pad(size);
}

struct rts_payload_t {
  uint64_t size = 0;     // total message size
  uint32_t rdv_id = 0;   // source-side pending-operation id
  uint32_t reserved = 0;
};

struct rtr_payload_t {
  uint32_t rdv_id = 0;      // echoed source-side id
  uint32_t pending_id = 0;  // target-side pending-receive id
  uint32_t mr_id = 0;       // registered target buffer
  uint32_t reserved = 0;
  // Offset of the receive buffer inside mr_id: a registration-cache hit may
  // serve an MR whose base lies below the posted buffer, and the sender must
  // direct its RDMA write at base + mr_offset, not the MR base.
  uint64_t mr_offset = 0;
};

// Immediate-data encoding (32 bits):
//   bit 31 = 1: rendezvous FIN; bits 0..30 carry the target pending id.
//   bit 31 = 0: RMA notification; bits 16..30 carry the tag (15 bits) and
//               bits 0..15 the rcomp. put/get-with-signal therefore require
//               rcomp < 2^16 and tag < 2^15 (documented API limit).
inline constexpr uint32_t imm_fin_flag = 0x80000000u;

inline uint32_t encode_fin_imm(uint32_t pending_id) {
  return imm_fin_flag | pending_id;
}
inline uint32_t encode_signal_imm(rcomp_t rcomp, tag_t tag) {
  return (static_cast<uint32_t>(tag & 0x7fffu) << 16) |
         static_cast<uint32_t>(rcomp & 0xffffu);
}
inline bool imm_is_fin(uint32_t imm) { return (imm & imm_fin_flag) != 0; }
inline uint32_t imm_fin_pending_id(uint32_t imm) {
  return imm & ~imm_fin_flag;
}
inline rcomp_t imm_signal_rcomp(uint32_t imm) { return imm & 0xffffu; }
inline tag_t imm_signal_tag(uint32_t imm) { return (imm >> 16) & 0x7fffu; }

}  // namespace lci::detail
