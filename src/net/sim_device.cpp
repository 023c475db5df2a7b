#include <cstring>

// Recording-side tracing only (header-inline; lci_net does not link the core
// library). A sim wire span opens at the post and ends at delivery.
#include "core/trace.hpp"
#include "net/sim_fabric.hpp"

namespace lci::net::detail {

sim_device_t::sim_device_t(sim_fabric_t* fabric, int rank, int context)
    : device_core_t(fabric, &fabric->registry(rank), rank, context,
                    /*inbound_is_wire=*/true),
      sim_(fabric) {
  publish();
}

sim_device_t::~sim_device_t() { withdraw(); }

post_result_t sim_device_t::post_send(int peer_rank, const void* buffer,
                                      std::size_t size, uint32_t imm,
                                      void* user_context) {
  const auto gate = open_post(peer_rank);
  if (gate.result != post_result_t::ok) return gate.result;
  // Pinned until return: wire_push rings the target's doorbell after the
  // push, and the pin keeps the routed device (and doorbell) alive for it.
  const auto route = sim_->route(peer_rank, context_, index_);
  if (route.target == nullptr) return post_result_t::retry_full;

  wire_msg_t msg;
  msg.kind = op_t::send;
  msg.src_rank = rank_;
  msg.imm = imm;
  msg.set_payload(buffer, size);
  // Wire span: opened here so its id travels with the message; a rejected
  // push ends it immediately (the retried post opens a fresh one). The tag
  // slot carries the source device index — routing pairs it with the target
  // rank's same-index device, so it doubles as the receive-side shard id for
  // trace_summary.py's per-shard breakdown.
  const trace::span_t wire_span =
      trace::begin(trace::kind_t::wire, peer_rank,
                   static_cast<uint32_t>(index_), size);
  msg.trace_id = wire_span.id;
  if (!route.target->wire_push(std::move(msg))) {
    trace::end(wire_span, trace::kind_t::wire, wire_err_rejected, peer_rank);
    return post_result_t::retry_full;
  }

  // Local completion: the source buffer was copied onto the wire, so it is
  // immediately reusable (RDMA send semantics).
  push_cqe(cqe_t{op_t::send, peer_rank, imm, size, nullptr, user_context});
  note_post();
  return post_result_t::ok;
}

void sim_device_t::push_notification(device_core_t* target, op_t kind,
                                     int peer_rank, std::size_t size,
                                     uint32_t imm) {
  wire_msg_t msg;
  msg.kind = kind;
  msg.src_rank = rank_;
  msg.imm = imm;
  msg.size = static_cast<uint32_t>(size);
  const trace::span_t wire_span =
      trace::begin(trace::kind_t::wire, peer_rank,
                   static_cast<uint32_t>(index_), size);
  msg.trace_id = wire_span.id;
  target->wire_push(std::move(msg), /*check_depth=*/false);
}

post_result_t sim_device_t::post_write(int peer_rank, const void* local,
                                       std::size_t size, mr_id_t remote_mr,
                                       std::size_t remote_offset, bool notify,
                                       uint32_t imm, void* user_context) {
  const auto gate = open_post(peer_rank);
  if (gate.result != post_result_t::ok) return gate.result;
  // Pinned until return: keeps the routed device (and its doorbell, rung by
  // wire_push after the push) alive across the notify delivery. A retry is
  // decided before the copy: a post that bounces must not have written
  // anything (its retry would write again, and a caller that gives up would
  // leave a write with no completion).
  device_registry_t::route_t route;
  if (notify) {
    route = sim_->route(peer_rank, context_, index_);
    if (route.target == nullptr || !route.target->wire_has_room())
      return post_result_t::retry_full;
  }
  char* remote = sim_->resolve_remote(peer_rank, remote_mr, remote_offset,
                                      size);  // throws on violation
  std::memcpy(remote, local, size);
  if (notify)
    push_notification(route.target, op_t::remote_write, peer_rank, size, imm);
  push_cqe(cqe_t{op_t::write, peer_rank, imm, size, nullptr, user_context});
  // The write CQE carries a completion the owner must dispatch; a sleeping
  // progress engine on this very device would otherwise only notice it at
  // the bounded-sleep timeout.
  ring_doorbell();
  note_post();
  return post_result_t::ok;
}

post_result_t sim_device_t::post_read(int peer_rank, void* local,
                                      std::size_t size, mr_id_t remote_mr,
                                      std::size_t remote_offset, bool notify,
                                      uint32_t imm, void* user_context) {
  const auto gate = open_post(peer_rank);
  if (gate.result != post_result_t::ok) return gate.result;
  // As in post_write, a retry is decided before the copy.
  device_registry_t::route_t route;
  if (notify) {
    route = sim_->route(peer_rank, context_, index_);
    if (route.target == nullptr || !route.target->wire_has_room())
      return post_result_t::retry_full;
  }
  const char* remote =
      sim_->resolve_remote(peer_rank, remote_mr, remote_offset, size);
  std::memcpy(local, remote, size);
  // "RDMA read with notification": the paper's interconnects lack it
  // (Sec. 4.3); the simulated fabric provides it as an extension.
  if (notify)
    push_notification(route.target, op_t::remote_read, peer_rank, size, imm);
  push_cqe(cqe_t{op_t::read, peer_rank, imm, size, nullptr, user_context});
  ring_doorbell();
  note_post();
  return post_result_t::ok;
}

}  // namespace lci::net::detail
