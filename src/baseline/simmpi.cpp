#include "baseline/simmpi.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <deque>
#include <list>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "core/lci.hpp"           // sim binding for the convenience ctor
#include "core/sim_internal.hpp"
#include "util/backoff.hpp"

namespace simmpi {
namespace detail {

namespace net = lci::net;

struct msg_header_t {
  enum kind_t : uint8_t { eager, rts, rtr };
  uint8_t kind = eager;
  int32_t tag = 0;
  uint32_t rdv_or_pending = 0;  // rts: sender rdv id; rtr: echoed rdv id
  uint32_t pending_id = 0;      // rtr: target pending id
  uint32_t mr_id = 0;           // rtr: target buffer registration
  uint64_t size = 0;            // rts: total message size
};

struct request_impl_t {
  // Written under the owning VCI's lock; read lock-free by test_nopoll
  // request sweeps (the "replicated request pool" polling pattern).
  std::atomic<bool> done{false};
  int source = ANY_SOURCE;
  int tag = ANY_TAG;
  std::size_t count = 0;
  // receive bookkeeping
  void* buffer = nullptr;
  std::size_t capacity = 0;
  int want_src = ANY_SOURCE;
  int want_tag = ANY_TAG;
  vci_t* vci = nullptr;
};

struct unexpected_t {
  msg_header_t header;
  int src = 0;
  std::vector<char> payload;  // eager payload (owned copy)
};

struct pending_send_t {
  request_impl_t* request = nullptr;
  const void* buffer = nullptr;
  std::size_t size = 0;
};

struct pending_recv_t {
  request_impl_t* request = nullptr;
  net::mr_id_t mr = net::invalid_mr;
};

struct vci_t {
  // THE lock: MPI's global critical section (replicated per VCI).
  std::mutex big_lock;

  std::unique_ptr<net::device_t> device;
  net::context_t* context = nullptr;
  std::size_t eager_threshold = 16384;
  std::size_t prepost_target = 256;

  std::vector<std::unique_ptr<char[]>> buffer_storage;
  std::deque<char*> free_buffers;

  // Centralized ordered matching structures.
  std::list<request_impl_t*> posted_recvs;
  std::list<unexpected_t> unexpected;

  std::unordered_map<uint32_t, pending_send_t> pending_sends;
  std::unordered_map<uint32_t, pending_recv_t> pending_recvs;
  uint32_t next_id = 1;

  std::size_t buffer_size() const {
    return eager_threshold + sizeof(msg_header_t);
  }

  char* get_buffer() {
    if (free_buffers.empty()) {
      buffer_storage.push_back(std::make_unique<char[]>(buffer_size()));
      return buffer_storage.back().get();
    }
    char* buf = free_buffers.back();
    free_buffers.pop_back();
    return buf;
  }
  void put_buffer(char* buf) { free_buffers.push_back(buf); }

  void replenish() {
    while (device->preposted_recvs() < prepost_target) {
      char* buf = get_buffer();
      if (device->post_recv(buf, buffer_size(), buf) !=
          net::post_result_t::ok) {
        put_buffer(buf);
        break;
      }
    }
  }

  // Posts a network send, spinning through local progress until the fabric
  // accepts it (MPI may block inside any call). A dead destination can never
  // accept, so peer_down aborts instead of spinning — the MPI model has no
  // per-operation failure reporting (cf. MPI_ERRORS_ARE_FATAL).
  void post_send_blocking(int dst, const void* data, std::size_t size) {
    lci::util::backoff_t backoff;
    net::post_result_t result;
    while ((result = device->post_send(dst, data, size, 0, nullptr)) !=
           net::post_result_t::ok) {
      if (result == net::post_result_t::peer_down)
        throw std::runtime_error("simmpi: send to a dead rank");
      progress_locked();
      backoff.spin();
    }
  }

  void post_write_blocking(int dst, const void* src, std::size_t size,
                           net::mr_id_t mr, uint32_t imm, void* ctx) {
    lci::util::backoff_t backoff;
    net::post_result_t result;
    while ((result = device->post_write(dst, src, size, mr, 0, true, imm,
                                        ctx)) != net::post_result_t::ok) {
      if (result == net::post_result_t::peer_down)
        throw std::runtime_error("simmpi: RDMA write to a dead rank");
      progress_locked();
      backoff.spin();
    }
  }

  bool matches(const request_impl_t* req, int src, int tag) const {
    return (req->want_src == ANY_SOURCE || req->want_src == src) &&
           (req->want_tag == ANY_TAG || req->want_tag == tag);
  }

  void complete_recv(request_impl_t* req, int src, int tag, const char* data,
                     std::size_t size) {
    assert(size <= req->capacity && "message longer than the receive buffer");
    std::memcpy(req->buffer, data, size);
    req->source = src;
    req->tag = tag;
    req->count = size;
    req->done.store(true, std::memory_order_release);
  }

  void start_rendezvous(request_impl_t* req, int src,
                        const msg_header_t& rts) {
    assert(rts.size <= req->capacity);
    const net::mr_id_t mr = context->register_memory(
        req->buffer, static_cast<std::size_t>(rts.size));
    const uint32_t pid = next_id++;
    pending_recvs.emplace(pid, pending_recv_t{req, mr});
    msg_header_t rtr;
    rtr.kind = msg_header_t::rtr;
    rtr.tag = rts.tag;
    rtr.rdv_or_pending = rts.rdv_or_pending;
    rtr.pending_id = pid;
    rtr.mr_id = mr;
    req->source = src;
    req->tag = rts.tag;
    req->count = static_cast<std::size_t>(rts.size);
    post_send_blocking(src, &rtr, sizeof(rtr));
  }

  // Caller holds big_lock.
  void progress_locked() {
    net::cqe_t cqes[16];
    const auto polled = device->poll_cq(cqes, 16);
    for (std::size_t i = 0; i < polled.count; ++i) handle(cqes[i]);
    replenish();
  }

  void handle(const net::cqe_t& cqe) {
    switch (cqe.op) {
      case net::op_t::send:
        return;
      case net::op_t::recv: {
        char* buf = static_cast<char*>(cqe.user_context);
        msg_header_t header;
        std::memcpy(&header, buf, sizeof(header));
        const char* data = buf + sizeof(header);
        const std::size_t data_size = cqe.length - sizeof(header);
        if (header.kind == msg_header_t::rtr) {
          auto it = pending_sends.find(header.rdv_or_pending);
          assert(it != pending_sends.end());
          pending_send_t pending = it->second;
          pending_sends.erase(it);
          post_write_blocking(cqe.peer_rank, pending.buffer, pending.size,
                              header.mr_id, header.pending_id,
                              pending.request);
        } else {
          // Ordered matching: first satisfiable posted receive wins.
          request_impl_t* matched = nullptr;
          for (auto it = posted_recvs.begin(); it != posted_recvs.end();
               ++it) {
            if (matches(*it, cqe.peer_rank, header.tag)) {
              matched = *it;
              posted_recvs.erase(it);
              break;
            }
          }
          if (matched != nullptr) {
            if (header.kind == msg_header_t::eager)
              complete_recv(matched, cqe.peer_rank, header.tag, data,
                            data_size);
            else
              start_rendezvous(matched, cqe.peer_rank, header);
          } else {
            unexpected_t u;
            u.header = header;
            u.src = cqe.peer_rank;
            if (header.kind == msg_header_t::eager)
              u.payload.assign(data, data + data_size);
            unexpected.push_back(std::move(u));
          }
        }
        put_buffer(buf);
        return;
      }
      case net::op_t::write: {
        // Rendezvous data landed: the sender's request completes.
        auto* req = static_cast<request_impl_t*>(cqe.user_context);
        if (req != nullptr) req->done.store(true, std::memory_order_release);
        return;
      }
      case net::op_t::remote_write: {
        auto it = pending_recvs.find(cqe.imm);
        assert(it != pending_recvs.end());
        pending_recv_t pending = it->second;
        pending_recvs.erase(it);
        context->deregister_memory(pending.mr);
        pending.request->done.store(true, std::memory_order_release);
        return;
      }
      default:
        return;
    }
  }
};

}  // namespace detail

engine_t::engine_t(std::shared_ptr<lci::net::fabric_t> fabric, int rank,
                   const config_t& config)
    : fabric_(std::move(fabric)),
      context_(fabric_->create_context(rank)),
      rank_(rank),
      nranks_(fabric_->nranks()),
      config_(config) {
  if (config_.nvci < 1) config_.nvci = 1;
  for (int v = 0; v < config_.nvci; ++v) {
    auto vci = std::make_unique<detail::vci_t>();
    vci->device = context_->create_device();
    vci->context = context_.get();
    vci->eager_threshold = config_.eager_threshold;
    vci->prepost_target = config_.prepost_depth;
    {
      std::lock_guard<std::mutex> guard(vci->big_lock);
      vci->replenish();
    }
    vcis_.push_back(std::move(vci));
  }
}

namespace {
lci::sim::binding_t require_binding() {
  auto binding = lci::sim::current_binding();
  if (!binding)
    throw std::runtime_error("simmpi: thread has no sim rank binding");
  return binding;
}
}  // namespace

engine_t::engine_t(const config_t& config)
    : engine_t(require_binding()->fabric, require_binding()->rank, config) {}

engine_t::~engine_t() = default;

request_t engine_t::isend(const void* buffer, std::size_t size, int dst,
                          int tag) {
  detail::vci_t& vci = *vcis_[static_cast<std::size_t>(vci_of_tag(tag))];
  std::lock_guard<std::mutex> guard(vci.big_lock);
  auto* req = new detail::request_impl_t;
  req->vci = &vci;
  if (size <= vci.eager_threshold) {
    // Eager: stage header+payload and hand it to the fabric; the payload is
    // buffered, so the request completes immediately.
    char* staging = vci.get_buffer();
    detail::msg_header_t header;
    header.kind = detail::msg_header_t::eager;
    header.tag = tag;
    std::memcpy(staging, &header, sizeof(header));
    std::memcpy(staging + sizeof(header), buffer, size);
    vci.post_send_blocking(dst, staging, sizeof(header) + size);
    vci.put_buffer(staging);
    req->done.store(true, std::memory_order_release);
    req->count = size;
  } else {
    detail::msg_header_t rts;
    rts.kind = detail::msg_header_t::rts;
    rts.tag = tag;
    rts.size = size;
    rts.rdv_or_pending = vci.next_id++;
    vci.pending_sends.emplace(rts.rdv_or_pending,
                              detail::pending_send_t{req, buffer, size});
    vci.post_send_blocking(dst, &rts, sizeof(rts));
  }
  return req;
}

request_t engine_t::irecv(void* buffer, std::size_t size, int src, int tag) {
  if (tag == ANY_TAG && nvci() > 1)
    throw std::runtime_error("simmpi: ANY_TAG requires a single VCI");
  detail::vci_t& vci = *vcis_[static_cast<std::size_t>(vci_of_tag(tag))];
  std::lock_guard<std::mutex> guard(vci.big_lock);
  auto* req = new detail::request_impl_t;
  req->vci = &vci;
  req->buffer = buffer;
  req->capacity = size;
  req->want_src = src;
  req->want_tag = tag;
  // Ordered matching against the unexpected queue first.
  for (auto it = vci.unexpected.begin(); it != vci.unexpected.end(); ++it) {
    if ((src == ANY_SOURCE || src == it->src) &&
        (tag == ANY_TAG || tag == it->header.tag)) {
      detail::unexpected_t u = std::move(*it);
      vci.unexpected.erase(it);
      if (u.header.kind == detail::msg_header_t::eager)
        vci.complete_recv(req, u.src, u.header.tag, u.payload.data(),
                          u.payload.size());
      else
        vci.start_rendezvous(req, u.src, u.header);
      return req;
    }
  }
  vci.posted_recvs.push_back(req);
  return req;
}

namespace {
bool finish_test(detail::request_impl_t* request, status_t* status) {
  if (!request->done.load(std::memory_order_acquire)) return false;
  if (status != nullptr) {
    status->source = request->source;
    status->tag = request->tag;
    status->count = request->count;
  }
  delete request;
  return true;
}
}  // namespace

bool engine_t::test(request_t request, status_t* status) {
  detail::vci_t& vci = *request->vci;
  std::lock_guard<std::mutex> guard(vci.big_lock);
  vci.progress_locked();  // progress as a side effect (MPI semantics)
  return finish_test(request, status);
}

bool engine_t::test_nopoll(request_t request, status_t* status) {
  // Lock-free fast path; only completed requests touch the lock (to retire
  // under the same serialization the progress engine uses).
  if (!request->done.load(std::memory_order_acquire)) return false;
  detail::vci_t& vci = *request->vci;
  std::lock_guard<std::mutex> guard(vci.big_lock);
  return finish_test(request, status);
}

bool engine_t::cancel_recv(request_t request) {
  detail::vci_t& vci = *request->vci;
  std::lock_guard<std::mutex> guard(vci.big_lock);
  auto it = std::find(vci.posted_recvs.begin(), vci.posted_recvs.end(),
                      request);
  if (it == vci.posted_recvs.end()) return false;
  vci.posted_recvs.erase(it);
  delete request;
  return true;
}

void engine_t::wait(request_t request, status_t* status) {
  lci::util::backoff_t backoff;
  while (!test(request, status)) backoff.spin();
}

void engine_t::send(const void* buffer, std::size_t size, int dst, int tag) {
  wait(isend(buffer, size, dst, tag));
}

void engine_t::recv(void* buffer, std::size_t size, int src, int tag,
                    status_t* status) {
  wait(irecv(buffer, size, src, tag), status);
}

void engine_t::progress() {
  for (auto& vci : vcis_) {
    std::lock_guard<std::mutex> guard(vci->big_lock);
    vci->progress_locked();
  }
}

void engine_t::progress_vci(int index) {
  auto& vci = *vcis_[static_cast<std::size_t>(index)];
  std::lock_guard<std::mutex> guard(vci.big_lock);
  vci.progress_locked();
}

}  // namespace simmpi
