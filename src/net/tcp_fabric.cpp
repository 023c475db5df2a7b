// TCP backend: a full mesh of loopback sockets, one per peer pair.
//
// Bootstrap: every rank listens on 127.0.0.1:<ephemeral> and publishes the
// port under key "tcp.<rank>". Rank r then connects to every rank lower than
// r (sending a 4-byte rank hello) and accepts one connection from every rank
// higher than r, so each pair meets exactly once. A final barrier keeps the
// listen sockets alive until the whole mesh exists.
//
// Framing is the shared frame protocol: the 56-byte header's leading
// payload_size word is the length prefix, frames are packed back to back on
// the stream. Egress copies the frame into a per-peer userspace staging
// queue (bounded at 1 MiB per peer) and flushes with sendmsg/writev in
// nonblocking mode — push_frame returns `full` only when the staging queue
// is at capacity and the socket will not drain, which feeds the generic
// retry machinery. Ingress is epoll-driven: pump() polls a level-triggered
// epoll with zero timeout, appends whatever the sockets hold to per-peer
// reassembly buffers, and dispatches every complete frame.
//
// Peer death is a transport event: EOF or ECONNRESET/EPIPE on a peer's
// socket marks it dead in the fabric's local ledger (the generic epoch sweep
// then purges). kill_rank can therefore only kill the calling rank — it
// shuts down every socket so all peers observe a hangup, exactly like a real
// crash. A second, edge-triggered epoll is watched by a listener thread that
// converts socket readability into device doorbell rings for sleeping
// progress engines.
#include "net/ep_common.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "net/bootstrap.hpp"

namespace lci::net::detail {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("tcp backend: " + what + ": " +
                           std::strerror(errno));
}

void set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
    sys_fail("fcntl(O_NONBLOCK)");
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Blocking read of exactly n bytes, bounded by a deadline (handshake only).
bool read_exact(int fd, void* buf, std::size_t n,
                std::chrono::steady_clock::time_point deadline) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    struct pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      continue;
    }
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

// Staged-egress cap per peer (1 MiB): a frame that cannot be staged while
// the socket will not drain bounces the post with `retry`.
constexpr std::size_t txbuf_cap = std::size_t{1} << 20;

class tcp_fabric_t final : public ep_fabric_t {
 public:
  tcp_fabric_t(int self_rank, int nranks, const config_t& config)
      : ep_fabric_t(self_rank, nranks, config),
        peers_(static_cast<std::size_t>(nranks)) {
    max_chunk_bytes_ = std::min(max_chunk_bytes_, txbuf_cap / 2);
    // A send frame must fit the staging queue whole once it drains; anything
    // larger would bounce with `full` forever (see max_send_payload()).
    max_send_payload_ = txbuf_cap - sizeof(frame_header_t);
    // Largest frame a well-behaved peer can emit (its sends are bounded by
    // its txbuf, its write/read chunks by max_chunk_bytes). Anything above
    // this on the wire is a corrupt length prefix, not a big message.
    rx_frame_limit_ = std::max(max_chunk_bytes_, txbuf_cap);
    poison_deadline_us_.reset(
        new std::atomic<uint64_t>[static_cast<std::size_t>(nranks)]);
    for (int r = 0; r < nranks; ++r)
      poison_deadline_us_[static_cast<std::size_t>(r)].store(
          0, std::memory_order_relaxed);
    // Transport-fault stream (reset / short-write): per-process, distinct
    // salt from the device streams so draws do not correlate.
    uint64_t mix = config.fault.seed;
    mix ^= util::splitmix64(mix) + static_cast<uint64_t>(self_rank);
    mix ^= util::splitmix64(mix) + 0xa5a5c3c3e1e10f0full;
    tfault_rng_ = util::xoshiro256_t(mix);
    connect_mesh();
    setup_epoll();
    start_listener();
    apply_kill_schedule();
  }

  ~tcp_fabric_t() override {
    stop_listener();
    flush_egress();
    for (auto& p : peers_)
      if (p.fd >= 0) ::close(p.fd);
    if (pump_epfd_ >= 0) ::close(pump_epfd_);
    if (wake_epfd_ >= 0) ::close(wake_epfd_);
    if (wake_eventfd_ >= 0) ::close(wake_eventfd_);
  }

  backend_t kind() const override { return backend_t::tcp; }

  bool kill_rank(int rank) override {
    if (rank < 0 || rank >= nranks_ || is_dead(rank)) return false;
    if (rank == self_) {
      // Self-kill: shut every socket down so all peers observe a hangup,
      // exactly like a real crash.
      for (int r = 0; r < nranks_; ++r)
        if (peers_[static_cast<std::size_t>(r)].fd >= 0)
          ::shutdown(peers_[static_cast<std::size_t>(r)].fd, SHUT_RDWR);
      mark_dead_local(self_);
      return true;
    }
    // Remote kill: order the victim to die with a poison frame — it shuts
    // its transport down and every peer observes the death organically. A
    // wedged victim that never reads the poison is covered by the local
    // fallback deadline (checked by the listener), so this rank converges
    // either way; other survivors converge via EOF or their own liveness
    // timeout.
    frame_header_t poison;
    poison.kind = static_cast<uint8_t>(frame_kind_t::poison);
    poison.src_rank = self_;
    if (push_frame(rank, poison, nullptr) == push_status_t::down) return false;
    const uint64_t fallback =
        std::max<uint64_t>(peer_timeout_us(), 1000000);  // >= 1s
    poison_deadline_us_[static_cast<std::size_t>(rank)].store(
        now_us() + fallback, std::memory_order_release);
    return true;
  }

  push_status_t push_frame(int peer, const frame_header_t& header,
                           const char* payload) override {
    peer_t& p = peers_[static_cast<std::size_t>(peer)];
    const std::size_t need = sizeof(frame_header_t) + header.payload_size;
    std::lock_guard<util::spinlock_t> guard(p.tx_lock);
    if (is_dead(peer)) return push_status_t::down;
    if (p.tx_bytes + need > txbuf_cap) {
      flush_tx_locked(peer, p);
      if (p.tx_bytes + need > txbuf_cap)
        return is_dead(peer) ? push_status_t::down : push_status_t::full;
    }
    std::vector<char> buf(need);
    std::memcpy(buf.data(), &header, sizeof(header));
    if (header.payload_size != 0)
      std::memcpy(buf.data() + sizeof(header), payload, header.payload_size);
    p.tx.push_back(std::move(buf));
    p.tx_bytes += need;
    flush_tx_locked(peer, p);
    return push_status_t::ok;
  }

  void pump(std::size_t burst) override {
    struct epoll_event events[64];
    const int n = ::epoll_wait(pump_epfd_, events, 64, 0);
    for (int i = 0; i < n; ++i) {
      const int peer = static_cast<int>(events[i].data.u32);
      drain_rx(peer, burst);
    }
    // A burst-limited parse can leave complete frames in a peer's rx staging
    // after the socket itself is empty — epoll will never report that peer
    // again, so the leftovers must be swept here, not on readiness.
    bool backlog = false;
    for (int r = 0; r < nranks_; ++r) {
      if (r == self_ || is_dead(r)) continue;
      peer_t& p = peers_[static_cast<std::size_t>(r)];
      if (p.rx_pos < p.rx.size()) backlog |= parse_rx(r, burst);
    }
    // Flush staged egress on every pump so a quiet receiver still sends.
    for (int r = 0; r < nranks_; ++r) {
      if (r == self_) continue;
      peer_t& p = peers_[static_cast<std::size_t>(r)];
      if (p.tx_bytes == 0) continue;
      std::lock_guard<util::spinlock_t> guard(p.tx_lock);
      flush_tx_locked(r, p);
    }
    // Deliverable frames remain: make sure a poller comes back for them even
    // if every progress thread was about to park on its doorbell.
    if (backlog) registry().ring_all();
  }

 protected:
  void on_peer_dead(int rank) override {
    // shutdown (not close): concurrent senders keep a valid fd and fail with
    // EPIPE instead of racing a reused descriptor. close happens in ~fabric.
    peer_t& p = peers_[static_cast<std::size_t>(rank)];
    if (p.fd >= 0) ::shutdown(p.fd, SHUT_RDWR);
    {
      std::lock_guard<util::spinlock_t> guard(p.tx_lock);
      p.tx.clear();
      p.tx_bytes = 0;
      p.tx_front_off = 0;
    }
    p.rx.clear();
    p.rx_pos = 0;
  }

 private:
  struct peer_t {
    int fd = -1;
    util::spinlock_t tx_lock;
    std::deque<std::vector<char>> tx;  // tx_lock guarded
    std::size_t tx_bytes = 0;          // tx_lock guarded
    std::size_t tx_front_off = 0;      // bytes of tx.front() already sent
    std::vector<char> rx;              // pump-lock guarded
    std::size_t rx_pos = 0;            // parse offset into rx
    bool hung_up = false;              // EOF read; death pending (pump lock)
  };

  // One draw from the per-process transport-fault stream.
  bool tfault_draw(double rate) {
    if (rate <= 0.0) return false;
    std::lock_guard<util::spinlock_t> guard(tfault_lock_);
    return tfault_rng_.uniform() < rate;
  }

  void flush_tx_locked(int peer, peer_t& p) {
    if (!p.tx.empty() && tfault_draw(config_.fault.tcp_reset_rate)) {
      // Injected connection reset: sever the pair link. This side declares
      // the peer dead; the peer observes EOF and declares us dead — both
      // sides exercise the organic connection-death path.
      ::shutdown(p.fd, SHUT_RDWR);
      mark_dead_local(peer);
      p.tx.clear();
      p.tx_bytes = 0;
      p.tx_front_off = 0;
      return;
    }
    while (!p.tx.empty()) {
      struct iovec iov[8];
      int iovcnt = 0;
      std::size_t off = p.tx_front_off;
      for (auto it = p.tx.begin(); it != p.tx.end() && iovcnt < 8; ++it) {
        iov[iovcnt].iov_base = it->data() + off;
        iov[iovcnt].iov_len = it->size() - off;
        ++iovcnt;
        off = 0;
      }
      bool injected_short = false;
      if (tfault_draw(config_.fault.tcp_short_write_rate)) {
        // Injected short write: hand the kernel only a prefix of the first
        // buffer, leaving a mid-frame partial in the staging queue — the
        // tx_front_off resume logic must reassemble it transparently.
        injected_short = true;
        iovcnt = 1;
        iov[0].iov_len = std::max<std::size_t>(1, iov[0].iov_len / 2);
      }
      struct msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
      const ssize_t sent = ::sendmsg(p.fd, &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        // EPIPE / ECONNRESET / EBADF after shutdown: the peer is gone.
        mark_dead_local(peer);
        p.tx.clear();
        p.tx_bytes = 0;
        p.tx_front_off = 0;
        return;
      }
      std::size_t left = static_cast<std::size_t>(sent);
      p.tx_bytes -= left;
      while (left > 0) {
        const std::size_t front_left = p.tx.front().size() - p.tx_front_off;
        if (left >= front_left) {
          left -= front_left;
          p.tx.pop_front();
          p.tx_front_off = 0;
        } else {
          p.tx_front_off += left;
          left = 0;
        }
      }
      if (injected_short) return;  // leave the tail for the next flush
    }
  }

  void drain_rx(int peer, std::size_t burst) {
    peer_t& p = peers_[static_cast<std::size_t>(peer)];
    if (p.fd < 0 || p.hung_up || is_dead(peer)) return;
    // Append everything the socket holds.
    bool gone = false;
    for (;;) {
      const std::size_t old = p.rx.size();
      p.rx.resize(old + 65536);
      const ssize_t got = ::recv(p.fd, p.rx.data() + old, 65536, MSG_DONTWAIT);
      if (got > 0) {
        p.rx.resize(old + static_cast<std::size_t>(got));
        if (got < 65536) break;
        continue;
      }
      p.rx.resize(old);
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got < 0 && errno == EINTR) continue;
      gone = true;  // EOF or hard error: the peer process is gone
      break;
    }
    // Frames that arrived before the hangup were sent by a live peer: they
    // are delivered, and only then is the peer marked dead.
    parse_rx(peer, gone ? SIZE_MAX : burst);
    if (gone) {
      p.hung_up = true;
      note_hangup(peer);
    }
  }

  // Exit flush: a post returns done once its frame is staged, so a rank
  // that finalizes right after its last send can still hold bytes here (a
  // short write leaves a frame's tail staged until the next pump). Push each
  // live peer's staging out before the sockets close, bounded by 1 s of
  // POLLOUT waits in all, so the peer reads whole frames and then EOF.
  void flush_egress() override {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    for (int r = 0; r < nranks_; ++r) {
      peer_t& p = peers_[static_cast<std::size_t>(r)];
      if (r == self_ || p.fd < 0) continue;
      std::lock_guard<util::spinlock_t> guard(p.tx_lock);
      while (p.tx_bytes != 0 && !is_dead(r) && !is_dead(self_)) {
        flush_tx_locked(r, p);
        if (p.tx_bytes == 0) break;
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) break;
        struct pollfd pfd{p.fd, POLLOUT, 0};
        ::poll(&pfd, 1, static_cast<int>(left.count()));
      }
    }
  }

  // Dispatches up to `burst` complete frames from the peer's rx staging.
  // Returns true when at least one complete frame is still waiting (the
  // caller must guarantee another pump visits this peer).
  bool parse_rx(int peer, std::size_t burst) {
    peer_t& p = peers_[static_cast<std::size_t>(peer)];
    std::size_t dispatched = 0;
    while (dispatched < burst &&
           p.rx.size() - p.rx_pos >= sizeof(frame_header_t)) {
      frame_header_t header;
      std::memcpy(&header, p.rx.data() + p.rx_pos, sizeof(header));
      if (header.payload_size > rx_frame_limit_) {
        // A length prefix no legitimate frame can carry means stream framing
        // is lost — unrecoverable on a byte stream. Kill the connection
        // rather than growing the reassembly buffer toward 4 GB waiting for
        // payload bytes that will never arrive.
        p.rx.clear();
        p.rx_pos = 0;
        mark_dead_local(peer);
        return false;
      }
      const std::size_t need = sizeof(frame_header_t) + header.payload_size;
      if (p.rx.size() - p.rx_pos < need) break;
      dispatch_frame(header, p.rx.data() + p.rx_pos + sizeof(header));
      p.rx_pos += need;
      ++dispatched;
    }
    bool more = false;
    if (p.rx.size() - p.rx_pos >= sizeof(frame_header_t)) {
      frame_header_t header;
      std::memcpy(&header, p.rx.data() + p.rx_pos, sizeof(header));
      more = p.rx.size() - p.rx_pos >=
             sizeof(frame_header_t) + header.payload_size;
    }
    if (p.rx_pos == p.rx.size()) {
      p.rx.clear();
      p.rx_pos = 0;
    } else if (p.rx_pos > 1 << 20) {
      p.rx.erase(p.rx.begin(),
                 p.rx.begin() + static_cast<std::ptrdiff_t>(p.rx_pos));
      p.rx_pos = 0;
    }
    return more;
  }

  void connect_mesh() {
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) sys_fail("socket(listen)");
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0)
      sys_fail("bind");
    if (::listen(listen_fd, nranks_) != 0) sys_fail("listen");
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                      &len) != 0)
      sys_fail("getsockname");
    bootstrap::put("tcp." + std::to_string(self_),
                   std::to_string(ntohs(addr.sin_port)));

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    // Connect to every lower rank, announcing who we are.
    for (int r = 0; r < self_; ++r) {
      const int port = std::atoi(
          bootstrap::get("tcp." + std::to_string(r), 30000, r).c_str());
      int fd = -1;
      for (;;) {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) sys_fail("socket(connect)");
        struct sockaddr_in peer{};
        peer.sin_family = AF_INET;
        peer.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        peer.sin_port = htons(static_cast<uint16_t>(port));
        if (::connect(fd, reinterpret_cast<struct sockaddr*>(&peer),
                      sizeof(peer)) == 0)
          break;
        ::close(fd);
        if (std::chrono::steady_clock::now() >= deadline)
          throw std::runtime_error("tcp backend: timeout connecting to rank " +
                                   std::to_string(r));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const int32_t hello = self_;
      if (::send(fd, &hello, sizeof(hello), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(sizeof(hello)))
        sys_fail("send(hello)");
      adopt(r, fd);
    }
    // Accept one connection from every higher rank.
    for (int pending = nranks_ - 1 - self_; pending > 0; --pending) {
      struct pollfd pfd{listen_fd, POLLIN, 0};
      while (::poll(&pfd, 1, 100) <= 0) {
        if (std::chrono::steady_clock::now() >= deadline)
          throw std::runtime_error(
              "tcp backend: timeout accepting peer connections");
      }
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) sys_fail("accept");
      int32_t hello = -1;
      if (!read_exact(fd, &hello, sizeof(hello), deadline) || hello <= self_ ||
          hello >= nranks_) {
        ::close(fd);
        throw std::runtime_error("tcp backend: bad hello from peer");
      }
      adopt(hello, fd);
    }
    bootstrap::barrier("tcp-mesh");
    ::close(listen_fd);
  }

  void adopt(int rank, int fd) {
    set_nodelay(fd);
    set_nonblock(fd);
    peers_[static_cast<std::size_t>(rank)].fd = fd;
  }

  void setup_epoll() {
    pump_epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_eventfd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (pump_epfd_ < 0 || wake_epfd_ < 0 || wake_eventfd_ < 0)
      sys_fail("epoll/eventfd setup");
    for (int r = 0; r < nranks_; ++r) {
      const int fd = peers_[static_cast<std::size_t>(r)].fd;
      if (fd < 0) continue;
      struct epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;  // level-triggered: pump consumes
      ev.data.u32 = static_cast<uint32_t>(r);
      if (::epoll_ctl(pump_epfd_, EPOLL_CTL_ADD, fd, &ev) != 0)
        sys_fail("epoll_ctl(pump)");
      ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;  // edge: listener only wakes
      if (::epoll_ctl(wake_epfd_, EPOLL_CTL_ADD, fd, &ev) != 0)
        sys_fail("epoll_ctl(wake)");
    }
    struct epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(-1);
    if (::epoll_ctl(wake_epfd_, EPOLL_CTL_ADD, wake_eventfd_, &ev) != 0)
      sys_fail("epoll_ctl(eventfd)");
  }

  // Converts socket readability into doorbell rings so progress engines that
  // sleep on their doorbell wake for incoming traffic. Edge-triggered (the
  // listener never reads the sockets); the periodic timeout also drives the
  // heartbeats and the poison deadlines. Staged egress is flushed by the
  // pump and by posts, not here.
  void start_listener() {
    listener_ = std::thread([this] {
      struct epoll_event events[16];
      const uint64_t timeout_us = peer_timeout_us();
      // With heartbeats on, wake often enough to ping and judge well inside
      // the timeout; the sweep's freeze grace handles our own stalls.
      int wait_ms = 200;
      if (timeout_us != 0)
        wait_ms = std::max(
            1, std::min(200, static_cast<int>(timeout_us / 4000)));
      uint64_t next_ping_us = 0;
      while (!listener_stop_.load(std::memory_order_acquire)) {
        const int n = ::epoll_wait(wake_epfd_, events, 16, wait_ms);
        if (listener_stop_.load(std::memory_order_acquire)) break;
        if (n > 0) {
          uint64_t junk;
          (void)::read(wake_eventfd_, &junk, sizeof(junk));
          // Socket readiness is proof of life for that socket's owner —
          // cheaper than waiting for the pump to dispatch its frames.
          for (int i = 0; i < n; ++i) {
            const uint32_t tag = events[i].data.u32;
            if (tag != static_cast<uint32_t>(-1))
              note_heard(static_cast<int>(tag));
          }
        }
        registry().ring_all();
        if (timeout_us != 0) {
          // Interval-gate the pings: the loop wakes on every socket edge, and
          // an arriving ping is itself an edge — ping-per-wakeup turns two
          // listeners into a ping storm at socket RTT rate.
          const uint64_t now = now_us();
          if (now >= next_ping_us) {
            for (int r = 0; r < nranks_; ++r)
              if (r != self_ && !is_dead(r)) send_ping(r);
            next_ping_us = now + std::max<uint64_t>(timeout_us / 4, 1000);
          }
          liveness_sweep();
        }
        check_poison_deadlines();
      }
    });
  }

  // A poisoned victim that never reads its poison (wedged) is declared dead
  // here when the fallback deadline passes.
  void check_poison_deadlines() {
    for (int r = 0; r < nranks_; ++r) {
      const uint64_t deadline =
          poison_deadline_us_[static_cast<std::size_t>(r)].load(
              std::memory_order_acquire);
      if (deadline == 0 || is_dead(r)) continue;
      if (now_us() >= deadline) mark_dead_local(r);
    }
  }

  void stop_listener() {
    listener_stop_.store(true, std::memory_order_release);
    const uint64_t one = 1;
    (void)::write(wake_eventfd_, &one, sizeof(one));
    if (listener_.joinable()) listener_.join();
  }

  std::size_t rx_frame_limit_ = 0;
  std::vector<peer_t> peers_;
  std::unique_ptr<std::atomic<uint64_t>[]> poison_deadline_us_;
  mutable util::spinlock_t tfault_lock_;
  util::xoshiro256_t tfault_rng_;  // tfault_lock_ guarded
  int pump_epfd_ = -1;
  int wake_epfd_ = -1;
  int wake_eventfd_ = -1;
  std::thread listener_;
  std::atomic<bool> listener_stop_{false};
};

}  // namespace

std::shared_ptr<fabric_t> create_tcp_fabric(int self_rank, int nranks,
                                            const config_t& config) {
  return std::make_shared<tcp_fabric_t>(self_rank, nranks, config);
}

}  // namespace lci::net::detail
