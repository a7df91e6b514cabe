#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "common/ensure.h"

namespace geored::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw SocketError(std::string(what) + ": " + std::strerror(errno));
}

/// Polls `fds` until one is ready (true) or `timeout_ms` expires (false); a
/// negative timeout waits without bound.
bool poll_ready(pollfd* fds, nfds_t count, int timeout_ms) {
  while (true) {
    const int ready = ::poll(fds, count, timeout_ms);
    if (ready > 0) return true;
    if (ready == 0) return false;
    if (errno == EINTR) continue;
    throw_errno("poll");
  }
}

/// Waits for `events` on `fd`. True when ready, false when the wait expired.
bool wait_for(int fd, short events, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  return poll_ready(&pfd, 1, timeout_ms);
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::send_all(const void* data, std::size_t len) {
  GEORED_ENSURE(valid(), "send_all on a closed socket");
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd_, bytes + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

IoStatus Socket::recv_exact(void* data, std::size_t len, int timeout_ms) {
  GEORED_ENSURE(valid(), "recv_exact on a closed socket");
  auto* bytes = static_cast<unsigned char*>(data);
  std::size_t received = 0;
  while (received < len) {
    // Each wait gets the full budget rather than a shrinking deadline — the
    // transport keeps wall-clock reads confined to the injected Clock, and a
    // peer trickling bytes is not the failure mode the timeout exists for.
    if (!wait_for(fd_, POLLIN, timeout_ms)) return IoStatus::kTimeout;
    const ssize_t n = ::recv(fd_, bytes + received, len - received, 0);
    if (n == 0) return IoStatus::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return IoStatus::kClosed;
      throw_errno("recv");
    }
    received += static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

void Socket::drain_until_closed(int timeout_ms) {
  GEORED_ENSURE(valid(), "drain_until_closed on a closed socket");
  unsigned char scratch[256];
  while (true) {
    if (!wait_for(fd_, POLLIN, timeout_ms)) return;  // held long enough
    const ssize_t n = ::recv(fd_, scratch, sizeof scratch, 0);
    if (n == 0) return;  // peer gave up and closed
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return;
      throw_errno("recv (drain)");
    }
  }
}

Listener::Listener() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket (listen)");
  const int reuse = 1;
  if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse) != 0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // kernel-assigned ephemeral port
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    throw_errno("bind");
  }
  if (::listen(fd_, SOMAXCONN) != 0) throw_errno("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  if (::pipe2(wake_, O_CLOEXEC | O_NONBLOCK) != 0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    throw_errno("pipe2 (wake)");
  }
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  for (const int fd : wake_) {
    if (fd >= 0) ::close(fd);
  }
}

void Listener::interrupt() noexcept {
  // The pipe is never drained, so one byte keeps the read end readable for
  // good. A full pipe (EAGAIN) is already readable; nothing else can fail on
  // a pipe whose read end this object still holds open.
  const unsigned char byte = 1;
  while (::write(wake_[1], &byte, 1) < 0 && errno == EINTR) {
  }
}

std::optional<Socket> Listener::accept(int timeout_ms) {
  GEORED_ENSURE(fd_ >= 0, "accept on a closed listener");
  pollfd pfds[2]{};
  pfds[0].fd = wake_[0];
  pfds[0].events = POLLIN;
  pfds[1].fd = fd_;
  pfds[1].events = POLLIN;
  if (!poll_ready(pfds, 2, timeout_ms)) return std::nullopt;
  // A pending interrupt wins over a pending client: stop means stop.
  if (pfds[0].revents != 0) return std::nullopt;
  while (true) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) return Socket(client);
    if (errno == EINTR) continue;
    // The peer can vanish between poll and accept; treat it like a timeout
    // so the accept loop keeps serving everyone else.
    if (errno == ECONNABORTED || errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("accept");
  }
}

Socket connect_local(std::uint16_t port, int timeout_ms) {
  GEORED_ENSURE(port != 0, "connect_local needs a concrete port");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket (connect)");
  Socket socket(fd);  // RAII from here on
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno == EINTR) continue;
    throw_errno("connect");
  }
  // Loopback connect() completes synchronously (the backlog accepts it), so
  // the timeout only bounds pathological cases; keep the parameter so a
  // future non-blocking connect can honor it without an API change.
  (void)timeout_ms;
  return socket;
}

}  // namespace geored::net
