// Minimal blocking TCP sockets over localhost: the real transport under the
// RPC-backed summary collector.
//
// Scope is deliberately small — RAII file descriptors, exact-length send and
// receive with poll()-bounded waits, and an ephemeral-port listener bound to
// 127.0.0.1. No readiness loops, no buffers, no portability shims: callers
// block on the deterministic ThreadPool (or a dedicated server thread) and
// the kernel does the queueing. Hard I/O errors throw SocketError; orderly
// peer shutdown and expired waits are ordinary IoStatus results, because the
// fault-tolerant collector treats them as routine.
//
// Thread compatibility (deliberately NOT thread safety): a Socket or
// Listener is a single-owner resource with no internal locking — exactly
// one thread may use an instance at a time, and ownership transfer (handing
// an accepted Socket to a handler thread) is the supported way to move one
// between threads. The single documented exception is
// Listener::interrupt(), which any thread may call at any time: it only
// writes a byte into the listener's wake pipe, whose descriptors are fixed
// at construction, so it touches no state the owning thread mutates. This
// is why the classes carry no capability annotations from common/sync.h:
// there is no shared state to guard, and adding a mutex here would paper
// over an ownership bug rather than fix it. Concurrent use of *distinct*
// instances is always safe. The RPC layer upholds the contract
// structurally: each fetch owns its client socket, each server handler
// thread owns the accepted connection it was moved, and the server's
// accept thread owns the listener until the destructor interrupts it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>

namespace geored::net {

/// Raised on unexpected transport failures (socket syscalls failing for
/// reasons other than a peer closing or a wait timing out).
class SocketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Outcome of a bounded receive.
enum class IoStatus {
  kOk,       ///< every requested byte arrived
  kClosed,   ///< the peer closed before (or while) the bytes arrived
  kTimeout,  ///< the wait expired first
};

/// A connected TCP stream socket (move-only RAII fd).
class Socket {
 public:
  Socket() = default;
  /// Adopts an already-connected file descriptor.
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Writes exactly `len` bytes. Throws SocketError if the peer resets the
  /// connection or any other send failure occurs.
  void send_all(const void* data, std::size_t len);

  /// Reads exactly `len` bytes unless the peer closes (kClosed) or no data
  /// becomes readable within `timeout_ms` of waiting (kTimeout); both leave
  /// any partial bytes in `data` and the stream unusable for framing.
  IoStatus recv_exact(void* data, std::size_t len, int timeout_ms);

  /// Discards inbound bytes until the peer closes or `timeout_ms` of
  /// waiting expires — how a server holds a connection open without ever
  /// answering (the transport-level picture of a dropped response).
  void drain_until_closed(int timeout_ms);

 private:
  int fd_ = -1;
};

/// A listening socket bound to an ephemeral 127.0.0.1 port, plus a wake
/// pipe polled beside it so another thread can end a blocked accept().
class Listener {
 public:
  Listener();
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The kernel-assigned port clients connect_local() to.
  std::uint16_t port() const { return port_; }

  /// Accepts one connection, waiting at most `timeout_ms` (negative: no
  /// bound). nullopt when the wait expires, when the peer vanished before
  /// the accept, or — at once — when interrupt() has been called.
  std::optional<Socket> accept(int timeout_ms);

  /// Makes a blocked accept(), and every later one, return nullopt at once.
  /// Idempotent, and the one call that is safe from any thread while the
  /// owner is inside accept().
  void interrupt() noexcept;

 private:
  int fd_ = -1;
  /// Self-pipe: interrupt() writes [1]; accept() polls [0], never drains it.
  int wake_[2] = {-1, -1};
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:`port`, waiting at most `timeout_ms` for the
/// connection to be accepted. Throws SocketError on failure.
Socket connect_local(std::uint16_t port, int timeout_ms);

}  // namespace geored::net
