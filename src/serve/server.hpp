#pragma once

/// SpectrumServer — the line-oriented TCP shell around SpectrumService.
///
/// One thread runs the accept loop (serve(), blocking); each accepted
/// connection gets its own thread speaking the protocol in
/// docs/protocol.md: a command line (RUN / PING / STATS / QUIT), for
/// RUN a key=value body terminated by "END", and a streamed reply
/// (PROGRESS lines while a computation runs, then OK + payload, or one
/// ERR line), with Nagle off so each line leaves as it is written.
/// The accept loop joins finished connection threads as it
/// accepts new ones, so the daemon holds about as many threads as it
/// has open connections, however many it has served.
///
/// Shutdown is graceful by construction: request_stop() is
/// async-signal-safe (an atomic flag plus one write to a wake pipe), so
/// the daemon's SIGINT/SIGTERM handlers may call it directly.  The
/// accept loop wakes, stops accepting, and serve() joins every
/// connection thread — connections finish the request they are in the
/// middle of (journal flushes happen inside the run, per mode) and
/// close instead of reading the next one.

#include <atomic>
#include <cstdint>
#include <list>
#include <string>
#include <thread>

#include "serve/service.hpp"

namespace plinger::serve {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port (tests); port() has the
  /// real one once the constructor returns.
  std::uint16_t port = 0;
};

class SpectrumServer {
 public:
  /// Binds and listens (throws Error on any socket failure); serving
  /// starts with serve().  The service must outlive the server.
  SpectrumServer(SpectrumService& service, ServerOptions opts);
  ~SpectrumServer();

  SpectrumServer(const SpectrumServer&) = delete;
  SpectrumServer& operator=(const SpectrumServer&) = delete;

  /// The bound port (resolves port = 0 to the kernel's choice).
  std::uint16_t port() const { return port_; }

  /// Accept and serve connections until request_stop(); returns after
  /// every connection thread has drained and joined.
  void serve();

  /// Begin a graceful shutdown.  Async-signal-safe: an atomic store and
  /// one pipe write — callable from a signal handler.
  void request_stop() noexcept;

  bool stopping() const { return stopping_.load(); }

 private:
  /// One accepted connection's thread; `done` is its last act.
  struct Connection {
    std::atomic<bool> done{false};
    std::jthread thread;  ///< declared last: joined before `done` goes
  };

  void handle_connection(int fd);

  SpectrumService& service_;
  ServerOptions opts_;
  int listen_fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::list<Connection> connections_;  ///< touched by serve() only
};

}  // namespace plinger::serve
