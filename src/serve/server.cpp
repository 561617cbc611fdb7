#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "mp/tcp_world.hpp"
#include "serve/request.hpp"

namespace plinger::serve {

using mp::send_all;

namespace {

/// What the daemon buffers per client: a request line longer than
/// kMaxLineBytes, or a RUN body longer than kMaxBodyLines lines, gets
/// one ERR line and the connection is closed.
constexpr std::size_t kMaxLineBytes = 64 * 1024;
constexpr std::size_t kMaxBodyLines = 1024;

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Line-buffered reads over a polled socket.  next_line() returns false
/// on EOF/error and on a line past kMaxLineBytes (overlong() is then
/// set).  An idle connection waits on the daemon's wake pipe as well as
/// its socket, so a shutdown ends the wait: request_stop() writes the
/// pipe and nothing drains it, so it stays readable from then on.
class LineReader {
 public:
  LineReader(int fd, int wake_fd) : fd_(fd), wake_fd_(wake_fd) {}

  /// idle: true while the connection sits between requests — only then
  /// may a shutdown abandon the read.
  bool next_line(std::string& line, bool idle) {
    while (true) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos && nl <= kMaxLineBytes) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
      }
      if (nl != std::string::npos || buf_.size() > kMaxLineBytes) {
        overlong_ = true;
        return false;
      }
      struct pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
      const int pr = ::poll(fds, idle ? 2 : 1, -1);
      if (pr < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (idle && fds[1].revents != 0) return false;  // shutting down
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool overlong() const { return overlong_; }

 private:
  int fd_;
  int wake_fd_;
  std::string buf_;
  bool overlong_ = false;
};

}  // namespace

SpectrumServer::SpectrumServer(SpectrumService& service, ServerOptions opts)
    : service_(service), opts_(std::move(opts)) {
  sockaddr_in addr{};
  try {
    addr = mp::ipv4_address(opts_.bind_address, opts_.port);
  } catch (const InvalidArgument&) {
    throw Error("serve: bad bind address '" + opts_.bind_address + "'");
  }

  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw Error(std::string("serve: pipe2 failed: ") +
                std::strerror(errno));
  }
  wake_read_ = pipefd[0];
  wake_write_ = pipefd[1];

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    close_if_open(wake_read_);
    close_if_open(wake_write_);
    throw Error(std::string("serve: socket failed: ") +
                std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string why = std::strerror(errno);
    close_if_open(listen_fd_);
    close_if_open(wake_read_);
    close_if_open(wake_write_);
    throw Error("serve: cannot listen on " + opts_.bind_address + ":" +
                std::to_string(opts_.port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);
}

SpectrumServer::~SpectrumServer() {
  request_stop();
  close_if_open(listen_fd_);
  close_if_open(wake_read_);
  close_if_open(wake_write_);
}

void SpectrumServer::request_stop() noexcept {
  stopping_.store(true);
  if (wake_write_ >= 0) {
    const char x = 'x';
    // Best-effort, async-signal-safe wake; a full pipe already wakes.
    [[maybe_unused]] const ssize_t n = ::write(wake_write_, &x, 1);
  }
}

void SpectrumServer::serve() {
  while (!stopping_.load()) {
    struct pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                            {wake_read_, POLLIN, 0}};
    const int pr = ::poll(fds, 2, -1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // woken for shutdown
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int cfd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (cfd < 0) continue;
    // PROGRESS lines, the OK line and the payload are separate writes;
    // each leaves at once instead of waiting for the client's ACK.
    mp::set_nodelay(cfd);
    // Join the connections that have finished (erasing joins), so a
    // long-lived daemon does not keep one thread stack per connection
    // it ever served.
    std::erase_if(connections_,
                  [](const Connection& c) { return c.done.load(); });
    Connection& conn = connections_.emplace_back();
    conn.thread = std::jthread([this, cfd, &conn] {
      handle_connection(cfd);
      conn.done.store(true);
    });
  }
  // Drain: connections notice the wake pipe between requests, finish the
  // request in flight, and exit; joining them completes the shutdown.
  connections_.clear();
}

void SpectrumServer::handle_connection(int fd) {
  LineReader reader(fd, wake_read_);
  std::string line;
  bool body_overlong = false;
  while (reader.next_line(line, /*idle=*/true)) {
    std::vector<std::string> body;
    bool truncated = false;
    if (line == "RUN" || line == "RUN\r") {
      // Mid-request: keep reading even during shutdown so a request
      // already on the wire gets its answer (drain semantics).
      std::string body_line;
      while (true) {
        if (!reader.next_line(body_line, /*idle=*/false)) {
          truncated = true;
          break;
        }
        if (body_line == "END") break;
        if (body.size() == kMaxBodyLines) {
          body_overlong = true;
          break;
        }
        body.push_back(body_line);
      }
      if (truncated || body_overlong) break;
    }
    const RequestParse parsed = parse_request(line, body);
    if (!parsed.error.empty()) {
      if (!send_all(fd, "ERR " + parsed.error + "\n")) break;
      continue;
    }
    bool keep = true;
    switch (parsed.request.command) {
      case Command::ping:
        keep = send_all(fd, "PONG\n");
        break;
      case Command::quit:
        send_all(fd, "BYE\n");
        keep = false;
        break;
      case Command::stats: {
        const ServeStats s = service_.stats();
        std::string out;
        out += "STAT requests " + std::to_string(s.requests) + "\n";
        out += "STAT lru_hits " + std::to_string(s.lru_hits) + "\n";
        out += "STAT journal_hits " + std::to_string(s.journal_hits) + "\n";
        out += "STAT computes " + std::to_string(s.computes) + "\n";
        out += "STAT coalesced " + std::to_string(s.coalesced) + "\n";
        out += "STAT lru_size " + std::to_string(s.lru_size) + "\n";
        out += "STAT lru_bytes " + std::to_string(s.lru_bytes) + "\n";
        out += "STAT lru_evicted_bytes " +
               std::to_string(s.lru_evicted_bytes) + "\n";
        out += "STAT in_flight " + std::to_string(s.in_flight) + "\n";
        out += "DONE\n";
        keep = send_all(fd, out);
        break;
      }
      case Command::run: {
        // PROGRESS lines come from the driver's result sink, on
        // whichever thread lands a mode, numbered and sent under the
        // sink's lock; this thread is blocked inside answer() until the
        // last of them has been delivered, so the OK line and payload
        // never interleave with them.
        const ProgressFn progress = [fd](std::size_t done,
                                         std::size_t total) {
          send_all(fd, "PROGRESS " + std::to_string(done) + "/" +
                           std::to_string(total) + "\n");
        };
        try {
          const Answer answer =
              service_.answer(parsed.request.config, progress);
          keep = send_all(fd, render_response(answer));
        } catch (const std::exception& e) {
          // Any failure of one request (a typed Error, std::bad_alloc,
          // a hook's exception) is that request's ERR, never the
          // daemon's end.
          keep = send_all(fd, std::string("ERR ") + e.what() + "\n");
        }
        break;
      }
    }
    if (!keep) break;
  }
  if (reader.overlong()) {
    send_all(fd, "ERR request line exceeds " +
                     std::to_string(kMaxLineBytes) + " bytes\n");
  } else if (body_overlong) {
    send_all(fd, "ERR RUN body exceeds " + std::to_string(kMaxBodyLines) +
                     " lines\n");
  }
  ::close(fd);
}

}  // namespace plinger::serve
