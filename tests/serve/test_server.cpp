// SpectrumServer end-to-end tests over real sockets: the wire protocol
// (PING/RUN/STATS/QUIT, ERR replies with suggestions, PROGRESS
// streaming), Nagle off on every accepted connection, repeat-identity
// answers from the LRU, graceful shutdown draining an in-flight request
// to completion and ending idle connections, and finished connections
// giving their threads back.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "run/config.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace sv = plinger::serve;
namespace rn = plinger::run;

namespace {

const char* kFastBody =
    "n_k = 4\n"
    "k_max = 0.04\n"
    "lmax_photon = 24\n"
    "lmax_polarization = 8\n"
    "lmax_neutrino = 8\n"
    "driver = autotask\n"
    "workers = 2\n";

/// A blocking test client over one connection.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  /// This end's address: the peer address of the daemon's end.
  sockaddr_in local_address() const {
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    return addr;
  }

  void send_text(const std::string& text) {
    ASSERT_TRUE(try_send(text));
  }

  /// Send the whole text; false once the server has closed on us.
  bool try_send(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::send(fd_, text.data() + off, text.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Bound every later read: a reply that never comes reads as EOF.
  void set_receive_timeout(int seconds) {
    timeval tv{};
    tv.tv_sec = seconds;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

  /// Read one '\n'-terminated line (without the newline); "" on EOF.
  std::string read_line() {
    std::string::size_type nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return "";
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return line;
  }

  /// Read lines through the terminating "DONE" (inclusive), or a
  /// single-line reply (ERR/PONG/BYE).
  std::vector<std::string> read_reply() {
    std::vector<std::string> lines;
    for (;;) {
      const std::string line = read_line();
      if (line.empty()) break;  // EOF
      lines.push_back(line);
      if (line == "DONE" || line == "PONG" || line == "BYE" ||
          line.rfind("ERR ", 0) == 0) {
        break;
      }
    }
    return lines;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

/// A server on an ephemeral port with serve() running on its own
/// thread; joins on destruction.
class ServerFixture {
 public:
  explicit ServerFixture(sv::ServeOptions sopts = {},
                         sv::ServerOptions server_opts = {})
      : service_(std::move(sopts)),
        server_(service_, std::move(server_opts)),
        thread_([this] { server_.serve(); }) {}
  ~ServerFixture() {
    server_.request_stop();
    if (thread_.joinable()) thread_.join();
  }
  sv::SpectrumService& service() { return service_; }
  sv::SpectrumServer& server() { return server_; }
  std::uint16_t port() const { return server_.port(); }

 private:
  sv::SpectrumService service_;
  sv::SpectrumServer server_;
  std::thread thread_;
};

}  // namespace

TEST(SpectrumServer, PingStatsQuit) {
  // The name form of the loopback address binds as the numeric one does
  // (one host resolver for the daemon, the client and TcpWorld).
  for (const char* bind : {"127.0.0.1", "localhost"}) {
    SCOPED_TRACE(bind);
    sv::ServerOptions server_opts;
    server_opts.bind_address = bind;
    ServerFixture fx({}, server_opts);
    Client c(fx.port());
    ASSERT_TRUE(c.connected());

    c.send_text("PING\n");
    EXPECT_EQ(c.read_line(), "PONG");

    c.send_text("STATS\n");
    const auto stats = c.read_reply();
    ASSERT_FALSE(stats.empty());
    EXPECT_EQ(stats.front(), "STAT requests 0");
    EXPECT_EQ(stats.back(), "DONE");

    c.send_text("QUIT\n");
    EXPECT_EQ(c.read_line(), "BYE");
    EXPECT_EQ(c.read_line(), "");  // server closed the connection
  }
}

TEST(SpectrumServer, AcceptedConnectionsDisableNagle) {
  // Each reply line is its own write.  Under Nagle, a write behind an
  // unacknowledged one waits for the client's delayed ACK (about 40 ms),
  // so the daemon disables it on every connection it accepts.  Its end
  // of this connection is in this process: the socket among
  // /proc/self/fd whose local port is the daemon's and whose peer is
  // this client.
  ServerFixture fx;
  Client c(fx.port());
  ASSERT_TRUE(c.connected());
  c.send_text("PING\n");
  ASSERT_EQ(c.read_line(), "PONG");

  const sockaddr_in client = c.local_address();
  int found = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::stoi(entry.path().filename().string());
    sockaddr_in local{};
    socklen_t len = sizeof local;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) != 0 ||
        local.sin_family != AF_INET || ntohs(local.sin_port) != fx.port()) {
      continue;
    }
    sockaddr_in peer{};
    len = sizeof peer;
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0 ||
        peer.sin_port != client.sin_port ||
        peer.sin_addr.s_addr != client.sin_addr.s_addr) {
      continue;  // the listening socket has no peer
    }
    int nodelay = 0;
    socklen_t olen = sizeof nodelay;
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &olen),
              0);
    EXPECT_EQ(nodelay, 1) << "daemon fd " << fd;
    ++found;
  }
  EXPECT_EQ(found, 1);
}

TEST(SpectrumServer, RefusesABindThatIsNotAnAddress) {
  sv::SpectrumService service{sv::ServeOptions{}};
  for (const char* bind : {"example.org", "256.0.0.1", ""}) {
    sv::ServerOptions opts;
    opts.bind_address = bind;
    EXPECT_THROW({ sv::SpectrumServer server(service, opts); },
                 plinger::Error)
        << "bind '" << bind << "'";
  }
}

TEST(SpectrumServer, RunStreamsProgressThenSpectra) {
  ServerFixture fx;
  Client c(fx.port());
  ASSERT_TRUE(c.connected());

  c.send_text(std::string("RUN\n") + kFastBody + "END\n");
  const auto reply = c.read_reply();
  ASSERT_GE(reply.size(), 3u);

  // PROGRESS lines first, ending at 4/4, then the OK status line.
  std::size_t i = 0;
  while (i < reply.size() && reply[i].rfind("PROGRESS ", 0) == 0) ++i;
  EXPECT_GT(i, 0u);
  EXPECT_EQ(reply[i - 1], "PROGRESS 4/4");
  ASSERT_LT(i, reply.size());
  EXPECT_EQ(reply[i].rfind("OK identity=", 0), 0u);
  EXPECT_NE(reply[i].find("tier=compute"), std::string::npos);
  EXPECT_NE(reply[i].find("modes=4"), std::string::npos);
  EXPECT_EQ(reply.back(), "DONE");

  // CL lines for l = 2..l_max and the COBE factor in between.
  std::size_t n_cl = 0;
  bool cobe = false;
  for (std::size_t j = i + 1; j + 1 < reply.size(); ++j) {
    if (reply[j].rfind("CL ", 0) == 0) ++n_cl;
    if (reply[j].rfind("COBE ", 0) == 0) cobe = true;
  }
  EXPECT_EQ(n_cl, rn::RunConfig{}.l_max - 1);  // l = 2..300
  EXPECT_TRUE(cobe);

  // The repeat over the same connection: instant, no PROGRESS, same
  // payload, tier=lru.
  c.send_text(std::string("RUN\n") + kFastBody + "END\n");
  const auto warm = c.read_reply();
  ASSERT_GE(warm.size(), 2u);
  EXPECT_EQ(warm.front().rfind("OK identity=", 0), 0u);
  EXPECT_NE(warm.front().find("tier=lru"), std::string::npos);
  // Identical payloads after the OK line (reply also carries PROGRESS
  // lines before its OK line; compare the tails).
  const std::vector<std::string> cold_payload(reply.begin() + i + 1,
                                              reply.end());
  const std::vector<std::string> warm_payload(warm.begin() + 1,
                                              warm.end());
  EXPECT_EQ(cold_payload, warm_payload);
  EXPECT_EQ(fx.service().stats().computes, 1u);
}

TEST(SpectrumServer, BadRequestsGetErrReplies) {
  ServerFixture fx;
  Client c(fx.port());
  ASSERT_TRUE(c.connected());

  // Unknown command, with a suggestion.
  c.send_text("PNIG\n");
  std::string line = c.read_line();
  EXPECT_EQ(line.rfind("ERR unknown command", 0), 0u);
  EXPECT_NE(line.find("did you mean 'PING'"), std::string::npos);

  // Unknown config key, with the CLI's did-you-mean.
  c.send_text("RUN\nn_kk = 4\nEND\n");
  line = c.read_line();
  EXPECT_EQ(line.rfind("ERR unrecognized key 'n_kk'", 0), 0u);
  EXPECT_NE(line.find("did you mean 'n_k'"), std::string::npos);

  // Reserved key.
  c.send_text("RUN\nstore = hijack.pj\nEND\n");
  line = c.read_line();
  EXPECT_EQ(line.rfind("ERR key 'store' is reserved", 0), 0u);

  // A massive species with no density, refused naming the missing key
  // before any mode runs (one ERR line: the PONG below is the next).
  c.send_text("RUN\nn_massive_nu = 1\nEND\n");
  line = c.read_line();
  EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
  EXPECT_NE(line.find("omega_nu"), std::string::npos) << line;

  // A negative species count: one ERR naming the key.
  c.send_text("RUN\nn_massive_nu = -1\nEND\n");
  line = c.read_line();
  EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
  EXPECT_NE(line.find("n_massive_nu"), std::string::npos) << line;

  // The connection survives errors; nothing was computed or cached.
  c.send_text("PING\n");
  EXPECT_EQ(c.read_line(), "PONG");
  EXPECT_EQ(fx.service().stats().requests, 0u);
}

TEST(SpectrumServer, AnyExceptionOfOneRequestIsItsErrNotTheDaemons) {
  // A failure that is not a plinger::Error (here the compute hook's
  // std::runtime_error, in production std::bad_alloc) is that request's
  // ERR line; the connection and the daemon keep serving.
  std::atomic<int> throws_left{1};
  sv::ServeOptions sopts;
  sopts.on_compute = [&throws_left] {
    if (throws_left.fetch_sub(1) > 0) {
      throw std::runtime_error("hook failed once");
    }
  };
  ServerFixture fx(std::move(sopts));
  Client c(fx.port());
  ASSERT_TRUE(c.connected());

  const std::string run = std::string("RUN\n") + kFastBody + "END\n";
  c.send_text(run);
  const std::vector<std::string> failed = c.read_reply();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], "ERR hook failed once");

  c.send_text("PING\n");
  EXPECT_EQ(c.read_line(), "PONG");

  c.send_text(run);
  const std::vector<std::string> ok = c.read_reply();
  ASSERT_FALSE(ok.empty());
  EXPECT_EQ(ok.back(), "DONE");
  bool answered = false;
  for (const std::string& line : ok) answered |= line.rfind("OK ", 0) == 0;
  EXPECT_TRUE(answered);
}

TEST(SpectrumServer, FinishedConnectionsLetTheirThreadsGo) {
  // Each connection thread holds a stack (two mappings) until it is
  // joined.  Sequential clients must not leave one behind each: after
  // 300 PING/QUIT connections the process maps about what it did before,
  // not 600 lines more.
  const auto mapped = [] {
    std::ifstream maps("/proc/self/maps");
    std::size_t lines = 0;
    for (std::string line; std::getline(maps, line);) ++lines;
    return lines;
  };
  const auto ping_quit = [](std::uint16_t port) {
    Client c(port);
    ASSERT_TRUE(c.connected());
    c.send_text("PING\n");
    EXPECT_EQ(c.read_line(), "PONG");
    c.send_text("QUIT\n");
    EXPECT_EQ(c.read_line(), "BYE");
    EXPECT_EQ(c.read_line(), "");  // closed
  };
  ServerFixture fx;
  for (int i = 0; i < 5; ++i) ping_quit(fx.port());  // warm allocators
  const std::size_t before = mapped();
  for (int i = 0; i < 300; ++i) ping_quit(fx.port());
  const std::size_t after = mapped();
  EXPECT_LT(after, before + 100) << before << " -> " << after;
}

TEST(SpectrumServer, OverlongRequestsGetErrAndClose) {
  // One client must not grow the daemon's memory without bound: 1 MiB
  // with no newline, or a RUN body past the line cap, gets one ERR line
  // and the connection is closed.
  ServerFixture fx;
  std::string long_body = "RUN\n";
  for (int i = 0; i < 2000; ++i) long_body += "n_k = 4\n";
  for (const std::string& request :
       {std::string(1 << 20, 'x'), long_body}) {
    Client c(fx.port());
    ASSERT_TRUE(c.connected());
    c.set_receive_timeout(10);
    // The server stops reading mid-request, so send from another
    // thread: the send may fail once the server closes.
    std::thread sender([&c, &request] { (void)c.try_send(request); });
    const std::string line = c.read_line();
    EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
    EXPECT_EQ(c.read_line(), "");  // then EOF
    sender.join();
  }
  // The daemon still serves other clients.
  Client c(fx.port());
  c.send_text("PING\n");
  EXPECT_EQ(c.read_line(), "PONG");
}

TEST(SpectrumServer, GracefulStopDrainsInFlightRequests) {
  // Gate the computation so the shutdown provably arrives while a
  // request is in flight; the drained daemon must still answer it.
  sv::ServeOptions sopts;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> entered;
  std::atomic<bool> entered_once{false};
  sopts.on_compute = [&, released] {
    if (!entered_once.exchange(true)) entered.set_value();
    released.wait();
  };

  ServerFixture fx(std::move(sopts));
  Client c(fx.port());
  ASSERT_TRUE(c.connected());
  c.send_text(std::string("RUN\n") + kFastBody + "END\n");
  entered.get_future().wait();

  // Stop while the compute is held open: accepting ends (new
  // connections get nothing), the in-flight request keeps going.
  fx.server().request_stop();
  EXPECT_TRUE(fx.server().stopping());
  release.set_value();

  const auto reply = c.read_reply();
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply.back(), "DONE");
  bool saw_ok = false;
  for (const auto& l : reply) {
    if (l.rfind("OK identity=", 0) == 0) saw_ok = true;
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_EQ(fx.service().stats().computes, 1u);
  // The fixture's destructor joins serve(): returning at all proves the
  // drain completed.
}

TEST(SpectrumServer, StopEndsIdleConnections) {
  // A connection between requests has nothing to drain: the stop wakes
  // its wait, serve() returns although the client never hangs up, and
  // the client reads EOF.
  sv::SpectrumService service(sv::ServeOptions{});
  sv::SpectrumServer server(service, sv::ServerOptions{});
  std::thread serving([&server] { server.serve(); });
  Client c(server.port());
  EXPECT_TRUE(c.connected());  // not ASSERT: serving must still be joined
  c.send_text("PING\n");
  EXPECT_EQ(c.read_line(), "PONG");  // served, and now idle

  server.request_stop();
  serving.join();
  EXPECT_EQ(c.read_line(), "");  // EOF
}
