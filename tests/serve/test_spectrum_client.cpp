// spectrum_client against a listener that reads the request and closes
// before the reply ends: a cut-off reply is connection trouble (exit 1
// with a message on stderr), never a clean exit.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace {

/// A loopback listener on an ephemeral port.
class Listener {
 public:
  Listener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ok_ = fd_ >= 0 &&
          ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof addr) == 0 &&
          ::listen(fd_, 1) == 0;
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~Listener() {
    if (fd_ >= 0) ::close(fd_);
  }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  bool ok() const { return ok_; }
  int port() const { return port_; }

  /// Accept one connection within the timeout; -1 if none came.
  int accept_one(int timeout_ms) const {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) return -1;
    return ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  }

 private:
  int fd_ = -1;
  int port_ = 0;
  bool ok_ = false;
};

/// Read from fd until `text` has arrived in full (with `text` empty:
/// until EOF), EOF, or a wait longer than the timeout.
std::string read_until(int fd, const std::string& text, int timeout_ms) {
  std::string got;
  while (text.empty() || got.find(text) == std::string::npos) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) break;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    got.append(chunk, static_cast<std::size_t>(n));
  }
  return got;
}

}  // namespace

TEST(SpectrumClient, CutOffReplyIsConnectionTrouble) {
  // Nothing at all, then a spectrum cut off after its first CL line:
  // neither ends with DONE, PONG or ERR, so both are exit 1.
  for (const std::string& reply :
       {std::string(), std::string("PROGRESS 1/4\nOK identity=0x0 "
                                   "tier=compute\nCL 2 1 0 0\n")}) {
    SCOPED_TRACE("reply '" + reply + "'");
    Listener listener;
    ASSERT_TRUE(listener.ok());
    int err[2];
    ASSERT_EQ(::pipe2(err, O_CLOEXEC), 0);
    const std::string port = std::to_string(listener.port());
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Only async-signal-safe calls between fork and exec.
      ::dup2(::open("/dev/null", O_WRONLY), 1);
      ::dup2(err[1], 2);
      ::execl(SPECTRUM_CLIENT_BIN, "spectrum_client", "--port",
              port.c_str(), "run", (char*)nullptr);
      ::_exit(127);
    }
    ::close(err[1]);

    // Read the whole request before closing: a close with unread bytes
    // would reset the connection instead of ending it.
    const int conn = listener.accept_one(30000);
    if (conn >= 0) {
      EXPECT_EQ(read_until(conn, "END\n", 30000), "RUN\nEND\n");
      if (!reply.empty()) {
        EXPECT_EQ(::write(conn, reply.data(), reply.size()),
                  static_cast<ssize_t>(reply.size()));
      }
      ::close(conn);
    } else {
      ADD_FAILURE() << "spectrum_client never connected";
      ::kill(pid, SIGKILL);
    }

    const std::string stderr_text = read_until(err[0], "", 30000);
    ::close(err[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 1) << stderr_text;
    EXPECT_EQ(stderr_text,
              "spectrum_client: connection closed before the reply ended\n");
  }
}
