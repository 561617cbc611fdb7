// spectrum_client: a minimal command-line client for spectrum_serve.
//
// Usage:
//   spectrum_client [--host ADDR] [--port N] ping
//   spectrum_client [--host ADDR] [--port N] stats
//   spectrum_client [--host ADDR] [--port N] run [params.ini]
//
// `run` sends the parameter file's key=value lines (RunConfig surface;
// defaults when omitted) and prints the streamed reply — PROGRESS lines
// while the daemon computes, then the OK status line and the CL table.
// Exits 0 on OK/PONG/DONE, 2 on an ERR reply, 1 on connection trouble
// (a daemon that closes before the reply ends included).

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "mp/tcp_world.hpp"

namespace {

int fail(const char* what) {
  std::fprintf(stderr, "spectrum_client: %s: %s\n", what,
               std::strerror(errno));
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 7201;
  std::string command;
  std::string params_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (command.empty()) {
      command = arg;
    } else if (command == "run" && params_path.empty()) {
      params_path = arg;
    } else {
      command.clear();
      break;
    }
  }
  if (command != "ping" && command != "stats" && command != "run") {
    std::fprintf(stderr,
                 "usage: %s [--host ADDR] [--port N] ping|stats|run "
                 "[params.ini]\n",
                 argv[0]);
    return 1;
  }

  std::string request;
  if (command == "ping") {
    request = "PING\n";
  } else if (command == "stats") {
    request = "STATS\n";
  } else {
    std::string body;
    if (!params_path.empty()) {
      std::ifstream in(params_path);
      if (!in.is_open()) {
        std::fprintf(stderr, "spectrum_client: cannot read %s\n",
                     params_path.c_str());
        return 1;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      body = ss.str();
      if (!body.empty() && body.back() != '\n') body += "\n";
    }
    request = "RUN\n" + body + "END\n";
  }

  sockaddr_in addr{};
  try {
    addr = plinger::mp::ipv4_address(host, port);
  } catch (const plinger::InvalidArgument&) {
    std::fprintf(stderr, "spectrum_client: bad host '%s'\n", host.c_str());
    return 1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return fail("connect");
  }
  if (!plinger::mp::send_all(fd, request)) {
    ::close(fd);
    return fail("send");
  }

  // Stream the reply line by line; single-line replies (PONG, ERR) and
  // DONE both terminate it.
  std::string buf;
  int rc = 0;
  bool finished = false;
  while (!finished) {
    std::string::size_type nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      std::printf("%s\n", line.c_str());
      if (line == "DONE" || line == "PONG" ||
          line.rfind("ERR ", 0) == 0) {
        rc = line.rfind("ERR ", 0) == 0 ? 2 : 0;
        finished = true;
        break;
      }
    }
    if (finished) break;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) {
      std::fprintf(stderr,
                   "spectrum_client: connection closed before the reply "
                   "ended\n");
      ::close(fd);
      return 1;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return fail("recv");
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return rc;
}
