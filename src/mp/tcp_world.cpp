#include "mp/tcp_world.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "store/crc32.hpp"

namespace plinger::mp {

// The frame payload is raw binary64 — single-byte-order wire format,
// like the store journal and the unit_2 stream it extends.
static_assert(std::endian::native == std::endian::little,
              "tcp_world: the wire grammar is little-endian");
static_assert(sizeof(double) == 8, "tcp_world: binary64 doubles required");

namespace {

void put_u32(std::vector<unsigned char>& b, std::uint32_t v) {
  b.push_back(static_cast<unsigned char>(v & 0xFFu));
  b.push_back(static_cast<unsigned char>((v >> 8) & 0xFFu));
  b.push_back(static_cast<unsigned char>((v >> 16) & 0xFFu));
  b.push_back(static_cast<unsigned char>((v >> 24) & 0xFFu));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Read exactly n bytes from fd before the deadline; false on timeout,
/// EOF, or a read error.
bool read_exact(int fd, unsigned char* out, std::size_t n,
                std::chrono::steady_clock::time_point deadline) {
  std::size_t got = 0;
  while (got < n) {
    const double left = std::chrono::duration<double>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
    if (left <= 0.0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int pr =
        ::poll(&pfd, 1, static_cast<int>(std::ceil(left * 1000.0)));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) return false;
    const ssize_t k = ::read(fd, out + got, n - got);
    if (k == 0) return false;  // EOF mid-frame
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(k);
  }
  return true;
}

/// Blocking read of one frame from a raw fd (rendezvous only; after the
/// handshake the receiver thread owns the stream).  Reads byte-exactly —
/// header, then exactly the announced payload — so it can never consume
/// bytes of a frame that follows the handshake on the same stream (the
/// master's tag-1 broadcast can be right behind the WELCOME).  Returns
/// nullopt on timeout or EOF; throws ProtocolError on a malformed
/// stream.
std::optional<Frame> read_frame_fd(int fd, double timeout_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  std::vector<unsigned char> bytes(kFrameHeaderBytes);
  if (!read_exact(fd, bytes.data(), bytes.size(), deadline)) {
    return std::nullopt;
  }
  // The parser re-validates everything; length and magic are checked
  // here first because the payload read must trust the length field.
  if (!std::equal(kFrameMagic.begin(), kFrameMagic.end(), bytes.begin())) {
    throw ProtocolError("tcp: bad frame magic during rendezvous");
  }
  const std::uint32_t n_doubles = get_u32(&bytes[4]);
  if (n_doubles > kMaxFrameDoubles) {
    throw ProtocolError("tcp: oversized frame during rendezvous");
  }
  const std::size_t payload_bytes = std::size_t{n_doubles} * sizeof(double);
  bytes.resize(kFrameHeaderBytes + payload_bytes);
  if (payload_bytes > 0 &&
      !read_exact(fd, bytes.data() + kFrameHeaderBytes, payload_bytes,
                  deadline)) {
    return std::nullopt;
  }
  FrameParser parser;
  parser.feed(bytes);
  return parser.next();  // full CRC validation
}

}  // namespace

std::vector<unsigned char> encode_frame(int tag, int source,
                                        std::span<const double> payload) {
  PLINGER_REQUIRE(payload.size() <= kMaxFrameDoubles,
                  "encode_frame: payload exceeds kMaxFrameDoubles");
  std::vector<unsigned char> out;
  out.reserve(kFrameHeaderBytes + payload.size() * sizeof(double));
  out.insert(out.end(), kFrameMagic.begin(), kFrameMagic.end());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, static_cast<std::uint32_t>(tag));
  put_u32(out, static_cast<std::uint32_t>(source));
  put_u32(out, 0);  // CRC slot, patched below
  const std::size_t payload_off = out.size();
  out.resize(out.size() + payload.size() * sizeof(double));
  if (!payload.empty()) {
    std::memcpy(out.data() + payload_off, payload.data(),
                payload.size() * sizeof(double));
  }
  // CRC over the header sans its own slot, continued over the payload.
  std::uint32_t crc = store::crc32({out.data(), 16});
  crc = store::crc32(
      {out.data() + payload_off, payload.size() * sizeof(double)}, crc);
  out[16] = static_cast<unsigned char>(crc & 0xFFu);
  out[17] = static_cast<unsigned char>((crc >> 8) & 0xFFu);
  out[18] = static_cast<unsigned char>((crc >> 16) & 0xFFu);
  out[19] = static_cast<unsigned char>((crc >> 24) & 0xFFu);
  return out;
}

void FrameParser::feed(std::span<const unsigned char> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameParser::next() {
  if (buffered_bytes() < kFrameHeaderBytes) return std::nullopt;
  const unsigned char* h = buf_.data() + pos_;
  if (std::memcmp(h, kFrameMagic.data(), kFrameMagic.size()) != 0) {
    throw ProtocolError("tcp frame: bad magic");
  }
  const std::uint32_t n_doubles = get_u32(h + 4);
  if (n_doubles > kMaxFrameDoubles) {
    throw ProtocolError("tcp frame: length " + std::to_string(n_doubles) +
                        " exceeds the frame ceiling");
  }
  const std::size_t total =
      kFrameHeaderBytes + static_cast<std::size_t>(n_doubles) * sizeof(double);
  if (buffered_bytes() < total) return std::nullopt;
  std::uint32_t crc = store::crc32({h, 16});
  crc = store::crc32({h + kFrameHeaderBytes,
                      static_cast<std::size_t>(n_doubles) * sizeof(double)},
                     crc);
  if (crc != get_u32(h + 16)) {
    throw ProtocolError("tcp frame: CRC mismatch");
  }
  Frame f;
  f.tag = static_cast<int>(get_u32(h + 8));
  f.source = static_cast<int>(get_u32(h + 12));
  f.payload.resize(n_doubles);
  if (n_doubles > 0) {
    std::memcpy(f.payload.data(), h + kFrameHeaderBytes,
                static_cast<std::size_t>(n_doubles) * sizeof(double));
  }
  pos_ += total;
  if (pos_ > (1u << 16) && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return f;
}

bool send_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in ipv4_address(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  PLINGER_REQUIRE(
      ::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) == 1,
      "tcp: not an IPv4 address: '" + host + "'");
  return addr;
}

TcpEndpoint parse_endpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  PLINGER_REQUIRE(colon != std::string::npos && colon > 0 &&
                      colon + 1 < text.size(),
                  "tcp endpoint: expected host:port, got '" + text + "'");
  TcpEndpoint ep;
  ep.host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  std::size_t used = 0;
  int port = 0;
  try {
    port = std::stoi(port_text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  PLINGER_REQUIRE(used == port_text.size() && port >= 0 && port <= 65535,
                  "tcp endpoint: bad port in '" + text + "'");
  ep.port = port;
  return ep;
}

TcpWorld::TcpWorld(int nprocs, int local_rank)
    : InProcWorld(nprocs), local_rank_(local_rank) {
  peers_.resize(static_cast<std::size_t>(nprocs));
}

std::unique_ptr<TcpWorld> TcpWorld::listen(const std::string& host,
                                           int port, int n_workers) {
  PLINGER_REQUIRE(n_workers >= 1, "TcpWorld::listen: need >= 1 worker");
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  PLINGER_REQUIRE(fd >= 0, "TcpWorld::listen: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = ipv4_address(host, port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw Error("TcpWorld::listen: cannot listen on " + host + ":" +
                std::to_string(port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);

  std::unique_ptr<TcpWorld> w(new TcpWorld(n_workers + 1, 0));
  w->listen_fd_ = fd;
  w->port_ = static_cast<int>(ntohs(bound.sin_port));
  return w;
}

int TcpWorld::accept_workers(double timeout_seconds) {
  PLINGER_REQUIRE(local_rank_ == 0 && listen_fd_ >= 0,
                  "accept_workers: not a listening master world");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  const int n_workers = size() - 1;
  int connected = 0;
  for (int r = 1; r <= n_workers; ++r) {
    if (peers_[static_cast<std::size_t>(r)]) ++connected;  // re-entry
  }
  while (connected < n_workers) {
    const double left = std::chrono::duration<double>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
    if (left <= 0.0) break;
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr =
        ::poll(&pfd, 1, static_cast<int>(std::ceil(left * 1000.0)));
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) break;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    set_nodelay(fd);
    // Rendezvous: HELLO {version} in, WELCOME {version, rank, size} out.
    std::optional<Frame> hello;
    try {
      hello = read_frame_fd(fd, std::min(left, 5.0));
    } catch (const ProtocolError&) {
      hello = std::nullopt;  // garbage on the rendezvous socket
    }
    if (!hello || hello->tag != kCtrlHello || hello->payload.empty() ||
        hello->payload[0] != static_cast<double>(kWireVersion)) {
      ::close(fd);
      continue;
    }
    int rank = 0;
    for (int r = 1; r <= n_workers; ++r) {
      if (!peers_[static_cast<std::size_t>(r)]) {
        rank = r;
        break;
      }
    }
    const double welcome[3] = {static_cast<double>(kWireVersion),
                               static_cast<double>(rank),
                               static_cast<double>(size())};
    const auto frame = encode_frame(kCtrlWelcome, 0, welcome);
    if (!send_all(fd, frame.data(), frame.size())) {
      ::close(fd);
      continue;
    }
    attach_peer(rank, fd);
    ++connected;
  }
  PLINGER_REQUIRE(connected > 0,
                  "accept_workers: no worker connected before the deadline");
  // Ranks that never showed up are lost workers from the protocol's
  // point of view: synthesize their death notices so run_master's
  // recovery machinery settles them instead of waiting forever.
  for (int r = 1; r <= n_workers; ++r) {
    if (peers_[static_cast<std::size_t>(r)]) continue;
    ++n_peers_lost_;
    notify_worker_lost(r);
  }
  return connected;
}

std::unique_ptr<TcpWorld> TcpWorld::connect_once(const std::string& host,
                                                 int port,
                                                 double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  sockaddr_in addr = ipv4_address(host, port);
  int fd = -1;
  for (;;) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    PLINGER_REQUIRE(fd >= 0, "TcpWorld::connect: socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      break;
    }
    const std::string why = std::strerror(errno);
    ::close(fd);
    fd = -1;
    if (std::chrono::steady_clock::now() >= deadline) {
      throw Error("TcpWorld::connect: cannot reach " + host + ":" +
                  std::to_string(port) + ": " + why);
    }
    ::usleep(50 * 1000);  // the master may still be binding; retry
  }
  set_nodelay(fd);
  const double hv = static_cast<double>(kWireVersion);
  const auto hello = encode_frame(kCtrlHello, -1, {&hv, 1});
  if (!send_all(fd, hello.data(), hello.size())) {
    ::close(fd);
    throw Error("TcpWorld::connect: handshake write failed");
  }
  std::optional<Frame> welcome;
  try {
    const double left =
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count();
    welcome = read_frame_fd(fd, std::max(left, 1.0));
  } catch (const ProtocolError&) {
    welcome = std::nullopt;
  }
  if (!welcome || welcome->tag != kCtrlWelcome ||
      welcome->payload.size() < 3 ||
      welcome->payload[0] != static_cast<double>(kWireVersion)) {
    ::close(fd);
    throw Error("TcpWorld::connect: bad WELCOME from " + host + ":" +
                std::to_string(port));
  }
  const int rank = static_cast<int>(std::llround(welcome->payload[1]));
  const int nprocs = static_cast<int>(std::llround(welcome->payload[2]));
  if (rank < 1 || rank >= nprocs) {
    ::close(fd);
    throw Error("TcpWorld::connect: WELCOME assigned invalid rank");
  }
  std::unique_ptr<TcpWorld> w(new TcpWorld(nprocs, rank));
  w->attach_peer(0, fd);
  return w;
}

std::unique_ptr<TcpWorld> TcpWorld::connect(const std::string& host,
                                            int port, int attempts,
                                            int backoff_ms,
                                            double attempt_timeout_seconds) {
  PLINGER_REQUIRE(attempts >= 1, "TcpWorld::connect: attempts must be >= 1");
  PLINGER_REQUIRE(backoff_ms >= 0,
                  "TcpWorld::connect: backoff_ms must be >= 0");
  long sleep_ms = backoff_ms;
  for (int attempt = 1;; ++attempt) {
    try {
      return connect_once(host, port, attempt_timeout_seconds);
    } catch (const Error&) {
      if (attempt >= attempts) throw;
    }
    if (sleep_ms > 0) {
      ::usleep(static_cast<useconds_t>(sleep_ms) * 1000);
      // Doubling capped at one minute: past that the backoff is doing
      // rate limiting, not congestion avoidance.
      sleep_ms = std::min(sleep_ms * 2, 60'000L);
    }
  }
}

void TcpWorld::attach_peer(int rank, int fd) {
  auto p = std::make_unique<Peer>();
  p->fd = fd;
  p->rank = rank;
  Peer& ref = *p;
  peers_[static_cast<std::size_t>(rank)] = std::move(p);
  ref.receiver = std::thread([this, &ref] { receiver_loop(ref); });
}

void TcpWorld::receiver_loop(Peer& p) {
  FrameParser parser;
  std::vector<unsigned char> chunk(1u << 16);
  for (;;) {
    const ssize_t n = ::read(p.fd, chunk.data(), chunk.size());
    if (n == 0) {
      mark_lost(p, "connection closed");
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      mark_lost(p, "read error");
      return;
    }
    try {
      parser.feed({chunk.data(), static_cast<std::size_t>(n)});
      while (auto f = parser.next()) {
        if (f->tag == kCtrlGoodbye) {
          p.goodbye_seen = true;
          continue;
        }
        if (f->tag < 0 || f->source != p.rank) {
          // A control frame after the rendezvous, or a forged source
          // rank: the stream is not trustworthy anymore.
          mark_lost(p, "protocol violation");
          return;
        }
        const int tag = f->tag;
        Message msg;
        msg.tag = tag;
        msg.source = f->source;
        msg.payload = std::move(f->payload);
        const std::size_t bytes = msg.size_bytes();
        enqueue_local(local_rank_, std::move(msg));
        count_send(p.rank, local_rank_, tag, bytes);
      }
    } catch (const ProtocolError&) {
      // Torn frame, garbage bytes, or bit rot: unrecoverable stream.
      mark_lost(p, "malformed frame");
      return;
    }
  }
}

void TcpWorld::mark_lost(Peer& p, const char* why) {
  if (p.lost.exchange(true)) return;
  const bool clean = p.closing || p.goodbye_seen;
  // Wakes the receiver, and a writer stuck in send_all on a dead link.
  ::shutdown(p.fd, SHUT_RDWR);
  if (!clean) ++n_peers_lost_;
  if (local_rank_ == 0) {
    // The same tag-7 notice a FaultPlan kill delivers; run_master's
    // recovery path owns the fallout.
    if (!clean) notify_worker_lost(p.rank);
  } else {
    close_mailbox(local_rank_,
                  std::make_exception_ptr(PeerLost(
                      std::string("tcp: master connection lost (") + why +
                      ")")));
  }
}

void TcpWorld::send(int from, int to, int tag,
                    std::span<const double> data) {
  check_rank(from);
  check_rank(to);
  PLINGER_REQUIRE(tag >= 0, "send: tag must be non-negative");
  PLINGER_REQUIRE(from == local_rank_,
                  "tcp send: 'from' must be the local rank");
  if (to == from) {
    InProcWorld::send(from, to, tag, data);
    return;
  }
  if (local_rank_ != 0 && to != 0) {
    throw ProtocolError("tcp: rank " + std::to_string(from) +
                        " has no route to rank " + std::to_string(to) +
                        " (star topology: workers talk to the master only)");
  }
  Peer* p = peers_[static_cast<std::size_t>(to)].get();
  if (p == nullptr) return;  // never-connected rank, already declared lost
  const auto frame = encode_frame(tag, from, data);
  {
    const std::lock_guard<std::mutex> lock(p->write_mutex);
    if (p->lost || p->closing) return;  // sends to a dead peer vanish
    if (!send_all(p->fd, frame.data(), frame.size())) {
      mark_lost(*p, "write error");
    }
  }
  count_send(from, to, tag, data.size() * sizeof(double));
}

TcpWorld::~TcpWorld() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (auto& pp : peers_) {
    if (!pp) continue;
    Peer& p = *pp;
    p.closing = true;
    {
      const std::lock_guard<std::mutex> lock(p.write_mutex);
      if (!p.lost) {
        // Announce the clean close so the peer's EOF is not a death.
        const auto bye = encode_frame(kCtrlGoodbye, local_rank_, {});
        send_all(p.fd, bye.data(), bye.size());
      }
    }
    ::shutdown(p.fd, SHUT_RDWR);
    p.receiver.join();
    ::close(p.fd);
  }
}

}  // namespace plinger::mp
