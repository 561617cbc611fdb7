#pragma once

/// Cross-process TCP transport: the socket backend of the 8-routine
/// wrapper API (ROADMAP "Cross-process transport" item).
///
/// TcpWorld extends InProcWorld so the wrappers, the Appendix-A
/// protocol loops, and the drivers work unchanged: each process holds a
/// full-size world but populates only its *local* rank's mailbox —
/// frames arriving on a socket are enqueued there exactly as a local
/// send() would, and outgoing send() calls are framed onto the wire
/// instead.  The topology is the protocol's own star: the master
/// (rank 0) holds one connection per worker; a worker holds one
/// connection to the master; worker-to-worker sends are a protocol
/// violation (the Appendix-A tags never need them).
///
/// Wire format — every byte is specified in docs/protocol.md ("TCP
/// transport wire grammar"); the constants below are that section in
/// code.  Frames are length-prefixed, CRC-32-checked (the checkpoint
/// store's polynomial, store/crc32.hpp), and carry the Appendix-A tag
/// and source rank.  Negative tags are transport-control frames
/// (HELLO/WELCOME rendezvous, GOODBYE teardown) and never reach a
/// mailbox.
///
/// Fault mapping: a connection that dies without a GOODBYE — EOF, a
/// read/write error, a torn frame, garbage bytes, a CRC mismatch — is a
/// lost peer.  On the master this synthesizes the tag-7 death notice
/// {0.0, 1.0} from that rank (InProcWorld::notify_worker_lost, the same
/// notice a FaultPlan kill delivers), so the master's reassignment/
/// quarantine machinery runs unchanged over real sockets.  On a worker
/// it closes the worker's own mailbox with PeerLost
/// (InProcWorld::close_mailbox): a probe/recv returns what the master
/// sent before it went, then throws, and one already blocked wakes and
/// throws at once.
///
/// Threads: each link has one, its receiver, which reads frames into
/// the local mailbox and declares the link lost.  send() writes its
/// frame on the calling thread, under the link's write lock; declaring
/// a link lost shuts the socket down, which unblocks a stuck writer.  A
/// send waits only while the peer's socket buffer is full; the master
/// sends a worker the broadcast, then at most one small frame per
/// message from it, so a wedged worker cannot fill it.

#include <netinet/in.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "mp/inproc.hpp"

namespace plinger::mp {

/// Thrown by a worker's probe/probe_for/recv once the master
/// connection is gone and no matching message it sent before then
/// remains queued; a call already blocked throws it as the link drops.
/// The master never throws it: peer loss there becomes a tag-7 death
/// notice instead.
class PeerLost : public Error {
 public:
  explicit PeerLost(const std::string& what) : Error(what) {}
};

// --- wire grammar constants (docs/protocol.md) ---

/// Frame magic: the bytes 'P' 'L' 'T' 'W' at offset 0.
inline constexpr std::array<unsigned char, 4> kFrameMagic{'P', 'L', 'T',
                                                          'W'};
/// Handshake version carried by HELLO/WELCOME payload slot 0; 2 since
/// the tag-1 broadcast carries the run identity workers check.
inline constexpr std::uint32_t kWireVersion = 2;
/// Fixed header size: magic(4) + length(4) + tag(4) + source(4) + crc(4).
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Length-field ceiling; a larger value is garbage, not a big message.
inline constexpr std::uint32_t kMaxFrameDoubles = 1u << 22;  // 32 MiB
/// Control tags (negative: never delivered to a mailbox).
inline constexpr int kCtrlHello = -1;    ///< worker -> master {version}
inline constexpr int kCtrlWelcome = -2;  ///< master -> worker {version, rank, size}
inline constexpr int kCtrlGoodbye = -3;  ///< either side: clean close follows

/// A decoded frame (control or data).
struct Frame {
  int tag = 0;
  int source = 0;
  std::vector<double> payload;
};

/// Serialize one frame (header + payload doubles) per the wire grammar.
std::vector<unsigned char> encode_frame(int tag, int source,
                                        std::span<const double> payload);

/// Incremental frame decoder over a byte stream.  feed() appends raw
/// bytes; next() yields the next complete frame, nullopt when more bytes
/// are needed, and throws ProtocolError on bad magic, an oversized
/// length, or a CRC mismatch — after which the stream is unrecoverable
/// and the connection must be dropped.
class FrameParser {
 public:
  void feed(std::span<const unsigned char> bytes);
  std::optional<Frame> next();
  std::size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;
};

/// "host:port" of a listen or connect key.  Throws InvalidArgument on
/// anything else (empty host, non-numeric or out-of-range port).
struct TcpEndpoint {
  std::string host;
  int port = 0;
};
TcpEndpoint parse_endpoint(const std::string& text);

/// The socket address of host:port, the one host resolver of every
/// plinger socket (TcpWorld, spectrum_serve, spectrum_client).
/// "localhost" maps to 127.0.0.1; any other host must be a dotted-quad
/// IPv4 address (no DNS lookup).  Throws InvalidArgument otherwise.
sockaddr_in ipv4_address(const std::string& host, int port);

/// Write all n bytes to a connected socket, the one write loop of every
/// plinger socket; false once the peer is gone.  MSG_NOSIGNAL keeps a
/// dead peer from raising SIGPIPE, and EINTR retries.
bool send_all(int fd, const void* data, std::size_t n);
inline bool send_all(int fd, std::string_view text) {
  return send_all(fd, text.data(), text.size());
}

/// Disable Nagle on a connected socket (TcpWorld's links, the daemon's
/// connections): under it a write that follows an unacknowledged one
/// waits for the peer's delayed ACK (about 40 ms on Linux).
void set_nodelay(int fd);

/// The socket-backed world.  Construct via the factories: listen() on
/// the master, connect() on a worker.  All InProcWorld semantics of the
/// mpisim personality hold for the local rank (per-source ordering,
/// MPI-style truncation); remote ranks are reachable through send()
/// only.
class TcpWorld final : public InProcWorld {
 public:
  /// Master factory: bind and listen on host:port (port 0 asks the
  /// kernel for an ephemeral port — read it back via port()).  The
  /// world has n_workers + 1 ranks; call accept_workers() before
  /// running the protocol.
  static std::unique_ptr<TcpWorld> listen(const std::string& host, int port,
                                          int n_workers);

  /// Worker factory: connect to the master at host:port, perform the
  /// HELLO/WELCOME rendezvous, and return a world sized and ranked by
  /// the master's WELCOME.  Each attempt retries the connect() syscall
  /// for attempt_timeout_seconds while the master is still binding (0:
  /// exactly one syscall).  Up to `attempts` attempts are made, sleeping
  /// backoff_ms before the second and doubling the sleep each further
  /// attempt (bounded exponential backoff) — the remote-deployment case
  /// where the master's box reboots slower than the workers', or sits
  /// behind a still-converging DNS/VPN route.  The last attempt's error
  /// is rethrown verbatim once the budget is spent.  attempts must be
  /// >= 1, backoff_ms >= 0.
  static std::unique_ptr<TcpWorld> connect(
      const std::string& host, int port, int attempts = 1,
      int backoff_ms = 0, double attempt_timeout_seconds = 30.0);

  ~TcpWorld() override;  ///< GOODBYE + shutdown + close on every live peer

  int local_rank() const { return local_rank_; }
  /// The actually bound port (master; resolves a port-0 listen).
  int port() const { return port_; }

  /// Master: block until every worker rank has connected and completed
  /// the rendezvous, or the deadline passes.  Ranks still missing at
  /// the deadline are declared lost (synthesized tag-7 death notice),
  /// so the run proceeds degraded on whoever came.  Throws Error when
  /// nobody connected at all.  Returns the number of connected workers.
  int accept_workers(double timeout_seconds = 60.0);

  /// Peers whose connection died without a GOODBYE (plus never-connected
  /// ranks past the accept deadline).
  int n_peers_lost() const { return n_peers_lost_.load(); }

  void send(int from, int to, int tag,
            std::span<const double> data) override;

 private:
  TcpWorld(int nprocs, int local_rank);

  /// One connect() attempt: retry the syscall for timeout_seconds while
  /// the master is still binding, then the rendezvous.
  static std::unique_ptr<TcpWorld> connect_once(const std::string& host,
                                                int port,
                                                double timeout_seconds);

  struct Peer {
    int fd = -1;
    int rank = 0;
    std::mutex write_mutex;  ///< one frame on the wire at a time
    std::atomic<bool> closing{false};       ///< local teardown: EOF is expected
    std::atomic<bool> goodbye_seen{false};  ///< peer announced a clean close
    std::atomic<bool> lost{false};          ///< link declared dead (once)
    std::thread receiver;
  };

  /// Adopt an already-handshaken socket as the link to `rank` and spawn
  /// its receiver thread.
  void attach_peer(int rank, int fd);
  void receiver_loop(Peer& p);
  /// Declare the link to `p` dead (idempotent) and shut its socket down.
  /// The master synthesizes the tag-7 death notice unless the close was
  /// clean or local; a worker closes its mailbox with PeerLost.  Takes
  /// no write lock, so it can unblock a writer stuck in send().
  void mark_lost(Peer& p, const char* why);

  int local_rank_ = 0;
  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<std::unique_ptr<Peer>> peers_;  ///< indexed by peer rank
  std::atomic<int> n_peers_lost_{0};
};

}  // namespace plinger::mp
