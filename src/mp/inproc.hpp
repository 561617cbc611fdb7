#pragma once

/// In-process message-passing world: the transport substitution for
/// PVM/MPI/MPL/PVMe (see DESIGN.md).  Each rank owns a mailbox; send
/// copies the payload into the target mailbox; probe/recv block on a
/// condition variable.  Semantics are modeled on the libraries the paper
/// used:
///
///  * per-(source, destination) ordering is always preserved (as in MPI),
///  * Library::mpisim allows fully tag-selective out-of-order retrieval,
///    as MPI and PVM both do, so one personality stands for the two,
///  * Library::mplsim additionally *enforces* the SP2 MPL restriction the
///    paper notes — "MPL requires that messages be received in the order
///    in which they arrive" — per source: receiving a message that is not
///    the oldest pending one from its source throws ProtocolError.  The
///    paper observes this "does not create difficulties" for the
///    master/worker algorithm; our protocol tests prove it.

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "common/error.hpp"
#include "mp/message.hpp"
#include "mp/stats.hpp"

namespace plinger::mp {

/// Which library personality the world emulates: tag-selective
/// retrieval (MPI, PVM) or MPL's in-arrival-order receives.
enum class Library { mpisim, mplsim };

/// Thrown when a receive violates the emulated library's rules.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

/// A set of nprocs ranks with mailboxes.  All methods are thread-safe;
/// typically rank 0 is driven by the master thread and ranks 1..n-1 by
/// worker threads.
///
/// send is virtual so a decorator can interpose on the transport
/// without the protocol layer knowing: FaultInjectingWorld
/// (fault_world.hpp) kills ranks, delays, drops, and duplicates
/// messages there, and TcpWorld (tcp_world.hpp) frames them onto a
/// socket.  The receive calls are not virtual: a backend ends a rank's
/// receives through one seam, close_mailbox, when that rank is killed
/// or its link to the master drops.
class InProcWorld {
 public:
  explicit InProcWorld(int nprocs, Library lib = Library::mpisim);
  virtual ~InProcWorld() = default;

  InProcWorld(const InProcWorld&) = delete;
  InProcWorld& operator=(const InProcWorld&) = delete;

  int size() const { return static_cast<int>(boxes_.size()); }

  /// Copy data into `to`'s mailbox with the given tag.
  virtual void send(int from, int to, int tag, std::span<const double> data);

  /// Block until a message matching (source, tag) — either may be a
  /// wildcard — is available for `rank`; report it without consuming.
  /// On a closed mailbox with no match queued, rethrow its exception
  /// (this holds for probe_for and recv too).
  ProbeResult probe(int rank, int source = kAnySource,
                    int tag = kAnyTag) const;

  /// Like probe, but give up after timeout_seconds.  Returns nullopt on
  /// timeout.  This is the master's stall-detection primitive: a bounded
  /// wait for the next protocol message so a dead or wedged worker
  /// cannot hang the join forever.  A timeout above 1e9 s (about 32
  /// years) waits with no deadline.
  std::optional<ProbeResult> probe_for(int rank, int source, int tag,
                                       double timeout_seconds) const;

  /// Block until a matching message is available, then copy at most
  /// out.size() doubles into out and consume it.  Returns the payload
  /// length (the full length even if truncated, as MPI does).
  std::size_t recv(int rank, int source, int tag, std::span<double> out);

  /// Transport counters accumulated so far.
  TransportStats stats() const;

  /// Called once per send with (from, to, tag, payload bytes) — the
  /// run-trace layer's tap.  Install before ranks start exchanging
  /// messages and leave it in place for the world's lifetime; the
  /// callback must be thread-safe (sends are concurrent).
  using SendObserver =
      std::function<void(int from, int to, int tag, std::size_t bytes)>;
  void set_send_observer(SendObserver observer);

 protected:
  /// Enqueue an already-built message into `to`'s local mailbox and wake
  /// its waiters, without touching the counters.  Transport backends
  /// (tcp_world.hpp) deliver off-host arrivals through this seam.
  void enqueue_local(int to, Message msg);

  /// Record one message in the transport counters and fire the send
  /// observer — exactly the accounting send() performs after enqueueing.
  /// Backends call it for traffic that never passes through send()
  /// (frames arriving from a socket).
  void count_send(int from, int to, int tag, std::size_t bytes);

  /// Deliver the worker-lost death notice from `rank` to the master
  /// (rank 0): tag 7, payload {0.0, 1.0} = (ik unknown, code
  /// worker-lost), see docs/protocol.md.  Enqueued and counted as that
  /// rank's send.  The PVM-notify analogue: the master reassigns the
  /// rank's outstanding mode without waiting for a stall timeout.
  void notify_worker_lost(int rank);

  /// End `rank`'s receives, the one way a rank goes away (a kill, a lost
  /// master link).  Its probe, probe_for and recv still return any
  /// matching message already queued, then rethrow `why`, waking the
  /// calls already blocked; later mail to it is dropped.  The first
  /// close wins.
  void close_mailbox(int rank, std::exception_ptr why);

  void check_rank(int rank) const;

 private:
  struct Mailbox {
    mutable std::mutex mutex;
    mutable std::condition_variable cv;
    std::deque<Message> queue;
    std::exception_ptr closed;  ///< set once by close_mailbox
  };

  const Message* find_match(const Mailbox& box, int source, int tag) const;
  /// With `lock` held on `box`, wait up to timeout_seconds for a
  /// message matching (source, tag); nullptr on timeout.  A closed
  /// mailbox with no match rethrows its exception.
  const Message* wait_match(const Mailbox& box,
                            std::unique_lock<std::mutex>& lock, int source,
                            int tag, double timeout_seconds) const;

  Library lib_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  SendObserver observer_;

  mutable std::mutex stats_mutex_;
  TransportStats stats_;
};

}  // namespace plinger::mp
