#pragma once

/// Fault injection for the in-process transport.
///
/// The paper's master/worker protocol (Appendix A) assumed workers never
/// die: on the SP2/T3D a lost worker meant a lost run.  To grow the
/// recovery machinery in `run_master` we need a transport that can fail
/// on demand, deterministically.  FaultInjectingWorld decorates
/// InProcWorld through its virtual send and can, per a declarative plan:
///
///  * kill a rank — the simulated process dies: every later send by
///    that rank throws RankKilled (the driver treats it as simulated
///    death, not an error), its mailbox is closed with the same
///    exception (InProcWorld::close_mailbox: a receive drains what was
///    queued before the kill, then throws), sends *to* it vanish
///    silently, and a synthetic tag-7 death notice is delivered to the
///    master (the analogue of PVM's pvm_notify host-failure message),
///  * drop a message — it is never delivered (a flaky link),
///  * duplicate a message — it is delivered twice,
///  * delay a message — it is delivered after a wallclock pause (a
///    stalled link or a worker stuck in a long GC/page-fault).
///
/// Actions trigger on sends matched by (rank, tag, occurrence) and
/// optionally by the wavenumber index `ik` carried in the payload of
/// tags 3/4/5/7, so a test can say "drop worker 2's result for ik 5".
/// Dropping or duplicating a tag-4 result header automatically extends
/// to the paired tag-5 payload — the two records travel together in the
/// protocol, and splitting them would wedge the master in a receive the
/// plan never intended.
///
/// Everything is deterministic given the plan; FaultPlan::seeded_kill
/// derives a reproducible single-kill plan from an integer seed for
/// randomized sweeps.

#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mp/inproc.hpp"

namespace plinger::mp {

/// Thrown by the send that kills a rank and by every later send of
/// that rank; its receives throw it once no matching message queued
/// before the kill remains.  Protocol loops do not catch it: it unwinds
/// the worker like the process death it models, and the driver
/// recognizes it as a simulated fault rather than a real error.
class RankKilled : public Error {
 public:
  explicit RankKilled(const std::string& what) : Error(what) {}
};

/// What an action does to the send it matches.
enum class FaultKind {
  kill_before_send,  ///< rank dies; the matched message is never sent
  kill_after_send,   ///< the message is delivered, then the rank dies
  drop_message,      ///< message vanishes in transit
  duplicate_message, ///< message is delivered twice
  delay_message,     ///< message is delivered after delay_seconds
};

/// One planned fault, triggered by a matching send.
struct FaultAction {
  FaultKind kind = FaultKind::drop_message;
  int rank = 1;        ///< sender whose send triggers the action
  int tag = kAnyTag;   ///< tag filter (kAnyTag matches every tag)
  int occurrence = 1;  ///< 1-based nth matching send by that rank
  /// Wavenumber filter: match only messages whose payload carries this
  /// ik (tags 3/4/5/7 carry ik in slot 0).  0 matches any ik.
  std::size_t ik = 0;
  double delay_seconds = 0.0;  ///< for delay_message
};

/// A deterministic fault schedule, plus the death-notice convention.
struct FaultPlan {
  std::vector<FaultAction> actions;

  /// Deliver the tag-7 death notice to rank 0 when a rank is killed
  /// (InProcWorld::notify_worker_lost).
  bool notify_on_kill = true;

  /// Test-harness rendezvous: hold a tag-4 result send by any rank
  /// while another rank still has an unfired planned action (valve:
  /// 5 s, then proceed).  Without it a fast worker can drain the whole
  /// schedule before a starved victim thread ever reaches the send its
  /// fault triggers on, and the planned fault silently never happens —
  /// a harness race, not a protocol one.  Off by default: drills want
  /// the plan to fire (or not) as the run actually unfolds.
  bool hold_healthy_results = false;

  bool empty() const { return actions.empty(); }

  /// Reproducible one-kill plan: from `seed`, pick a worker rank in
  /// [1, n_workers] and a protocol phase (before its first request,
  /// before its first result, after its first result).
  static FaultPlan seeded_kill(unsigned seed, int n_workers);
};

/// One injected fault, as it actually happened (for assertions and the
/// run trace).
struct InjectedFault {
  FaultKind kind = FaultKind::drop_message;
  int rank = 0;
  int tag = 0;
  std::size_t ik = 0;  ///< payload ik when the tag carries one, else 0
};

/// The decorator.  Construct with the same arguments as InProcWorld plus
/// the plan; hand it to the protocol/driver layer as a plain
/// InProcWorld&.
class FaultInjectingWorld final : public InProcWorld {
 public:
  FaultInjectingWorld(int nprocs, FaultPlan plan,
                      Library lib = Library::mpisim);
  ~FaultInjectingWorld() override;  ///< joins delayed-delivery threads

  void send(int from, int to, int tag,
            std::span<const double> data) override;

  /// Has this rank's simulated process been killed?
  bool is_killed(int rank) const;

  /// Every fault injected so far, in injection order.
  std::vector<InjectedFault> injected() const;

  /// How many plan actions have fired (consumed their trigger).  Test
  /// harnesses rendezvous on n_fired() == plan size so that healthy
  /// workers cannot drain the schedule before every planned fault has
  /// had its chance to happen.
  std::size_t n_fired() const;

 private:
  void check_alive(int rank) const;  ///< throws RankKilled if dead
  /// hold_healthy_results: block until no other rank has an unfired
  /// planned action (or the 5 s valve opens).
  void hold_for_rendezvous(int from) const;
  /// Kill `rank`: mark dead, log, close its mailbox, emit the death
  /// notice, throw.
  [[noreturn]] void kill(int rank, int tag, std::size_t ik,
                         FaultKind kind);

  FaultPlan plan_;
  mutable std::mutex mutex_;  ///< guards everything below
  std::vector<char> killed_;
  std::vector<char> fired_;               ///< one flag per plan action
  std::vector<std::uint64_t> sends_seen_;  ///< per (rank, action) match count
  /// Per-rank action to replay on the next tag-5 send (pair coupling
  /// with a dropped/duplicated/delayed tag-4 header).
  std::vector<FaultKind> pending_payload_;
  std::vector<char> pending_payload_set_;
  /// A delayed tag-4 header held back until its tag-5 payload arrives;
  /// the pair is then delivered in order by one helper thread.
  struct HeldHeader {
    int to = 0;
    double delay_seconds = 0.0;
    std::vector<double> data;
  };
  std::vector<HeldHeader> held_header_;
  std::vector<char> held_header_set_;
  std::vector<InjectedFault> log_;
  std::vector<std::jthread> delayed_;  ///< in-flight delayed deliveries
};

}  // namespace plinger::mp
