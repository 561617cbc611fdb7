#pragma once

/// Run-trace observability (paper §4, §5, Figure 1).
///
/// The paper's performance story is told with per-mode CPU timings, the
/// end-of-run idle tail, and message accounting.  RunOutput only carries
/// run-level totals, so this subsystem records the underlying events:
///
///  * ModeSpan  — one integration attempt of one wavenumber on one
///    worker (enqueue/start/finish wallclock, CPU seconds, flops, and
///    whether the attempt completed or failed into the tag-7 path),
///  * AssignEvent — the master handing ik to a worker (tag 3),
///  * MessageEvent — every transport send (tag, direction, bytes),
///    captured from InProcWorld via its send observer.
///
/// The trace is a record for after the run, not a live feed: what has
/// landed is the drivers' result sink's to say (RunSetup::progress).  A
/// stalled worker's span, for one, is recorded before its late result
/// is dropped as a duplicate, so spans can outnumber landed modes.
///
/// From a Trace, make_run_report() derives the Figure-1 quantities:
/// per-worker busy/idle breakdown, the end-of-run idle tail, per-worker
/// parallel efficiency, and the §4 message-overhead-vs-compute ratio.
/// Exporters render the report as an ASCII table (io/ascii_table) and
/// the raw trace as Chrome trace_event JSON (load in chrome://tracing
/// or https://ui.perfetto.dev).
///
/// Tracing is off by default; every hook is a null-pointer check, so a
/// disabled run does no extra work and takes no locks.

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <vector>

namespace plinger::parallel {

/// Host-side tracing switch.  Not part of the tag-1 wire broadcast —
/// workers record into the recorder the driver hands them directly.  A
/// traced run records spans, assignments, faults and every message.
struct TraceConfig {
  bool enabled = false;
};

/// One integration attempt of one wavenumber on one worker.
struct ModeSpan {
  std::size_t ik = 0;
  double k = 0.0;
  int worker = 0;         ///< rank (plinger) or 1-based thread id
  int attempt = 1;        ///< 1-based per ik, across all workers
  bool completed = true;  ///< false: the attempt failed (tag-7 path)
  double t_enqueue = 0.0; ///< when the master issued ik (0 if unknown)
  double t_start = 0.0;   ///< worker began integrating
  double t_finish = 0.0;  ///< worker finished (or threw)
  double cpu_seconds = 0.0;
  std::uint64_t flops = 0;
};

/// The master assigning ik to a worker (one per tag-3 send).
struct AssignEvent {
  std::size_t ik = 0;
  int worker = 0;
  double t = 0.0;
};

/// One transport send.
struct MessageEvent {
  int tag = 0;
  int source = 0;
  int dest = 0;
  std::size_t bytes = 0;
  double t = 0.0;
};

/// One fault-tolerance event observed by the master (docs/protocol.md):
/// a worker declared dead (tag-7 death notice), a stall timeout firing,
/// a mode re-entering the schedule, or a mode quarantined after too many
/// reassignments.
struct FaultEvent {
  enum class Kind { worker_lost, stall_timeout, reassign, quarantine };
  Kind kind = Kind::worker_lost;
  int worker = 0;      ///< rank involved; 0 when not tied to a worker
  std::size_t ik = 0;  ///< mode involved; 0 when none was outstanding
  double t = 0.0;
};

/// Everything recorded during one run.  Times are seconds relative to
/// the recorder's construction (t_begin == 0).
struct Trace {
  double t_end = 0.0;  ///< run wallclock in trace time
  int n_workers = 0;
  std::vector<ModeSpan> spans;
  std::vector<AssignEvent> assigns;
  std::vector<MessageEvent> messages;
  std::vector<FaultEvent> faults;
};

/// Thread-safe event recorder.  One per run; drivers pass a pointer to
/// the master/worker loops (nullptr == tracing disabled).
class TraceRecorder {
 public:
  TraceRecorder();

  /// Seconds since the recorder was constructed (the trace origin).
  double now() const;

  /// Record a tag-3 assignment.  t < 0 means "stamp with now()";
  /// virtual-cluster replays pass explicit virtual times instead.
  void record_assign(std::size_t ik, int worker, double t = -1.0);

  /// Record one integration attempt.  The recorder numbers the attempt
  /// (1-based per ik) and fills t_enqueue from the latest assignment of
  /// the same ik, so callers only provide the observation itself.
  void record_span(std::size_t ik, double k, int worker, bool completed,
                   double t_start, double t_finish, double cpu_seconds,
                   std::uint64_t flops);

  /// Record one transport send (wired to InProcWorld's send observer).
  void record_message(int tag, int source, int dest, std::size_t bytes,
                      double t = -1.0);

  /// Record a fault-tolerance event (master side).  t < 0 means "stamp
  /// with now()".
  void record_fault(FaultEvent::Kind kind, int worker, std::size_t ik,
                    double t = -1.0);

  /// Close the trace and move it out.  t_end < 0 means "stamp with
  /// now()"; virtual replays pass the virtual wallclock.
  Trace finish(int n_workers, double t_end = -1.0);

 private:
  double origin_;
  mutable std::mutex mutex_;
  Trace trace_;
  std::map<std::size_t, int> attempts_;     ///< per-ik attempt counter
  std::map<std::size_t, double> enqueued_;  ///< latest assign time per ik
};

/// Figure-1 view of one worker's timeline.
struct WorkerTimeline {
  int worker = 0;
  std::size_t n_completed = 0;
  std::size_t n_failed = 0;
  double busy_seconds = 0.0;      ///< sum of span durations
  double cpu_seconds = 0.0;       ///< sum of span CPU (the paper's etime)
  double idle_seconds = 0.0;      ///< wallclock - busy
  double idle_tail_seconds = 0.0; ///< wallclock - last span finish (§5.2)
  double first_start = 0.0;
  double last_finish = 0.0;
  double efficiency = 0.0;        ///< busy / wallclock
  std::uint64_t flops = 0;
};

/// Derived summary: the quantities of Figure 1, §4, and §5.2.
struct RunReport {
  double wallclock_seconds = 0.0;
  int n_workers = 0;
  std::vector<WorkerTimeline> workers;  ///< ascending worker id

  std::size_t n_modes_completed = 0;
  std::size_t n_attempts = 0;  ///< includes failed/requeued attempts

  // Fault-tolerance accounting (docs/protocol.md failure path).
  std::size_t n_workers_lost = 0;  ///< death notices + stall timeouts
  std::size_t n_reassigned = 0;    ///< modes that re-entered the schedule
  std::size_t n_quarantined = 0;   ///< modes given up as poison
  double total_busy_seconds = 0.0;
  double total_cpu_seconds = 0.0;
  std::uint64_t total_flops = 0;
  double parallel_efficiency = 0.0;  ///< §5.2: cpu / (wall * workers)
  double idle_tail_seconds = 0.0;    ///< max over workers
  double mean_idle_tail_seconds = 0.0;

  // §4 message economics (zeros for transports without messages).
  std::uint64_t n_messages = 0;
  std::uint64_t n_bytes = 0;
  std::uint64_t max_message_bytes = 0;
  std::array<std::uint64_t, 8> per_tag{};        ///< counts; [0] = other
  std::array<std::uint64_t, 8> per_tag_bytes{};  ///< bytes;  [0] = other
  /// Estimated transit time of all messages over compute time; the
  /// paper's "message overhead is negligible" is this being << 1.
  double message_overhead_ratio = 0.0;
};

/// Network and master-service costs; the defaults are an SP2-class
/// interconnect (~100 us latency, ~40 MB/s) and a fast master.
struct LinkModel {
  double latency_seconds = 1e-4;
  double bytes_per_second = 40e6;
  double master_service_seconds = 5e-5;  ///< per message handled

  double transit(std::size_t bytes) const {
    return latency_seconds +
           static_cast<double>(bytes) / bytes_per_second;
  }
};

/// Derive the report; its §4 overhead estimate prices the messages on
/// the default LinkModel.
RunReport make_run_report(const Trace& trace);

/// Per-worker ASCII table plus run-level summary lines.
void write_ascii_report(std::ostream& os, const RunReport& report);

/// Chrome trace_event JSON: spans as duration events (one row per
/// worker), assigns and messages as instant events on the master row.
void write_chrome_trace(std::ostream& os, const Trace& trace);

}  // namespace plinger::parallel
