#pragma once

/// Discrete-event simulation of the PLINGER master/worker run on a
/// virtual cluster — the Figure-1 substitution (see DESIGN.md).
///
/// The build machine cannot provide 256 hardware nodes, but the paper's
/// scaling behaviour (near-ideal speedup, the end-of-run idle tail, the
/// largest-k-first mitigation, negligible message overhead) is a property
/// of the *schedule* and the *message economics*, both of which we have
/// exactly: per-k compute costs are measured from real integrations (or a
/// fitted model of them), message sizes follow the real wire records, and
/// the master/worker protocol is replayed event by event in virtual time.

#include <cstddef>
#include <functional>
#include <vector>

#include "plinger/schedule.hpp"
#include "plinger/trace.hpp"

namespace plinger::parallel {

/// Per-wavenumber CPU cost in seconds.  Use measured ModeResult CPU
/// times, or a fitted c0 + c1 (k tau0)^p model for large sweeps.
using CostModel = std::function<double(double k)>;

/// Outcome of one virtual run.
struct VirtualRunResult {
  double wallclock_seconds = 0.0;
  double total_worker_cpu_seconds = 0.0;
  double master_busy_seconds = 0.0;
  std::vector<double> worker_busy_seconds;  ///< per worker
  std::size_t n_messages = 0;
  std::size_t n_bytes = 0;
  int n_workers = 0;

  double parallel_efficiency() const {
    return total_worker_cpu_seconds /
           (wallclock_seconds * static_cast<double>(n_workers));
  }
};

/// Message sizes of one work item on the wire (bytes), derived from the
/// real record lengths for the lmax the worker would use.
struct MessageSizer {
  double tau0 = 0.0;          ///< to derive lmax(k)
  std::size_t lmax_cap = 12000;
  std::size_t lmax_pol = 32;

  std::size_t result_bytes(double k) const;
};

/// Replay the protocol for the given schedule on n_workers virtual nodes.
/// worker_speed (optional) holds a per-worker speed multiplier — the
/// paper's heterogeneous PSC environment (C90 master driving T3D nodes)
/// or mixed-generation clusters; empty means all nodes at speed 1, and a
/// worker's compute time for k is cost(k) / speed.
/// trace (optional) receives the replay's spans/assigns/messages stamped
/// with *virtual* times; the caller closes it with
/// finish(n_workers, result.wallclock_seconds) and can then derive the
/// same RunReport the real drivers produce.
VirtualRunResult simulate_virtual_cluster(
    const KSchedule& schedule, int n_workers, const CostModel& cost,
    const LinkModel& link, const MessageSizer& sizer,
    const std::vector<double>& worker_speed = {},
    TraceRecorder* trace = nullptr);

}  // namespace plinger::parallel
