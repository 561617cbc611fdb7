#pragma once

/// Run drivers: four ways to run one map over the k-schedule, plus the
/// worker side of the cross-process one.
///
///  * run_linger_serial   — LINGER, the serial code: an inline loop in k.
///  * run_linger_autotask — the C90 Autotasking route: threads pulling
///    work items from an atomic cursor, no messages.
///  * run_plinger_threads — PLINGER: rank 0 runs the Appendix-A master
///    loop on the calling thread, worker ranks run on std::jthread, all
///    over an in-process World.
///  * run_plinger_tcp     — the same master over a TcpWorld whose worker
///    ranks are plinger_worker processes (run_plinger_tcp_worker).
///
/// Every driver computes a mode through one per-mode path (driver.cpp's
/// ModeRunner, built once per process per run and shared read-only by
/// all its workers: shape the request from RunSetup, evolve, and on the
/// line-of-sight route project the sources onto F_l/G_l towers) and
/// lands it in one sink (shape check, journal append, then counters,
/// then RunOutput::results and RunSetup::progress), so results are
/// identical mode for mode whoever computes them (the driver-equivalence
/// sweep asserts it bitwise) and every mode has the shape of a
/// hierarchy mode.
///
/// Timing mirrors the paper's Figure 1: total CPU time summed over
/// workers (their etime) and master wallclock.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "boltzmann/mode_evolution.hpp"
#include "common/error.hpp"
#include "mp/inproc.hpp"
#include "mp/tcp_world.hpp"
#include "plinger/protocol.hpp"
#include "plinger/schedule.hpp"
#include "plinger/trace.hpp"
#include "store/identity.hpp"

namespace plinger::parallel {

/// A result on the line-of-sight route that is not a projected tower of
/// RunSetup::los.l_max + 1 entries (results are bytes from outside the
/// process).  The sink throws it before the journal append, and the
/// master then stops its workers.
class MisshapedResult : public Error {
 public:
  explicit MisshapedResult(const std::string& what) : Error(what) {}
};

/// One run's collected output: results keyed by 1-based work index, and
/// the paper-style timing/accounting summary.
struct RunOutput {
  std::map<std::size_t, boltzmann::ModeResult> results;
  double wallclock_seconds = 0.0;
  /// Sum of per-mode ModeResult::cpu_seconds: evolution CPU only, so a
  /// line-of-sight run's projection is not in it.
  double total_worker_cpu_seconds = 0.0;
  std::uint64_t total_flops = 0;
  mp::TransportStats transport;  ///< zeros for the serial driver
  MasterStats master;            ///< fault-handling accounting
  int n_workers = 0;
  /// Checkpoint/resume accounting: modes recovered from the store vs
  /// integrated this run (loaded + computed == results.size() unless
  /// some modes failed).  Nothing loads when RunSetup::store is off.
  std::size_t n_modes_loaded = 0;
  std::size_t n_modes_computed = 0;
  /// Degraded-completion accounting (mirrors MasterStats): modes that
  /// re-entered the schedule after a worker death or stall, workers
  /// declared lost, and whether the run finished on a reduced pool or
  /// gave up work (lost workers, quarantined or failed modes, or an
  /// all-workers-lost abort).  Results that did complete are still
  /// bitwise identical to a fault-free run.
  std::size_t n_modes_reassigned = 0;
  std::size_t n_workers_lost = 0;
  bool completed_degraded = false;
  /// Per-mode/per-worker event trace; null unless RunSetup::trace
  /// enabled it.  Feed to make_run_report() / write_chrome_trace().
  std::shared_ptr<const Trace> trace;

  /// Paper §5.2: (total CPU time) / (wallclock x number of workers).
  /// 0 for degenerate runs (no workers, or a fully resumed / trivial
  /// run whose wallclock or CPU total is zero).  On line-of-sight runs
  /// it counts evolution CPU only, while the wallclock also covers the
  /// workers' projection, so it reads lower than the workers' real
  /// occupancy.
  double parallel_efficiency() const {
    if (n_workers <= 0 || wallclock_seconds <= 0.0) return 0.0;
    return total_worker_cpu_seconds /
           (wallclock_seconds * static_cast<double>(n_workers));
  }
  /// Aggregate sustained flop rate (paper §5.1 analogue); 0 when no
  /// wallclock elapsed (e.g. every mode came from the store).
  double flops_per_second() const {
    if (wallclock_seconds <= 0.0) return 0.0;
    return static_cast<double>(total_flops) / wallclock_seconds;
  }
};

/// The identity of a run (store/identity.hpp): the base hash over the
/// cosmology, recombination options, perturbation config, k-grid,
/// tau_end and lmax_cap, salted with the LOS shaping when setup.los is
/// enabled.  Drivers stamp and check journals with it, the master
/// broadcasts it, each worker admits only its own, and
/// run::RunPlan::identity() reports it.
store::RunIdentity store_identity(const cosmo::Background& bg,
                                  const cosmo::Recombination& rec,
                                  const boltzmann::PerturbationConfig& cfg,
                                  const KSchedule& schedule,
                                  const RunSetup& setup);

/// Serial LINGER run.
RunOutput run_linger_serial(const cosmo::Background& bg,
                            const cosmo::Recombination& rec,
                            const boltzmann::PerturbationConfig& cfg,
                            const KSchedule& schedule,
                            const RunSetup& setup);

/// Shared-memory loop-level parallel LINGER — the analogue of running
/// the serial code under Cray Autotasking on the C90 (paper §3: "it is
/// more efficient to use Cray's Autotasking directives to parallelize
/// the serial code").  No message passing: n_threads workers pull the
/// next work item from a shared atomic cursor over the schedule.
/// Results are identical to the serial driver mode for mode.
RunOutput run_linger_autotask(const cosmo::Background& bg,
                              const cosmo::Recombination& rec,
                              const boltzmann::PerturbationConfig& cfg,
                              const KSchedule& schedule,
                              const RunSetup& setup, int n_threads);

/// Threaded PLINGER run with n_workers worker ranks (world size
/// n_workers + 1).  The worker ranks share one mode runner read-only.
RunOutput run_plinger_threads(const cosmo::Background& bg,
                              const cosmo::Recombination& rec,
                              const boltzmann::PerturbationConfig& cfg,
                              const KSchedule& schedule,
                              const RunSetup& setup, int n_workers,
                              mp::Library library = mp::Library::mpisim);

/// Master side of a cross-process PLINGER run over a TcpWorld that has
/// already accepted its workers (mp/tcp_world.hpp).  Same semantics and
/// accounting as run_plinger_threads — store binding, trace hooks, the
/// full recovery machinery — with the worker ranks living in other
/// processes: a dropped connection surfaces as the tag-7 death notice
/// and the mode is reassigned.  Completed results are bitwise identical
/// to the in-process drivers.
RunOutput run_plinger_tcp(const cosmo::Background& bg,
                          const cosmo::Recombination& rec,
                          const boltzmann::PerturbationConfig& cfg,
                          const KSchedule& schedule, const RunSetup& setup,
                          mp::TcpWorld& world);

/// Worker side of a cross-process run: serve the remote master until
/// stopped.  Shapes and projects every request from `setup` exactly as
/// the in-process drivers do, so results are bitwise identical; the
/// process builds its own mode runner and projection table.  It joins
/// only a run whose broadcast identity is store_identity() of its own
/// inputs: otherwise it sends the master its own tag-7 death notice and
/// throws plinger::Error.  Returns quietly when the master link goes
/// down — a worker outliving its master has nothing left to do.
void run_plinger_tcp_worker(const cosmo::Background& bg,
                            const cosmo::Recombination& rec,
                            const boltzmann::PerturbationConfig& cfg,
                            const KSchedule& schedule,
                            const RunSetup& setup, mp::TcpWorld& world);

}  // namespace plinger::parallel
