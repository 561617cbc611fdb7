#pragma once

/// The PLINGER master/worker protocol (paper Appendix A).
///
/// Tags (see docs/protocol.md for payload layouts and sequence
/// diagrams):
///   1 - first message from master to workers (run setup and identity)
///   2 - from worker: asking for a wavenumber
///   3 - from master: giving worker a wavenumber to work on
///   4 - from worker: first set of data and lmax (21-double header)
///   5 - from worker: moment payload (length depends on lmax)
///   6 - from master: telling worker to stop
///   7 - failure path (our extension): an integration-failure report
///       from a live worker, or a worker-lost death notice
///
/// The master and worker loops below are direct transliterations of the
/// paper's parentsub/kidsub pseudo-code onto the wrapper API, with two
/// robustness additions the Fortran original lacked:
///
///  * the master keeps serving tag-2 requests until every worker has
///    been sent its stop message, so no worker can be left blocked when
///    the run ends (the original exits as soon as the last result
///    arrives, relying on process teardown to reap idle workers);
///  * the master survives worker death.  A dead or wedged worker is
///    detected either by a tag-7 death notice (the PVM pvm_notify
///    analogue, injected by the transport) or by a per-worker deadline
///    scaled by the mode's k / k_max; its outstanding mode re-enters
///    the residual schedule largest-k-first, bounded by a reassignment
///    cap and a quarantine list for poison modes.  The run then
///    completes degraded on the surviving workers with bitwise-identical
///    results.

#include <functional>
#include <memory>
#include <vector>

#include "boltzmann/mode_evolution.hpp"
#include "mp/fault_world.hpp"
#include "mp/wrappers.hpp"
#include "plinger/schedule.hpp"
#include "plinger/trace.hpp"
#include "store/identity.hpp"
#include "store/options.hpp"

namespace plinger::cosmo {
class ThermoCache;
}

namespace plinger::parallel {

/// Protocol tags (Appendix A table; tag 7 is our robustness extension —
/// the Fortran original would simply crash the run).
enum Tag : int {
  kTagInit = 1,
  kTagRequest = 2,
  kTagAssign = 3,
  kTagHeader = 4,
  kTagPayload = 5,
  kTagStop = 6,
  kTagError = 7,  ///< failure path: {ik, code}; see codes below
};

/// Tag-7 failure codes (payload slot 1).  A one-double tag-7 payload is
/// the legacy integration-failure form and is read as code 0.
inline constexpr double kFailureCodeRetry = 0.0;       ///< requeue ik
inline constexpr double kFailureCodeWorkerLost = 1.0;  ///< died/refused

/// Master-side fault handling knobs.  Host-side only — never broadcast.
struct FaultConfig {
  /// Per-mode stall deadline: a worker that holds an assignment longer
  /// than timeout_floor_seconds + timeout_seconds * (k / largest k of
  /// the schedule) is declared lost and its mode reassigned.  0
  /// disables stall detection (death notices still work).
  double timeout_seconds = 0.0;
  double timeout_floor_seconds = 0.05;
  /// Integration-failure retries per mode (tag-7 code 0) before the
  /// mode lands in MasterStats::failed_ik.
  int max_retries = 2;
  /// Reassignments per mode (worker death / stall) before the mode is
  /// quarantined as poison rather than handed to yet another victim.
  int max_reassignments = 3;
};

/// Host-side line-of-sight run shaping (solver=los in the run layer):
/// every request is pinned to the same short hierarchy and the same
/// source sample times, and the worker that evolved a mode projects it
/// onto F_l/G_l towers for l = 0..l_max.  Never broadcast — the mode
/// then travels as an ordinary version-0 record (plinger/records.hpp),
/// without any protocol change.
struct LosRunSpec {
  bool enabled = false;
  std::size_t lmax_evolve = 0;       ///< short hierarchy for every mode
  std::vector<double> sample_taus;   ///< shared source sample times
  std::size_t l_max = 0;             ///< projected tower: l = 0..l_max
};

/// Run setup.  run_master derives the tag-1 broadcast ("a few quantities
/// ... such as the time at which to end the evolution and the maximum
/// number of angular moments l to compute"; 5 doubles as in the paper's
/// parentsub) from tau_end, lmax_cap, the grid size and the identity.
struct RunSetup {
  double tau_end = 0.0;    ///< 0 selects the conformal age
  double lmax_cap = 12000;  ///< photon hierarchy cap

  /// Host-side run tracing (trace.hpp); never broadcast.
  TraceConfig trace;

  /// Host-side live progress; never broadcast.  The drivers' result
  /// sink calls it under its lock once per result entering
  /// RunOutput::results: the journal-loaded ones at open, in ik order,
  /// then each computed one right after its journal append.  `landed`
  /// runs 1, 2, ... in order up to at most `total`, the schedule size.
  /// Null = off.
  std::function<void(std::size_t landed, std::size_t total)> progress;

  /// Host-side checkpoint/restart (store/mode_result_store.hpp); also
  /// never broadcast — the master checkpoints, workers are oblivious.
  store::StoreOptions store;

  /// Host-side fault handling (stall deadlines, retry/reassignment
  /// bounds); never broadcast.
  FaultConfig fault;

  /// Host-side fault *injection* plan for tests and drills: when
  /// non-empty, run_plinger_threads builds a mp::FaultInjectingWorld
  /// instead of a plain InProcWorld.  Never broadcast.
  mp::FaultPlan inject;

  /// Host-side prebuilt thermo cache, shared read-only by every worker
  /// through the process's one mode runner; null makes the runner build
  /// one per run.  A run::RunContext passes its cache here so runs over
  /// one cosmology pay the construction cost exactly once.
  /// Must have been built from the same Background/Recombination the
  /// driver is called with.  Never broadcast.
  std::shared_ptr<const cosmo::ThermoCache> thermo;

  /// Host-side line-of-sight shaping; never broadcast.  When enabled,
  /// the drivers pin every request on the LOS route to los.lmax_evolve,
  /// attach los.sample_taus, bypass lmax_cap shaping and project the
  /// evolved mode onto towers of los.l_max + 1 entries.
  LosRunSpec los;
};

/// Called by the master for every completed wavenumber, in arrival order.
using ResultSink =
    std::function<void(std::size_t ik, const boltzmann::ModeResult&)>;

/// Fault-handling accounting returned by the master.
struct MasterStats {
  std::size_t n_requeued = 0;  ///< tag-7 reports that were retried
  std::vector<std::size_t> failed_ik;  ///< exhausted their retries
  std::size_t n_unissued = 0;  ///< abandoned by an early stop
  bool stopped_early = false;  ///< the stop predicate fired

  // Degraded-completion accounting (worker death / stall recovery).
  std::size_t n_reassigned = 0;  ///< modes that re-entered the schedule
  std::vector<int> lost_workers;  ///< ranks declared dead, in order
  std::vector<std::size_t> quarantined_ik;  ///< gave up: poison modes
  bool all_workers_lost = false;  ///< run abandoned with work pending
};

/// Asked after every settled result; returning true makes the master
/// stop issuing fresh wavenumbers and wind the run down cleanly
/// (outstanding assignments still complete and are sunk).  The
/// checkpoint store's flush-then-stop hook drives this.
using StopPredicate = std::function<bool()>;

/// The master loop ("parentsub"): broadcast setup, serve wavenumbers,
/// collect results, stop every worker.  Returns when all of both has
/// happened.  The broadcast carries `identity` (store_identity()); a
/// worker of another run answers with its own death notice.  A
/// wavenumber reported failed (tag 7, code 0) is retried —
/// after the rest of the schedule, as backoff — up to
/// setup.fault.max_retries times, then recorded in
/// MasterStats::failed_ik.  A worker declared dead (tag-7 death notice,
/// or a missed per-mode deadline when setup.fault.timeout_seconds > 0)
/// has its outstanding mode reassigned largest-k-first, bounded by
/// setup.fault.max_reassignments; results are deduplicated, so a
/// stalled-but-alive worker's late result and its replacement's cannot
/// both reach the sink.
/// `trace` (optional) records tag-3 assignment events; null disables.
/// `stop_early` (optional) ends the run before the schedule is
/// exhausted; unissued wavenumbers are counted in MasterStats.
/// On a master-side exception (a sink failure such as a checkpoint
/// write error, or a protocol violation) every still-running worker is
/// sent its stop message before the exception propagates, so the
/// caller's joins cannot deadlock.
MasterStats run_master(mp::PassContext& ctx, const KSchedule& schedule,
                       const RunSetup& setup, store::RunIdentity identity,
                       const ResultSink& sink,
                       TraceRecorder* trace = nullptr,
                       const StopPredicate& stop_early = {});

/// What a worker does for one wavenumber; lets tests and alternative
/// backends substitute the integration.
using EvolveFn =
    std::function<boltzmann::ModeResult(const boltzmann::EvolveRequest&)>;

/// The worker loop ("kidsub"): receive setup, request work, integrate,
/// report, repeat until stopped.  `evolve` gets a request carrying only
/// k; sizing the hierarchy and ending the evolution are its business
/// (the drivers shape in one place, driver.cpp's ModeRunner).
/// Admission is one check: the broadcast must carry `identity`, the one
/// this worker's own inputs give (what `evolve` shapes and evolves
/// from).  Otherwise the worker sends the master a tag-7 death notice
/// for itself and throws plinger::Error naming both identities.  Any
/// exception from the evolve function is reported to the master as
/// tag 7 (code 0) and the worker keeps serving.  `trace` (optional)
/// records one ModeSpan per attempt, including the failed attempts
/// behind every tag-7 report; null disables.
void run_worker(mp::PassContext& ctx, const KSchedule& schedule,
                store::RunIdentity identity, const EvolveFn& evolve,
                TraceRecorder* trace = nullptr);

}  // namespace plinger::parallel
