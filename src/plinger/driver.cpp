#include "plinger/driver.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/timing.hpp"
#include "cosmo/background.hpp"
#include "cosmo/thermo_cache.hpp"
#include "store/mode_result_store.hpp"

namespace plinger::parallel {

using boltzmann::ModeEvolver;
using boltzmann::ModeResult;

store::RunIdentity store_identity(const cosmo::CosmoParams& params,
                                  const boltzmann::PerturbationConfig& cfg,
                                  const KSchedule& schedule,
                                  const RunSetup& setup) {
  // LOS runs write sample-bearing records under an LOS-extended
  // identity, so a hierarchy journal can never cross-resume with an LOS
  // run (and vice versa).
  if (!setup.los.enabled) {
    return store::run_identity(params, cfg, schedule.k_grid(),
                               setup.tau_end, setup.lmax_cap);
  }
  return store::run_identity(
      params, cfg, schedule.k_grid(), setup.tau_end, setup.lmax_cap,
      store::LosIdentity{setup.los.lmax_evolve, setup.los.sample_taus,
                         setup.los.k_crossover});
}

namespace {

/// The per-run thermo cache: the one the caller prebuilt (RunSetup::
/// thermo, e.g. a batched run reusing a RunContext), or a fresh build.
std::shared_ptr<const cosmo::ThermoCache> run_cache(
    const cosmo::Background& bg, const cosmo::Recombination& rec,
    const RunSetup& setup) {
  if (setup.thermo) return setup.thermo;
  return std::make_shared<const cosmo::ThermoCache>(bg, rec);
}

/// The one request shaper: LOS pins every mode to the short hierarchy
/// and attaches the shared source sample times; otherwise the photon
/// tower follows k tau_end, bounded by lmax_cap.  solver=auto routes
/// modes below los.k_crossover through the hierarchy branch — at low k
/// lmax_photon_for_k is already small, so LOS source sampling costs
/// more than the short hierarchy saves.
void shape_request(boltzmann::EvolveRequest& req, const RunSetup& setup,
                   double tau_end) {
  if (setup.los.enabled &&
      !(setup.los.k_crossover > 0.0 && req.k < setup.los.k_crossover)) {
    req.lmax_photon = setup.los.lmax_evolve;
    req.sample_taus = setup.los.sample_taus;
  } else if (setup.lmax_cap > 0.0) {
    req.lmax_photon = boltzmann::lmax_photon_for_k(
        req.k, tau_end, static_cast<std::size_t>(setup.lmax_cap));
    if (setup.los.enabled) {
      // solver=auto reroute: this mode's EE/TE contribution must reach
      // as far as the LOS branch projects, so the G tower rides the
      // full per-k photon tower instead of the run-level polarization
      // setting (G_l is negligible beyond k tau0 — this is
      // completeness, not extra physics).
      req.lmax_polarization = req.lmax_photon;
    }
  }
}

/// The one per-mode path, run by the serial loop, the autotask cursor
/// and every worker rank (in-process or in a plinger_worker process),
/// so a mode's result cannot depend on who computes it: resolve
/// tau_end = 0 to the conformal age, shape the request, evolve.
ModeResult run_mode(const ModeEvolver& evolver, const RunSetup& setup,
                    double k) {
  const double tau_end = setup.tau_end > 0.0
                             ? setup.tau_end
                             : evolver.background().conformal_age();
  boltzmann::EvolveRequest req;
  req.k = k;
  shape_request(req, setup, tau_end);
  return evolver.evolve(req, tau_end);
}

/// A run's books and the one place its results land, shared by the
/// serial loop, the autotask cursor and the master.  Opening it starts
/// the wallclock and the optional trace recorder and binds the journal
/// named in setup.store (validating the run identity).  On resume the
/// journaled modes enter the output up front, as zero-cost spans on the
/// trace's synthetic "worker 0" (store) row — completed-mode counts but
/// no busy time, CPU, or flops — and issue() becomes the residual
/// schedule.  Each computed mode is appended to the journal, then
/// counted, then kept; locked, because autotask workers sink
/// concurrently.
class ModeSink {
 public:
  ModeSink(const cosmo::Background& bg,
           const boltzmann::PerturbationConfig& cfg,
           const KSchedule& schedule, const RunSetup& setup, int n_workers)
      : schedule_(schedule) {
    out_.n_workers = n_workers;
    if (setup.trace.enabled) {
      recorder_ = std::make_shared<TraceRecorder>(setup.trace);
    }
    if (setup.store.path.empty()) return;
    store_ = std::make_unique<store::ModeResultStore>(
        setup.store, store_identity(bg.params(), cfg, schedule, setup),
        schedule.size());
    if (!setup.store.resume || store_->n_loaded() == 0) return;
    for (const auto& [ik, r] : store_->loaded()) {
      if (recorder_) {
        const double t = recorder_->now();
        recorder_->record_span(ik, r.k, /*worker=*/0, /*completed=*/true,
                               t, t, 0.0, 0);
      }
      out_.results.emplace(ik, r);
    }
    out_.n_modes_loaded = store_->n_loaded();
    std::vector<std::size_t> remaining;
    for (std::size_t ik = schedule.ik_first(); ik != 0;
         ik = schedule.ik_next(ik)) {
      if (!store_->contains(ik)) remaining.push_back(ik);
    }
    residual_ = schedule.residual(remaining);
  }

  void operator()(std::size_t ik, ModeResult r) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (store_) store_->append(ik, r);
    ++out_.n_modes_computed;
    out_.total_worker_cpu_seconds += r.cpu_seconds;
    out_.total_flops += r.flops;
    out_.results.emplace(ik, std::move(r));
  }

  /// Shared: a world's message tap may outlive the run (see
  /// run_master_over).
  const std::shared_ptr<TraceRecorder>& recorder() const {
    return recorder_;
  }
  const KSchedule& issue() const {
    return residual_ ? *residual_ : schedule_;
  }
  /// The store's flush-then-stop hook.
  bool stop_requested() const {
    return store_ != nullptr && store_->stop_requested();
  }
  RunOutput& out() { return out_; }

  /// Close the books: stamp the wallclock and attach the trace.
  RunOutput finish() {
    out_.wallclock_seconds = wallclock_seconds() - w0_;
    if (recorder_) {
      out_.trace =
          std::make_shared<const Trace>(recorder_->finish(out_.n_workers));
    }
    return std::move(out_);
  }

 private:
  const double w0_ = wallclock_seconds();
  std::mutex mutex_;  ///< guards out_ and the appends while sinking
  RunOutput out_;
  std::shared_ptr<TraceRecorder> recorder_;
  std::unique_ptr<store::ModeResultStore> store_;
  const KSchedule& schedule_;
  std::optional<KSchedule> residual_;
};

/// The in-process loops' step: run_mode under its trace span, then the
/// sink.
void compute_mode(std::size_t ik, int worker, const ModeEvolver& evolver,
                  const RunSetup& setup, ModeSink& sink) {
  TraceRecorder* recorder = sink.recorder().get();
  const double k = sink.issue().k_of_ik(ik);
  if (recorder) recorder->record_assign(ik, worker);
  const double t0 = recorder ? recorder->now() : 0.0;
  ModeResult r = run_mode(evolver, setup, k);
  if (recorder) {
    recorder->record_span(ik, k, worker, /*completed=*/true, t0,
                          recorder->now(), r.cpu_seconds, r.flops);
  }
  sink(ik, std::move(r));
}

/// The first exception any worker thread throws, rethrown on the
/// calling thread once the threads are joined.
class FirstError {
 public:
  void capture() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr error_;
};

/// A worker rank's whole life over `world`, in a thread or in a
/// plinger_worker process: the Appendix-A worker loop with run_mode as
/// its step.  Shaping reads `setup`, so the loop refuses a tag-1
/// broadcast whose tau_end or lmax_cap disagrees with it — no request
/// is shaped from a value the master did not hash.
void serve_worker(mp::InProcWorld& world, int rank,
                  const ModeEvolver& evolver, const KSchedule& schedule,
                  const RunSetup& setup, TraceRecorder* recorder) {
  mp::PassContext ctx = mp::initpass(world, rank);
  run_worker(
      ctx, schedule,
      [&evolver, &setup](const boltzmann::EvolveRequest& req, double) {
        return run_mode(evolver, setup, req.k);
      },
      recorder, &setup);
  mp::endpass(ctx);
}

/// A worker that dies right after delivering the run's final result can
/// leave its tag-7 death notice unread: the master exits the moment the
/// schedule completes, and that exit is indistinguishable from a clean
/// shutdown.  Once sends are quiescent (threads joined, or the TCP run
/// wound down) a non-blocking sweep settles the accounting.
void sweep_late_notices(mp::InProcWorld& world, RunOutput& out,
                        TraceRecorder* recorder) {
  while (const auto pr =
             world.probe_for(0, mp::kAnySource, mp::kAnyTag, 0.0)) {
    std::vector<double> buf(pr->length, 0.0);
    world.recv(0, pr->source, pr->tag, buf);
    if (pr->tag != kTagError || buf.size() < 2 ||
        buf[1] != kFailureCodeWorkerLost) {
      continue;  // a stale non-failure message; drop it
    }
    auto& lost = out.master.lost_workers;
    if (std::find(lost.begin(), lost.end(), pr->source) == lost.end()) {
      lost.push_back(pr->source);
      if (recorder) {
        recorder->record_fault(FaultEvent::Kind::worker_lost, pr->source,
                               0);
      }
    }
  }
}

/// Starts the worker ranks of an in-process world and hands back their
/// threads; the master body joins them before the late-notice sweep.
using StartWorkers =
    std::function<std::vector<std::jthread>(TraceRecorder*)>;

/// Rank 0 of `world`, shared by the threads and tcp drivers.  The
/// master loop issues the residual schedule and checkpoints in the sink
/// as each result arrives — workers never see the store, keep the base
/// schedule (same grid, same ik -> k mapping) and stay oblivious.
/// `start_workers` runs once the message tap is in place; the tcp
/// driver's worker processes are already connected and need none.  A
/// TcpWorld counts both directions at the master, so the tap sees the
/// same tag traffic as in-process.
RunOutput run_master_over(mp::InProcWorld& world,
                          const cosmo::Background& bg,
                          const boltzmann::PerturbationConfig& cfg,
                          const KSchedule& schedule, const RunSetup& setup,
                          const StartWorkers& start_workers = {}) {
  ModeSink sink(bg, cfg, schedule, setup, world.size() - 1);
  TraceRecorder* recorder = sink.recorder().get();
  if (recorder && setup.trace.capture_messages) {
    // The tap keeps the recorder alive: the world outlives this run (a
    // tcp caller keeps its world; a fault-injecting world joins delayed
    // deliveries only in its destructor), and sends go on reaching it.
    world.set_send_observer(
        [owner = sink.recorder()](int from, int to, int tag,
                                  std::size_t bytes) {
          owner->record_message(tag, from, to, bytes);
        });
  }
  // Declared after the sink, so an exception out of the master loop
  // joins the threads before the recorder they write to goes away.
  std::vector<std::jthread> workers;
  if (start_workers) workers = start_workers(recorder);

  RunOutput& out = sink.out();
  mp::PassContext ctx = mp::initpass(world, 0);
  out.master = run_master(ctx, sink.issue(), setup, std::ref(sink),
                          recorder,
                          [&sink] { return sink.stop_requested(); });
  mp::endpass(ctx);
  // After a join every notice is guaranteed queued; over TCP there is no
  // join barrier, so a notice racing the final result is best-effort.
  workers.clear();
  sweep_late_notices(world, out, recorder);
  out.n_modes_reassigned = out.master.n_reassigned;
  out.n_workers_lost = out.master.lost_workers.size();
  out.completed_degraded = out.n_workers_lost > 0 ||
                           !out.master.quarantined_ik.empty() ||
                           !out.master.failed_ik.empty() ||
                           out.master.all_workers_lost;
  out.transport = world.stats();
  return sink.finish();
}

}  // namespace

RunOutput run_linger_serial(const cosmo::Background& bg,
                            const cosmo::Recombination& rec,
                            const boltzmann::PerturbationConfig& cfg,
                            const KSchedule& schedule,
                            const RunSetup& setup) {
  ModeSink sink(bg, cfg, schedule, setup, 1);
  const ModeEvolver evolver(bg, rec, cfg, run_cache(bg, rec, setup));
  // The serial main loop in k (paper §4: "The main loop of the serial
  // code is in k"), walked in the schedule's issue order (only the
  // residual modes when resuming from a store).
  const KSchedule& issue = sink.issue();
  for (std::size_t ik = issue.ik_first();
       ik != 0 && !sink.stop_requested(); ik = issue.ik_next(ik)) {
    compute_mode(ik, 1, evolver, setup, sink);
  }
  return sink.finish();
}

RunOutput run_linger_autotask(const cosmo::Background& bg,
                              const cosmo::Recombination& rec,
                              const boltzmann::PerturbationConfig& cfg,
                              const KSchedule& schedule,
                              const RunSetup& setup, int n_threads) {
  PLINGER_REQUIRE(n_threads >= 1, "run_linger_autotask: need >= 1 thread");
  ModeSink sink(bg, cfg, schedule, setup, n_threads);
  // Flatten the issue order once, then hand out items via an atomic
  // cursor (the loop-level self-scheduling Autotasking provided).
  std::vector<std::size_t> order;
  for (std::size_t ik = sink.issue().ik_first(); ik != 0;
       ik = sink.issue().ik_next(ik)) {
    order.push_back(ik);
  }
  std::atomic<std::size_t> cursor{0};
  FirstError error;
  // One fused thermo/background cache per run, shared read-only by every
  // worker thread (immutable after construction, so no synchronization).
  const auto cache = run_cache(bg, rec, setup);
  {
    std::vector<std::jthread> threads;
    // Worker ids 1..n, as PLINGER numbers its worker ranks.
    for (int worker = 1; worker <= n_threads; ++worker) {
      threads.emplace_back([&, worker] {
        try {
          const ModeEvolver evolver(bg, rec, cfg, cache);
          while (!sink.stop_requested()) {  // flush-then-stop hook
            const std::size_t i = cursor.fetch_add(1);
            if (i >= order.size()) break;
            compute_mode(order[i], worker, evolver, setup, sink);
          }
        } catch (...) {
          error.capture();
        }
      });
    }
  }
  error.rethrow();
  return sink.finish();
}

RunOutput run_plinger_threads(const cosmo::Background& bg,
                              const cosmo::Recombination& rec,
                              const boltzmann::PerturbationConfig& cfg,
                              const KSchedule& schedule,
                              const RunSetup& setup, int n_workers,
                              mp::Library library) {
  PLINGER_REQUIRE(n_workers >= 1, "run_plinger_threads: need >= 1 worker");
  // The plain world, or the fault-injecting decorator when the setup
  // carries an injection plan (tests and fault drills).  The protocol
  // layer sees only the InProcWorld interface either way.
  std::unique_ptr<mp::InProcWorld> world;
  if (setup.inject.empty()) {
    world = std::make_unique<mp::InProcWorld>(n_workers + 1, library);
  } else {
    world = std::make_unique<mp::FaultInjectingWorld>(
        n_workers + 1, setup.inject, library);
  }
  // Worker exceptions are captured and rethrown on the calling thread
  // after the join.
  FirstError error;
  RunOutput out = run_master_over(
      *world, bg, cfg, schedule, setup, [&](TraceRecorder* recorder) {
        // One read-only thermo cache for all workers, built inside the
        // run's wallclock as in the other drivers.
        const auto cache = run_cache(bg, rec, setup);
        std::vector<std::jthread> threads;
        for (int rank = 1; rank <= n_workers; ++rank) {
          threads.emplace_back([&, rank, recorder, cache] {
            try {
              serve_worker(*world, rank, ModeEvolver(bg, rec, cfg, cache),
                           schedule, setup, recorder);
            } catch (const mp::RankKilled&) {
              // Simulated process death (fault injection): the master's
              // recovery path owns the fallout; the thread just ends.
            } catch (...) {
              error.capture();
            }
          });
        }
        return threads;
      });
  error.rethrow();
  return out;
}

RunOutput run_plinger_tcp(const cosmo::Background& bg,
                          const cosmo::Recombination& rec,
                          const boltzmann::PerturbationConfig& cfg,
                          const KSchedule& schedule, const RunSetup& setup,
                          mp::TcpWorld& world) {
  // The master never integrates, so the recombination tables are only
  // part of the signature for symmetry with the other drivers.
  (void)rec;
  PLINGER_REQUIRE(world.local_rank() == 0,
                  "run_plinger_tcp: the master must hold rank 0");
  return run_master_over(world, bg, cfg, schedule, setup);
}

void run_plinger_tcp_worker(const cosmo::Background& bg,
                            const cosmo::Recombination& rec,
                            const boltzmann::PerturbationConfig& cfg,
                            const KSchedule& schedule,
                            const RunSetup& setup, mp::TcpWorld& world) {
  PLINGER_REQUIRE(world.local_rank() >= 1,
                  "run_plinger_tcp_worker: rank 0 is the master");
  const ModeEvolver evolver(bg, rec, cfg, run_cache(bg, rec, setup));
  try {
    serve_worker(world, world.local_rank(), evolver, schedule, setup,
                 nullptr);
  } catch (const mp::PeerLost&) {
    // The master is gone; whatever it still wanted is unknowable.  The
    // worker winds down cleanly — master-side recovery owns the rest.
  }
}

}  // namespace plinger::parallel
