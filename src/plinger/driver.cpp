#include "plinger/driver.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "boltzmann/los.hpp"
#include "boltzmann/source_table.hpp"
#include "common/timing.hpp"
#include "cosmo/background.hpp"
#include "cosmo/thermo_cache.hpp"
#include "store/mode_result_store.hpp"

namespace plinger::parallel {

using boltzmann::ModeEvolver;
using boltzmann::ModeResult;

store::RunIdentity store_identity(const cosmo::Background& bg,
                                  const cosmo::Recombination& rec,
                                  const boltzmann::PerturbationConfig& cfg,
                                  const KSchedule& schedule,
                                  const RunSetup& setup) {
  // LOS runs write projected towers under an LOS-extended identity, so
  // a hierarchy journal can never cross-resume with an LOS run (and vice
  // versa).
  const store::LosIdentity los{setup.los.lmax_evolve, setup.los.sample_taus,
                               setup.los.l_max};
  return store::run_identity(bg.params(), rec.options(), cfg,
                             schedule.k_grid(), setup.tau_end,
                             setup.lmax_cap,
                             setup.los.enabled ? &los : nullptr);
}

namespace {

/// The one request shaper: a line-of-sight run pins every mode to the
/// short hierarchy and attaches the shared source sample times;
/// otherwise the photon tower follows k tau_end, bounded by lmax_cap.
void shape_request(boltzmann::EvolveRequest& req, const RunSetup& setup,
                   double tau_end) {
  if (setup.los.enabled) {
    req.lmax_photon = setup.los.lmax_evolve;
    req.sample_taus = setup.los.sample_taus;
  } else if (setup.lmax_cap > 0.0) {
    req.lmax_photon = boltzmann::lmax_photon_for_k(
        req.k, tau_end, static_cast<std::size_t>(setup.lmax_cap));
  }
}

/// What every worker of a run reads, built once per process and shared
/// read-only by the serial loop, every autotask thread, every worker
/// rank in-process and a plinger_worker: the evolver over the run's
/// thermo cache (RunSetup::thermo, or one fresh build), the LOS
/// projection table, tau_end (0 selects the conformal age) and the
/// identity its worker ranks admit.  Sharing is safe because
/// ModeEvolver::evolve is const and keeps its per-mode state local.
///
/// Its call is the one per-mode path, so a mode's result cannot depend
/// on who computes it: shape the request, evolve, and project a mode
/// that recorded line-of-sight sources onto F_l/G_l towers for l =
/// 0..los.l_max, leaving it in the shape of a hierarchy mode.
/// cpu_seconds stays the evolution's own thread CPU.
struct ModeRunner {
  ModeRunner(const cosmo::Background& bg, const cosmo::Recombination& rec,
             const boltzmann::PerturbationConfig& cfg,
             const KSchedule& schedule, const RunSetup& setup)
      : setup(setup),
        identity(store_identity(bg, rec, cfg, schedule, setup)),
        tau_end(setup.tau_end > 0.0 ? setup.tau_end : bg.conformal_age()),
        evolver(bg, rec, cfg,
                setup.thermo ? setup.thermo
                             : std::make_shared<const cosmo::ThermoCache>(
                                   bg, rec)) {
    // j_l for l = 0..los.l_max + 1 (node values depend on the
    // evaluator's width, so it is fixed with the tower) out to the
    // largest k tau_end of the base schedule; node values and row
    // lengths do not depend on that range, so every process projects
    // the same bits.
    if (setup.los.enabled) {
      table.emplace(setup.los.l_max + 1,
                    std::max(1.0, schedule.k_grid().back() * tau_end));
    }
  }
  ModeRunner(const ModeRunner&) = delete;  // workers hold its address

  ModeResult operator()(double k) const {
    boltzmann::EvolveRequest req;
    req.k = k;
    shape_request(req, setup, tau_end);
    ModeResult r = evolver.evolve(req, tau_end);
    if (r.samples.empty()) return r;
    boltzmann::ProjectedMode towers = boltzmann::project_source_table(
        boltzmann::build_source_table(evolver.background(),
                                      evolver.recombination(), r),
        setup.los.l_max, *table);
    r.f_gamma = std::move(towers.f_gamma);
    r.g_gamma = std::move(towers.g_gamma);
    r.lmax = setup.los.l_max;
    r.samples = std::vector<boltzmann::TransferSample>();
    return r;
  }

  const RunSetup& setup;
  const store::RunIdentity identity;
  const double tau_end;
  const ModeEvolver evolver;
  std::optional<boltzmann::BesselTable> table;
};

/// A mode on the line-of-sight route must reach the sink as the towers
/// the run accumulates: projected, to l = 0..los.l_max.  Admission
/// already refuses a worker shaped from another l_max (the identity
/// hashes it); this checks the bytes that did arrive, which come from
/// outside the process, before the journal append.
void require_projected(std::size_t ik, double k, const ModeResult& r,
                       const RunSetup& setup) {
  if (!setup.los.enabled) return;
  const std::size_t want = setup.los.l_max + 1;
  if (r.samples.empty() && r.f_gamma.size() == want &&
      r.g_gamma.size() == want) {
    return;
  }
  std::ostringstream os;
  os << "line-of-sight mode ik " << ik << " (k = " << k
     << ") arrived with F/G towers of " << r.f_gamma.size() << "/"
     << r.g_gamma.size() << " entries"
     << (r.samples.empty() ? "" : " and unprojected source samples")
     << ", but this run projects to l_max = " << setup.los.l_max << " ("
     << want << " entries); was its worker started with another l_max?";
  throw MisshapedResult(os.str());
}

/// A run's books and the one place its results land, shared by the
/// serial loop, the autotask cursor and the master: a mode has landed
/// when, and only when, it enters the output here.  Opening it starts
/// the wallclock and the optional trace recorder and binds the journal
/// named in setup.store to the run's identity.  The journaled modes
/// land up front, as zero-cost spans on the trace's synthetic
/// "worker 0" (store) row — completed-mode counts but no busy time,
/// CPU, or flops — and issue() becomes the residual schedule.  Each
/// computed mode is shape-checked, appended to the journal, then
/// counted, then landed; locked, because autotask workers sink
/// concurrently, so setup.progress hears of every landing in order.
class ModeSink {
 public:
  ModeSink(store::RunIdentity identity, const KSchedule& schedule,
           const RunSetup& setup, int n_workers)
      : schedule_(schedule), setup_(setup) {
    out_.n_workers = n_workers;
    if (setup.trace.enabled) recorder_ = std::make_shared<TraceRecorder>();
    if (setup.store.path.empty()) return;
    store_ = std::make_unique<store::ModeResultStore>(setup.store, identity,
                                                      schedule.size());
    if (store_->n_loaded() == 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [ik, r] : store_->loaded()) {
      if (recorder_) {
        const double t = recorder_->now();
        recorder_->record_span(ik, r.k, /*worker=*/0, /*completed=*/true,
                               t, t, 0.0, 0);
      }
      land(ik, r);
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
    require_projected(ik, schedule_.k_of_ik(ik), r, setup_);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (store_) store_->append(ik, r);
    ++out_.n_modes_computed;
    out_.total_worker_cpu_seconds += r.cpu_seconds;
    out_.total_flops += r.flops;
    land(ik, std::move(r));
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
  /// Under mutex_: the result enters the output, then the progress hook
  /// hears the new count.
  void land(std::size_t ik, ModeResult r) {
    out_.results.emplace(ik, std::move(r));
    if (setup_.progress) {
      setup_.progress(out_.results.size(), schedule_.size());
    }
  }

  const double w0_ = wallclock_seconds();
  std::mutex mutex_;  ///< guards out_, the appends and the progress hook
  RunOutput out_;
  std::shared_ptr<TraceRecorder> recorder_;
  std::unique_ptr<store::ModeResultStore> store_;
  const KSchedule& schedule_;
  const RunSetup& setup_;
  std::optional<KSchedule> residual_;
};

/// The in-process loops' step: the runner under its trace span, then
/// the sink.
void compute_mode(std::size_t ik, int worker, const ModeRunner& run,
                  ModeSink& sink) {
  TraceRecorder* recorder = sink.recorder().get();
  const double k = sink.issue().k_of_ik(ik);
  if (recorder) recorder->record_assign(ik, worker);
  const double t0 = recorder ? recorder->now() : 0.0;
  ModeResult r = run(k);
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
/// plinger_worker process: the Appendix-A worker loop with the runner as
/// its step.  It admits the master's run only under the runner's
/// identity, the one its own inputs give, so no mode is computed from
/// inputs the master did not hash.
void serve_worker(mp::InProcWorld& world, int rank, const ModeRunner& run,
                  const KSchedule& schedule, TraceRecorder* recorder) {
  mp::PassContext ctx = mp::initpass(world, rank);
  run_worker(ctx, schedule, run.identity,
             [&run](const boltzmann::EvolveRequest& req) {
               return run(req.k);
             },
             recorder);
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
                          store::RunIdentity identity,
                          const KSchedule& schedule, const RunSetup& setup,
                          const StartWorkers& start_workers = {}) {
  ModeSink sink(identity, schedule, setup, world.size() - 1);
  TraceRecorder* recorder = sink.recorder().get();
  if (recorder) {
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
  out.master = run_master(ctx, sink.issue(), setup, identity,
                          std::ref(sink), recorder,
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
  ModeSink sink(store_identity(bg, rec, cfg, schedule, setup), schedule,
                setup, 1);
  const ModeRunner run(bg, rec, cfg, schedule, setup);
  // The serial main loop in k (paper §4: "The main loop of the serial
  // code is in k"), walked in the schedule's issue order (only the
  // residual modes when resuming from a store).
  const KSchedule& issue = sink.issue();
  for (std::size_t ik = issue.ik_first();
       ik != 0 && !sink.stop_requested(); ik = issue.ik_next(ik)) {
    compute_mode(ik, 1, run, sink);
  }
  return sink.finish();
}

RunOutput run_linger_autotask(const cosmo::Background& bg,
                              const cosmo::Recombination& rec,
                              const boltzmann::PerturbationConfig& cfg,
                              const KSchedule& schedule,
                              const RunSetup& setup, int n_threads) {
  PLINGER_REQUIRE(n_threads >= 1, "run_linger_autotask: need >= 1 thread");
  ModeSink sink(store_identity(bg, rec, cfg, schedule, setup), schedule,
                setup, n_threads);
  // Flatten the issue order once, then hand out items via an atomic
  // cursor (the loop-level self-scheduling Autotasking provided).
  std::vector<std::size_t> order;
  for (std::size_t ik = sink.issue().ik_first(); ik != 0;
       ik = sink.issue().ik_next(ik)) {
    order.push_back(ik);
  }
  std::atomic<std::size_t> cursor{0};
  FirstError error;
  const ModeRunner run(bg, rec, cfg, schedule, setup);
  {
    std::vector<std::jthread> threads;
    // Worker ids 1..n, as PLINGER numbers its worker ranks.
    for (int worker = 1; worker <= n_threads; ++worker) {
      threads.emplace_back([&, worker] {
        try {
          while (!sink.stop_requested()) {  // flush-then-stop hook
            const std::size_t i = cursor.fetch_add(1);
            if (i >= order.size()) break;
            compute_mode(order[i], worker, run, sink);
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
      *world, store_identity(bg, rec, cfg, schedule, setup), schedule, setup,
      [&](TraceRecorder* recorder) {
        // One runner for all worker ranks, built inside the run's
        // wallclock as in the other drivers; every rank holds it until
        // its thread ends.
        const auto run = std::make_shared<const ModeRunner>(
            bg, rec, cfg, schedule, setup);
        std::vector<std::jthread> threads;
        for (int rank = 1; rank <= n_workers; ++rank) {
          threads.emplace_back([&, rank, recorder, run] {
            try {
              serve_worker(*world, rank, *run, schedule, recorder);
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
  PLINGER_REQUIRE(world.local_rank() == 0,
                  "run_plinger_tcp: the master must hold rank 0");
  return run_master_over(world, store_identity(bg, rec, cfg, schedule, setup),
                         schedule, setup);
}

void run_plinger_tcp_worker(const cosmo::Background& bg,
                            const cosmo::Recombination& rec,
                            const boltzmann::PerturbationConfig& cfg,
                            const KSchedule& schedule,
                            const RunSetup& setup, mp::TcpWorld& world) {
  PLINGER_REQUIRE(world.local_rank() >= 1,
                  "run_plinger_tcp_worker: rank 0 is the master");
  const ModeRunner run(bg, rec, cfg, schedule, setup);
  try {
    serve_worker(world, world.local_rank(), run, schedule, nullptr);
  } catch (const mp::PeerLost&) {
    // The master is gone; whatever it still wanted is unknowable.  The
    // worker winds down cleanly — master-side recovery owns the rest.
  }
}

}  // namespace plinger::parallel
