#pragma once

/// SpectrumService — the memoizing three-tier answer path behind the
/// spectrum_serve daemon (and directly embeddable: the TCP front end in
/// serve/server.hpp is a thin shell over this).
///
/// A request is a validated RunConfig; the answer is the rendered
/// spectra product.  The service answers from, in order:
///
///   tier 1  an LRU of finished answers keyed by the pinned 64-bit run
///           identity (store/identity.hpp) — the hash that has been
///           stable across refactors since the checkpoint store landed,
///   tier 2  the persistent journal store: a complete journal written
///           under journal_dir/<identity>.pj answers without recompute
///           (read-through via store::read_journal + the run layer's
///           output_from_results), so a daemon restart keeps its memory,
///   tier 3  compute via RunPlan::execute(), bounded by compute_slots
///           concurrent executions, checkpointing into the journal so
///           the computation itself is crash-safe and resumable.
///
/// Identical concurrent requests coalesce: the first computes, the
/// rest wait on its shared_future (the ContextCache pattern) and
/// receive the *same* immutable answer body — N concurrent
/// identical requests cost exactly one computation, and the coalescing
/// test pins the responses bitwise identical.  Progress for everyone
/// waiting streams through a per-computation ProgressHub fed by the
/// driver's result sink (RunSetup::progress), one notification per
/// landed mode.
///
/// Contexts (Background/Recombination/ThermoCache) come from a
/// run::ContextCache of context_capacity cosmologies, so a miss on a
/// known cosmology pays only the integration, not the thermodynamics
/// rebuild.

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <vector>

#include "run/config.hpp"
#include "run/context.hpp"
#include "serve/lru.hpp"

namespace plinger::run {
class RunPlan;
}

namespace plinger::serve {

struct ServeOptions {
  /// Journal directory for tier 2 / persistent memoization; one journal
  /// per identity, named <identity-hex>.pj.  Empty disables persistence
  /// (the service is then LRU-only and forgets on restart).
  std::string journal_dir;

  /// Finished answers kept in memory (tier 1).  0 disables the LRU.
  std::size_t lru_capacity = 64;

  /// Byte budget over the rendered-reply sizes held in the LRU; 0
  /// leaves eviction purely count-based.  With a budget, memory tracks
  /// what cached replies actually weigh (a high-l_max reply is
  /// thousands of CL lines; a draft one a handful), not how many
  /// identities happen to be hot.
  std::size_t lru_max_bytes = 0;

  /// Concurrent RunPlan::execute() calls (each still uses its config's
  /// own driver/worker settings internally).
  int compute_slots = 2;

  /// Cached RunContexts (distinct cosmologies); oldest-built evicted.
  std::size_t context_capacity = 16;

  /// Test/ops hook: called by the building thread immediately before a
  /// tier-3 computation starts (after the request is registered as
  /// in-flight, so a blocked hook holds the computation open for
  /// coalescing tests and drain drills).
  std::function<void()> on_compute;
};

/// Which tier satisfied (or is satisfying) a request.
enum class Tier { lru, journal, compute };
const char* tier_name(Tier t);

/// The immutable, shared result of answering one identity.  `payload`
/// is the rendered response body from the first line after the OK
/// status line through "DONE\n" — coalesced requests hand out the same
/// object, so their responses are bitwise identical.
struct AnswerBody {
  std::uint64_t identity = 0;
  Tier built_tier = Tier::compute;  ///< how this body was produced
  std::size_t modes = 0;
  std::size_t l_max = 0;
  bool degraded = false;  ///< faults lost modes; body not cached
  std::string payload;    ///< [DEGRADED...] CL... COBE... DONE
};

struct Answer {
  Tier tier = Tier::compute;  ///< how THIS request was satisfied
  std::shared_ptr<const AnswerBody> body;
};

/// Streamed progress: landed modes out of the schedule total.
using ProgressFn = std::function<void(std::size_t done, std::size_t total)>;

/// Counters for the STATS command and the bench harness.
struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t lru_hits = 0;
  std::uint64_t journal_hits = 0;
  std::uint64_t computes = 0;
  std::uint64_t coalesced = 0;  ///< requests that joined an in-flight build
  std::size_t lru_size = 0;
  std::size_t lru_bytes = 0;          ///< rendered-reply bytes resident
  std::size_t lru_evicted_bytes = 0;  ///< cumulative bytes evicted
  std::size_t in_flight = 0;
};

/// Fans one computation's progress out to every coalesced subscriber.
class ProgressHub {
 public:
  void subscribe(ProgressFn fn);
  void notify(std::size_t done, std::size_t total);

 private:
  std::mutex mutex_;
  std::vector<ProgressFn> sinks_;
};

class SpectrumService {
 public:
  explicit SpectrumService(ServeOptions opts);

  SpectrumService(const SpectrumService&) = delete;
  SpectrumService& operator=(const SpectrumService&) = delete;

  /// Answer one request.  `progress` (optional) receives streamed
  /// completion counts while a tier-3 computation runs — including when
  /// this request coalesced onto another's computation.  Throws
  /// InvalidArgument on an invalid config; a builder's exception is
  /// rethrown to every coalesced waiter.
  Answer answer(const run::RunConfig& cfg, const ProgressFn& progress = {});

  ServeStats stats() const;

  /// Where this identity's journal lives ("" without a journal_dir).
  std::string journal_path(std::uint64_t identity) const;

 private:
  using BodyFuture =
      std::shared_future<std::shared_ptr<const AnswerBody>>;
  struct InFlight {
    BodyFuture future;
    std::shared_ptr<ProgressHub> hub;
  };

  std::shared_ptr<const AnswerBody> build_answer(
      run::RunPlan& plan, std::uint64_t identity,
      const std::shared_ptr<ProgressHub>& hub);

  ServeOptions opts_;
  run::ContextCache contexts_;
  /// The compute gate: compute_slots concurrent RunPlan::execute() calls.
  std::counting_semaphore<> slots_;

  mutable std::mutex mutex_;
  LruCache<AnswerBody> lru_;
  std::map<std::uint64_t, InFlight> inflight_;
  ServeStats stats_;
};

/// The full response text for an answer: the OK status line (which
/// names the satisfying tier) followed by the shared payload.
std::string render_response(const Answer& answer);

}  // namespace plinger::serve
