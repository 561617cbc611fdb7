#include "serve/service.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"
#include "store/mode_result_store.hpp"

namespace plinger::serve {

namespace fs = std::filesystem;

namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Holds one compute slot until scope exit, so a computation that
/// throws gives its slot back too.
struct SlotGuard {
  explicit SlotGuard(std::counting_semaphore<>& s) : slots(s) {
    slots.acquire();
  }
  ~SlotGuard() { slots.release(); }
  SlotGuard(const SlotGuard&) = delete;
  std::counting_semaphore<>& slots;
};

}  // namespace

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::lru:
      return "lru";
    case Tier::journal:
      return "journal";
    case Tier::compute:
      return "compute";
  }
  return "?";
}

void ProgressHub::subscribe(ProgressFn fn) {
  if (!fn) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  sinks_.push_back(std::move(fn));
}

void ProgressHub::notify(std::size_t done, std::size_t total) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const ProgressFn& sink : sinks_) sink(done, total);
}

SpectrumService::SpectrumService(ServeOptions opts)
    : opts_(std::move(opts)),
      contexts_(opts_.context_capacity),
      slots_(std::max(opts_.compute_slots, 1)),  // checked below
      lru_(opts_.lru_capacity, opts_.lru_max_bytes) {
  PLINGER_REQUIRE(opts_.compute_slots >= 1,
                  "SpectrumService: compute_slots must be >= 1");
  if (!opts_.journal_dir.empty()) {
    fs::create_directories(opts_.journal_dir);
  }
}

std::string SpectrumService::journal_path(std::uint64_t identity) const {
  if (opts_.journal_dir.empty()) return "";
  return (fs::path(opts_.journal_dir) / (hex16(identity) + ".pj"))
      .string();
}

std::shared_ptr<const AnswerBody> SpectrumService::build_answer(
    run::RunPlan& plan, std::uint64_t identity,
    const std::shared_ptr<ProgressHub>& hub) {
  auto body = std::make_shared<AnswerBody>();
  body->identity = identity;

  const std::string jpath = journal_path(identity);
  parallel::RunOutput out;
  bool answered = false;
  if (!jpath.empty() && fs::exists(jpath)) {
    // Tier 2: a complete journal answers by itself; a partial or
    // damaged one falls through to a (resuming) computation.
    try {
      store::JournalContents contents = store::read_journal(jpath);
      if (contents.identity.value == identity &&
          contents.n_k == plan.schedule().size() && contents.complete()) {
        out = run::output_from_results(std::move(contents.results));
        body->built_tier = Tier::journal;
        answered = true;
      }
    } catch (const store::StoreCorrupt&) {
      // Unreadable header: recompute into a fresh journal below.
    }
  }

  if (!answered) {
    const SlotGuard slot(slots_);
    if (!jpath.empty()) {
      plan.setup().store.path = jpath;
      plan.setup().store.flush_interval = 1;
    }
    // The driver's result sink is the progress feed: it numbers each
    // landed mode (journal-loaded ones first) under its own lock, so
    // the hub hears 1, 2, ... in order.
    plan.setup().progress = [hub](std::size_t landed, std::size_t total) {
      hub->notify(landed, total);
    };
    if (opts_.on_compute) opts_.on_compute();
    out = plan.execute();
    body->built_tier = Tier::compute;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.computes;
    }
  } else {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.journal_hits;
  }

  const run::SpectrumSet spectra = run::make_spectra(plan, out);
  body->modes = out.results.size();
  body->l_max = spectra.temperature.l_max();
  body->degraded = out.completed_degraded || !out.master.failed_ik.empty();

  std::string& p = body->payload;
  if (body->degraded) {
    p += "DEGRADED workers_lost=" + std::to_string(out.n_workers_lost) +
         " reassigned=" + std::to_string(out.n_modes_reassigned) +
         " quarantined=" +
         std::to_string(out.master.quarantined_ik.size()) +
         " failed=" + std::to_string(out.master.failed_ik.size()) + "\n";
  }
  for (std::size_t l = 2; l <= body->l_max; ++l) {
    p += "CL " + std::to_string(l) + " " +
         fmt17(spectra.temperature.cl[l]) + " " +
         fmt17(spectra.polarization.cl[l]) + " " +
         fmt17(spectra.cross.cl[l]) + "\n";
  }
  // Honest polarization coverage: EE/TE entries above this l are
  // structural zeros (the G towers stopped there), not physics.
  p += "POL l_max_pol=" + std::to_string(spectra.polarization_l_max) +
       "\n";
  p += "COBE " + fmt17(spectra.cobe_factor) + "\n";
  p += "DONE\n";
  return body;
}

Answer SpectrumService::answer(const run::RunConfig& cfg_in,
                               const ProgressFn& progress) {
  run::RunConfig cfg = cfg_in;
  // The daemon owns persistence and tracing; requests cannot place
  // journals or trace files (the request parser refuses the keys, this
  // clears them for embedded callers).
  cfg.store.clear();
  cfg.trace = false;
  cfg.validate();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;
  }

  run::RunPlan plan(cfg, contexts_.get(cfg).context);
  const std::uint64_t id = plan.identity().value;

  std::promise<std::shared_ptr<const AnswerBody>> mine;
  std::shared_ptr<ProgressHub> hub;
  BodyFuture fut;
  bool builder = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (auto hit = lru_.get(id)) {
      ++stats_.lru_hits;
      return Answer{Tier::lru, hit};
    }
    const auto it = inflight_.find(id);
    if (it != inflight_.end()) {
      ++stats_.coalesced;
      fut = it->second.future;
      hub = it->second.hub;
    } else {
      hub = std::make_shared<ProgressHub>();
      fut = mine.get_future().share();
      inflight_.emplace(id, InFlight{fut, hub});
      builder = true;
    }
  }
  hub->subscribe(progress);

  if (!builder) {
    // Coalesced: wait for the builder; its exception is ours too.
    const auto body = fut.get();
    return Answer{body->built_tier, body};
  }

  std::shared_ptr<const AnswerBody> body;
  try {
    body = build_answer(plan, id, hub);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(id);
    }
    mine.set_exception(std::current_exception());
    throw;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // A degraded answer is served but never memoized: the journal holds
    // whatever completed, so the next request resumes the residual
    // instead of replaying an incomplete spectrum forever.
    if (!body->degraded) lru_.put(id, body, body->payload.size());
    inflight_.erase(id);
  }
  mine.set_value(body);
  return Answer{body->built_tier, body};
}

ServeStats SpectrumService::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ServeStats s = stats_;
  s.lru_size = lru_.size();
  s.lru_bytes = lru_.bytes_held();
  s.lru_evicted_bytes = lru_.bytes_evicted();
  s.in_flight = inflight_.size();
  return s;
}

std::string render_response(const Answer& answer) {
  const AnswerBody& b = *answer.body;
  std::string out = "OK identity=" + hex16(b.identity) +
                    " tier=" + tier_name(answer.tier) +
                    " modes=" + std::to_string(b.modes) +
                    " l_max=" + std::to_string(b.l_max) + "\n";
  out += b.payload;
  return out;
}

}  // namespace plinger::serve
