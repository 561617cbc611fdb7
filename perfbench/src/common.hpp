#pragma once

// Shared plumbing of the benchmark executable: the options every
// workload receives, the result it hands back, order statistics, memory
// probes, scratch directories, and the span recorder of the traced run.

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace plinger::run {
struct RunConfig;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;           ///< reduced sizes for the self-test
  bool write_reference = false; ///< regenerate the batch references
  std::string reference_dir;    ///< committed C_l references
  std::string work_dir;         ///< scratch root inside the checkout
  std::string trace_out;        ///< Chrome trace file of a traced run
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, printed by every untraced run.  On the batch
/// workloads the operation behind p50_ms/p99_ms is one mode (its
/// evolution CPU time); on serve_mcmc it is one request.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"solve_s", "s"},  {"cpu_s", "s"},
    {"peak_rss_mb", "MB"}, {"p50_ms", "ms"}, {"p99_ms", "ms"},
};

/// The per-layer metrics, printed by every traced run.  A layer that a
/// workload does not reach reports 0 there.
inline constexpr MetricDef kPerLayer[] = {
    {"cosmo.background_s", "s"},
    {"cosmo.recombination_s", "s"},
    {"cosmo.thermo_cache_s", "s"},
    {"run.plan_s", "s"},
    {"run.execute_s", "s"},
    {"run.make_spectra_s", "s"},
    {"plinger.worker_cpu_s", "s"},
    {"plinger.parallel_efficiency", "ratio"},
    {"plinger.modes_computed", "count"},
    {"plinger.idle_tail_s", "s"},
    {"math.rhs_evals", "count"},
    {"math.steps_accepted", "count"},
    {"math.steps_rejected", "count"},
    {"mp.messages", "count"},
    {"mp.bytes", "B"},
    {"boltzmann.bessel_table_s", "s"},
    {"boltzmann.bessel_table_rss_mb", "MB"},
    {"boltzmann.source_build_s", "s"},
    {"boltzmann.project_s", "s"},
    {"boltzmann.modes_projected", "count"},
    {"spectra.accumulate_s", "s"},
    {"store.journal_bytes", "B"},
    {"store.append_s", "s"},
    {"store.read_journal_s", "s"},
    {"serve.lru_p50_ms", "ms"},
    {"serve.journal_p50_ms", "ms"},
    {"serve.compute_p50_ms", "ms"},
    {"serve.lru_over_10ms", "count"},
    {"serve.first_progress_ms", "ms"},
    {"serve.computes", "count"},
    {"serve.coalesced", "count"},
    {"serve.hit_ratio", "ratio"},
    {"serve.reply_bytes", "B"},
    {"bench.trace_overhead_s", "s"},
    {"bench.split_mismatches", "count"},
};

/// What a workload reports: the correctness verdict, operations
/// attempted and failed, metric values by name (end-to-end untraced,
/// per-layer traced), and descriptive facts printed on the info line
/// ahead of the result.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
};

/// Samples of named quantities over a run's cycles, reduced to medians.
struct Samples {
  std::map<std::string, std::vector<double>> values;

  void add(const std::string& name, double v) { values[name].push_back(v); }
  /// Store the median of every sampled quantity into `out`.
  void medians_into(std::map<std::string, double>& out) const;
};

double median(std::vector<double> v);

/// Nearest-rank percentile (p in [0, 1]): with n samples, p = 0.99
/// leaves n/100 samples above the returned one.
double percentile(std::vector<double> v, double p);

/// Resident set now, and the process high-water mark, in MB (1e6 bytes).
double rss_mb();
double peak_rss_mb();

/// A fresh, uniquely named directory under `root`, removed (with its
/// contents) when the object is destroyed.  Every journal the benchmark
/// writes lives in one, so no run can resume another's journal.
class ScratchDir {
 public:
  ScratchDir(const std::string& root, const std::string& prefix);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// In-memory spans of the traced run: name, start, end, parent and a
/// request/cycle id.  Thread-safe; written once, at exit, as Chrome
/// trace_event JSON (chrome://tracing, ui.perfetto.dev).
class Spans {
 public:
  Spans();

  /// Seconds since the recorder was created.
  double now() const;
  /// A wallclock_seconds() reading in the recorder's time.
  double at(double wallclock) const { return wallclock - origin_; }

  /// Open a span; returns its handle.  parent = -1 for a root.
  int open(std::string name, int parent = -1, std::uint64_t id = 0);
  /// Close a span; returns its duration.
  double close(int span);

  /// Record an already-measured interval; `tid` picks the trace row.
  int add(std::string name, double t0, double t1, int parent = -1,
          std::uint64_t id = 0, int tid = 0);

  /// Sum of the durations of every span named `name` whose root
  /// ancestor is `root` (or of all of them, root = -1).
  double total(const std::string& name, int root = -1) const;

  /// Chrome trace_event JSON; args carry the id, the parent and the
  /// self time (duration minus the time covered by child spans).
  void write_chrome(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    double t0 = 0.0, t1 = 0.0;
    int parent = -1;
    std::uint64_t id = 0;
    int tid = 0;
  };
  int root_of(int span) const;

  double origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The three constructors RunContext calls (Background, Recombination,
/// ThermoCache), on `cfg` and in its order, each under its own span below
/// `parent` and sampled into `layer` as cosmo.<name>_s.
void probe_context(const plinger::run::RunConfig& cfg, Spans& spans,
                   int parent, std::uint64_t id, Samples& layer);

/// Write the spans to opt.trace_out (when set) and note the path.
void write_trace(const Spans& spans, const Options& opt, Result& res);

/// Opens a span on construction and closes it on destruction; a null
/// recorder makes it a no-op, so traced and untraced code share a path.
class Scope {
 public:
  Scope(Spans* spans, std::string name, int parent = -1,
        std::uint64_t id = 0)
      : spans_(spans),
        handle_(spans ? spans->open(std::move(name), parent, id) : -1) {}
  ~Scope() {
    if (spans_) spans_->close(handle_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int handle() const { return handle_; }

 private:
  Spans* spans_;
  int handle_;
};

}  // namespace perfbench
