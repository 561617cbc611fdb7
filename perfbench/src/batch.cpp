// The batch workloads: a RunConfig parsed from key = value text, taken
// through make_context + RunPlan (set-up) and RunPlan::execute() +
// make_spectra() (solve) to COBE-normalised C_l, checked against a
// committed reference.
//
//   hierarchy_mdm  the paper's method on its costliest physics: full
//                  photon tower plus the q-sampled massive-neutrino
//                  hierarchy; evolution is the whole solve.
//   auto_lcdm      the production fast path: short LOS towers above the
//                  k crossover, full towers below, master-side projection
//                  through a shared BesselTable, journal on.
//
// The traced run repeats the cycle with spans around each public call,
// and splits make_spectra() into the calls it makes, in its order.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "boltzmann/los.hpp"
#include "boltzmann/source_table.hpp"
#include "common/timing.hpp"
#include "io/params.hpp"
#include "plinger/trace.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"
#include "store/mode_result_store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace run = plinger::run;
namespace parallel = plinger::parallel;
namespace boltzmann = plinger::boltzmann;
namespace spectra = plinger::spectra;
namespace store = plinger::store;
using plinger::process_cpu_seconds;
using plinger::wallclock_seconds;

// Per-l tolerances: the solver accuracy envelopes (TT 0.5%, EE 0.8%,
// TE 5.2%), with EE/TE denominators guarded at 1% of the reference
// peak as in tests/golden/test_accuracy.cpp.  An approximation inside
// the envelopes passes; a broken projection does not.
constexpr double kTolTT = 0.005;
constexpr double kTolEE = 0.008;
constexpr double kTolTE = 0.052;
constexpr double kPeakGuard = 0.01;

// setup_s is the median of this many set-ups made back to back ahead of
// the cycles.  The cycles' own set-ups are not sampled: each follows a
// solve that has flushed the caches, and mixing the two kinds split the
// samples into two clusters the median jumped between.
constexpr int kSetupProbes = 12;

/// The workload's inputs.  They are fixed: the seed does not enter.
std::string config_text(const Options& opt) {
  if (opt.workload == "hierarchy_mdm") {
    return std::string("preset = mdm\nsolver = hierarchy\ngrid = cl\n") +
           "l_max = " + (opt.small ? "60" : "300") + "\n" +
           "driver = threads\nworkers = 2\n";
  }
  return std::string("preset = lcdm\nsolver = auto\ngrid = cl\n") +
         "l_max = " + (opt.small ? "60" : "400") + "\n" +
         "driver = threads\nworkers = 2\n";
}

/// Raw (COBE factor divided out) C_l of one workload, indexed by l.
struct Reference {
  double cobe_factor = 0.0;
  std::vector<double> tt, ee, te;
};

std::string reference_path(const Options& opt) {
  return opt.reference_dir + "/" + opt.workload +
         (opt.small ? "_small" : "") + ".txt";
}

Reference read_reference(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("missing reference " + path +
                             " (regenerate with run.py --write-reference)");
  }
  Reference ref;
  ref.tt = ref.ee = ref.te = {0.0, 0.0};  // l = 0, 1 carry no power
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line[0] == '#' ? line.substr(1) : line);
    if (line[0] == '#') {
      std::string key;
      fields >> key;
      if (key == "cobe_factor") fields >> ref.cobe_factor;
      continue;
    }
    std::size_t l = 0;
    double tt = 0.0, ee = 0.0, te = 0.0;
    if (!(fields >> l >> tt >> ee >> te) || l != ref.tt.size()) {
      throw std::runtime_error("malformed reference row '" + line + "' in " +
                               path);
    }
    ref.tt.push_back(tt);
    ref.ee.push_back(ee);
    ref.te.push_back(te);
  }
  if (ref.cobe_factor <= 0.0 || ref.tt.size() < 3) {
    throw std::runtime_error("incomplete reference " + path);
  }
  return ref;
}

void write_reference(const std::string& path, const Options& opt,
                     const run::SpectrumSet& s) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  char buf[128];
  os << "# Raw C_l (COBE factor divided out) of the " << opt.workload
     << (opt.small ? " self-test" : "")
     << " workload; written by run.py --write-reference\n";
  std::snprintf(buf, sizeof buf, "# cobe_factor %.17g\n", s.cobe_factor);
  os << buf << "# l tt ee te\n";
  for (std::size_t l = 2; l <= s.temperature.l_max(); ++l) {
    std::snprintf(buf, sizeof buf, "%zu %.17g %.17g %.17g\n", l,
                  s.temperature.cl[l] / s.cobe_factor,
                  s.polarization.cl[l] / s.cobe_factor,
                  s.cross.cl[l] / s.cobe_factor);
    os << buf;
  }
}

/// "" when the spectra match the reference within the tolerances, else
/// a description of the first miss.
std::string check_spectra(const run::SpectrumSet& s, const Reference& ref) {
  const std::size_t l_max = s.temperature.l_max();
  if (ref.tt.size() != l_max + 1) {
    return "l_max " + std::to_string(l_max) + " against a reference of " +
           std::to_string(ref.tt.size() - 1);
  }
  if (std::abs(s.cobe_factor - ref.cobe_factor) >
      kTolTT * std::abs(ref.cobe_factor)) {
    return "COBE factor off the reference by more than the TT tolerance";
  }
  const auto peak = [&](const std::vector<double>& r) {
    double p = 0.0;
    for (std::size_t l = 2; l <= l_max; ++l) p = std::max(p, std::abs(r[l]));
    return p;
  };
  const double guard_ee = kPeakGuard * peak(ref.ee);
  const double guard_te = kPeakGuard * peak(ref.te);
  const auto off = [](double got, double want, double denom, double tol) {
    return denom > 0.0 ? std::abs(got - want) / denom > tol : got != want;
  };
  for (std::size_t l = 2; l <= l_max; ++l) {
    const double tt = s.temperature.cl[l] / s.cobe_factor;
    const double ee = s.polarization.cl[l] / s.cobe_factor;
    const double te = s.cross.cl[l] / s.cobe_factor;
    const char* which =
        off(tt, ref.tt[l], std::abs(ref.tt[l]), kTolTT) ? "TT"
        : off(ee, ref.ee[l], std::max(std::abs(ref.ee[l]), guard_ee), kTolEE)
            ? "EE"
        : off(te, ref.te[l], std::max(std::abs(ref.te[l]), guard_te), kTolTE)
            ? "TE"
            : nullptr;
    if (which != nullptr) {
      return std::string("C_l^") + which + " at l = " + std::to_string(l) +
             " outside its tolerance";
    }
  }
  return "";
}

/// The state of one batch run: inputs, reference, and what every cycle
/// contributes to the correctness tally and the per-mode latencies.
struct Batch {
  Batch(const Options& o, Result& r) : opt(o), res(r) {}

  const Options& opt;
  Result& res;
  std::string text = config_text(opt);
  bool journal = opt.workload == "auto_lcdm";
  std::optional<Reference> ref;
  std::vector<double> mode_ms;  ///< per-mode evolution CPU, every cycle
  std::size_t cycles = 0;

  /// The parsed config; auto_lcdm journals into `dir`.
  run::RunConfig config(const ScratchDir& dir) const {
    std::string t = text;
    if (journal) t += "store = " + (dir.path() / "run.pj").string() + "\n";
    std::istringstream is(t);
    const run::ConfigParse parsed =
        run::parse_config(plinger::io::parse_params(is));
    if (!parsed.unknown_keys.empty()) {
      throw std::runtime_error("unknown config key " +
                               parsed.unknown_keys.front());
    }
    return parsed.config;
  }

  /// Correctness gates of one cycle.  Every scheduled mode counts as an
  /// operation; a mode missing, failed, quarantined, reassigned or
  /// loaded from a journal fails, and spectra outside the reference
  /// tolerances fail every mode of the cycle.
  void gate(const run::RunPlan& plan, const parallel::RunOutput& out,
            const run::SpectrumSet& s) {
    ++cycles;
    const std::size_t n = plan.schedule().size();
    std::size_t bad = n - std::min(n, out.results.size());
    bad += out.master.failed_ik.size() + out.master.quarantined_ik.size() +
           out.n_modes_reassigned + out.n_modes_loaded +
           (out.completed_degraded ? 1 : 0);
    std::string why = bad > 0 ? "modes missing, failed or resumed" : "";
    if (opt.write_reference) {
      write_reference(reference_path(opt), opt, s);
      res.note("reference_written", reference_path(opt));
    } else if (const std::string miss = check_spectra(s, *ref);
               !miss.empty()) {
      bad = n;
      why = miss;
    }
    bad = std::min(bad, n);
    res.attempted += n;
    res.failed += bad;
    if (bad > 0) {
      res.correct = false;
      res.note("gate_failure", why);
    }
    for (const auto& [ik, r] : out.results) {
      (void)ik;
      mode_ms.push_back(r.cpu_seconds * 1e3);
    }
  }
};

double setup_probe(const Batch& b) {
  const ScratchDir dir(b.opt.work_dir, b.opt.workload);
  const run::RunConfig cfg = b.config(dir);
  const double t0 = wallclock_seconds();
  const run::RunPlan plan(cfg, run::make_context(cfg));
  return wallclock_seconds() - t0;
}

struct Cycle {
  double solve_s = 0.0, cpu_s = 0.0;
};

Cycle untraced_cycle(Batch& b) {
  const ScratchDir dir(b.opt.work_dir, b.opt.workload);
  const run::RunConfig cfg = b.config(dir);
  const run::RunPlan plan(cfg, run::make_context(cfg));
  const double t0 = wallclock_seconds();
  const double c0 = process_cpu_seconds();
  const parallel::RunOutput out = plan.execute();
  const run::SpectrumSet s = run::make_spectra(plan, out);
  const double t1 = wallclock_seconds();
  const double c1 = process_cpu_seconds();
  b.gate(plan, out, s);
  return {t1 - t0, c1 - c0};
}

/// make_spectra() recomposed from the public calls it makes, in its
/// order (src/run/products.cpp), each call under its own span.  The
/// caller checks the result bitwise against make_spectra() itself.
run::SpectrumSet split_spectra(const run::RunPlan& plan,
                               const parallel::RunOutput& out, Spans& spans,
                               int parent, std::uint64_t id,
                               Samples& layer) {
  const std::size_t l_max = plan.config().l_max;
  spectra::PowerLawSpectrum primordial;
  primordial.n_s = plan.config().n_s;
  spectra::ClAccumulator acc(l_max, primordial);
  std::optional<boltzmann::BesselTable> table;
  if (plan.setup().los.enabled) {
    double x_max = 1.0;
    for (const auto& [ik, r] : out.results) {
      (void)ik;
      x_max = std::max(x_max, r.k * r.tau_end);
    }
    const double rss0 = rss_mb();
    const int h = spans.open("boltzmann.bessel_table", parent, id);
    table.emplace(l_max + 1, x_max);
    spans.close(h);
    layer.add("boltzmann.bessel_table_rss_mb", rss_mb() - rss0);
  }
  std::size_t projected = 0;
  const plinger::cosmo::Background& bg = plan.context().background();
  const plinger::cosmo::Recombination& rec = plan.context().recombination();
  for (const auto& [ik, r] : out.results) {
    const double w = plan.schedule().weight_of_ik(ik);
    if (table && !r.samples.empty()) {
      int h = spans.open("boltzmann.source_build", parent, id);
      const boltzmann::SourceTable src =
          boltzmann::build_source_table(bg, rec, r);
      spans.close(h);
      h = spans.open("boltzmann.project", parent, id);
      const boltzmann::ProjectedMode pm =
          boltzmann::project_source_table(src, l_max, *table);
      spans.close(h);
      h = spans.open("spectra.accumulate", parent, id);
      acc.add_mode(r.k, w, pm.f_gamma);
      acc.add_mode_polarization(r.k, w, pm.g_gamma);
      acc.add_mode_cross(r.k, w, pm.f_gamma, pm.g_gamma);
      spans.close(h);
      ++projected;
    } else {
      const int h = spans.open("spectra.accumulate", parent, id);
      acc.add_mode(r.k, w, r.f_gamma);
      acc.add_mode_polarization(r.k, w, r.g_gamma);
      acc.add_mode_cross(r.k, w, r.f_gamma, r.g_gamma);
      spans.close(h);
    }
  }
  layer.add("boltzmann.modes_projected", static_cast<double>(projected));
  run::SpectrumSet s;
  const int h = spans.open("spectra.accumulate", parent, id);
  s.temperature = acc.temperature();
  s.polarization = acc.polarization();
  s.cross = acc.cross();
  s.modes_used = acc.modes_added();
  s.polarization_l_max = acc.polarization_l_max();
  s.cobe_factor = spectra::normalize_to_cobe_quadrupole(
      s.temperature, 18e-6, plan.context().params().t_cmb);
  for (double& c : s.polarization.cl) c *= s.cobe_factor;
  for (double& c : s.cross.cl) c *= s.cobe_factor;
  spans.close(h);
  return s;
}

bool same_bits(const run::SpectrumSet& a, const run::SpectrumSet& b) {
  const auto eq = [](const std::vector<double>& x,
                     const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  return eq(a.temperature.cl, b.temperature.cl) &&
         eq(a.polarization.cl, b.polarization.cl) &&
         eq(a.cross.cl, b.cross.cl) &&
         std::bit_cast<std::uint64_t>(a.cobe_factor) ==
             std::bit_cast<std::uint64_t>(b.cobe_factor) &&
         a.modes_used == b.modes_used &&
         a.polarization_l_max == b.polarization_l_max;
}

/// One traced cycle: the same set-up and solve as an untraced cycle
/// (plus the run's own trace, for the idle tail), then the context
/// constructors one by one, the make_spectra() split, and the store
/// replay, all outside the solve interval.  Returns the traced solve.
double traced_cycle(Batch& b, Spans& spans, Samples& layer,
                    int& split_mismatches) {
  const std::uint64_t id = b.cycles;
  const ScratchDir dir(b.opt.work_dir, b.opt.workload);
  const run::RunConfig cfg = b.config(dir);
  const int root = spans.open("bench.cycle", -1, id);

  const int setup = spans.open("bench.setup", root, id);
  int h = spans.open("run.make_context", setup, id);
  const auto ctx = run::make_context(cfg);
  spans.close(h);
  h = spans.open("run.plan", setup, id);
  run::RunPlan plan(cfg, ctx);
  spans.close(h);
  spans.close(setup);
  plan.setup().trace.enabled = true;

  const int solve = spans.open("bench.solve", root, id);
  h = spans.open("run.execute", solve, id);
  const parallel::RunOutput out = plan.execute();
  spans.close(h);
  h = spans.open("run.make_spectra", solve, id);
  const run::SpectrumSet s = run::make_spectra(plan, out);
  spans.close(h);
  spans.close(solve);
  b.gate(plan, out, s);

  {
    const Scope probe(&spans, "bench.context_probe", root, id);
    probe_context(cfg, spans, probe.handle(), id, layer);
  }
  {
    const Scope split(&spans, "bench.spectra_split", root, id);
    const run::SpectrumSet again =
        split_spectra(plan, out, spans, split.handle(), id, layer);
    if (!same_bits(s, again)) ++split_mismatches;
  }
  if (b.journal) {
    const Scope replay(&spans, "bench.store_replay", root, id);
    layer.add("store.journal_bytes",
              static_cast<double>(fs::file_size(plan.setup().store.path)));
    store::StoreOptions so = plan.setup().store;
    so.path = (dir.path() / "replay.pj").string();
    {
      const Scope append(&spans, "store.append", replay.handle(), id);
      store::ModeResultStore st(so, plan.identity(), plan.schedule().size());
      for (const auto& [ik, r] : out.results) st.append(ik, r);
      st.flush();
    }
    const Scope read(&spans, "store.read_journal", replay.handle(), id);
    if (store::read_journal(so.path).results.size() != out.results.size()) {
      throw std::runtime_error("store replay lost records");
    }
  }
  spans.close(root);

  for (const char* name :
       {"run.plan", "run.execute", "run.make_spectra",
        "boltzmann.bessel_table", "boltzmann.source_build",
        "boltzmann.project", "spectra.accumulate", "store.append",
        "store.read_journal"}) {
    layer.add(std::string(name) + "_s", spans.total(name, root));
  }
  layer.add("plinger.worker_cpu_s", out.total_worker_cpu_seconds);
  layer.add("plinger.parallel_efficiency", out.parallel_efficiency());
  layer.add("plinger.modes_computed",
            static_cast<double>(out.results.size() - out.n_modes_loaded));
  layer.add("plinger.idle_tail_s",
            parallel::make_run_report(*out.trace).idle_tail_seconds);
  double rhs = 0.0, accepted = 0.0, rejected = 0.0;
  for (const auto& [ik, r] : out.results) {
    (void)ik;
    rhs += static_cast<double>(r.stats.n_rhs);
    accepted += static_cast<double>(r.stats.n_accepted);
    rejected += static_cast<double>(r.stats.n_rejected);
  }
  layer.add("math.rhs_evals", rhs);
  layer.add("math.steps_accepted", accepted);
  layer.add("math.steps_rejected", rejected);
  layer.add("mp.messages", static_cast<double>(out.transport.n_messages));
  layer.add("mp.bytes", static_cast<double>(out.transport.n_bytes));
  return spans.total("bench.solve", root);
}

}  // namespace

Result run_batch(const Options& opt) {
  Result res;
  Batch b(opt, res);
  if (!opt.write_reference) b.ref = read_reference(reference_path(opt));
  res.note("seed", std::to_string(opt.seed) + " (ignored: fixed inputs)");

  const double start = wallclock_seconds();
  std::vector<double> setup, solve, cpu;
  for (int i = 0; i < kSetupProbes && !opt.write_reference; ++i) {
    setup.push_back(setup_probe(b));
  }
  // A traced run spends half its time untraced, for the overhead.  A
  // new cycle starts only if one more, as long as the last, still fits.
  const double untraced_until = start + (opt.trace ? 0.5 : 1.0) * opt.seconds;
  double last = 0.0;
  do {
    const double t0 = wallclock_seconds();
    const Cycle c = untraced_cycle(b);
    last = wallclock_seconds() - t0;
    solve.push_back(c.solve_s);
    cpu.push_back(c.cpu_s);
  } while (!opt.write_reference &&
           wallclock_seconds() + last <= untraced_until);

  if (!opt.trace || opt.write_reference) {
    res.metrics = {{"setup_s", median(setup)},
                   {"solve_s", median(solve)},
                   {"cpu_s", median(cpu)},
                   {"peak_rss_mb", peak_rss_mb()},
                   {"p50_ms", percentile(b.mode_ms, 0.50)},
                   {"p99_ms", percentile(b.mode_ms, 0.99)}};
  } else {
    Spans spans;
    Samples layer;
    std::vector<double> traced_solve;
    int mismatches = 0;
    do {
      const double t0 = wallclock_seconds();
      traced_solve.push_back(traced_cycle(b, spans, layer, mismatches));
      last = wallclock_seconds() - t0;
    } while (wallclock_seconds() + last <= start + opt.seconds);
    layer.medians_into(res.metrics);
    res.metrics["bench.trace_overhead_s"] =
        median(traced_solve) - median(solve);
    res.metrics["bench.split_mismatches"] = mismatches;
    if (mismatches > 0) {
      res.note("split", "INVALID: the recomposed make_spectra() differs "
                        "from make_spectra(); boltzmann.* and "
                        "spectra.accumulate_s do not describe it");
    }
    write_trace(spans, opt, res);
  }
  res.note("cycles", std::to_string(b.cycles));
  std::string solves;
  for (const double v : solve) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.3f", solves.empty() ? "" : " ", v);
    solves += buf;
  }
  res.note("untraced_solve_s", solves);
  return res;
}

}  // namespace perfbench
