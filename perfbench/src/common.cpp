#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "common/timing.hpp"
#include "cosmo/background.hpp"
#include "cosmo/recombination.hpp"
#include "cosmo/thermo_cache.hpp"
#include "run/config.hpp"

namespace perfbench {

namespace fs = std::filesystem;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Samples::medians_into(std::map<std::string, double>& out) const {
  for (const auto& [name, v] : values) out[name] = median(v);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

ScratchDir::ScratchDir(const std::string& root, const std::string& prefix) {
  static std::atomic<unsigned> counter{0};
  fs::create_directories(root);
  // pid + counter is unique among live processes; a leftover from a
  // killed run with a recycled pid is wiped rather than reused.
  path_ = fs::path(root) / (prefix + "-" + std::to_string(::getpid()) +
                            "-" + std::to_string(counter++));
  fs::remove_all(path_);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

Spans::Spans() : origin_(plinger::wallclock_seconds()) {}

double Spans::now() const { return plinger::wallclock_seconds() - origin_; }

int Spans::open(std::string name, int parent, std::uint64_t id) {
  const double t = now();
  return add(std::move(name), t, t, parent, id);
}

double Spans::close(int span) {
  const double t = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.t1 = t;
  return s.t1 - s.t0;
}

int Spans::add(std::string name, double t0, double t1, int parent,
               std::uint64_t id, int tid) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), t0, t1, parent, id, tid});
  return static_cast<int>(spans_.size() - 1);
}

int Spans::root_of(int span) const {
  while (spans_[static_cast<std::size_t>(span)].parent >= 0) {
    span = spans_[static_cast<std::size_t>(span)].parent;
  }
  return span;
}

double Spans::total(const std::string& name, int root) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    if (root >= 0 && root_of(static_cast<int>(i)) != root) continue;
    sum += s.t1 - s.t0;
  }
  return sum;
}

void Spans::write_chrome(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
  }
  const auto usec = [](double t) { return std::llround(t * 1e6); };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = s.t1 - s.t0;
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.tid
       << ",\"ts\":" << usec(s.t0) << ",\"dur\":" << usec(dur)
       << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
       << ",\"id\":" << s.id
       << ",\"self_us\":" << usec(dur - child_time[i]) << "}}";
  }
  os << "\n]}\n";
}

void probe_context(const plinger::run::RunConfig& cfg, Spans& spans,
                   int parent, std::uint64_t id, Samples& layer) {
  int h = spans.open("cosmo.background", parent, id);
  const plinger::cosmo::Background bg(cfg.cosmology());
  layer.add("cosmo.background_s", spans.close(h));
  h = spans.open("cosmo.recombination", parent, id);
  const plinger::cosmo::Recombination rec(bg, cfg.recombination_options());
  layer.add("cosmo.recombination_s", spans.close(h));
  h = spans.open("cosmo.thermo_cache", parent, id);
  const auto thermo =
      std::make_shared<const plinger::cosmo::ThermoCache>(bg, rec);
  layer.add("cosmo.thermo_cache_s", spans.close(h));
}

void write_trace(const Spans& spans, const Options& opt, Result& res) {
  if (opt.trace_out.empty()) return;
  const fs::path path(opt.trace_out);
  if (path.has_parent_path()) fs::create_directories(path.parent_path());
  std::ofstream os(path);
  spans.write_chrome(os);
  if (!os) throw std::runtime_error("cannot write " + opt.trace_out);
  res.note("trace_file", opt.trace_out);
}

}  // namespace perfbench
