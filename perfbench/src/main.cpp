// perfbench: one plinger++ workload from generated inputs to checked
// C_l, printing its metrics as one JSON line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference-dir DIR --work-dir DIR [--trace-out FILE]
//             [--small] [--write-reference] [--log-only]
//
// NAME is hierarchy_mdm, auto_lcdm or serve_mcmc.  --trace 0 prints the
// end-to-end metrics; --trace 1 is a separate run that prints the
// per-layer metrics and writes its spans to --trace-out.  --small runs
// the reduced sizes of the self-test.  --write-reference rewrites the
// workload's committed C_l reference from one cycle.  --log-only
// prints the serve_mcmc request log summary and exits.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"};
// the line before it is {"info": {...}}.  Exit status: 0 when every
// correctness gate passed, 1 when one failed, 2 on an error (then no
// result line is printed).

#include <cmath>
#include <cstdio>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_info(const Options& opt, const Result& res) {
  std::string line = "{\"info\": {\"workload\": " + json_string(opt.workload);
  for (const auto& [key, value] : res.info) {
    line += ", " + json_string(key) + ": " + json_string(value);
  }
  std::printf("%s}}\n", line.c_str());
}

/// The result line: every metric of the run's table, in table order.
/// A per-layer metric a workload does not reach prints as 0; a missing
/// end-to-end metric, a name outside the table, or a non-finite value is
/// a bug and throws.
template <std::size_t N>
void print_result(const Result& res, const perfbench::MetricDef (&table)[N],
                  bool missing_is_zero) {
  std::set<std::string> known;
  std::string metrics;
  for (const perfbench::MetricDef& m : table) {
    known.insert(m.name);
    const auto it = res.metrics.find(m.name);
    if (it == res.metrics.end() && !missing_is_zero) {
      throw std::logic_error(std::string("metric not measured: ") + m.name);
    }
    const double v = it == res.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      throw std::logic_error(std::string("non-finite metric: ") + m.name);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const auto& [name, v] : res.metrics) {
    (void)v;
    if (!known.count(name)) {
      throw std::logic_error("metric outside the table: " + name);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hierarchy_mdm|auto_lcdm|"
               "serve_mcmc --seed N --seconds S --trace 0|1 "
               "--reference-dir DIR --work-dir DIR [--trace-out FILE] "
               "[--small] [--write-reference] [--log-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool log_only = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const bool has_value = i + 1 < argc;
      if (a == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        opt.trace = std::stoi(argv[++i]) != 0;
      } else if (a == "--reference-dir" && has_value) {
        opt.reference_dir = argv[++i];
      } else if (a == "--work-dir" && has_value) {
        opt.work_dir = argv[++i];
      } else if (a == "--trace-out" && has_value) {
        opt.trace_out = argv[++i];
      } else if (a == "--small") {
        opt.small = true;
      } else if (a == "--write-reference") {
        opt.write_reference = true;
      } else if (a == "--log-only") {
        log_only = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  const bool batch =
      opt.workload == "hierarchy_mdm" || opt.workload == "auto_lcdm";
  if (!batch && opt.workload != "serve_mcmc") return usage();
  if (opt.work_dir.empty() || (batch && opt.reference_dir.empty())) {
    return usage();
  }

  try {
    if (log_only) {
      perfbench::print_serve_log(opt);
      return 0;
    }
    const Result res = batch ? perfbench::run_batch(opt)
                             : perfbench::run_serve_mcmc(opt);
    print_info(opt, res);
    if (opt.trace && !opt.write_reference) {
      print_result(res, perfbench::kPerLayer, true);
    } else {
      print_result(res, perfbench::kEndToEnd, false);
    }
    std::fflush(stdout);
    return res.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
