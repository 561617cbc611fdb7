#pragma once

/// Machine-readable bench output.
///
/// Every perf bench that feeds regression tracking writes one JSON
/// document of the shape
///
///   {
///     "bench": "<name>",
///     "schema_version": 1,
///     "entries": [
///       {"name": "...", "labels": {"k": "0.2"}, "metrics": {"ns": 1.5}},
///       ...
///     ]
///   }
///
/// so CI (or a human with jq) can diff runs without scraping stdout.
/// The conventional location is `BENCH_<name>.json` at the repository
/// root (default_output_path()); benches accept `--out FILE` to place it
/// elsewhere (parse_bench_args()).

#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace plinger::io {

/// One measured configuration: a name, string labels describing it, and
/// numeric metrics.  Insertion order is preserved in the output.
struct BenchEntry {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, double>> metrics;

  BenchEntry& label(std::string key, std::string value);
  BenchEntry& metric(std::string key, double value);
};

/// A full bench report; serializes with stable field order so diffs of
/// the emitted files are meaningful.
struct BenchReport {
  std::string bench;
  int schema_version = 1;
  std::vector<BenchEntry> entries;

  explicit BenchReport(std::string bench_name) : bench(std::move(bench_name)) {}

  /// Append an entry and return a reference for chained label()/metric().
  BenchEntry& add(std::string entry_name);

  void write(std::ostream& os) const;

  /// Write to `path`, or to default_output_path(bench) when empty.
  /// Returns the path actually written.
  std::string write_file(const std::string& path = "") const;
};

/// `<repo root>/BENCH_<name>.json` when the build knows the repository
/// root (PLINGER_REPO_ROOT), else `BENCH_<name>.json` in the cwd.
std::string bench_default_output_path(const std::string& bench_name);

/// The command line every JSON bench takes:
/// `bench_<name> [--smoke] [--out FILE]`.
struct BenchArgs {
  bool smoke = false;  ///< reduced sizes (the ctest smoke runs)
  /// Where BenchReport::write_file() goes: --out FILE, else
  /// `BENCH_<name>.json` in the cwd for a smoke run (so a smoke run never
  /// clobbers the committed snapshot), else empty, which selects
  /// bench_default_output_path().
  std::string out;
};

/// Parse the bench command line.  Any other argument prints
/// "usage: bench_<name> [--smoke] [--out FILE]" to stderr and exits
/// with status 2.
BenchArgs parse_bench_args(int argc, char** argv,
                           const std::string& bench_name);

}  // namespace plinger::io
