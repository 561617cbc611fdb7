#include "io/bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/error.hpp"

namespace plinger::io {

namespace {

/// Minimal JSON string escape (quotes, backslash, control chars).
void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";  // JSON has no NaN/Inf
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

BenchEntry& BenchEntry::label(std::string key, std::string value) {
  labels.emplace_back(std::move(key), std::move(value));
  return *this;
}

BenchEntry& BenchEntry::metric(std::string key, double value) {
  metrics.emplace_back(std::move(key), value);
  return *this;
}

BenchEntry& BenchReport::add(std::string entry_name) {
  entries.push_back(BenchEntry{std::move(entry_name), {}, {}});
  return entries.back();
}

void BenchReport::write(std::ostream& os) const {
  os << "{\n  \"bench\": ";
  write_escaped(os, bench);
  os << ",\n  \"schema_version\": " << schema_version
     << ",\n  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    os << (i ? ",\n    {" : "\n    {");
    os << "\"name\": ";
    write_escaped(os, e.name);
    os << ", \"labels\": {";
    for (std::size_t j = 0; j < e.labels.size(); ++j) {
      if (j) os << ", ";
      write_escaped(os, e.labels[j].first);
      os << ": ";
      write_escaped(os, e.labels[j].second);
    }
    os << "}, \"metrics\": {";
    for (std::size_t j = 0; j < e.metrics.size(); ++j) {
      if (j) os << ", ";
      write_escaped(os, e.metrics[j].first);
      os << ": ";
      write_number(os, e.metrics[j].second);
    }
    os << "}}";
  }
  os << "\n  ]\n}\n";
}

std::string BenchReport::write_file(const std::string& path) const {
  const std::string out =
      path.empty() ? bench_default_output_path(bench) : path;
  std::ofstream os(out);
  PLINGER_REQUIRE(os.is_open(), "bench_json: cannot open " + out);
  write(os);
  return out;
}

std::string bench_default_output_path(const std::string& bench_name) {
#ifdef PLINGER_REPO_ROOT
  return std::string(PLINGER_REPO_ROOT) + "/BENCH_" + bench_name + ".json";
#else
  return "BENCH_" + bench_name + ".json";
#endif
}

BenchArgs parse_bench_args(int argc, char** argv,
                           const std::string& bench_name) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      args.out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_%s [--smoke] [--out FILE]\n",
                   bench_name.c_str());
      std::exit(2);
    }
  }
  if (args.out.empty() && args.smoke) {
    args.out = "BENCH_" + bench_name + ".json";
  }
  return args;
}

}  // namespace plinger::io
