#include "io/params.hpp"

#include <cstddef>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace plinger::io {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

KeyValueMap parse_params(std::istream& is) {
  KeyValueMap kv;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = trim(line.substr(0, eq));
    PLINGER_REQUIRE(!key.empty(), "parameter line " +
                                      std::to_string(lineno) +
                                      ": assignment with an empty key");
    kv[key] = trim(line.substr(eq + 1));
  }
  return kv;
}

KeyValueMap read_params_file(const std::string& path) {
  std::ifstream f(path);
  PLINGER_REQUIRE(f.is_open(), "cannot open parameter file: " + path);
  return parse_params(f);
}

}  // namespace plinger::io
