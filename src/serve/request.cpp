#include "serve/request.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/suggest.hpp"
#include "io/params.hpp"

namespace plinger::serve {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

const std::vector<std::string>& command_names() {
  static const std::vector<std::string> names = {"RUN", "PING", "STATS",
                                                 "QUIT"};
  return names;
}

}  // namespace

bool is_reserved_key(const std::string& key) {
  // Persistence and trace wiring are the daemon's: it keys journals by
  // run identity and owns the progress feed.
  // Transport wiring too: the daemon always runs in-process, and a
  // request must not make it listen on or dial arbitrary sockets.
  return key == "store" || key == "flush_interval" ||
         key == "stop_after" || key == "trace" || key == "trace_json" ||
         key == "transport" || key == "tcp_listen" ||
         key == "tcp_connect" || key == "tcp_retry" ||
         key == "tcp_backoff_ms";
}

RequestParse parse_request(const std::string& command_line,
                           const std::vector<std::string>& body) {
  RequestParse out;
  const std::string cmd = trim(command_line);
  if (cmd == "PING") {
    out.request.command = Command::ping;
    return out;
  }
  if (cmd == "STATS") {
    out.request.command = Command::stats;
    return out;
  }
  if (cmd == "QUIT") {
    out.request.command = Command::quit;
    return out;
  }
  if (cmd != "RUN") {
    std::string msg = "unknown command '" + cmd + "'";
    const std::string hint =
        common::closest_within_two(cmd, command_names());
    if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
    out.error = msg;
    return out;
  }

  out.request.command = Command::run;
  std::ostringstream joined;
  for (std::size_t i = 0; i < body.size(); ++i) {
    // parse_params skips lines without '='; a daemon must not turn a
    // garbled body into a default-valued computation, so refuse them.
    std::string checked = body[i];
    const auto hash = checked.find('#');
    if (hash != std::string::npos) checked.erase(hash);
    if (!trim(checked).empty() &&
        checked.find('=') == std::string::npos) {
      out.error = "malformed request body: line " + std::to_string(i + 1) +
                  " is not a key = value pair: '" + trim(checked) + "'";
      return out;
    }
    joined << body[i] << "\n";
  }
  io::KeyValueMap kv;
  try {
    std::istringstream is(joined.str());
    kv = io::parse_params(is);
  } catch (const Error& e) {
    out.error = std::string("malformed request body: ") + e.what();
    return out;
  }
  for (const auto& [key, value] : kv) {
    (void)value;
    if (is_reserved_key(key)) {
      out.error = "key '" + key +
                  "' is reserved by the daemon (journal placement and "
                  "tracing are managed per identity)";
      return out;
    }
  }
  run::ConfigParse parsed;
  try {
    parsed = run::parse_config(kv);
  } catch (const Error& e) {
    out.error = e.what();
    return out;
  }
  if (!parsed.unknown_keys.empty()) {
    // Strict where the CLI warns: refuse the whole request, naming the
    // first offender (sorted order) with the CLI's suggestion.
    const std::string& key = parsed.unknown_keys.front();
    std::string msg = "unrecognized key '" + key + "'";
    const std::string hint = run::config_key_suggestion(key);
    if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
    out.error = msg;
    return out;
  }
  out.request.config = parsed.config;
  return out;
}

}  // namespace plinger::serve
