#pragma once

/// The serve request surface: one line-oriented command, optionally
/// followed by a RunConfig key=value body (see docs/protocol.md, "The
/// serve wire protocol").
///
/// Parsing is deliberately strict where linger_cli is lenient: the CLI
/// warns about an unknown key and runs anyway, but a daemon answering
/// with CPU-minutes of compute must refuse anything it does not fully
/// understand — every diagnostic (unknown key, unknown command, bad
/// value) comes back as an ERR reply carrying the same did-you-mean
/// suggestions (common/suggest.hpp) the CLI prints.

#include <string>
#include <vector>

#include "run/config.hpp"

namespace plinger::serve {

enum class Command {
  run,    ///< "RUN" + key=value body + "END": answer with spectra
  ping,   ///< "PING": liveness probe
  stats,  ///< "STATS": cache/coalescing counters
  quit,   ///< "QUIT": close this connection
};

struct Request {
  Command command = Command::ping;
  run::RunConfig config;  ///< RUN only: parsed, validated, ready to plan
};

/// Outcome of parsing one request block; `error` empty means `request`
/// is valid.  A non-empty error is the text of the ERR reply (without
/// the "ERR " prefix).
struct RequestParse {
  Request request;
  std::string error;
};

/// Keys a request may not set: journal placement and trace wiring
/// belong to the daemon, which keys journals by run identity and feeds
/// PROGRESS lines from the driver's result sink.
bool is_reserved_key(const std::string& key);

/// Parse one command line ("RUN", "PING", ...; surrounding whitespace
/// and a trailing CR are ignored) plus, for RUN, its body lines (the
/// lines between the command and "END", exclusive).
RequestParse parse_request(const std::string& command_line,
                           const std::vector<std::string>& body);

}  // namespace plinger::serve
