#pragma once

/// key = value parameter files (the LINGER-era run description format).
///
/// One assignment per line, `#` starts a comment, whitespace around key
/// and value is trimmed, later assignments of the same key win.  This is
/// the low-level lexical layer only: it knows nothing about which keys
/// exist — run::parse_config() owns the key table and reports unknown
/// keys, so a typo like `omega_B =` is diagnosed instead of silently
/// running the default.

#include <istream>
#include <map>
#include <string>

namespace plinger::io {

using KeyValueMap = std::map<std::string, std::string>;

/// Parse a key = value stream.  Lines without `=` are ignored (blank
/// lines, prose); malformed lines with an empty key throw
/// InvalidArgument with the line number.
KeyValueMap parse_params(std::istream& is);

/// Parse the file at `path`; throws InvalidArgument when it cannot be
/// opened.
KeyValueMap read_params_file(const std::string& path);

}  // namespace plinger::io
