// Request-parsing tests: command dispatch with did-you-mean hints,
// RunConfig bodies (applied values, strict unknown-key refusal with the
// CLI's suggestions), malformed bodies, and the reserved-key fence.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/request.hpp"

namespace sv = plinger::serve;

namespace {

sv::RequestParse parse(const std::string& cmd,
                       std::vector<std::string> body = {}) {
  return sv::parse_request(cmd, body);
}

}  // namespace

TEST(ServeRequest, BareCommands) {
  EXPECT_TRUE(parse("PING").error.empty());
  EXPECT_EQ(parse("PING").request.command, sv::Command::ping);
  EXPECT_EQ(parse("STATS").request.command, sv::Command::stats);
  EXPECT_EQ(parse("QUIT").request.command, sv::Command::quit);
  // Surrounding whitespace and a stray CR are tolerated.
  EXPECT_EQ(parse("  PING \r").request.command, sv::Command::ping);
}

TEST(ServeRequest, UnknownCommandSuggests) {
  const auto p = parse("PIGN");
  EXPECT_FALSE(p.error.empty());
  EXPECT_NE(p.error.find("unknown command 'PIGN'"), std::string::npos);
  EXPECT_NE(p.error.find("did you mean 'PING'"), std::string::npos);

  // Nothing close: no suggestion clause.
  const auto far = parse("FROBNICATE");
  EXPECT_FALSE(far.error.empty());
  EXPECT_EQ(far.error.find("did you mean"), std::string::npos);
}

TEST(ServeRequest, RunBodyIsParsedAndValidated) {
  const auto p = parse("RUN", {"n_k = 7", "preset = lcdm", "rtol = 1e-4"});
  ASSERT_TRUE(p.error.empty()) << p.error;
  EXPECT_EQ(p.request.command, sv::Command::run);
  EXPECT_EQ(p.request.config.n_k, 7u);
  EXPECT_EQ(p.request.config.preset, "lcdm");
  EXPECT_DOUBLE_EQ(p.request.config.rtol, 1e-4);
}

TEST(ServeRequest, EmptyBodyIsTheDefaultConfig) {
  const auto p = parse("RUN");
  ASSERT_TRUE(p.error.empty()) << p.error;
  EXPECT_EQ(p.request.config, plinger::run::RunConfig{});
}

TEST(ServeRequest, UnknownKeyIsRefusedWithSuggestion) {
  // The CLI warns and runs anyway; the daemon refuses — a typo must not
  // silently cost a default-valued computation.
  const auto p = parse("RUN", {"sover = los"});
  ASSERT_FALSE(p.error.empty());
  EXPECT_NE(p.error.find("unrecognized key 'sover'"), std::string::npos);
  EXPECT_NE(p.error.find("did you mean 'solver'"), std::string::npos);
}

TEST(ServeRequest, OutOfRangeValueIsRefused) {
  const auto p = parse("RUN", {"rtol = 0"});
  ASSERT_FALSE(p.error.empty());
  EXPECT_NE(p.error.find("rtol"), std::string::npos);
}

TEST(ServeRequest, MalformedBodyIsRefused) {
  const auto p = parse("RUN", {"this is not a key value line"});
  ASSERT_FALSE(p.error.empty());
  EXPECT_NE(p.error.find("malformed request body"), std::string::npos);
}

TEST(ServeRequest, ReservedKeysAreFenced) {
  for (const char* key : {"store", "flush_interval", "stop_after", "trace",
                          "trace_json"}) {
    EXPECT_TRUE(sv::is_reserved_key(key)) << key;
    const auto p = parse("RUN", {std::string(key) + " = 1"});
    ASSERT_FALSE(p.error.empty()) << key;
    EXPECT_NE(p.error.find("reserved"), std::string::npos) << key;
  }
  EXPECT_FALSE(sv::is_reserved_key("n_k"));
  // `resume` is no key: every journal resumes.
  EXPECT_FALSE(sv::is_reserved_key("resume"));
  const auto p = parse("RUN", {"resume = 1"});
  EXPECT_EQ(p.error.rfind("unrecognized key 'resume'", 0), 0u) << p.error;
}
