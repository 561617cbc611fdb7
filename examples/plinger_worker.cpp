// plinger_worker: the worker side of a cross-process PLINGER run.
//
// A transport=tcp run splits the historical single process in two:
// linger_cli (or any RunPlan::execute() caller) is the master — it
// listens on tcp_listen, accepts workers, and runs the Appendix-A
// master loop — and each plinger_worker process connects, receives a
// rank in the rendezvous handshake, and serves mode-integration
// requests until the stop broadcast.
//
// Usage:
//   plinger_worker params.ini [--connect host:port]
//                  [--retry N] [--backoff-ms M]
//
// --retry/--backoff-ms override the file's tcp_retry/tcp_backoff_ms:
// up to N initial-connect attempts, sleeping M ms before the second and
// doubling each further attempt — for deployments where the master's
// box comes up after the workers'.
//
// The parameter file must describe the SAME run as the master's: the
// tag-1 init broadcast carries only 5 doubles, so the cosmology, k-grid
// and solver configuration are rebuilt here from the file.  Among the 5
// is the master's run identity, the hash that names its journal; this
// process serves only if its own file gives the same identity.  A file
// that differs in anything that shapes a result is refused at once: the
// master is told (its tag-7 death notice for this rank), the error names
// both identities, and the process exits 1 rather than corrupting the
// run.  --connect overrides the file's tcp_connect key, so one file can
// serve both sides (tcp_listen for the master, the override here).
//
// The process exits 0 after a clean stop broadcast AND when the master
// link drops — a worker outliving its master has nothing left to do.
// The wire protocol is specified byte-for-byte in docs/protocol.md
// ("TCP transport wire grammar").

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "io/params.hpp"
#include "run/config.hpp"
#include "run/plan.hpp"

int main(int argc, char** argv) {
  using namespace plinger;

  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: plinger_worker params.ini [--connect host:port] "
                 "[--retry N] [--backoff-ms M]\n");
    return 1;
  }
  std::string connect_override;
  int retry_override = -1, backoff_override = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect_override = argv[++i];
    } else if (arg == "--retry" && i + 1 < argc) {
      retry_override = std::atoi(argv[++i]);
    } else if (arg == "--backoff-ms" && i + 1 < argc) {
      backoff_override = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "plinger_worker: unknown argument '%s'\n",
                   arg.c_str());
      return 1;
    }
  }

  run::ConfigParse parsed;
  try {
    parsed = run::parse_config(io::read_params_file(argv[1]));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plinger_worker: %s\n", e.what());
    return 1;
  }
  for (const std::string& key : parsed.unknown_keys) {
    std::fprintf(stderr, "plinger_worker: warning: unrecognized key '%s'\n",
                 key.c_str());
  }
  run::RunConfig cfg = parsed.config;
  cfg.transport = "tcp";
  if (!connect_override.empty()) cfg.tcp_connect = connect_override;
  if (retry_override >= 0) cfg.tcp_retry = retry_override;
  if (backoff_override >= 0) cfg.tcp_backoff_ms = backoff_override;
  if (cfg.tcp_connect.empty() && !cfg.tcp_listen.empty()) {
    // Convenience: a master-side file names only tcp_listen; dial it.
    cfg.tcp_connect = cfg.tcp_listen;
  }
  // The worker never touches the journal — the master owns the store.
  cfg.store.clear();

  try {
    const auto ctx = run::make_context(cfg);
    const run::RunPlan plan(cfg, ctx);
    std::printf("plinger_worker: joining %s (%zu modes scheduled)\n",
                cfg.tcp_connect.c_str(), plan.schedule().size());
    plan.execute_worker();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plinger_worker: %s\n", e.what());
    return 1;
  }
  std::printf("plinger_worker: done\n");
  return 0;
}
