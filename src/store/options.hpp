#pragma once

/// Host-side checkpoint/restart switches carried by RunSetup.  Like
/// TraceConfig, these never travel on the wire: the Appendix-A tag-1
/// broadcast stays the paper's 5 doubles, and workers know nothing about
/// the store — checkpointing is the master loop's business.

#include <cstddef>
#include <string>

namespace plinger::store {

struct StoreOptions {
  /// Journal path; empty disables checkpointing entirely.  An existing
  /// journal of the same run always resumes: its modes enter the output
  /// at open and only the remainder is scheduled.
  std::string path;

  /// Flush the journal to the OS every N appended records; 1 (the
  /// default) checkpoints every mode, larger values trade crash window
  /// for write batching (see bench_checkpoint), 0 flushes only on close.
  std::size_t flush_interval = 1;

  /// Test/ops hook: after this many records have been appended (and
  /// flushed), ask the driver to stop issuing new modes and wind down
  /// cleanly.  0 disables.  This is the "flush-then-stop" crash
  /// simulation used by the crash-resume tests; it also doubles as a
  /// budgeted-run primitive (checkpoint N modes per invocation).
  std::size_t stop_after = 0;
};

}  // namespace plinger::store
