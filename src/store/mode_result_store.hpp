#pragma once

/// Crash-safe checkpoint/restart store for completed mode results.
///
/// The COSMICS descendant of LINGER shipped restart files because losing
/// a half-finished production run on a shared SP2 queue was
/// unacceptable; this is the same primitive for plinger++.  A store is
/// one append-only binary journal:
///
///   record 0   file header — magic, format version, the 64-bit run
///              identity (store/identity.hpp) and the grid size
///   record i   one completed mode — the Appendix-A tag-4 21-double
///              header, the tag-5 payload (8 + moments doubles), and a
///              trailing CRC-32 of the record body
///
/// Every mode record is version 0 (payload preamble slot y[7], see
/// plinger/records.hpp): a line-of-sight mode is journaled as the F_l/G_l
/// towers its worker projected, exactly like a hierarchy mode.  The two
/// families still never mix: solver=los runs stamp an LOS-extended
/// identity (store/identity.hpp), so a hierarchy run opening an LOS
/// journal — or vice versa — fails with StoreIdentityMismatch instead
/// of resuming.
///
/// Every record uses the io/fortran_binary length framing, i.e. the
/// journal is a valid unit_2-style stream with one extra leading record
/// and one trailing checksum double per mode — era tools that skip
/// unknown records can still walk it.
///
/// Decoding has one path: io::FortranRecordReader frames the records,
/// read_journal() walks them (the store's open included), and
/// parallel::unpack_records() decodes each CRC-checked mode record.
///
/// Crash safety is the append-only contract: a record is either wholly
/// present (framing intact, CRC matches, decodes) or it is the torn
/// tail left by a crash mid-write.  Opening a store truncates a torn
/// tail instead of failing the run; everything before it is intact
/// because nothing is ever rewritten.  A journal whose identity differs
/// from the opening run is rejected with StoreIdentityMismatch — a
/// store is only ever resumed against the exact same physics.

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "boltzmann/mode_evolution.hpp"
#include "common/error.hpp"
#include "store/identity.hpp"
#include "store/options.hpp"

namespace plinger::store {

/// The journal belongs to a different run (wrong identity hash or grid
/// size).  Resuming it would mix results from different physics.
class StoreIdentityMismatch : public Error {
 public:
  explicit StoreIdentityMismatch(const std::string& what) : Error(what) {}
};

/// The journal is damaged beyond torn-tail recovery (unreadable or
/// corrupt file header record).
class StoreCorrupt : public Error {
 public:
  explicit StoreCorrupt(const std::string& what) : Error(what) {}
};

/// A journal write or flush failed (disk full, I/O error).  Raised
/// eagerly from append()/flush() — a run must learn that checkpointing
/// has stopped working now, not on the next resume.
class StoreWriteError : public Error {
 public:
  explicit StoreWriteError(const std::string& what) : Error(what) {}
};

/// Another process holds the journal open for writing.  Each
/// ModeResultStore takes an advisory exclusive lock (flock) on its
/// journal for its whole lifetime, so a daemon and a CLI run pointed at
/// the same path cannot interleave appends and corrupt it — the second
/// opener fails fast with this instead.
class StoreBusy : public Error {
 public:
  explicit StoreBusy(const std::string& what) : Error(what) {}
};

/// A journal's full read-only contents: what read_journal() recovers
/// without opening the file for writing (and without taking the write
/// lock).  Duplicate records keep the first occurrence.
struct JournalContents {
  RunIdentity identity;
  std::size_t n_k = 0;  ///< grid size stamped in the header
  std::map<std::size_t, boltzmann::ModeResult> results;
  std::vector<std::size_t> iks;  ///< journal order, duplicates kept
  std::uint64_t good_bytes = 0;  ///< end of the prefix of good records
  bool torn_tail = false;  ///< bytes past good_bytes were skipped

  /// True when every mode of the stamped grid is present — the journal
  /// can answer a repeat request by itself, no recompute needed.
  bool complete() const { return n_k > 0 && results.size() == n_k; }
};

/// Read a journal without opening it for writing: the one journal walk,
/// shared by ModeResultStore's open, the serve layer's warm-start path
/// and any read-through consumer.  Advisory locking is writer-vs-writer
/// only, so this works while a store holds the journal open.  A torn
/// frame or a record that fails its CRC or its decode ends the read
/// early (torn_tail is set) instead of failing.  Throws StoreCorrupt
/// when the file is missing, when its header frame is torn or absent or
/// is not a journal header, and when a CRC-clean record has a retired
/// sample-bearing layout, version 2 or 3 (plinger/records.hpp).
JournalContents read_journal(const std::string& path);

class ModeResultStore {
 public:
  /// Open (creating if absent) the journal at opts.path for the run
  /// identified by `id` over an n_k-point grid.  An existing journal is
  /// read with read_journal(), identity-checked, torn-tail-truncated,
  /// and — when opts.resume is set — its records are loaded into
  /// loaded().  An empty file, or one whose header frame is torn (a
  /// crash before the header was flushed), starts over as a fresh
  /// journal.
  ModeResultStore(const StoreOptions& opts, RunIdentity id,
                  std::size_t n_k);
  ~ModeResultStore();  ///< flushes; never throws

  ModeResultStore(const ModeResultStore&) = delete;
  ModeResultStore& operator=(const ModeResultStore&) = delete;

  /// Results recovered from the journal at open (empty when resume was
  /// off or the journal was fresh).  First record wins for duplicate ik.
  const std::map<std::size_t, boltzmann::ModeResult>& loaded() const {
    return loaded_;
  }
  bool contains(std::size_t ik) const { return loaded_.count(ik) != 0; }

  std::size_t n_loaded() const { return loaded_.size(); }
  bool torn_tail_recovered() const { return torn_tail_recovered_; }
  std::size_t n_duplicates_dropped() const { return n_duplicates_; }

  /// Append one completed mode.  Thread-safe; flushes per
  /// StoreOptions::flush_interval.  With resume on, appending an ik that
  /// is already in the journal is a caller bug (the drivers only
  /// schedule the residual) and throws InvalidArgument; with resume off
  /// the drivers recompute the full schedule over an existing journal,
  /// so an already-journaled ik is silently skipped (append-only: the
  /// first record wins) and counted in n_append_skipped().
  void append(std::size_t ik, const boltzmann::ModeResult& result);

  std::size_t n_appended() const;
  std::size_t n_append_skipped() const;

  /// Push buffered records to the OS now (a checkpoint barrier).
  void flush();

  /// True once stop_after appends have happened (and been flushed):
  /// the drivers stop issuing fresh modes and wind down.
  bool stop_requested() const;

 private:
  void open_journal();  ///< read/truncate/load + open for append
  void write_file_header();
  void require_writable(const char* when);  ///< throws StoreWriteError

  StoreOptions opts_;
  RunIdentity id_;
  std::size_t n_k_ = 0;
  int lock_fd_ = -1;  ///< advisory flock held for the store's lifetime

  mutable std::mutex mutex_;
  std::ofstream out_;
  std::size_t n_appended_ = 0;
  std::size_t n_append_skipped_ = 0;
  std::size_t n_unflushed_ = 0;
  bool stop_requested_ = false;

  std::map<std::size_t, boltzmann::ModeResult> loaded_;
  std::set<std::size_t> in_journal_;  ///< every ik ever written
  std::size_t n_duplicates_ = 0;
  bool torn_tail_recovered_ = false;
};

}  // namespace plinger::store
