#include "store/mode_result_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <optional>

#include "io/fortran_binary.hpp"
#include "plinger/records.hpp"
#include "store/crc32.hpp"

namespace plinger::store {

namespace fs = std::filesystem;

namespace {

/// File header record: [magic, version, identity_hi, identity_lo, n_k,
/// reserved].  The identity's 32-bit halves are exact as doubles.
constexpr double kMagic = 1347440199.0;  // 0x504C4E47, "PLNG"
constexpr double kVersion = 1.0;
constexpr std::size_t kFileHeaderLength = 6;

/// Parse the file header record into `c`; throws StoreCorrupt when it
/// is not one.
void parse_file_header(const std::vector<double>& rec, JournalContents& c) {
  if (rec.size() != kFileHeaderLength || rec[0] != kMagic ||
      rec[1] != kVersion) {
    throw StoreCorrupt(
        "ModeResultStore: file is not a version-1 checkpoint journal");
  }
  // The identity halves and grid size travel as doubles; a well-framed
  // but corrupt header (NaN, negative, out of range) must be rejected
  // here — casting it first would be undefined behavior.
  constexpr double kTwo53 = 9007199254740992.0;
  const std::optional<RunIdentity> id =
      RunIdentity::from_halves(rec[2], rec[3]);
  if (!id || !parallel::castable_field(rec[4], kTwo53)) {
    throw StoreCorrupt(
        "ModeResultStore: checkpoint journal header fields are corrupt");
  }
  c.identity = *id;
  c.n_k = static_cast<std::size_t>(rec[4]);
}

/// Check and decode one mode record (21-double header + payload +
/// trailing CRC) into `c`.  Returns false on any damage — the caller
/// treats the record, and everything after it, as the torn tail.
bool parse_mode_record(const std::vector<double>& rec,
                       const std::string& path, JournalContents& c) {
  using parallel::kHeaderLength;
  if (rec.size() <= kHeaderLength) return false;
  const std::span<const double> body(rec.data(), rec.size() - 1);
  if (static_cast<double>(crc32_doubles(body)) != rec.back()) return false;
  const std::vector<double> header(rec.begin(),
                                   rec.begin() + kHeaderLength);
  const std::vector<double> payload(rec.begin() + kHeaderLength,
                                    rec.end() - 1);
  std::size_t ik = 0;
  try {
    boltzmann::ModeResult r = parallel::unpack_records(header, payload, ik);
    c.iks.push_back(ik);
    c.results.emplace(ik, std::move(r));  // first record wins
  } catch (const parallel::RetiredPayloadVersion& e) {
    // A CRC-clean retired record is not damage — treating it as a torn
    // tail would silently drop and recompute it.  Refuse the journal.
    throw StoreCorrupt("journal " + path + ": " + e.what());
  } catch (const Error&) {
    return false;
  }
  return true;
}

/// The one journal walk, behind read_journal() and the store's open.
/// Returns nullopt when the header frame is torn or absent (a crash
/// before the header was flushed); throws StoreCorrupt as documented on
/// read_journal().
std::optional<JournalContents> walk_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw StoreCorrupt("read_journal: cannot open " + path);
  }
  io::FortranRecordReader reader(in);
  std::vector<double> rec;
  if (reader.next(rec) != io::FortranRecordReader::Status::record) {
    return std::nullopt;
  }
  JournalContents c;
  parse_file_header(rec, c);
  for (;;) {
    c.good_bytes = reader.offset();
    const auto st = reader.next(rec);
    if (st == io::FortranRecordReader::Status::eof) return c;
    if (st == io::FortranRecordReader::Status::torn ||
        !parse_mode_record(rec, path, c)) {
      c.torn_tail = true;
      return c;
    }
  }
}

}  // namespace

ModeResultStore::ModeResultStore(const StoreOptions& opts, RunIdentity id,
                                 std::size_t n_k)
    : opts_(opts), id_(id), n_k_(n_k) {
  PLINGER_REQUIRE(!opts_.path.empty(), "ModeResultStore: empty path");

  // Advisory writer lock, held for the store's lifetime: a second
  // writer (a daemon and a CLI run pointed at the same journal) must
  // fail fast instead of interleaving appends.  Taken before the read
  // below so no writer ever reads a journal another writer is mutating.
  lock_fd_ = ::open(opts_.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  PLINGER_REQUIRE(lock_fd_ >= 0,
                  "ModeResultStore: cannot open " + opts_.path);
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    const bool held = errno == EWOULDBLOCK || errno == EAGAIN;
    ::close(lock_fd_);
    lock_fd_ = -1;
    if (held) {
      throw StoreBusy("ModeResultStore: journal " + opts_.path +
                      " is locked by another writer (a daemon or a "
                      "concurrent run); refusing to append concurrently");
    }
    throw StoreWriteError("ModeResultStore: cannot lock " + opts_.path);
  }

  // From here on a throw must release the lock: a failed constructor
  // never runs the destructor.
  try {
    open_journal();
  } catch (...) {
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
    lock_fd_ = -1;
    throw;
  }
}

void ModeResultStore::open_journal() {
  // The lock above created the file if it was absent.  A non-regular
  // file (a device) reports an error size and is read like any other.
  std::error_code ec;
  std::optional<JournalContents> journal;
  if (fs::file_size(opts_.path, ec) != 0) {
    journal = walk_journal(opts_.path);
    // No header frame: the crash came before even the file header was
    // flushed, so no result can have been recorded — start over.
    torn_tail_recovered_ = !journal;
  }

  if (journal) {
    if (journal->identity != id_ || journal->n_k != n_k_) {
      throw StoreIdentityMismatch(
          "ModeResultStore: journal " + opts_.path + " belongs to run " +
          journal->identity.hex() + " over " +
          std::to_string(journal->n_k) + " modes, but this run is " +
          id_.hex() + " over " + std::to_string(n_k_) +
          " modes; refusing to mix results from different physics");
    }
    for (const auto& [ik, r] : journal->results) in_journal_.insert(ik);
    n_duplicates_ = journal->iks.size() - journal->results.size();
    loaded_ = std::move(journal->results);
    if (journal->torn_tail) {
      // Torn tail from a crash mid-write: drop it, keep the prefix.
      fs::resize_file(opts_.path, journal->good_bytes);
      torn_tail_recovered_ = true;
    }
    out_.open(opts_.path, std::ios::binary | std::ios::app);
    PLINGER_REQUIRE(out_.is_open(),
                    "ModeResultStore: cannot append to " + opts_.path);
  } else {
    out_.open(opts_.path, std::ios::binary | std::ios::trunc);
    PLINGER_REQUIRE(out_.is_open(),
                    "ModeResultStore: cannot create " + opts_.path);
    write_file_header();
    out_.flush();
    require_writable("file header flush");
  }
}

ModeResultStore::~ModeResultStore() {
  try {
    flush();
  } catch (...) {
    // Destructor: a failed final flush must not terminate the process;
    // the journal simply ends at the last successful flush.
  }
  if (lock_fd_ >= 0) {
    // Close the stream (releasing its buffered state) before dropping
    // the lock, so the next writer never sees a half-flushed tail while
    // we still could have written more.
    out_.close();
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
  }
}

void ModeResultStore::require_writable(const char* when) {
  if (!out_.good()) {
    throw StoreWriteError(
        std::string("ModeResultStore: ") + when + " failed on " +
        opts_.path +
        " (disk full or I/O error); results are no longer being "
        "checkpointed");
  }
}

void ModeResultStore::write_file_header() {
  const auto [hi, lo] = id_.halves();
  const std::vector<double> rec = {
      kMagic, kVersion, hi, lo, static_cast<double>(n_k_), 0.0};
  io::FortranRecordWriter writer(out_);
  writer.record(rec);
  require_writable("file header write");
}

void ModeResultStore::append(std::size_t ik,
                             const boltzmann::ModeResult& result) {
  const auto header = parallel::pack_header(ik, result);
  const auto payload = parallel::pack_payload(ik, result);
  std::vector<double> rec;
  rec.reserve(header.size() + payload.size() + 1);
  rec.insert(rec.end(), header.begin(), header.end());
  rec.insert(rec.end(), payload.begin(), payload.end());
  rec.push_back(static_cast<double>(crc32_doubles(rec)));

  const std::lock_guard<std::mutex> lock(mutex_);
  // The drivers only schedule the residual, so a duplicate append is a
  // caller bug.
  const bool fresh = in_journal_.insert(ik).second;
  PLINGER_REQUIRE(fresh, "ModeResultStore: ik " + std::to_string(ik) +
                             " already checkpointed");
  io::FortranRecordWriter writer(out_);
  writer.record(rec);
  require_writable("append");
  ++n_appended_;
  ++n_unflushed_;
  if (opts_.flush_interval > 0 && n_unflushed_ >= opts_.flush_interval) {
    out_.flush();
    require_writable("flush");
    n_unflushed_ = 0;
  }
  if (opts_.stop_after > 0 && !stop_requested_ &&
      n_appended_ >= opts_.stop_after) {
    out_.flush();  // flush-then-stop: the journal survives the "crash"
    require_writable("flush");
    n_unflushed_ = 0;
    stop_requested_ = true;
  }
}

std::size_t ModeResultStore::n_appended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return n_appended_;
}

void ModeResultStore::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_.flush();
  require_writable("flush");
  n_unflushed_ = 0;
}

bool ModeResultStore::stop_requested() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stop_requested_;
}

JournalContents read_journal(const std::string& path) {
  std::optional<JournalContents> c = walk_journal(path);
  if (!c) throw StoreCorrupt("read_journal: no file header in " + path);
  return std::move(*c);
}

}  // namespace plinger::store
