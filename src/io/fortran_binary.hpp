#pragma once

/// Fortran unformatted sequential records — the master's "unit_2" binary
/// stream.  Each record is framed by 4-byte little-endian length markers
/// (the classic gfortran/Cray convention), so LINGER-era analysis tools
/// could read our output byte for byte.

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

namespace plinger::io {

/// Writes length-framed records of doubles to a binary stream.
class FortranRecordWriter {
 public:
  explicit FortranRecordWriter(std::ostream& os) : os_(os) {}

  /// Write one record.
  void record(std::span<const double> values);

  std::size_t records_written() const { return n_records_; }

 private:
  std::ostream& os_;
  std::size_t n_records_ = 0;
};

/// Reads records written by FortranRecordWriter — the one length-framed
/// decoder for unit_2 streams and checkpoint journals alike.  It never
/// throws on damage: a frame that is cut short, whose two markers
/// disagree, or whose length is zero (no writer emits an empty record),
/// not a whole number of doubles or over kMaxRecordBytes is reported as
/// `torn`, and offset() says where the good prefix ends so a caller can
/// truncate there.  The length cap is checked before anything is
/// allocated: a torn tail can leave arbitrary garbage where a length
/// marker should be.
class FortranRecordReader {
 public:
  enum class Status { record, eof, torn };

  static constexpr std::uint32_t kMaxRecordBytes = 1u << 26;  // 64 MiB

  explicit FortranRecordReader(std::istream& is) : is_(is) {}

  /// Read the next record into `out`: `record`, `eof` at a clean end of
  /// stream, or `torn` (see above; stop reading there).
  Status next(std::vector<double>& out);

  /// Byte offset just past the last good record.
  std::uint64_t offset() const { return offset_; }

 private:
  std::istream& is_;
  std::uint64_t offset_ = 0;
};

}  // namespace plinger::io
