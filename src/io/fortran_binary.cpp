#include "io/fortran_binary.hpp"

#include "common/error.hpp"

namespace plinger::io {

void FortranRecordWriter::record(std::span<const double> values) {
  const auto bytes = static_cast<std::uint32_t>(values.size() *
                                                sizeof(double));
  os_.write(reinterpret_cast<const char*>(&bytes), sizeof(bytes));
  os_.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(bytes));
  os_.write(reinterpret_cast<const char*>(&bytes), sizeof(bytes));
  PLINGER_REQUIRE(os_.good(), "FortranRecordWriter: stream failure");
  ++n_records_;
}

FortranRecordReader::Status FortranRecordReader::next(
    std::vector<double>& out) {
  std::uint32_t head = 0;
  is_.read(reinterpret_cast<char*>(&head), sizeof(head));
  if (is_.gcount() == 0) return Status::eof;
  if (is_.gcount() < static_cast<std::streamsize>(sizeof(head)) ||
      head == 0 || head % sizeof(double) != 0 || head > kMaxRecordBytes) {
    return Status::torn;
  }
  out.resize(head / sizeof(double));
  is_.read(reinterpret_cast<char*>(out.data()),
           static_cast<std::streamsize>(head));
  if (is_.gcount() < static_cast<std::streamsize>(head)) {
    return Status::torn;
  }
  std::uint32_t tail = 0;
  is_.read(reinterpret_cast<char*>(&tail), sizeof(tail));
  if (is_.gcount() < static_cast<std::streamsize>(sizeof(tail)) ||
      tail != head) {
    return Status::torn;
  }
  offset_ += 2 * sizeof(std::uint32_t) + head;
  return Status::record;
}

}  // namespace plinger::io
