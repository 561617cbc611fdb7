#include "io/ascii_table.hpp"
#include "io/fortran_binary.hpp"
#include "io/ppm.hpp"

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pio = plinger::io;
using Status = pio::FortranRecordReader::Status;

TEST(AsciiTable, WriteReadRoundTrip) {
  std::stringstream ss;
  pio::AsciiTableWriter w(ss, {"k", "delta", "phi"});
  w.row(std::vector<double>{0.01, -5.5, 0.43});
  w.row(std::vector<double>{0.02, -9.25, 0.41});
  EXPECT_EQ(w.rows_written(), 2u);

  const auto rows = pio::read_ascii_table(ss);
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0].size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0][0], 0.01);
  EXPECT_DOUBLE_EQ(rows[1][1], -9.25);
  EXPECT_DOUBLE_EQ(rows[1][2], 0.41);
}

TEST(AsciiTable, HeaderAndCommentsSkippedOnRead) {
  std::stringstream ss("# a b\n  1 2\n# comment\n 3 4\n\n");
  const auto rows = pio::read_ascii_table(ss);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[1][0], 3.0);
}

TEST(AsciiTable, RejectsColumnMismatch) {
  std::stringstream ss;
  pio::AsciiTableWriter w(ss, {"a", "b"});
  EXPECT_THROW(w.row(std::vector<double>{1.0}), plinger::InvalidArgument);
}

TEST(FortranBinary, RoundTripRecords) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  pio::FortranRecordWriter w(ss);
  const std::vector<double> r1 = {1.0, 2.0, 3.0};
  const std::vector<double> r2 = {-4.5};
  std::vector<double> r3(100);
  for (std::size_t i = 0; i < 100; ++i) r3[i] = 0.5 * static_cast<double>(i);
  w.record(r1);
  w.record(r2);
  w.record(r3);
  EXPECT_EQ(w.records_written(), 3u);

  pio::FortranRecordReader reader(ss);
  std::vector<double> out;
  ASSERT_EQ(reader.next(out), Status::record);
  EXPECT_EQ(out, r1);
  ASSERT_EQ(reader.next(out), Status::record);
  EXPECT_EQ(out, r2);
  ASSERT_EQ(reader.next(out), Status::record);
  EXPECT_EQ(out, r3);
  EXPECT_EQ(reader.next(out), Status::eof);
  EXPECT_EQ(reader.offset(), ss.str().size());
}

TEST(FortranBinary, FramingBytesAreLittleEndian32) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  pio::FortranRecordWriter w(ss);
  w.record(std::vector<double>{7.0});
  const std::string bytes = ss.str();
  ASSERT_EQ(bytes.size(), 4u + 8u + 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 8);
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0);
  EXPECT_EQ(static_cast<unsigned char>(bytes[12]), 8);
}

TEST(FortranBinary, DetectsCorruptFraming) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  pio::FortranRecordWriter w(ss);
  w.record(std::vector<double>{7.0, 8.0});
  const std::string good = ss.str();
  std::string bytes = good;
  bytes[bytes.size() - 1] ^= 0x7;  // damage the trailing marker
  std::stringstream corrupt(bytes,
                            std::ios::in | std::ios::out | std::ios::binary);
  pio::FortranRecordReader reader(corrupt);
  std::vector<double> out;
  EXPECT_EQ(reader.next(out), Status::torn);
  EXPECT_EQ(reader.offset(), 0u);

  // More damaged frames, each after one good record: a zero length, a
  // length that is not whole doubles, a length past the 64 MiB cap, a
  // body cut short, and a half-written length marker.  Each reads as
  // torn, and offset() still ends the good prefix.
  const auto marker = [](std::uint32_t n) {
    return std::string(reinterpret_cast<const char*>(&n), sizeof n);
  };
  const std::vector<std::string> tails = {
      marker(0) + marker(0), marker(12) + std::string(12, '\0') + marker(12),
      marker(pio::FortranRecordReader::kMaxRecordBytes + 8),
      marker(16) + std::string(8, '\0'), std::string(2, '\x10')};
  for (const std::string& tail : tails) {
    std::stringstream damaged(good + tail, std::ios::in | std::ios::binary);
    pio::FortranRecordReader after_good(damaged);
    ASSERT_EQ(after_good.next(out), Status::record);
    EXPECT_EQ(after_good.next(out), Status::torn) << tail.size();
    EXPECT_EQ(after_good.offset(), good.size());
  }
}

TEST(Ppm, PgmHeaderAndSize) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  const std::vector<double> data = {0.0, 0.5, 1.0, 0.25, 0.75, 0.9};
  pio::write_pgm(ss, data, 3, 2, 0.0, 1.0);
  const std::string s = ss.str();
  EXPECT_EQ(s.rfind("P5\n3 2\n255\n", 0), 0u);
  EXPECT_EQ(s.size(), std::string("P5\n3 2\n255\n").size() + 6u);
  // Extremes map to 0 and 255.
  const auto* pix = reinterpret_cast<const unsigned char*>(
      s.data() + s.size() - 6);
  EXPECT_EQ(pix[0], 0);
  EXPECT_EQ(pix[2], 255);
}

TEST(Ppm, DivergingColormapEndpoints) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  const std::vector<double> data = {-1.0, 0.0, 1.0, 0.0};
  pio::write_ppm_diverging(ss, data, 2, 2, -1.0, 1.0);
  const std::string s = ss.str();
  const auto* pix = reinterpret_cast<const unsigned char*>(
      s.data() + s.size() - 12);
  // -1 -> blue (0,0,255); 0 -> white; +1 -> red (255,0,0).
  EXPECT_EQ(pix[0], 0);
  EXPECT_EQ(pix[2], 255);
  EXPECT_EQ(pix[3], 255);
  EXPECT_EQ(pix[4], 255);
  EXPECT_EQ(pix[5], 255);
  EXPECT_EQ(pix[6], 255);
  EXPECT_EQ(pix[7], 0);
  EXPECT_EQ(pix[8], 0);
}

TEST(Ppm, RejectsBadDimensions) {
  std::stringstream ss;
  const std::vector<double> data = {1.0, 2.0};
  EXPECT_THROW(pio::write_pgm(ss, data, 3, 2, 0.0, 1.0),
               plinger::InvalidArgument);
  EXPECT_THROW(pio::write_pgm(ss, data, 2, 1, 1.0, 1.0),
               plinger::InvalidArgument);
}
