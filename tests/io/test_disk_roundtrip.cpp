// On-disk round trip of the LINGER output pair, exactly as linger_cli
// writes them: header rows through the ASCII table, moment payloads
// through the Fortran-unformatted binary stream.

#include <cstdio>
#include <fstream>
#include <filesystem>

#include <gtest/gtest.h>

#include "boltzmann/mode_evolution.hpp"
#include "io/ascii_table.hpp"
#include "io/fortran_binary.hpp"
#include "plinger/records.hpp"

namespace pio = plinger::io;
namespace pp = plinger::parallel;
namespace pb = plinger::boltzmann;

namespace {
pb::ModeResult sample_result(double k, std::size_t lmax) {
  pb::ModeResult r;
  r.k = k;
  r.lmax = lmax;
  r.tau_end = 11839.0;
  r.f_gamma.resize(lmax + 1);
  for (std::size_t l = 0; l <= lmax; ++l) {
    r.f_gamma[l] = std::sin(0.1 * static_cast<double>(l)) * k;
  }
  r.g_gamma.assign(9, 0.25);
  r.final_state.delta_c = -100.0 * k;
  r.final_state.phi = 0.4;
  r.stats.n_accepted = 123;
  r.cpu_seconds = 0.5;
  return r;
}
}  // namespace

TEST(DiskRoundTrip, Unit1AndUnit2) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "plinger_io_test";
  fs::create_directories(dir);
  const auto unit1 = (dir / "unit1.txt").string();
  const auto unit2 = (dir / "unit2.bin").string();

  const std::vector<double> ks = {0.01, 0.02, 0.05};
  {
    std::ofstream f1(unit1);
    std::ofstream f2(unit2, std::ios::binary);
    pio::AsciiTableWriter table(
        f1, std::vector<std::string>(pp::kHeaderLength, "c"));
    pio::FortranRecordWriter records(f2);
    std::size_t ik = 1;
    for (double k : ks) {
      const auto r = sample_result(k, 10 + 2 * ik);
      table.row(pp::pack_header(ik, r));
      records.record(pp::pack_payload(ik, r));
      ++ik;
    }
  }

  // Read back and reassemble ModeResults.
  std::ifstream f1(unit1);
  const auto rows = pio::read_ascii_table(f1);
  ASSERT_EQ(rows.size(), ks.size());

  std::ifstream f2(unit2, std::ios::binary);
  pio::FortranRecordReader reader(f2);
  for (std::size_t i = 0; i < ks.size(); ++i) {
    ASSERT_EQ(rows[i].size(), pp::kHeaderLength);
    std::vector<double> payload;
    ASSERT_EQ(reader.next(payload),
              pio::FortranRecordReader::Status::record);
    std::size_t ik = 0;
    const auto r = pp::unpack_records(rows[i], payload, ik);
    EXPECT_EQ(ik, i + 1);
    EXPECT_EQ(r.k, ks[i]);
    EXPECT_EQ(r.lmax, 10 + 2 * (i + 1));
    const auto truth = sample_result(ks[i], r.lmax);
    EXPECT_EQ(r.f_gamma, truth.f_gamma);
    EXPECT_EQ(r.final_state.delta_c, truth.final_state.delta_c);
  }
  std::vector<double> extra;
  EXPECT_EQ(reader.next(extra), pio::FortranRecordReader::Status::eof);
  fs::remove_all(dir);
}
