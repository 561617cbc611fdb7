// Seeded mutation test over the one decode path for mode records: the
// io::FortranRecordReader framing, the read_journal() walk (which the
// store's open shares) and parallel::unpack_records().  Every mutated
// journal must end in a parse, a torn-tail stop or a plinger::Error
// subtype — never in another exception type.  A std::length_error from
// a wrapped payload length used to escape both the store's torn-tail
// logic and the serve daemon, which catch only plinger::Error.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "io/fortran_binary.hpp"
#include "store/crc32.hpp"
#include "store/mode_result_store.hpp"

namespace ps = plinger::store;
namespace pb = plinger::boltzmann;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kNk = 4;
constexpr ps::RunIdentity kIdentity{0x5EEDF00Dull};

/// Per-test file names: ctest runs the tests as concurrent processes.
std::string temp_path(const std::string& name) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "plinger_mutation_" + test->name() + "_" +
         name + ".bin";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small version-0 mode result with towers F_0..F_lmax and
/// G_0..G_lmax_pol.
pb::ModeResult fake_result(double k, std::size_t lmax,
                           std::size_t lmax_pol) {
  pb::ModeResult r;
  r.k = k;
  r.lmax = lmax;
  r.f_gamma.assign(lmax + 1, k);
  r.g_gamma.assign(lmax_pol + 1, 0.5 * k);
  r.final_state.delta_c = -k;
  return r;
}

/// The pristine journal's bytes: towers of a different length in every
/// record — short hierarchy-shaped ones for ik 1 and 3, taller
/// projected-shaped ones (G as tall as F) for ik 2 and 4.
std::string pristine_journal() {
  const std::string path = temp_path("pristine");
  std::error_code ec;
  fs::remove(path, ec);
  {
    ps::StoreOptions o;
    o.path = path;
    ps::ModeResultStore st(o, kIdentity, kNk);
    for (std::size_t ik = 1; ik <= kNk; ++ik) {
      const std::size_t lmax = 4 + 5 * ik;
      st.append(ik, fake_result(0.01 * static_cast<double>(ik), lmax,
                                ik % 2 == 0 ? lmax : 3));
    }
  }
  return read_file(path);
}

/// One length-framed record: where its leading marker and its body
/// start, and its length in doubles.
struct Frame {
  std::size_t marker = 0;
  std::size_t body = 0;
  std::size_t n = 0;
};

std::vector<Frame> frames_of(const std::string& bytes) {
  std::vector<Frame> frames;
  std::size_t at = 0;
  while (at < bytes.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + at, sizeof len);
    frames.push_back({at, at + sizeof len, len / sizeof(double)});
    at += 2 * sizeof len + len;
  }
  return frames;
}

double slot(const std::string& bytes, const Frame& f, std::size_t i) {
  double v = 0.0;
  std::memcpy(&v, bytes.data() + f.body + i * sizeof v, sizeof v);
  return v;
}

void set_slot(std::string& bytes, const Frame& f, std::size_t i, double v) {
  std::memcpy(bytes.data() + f.body + i * sizeof v, &v, sizeof v);
}

/// Recompute a mode record's trailing CRC so the mutation reaches the
/// decoder instead of stopping at the checksum.
void reseal(std::string& bytes, const Frame& f) {
  std::vector<double> rec(f.n);
  std::memcpy(rec.data(), bytes.data() + f.body, f.n * sizeof(double));
  const std::span<const double> body(rec.data(), f.n - 1);
  set_slot(bytes, f, f.n - 1,
           static_cast<double>(ps::crc32_doubles(body)));
}

/// Open `bytes` through read_journal() and, on a copy, through a
/// resuming ModeResultStore.  Returns a description of every exception
/// that is not a plinger::Error, and of a refused journal the store
/// modified; empty when both ended cleanly.
std::string escapes(const std::string& bytes) {
  std::string out;
  const auto attempt = [&out](const char* entry, const auto& open) {
    try {
      open();
    } catch (const plinger::Error&) {
      // A refusal the callers handle: the journal is corrupt or foreign.
      return false;
    } catch (const std::exception& e) {
      out += std::string(entry) + " threw " + typeid(e).name() + ": " +
             e.what() + "; ";
    } catch (...) {
      out += std::string(entry) + " threw a non-std exception; ";
    }
    return true;
  };
  const std::string reader_path = temp_path("read");
  write_file(reader_path, bytes);
  attempt("read_journal", [&] { (void)ps::read_journal(reader_path); });
  const std::string store_path = temp_path("store");
  write_file(store_path, bytes);
  const bool opened = attempt("ModeResultStore", [&] {
    ps::StoreOptions o;
    o.path = store_path;
    o.resume = true;
    ps::ModeResultStore st(o, kIdentity, kNk);
  });
  if (!opened && read_file(store_path) != bytes) {
    out += "ModeResultStore modified a journal it refused; ";
  }
  return out;
}

const std::vector<double>& hostile_values() {
  static const std::vector<double> values = {
      -5.0,
      -1.0,
      0.0,
      0.5,
      2.0,  // the retired record versions
      3.0,
      1e6,
      1e300,
      9007199254740992.0,     // 2^53
      18446744073709551616.0,  // 2^64
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  return values;
}

}  // namespace

TEST(JournalMutation, ResealedCountSlotsEndCleanly) {
  const std::string pristine = pristine_journal();
  write_file(temp_path("clean"), pristine);
  const ps::JournalContents clean = ps::read_journal(temp_path("clean"));
  ASSERT_TRUE(clean.complete());
  ASSERT_EQ(clean.results.at(2).g_gamma.size(), 15u);
  ASSERT_EQ(clean.results.at(3).g_gamma.size(), 4u);
  const std::vector<Frame> frames = frames_of(pristine);
  ASSERT_EQ(frames.size(), kNk + 1);
  std::size_t n_cases = 0;
  for (std::size_t r = 1; r < frames.size(); ++r) {
    const Frame& f = frames[r];
    ASSERT_EQ(slot(pristine, f, 21 + 7), 0.0) << "record " << r;
    // Header ik and lmax, payload ik, lmax and lmax_pol, and version.
    for (const std::size_t i : {0, 20, 21, 21 + 2, 21 + 3, 21 + 7}) {
      for (const double v : hostile_values()) {
        std::string bytes = pristine;
        set_slot(bytes, f, i, v);
        reseal(bytes, f);
        EXPECT_EQ(escapes(bytes), "")
            << "record " << r << " slot " << i << " value " << v;
        ++n_cases;
      }
    }
  }
  EXPECT_GT(n_cases, 200u);
}

TEST(JournalMutation, SeededDamageEndsCleanly) {
  const std::string pristine = pristine_journal();
  const std::vector<Frame> frames = frames_of(pristine);
  std::mt19937_64 rng(14);
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };

  // Any slot of any mode record, set to a hostile value and resealed.
  for (int c = 0; c < 300; ++c) {
    const std::size_t r = 1 + pick(frames.size() - 1);
    const std::size_t i = pick(frames[r].n - 1);
    const double v = hostile_values()[pick(hostile_values().size())];
    std::string bytes = pristine;
    set_slot(bytes, frames[r], i, v);
    reseal(bytes, frames[r]);
    EXPECT_EQ(escapes(bytes), "")
        << "record " << r << " slot " << i << " value " << v;
  }

  // Flipped bytes anywhere, not resealed.
  for (int c = 0; c < 300; ++c) {
    std::string bytes = pristine;
    const std::size_t n_flips = 1 + pick(4);
    for (std::size_t j = 0; j < n_flips; ++j) {
      bytes[pick(bytes.size())] ^= static_cast<char>(1 + pick(255));
    }
    EXPECT_EQ(escapes(bytes), "") << "flip case " << c;
  }

  // Truncated anywhere.
  for (int c = 0; c < 100; ++c) {
    const std::string bytes = pristine.substr(0, pick(pristine.size()));
    EXPECT_EQ(escapes(bytes), "") << "truncated to " << bytes.size();
  }

  // Length markers overwritten with hostile lengths.
  const std::uint32_t cap = plinger::io::FortranRecordReader::kMaxRecordBytes;
  for (const Frame& f : frames) {
    const std::size_t tail = f.body + f.n * sizeof(double);
    for (const std::uint32_t len :
         {0u, 1u, 7u, 8u, cap, cap + 8u, 0xFFFFFFF8u,
          static_cast<std::uint32_t>((f.n - 1) * sizeof(double)),
          static_cast<std::uint32_t>((f.n + 1) * sizeof(double))}) {
      for (const std::size_t at : {f.marker, tail}) {
        std::string bytes = pristine;
        std::memcpy(bytes.data() + at, &len, sizeof len);
        EXPECT_EQ(escapes(bytes), "")
            << "marker at " << at << " set to " << len;
      }
    }
  }
}
