// ModeResultStore unit tests: CRC vectors, run-identity sensitivity,
// journal round-trip, torn-tail recovery, and the rejection paths
// (foreign files, wrong identity, duplicate appends).

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boltzmann/config.hpp"
#include "common/error.hpp"
#include "cosmo/params.hpp"
#include "io/fortran_binary.hpp"
#include "plinger/records.hpp"
#include "store/crc32.hpp"
#include "store/identity.hpp"
#include "store/mode_result_store.hpp"

namespace ps = plinger::store;
namespace pp = plinger::parallel;
namespace pb = plinger::boltzmann;
namespace pc = plinger::cosmo;
namespace fs = std::filesystem;

namespace {

std::string temp_path(const std::string& name) {
  const std::string p = ::testing::TempDir() + "plinger_" + name + ".bin";
  std::error_code ec;
  fs::remove(p, ec);
  return p;
}

/// A deterministic fake result, same shape as test_faults.cpp uses:
/// small lmax so records stay tiny.
pb::ModeResult fake_result(double k) {
  pb::ModeResult r;
  r.k = k;
  r.lmax = 8;
  r.f_gamma.assign(9, k);
  r.g_gamma.assign(5, 0.5 * k);
  r.final_state.delta_c = -k;
  return r;
}

ps::RunIdentity test_identity() {
  const pc::CosmoParams params = pc::CosmoParams::standard_cdm();
  const pb::PerturbationConfig cfg;
  const std::vector<double> grid = {0.01, 0.02, 0.05, 0.1};
  return ps::run_identity(params, {}, cfg, grid, 600.0, 24.0);
}

ps::StoreOptions opts_for(const std::string& path) {
  ps::StoreOptions o;
  o.path = path;
  return o;
}

/// Append one mode record built from raw header/payload doubles, sealed
/// with a valid CRC exactly as ModeResultStore::append frames it.
void append_sealed(const std::string& path, std::vector<double> rec,
                   const std::vector<double>& payload) {
  rec.insert(rec.end(), payload.begin(), payload.end());
  rec.push_back(static_cast<double>(ps::crc32_doubles(rec)));
  std::ofstream f(path, std::ios::binary | std::ios::app);
  plinger::io::FortranRecordWriter w(f);
  w.record(rec);
}

/// A CRC-clean classic record whose count slots wrap the payload-length
/// sum: `which` 0 is header lmax -5 with lmax_pol 100 over 105 doubles,
/// 1 is lmax 10 with lmax_pol -5 over 15 doubles.  Decoding either used
/// to escape as std::length_error (or read past the payload).
void append_wrapping_record(const std::string& path, std::size_t ik,
                            int which) {
  auto header = pp::pack_header(ik, fake_result(0.07));
  std::vector<double> payload(which == 0 ? 105 : 15, 0.0);
  payload[0] = static_cast<double>(ik);
  header[20] = which == 0 ? -5.0 : 10.0;
  payload[3] = which == 0 ? 100.0 : -5.0;
  append_sealed(path, header, payload);
}

}  // namespace

TEST(Crc32, KnownVector) {
  // The classic IEEE check value: CRC32("123456789") = 0xCBF43926.
  const unsigned char digits[] = {'1', '2', '3', '4', '5',
                                  '6', '7', '8', '9'};
  EXPECT_EQ(ps::crc32(digits), 0xCBF43926u);
  EXPECT_EQ(ps::crc32(std::span<const unsigned char>{}), 0u);
}

TEST(Crc32, SeedContinuationMatchesOneShot) {
  const unsigned char data[] = {'p', 'l', 'i', 'n', 'g', 'e', 'r'};
  const std::span<const unsigned char> all(data);
  const auto whole = ps::crc32(all);
  const auto piecewise = ps::crc32(all.subspan(3), ps::crc32(all.first(3)));
  EXPECT_EQ(piecewise, whole);
}

namespace {

/// The textbook bytewise CRC-32, one table-free bit loop per byte: the
/// reference the word-at-a-time implementation must reproduce.
std::uint32_t crc32_bitwise(std::span<const unsigned char> data,
                            std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const unsigned char byte : data) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace

TEST(Crc32, MatchesTheBytewiseReference) {
  // Every length up to a few words at every alignment (the word loop,
  // the bytewise tail and the empty span), then random long buffers,
  // each also checksummed in two calls split at a random byte.
  std::mt19937 rng(20261022);
  std::vector<unsigned char> buf(4096 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  const auto check = [&](std::size_t offset, std::size_t len) {
    const std::span<const unsigned char> s(buf.data() + offset, len);
    const std::uint32_t want = crc32_bitwise(s, 0);
    EXPECT_EQ(ps::crc32(s), want) << "offset " << offset << " len " << len;
    const std::size_t cut = len == 0 ? 0 : rng() % (len + 1);
    EXPECT_EQ(ps::crc32(s.subspan(cut), ps::crc32(s.first(cut))), want)
        << "offset " << offset << " len " << len << " cut " << cut;
    const std::uint32_t seed = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(ps::crc32(s, seed), crc32_bitwise(s, seed))
        << "offset " << offset << " len " << len << " seed " << seed;
  };
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 40; ++len) check(offset, len);
  }
  for (int draw = 0; draw < 200; ++draw) {
    check(rng() % 8, rng() % 4097);
  }
}

TEST(Crc32, DoublesMatchesRawBytes) {
  const std::vector<double> values = {0.0, 1.5, -3.25, 1e300};
  const auto* bytes =
      reinterpret_cast<const unsigned char*>(values.data());
  const std::span<const unsigned char> raw(
      bytes, values.size() * sizeof(double));
  EXPECT_EQ(ps::crc32_doubles(values), ps::crc32(raw));
}

TEST(RunIdentity, DeterministicAndSensitive) {
  const pc::CosmoParams params = pc::CosmoParams::standard_cdm();
  const pb::PerturbationConfig cfg;
  const std::vector<double> grid = {0.01, 0.02, 0.05};
  const auto base = ps::run_identity(params, {}, cfg, grid, 600.0, 24.0);

  // Same inputs, same hash.
  EXPECT_EQ(ps::run_identity(params, {}, cfg, grid, 600.0, 24.0), base);

  // Every input class moves the hash.
  pc::CosmoParams p2 = params;
  p2.h += 1e-10;
  EXPECT_NE(ps::run_identity(p2, {}, cfg, grid, 600.0, 24.0), base);

  pb::PerturbationConfig c2 = cfg;
  c2.rtol *= 0.5;
  EXPECT_NE(ps::run_identity(params, {}, c2, grid, 600.0, 24.0), base);

  pb::PerturbationConfig c3 = cfg;
  c3.ic_type = pb::InitialConditionType::cdm_isocurvature;
  EXPECT_NE(ps::run_identity(params, {}, c3, grid, 600.0, 24.0), base);

  std::vector<double> g2 = grid;
  g2.back() += 1e-12;
  EXPECT_NE(ps::run_identity(params, {}, cfg, g2, 600.0, 24.0), base);

  std::vector<double> g3 = grid;
  g3.push_back(0.1);
  EXPECT_NE(ps::run_identity(params, {}, cfg, g3, 600.0, 24.0), base);

  EXPECT_NE(ps::run_identity(params, {}, cfg, grid, 700.0, 24.0), base);
  EXPECT_NE(ps::run_identity(params, {}, cfg, grid, 600.0, 32.0), base);

  // Recombination options: the defaults hash nothing, anything else does.
  EXPECT_EQ(ps::run_identity(params, pc::Recombination::Options{}, cfg,
                             grid, 600.0, 24.0),
            base);
  pc::Recombination::Options reion;
  reion.z_reion = 10.0;
  EXPECT_NE(ps::run_identity(params, reion, cfg, grid, 600.0, 24.0), base);
  EXPECT_NE(ps::cosmology_key(params, reion), ps::cosmology_key(params, {}));
}

TEST(RunIdentity, HalvesRoundTripEveryBitExactly) {
  for (const std::uint64_t v :
       {UINT64_C(0), UINT64_C(0xE0DE65790795AA5C), UINT64_C(0xFFFFFFFFFFFFFFFF),
        (UINT64_C(1) << 53) + 1, UINT64_C(0x8000000000000001)}) {
    const ps::RunIdentity id{v};
    const auto [hi, lo] = id.halves();
    EXPECT_EQ(ps::RunIdentity::from_halves(hi, lo), id) << id.hex();
  }
  EXPECT_EQ(ps::RunIdentity{0xE0DE65790795AA5Cu}.hex(), "0xe0de65790795aa5c");
  // Not an integer in [0, 2^32): no identity, never a cast.
  for (const double bad : {-1.0, 4294967296.0, 0.5,
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_FALSE(ps::RunIdentity::from_halves(bad, 0.0).has_value()) << bad;
    EXPECT_FALSE(ps::RunIdentity::from_halves(0.0, bad).has_value()) << bad;
  }
}

TEST(ModeResultStore, FreshJournalRoundTrip) {
  const auto path = temp_path("roundtrip");
  const auto id = test_identity();
  {
    ps::ModeResultStore st(opts_for(path), id, 4);
    EXPECT_EQ(st.n_loaded(), 0u);
    EXPECT_FALSE(st.torn_tail_recovered());
    for (std::size_t ik = 1; ik <= 4; ++ik) {
      st.append(ik, fake_result(0.01 * static_cast<double>(ik)));
    }
    EXPECT_EQ(st.n_appended(), 4u);
  }

  // Reopen: every record comes back, wire fields intact.
  ps::ModeResultStore st(opts_for(path), id, 4);
  EXPECT_EQ(st.n_loaded(), 4u);
  EXPECT_FALSE(st.torn_tail_recovered());
  EXPECT_EQ(st.n_duplicates_dropped(), 0u);
  for (std::size_t ik = 1; ik <= 4; ++ik) {
    ASSERT_TRUE(st.contains(ik));
    const auto& r = st.loaded().at(ik);
    const double k = 0.01 * static_cast<double>(ik);
    EXPECT_EQ(r.k, k);
    EXPECT_EQ(r.lmax, 8u);
    ASSERT_EQ(r.f_gamma.size(), 9u);
    EXPECT_EQ(r.f_gamma[3], k);
    ASSERT_EQ(r.g_gamma.size(), 5u);
    EXPECT_EQ(r.g_gamma[0], 0.5 * k);
    EXPECT_EQ(r.final_state.delta_c, -k);
  }

  const auto journal = ps::read_journal(path);
  EXPECT_EQ(journal.identity, id);
  EXPECT_EQ(journal.n_k, 4u);
  EXPECT_EQ(journal.iks, (std::vector<std::size_t>{1, 2, 3, 4}));
  EXPECT_FALSE(journal.torn_tail);
  EXPECT_EQ(journal.good_bytes, fs::file_size(path));
}

TEST(ModeResultStore, TornTailIsTruncatedOnOpen) {
  const auto path = temp_path("torn");
  const auto id = test_identity();
  {
    ps::ModeResultStore st(opts_for(path), id, 4);
    for (std::size_t ik = 1; ik <= 3; ++ik) {
      st.append(ik, fake_result(0.01 * static_cast<double>(ik)));
    }
  }
  const auto good_size = fs::file_size(path);

  // Simulate a crash mid-write: a valid length marker followed by only
  // part of the promised body.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const std::uint32_t head = 44 * sizeof(double);
    f.write(reinterpret_cast<const char*>(&head), sizeof(head));
    const double partial[3] = {1.0, 2.0, 3.0};
    f.write(reinterpret_cast<const char*>(partial), sizeof(partial));
  }
  ASSERT_GT(fs::file_size(path), good_size);
  EXPECT_TRUE(ps::read_journal(path).torn_tail);

  {
    ps::ModeResultStore st(opts_for(path), id, 4);
    EXPECT_TRUE(st.torn_tail_recovered());
    EXPECT_EQ(st.n_loaded(), 3u);
    EXPECT_EQ(fs::file_size(path), good_size);
    st.append(4, fake_result(0.04));  // journal keeps working after repair
  }
  ps::ModeResultStore st(opts_for(path), id, 4);
  EXPECT_FALSE(st.torn_tail_recovered());
  EXPECT_EQ(st.n_loaded(), 4u);
}

TEST(ModeResultStore, CorruptRecordBodyDropsTheTail) {
  const auto path = temp_path("bitrot");
  const auto id = test_identity();
  {
    ps::ModeResultStore st(opts_for(path), id, 4);
    for (std::size_t ik = 1; ik <= 3; ++ik) {
      st.append(ik, fake_result(0.01 * static_cast<double>(ik)));
    }
  }
  // Flip a byte inside the LAST record's body: framing stays intact but
  // the CRC no longer matches, so the record (and everything after it)
  // is the torn tail.
  const auto size = fs::file_size(path);
  {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(size) - 100);
    char b = 0;
    f.read(&b, 1);
    f.seekp(static_cast<std::streamoff>(size) - 100);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  const auto journal = ps::read_journal(path);
  EXPECT_TRUE(journal.torn_tail);
  EXPECT_EQ(journal.iks.size(), 2u);

  {
    ps::ModeResultStore st(opts_for(path), id, 4);
    EXPECT_TRUE(st.torn_tail_recovered());
    EXPECT_EQ(st.n_loaded(), 2u);
    EXPECT_LT(fs::file_size(path), size);
  }

  // A CRC-clean record whose count slots do not fit its payload is
  // damage too: the store truncates right after the last good record.
  const auto good_size = fs::file_size(path);
  for (int which = 0; which < 2; ++which) {
    append_wrapping_record(path, 3, which);
    ps::ModeResultStore st(opts_for(path), id, 4);
    EXPECT_TRUE(st.torn_tail_recovered()) << "record " << which;
    EXPECT_EQ(st.n_loaded(), 2u) << "record " << which;
    EXPECT_EQ(fs::file_size(path), good_size) << "record " << which;
  }
}

TEST(ModeResultStore, TornFileHeaderRecoversAsFresh) {
  const auto path = temp_path("tornheader");
  {
    // Crash before even the header record was fully flushed.
    std::ofstream f(path, std::ios::binary);
    const std::uint32_t head = 6 * sizeof(double);
    f.write(reinterpret_cast<const char*>(&head), sizeof(head));
    const double partial = 1347440199.0;
    f.write(reinterpret_cast<const char*>(&partial), sizeof(partial));
  }
  EXPECT_THROW(ps::read_journal(path), ps::StoreCorrupt);
  ps::ModeResultStore st(opts_for(path), test_identity(), 4);
  EXPECT_TRUE(st.torn_tail_recovered());
  EXPECT_EQ(st.n_loaded(), 0u);
  st.append(1, fake_result(0.01));
}

TEST(ModeResultStore, WrongIdentityOrGridIsRejected) {
  const auto path = temp_path("mismatch");
  const auto id = test_identity();
  {
    ps::ModeResultStore st(opts_for(path), id, 4);
    st.append(1, fake_result(0.01));
  }
  ps::RunIdentity other = id;
  other.value ^= 1;
  EXPECT_THROW(ps::ModeResultStore(opts_for(path), other, 4),
               ps::StoreIdentityMismatch);
  EXPECT_THROW(ps::ModeResultStore(opts_for(path), id, 5),
               ps::StoreIdentityMismatch);
  // The original opener still works (the rejection must not clobber).
  ps::ModeResultStore st(opts_for(path), id, 4);
  EXPECT_EQ(st.n_loaded(), 1u);
}

TEST(ModeResultStore, ForeignFileIsNotClobbered) {
  const auto path = temp_path("foreign");
  {
    // A valid Fortran-framed file that is not a checkpoint journal
    // (e.g. a unit_2 stream): refuse rather than truncate it.
    std::ofstream f(path, std::ios::binary);
    plinger::io::FortranRecordWriter w(f);
    const std::vector<double> rec = {1.0, 2.0, 3.0};
    w.record(rec);
  }
  const auto before = fs::file_size(path);
  EXPECT_THROW(ps::ModeResultStore(opts_for(path), test_identity(), 4),
               ps::StoreCorrupt);
  EXPECT_THROW(ps::read_journal(path), ps::StoreCorrupt);
  EXPECT_EQ(fs::file_size(path), before);
}

TEST(ModeResultStore, DuplicateRecordFirstWins) {
  const auto path = temp_path("dup");
  const auto id = test_identity();
  {
    ps::ModeResultStore st(opts_for(path), id, 4);
    st.append(1, fake_result(0.01));
  }
  // Hand-craft a second, different record for the same ik (a crashed
  // run that lost its in-memory index could produce this).
  {
    const auto r = fake_result(0.09);
    append_sealed(path, pp::pack_header(1, r), pp::pack_payload(1, r));
  }
  EXPECT_EQ(ps::read_journal(path).iks,
            (std::vector<std::size_t>{1, 1}));

  ps::ModeResultStore st(opts_for(path), id, 4);
  EXPECT_EQ(st.n_loaded(), 1u);
  EXPECT_EQ(st.n_duplicates_dropped(), 1u);
  EXPECT_EQ(st.loaded().at(1).k, 0.01);  // first record wins
}

TEST(ModeResultStore, DuplicateAppendThrows) {
  const auto path = temp_path("dupappend");
  const auto id = test_identity();
  {
    ps::ModeResultStore st(opts_for(path), id, 4);
    st.append(1, fake_result(0.01));
    EXPECT_THROW(st.append(1, fake_result(0.01)),
                 plinger::InvalidArgument);
    EXPECT_EQ(st.n_appended(), 1u);
  }
  // An ik loaded from a reopened journal is just as taken: appending it
  // again throws and writes nothing, while a fresh ik still appends.
  ps::ModeResultStore st(opts_for(path), id, 4);
  ASSERT_TRUE(st.contains(1));
  EXPECT_THROW(st.append(1, fake_result(0.05)), plinger::InvalidArgument);
  EXPECT_EQ(st.n_appended(), 0u);
  st.append(2, fake_result(0.02));
  EXPECT_EQ(st.n_appended(), 1u);
  EXPECT_EQ(ps::read_journal(path).iks, (std::vector<std::size_t>{1, 2}));
}

TEST(ModeResultStore, FlushThenStopHook) {
  const auto path = temp_path("stopafter");
  auto o = opts_for(path);
  o.stop_after = 2;
  ps::ModeResultStore st(o, test_identity(), 4);
  st.append(1, fake_result(0.01));
  EXPECT_FALSE(st.stop_requested());
  st.append(2, fake_result(0.02));
  EXPECT_TRUE(st.stop_requested());
  // The "crash" left a valid journal: both records are on disk already.
  const auto journal = ps::read_journal(path);
  EXPECT_EQ(journal.iks.size(), 2u);
  EXPECT_FALSE(journal.torn_tail);
}

TEST(ModeResultStore, CorruptHeaderFieldsAreRejectedNotCast) {
  // A well-framed header whose identity/grid doubles are NaN, negative,
  // or out of range must throw StoreCorrupt — casting them to integers
  // first would be undefined behavior.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> bad_fields = {
      {nan, 0.0, 4.0},          // identity_hi NaN
      {0.0, -1.0, 4.0},         // identity_lo negative
      {1e300, 0.0, 4.0},        // identity_hi out of 32-bit range
      {0.5, 0.0, 4.0},          // identity_hi non-integral
      {0.0, 0.0, 9.1e15},       // n_k past 2^53
  };
  for (const auto& f : bad_fields) {
    const auto path = temp_path("badheader");
    {
      std::ofstream os(path, std::ios::binary);
      plinger::io::FortranRecordWriter w(os);
      const std::vector<double> rec = {1347440199.0, 1.0, f[0], f[1],
                                       f[2], 0.0};
      w.record(rec);
    }
    EXPECT_THROW(ps::read_journal(path), ps::StoreCorrupt);
    EXPECT_THROW(ps::ModeResultStore(opts_for(path), test_identity(), 4),
                 ps::StoreCorrupt);
  }
}

TEST(ModeResultStore, WriteFailureIsSurfaced) {
  // /dev/full accepts opens and buffers writes but fails them on flush
  // with ENOSPC — exactly the silent-failbit case append() must turn
  // into an error instead of pretending the mode was checkpointed.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full here";
  ps::StoreOptions o;
  o.path = "/dev/full";
  EXPECT_THROW(ps::ModeResultStore(o, test_identity(), 4),
               ps::StoreWriteError);
}

TEST(ModeResultStore, SecondWriterGetsStoreBusy) {
  // The daemon and a CLI run pointed at the same journal must not
  // interleave appends: the store holds an advisory flock for its whole
  // lifetime, and the second opener fails fast.
  const auto path = temp_path("busy");
  ps::ModeResultStore first(opts_for(path), test_identity(), 4);
  first.append(1, fake_result(0.01));
  EXPECT_THROW(ps::ModeResultStore(opts_for(path), test_identity(), 4),
               ps::StoreBusy);
  // Probe again while still held — the failed open must not have
  // stolen or broken the first writer's lock.
  EXPECT_THROW(ps::ModeResultStore(opts_for(path), test_identity(), 4),
               ps::StoreBusy);
}

TEST(ModeResultStore, LockReleasedOnCloseAndOnCtorThrow) {
  const auto path = temp_path("busy_release");
  {
    ps::ModeResultStore st(opts_for(path), test_identity(), 4);
    st.append(1, fake_result(0.01));
  }
  // Closed cleanly: the lock is gone, a wrong-identity open throws past
  // the lock acquisition...
  ps::RunIdentity other = test_identity();
  other.value ^= 0xdeadbeef;
  EXPECT_THROW(ps::ModeResultStore(opts_for(path), other, 4),
               ps::StoreIdentityMismatch);
  // ...and must have released it on that throw: a correct open works.
  ps::ModeResultStore again(opts_for(path), test_identity(), 4);
  EXPECT_EQ(again.n_loaded(), 1u);
}

TEST(ReadJournal, ReadsCompleteAndPartialJournals) {
  const auto path = temp_path("readthrough");
  {
    ps::ModeResultStore st(opts_for(path), test_identity(), 4);
    for (std::size_t ik = 1; ik <= 3; ++ik)
      st.append(ik, fake_result(0.01 * static_cast<double>(ik)));

    // Read-through works while the writer holds the journal open
    // (advisory locking is writer-vs-writer only).
    const ps::JournalContents partial = ps::read_journal(path);
    EXPECT_EQ(partial.identity, test_identity());
    EXPECT_EQ(partial.n_k, 4u);
    EXPECT_EQ(partial.results.size(), 3u);
    EXPECT_FALSE(partial.complete());
    EXPECT_FALSE(partial.torn_tail);

    st.append(4, fake_result(0.04));
  }
  const ps::JournalContents full = ps::read_journal(path);
  EXPECT_TRUE(full.complete());
  EXPECT_EQ(full.results.size(), 4u);
  EXPECT_DOUBLE_EQ(full.results.at(2).k, 0.02);
  EXPECT_DOUBLE_EQ(full.results.at(2).final_state.delta_c, -0.02);
}

TEST(ReadJournal, TornTailEndsTheReadNotTheCaller) {
  const auto path = temp_path("readthrough_torn");
  {
    ps::ModeResultStore st(opts_for(path), test_identity(), 4);
    st.append(1, fake_result(0.01));
    st.append(2, fake_result(0.02));
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write("torn", 4);  // a crash mid-append
  }
  const ps::JournalContents c = ps::read_journal(path);
  EXPECT_EQ(c.results.size(), 2u);
  EXPECT_TRUE(c.torn_tail);
  EXPECT_FALSE(c.complete());

  // A CRC-clean record with wrapping count slots, right after a good
  // record, ends the read there too.
  for (int which = 0; which < 2; ++which) {
    const auto wrapped = temp_path("readthrough_wrapped");
    {
      ps::ModeResultStore st(opts_for(wrapped), test_identity(), 4);
      st.append(1, fake_result(0.01));
    }
    const auto good_size = fs::file_size(wrapped);
    append_wrapping_record(wrapped, 2, which);
    const ps::JournalContents w = ps::read_journal(wrapped);
    EXPECT_EQ(w.results.size(), 1u) << "record " << which;
    EXPECT_EQ(w.iks, (std::vector<std::size_t>{1})) << "record " << which;
    EXPECT_TRUE(w.torn_tail) << "record " << which;
    EXPECT_EQ(w.good_bytes, good_size) << "record " << which;
  }
}

TEST(ReadJournal, MissingOrHeaderlessFileThrows) {
  EXPECT_THROW(ps::read_journal(temp_path("readthrough_missing")),
               ps::StoreCorrupt);
  const auto path = temp_path("readthrough_empty");
  { std::ofstream os(path, std::ios::binary); }
  EXPECT_THROW(ps::read_journal(path), ps::StoreCorrupt);
}
