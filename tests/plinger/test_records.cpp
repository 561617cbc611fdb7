#include "plinger/records.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pp = plinger::parallel;
namespace pb = plinger::boltzmann;

namespace {
pb::ModeResult fake_result() {
  pb::ModeResult r;
  r.k = 0.123;
  r.lmax = 20;
  r.tau_init = 0.01;
  r.tau_switch = 55.0;
  r.tau_end = 11839.0;
  r.f_gamma.resize(21);
  for (std::size_t l = 0; l <= 20; ++l) {
    r.f_gamma[l] = 0.1 * static_cast<double>(l) - 1.0;
  }
  r.g_gamma = {1.0, 2.0, 3.0, 4.0, 5.0};
  r.final_state.a = 1.0;
  r.final_state.delta_c = -1234.5;
  r.final_state.delta_b = -1200.0;
  r.final_state.delta_g = -0.5;
  r.final_state.delta_nu = -0.4;
  r.final_state.delta_m = -1230.0;
  r.final_state.theta_b = 0.01;
  r.final_state.theta_g = 0.02;
  r.final_state.eta = 0.7;
  r.final_state.h = 999.0;
  r.final_state.phi = 0.43;
  r.final_state.psi = 0.42;
  r.stats.n_accepted = 4000;
  r.stats.n_rhs = 32000;
  r.flops = 123456789;
  r.cpu_seconds = 1.5;
  return r;
}
}  // namespace

TEST(Records, HeaderHasPaperLengthAndLmaxSlot) {
  const auto r = fake_result();
  const auto header = pp::pack_header(77, r);
  EXPECT_EQ(header.size(), 21u);  // the paper's imsglen = 21
  EXPECT_EQ(pp::header_lmax(header), 20u);
  EXPECT_EQ(header[0], 77.0);  // y(1) = ik as in Appendix A
  EXPECT_EQ(header[20], 20.0);  // y(21) = lmax
}

TEST(Records, PayloadLengthGrowsWithLmax) {
  EXPECT_EQ(pp::payload_length(20, 4), 8u + 21u + 5u);
  EXPECT_GT(pp::payload_length(5000, 32), pp::payload_length(100, 32));
  // The paper's 80 kB bound: lmax = 5000 with short polarization is
  // ~40 kB of doubles; with full polarization it reaches ~80 kB.
  EXPECT_NEAR(static_cast<double>(
                  pp::payload_length(5000, 5000) * sizeof(double)),
              80e3, 1e3);
}

TEST(Records, RoundTripIsExact) {
  const auto r = fake_result();
  const auto header = pp::pack_header(42, r);
  const auto payload = pp::pack_payload(42, r);
  std::size_t ik = 0;
  const auto back = pp::unpack_records(header, payload, ik);
  EXPECT_EQ(ik, 42u);
  EXPECT_EQ(back.k, r.k);
  EXPECT_EQ(back.lmax, r.lmax);
  EXPECT_EQ(back.f_gamma, r.f_gamma);
  EXPECT_EQ(back.g_gamma, r.g_gamma);
  EXPECT_EQ(back.final_state.delta_c, r.final_state.delta_c);
  EXPECT_EQ(back.final_state.psi, r.final_state.psi);
  EXPECT_EQ(back.stats.n_accepted, r.stats.n_accepted);
  EXPECT_EQ(back.flops, r.flops);
  EXPECT_EQ(back.cpu_seconds, r.cpu_seconds);
  EXPECT_EQ(back.tau_switch, r.tau_switch);
  EXPECT_EQ(back.tau_init, r.tau_init);
}

TEST(Records, ClassicPayloadStaysVersionZero) {
  // Every result packs to the historical layout, version slot included:
  // pre-refactor journals and the wire format are untouched by the line
  // of sight, whose modes ship projected towers.
  const auto r = fake_result();
  const auto payload = pp::pack_payload(9, r);
  EXPECT_EQ(payload.size(), pp::payload_length(r.lmax, 4));
  EXPECT_EQ(pp::payload_version(payload), pp::kPayloadClassic);
}

TEST(Records, PackRefusesUnprojectedSamples) {
  // Records carry towers only: a result that still holds source samples
  // was never projected, and packing it would drop them silently.
  auto r = fake_result();
  r.samples.resize(3);
  EXPECT_THROW(pp::pack_payload(5, r), plinger::InvalidArgument);
}

namespace {

/// A version-0 record of fake_result() rewritten to claim `version`,
/// with a retired-layout sample block ([n_samples] and 15 doubles per
/// sample) appended.
std::vector<double> claimed_payload(double version) {
  auto payload = pp::pack_payload(3, fake_result());
  payload[7] = version;
  payload.push_back(2.0);
  payload.insert(payload.end(), 2 * 15, 0.5);
  return payload;
}

/// A pre-projection LOS journal (version 2: Pi column zero through
/// tight coupling; version 3: samples for the master to project) must
/// be refused with a message that says why and what to do — not lumped
/// in with "unknown version".
void expect_retired_with_pointer(int version) {
  const auto header = pp::pack_header(3, fake_result());
  std::size_t ik = 0;
  try {
    pp::unpack_records(header, claimed_payload(version), ik);
    FAIL() << "version-" << version << " payload must be rejected";
  } catch (const pp::RetiredPayloadVersion& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("version-" + std::to_string(version)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("rerun"), std::string::npos) << msg;
  }
}

}  // namespace

TEST(Records, CorruptSamplePayloadRejected) {
  const auto r = fake_result();
  const auto header = pp::pack_header(3, r);
  std::size_t ik = 0;

  // A version-0 record with a sample block appended, and a torn one,
  // must not unpack.
  EXPECT_THROW(pp::unpack_records(header, claimed_payload(0.0), ik),
               plinger::InvalidArgument);
  auto torn = pp::pack_payload(3, r);
  torn.pop_back();
  EXPECT_THROW(pp::unpack_records(header, torn, ik),
               plinger::InvalidArgument);

  // An unknown version stamp must be rejected, not guessed at, and not
  // mistaken for a retired one.
  for (const double v : {1.0, 4.0, 0.5, -2.0}) {
    try {
      pp::unpack_records(header, claimed_payload(v), ik);
      ADD_FAILURE() << "version " << v << " accepted";
    } catch (const pp::RetiredPayloadVersion&) {
      ADD_FAILURE() << "version " << v << " reported as retired";
    } catch (const plinger::InvalidArgument&) {
      // Refused as unknown: the expected outcome.
    }
  }
}

TEST(Records, RetiredVersionTwoRejectedWithPointer) {
  expect_retired_with_pointer(2);
}

TEST(Records, RetiredVersionThreeRejectedWithPointer) {
  expect_retired_with_pointer(3);
}

TEST(Records, MismatchedRecordsRejected) {
  const auto r = fake_result();
  const auto header = pp::pack_header(1, r);
  const auto payload = pp::pack_payload(2, r);  // wrong ik
  std::size_t ik = 0;
  EXPECT_THROW(pp::unpack_records(header, payload, ik),
               plinger::InvalidArgument);
  std::vector<double> short_header(10, 0.0);
  EXPECT_THROW(pp::unpack_records(short_header, payload, ik),
               plinger::InvalidArgument);

  // Count slots that would wrap the payload-length sum are refused
  // before any length arithmetic: header lmax -5 with lmax_pol 100 over
  // 105 doubles, and lmax 10 with lmax_pol -5 over 15 doubles.
  auto wrapped_header = pp::pack_header(1, r);
  std::vector<double> wrapped(105, 0.0);
  wrapped[0] = 1.0;
  wrapped[3] = 100.0;
  wrapped_header[20] = -5.0;
  EXPECT_THROW(pp::unpack_records(wrapped_header, wrapped, ik),
               plinger::InvalidArgument);
  wrapped.assign(15, 0.0);
  wrapped[0] = 1.0;
  wrapped[3] = -5.0;
  wrapped_header[20] = 10.0;
  EXPECT_THROW(pp::unpack_records(wrapped_header, wrapped, ik),
               plinger::InvalidArgument);
}
