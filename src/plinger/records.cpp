#include "plinger/records.hpp"

#include <cmath>

#include "common/error.hpp"

namespace plinger::parallel {

using boltzmann::ModeResult;
using boltzmann::TransferSample;

std::vector<double> pack_header(std::size_t ik, const ModeResult& r) {
  std::vector<double> y(kHeaderLength, 0.0);
  const TransferSample& f = r.final_state;
  y[0] = static_cast<double>(ik);
  y[1] = r.k;
  y[2] = r.tau_end;
  y[3] = f.a;
  y[4] = f.delta_c;
  y[5] = f.delta_b;
  y[6] = f.delta_g;
  y[7] = f.delta_nu;
  y[8] = f.delta_m;
  y[9] = f.theta_b;
  y[10] = f.theta_g;
  y[11] = f.eta;
  y[12] = f.h;
  y[13] = f.phi;
  y[14] = f.psi;
  y[15] = static_cast<double>(r.stats.n_accepted);
  y[16] = static_cast<double>(r.stats.n_rhs);
  y[17] = static_cast<double>(r.flops);
  y[18] = r.cpu_seconds;
  y[19] = r.tau_switch;
  y[20] = static_cast<double>(r.lmax);  // the paper's y(21) = lmax
  return y;
}

std::vector<double> pack_payload(std::size_t ik, const ModeResult& r) {
  PLINGER_REQUIRE(r.f_gamma.size() == r.lmax + 1,
                  "pack_payload: f_gamma size mismatch");
  const std::size_t lmax_pol = r.g_gamma.size() - 1;
  const std::size_t n_samples = r.samples.size();
  const bool with_samples = n_samples > 0;
  std::vector<double> y(with_samples
                            ? payload_length_los(r.lmax, lmax_pol, n_samples)
                            : payload_length(r.lmax, lmax_pol),
                        0.0);
  y[0] = static_cast<double>(ik);
  y[1] = r.k;
  y[2] = static_cast<double>(r.lmax);
  y[3] = static_cast<double>(lmax_pol);
  y[4] = r.tau_init;
  y[5] = r.tau_switch;
  y[6] = r.tau_end;
  y[7] = with_samples ? kPayloadSourceTable : kPayloadClassic;
  std::size_t at = 8;
  for (double v : r.f_gamma) y[at++] = v;
  for (double v : r.g_gamma) y[at++] = v;
  if (with_samples) {
    y[at++] = static_cast<double>(n_samples);
    for (const TransferSample& s : r.samples) {
      y[at++] = s.tau;
      y[at++] = s.a;
      y[at++] = s.delta_c;
      y[at++] = s.delta_b;
      y[at++] = s.delta_g;
      y[at++] = s.delta_nu;
      y[at++] = s.delta_m;
      y[at++] = s.theta_b;
      y[at++] = s.theta_g;
      y[at++] = s.eta;
      y[at++] = s.h;
      y[at++] = s.phi;
      y[at++] = s.psi;
      y[at++] = s.alpha;
      y[at++] = s.pi_pol;
    }
  }
  return y;
}

namespace {

constexpr double kTwo53 = 9007199254740992.0;  // every count is exact below
constexpr double kTwo64 = 18446744073709551616.0;

}  // namespace

bool castable_field(double v, double limit) {
  return std::isfinite(v) && v >= 0.0 && v < limit && v == std::floor(v);
}

double payload_version(const std::vector<double>& payload) {
  PLINGER_REQUIRE(payload.size() >= 8, "payload_version: bad record");
  return payload[7];
}

std::size_t header_lmax(const std::vector<double>& header) {
  PLINGER_REQUIRE(header.size() == kHeaderLength, "header_lmax: bad record");
  PLINGER_REQUIRE(castable_field(header[20], kTwo53),
                  "header_lmax: lmax slot is not a count");
  return static_cast<std::size_t>(header[20]);
}

ModeResult unpack_records(const std::vector<double>& header,
                          const std::vector<double>& payload,
                          std::size_t& ik) {
  PLINGER_REQUIRE(header.size() == kHeaderLength,
                  "unpack_records: bad header length");
  const double version = payload_version(payload);
  if (version == kPayloadWithSamples) {
    throw RetiredPayloadVersion(
        "unpack_records: retired version-2 line-of-sight record (it "
        "predates the SourceTable pipeline: its Pi column is zero "
        "through tight coupling, so E-mode sources cannot be rebuilt "
        "from it) — delete the journal and rerun the line-of-sight "
        "modes instead of resuming it");
  }
  PLINGER_REQUIRE(version == kPayloadClassic ||
                      version == kPayloadSourceTable,
                  "unpack_records: unknown payload record version");
  // Count slots before any length arithmetic: each must be a count that
  // fits in what is left of the payload.
  PLINGER_REQUIRE(castable_field(header[0], kTwo53) &&
                      payload[0] == header[0],
                  "unpack_records: bad or mismatched header/payload ik");
  ik = static_cast<std::size_t>(header[0]);
  const std::size_t lmax = header_lmax(header);
  PLINGER_REQUIRE(payload[2] == header[20] && lmax < payload.size() - 8,
                  "unpack_records: lmax mismatched or overruns the payload");
  const std::size_t pol_room = payload.size() - 9 - lmax;  // after F_l
  PLINGER_REQUIRE(castable_field(payload[3], static_cast<double>(pol_room)),
                  "unpack_records: lmax_pol overruns the payload");
  const auto lmax_pol = static_cast<std::size_t>(payload[3]);
  const std::size_t base = payload_length(lmax, lmax_pol);
  std::size_t n_samples = 0;
  if (version == kPayloadClassic) {
    PLINGER_REQUIRE(payload.size() == base,
                    "unpack_records: bad payload length");
  } else {
    PLINGER_REQUIRE(payload.size() > base,
                    "unpack_records: truncated sample-bearing payload");
    const std::size_t room = payload.size() - base - 1;
    PLINGER_REQUIRE(
        castable_field(payload[base],
                       static_cast<double>(room / kSampleStride + 1)) &&
            kSampleStride * static_cast<std::size_t>(payload[base]) == room,
        "unpack_records: bad sample-bearing payload length");
    n_samples = static_cast<std::size_t>(payload[base]);
  }
  PLINGER_REQUIRE(castable_field(header[17], kTwo64),
                  "unpack_records: flop count slot is not a count");

  ModeResult r;
  r.k = header[1];
  r.tau_end = header[2];
  TransferSample& f = r.final_state;
  f.tau = r.tau_end;
  f.a = header[3];
  f.delta_c = header[4];
  f.delta_b = header[5];
  f.delta_g = header[6];
  f.delta_nu = header[7];
  f.delta_m = header[8];
  f.theta_b = header[9];
  f.theta_g = header[10];
  f.eta = header[11];
  f.h = header[12];
  f.phi = header[13];
  f.psi = header[14];
  r.stats.n_accepted = static_cast<long>(std::llround(header[15]));
  r.stats.n_rhs = static_cast<long>(std::llround(header[16]));
  r.flops = static_cast<std::uint64_t>(header[17]);
  r.cpu_seconds = header[18];
  r.tau_switch = header[19];
  r.lmax = lmax;
  r.tau_init = payload[4];
  const auto g_begin = payload.begin() + 9 + static_cast<long>(lmax);
  r.f_gamma.assign(payload.begin() + 8, g_begin);
  r.g_gamma.assign(g_begin, payload.begin() + static_cast<long>(base));
  r.samples.resize(n_samples);
  std::size_t at = base + 1;
  for (TransferSample& s : r.samples) {
    s.tau = payload[at++];
    s.a = payload[at++];
    s.delta_c = payload[at++];
    s.delta_b = payload[at++];
    s.delta_g = payload[at++];
    s.delta_nu = payload[at++];
    s.delta_m = payload[at++];
    s.theta_b = payload[at++];
    s.theta_g = payload[at++];
    s.eta = payload[at++];
    s.h = payload[at++];
    s.phi = payload[at++];
    s.psi = payload[at++];
    s.alpha = payload[at++];
    s.pi_pol = payload[at++];
  }
  return r;
}

}  // namespace plinger::parallel
