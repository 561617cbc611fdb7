#pragma once

/// Wire records of the PLINGER protocol (Appendix A).
///
/// A completed wavenumber is reported in two messages:
///
///  * tag 4 — a fixed 21-double header.  The paper's master writes
///    y(1)..y(20) to an ASCII file and reads lmax from y(21); our header
///    carries ik, k, the final-state transfer summary, run statistics,
///    and lmax in slot 21 — same length, same role.
///
///  * tag 5 — the variable-length moment payload.  The paper's length is
///    8 + 2*lmax (temperature + polarization moment arrays plus an
///    8-slot preamble); ours is 8 + (lmax+1) + (lmax_pol+1), preserving
///    the proportionality of message size to lmax that drives the §4
///    message-economics discussion (max ~80 kB at lmax ~ 5000).
///
/// Pack/unpack are exact inverses; the protocol tests round-trip them.
///
/// Payload versions.  Preamble slot y[7] (reserved and always 0.0 since
/// the first release) is now the record version:
///
///  * 0.0 — classic hierarchy payload, bit-identical to every record
///    ever written (pre-refactor journals still parse and resume).
///  * 2.0 — retired line-of-sight payload: the classic layout followed
///    by [n_samples] and n_samples * kSampleStride doubles of
///    TransferSample data.  Its pi_pol column was zero over the whole
///    tight-coupling era, so it cannot feed the SourceTable
///    polarization pipeline; unpack_records() rejects it with a message
///    telling the operator to rerun instead of resuming.
///  * 3.0 — SourceTable payload: the same layout as version 2 (same
///    stride, same slots), but the pi_pol column now carries the
///    quasi-static tight-coupling value of Pi where the hierarchy
///    moments are slaved, so E-mode/TE projection is valid across the
///    full visibility window.
///
/// pack_payload() picks the version from ModeResult::samples, so
/// hierarchy runs keep emitting version-0 bits; unpack_records()
/// dispatches on y[7] and rejects versions it does not know.
///
/// unpack_records() is the one decoder of the pair, for the wire, the
/// checkpoint journal and unit_2 alike.  Records arrive from peers and
/// from disk, so every count slot (ik, lmax, lmax_pol, n_samples) is
/// checked with castable_field() — and against the payload it must fit
/// in — before it sizes or indexes anything.

#include <cstddef>
#include <string>
#include <vector>

#include "boltzmann/mode_evolution.hpp"
#include "common/error.hpp"

namespace plinger::parallel {

/// Number of doubles in the tag-4 header record.
inline constexpr std::size_t kHeaderLength = 21;

/// Preamble slot y[7] values: the payload record version.
inline constexpr double kPayloadClassic = 0.0;
inline constexpr double kPayloadWithSamples = 2.0;  ///< retired, rejected
inline constexpr double kPayloadSourceTable = 3.0;

/// Doubles per serialized TransferSample (declaration order: tau, a,
/// delta_c, delta_b, delta_g, delta_nu, delta_m, theta_b, theta_g, eta,
/// h, phi, psi, alpha, pi_pol).
inline constexpr std::size_t kSampleStride = 15;

/// A CRC-clean record of the retired version-2 layout.  It is not
/// damage, so the checkpoint store refuses the whole journal instead of
/// truncating it as a torn tail.
class RetiredPayloadVersion : public InvalidArgument {
 public:
  explicit RetiredPayloadVersion(const std::string& what)
      : InvalidArgument(what) {}
};

/// True when `v` is an exact non-negative integer below `limit`, i.e. a
/// record slot that is safe to cast to an unsigned count of that range.
bool castable_field(double v, double limit);

/// Payload length in doubles for given hierarchy sizes (version 0).
inline constexpr std::size_t payload_length(std::size_t lmax,
                                            std::size_t lmax_pol) {
  return 8 + (lmax + 1) + (lmax_pol + 1);
}

/// Payload length in doubles for a sample-bearing record (version 3;
/// version 2 shared the layout).
inline constexpr std::size_t payload_length_los(std::size_t lmax,
                                                std::size_t lmax_pol,
                                                std::size_t n_samples) {
  return payload_length(lmax, lmax_pol) + 1 + kSampleStride * n_samples;
}

/// Record version of a packed payload (preamble slot y[7]).
double payload_version(const std::vector<double>& payload);

/// Pack the tag-4 header for work item ik.
std::vector<double> pack_header(std::size_t ik,
                                const boltzmann::ModeResult& result);

/// Pack the tag-5 payload.  Emits a classic (version 0) record when the
/// result carries no samples — bit-identical to every pre-LOS record —
/// and a sample-bearing version-3 record otherwise.
std::vector<double> pack_payload(std::size_t ik,
                                 const boltzmann::ModeResult& result);

/// Reassemble a ModeResult from the two records: version 0 restores
/// everything but samples, version 3 restores the samples too.
/// Version 2 (pre-SourceTable samples) throws RetiredPayloadVersion
/// with a message naming the incompatibility; any other inconsistency
/// throws InvalidArgument.  Returns the work index ik through the
/// out-parameter.
boltzmann::ModeResult unpack_records(const std::vector<double>& header,
                                     const std::vector<double>& payload,
                                     std::size_t& ik);

/// lmax as stored in a header (slot 21, i.e. index 20 — "y(21)" in the
/// paper's Fortran).  Throws InvalidArgument unless the slot is a count.
std::size_t header_lmax(const std::vector<double>& header);

}  // namespace plinger::parallel
