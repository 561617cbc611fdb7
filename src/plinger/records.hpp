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
/// Payload version.  Preamble slot y[7] is the record version, and
/// every record is version 0, the layout of the first release: a
/// line-of-sight mode is projected by the worker that evolved it and
/// ships F_l/G_l towers like any hierarchy mode.  The sample-bearing
/// line-of-sight layouts, versions 2 and 3, are retired:
/// unpack_records() refuses them with a message telling the operator to
/// rerun instead of resuming, and any other version as unknown.
///
/// unpack_records() is the one decoder of the pair, for the wire, the
/// checkpoint journal and unit_2 alike.  Records arrive from peers and
/// from disk, so every count slot (ik, lmax, lmax_pol) is checked with
/// castable_field() — and against the payload it must fit in — before
/// it sizes or indexes anything.

#include <cstddef>
#include <string>
#include <vector>

#include "boltzmann/mode_evolution.hpp"
#include "common/error.hpp"

namespace plinger::parallel {

/// Number of doubles in the tag-4 header record.
inline constexpr std::size_t kHeaderLength = 21;

/// Preamble slot y[7] of every record packed: the payload version.
inline constexpr double kPayloadClassic = 0.0;

/// A CRC-clean record of a retired sample-bearing layout (version 2 or
/// 3).  It is not damage, so the checkpoint store refuses the whole
/// journal instead of truncating it as a torn tail.
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

/// Record version of a packed payload (preamble slot y[7]).
double payload_version(const std::vector<double>& payload);

/// Pack the tag-4 header for work item ik.
std::vector<double> pack_header(std::size_t ik,
                                const boltzmann::ModeResult& result);

/// Pack the tag-5 payload, a version-0 record.  A result that still
/// carries source samples has not been projected and is refused
/// (InvalidArgument): records carry towers only.
std::vector<double> pack_payload(std::size_t ik,
                                 const boltzmann::ModeResult& result);

/// Reassemble a ModeResult (everything but samples) from the two
/// records.  Versions 2 and 3 throw RetiredPayloadVersion with a
/// message naming the version and the remedy; any other inconsistency
/// throws InvalidArgument.  Returns the work index ik through the
/// out-parameter.
boltzmann::ModeResult unpack_records(const std::vector<double>& header,
                                     const std::vector<double>& payload,
                                     std::size_t& ik);

/// lmax as stored in a header (slot 21, i.e. index 20 — "y(21)" in the
/// paper's Fortran).  Throws InvalidArgument unless the slot is a count.
std::size_t header_lmax(const std::vector<double>& header);

}  // namespace plinger::parallel
