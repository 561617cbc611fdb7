#include "store/identity.hpp"

#include <cstdio>
#include <cstring>

#include "boltzmann/config.hpp"
#include "cosmo/nu_density.hpp"
#include "cosmo/params.hpp"
#include "plinger/records.hpp"

namespace plinger::store {

namespace {

/// FNV-1a 64-bit over a byte stream; doubles are hashed by bit pattern,
/// so any representable change of any input changes the identity.
class Hasher {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    bytes(&bits, sizeof(bits));
  }
  void add(std::uint64_t v) { bytes(&v, sizeof(v)); }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;  // FNV offset basis
};

/// The cosmological model.
void add_cosmology(Hasher& h, const cosmo::CosmoParams& params) {
  h.add(params.h);
  h.add(params.omega_c);  // derived, so the closure path is part of it
  h.add(params.omega_b);
  h.add(params.omega_lambda);
  h.add(params.omega_nu);
  h.add(params.t_cmb);
  h.add(params.y_helium);
  h.add(params.n_eff_massless);
  h.add(static_cast<std::uint64_t>(params.n_massive_nu));
  h.add(params.n_s);
}

/// The thermal history, hashed only when z_reion departs from the
/// default, behind its own salt, so every identity of a run without
/// reionization keeps its stamp.  The treatment's constants are hashed
/// too, each in a fixed slot: reordering or dropping one would move
/// every reionized identity.
void add_recombination(Hasher& h, const cosmo::Recombination::Options& o) {
  using cosmo::Recombination;
  if (o == Recombination::Options{}) return;
  h.add(std::uint64_t{6});  // recombination-options salt
  h.add(Recombination::kAStart);
  h.add(static_cast<std::uint64_t>(Recombination::kNPoints));
  h.add(Recombination::kSahaExitXh);
  h.add(Recombination::kFudge);
  h.add(o.z_reion);
  h.add(Recombination::kDzReion);
}

}  // namespace

std::array<double, 2> RunIdentity::halves() const {
  return {static_cast<double>(value >> 32),
          static_cast<double>(value & 0xFFFFFFFFull)};
}

std::optional<RunIdentity> RunIdentity::from_halves(double hi, double lo) {
  constexpr double kTwo32 = 4294967296.0;
  if (!parallel::castable_field(hi, kTwo32) ||
      !parallel::castable_field(lo, kTwo32)) {
    return std::nullopt;
  }
  return RunIdentity{static_cast<std::uint64_t>(hi) << 32 |
                     static_cast<std::uint64_t>(lo)};
}

std::string RunIdentity::hex() const {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

RunIdentity run_identity(const cosmo::CosmoParams& params,
                         const cosmo::Recombination::Options& rec,
                         const boltzmann::PerturbationConfig& cfg,
                         std::span<const double> k_grid, double tau_end,
                         double lmax_cap, const LosIdentity* los) {
  Hasher h;
  // Format-version salt: bump when the hashed field set changes, so old
  // journals are rejected rather than silently reinterpreted.
  h.add(std::uint64_t{1});

  add_cosmology(h, params);
  add_recombination(h, rec);

  // Perturbation configuration (everything the evolver reads), with the
  // momentum node count and the boltzmann constants in fixed slots:
  // reordering or dropping one would move every identity.
  h.add(static_cast<std::uint64_t>(cfg.ic_type));
  h.add(static_cast<std::uint64_t>(cfg.lmax_photon));
  h.add(static_cast<std::uint64_t>(cfg.lmax_polarization));
  h.add(static_cast<std::uint64_t>(cfg.lmax_neutrino));
  h.add(static_cast<std::uint64_t>(cfg.lmax_massive_nu));
  h.add(static_cast<std::uint64_t>(
      params.has_massive_nu() ? cosmo::NuDensity::kQNodes : 0));
  h.add(cfg.rtol);
  h.add(cfg.atol);
  h.add(boltzmann::kIcEps);
  h.add(boltzmann::kEarlyAFactor);
  h.add(cfg.tca_eps);
  h.add(boltzmann::kTcaExitZ);
  // The integrator core changes every trajectory.  Hashed only when it
  // departs from the historical default so every pre-existing dverk
  // journal keeps its stamp (the salt keeps a dop853 run from ever
  // colliding with a hashed-field-set change).
  if (cfg.integrator != boltzmann::IntegratorKind::dverk) {
    h.add(std::uint64_t{3});  // integrator-family salt
    h.add(static_cast<std::uint64_t>(cfg.integrator));
  }

  // The grid and the broadcast physics setup.
  h.add(static_cast<std::uint64_t>(k_grid.size()));
  for (const double k : k_grid) h.add(k);
  h.add(tau_end);
  h.add(lmax_cap);
  if (los == nullptr) return RunIdentity{h.digest()};

  // Line of sight: start a fresh hash from the exact base identity so it
  // inherits every physics input, then salt with a distinct
  // record-family tag: the same config hashed as hierarchy vs LOS can
  // never collide.
  const std::uint64_t base = h.digest();
  h = Hasher();
  h.add(base);
  h.add(std::uint64_t{2});  // LOS record-family salt
  // Record-version salt: journals of an earlier record version (the
  // sample-bearing ones) mismatch here and resume is refused up front.
  h.add(kLosRecordVersion);
  h.add(static_cast<std::uint64_t>(los->lmax_evolve));
  h.add(static_cast<std::uint64_t>(los->l_max));
  h.add(static_cast<std::uint64_t>(los->sample_taus.size()));
  for (const double t : los->sample_taus) h.add(t);
  // Salts 4 and 5 stamped the retired solver=auto low-k reroute; auto
  // is now the same run as los.  Do not reuse them.
  return RunIdentity{h.digest()};
}

std::uint64_t cosmology_key(const cosmo::CosmoParams& params,
                            const cosmo::Recombination::Options& rec) {
  Hasher h;
  add_cosmology(h, params);
  add_recombination(h, rec);
  return h.digest();
}

}  // namespace plinger::store
