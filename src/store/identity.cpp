#include "store/identity.hpp"

#include <cstring>

#include "boltzmann/config.hpp"
#include "cosmo/params.hpp"

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

}  // namespace

RunIdentity run_identity(const cosmo::CosmoParams& params,
                         const boltzmann::PerturbationConfig& cfg,
                         std::span<const double> k_grid, double tau_end,
                         double lmax_cap) {
  Hasher h;
  // Format-version salt: bump when the hashed field set changes, so old
  // journals are rejected rather than silently reinterpreted.
  h.add(std::uint64_t{1});

  // Cosmological model.
  h.add(params.h);
  h.add(params.omega_c);
  h.add(params.omega_b);
  h.add(params.omega_lambda);
  h.add(params.omega_nu);
  h.add(params.t_cmb);
  h.add(params.y_helium);
  h.add(params.n_eff_massless);
  h.add(static_cast<std::uint64_t>(params.n_massive_nu));
  h.add(params.n_s);

  // Perturbation configuration (everything the evolver reads).
  h.add(static_cast<std::uint64_t>(cfg.ic_type));
  h.add(static_cast<std::uint64_t>(cfg.lmax_photon));
  h.add(static_cast<std::uint64_t>(cfg.lmax_polarization));
  h.add(static_cast<std::uint64_t>(cfg.lmax_neutrino));
  h.add(static_cast<std::uint64_t>(cfg.lmax_massive_nu));
  h.add(static_cast<std::uint64_t>(cfg.n_q));
  h.add(cfg.rtol);
  h.add(cfg.atol);
  h.add(cfg.ic_eps);
  h.add(cfg.early_a_factor);
  h.add(cfg.tca_eps);
  h.add(cfg.tca_exit_z);
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

  return RunIdentity{h.digest()};
}

RunIdentity run_identity(const cosmo::CosmoParams& params,
                         const boltzmann::PerturbationConfig& cfg,
                         std::span<const double> k_grid, double tau_end,
                         double lmax_cap, const LosIdentity& los) {
  Hasher h;
  // Start from the exact base identity so the LOS hash inherits every
  // physics input, then salt with a distinct record-family tag: the
  // same config hashed as hierarchy vs LOS can never collide.
  h.add(run_identity(params, cfg, k_grid, tau_end, lmax_cap).value);
  h.add(std::uint64_t{2});  // LOS record-family salt
  // Record-version salt: journals of an earlier record version (the
  // sample-bearing ones) mismatch here and resume is refused up front.
  h.add(kLosRecordVersion);
  h.add(static_cast<std::uint64_t>(los.lmax_evolve));
  h.add(static_cast<std::uint64_t>(los.l_max));
  h.add(static_cast<std::uint64_t>(los.sample_taus.size()));
  for (const double t : los.sample_taus) h.add(t);
  // solver=auto: modes below the crossover carry hierarchy-shaped
  // records inside an otherwise-LOS journal, so the routing threshold
  // is part of the identity.  Hashed only when set: a solver=los run
  // (k_crossover = 0) hashes no routing fields.
  if (los.k_crossover > 0.0) {
    h.add(std::uint64_t{4});  // auto-routing salt
    h.add(los.k_crossover);
    // Rerouted-mode polarization lift: the router now evolves each
    // below-crossover mode's G tower to its full photon tower, so
    // journals recorded before the lift carry shorter towers and must
    // refuse resume rather than mix polarization reaches.
    h.add(std::uint64_t{5});
  }
  return RunIdentity{h.digest()};
}

}  // namespace plinger::store
