#include "boltzmann/equations.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace plinger::boltzmann {

using cosmo::GrhoComponents;

namespace {

/// Interior Boltzmann-hierarchy rows, l in [l_begin, l_end):
///   df[l] = lo[l] f[l-1] - hi[l] f[l+1] [- opac f[l]]
/// These streams are the hottest loops in the code: loops over
/// precomputed couplings, unrolled and vectorized (CMakeLists.txt).
inline void run_hierarchy_damped(const double* __restrict__ f,
                                 double* __restrict__ df,
                                 const double* __restrict__ lo,
                                 const double* __restrict__ hi, double opac,
                                 std::size_t l_begin, std::size_t l_end) {
  for (std::size_t l = l_begin; l < l_end; ++l) {
    df[l] = lo[l] * f[l - 1] - hi[l] * f[l + 1] - opac * f[l];
  }
}

inline void run_hierarchy(const double* __restrict__ f,
                          double* __restrict__ df,
                          const double* __restrict__ lo,
                          const double* __restrict__ hi,
                          std::size_t l_begin, std::size_t l_end) {
  for (std::size_t l = l_begin; l < l_end; ++l) {
    df[l] = lo[l] * f[l - 1] - hi[l] * f[l + 1];
  }
}

}  // namespace

ModeEquations::ModeEquations(const cosmo::Background& bg,
                             const cosmo::Recombination& rec,
                             const PerturbationConfig& cfg, double k,
                             const cosmo::ThermoCache* cache)
    : bg_(bg),
      rec_(rec),
      cfg_(cfg),
      k_(k),
      layout_(cfg.lmax_photon,
              std::min(cfg.lmax_polarization, cfg.lmax_photon),
              cfg.lmax_neutrino,
              bg.nu() != nullptr ? bg.nu()->q_grid().size() : 0,
              cfg.lmax_massive_nu),
      cache_(cache) {
  PLINGER_REQUIRE(k > 0.0, "ModeEquations: k must be positive");

  k_third_ = k_ / 3.0;
  k_fifth_ = k_ / 5.0;
  inv_2k2_ = 1.0 / (2.0 * k_ * k_);

  // Hierarchy coupling tables (see the header): one divide per multipole
  // here instead of one per multipole per RHS call.
  const std::size_t lk = std::max(
      {layout_.lmax_photon(), layout_.lmax_polarization(),
       layout_.lmax_neutrino()});
  lo_k_.resize(lk + 1);
  hi_k_.resize(lk + 1);
  for (std::size_t l = 0; l <= lk; ++l) {
    const double dl = static_cast<double>(l);
    lo_k_[l] = k_ * dl / (2.0 * dl + 1.0);
    hi_k_[l] = k_ * (dl + 1.0) / (2.0 * dl + 1.0);
  }
  if (layout_.n_q() > 0) {
    const std::size_t lm = layout_.lmax_massive_nu();
    lo_q_.resize(lm + 1);
    hi_q_.resize(lm + 1);
    for (std::size_t l = 0; l <= lm; ++l) {
      const double dl = static_cast<double>(l);
      lo_q_[l] = dl / (2.0 * dl + 1.0);
      hi_q_[l] = (dl + 1.0) / (2.0 * dl + 1.0);
    }
    nu_norm_ = static_cast<double>(bg_.params().n_massive_nu) /
               bg_.nu()->grid_norm_massless();
  }
}

std::vector<double> ModeEquations::initial_conditions(double tau) const {
  if (cfg_.ic_type == InitialConditionType::cdm_isocurvature) {
    return isocurvature_initial_conditions(tau);
  }
  const StateLayout& L = layout_;
  std::vector<double> y(L.size(), 0.0);

  const double a = bg_.a_of_tau(tau);
  const GrhoComponents g = bg_.grho(a);
  PLINGER_REQUIRE(k_ * tau < 0.3,
                  "initial_conditions: mode must be superhorizon");

  // Neutrino fraction of the radiation (massive species are relativistic
  // at the starting time).
  const double rho_nu = g.nu_massless + g.nu_massive;
  const double r_nu = rho_nu / (rho_nu + g.photon);

  // MB95 eq. (96) with C = 1.
  const double kt = k_ * tau;
  const double kt2 = kt * kt;
  const double c_amp = 1.0;
  const double delta_g = -(2.0 / 3.0) * c_amp * kt2;
  const double theta_gb = -(c_amp / 18.0) * kt2 * kt * k_;
  const double theta_nu =
      -((23.0 + 4.0 * r_nu) / (15.0 + 4.0 * r_nu)) * (c_amp / 18.0) * kt2 *
      kt * k_;
  const double sigma_nu = (4.0 * c_amp / (3.0 * (15.0 + 4.0 * r_nu))) * kt2;

  y[StateLayout::a] = a;
  y[StateLayout::h] = c_amp * kt2;
  y[StateLayout::eta] =
      2.0 * c_amp -
      c_amp * (5.0 + 4.0 * r_nu) / (6.0 * (15.0 + 4.0 * r_nu)) * kt2;
  y[StateLayout::delta_g] = delta_g;
  y[StateLayout::delta_c] = 0.75 * delta_g;
  y[StateLayout::delta_b] = 0.75 * delta_g;
  y[StateLayout::theta_b] = theta_gb;
  y[StateLayout::theta_g] = theta_gb;

  y[L.fn(0)] = delta_g;  // delta_nu = delta_gamma (adiabatic)
  y[L.fn(1)] = 4.0 / (3.0 * k_) * theta_nu;
  y[L.fn(2)] = 2.0 * sigma_nu;

  // Massive neutrinos (MB95 eq. 98); relativistic at tau_init.
  if (L.n_q() > 0) {
    const auto& grid = bg_.nu()->q_grid();
    const double xi = bg_.nu_xi(a);
    for (std::size_t iq = 0; iq < L.n_q(); ++iq) {
      const double q = grid[iq].q;
      const double eps = std::sqrt(q * q + xi * xi);
      const double dlnf = grid[iq].dlnf0dlnq;
      y[L.psi(iq, 0)] = -0.25 * delta_g * dlnf;
      y[L.psi(iq, 1)] = -(eps / (3.0 * q * k_)) * theta_nu * dlnf;
      y[L.psi(iq, 2)] = -0.5 * sigma_nu * dlnf;
    }
  }
  return y;
}

std::vector<double> ModeEquations::isocurvature_initial_conditions(
    double tau) const {
  // CDM entropy mode, leading order in (k tau) and in the CDM-to-
  // radiation ratio eps = rho_c / rho_r (both << 1 at tau_init).
  //
  // Derivation from the synchronous equations in the radiation era
  // (a'/a = 1/tau, grho = 3/tau^2): with delta_c = 1 and the radiation
  // initially unperturbed, the energy constraint gives
  //   h' = tau * grho_c = 3 eps / tau  ->  h = 3 eps   (eps ~ tau),
  // and the fluid equations then force
  //   delta_c    = 1 - h/2 + ...   (we keep delta_c = 1; the -h/2 piece
  //                                 is next order and evolves in)
  //   delta_g(nu)= -(2/3) h = -2 eps,    delta_b = -(3/2) eps,
  //   theta_g    = theta_b = theta_nu = -(k^2 tau / 4) eps,
  //   eta        = -eps / 2.
  const StateLayout& L = layout_;
  std::vector<double> y(L.size(), 0.0);

  const double a = bg_.a_of_tau(tau);
  const GrhoComponents g = bg_.grho(a);
  PLINGER_REQUIRE(k_ * tau < 0.3,
                  "initial_conditions: mode must be superhorizon");
  const double rho_r = g.photon + g.nu_massless + g.nu_massive;
  const double eps = g.cdm / rho_r;
  PLINGER_REQUIRE(eps < 0.1,
                  "isocurvature ICs require a radiation-dominated start");

  y[StateLayout::a] = a;
  y[StateLayout::h] = 3.0 * eps;
  y[StateLayout::eta] = -0.5 * eps;
  y[StateLayout::delta_c] = 1.0;
  y[StateLayout::delta_b] = -1.5 * eps;
  y[StateLayout::delta_g] = -2.0 * eps;
  const double theta = -(k_ * k_ * tau / 4.0) * eps;
  y[StateLayout::theta_b] = theta;
  y[StateLayout::theta_g] = theta;

  y[L.fn(0)] = y[StateLayout::delta_g];
  y[L.fn(1)] = 4.0 / (3.0 * k_) * theta;

  if (L.n_q() > 0) {
    const auto& grid = bg_.nu()->q_grid();
    const double xi = bg_.nu_xi(a);
    for (std::size_t iq = 0; iq < L.n_q(); ++iq) {
      const double q = grid[iq].q;
      const double epsq = std::sqrt(q * q + xi * xi);
      const double dlnf = grid[iq].dlnf0dlnq;
      y[L.psi(iq, 0)] = -0.25 * y[L.fn(0)] * dlnf;
      y[L.psi(iq, 1)] = -(epsq / (3.0 * q * k_)) * theta * dlnf;
    }
  }
  return y;
}

ModeEquations::Common ModeEquations::compute_common(
    std::span<const double> y, bool photon_shear_from_state) const {
  const StateLayout& L = layout_;
  Common c;
  c.a = std::max(y[StateLayout::a], 1e-12);
  double nu_xi = 0.0;
  double grho_nu_rel_one = 0.0;
  if (cache_ != nullptr) {
    // One fused O(1) lookup for everything per-a.
    const cosmo::ThermoPoint tp = cache_->eval(c.a);
    c.grho = tp.grho;
    c.adotoa = tp.adotoa;
    c.adotdota = tp.adotdota_over_a;
    c.opac = tp.opacity;
    c.cs2 = tp.cs2_baryon;
    nu_xi = tp.nu_xi;
    grho_nu_rel_one = tp.grho_nu_rel_one;
  } else {
    c.grho = bg_.grho(c.a);
    c.adotoa = std::sqrt(c.grho.total() / 3.0);
    c.opac = rec_.opacity(c.a);
    c.cs2 = rec_.cs2_baryon(c.a);
    if (L.n_q() > 0) {
      nu_xi = bg_.nu_xi(c.a);
      grho_nu_rel_one = bg_.grho_nu_rel_one(c.a);
    }
  }
  c.r_photon_baryon = (4.0 / 3.0) * c.grho.photon / c.grho.baryon;

  const double delta_nu = y[L.fn(0)];
  const double theta_nu = 0.75 * k_ * y[L.fn(1)];
  const double sigma_nu = 0.5 * y[L.fn(2)];

  // 8 pi G a^2 * {delta rho, (rho+p) theta, (rho+p) sigma}.
  c.gdrho = c.grho.cdm * y[StateLayout::delta_c] +
            c.grho.baryon * y[StateLayout::delta_b] +
            c.grho.photon * y[StateLayout::delta_g] +
            c.grho.nu_massless * delta_nu;
  c.gdq = c.grho.baryon * y[StateLayout::theta_b] +
          (4.0 / 3.0) * (c.grho.photon * y[StateLayout::theta_g] +
                         c.grho.nu_massless * theta_nu);
  c.gdshear = (4.0 / 3.0) * c.grho.nu_massless * sigma_nu;

  if (L.n_q() > 0) {
    const auto& grid = bg_.nu()->q_grid();
    const double xi = nu_xi;
    const double gr1 = grho_nu_rel_one * nu_norm_;
    double s_rho = 0.0, s_q = 0.0, s_sig = 0.0;
    for (std::size_t iq = 0; iq < L.n_q(); ++iq) {
      const double q = grid[iq].q;
      const double w = grid[iq].weight;
      const double eps = std::sqrt(q * q + xi * xi);
      s_rho += w * eps * y[L.psi(iq, 0)];
      s_q += w * q * y[L.psi(iq, 1)];
      s_sig += w * q * q / eps * y[L.psi(iq, 2)];
    }
    c.gdrho += gr1 * s_rho;
    c.gdq += gr1 * k_ * s_q;
    c.gdshear += gr1 * (2.0 / 3.0) * s_sig;
  }

  // Einstein constraints (MB95 eqs. 21a, 21b).
  c.hdot = (2.0 * k_ * k_ * y[StateLayout::eta] + c.gdrho) / c.adotoa;
  c.etadot = c.gdq * inv_2k2_;
  c.alpha = (c.hdot + 6.0 * c.etadot) * inv_2k2_;

  // Photon shear: from the state after tight coupling, slaved during it.
  double sigma_g;
  if (photon_shear_from_state) {
    sigma_g = 0.5 * y[L.fg(2)];
  } else {
    const double tau_c = 1.0 / c.opac;
    sigma_g = (16.0 / 45.0) * tau_c *
              (y[StateLayout::theta_g] + k_ * k_ * c.alpha);
  }
  c.gdshear += (4.0 / 3.0) * c.grho.photon * sigma_g;
  return c;
}

void ModeEquations::massless_nu_rhs(double tau, std::span<const double> y,
                                    std::span<double> dy,
                                    const Common& c) const {
  const StateLayout& L = layout_;
  const std::size_t lmax = L.lmax_neutrino();
  dy[L.fn(0)] = -k_ * y[L.fn(1)] - (2.0 / 3.0) * c.hdot;
  dy[L.fn(1)] = k_third_ * (y[L.fn(0)] - 2.0 * y[L.fn(2)]);
  dy[L.fn(2)] = k_fifth_ * (2.0 * y[L.fn(1)] - 3.0 * y[L.fn(3)]) +
                (4.0 / 15.0) * c.hdot + (8.0 / 5.0) * c.etadot;
  // Interior multipoles: contiguous fn block, precomputed couplings —
  // a pure multiply-add stream.
  run_hierarchy(y.data() + L.fn(0), dy.data() + L.fn(0), lo_k_.data(),
                hi_k_.data(), 3, lmax);
  // Truncation (MB95 eq. 51 analogue).
  dy[L.fn(lmax)] = k_ * y[L.fn(lmax - 1)] -
                   (static_cast<double>(lmax) + 1.0) / tau * y[L.fn(lmax)];
}

void ModeEquations::massive_nu_rhs(double tau, std::span<const double> y,
                                   std::span<double> dy,
                                   const Common& c) const {
  const StateLayout& L = layout_;
  if (L.n_q() == 0) return;
  const auto& grid = bg_.nu()->q_grid();
  const double xi = bg_.nu_xi(c.a);
  const std::size_t lmax = L.lmax_massive_nu();
  // Per-row invariants hoisted out of the q loop.
  const double hdot6 = (c.hdot / 6.0);
  const double source2 = (c.hdot / 15.0 + 2.0 / 5.0 * c.etadot);
  const double trunc = (static_cast<double>(lmax) + 1.0) / tau;
  const double* __restrict__ lo = lo_q_.data();
  const double* __restrict__ hi = hi_q_.data();
  for (std::size_t iq = 0; iq < L.n_q(); ++iq) {
    const double q = grid[iq].q;
    const double dlnf = grid[iq].dlnf0dlnq;
    const double eps = std::sqrt(q * q + xi * xi);
    const double qke = q * k_ / eps;
    // Each q row is a contiguous (lmax+1)-slot block.
    const double* __restrict__ ps = y.data() + L.psi(iq, 0);
    double* __restrict__ dps = dy.data() + L.psi(iq, 0);
    dps[0] = -qke * ps[1] + hdot6 * dlnf;
    dps[1] = (qke / 3.0) * (ps[0] - 2.0 * ps[2]);
    dps[2] = (qke / 5.0) * (2.0 * ps[1] - 3.0 * ps[3]) - source2 * dlnf;
    for (std::size_t l = 3; l < lmax; ++l) {
      dps[l] = qke * (lo[l] * ps[l - 1] - hi[l] * ps[l + 1]);
    }
    // Truncation (MB95 eq. 58).
    dps[lmax] = qke * ps[lmax - 1] - trunc * ps[lmax];
  }
}

PLINGER_HOT void ModeEquations::rhs_full(double tau,
                                         std::span<const double> y,
                                         std::span<double> dy) const {
  ++n_calls_;
  const StateLayout& L = layout_;
  const Common c = compute_common(y, /*photon_shear_from_state=*/true);
  const std::size_t lmax = L.lmax_photon();
  const double k = k_;
  const double inv_tau = 1.0 / tau;  // shared by the truncation rows

  dy[StateLayout::a] = c.a * c.adotoa;
  dy[StateLayout::h] = c.hdot;
  dy[StateLayout::eta] = c.etadot;
  dy[StateLayout::delta_c] = -0.5 * c.hdot;
  dy[StateLayout::delta_b] = -y[StateLayout::theta_b] - 0.5 * c.hdot;
  dy[StateLayout::delta_g] =
      -(4.0 / 3.0) * y[StateLayout::theta_g] - (2.0 / 3.0) * c.hdot;

  const double sigma_g = 0.5 * y[L.fg(2)];
  // Baryons (MB95 eq. 66 exact form) and photons (eq. 63).
  dy[StateLayout::theta_b] =
      -c.adotoa * y[StateLayout::theta_b] +
      c.cs2 * k * k * y[StateLayout::delta_b] +
      c.opac * c.r_photon_baryon *
          (y[StateLayout::theta_g] - y[StateLayout::theta_b]);
  dy[StateLayout::theta_g] =
      k * k * (0.25 * y[StateLayout::delta_g] - sigma_g) +
      c.opac * (y[StateLayout::theta_b] - y[StateLayout::theta_g]);

  // Photon temperature hierarchy.
  const double pi_pol = y[L.fg(2)] + y[L.gg(0)] + y[L.gg(2)];
  dy[L.fg(2)] = (8.0 / 15.0) * y[StateLayout::theta_g] -
                (3.0 / 5.0) * k * y[L.fg(3)] + (4.0 / 15.0) * c.hdot +
                (8.0 / 5.0) * c.etadot - (9.0 / 5.0) * c.opac * sigma_g +
                (1.0 / 10.0) * c.opac * (y[L.gg(0)] + y[L.gg(2)]);
  // Interior multipoles: the fg block is contiguous (f[l] = y[L.fg(l)]),
  // the couplings are precomputed, and the body is a pure multiply-add
  // stream — the single hottest loop in the code.  y and dy are distinct
  // integrator workspaces, satisfying the loop's restrict contract.
  run_hierarchy_damped(y.data() + (L.fg(2) - 2), dy.data() + (L.fg(2) - 2),
                       lo_k_.data(), hi_k_.data(), c.opac, 3, lmax);
  dy[L.fg(lmax)] = k * y[L.fg(lmax - 1)] -
                   (static_cast<double>(lmax) + 1.0) * inv_tau * y[L.fg(lmax)] -
                   c.opac * y[L.fg(lmax)];

  // Photon polarization hierarchy (MB95 eq. 64).
  dy[L.gg(0)] = -k * y[L.gg(1)] + c.opac * (0.5 * pi_pol - y[L.gg(0)]);
  dy[L.gg(1)] = k_third_ * (y[L.gg(0)] - 2.0 * y[L.gg(2)]) -
                c.opac * y[L.gg(1)];
  dy[L.gg(2)] = k_fifth_ * (2.0 * y[L.gg(1)] - 3.0 * y[L.gg(3)]) +
                c.opac * (0.1 * pi_pol - y[L.gg(2)]);
  const std::size_t lpol = L.lmax_polarization();
  run_hierarchy_damped(y.data() + L.gg(0), dy.data() + L.gg(0), lo_k_.data(),
                       hi_k_.data(), c.opac, 3, lpol);
  dy[L.gg(lpol)] = k * y[L.gg(lpol - 1)] -
                   (static_cast<double>(lpol) + 1.0) * inv_tau * y[L.gg(lpol)] -
                   c.opac * y[L.gg(lpol)];

  massless_nu_rhs(tau, y, dy, c);
  massive_nu_rhs(tau, y, dy, c);
}

PLINGER_HOT void ModeEquations::rhs_tca(double tau,
                                        std::span<const double> y,
                                        std::span<double> dy) const {
  ++n_calls_;
  const StateLayout& L = layout_;
  const Common c = compute_common(y, /*photon_shear_from_state=*/false);
  const double k = k_;
  const double k2 = k * k;
  const double r = c.r_photon_baryon;
  const double tau_c = 1.0 / c.opac;

  dy[StateLayout::a] = c.a * c.adotoa;
  dy[StateLayout::h] = c.hdot;
  dy[StateLayout::eta] = c.etadot;
  dy[StateLayout::delta_c] = -0.5 * c.hdot;
  const double delta_b_dot = -y[StateLayout::theta_b] - 0.5 * c.hdot;
  const double delta_g_dot =
      -(4.0 / 3.0) * y[StateLayout::theta_g] - (2.0 / 3.0) * c.hdot;
  dy[StateLayout::delta_b] = delta_b_dot;
  dy[StateLayout::delta_g] = delta_g_dot;

  const double sigma_g = (16.0 / 45.0) * tau_c *
                         (y[StateLayout::theta_g] + k2 * c.alpha);

  // First-order slip expansion (MB95 eq. 67, synchronous gauge).
  const double addoa =
      cache_ != nullptr ? c.adotdota : bg_.adotdota_over_a(c.a);
  const double slip =
      (2.0 * r / (1.0 + r)) * c.adotoa *
          (y[StateLayout::theta_b] - y[StateLayout::theta_g]) +
      (tau_c / (1.0 + r)) *
          (-addoa * y[StateLayout::theta_b] -
           c.adotoa * k2 * 0.5 * y[StateLayout::delta_g] +
           k2 * (c.cs2 * delta_b_dot - 0.25 * delta_g_dot));

  // Combined photon-baryon momentum equation (MB95 eq. 66).
  const double theta_b_dot =
      (-c.adotoa * y[StateLayout::theta_b] +
       c.cs2 * k2 * y[StateLayout::delta_b] +
       k2 * r * (0.25 * y[StateLayout::delta_g] - sigma_g) + r * slip) /
      (1.0 + r);
  dy[StateLayout::theta_b] = theta_b_dot;
  dy[StateLayout::theta_g] =
      (-theta_b_dot - c.adotoa * y[StateLayout::theta_b] +
       c.cs2 * k2 * y[StateLayout::delta_b]) /
          r +
      k2 * (0.25 * y[StateLayout::delta_g] - sigma_g);

  // Slaved photon moments and polarization: hold at zero.
  for (std::size_t l = 2; l <= L.lmax_photon(); ++l) dy[L.fg(l)] = 0.0;
  for (std::size_t l = 0; l <= L.lmax_polarization(); ++l) dy[L.gg(l)] = 0.0;

  massless_nu_rhs(tau, y, dy, c);
  massive_nu_rhs(tau, y, dy, c);
}

void ModeEquations::tca_handoff(double /*tau*/, std::span<double> y) const {
  const StateLayout& L = layout_;
  const Common c = compute_common(y, /*photon_shear_from_state=*/false);
  const double tau_c = 1.0 / c.opac;
  const double sigma_g = (16.0 / 45.0) * tau_c *
                         (y[StateLayout::theta_g] + k_ * k_ * c.alpha);
  const double f2 = 2.0 * sigma_g;
  // Quasi-static polarization: Pi = (5/2) F2, G0 = Pi/2, G2 = Pi/10,
  // G1 = (k tau_c / 3)(G0 - 2 G2).
  const double pi_pol = 2.5 * f2;
  y[L.fg(2)] = f2;
  y[L.gg(0)] = 0.5 * pi_pol;
  y[L.gg(2)] = 0.1 * pi_pol;
  y[L.gg(1)] =
      (k_ * tau_c / 3.0) * (y[L.gg(0)] - 2.0 * y[L.gg(2)]);
  for (std::size_t l = 3; l <= L.lmax_photon(); ++l) y[L.fg(l)] = 0.0;
  for (std::size_t l = 3; l <= L.lmax_polarization(); ++l) y[L.gg(l)] = 0.0;
}

double ModeEquations::pi_source(double /*tau*/, std::span<const double> y,
                                bool in_tca) const {
  const StateLayout& L = layout_;
  if (!in_tca) return y[L.fg(2)] + y[L.gg(0)] + y[L.gg(2)];
  // Quasi-static tight-coupling value — the same expansion tca_handoff
  // seeds the full equations with: F2 = 2 sigma_g and Pi = (5/2) F2.
  const Common c = compute_common(y, /*photon_shear_from_state=*/false);
  const double tau_c = 1.0 / c.opac;
  const double sigma_g = (16.0 / 45.0) * tau_c *
                         (y[StateLayout::theta_g] + k_ * k_ * c.alpha);
  return 2.5 * 2.0 * sigma_g;
}

bool ModeEquations::tca_valid(double tau) const {
  const double a = bg_.a_of_tau(tau);
  if (a > 1.0 / (1.0 + kTcaExitZ)) return false;
  const double opac = rec_.opacity(a);
  const double adotoa = bg_.adotoa(a);
  return std::max(k_, adotoa) < cfg_.tca_eps * opac;
}

ModeEquations::Couplings ModeEquations::couplings(
    double tau, std::span<const double> y) const {
  const Common c = compute_common(y, !tca_valid(tau));
  Couplings out;
  out.a = c.a;
  out.adotoa = c.adotoa;
  out.hdot = c.hdot;
  out.etadot = c.etadot;
  out.alpha = c.alpha;
  out.gdrho = c.gdrho;
  out.gdq = c.gdq;
  out.gdshear = c.gdshear;
  out.grho = c.grho;
  return out;
}

NewtonianPotentials ModeEquations::newtonian(
    double tau, std::span<const double> y) const {
  const bool tca = tca_valid(tau);
  const Common c = compute_common(y, /*photon_shear_from_state=*/!tca);
  NewtonianPotentials p;
  // MB95 eqs. (18), (23): phi = eta - (a'/a) alpha;
  // k^2 (phi - psi) = 12 pi G a^2 (rho+p) sigma = (3/2) gdshear.
  p.phi = y[StateLayout::eta] - c.adotoa * c.alpha;
  p.psi = p.phi - 1.5 * c.gdshear / (k_ * k_);
  return p;
}

EinsteinResiduals ModeEquations::einstein_residuals(
    double tau, std::span<const double> y) const {
  const StateLayout& L = layout_;
  const bool tca = tca_valid(tau);
  auto rhs = [&](double t, std::span<const double> yy,
                 std::span<double> dd) {
    if (tca) {
      rhs_tca(t, yy, dd);
    } else {
      rhs_full(t, yy, dd);
    }
  };

  std::vector<double> dy(L.size()), y2(L.size()), dy2(L.size());
  rhs(tau, y, dy);
  const double delta = 1e-6 * tau;
  for (std::size_t i = 0; i < L.size(); ++i) y2[i] = y[i] + delta * dy[i];
  rhs(tau + delta, y2, dy2);

  const double hddot = (dy2[StateLayout::h] - dy[StateLayout::h]) / delta;
  const double etaddot =
      (dy2[StateLayout::eta] - dy[StateLayout::eta]) / delta;

  const Common c = compute_common(y, !tca);
  // 8 pi G a^2 delta p.
  const double delta_nu = y[L.fn(0)];
  double gdp = (c.grho.photon * y[StateLayout::delta_g] +
                c.grho.nu_massless * delta_nu) /
                   3.0 +
               c.cs2 * c.grho.baryon * y[StateLayout::delta_b];
  if (L.n_q() > 0) {
    const auto& grid = bg_.nu()->q_grid();
    const double xi = bg_.nu_xi(c.a);
    const double gr1 = bg_.grho_nu_rel_one(c.a) *
                       static_cast<double>(bg_.params().n_massive_nu) /
                       bg_.nu()->grid_norm_massless();
    double s_p = 0.0;
    for (std::size_t iq = 0; iq < L.n_q(); ++iq) {
      const double q = grid[iq].q;
      const double eps = std::sqrt(q * q + xi * xi);
      s_p += grid[iq].weight * q * q / (3.0 * eps) * y[L.psi(iq, 0)];
    }
    gdp += gr1 * s_p;
  }

  const double k2 = k_ * k_;
  EinsteinResiduals res;
  // MB95 eq. (21c): h'' + 2(a'/a)h' - 2k^2 eta = -3 * 8 pi G a^2 dp.
  res.trace = hddot + 2.0 * c.adotoa * c.hdot -
              2.0 * k2 * y[StateLayout::eta] + 3.0 * gdp;
  // MB95 eq. (21d): (h+6eta)'' + 2(a'/a)(h+6eta)' - 2k^2 eta
  //                 = -3 * 8 pi G a^2 (rho+p) sigma.
  res.shear = (hddot + 6.0 * etaddot) +
              2.0 * c.adotoa * (c.hdot + 6.0 * c.etadot) -
              2.0 * k2 * y[StateLayout::eta] + 3.0 * c.gdshear;
  res.scale = std::abs(hddot) + std::abs(2.0 * c.adotoa * c.hdot) +
              std::abs(2.0 * k2 * y[StateLayout::eta]) +
              std::abs(3.0 * gdp) + 1e-300;
  return res;
}

double ModeEquations::delta_matter(std::span<const double> y) const {
  const StateLayout& L = layout_;
  const double a = std::max(y[StateLayout::a], 1e-12);
  const GrhoComponents g = bg_.grho(a);
  double num = g.cdm * y[StateLayout::delta_c] +
               g.baryon * y[StateLayout::delta_b];
  double den = g.cdm + g.baryon;
  if (L.n_q() > 0) {
    const auto& grid = bg_.nu()->q_grid();
    const double xi = bg_.nu_xi(a);
    const double gr1 = bg_.grho_nu_rel_one(a) *
                       static_cast<double>(bg_.params().n_massive_nu) /
                       bg_.nu()->grid_norm_massless();
    double s_rho = 0.0;
    for (std::size_t iq = 0; iq < L.n_q(); ++iq) {
      const double q = grid[iq].q;
      const double eps = std::sqrt(q * q + xi * xi);
      s_rho += grid[iq].weight * eps * y[L.psi(iq, 0)];
    }
    num += gr1 * s_rho;
    den += g.nu_massive;
  }
  return num / den;
}

std::uint64_t ModeEquations::flops_per_rhs() const {
  const StateLayout& L = layout_;
  // Operation counts of the loops above, in the spirit of the paper's
  // §5.1.  With the tabulated couplings each interior photon /
  // polarization multipole costs 3 multiplies + 2 subtracts (5 flops,
  // including the opacity damping), each massless-neutrino one 2
  // multiplies + 1 subtract (3 flops), and each massive-neutrino row
  // slot one extra multiply for the q k / eps scale (4 flops) plus ~28
  // flops of per-row setup (sqrt, sources, truncation).  The common
  // block is 140 flops on the fused-cache path (one table interpolation
  // + analytic densities) and 180 on the direct-spline path.
  const std::uint64_t common = cache_ != nullptr ? 140 : 180;
  const std::uint64_t photons =
      (L.lmax_photon() - 1) * 5 + (L.lmax_polarization() + 1) * 5;
  const std::uint64_t neutrinos = (L.lmax_neutrino() + 1) * 3;
  const std::uint64_t massive =
      L.n_q() * ((L.lmax_massive_nu() + 1) * 4 + 28);
  return common + photons + neutrinos + massive;
}

}  // namespace plinger::boltzmann
