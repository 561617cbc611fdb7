#include "boltzmann/mode_evolution.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/timing.hpp"
#include "math/brent.hpp"

namespace plinger::boltzmann {

ModeEvolver::ModeEvolver(const cosmo::Background& bg,
                         const cosmo::Recombination& rec,
                         const PerturbationConfig& cfg)
    : ModeEvolver(bg, rec, cfg,
                  std::make_shared<const cosmo::ThermoCache>(bg, rec)) {}

ModeEvolver::ModeEvolver(const cosmo::Background& bg,
                         const cosmo::Recombination& rec,
                         const PerturbationConfig& cfg,
                         std::shared_ptr<const cosmo::ThermoCache> cache)
    : bg_(bg), rec_(rec), cfg_(cfg), cache_(std::move(cache)) {}

namespace {

/// `in_tca` selects the Pi column's source: the slaved polarization
/// states are identically zero while tight coupling holds, so samples
/// recorded there take the quasi-static pi_source() value instead —
/// the line-of-sight E-mode projection needs Pi populated across the
/// whole visibility window, not only after the tight-coupling exit.
TransferSample make_sample(const ModeEquations& eq, double tau,
                           std::span<const double> y, bool in_tca) {
  const StateLayout& L = eq.layout();
  TransferSample s;
  s.tau = tau;
  s.a = y[StateLayout::a];
  s.delta_c = y[StateLayout::delta_c];
  s.delta_b = y[StateLayout::delta_b];
  s.delta_g = y[StateLayout::delta_g];
  s.delta_nu = y[L.fn(0)];
  s.delta_m = eq.delta_matter(y);
  s.theta_b = y[StateLayout::theta_b];
  s.theta_g = y[StateLayout::theta_g];
  s.eta = y[StateLayout::eta];
  s.h = y[StateLayout::h];
  const NewtonianPotentials p = eq.newtonian(tau, y);
  s.phi = p.phi;
  s.psi = p.psi;
  s.alpha = eq.couplings(tau, y).alpha;
  s.pi_pol = eq.pi_source(tau, y, in_tca);
  return s;
}

}  // namespace

ModeResult ModeEvolver::evolve(const EvolveRequest& req,
                               double tau_end) const {
  PLINGER_REQUIRE(req.k > 0.0, "evolve: k must be positive");
  const double cpu0 = thread_cpu_seconds();

  const double tau0 = bg_.conformal_age();
  if (tau_end <= 0.0) tau_end = tau0;
  PLINGER_REQUIRE(tau_end <= tau0 + 1e-9, "evolve: tau_end beyond today");

  PerturbationConfig cfg = cfg_;
  cfg.lmax_photon = (req.lmax_photon != 0)
                        ? req.lmax_photon
                        : lmax_photon_for_k(req.k, tau_end);
  // StateLayout requires lmax_polarization <= lmax_photon; a tall
  // polarization tower (used for E-mode references) is clamped per mode
  // so low-k modes with a shorter per-k photon tower stay valid.  No-op
  // for the default config: lmax_photon_for_k never drops below 60.
  cfg.lmax_polarization = std::min(cfg.lmax_polarization, cfg.lmax_photon);
  ModeEquations eq(bg_, rec_, cfg, req.k, cache_.get());

  // Start superhorizon AND radiation-dominated.
  const double tau_init =
      std::min(kIcEps / req.k,
               bg_.tau_of_a(bg_.a_equality() / kEarlyAFactor));
  PLINGER_REQUIRE(tau_init < tau_end, "evolve: tau range is empty");

  // Tight-coupling exit: the validity margin shrinks monotonically, so a
  // single bracketed root gives the switch time.
  double tau_switch = tau_init;
  if (eq.tca_valid(tau_init)) {
    const double a_forced = 1.0 / (1.0 + kTcaExitZ);
    double tau_forced = bg_.tau_of_a(a_forced);
    tau_forced = std::min(tau_forced, tau_end);
    auto margin = [&](double tau) {
      const double a = bg_.a_of_tau(tau);
      return cfg.tca_eps * rec_.opacity(a) -
             std::max(req.k, bg_.adotoa(a));
    };
    if (margin(tau_forced) >= 0.0) {
      // Thresholds never trip before the forced-exit redshift.
      tau_switch = tau_forced;
    } else {
      tau_switch = plinger::math::brent_root(margin, tau_init, tau_forced,
                                             1e-10 * tau_forced);
    }
  }

  // Sample times, partitioned once per RHS regime.  A time within
  // kSameTau of a leg boundary (tau_switch when the mode starts tightly
  // coupled, or tau_end) is answered once, from the boundary state after
  // the handoff; every other time inside (tau_init, tau_end) goes to the
  // leg whose RHS covers it, and near-duplicates collapse to the first.
  constexpr double kSameTau = 1e-12;
  bool in_tca = tau_switch > tau_init;
  std::vector<double> ts(req.sample_taus.begin(), req.sample_taus.end());
  std::sort(ts.begin(), ts.end());
  std::vector<double> ts_tca, ts_full;
  bool at_switch = false, at_end = false;
  for (const double t : ts) {
    if (in_tca && std::abs(t - tau_switch) < kSameTau) {
      at_switch = true;
    } else if (std::abs(t - tau_end) < kSameTau) {
      at_end = true;
    } else if (t > tau_init && t < tau_end) {
      std::vector<double>& leg = (t < tau_switch) ? ts_tca : ts_full;
      if (leg.empty() || std::abs(t - leg.back()) >= kSameTau) {
        leg.push_back(t);
      }
    }
  }

  ModeResult result;
  result.k = req.k;
  result.lmax = cfg.lmax_photon;
  result.tau_init = tau_init;
  result.tau_switch = tau_switch;
  result.tau_end = tau_end;

  std::vector<double> y = eq.initial_conditions(tau_init);
  plinger::math::OdeOptions opts;
  opts.rtol = cfg.rtol;
  opts.atol = cfg.atol;

  // One path for both cores: the tight-coupling leg, the handoff, then
  // the full-hierarchy leg, each answering its own sample times through
  // integrate_dense (clamped legs for DVERK, the continuous extension
  // for DOP853).
  const auto record = [&](double t, std::span<const double> yy) {
    result.samples.push_back(make_sample(eq, t, yy, in_tca));
  };
  const auto run = [&](auto integrator) {
    const auto leg = [&](double t0, double t1, auto&& rhs,
                         std::span<const double> leg_ts) {
      result.stats +=
          integrator.integrate_dense(rhs, t0, t1, y, opts, leg_ts, record);
    };
    if (in_tca) {
      leg(tau_init, tau_switch,
          [&eq](double t, std::span<const double> yy, std::span<double> dd) {
            eq.rhs_tca(t, yy, dd);
          },
          ts_tca);
      eq.tca_handoff(tau_switch, y);
      in_tca = false;
    }
    if (at_switch) record(tau_switch, y);
    if (tau_end > tau_switch) {
      leg(tau_switch, tau_end,
          [&eq](double t, std::span<const double> yy, std::span<double> dd) {
            eq.rhs_full(t, yy, dd);
          },
          ts_full);
    }
    if (at_end) record(tau_end, y);
  };
  if (cfg.integrator == IntegratorKind::dop853) {
    run(plinger::math::Dop853{});
  } else {
    run(plinger::math::Dverk{});
  }

  // Final transfer outputs at tau_end plus the flops/cpu accounting.
  result.final_state = make_sample(eq, tau_end, y, /*in_tca=*/false);
  const StateLayout& L = eq.layout();
  result.f_gamma.resize(cfg.lmax_photon + 1);
  result.g_gamma.resize(L.lmax_polarization() + 1);
  result.f_gamma[0] = y[StateLayout::delta_g];
  result.f_gamma[1] = 4.0 / (3.0 * req.k) * y[StateLayout::theta_g];
  for (std::size_t l = 2; l <= cfg.lmax_photon; ++l) {
    result.f_gamma[l] = y[L.fg(l)];
  }
  for (std::size_t l = 0; l <= L.lmax_polarization(); ++l) {
    result.g_gamma[l] = y[L.gg(l)];
  }
  result.flops = eq.rhs_calls() * eq.flops_per_rhs();
  result.cpu_seconds = thread_cpu_seconds() - cpu0;
  return result;
}

}  // namespace plinger::boltzmann
