#include "run/plan.hpp"

#include <utility>

#include "common/error.hpp"
#include "math/spline.hpp"
#include "mp/tcp_world.hpp"
#include "spectra/cl.hpp"

namespace plinger::run {

std::vector<double> materialize_grid(const RunConfig& cfg, double tau0) {
  if (cfg.grid == "cl") {
    return spectra::make_cl_kgrid(cfg.l_max, tau0, cfg.points_per_osc,
                                  cfg.k_margin);
  }
  if (cfg.grid == "linear") {
    return math::linspace(cfg.k_min, cfg.k_max, cfg.n_k);
  }
  return math::logspace(cfg.k_min, cfg.k_max, cfg.n_k);
}

double estimated_cost(const RunConfig& cfg, std::span<const double> k_grid,
                      double tau0) {
  // Work per mode ~ (steps ~ k tau0 oscillations) x (state ~ the
  // k-dependent photon tower).  LOS pins every mode to the same short
  // hierarchy; the step count still scales with the oscillations.
  const bool los = cfg.solver == "los" || cfg.solver == "auto";
  const std::size_t lmax_los = los ? cfg.los_options().lmax_evolve : 0;
  const auto cap = static_cast<std::size_t>(cfg.lmax_cap);
  double cost = 0.0;
  for (double k : k_grid) {
    const double lmax = static_cast<double>(
        los ? lmax_los : boltzmann::lmax_photon_for_k(k, tau0, cap));
    cost += (k * tau0 + 60.0) * lmax;
  }
  return cost;
}

RunPlan::RunPlan(RunConfig cfg, std::shared_ptr<const RunContext> ctx)
    : cfg_(std::move(cfg)),
      ctx_(std::move(ctx)),
      pcfg_(cfg_.perturbation()),
      schedule_(materialize_grid(cfg_, ctx_->conformal_age()),
                cfg_.issue_order()) {
  setup_.tau_end = cfg_.tau_end;
  setup_.lmax_cap = cfg_.lmax_cap;
  setup_.trace.enabled = cfg_.trace;
  setup_.store.path = cfg_.store;
  setup_.store.flush_interval = cfg_.flush_interval;
  setup_.store.stop_after = cfg_.stop_after;
  setup_.fault.timeout_seconds = cfg_.fault_timeout;
  setup_.fault.max_retries = cfg_.max_retries;
  setup_.thermo = ctx_->thermo();
  if (cfg_.solver == "los" || cfg_.solver == "auto") {
    const boltzmann::LosOptions lopts = cfg_.los_options();
    setup_.los.enabled = true;
    setup_.los.lmax_evolve = lopts.lmax_evolve;
    setup_.los.sample_taus = boltzmann::los_sample_taus(
        ctx_->background(), ctx_->recombination(), lopts);
    setup_.los.l_max = cfg_.l_max;
  }
}

store::RunIdentity RunPlan::identity() const {
  return parallel::store_identity(ctx_->background(), ctx_->recombination(),
                                  pcfg_, schedule_, setup_);
}

parallel::RunOutput RunPlan::execute() const {
  const cosmo::Background& bg = ctx_->background();
  const cosmo::Recombination& rec = ctx_->recombination();
  if (cfg_.driver == "serial") {
    return parallel::run_linger_serial(bg, rec, pcfg_, schedule_, setup_);
  }
  if (cfg_.driver == "autotask") {
    return parallel::run_linger_autotask(bg, rec, pcfg_, schedule_,
                                         setup_, cfg_.workers);
  }
  if (cfg_.transport == "tcp") {
    PLINGER_REQUIRE(!cfg_.tcp_listen.empty(),
                    "transport = tcp: the master needs tcp_listen "
                    "(host:port); worker processes use execute_worker()");
    const mp::TcpEndpoint ep = mp::parse_endpoint(cfg_.tcp_listen);
    auto world = mp::TcpWorld::listen(ep.host, ep.port, cfg_.workers);
    world->accept_workers();
    return parallel::run_plinger_tcp(bg, rec, pcfg_, schedule_, setup_,
                                     *world);
  }
  return parallel::run_plinger_threads(bg, rec, pcfg_, schedule_, setup_,
                                       cfg_.workers);
}

void RunPlan::execute_worker() const {
  PLINGER_REQUIRE(cfg_.transport == "tcp" && !cfg_.tcp_connect.empty(),
                  "execute_worker needs transport = tcp and tcp_connect "
                  "(the master's host:port)");
  const mp::TcpEndpoint ep = mp::parse_endpoint(cfg_.tcp_connect);
  // Each attempt gets the default 30 s still-binding window; the gaps
  // between attempts back off exponentially.
  auto world = mp::TcpWorld::connect(ep.host, ep.port, cfg_.tcp_retry,
                                     cfg_.tcp_backoff_ms);
  parallel::run_plinger_tcp_worker(ctx_->background(),
                                   ctx_->recombination(), pcfg_, schedule_,
                                   setup_, *world);
}

parallel::RunOutput execute_run(const RunConfig& cfg) {
  return RunPlan(cfg, make_context(cfg)).execute();
}

}  // namespace plinger::run
