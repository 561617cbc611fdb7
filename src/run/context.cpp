#include "run/context.hpp"

#include "store/identity.hpp"

namespace plinger::run {

RunContext::RunContext(const RunConfig& cfg)
    : bg_(cfg.cosmology()),
      rec_(bg_, cfg.recombination_options()),
      thermo_(std::make_shared<const cosmo::ThermoCache>(bg_, rec_)) {}

std::uint64_t RunContext::cosmology_key(const RunConfig& cfg) {
  return store::cosmology_key(cfg.cosmology(), cfg.recombination_options());
}

std::shared_ptr<const RunContext> make_context(const RunConfig& cfg) {
  return std::make_shared<const RunContext>(cfg);
}

}  // namespace plinger::run
