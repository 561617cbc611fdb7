#include "run/context.hpp"

#include <exception>

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

ContextCache::Lookup ContextCache::get(const RunConfig& cfg) {
  const std::uint64_t key = RunContext::cosmology_key(cfg);
  std::promise<std::shared_ptr<const RunContext>> mine;
  Lookup out;
  Build build;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = builds_.find(key);
    out.reused = it != builds_.end();
    if (out.reused) {
      build = it->second;
    } else {
      build = builds_.emplace(key, mine.get_future().share()).first->second;
      order_.push_back(key);
      if (order_.size() > capacity_) {
        builds_.erase(order_.front());
        order_.erase(order_.begin());
      }
    }
  }
  if (!out.reused) {
    try {
      mine.set_value(make_context(cfg));
    } catch (...) {
      {
        // Cache nothing: the next ask of this key builds again.
        const std::lock_guard<std::mutex> lock(mutex_);
        if (builds_.erase(key) != 0) std::erase(order_, key);
      }
      mine.set_exception(std::current_exception());
    }
  }
  out.context = build.get();
  return out;
}

std::size_t ContextCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return builds_.size();
}

}  // namespace plinger::run
