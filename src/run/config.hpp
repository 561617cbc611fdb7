#pragma once

/// RunConfig — the declarative description of one plinger++ run.
///
/// Every entry point used to hand-roll the same wiring: build
/// CosmoParams/Background/Recombination, derive omega_c, make a k-grid
/// and KSchedule, pick a driver, thread through store/trace/fault
/// options.  RunConfig is the single canonical input that replaces that
/// glue: a plain struct mirroring the key = value parameter surface,
/// with
///
///   * parse() from an io::KeyValueMap with unknown-key diagnostics
///     (a typo like `omega_B =` is reported, not silently defaulted),
///   * validate() with per-key range errors,
///   * to_params_text() serialization that round-trips exactly
///     (doubles printed with max_digits10),
///   * materializers for the physics objects (cosmology(),
///     perturbation(), recombination_options()),
///   * config_keys()/config_reference_markdown(): the one key table
///     that drives the parser, the serializer, and the
///     docs/operations.md CLI reference, so docs and parser cannot
///     drift.
///
/// The pipeline is RunConfig -> RunContext (per-cosmology caches) ->
/// RunPlan (schedule + driver dispatch) -> RunOutput -> products; see
/// context.hpp, plan.hpp, products.hpp, batch.hpp.  Everything the
/// store identity hash covers is derived from this struct (plus the
/// context's conformal age for `grid = cl`), making RunConfig the
/// canonical input to store::run_identity — journals written by the
/// pre-RunConfig entry points still resume, because materialization
/// reproduces the legacy wiring bit for bit.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "boltzmann/config.hpp"
#include "boltzmann/los.hpp"
#include "cosmo/params.hpp"
#include "cosmo/recombination.hpp"
#include "io/params.hpp"
#include "plinger/schedule.hpp"

namespace plinger::run {

/// The full parameter surface of one run.  Field defaults equal the key
/// defaults in the table below (and the historical linger_cli
/// defaults); omega_c is always derived via
/// CosmoParams::close_universe(), never specified.
struct RunConfig {
  // --- cosmology (the `preset` base, overridden per key) ---
  std::string preset = "scdm";  ///< scdm | lcdm | mdm
  double h = 0.5;
  double omega_b = 0.05;
  double omega_lambda = 0.0;
  double omega_nu = 0.0;
  int n_massive_nu = 0;
  double n_eff_massless = 3.0;
  double t_cmb = 2.726;
  double y_helium = 0.24;
  double n_s = 1.0;
  double z_reion = 0.0;

  // --- k-grid ---
  std::string grid = "log";  ///< log | linear | cl
  double k_min = 1e-4;       ///< log/linear grids
  double k_max = 0.1;
  std::size_t n_k = 32;
  std::size_t l_max = 300;  ///< cl grid: make_cl_kgrid(l_max, tau0, ...)
  double points_per_osc = 2.5;
  double k_margin = 1.25;
  std::string order = "largest";  ///< largest | natural | random

  // --- integration ---
  std::string ic = "adiabatic";  ///< adiabatic | isocurvature
  /// ODE core: auto (resolved by perturbation(): dverk under solver =
  /// hierarchy, dop853 under los and auto) | dverk (the paper's Verner
  /// 6(5)) | dop853 (Dormand-Prince 8(5,3), whose dense output answers
  /// the LOS source times inside accepted steps).  The resolved core
  /// folds into the store identity — journals written by different
  /// integrators never cross-resume.
  std::string integrator = "auto";
  double rtol = 1e-5;
  std::size_t lmax_photon = 128;  ///< identity + lmax_polarization bound
  std::size_t lmax_polarization = 32;
  std::size_t lmax_neutrino = 32;
  double tau_end = 0.0;    ///< 0 selects the conformal age
  double lmax_cap = 12000;  ///< k-dependent photon hierarchy cap

  // --- solver ---
  /// hierarchy (full Boltzmann tower, the golden reference) | los
  /// (short hierarchy + line-of-sight projection; the fast path, held
  /// to the hierarchy by the ctest `accuracy` gate) | auto (the same
  /// run as los, under the same identity; kept for the clients that
  /// send it).
  std::string solver = "hierarchy";
  std::string los_accuracy = "standard";  ///< draft | standard | high
  /// Tight-coupling exit threshold; the PerturbationConfig default.
  double tca_eps = 8e-3;

  // --- driver ---
  std::string driver = "threads";  ///< serial | autotask | threads
  int workers = 2;

  // --- transport (threads driver) ---
  /// inproc (in-process mailboxes, the historical world) | tcp
  /// (cross-process sockets: the master listens on tcp_listen and
  /// workers join from other processes via plinger_worker).  Pure
  /// scheduling — never part of the store identity; results are
  /// bitwise identical across transports.
  std::string transport = "inproc";
  std::string tcp_listen;   ///< master listen endpoint host:port
  std::string tcp_connect;  ///< worker-process connect endpoint host:port
  /// Worker-side initial-connect attempts: 1 = the single bounded
  /// connect() the transport always had; > 1 adds bounded retry with
  /// exponential backoff (tcp_backoff_ms, doubling per attempt) for
  /// deployments where the master comes up slower than its workers.
  int tcp_retry = 1;
  int tcp_backoff_ms = 250;  ///< first backoff sleep; doubles per retry

  // --- checkpoint store ---
  std::string store;  ///< journal path; empty = no checkpointing
  std::size_t flush_interval = 1;
  std::size_t stop_after = 0;

  // --- trace ---
  bool trace = false;
  std::string trace_json = "linger_trace.json";

  // --- fault tolerance ---
  double fault_timeout = 0.0;
  int max_retries = 2;

  /// Rebase the cosmology surface on a named preset (scdm | lcdm |
  /// mdm): sets `preset` and copies the preset's surface fields —
  /// exactly what the `preset` key does during parsing.  Assign
  /// individual fields afterwards to override.  Throws InvalidArgument
  /// on an unknown name.
  void set_preset(const std::string& name);

  /// Range-check every field; throws InvalidArgument naming the key.
  /// Includes materializing the cosmology, so a parameter set whose
  /// closure leaves no room for omega_c is rejected here.
  void validate() const;

  /// Materialize the cosmological model: preset base, overrides
  /// applied, omega_c derived by close_universe().  Bitwise identical
  /// to the legacy hand-rolled wiring for the same inputs.
  cosmo::CosmoParams cosmology() const;

  /// Materialize the per-mode integration configuration, with
  /// `integrator = auto` resolved against `solver`.
  boltzmann::PerturbationConfig perturbation() const;

  /// Materialize the recombination options (z_reion).
  cosmo::Recombination::Options recombination_options() const;

  /// Materialize the line-of-sight options named by `los_accuracy`
  /// (meaningful when solver = los).
  boltzmann::LosOptions los_options() const;

  /// The schedule issue order named by `order`.
  parallel::IssueOrder issue_order() const;

  /// Serialize as key = value text covering every key in table order;
  /// parse(to_params_text()) reproduces this config exactly.
  std::string to_params_text() const;

  friend bool operator==(const RunConfig&, const RunConfig&) = default;
};

/// Result of parsing a key-value map: the config plus every key the
/// table does not know (in sorted order).  Unknown keys are diagnostics,
/// not errors — the caller decides whether to warn or refuse.
struct ConfigParse {
  RunConfig config;
  std::vector<std::string> unknown_keys;
};

/// Build a RunConfig from parsed key = value text.  The `preset` key is
/// applied first (it rebases the cosmology surface), then every other
/// recognized key in table order.  Throws InvalidArgument on values of
/// the wrong type or outside an enum (range checks live in validate(),
/// which this calls last).
ConfigParse parse_config(const io::KeyValueMap& kv);

/// One row of the canonical key table.
struct ConfigKey {
  const char* key;
  const char* dflt;     ///< default, as rendered in the docs
  const char* meaning;  ///< one-line docs description
};

/// The canonical key table, in documentation order.  Drives the parser,
/// the serializer, and the generated docs reference.
std::span<const ConfigKey> config_keys();

/// The docs/operations.md parameter-reference table, generated from
/// config_keys(); a ctest check keeps the committed docs identical to
/// this output.
std::string config_reference_markdown();

/// Did-you-mean helper for unknown-key diagnostics: the table key
/// closest to `unknown` in edit distance, or "" when nothing is close
/// enough to suggest.  linger_cli uses this to turn "unrecognized key
/// 'sover'" into an actionable warning.
std::string config_key_suggestion(const std::string& unknown);

}  // namespace plinger::run
