// RunConfig: parse / validate / serialize invariants.
//
// The run layer's contract is that the key table is the single source of
// truth — the parser, the serializer, and the generated docs reference
// all read it.  These tests pin the table-driven behavior: exact
// round-trips, unknown-key diagnostics, per-key range rejection, preset
// rebasing, and bitwise agreement of the materialized cosmology with
// both the named presets and the legacy closure expression.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "boltzmann/equations.hpp"
#include "common/error.hpp"
#include "cosmo/nu_density.hpp"
#include "cosmo/params.hpp"
#include "io/params.hpp"
#include "run/config.hpp"
#include "run/context.hpp"

using namespace plinger;

namespace {

run::RunConfig parse_text(const std::string& text,
                          std::vector<std::string>* unknown = nullptr) {
  std::istringstream is(text);
  const auto parsed = run::parse_config(io::parse_params(is));
  if (unknown) *unknown = parsed.unknown_keys;
  return parsed.config;
}

}  // namespace

TEST(RunConfig, DefaultsMatchHistoricalLingerCli) {
  const run::RunConfig cfg;
  EXPECT_EQ(cfg.preset, "scdm");
  EXPECT_EQ(cfg.h, 0.5);
  EXPECT_EQ(cfg.omega_b, 0.05);
  EXPECT_EQ(cfg.grid, "log");
  EXPECT_EQ(cfg.k_min, 1e-4);
  EXPECT_EQ(cfg.k_max, 0.1);
  EXPECT_EQ(cfg.n_k, 32u);
  EXPECT_EQ(cfg.rtol, 1e-5);
  EXPECT_EQ(cfg.driver, "threads");
  EXPECT_EQ(cfg.workers, 2);
  EXPECT_TRUE(cfg.store.empty());
  EXPECT_NO_THROW(cfg.validate());
}

TEST(RunConfig, EmptyInputYieldsDefaults) {
  std::vector<std::string> unknown;
  const run::RunConfig cfg = parse_text("", &unknown);
  EXPECT_EQ(cfg, run::RunConfig{});
  EXPECT_TRUE(unknown.empty());
}

TEST(RunConfig, SerializeParseRoundTripIsExact) {
  run::RunConfig cfg;
  cfg.set_preset("lcdm");
  cfg.h = 0.6774;                      // not representable exactly
  cfg.omega_b = 0.0486;
  cfg.n_s = 0.9667;
  cfg.z_reion = 11.357;
  cfg.grid = "cl";
  cfg.l_max = 700;
  cfg.points_per_osc = 2.0;
  cfg.k_margin = 1.3;
  cfg.order = "random";
  cfg.ic = "isocurvature";
  cfg.rtol = 3.3e-6;
  cfg.lmax_photon = 96;
  cfg.lmax_polarization = 24;
  cfg.lmax_neutrino = 20;
  cfg.tau_end = 1234.5678901234567;
  cfg.lmax_cap = 600;
  cfg.driver = "serial";
  cfg.workers = 7;
  cfg.store = "sweep.bin";
  cfg.flush_interval = 4;
  cfg.stop_after = 3;
  cfg.trace = true;
  cfg.trace_json = "t.json";
  cfg.fault_timeout = 0.25;
  cfg.max_retries = 5;

  std::vector<std::string> unknown;
  const run::RunConfig back = parse_text(cfg.to_params_text(), &unknown);
  EXPECT_TRUE(unknown.empty());
  EXPECT_EQ(back, cfg);  // bitwise: doubles printed with max_digits10
}

TEST(RunConfig, EveryTableKeyAppearsInSerialization) {
  const std::string text = run::RunConfig{}.to_params_text();
  for (const auto& key : run::config_keys()) {
    EXPECT_NE(text.find(std::string(key.key) + " = "), std::string::npos)
        << "key missing from to_params_text(): " << key.key;
  }
}

TEST(RunConfig, UnknownKeysAreCollectedNotFatal) {
  std::vector<std::string> unknown;
  const run::RunConfig cfg = parse_text(
      "omega_B = 0.05\nh = 0.7\nworker = 4\n", &unknown);
  EXPECT_EQ(cfg.h, 0.7);
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "omega_B");  // sorted
  EXPECT_EQ(unknown[1], "worker");
}

TEST(RunConfig, SolverKeysDefaultToHierarchy) {
  const run::RunConfig cfg;
  EXPECT_EQ(cfg.solver, "hierarchy");
  EXPECT_EQ(cfg.los_accuracy, "standard");
  EXPECT_EQ(cfg.tca_eps, 8e-3);  // the PerturbationConfig default, exactly
  EXPECT_EQ(cfg.los_options(), boltzmann::LosOptions{});
}

TEST(RunConfig, IntegratorDefaultsToAutoAndRoundTrips) {
  const run::RunConfig cfg;
  EXPECT_EQ(cfg.integrator, "auto");
  const auto keys = run::config_keys();
  const auto row = std::find_if(keys.begin(), keys.end(), [](const auto& k) {
    return std::string(k.key) == "integrator";
  });
  ASSERT_NE(row, keys.end());
  EXPECT_EQ(std::string(row->dflt), "auto");
  EXPECT_NE(cfg.to_params_text().find("integrator = auto\n"),
            std::string::npos);
  for (const char* value : {"auto", "dverk", "dop853"}) {
    run::RunConfig c;
    c.integrator = value;
    std::vector<std::string> unknown;
    EXPECT_EQ(parse_text(c.to_params_text(), &unknown), c) << value;
    EXPECT_TRUE(unknown.empty());
  }
}

TEST(RunConfig, AutoIntegratorResolvesAgainstTheSolver) {
  // Unset, the hierarchy keeps the paper's DVERK and the line-of-sight
  // solvers take DOP853; an explicit core wins under every solver.
  const auto resolved = [](const char* solver, const char* integrator) {
    run::RunConfig cfg;
    cfg.solver = solver;
    cfg.los_accuracy = "draft";
    cfg.lmax_polarization = 12;  // fits draft's short hierarchy
    if (integrator != nullptr) cfg.integrator = integrator;
    cfg.validate();
    return cfg.perturbation().integrator;
  };
  using boltzmann::IntegratorKind;
  EXPECT_EQ(resolved("hierarchy", nullptr), IntegratorKind::dverk);
  EXPECT_EQ(resolved("los", nullptr), IntegratorKind::dop853);
  EXPECT_EQ(resolved("auto", nullptr), IntegratorKind::dop853);
  for (const char* solver : {"hierarchy", "los", "auto"}) {
    SCOPED_TRACE(solver);
    EXPECT_EQ(resolved(solver, "dverk"), IntegratorKind::dverk);
    EXPECT_EQ(resolved(solver, "dop853"), IntegratorKind::dop853);
  }
}

TEST(RunConfig, SolverKeysRoundTripExactly) {
  run::RunConfig cfg;
  cfg.solver = "los";
  cfg.los_accuracy = "draft";
  cfg.lmax_polarization = 12;  // must fit draft's 24-moment hierarchy
  cfg.tca_eps = 0.0123456789012345;
  std::vector<std::string> unknown;
  const run::RunConfig back = parse_text(cfg.to_params_text(), &unknown);
  EXPECT_TRUE(unknown.empty());
  EXPECT_EQ(back, cfg);
  EXPECT_EQ(back.los_options(),
            boltzmann::los_options_for_accuracy("draft"));
}

TEST(RunConfig, SolverTyposGetDidYouMeanDiagnostic) {
  try {
    parse_text("solver = hierachy\n");
    FAIL() << "typo accepted";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("solver"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'hierarchy'?"), std::string::npos)
        << msg;
  }
  try {
    parse_text("solver = lso\n");
    FAIL() << "typo accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'los'?"),
              std::string::npos)
        << e.what();
  }
  try {
    parse_text("solver = los\nlos_accuracy = standart\n");
    FAIL() << "typo accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'standard'?"),
              std::string::npos)
        << e.what();
  }
  // A value nowhere near any choice gets the plain list, no bogus guess.
  try {
    parse_text("solver = quadrature\n");
    FAIL() << "unknown value accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"),
              std::string::npos)
        << e.what();
  }
}

TEST(RunConfig, UnknownKeySuggestionFindsNearbyTableKeys) {
  EXPECT_EQ(run::config_key_suggestion("slover"), "solver");
  EXPECT_EQ(run::config_key_suggestion("worker"), "workers");
  EXPECT_EQ(run::config_key_suggestion("los_acuracy"), "los_accuracy");
  EXPECT_EQ(run::config_key_suggestion("tca_esp"), "tca_eps");
  // Far-off strings must not produce a misleading suggestion.
  EXPECT_EQ(run::config_key_suggestion("frobnicate"), "");
  EXPECT_EQ(run::config_key_suggestion("q"), "");
}

TEST(RunConfig, SolverValidationRejectsBadCombinations) {
  EXPECT_THROW(parse_text("tca_eps = 0\n"), InvalidArgument);
  EXPECT_THROW(parse_text("tca_eps = 0.5\n"), InvalidArgument);
  // draft evolves l <= 24; a 30-moment polarization tower cannot ride
  // a 24-moment photon hierarchy.
  EXPECT_THROW(parse_text("solver = los\nlos_accuracy = draft\n"
                          "lmax_polarization = 30\n"),
               InvalidArgument);
  EXPECT_NO_THROW(parse_text("solver = los\nlos_accuracy = draft\n"
                             "lmax_polarization = 12\n"));
  // The same towers are fine under the full hierarchy.
  EXPECT_NO_THROW(parse_text("lmax_polarization = 30\n"));
}

TEST(RunConfig, MalformedValuesThrowNamingTheKey) {
  try {
    parse_text("h = fast\n");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("h"), std::string::npos);
  }
  EXPECT_THROW(parse_text("n_k = 3.5\n"), InvalidArgument);
  EXPECT_THROW(parse_text("n_k = -2\n"), InvalidArgument);
  EXPECT_THROW(parse_text("h = 0.5 extra\n"), InvalidArgument);
  EXPECT_THROW(parse_text("grid = spiral\n"), InvalidArgument);
  EXPECT_THROW(parse_text("driver = mpi\n"), InvalidArgument);
  EXPECT_THROW(parse_text("preset = einstein-de-sitter\n"),
               InvalidArgument);
}

TEST(RunConfig, ValidateRejectsOutOfRangeValues) {
  EXPECT_THROW(parse_text("rtol = 0\n"), InvalidArgument);
  EXPECT_THROW(parse_text("rtol = 0.5\n"), InvalidArgument);
  EXPECT_THROW(parse_text("k_min = 0\n"), InvalidArgument);
  EXPECT_THROW(parse_text("k_min = 0.2\n"), InvalidArgument);  // > k_max
  EXPECT_THROW(parse_text("n_k = 1\n"), InvalidArgument);
  EXPECT_THROW(parse_text("z_reion = -1\n"), InvalidArgument);
  EXPECT_THROW(parse_text("lmax_photon = 2\n"), InvalidArgument);
  EXPECT_THROW(parse_text("lmax_polarization = 200\n"),
               InvalidArgument);  // > lmax_photon
  EXPECT_THROW(parse_text("workers = 0\n"), InvalidArgument);
  EXPECT_THROW(parse_text("grid = cl\nl_max = 1\n"), InvalidArgument);
  // Closure with no room for omega_c is a validate()-time error too.
  EXPECT_THROW(parse_text("omega_b = 0.9\nomega_lambda = 0.2\n"),
               InvalidArgument);
  // A massive species with no density would vanish from the background.
  EXPECT_THROW(parse_text("n_massive_nu = 1\n"), InvalidArgument);
  EXPECT_THROW(parse_text("preset = mdm\nomega_nu = 0\n"), InvalidArgument);
  // A negative species count is refused naming the key.
  try {
    parse_text("n_massive_nu = -1\n");
    ADD_FAILURE() << "n_massive_nu = -1 accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("n_massive_nu"), std::string::npos)
        << e.what();
  }
}

TEST(RunConfig, PresetKeyRebasesTheCosmologySurface) {
  const run::RunConfig cfg = parse_text("preset = lcdm\n");
  const cosmo::CosmoParams lcdm = cosmo::CosmoParams::lambda_cdm();
  EXPECT_EQ(cfg.h, lcdm.h);
  EXPECT_EQ(cfg.omega_b, lcdm.omega_b);
  EXPECT_EQ(cfg.omega_lambda, lcdm.omega_lambda);
  // The preset applies before other keys regardless of file order, so a
  // per-key override survives even when it lexically precedes `preset`.
  const run::RunConfig mixed = parse_text("h = 0.7\npreset = lcdm\n");
  EXPECT_EQ(mixed.h, 0.7);
  EXPECT_EQ(mixed.omega_b, lcdm.omega_b);
}

TEST(RunConfig, SetPresetMatchesParserAndRejectsUnknown) {
  run::RunConfig via_parse = parse_text("preset = mdm\n");
  run::RunConfig via_call;
  via_call.set_preset("mdm");
  EXPECT_EQ(via_call, via_parse);
  EXPECT_THROW(via_call.set_preset("open_cdm"), InvalidArgument);
}

TEST(RunConfig, CosmologyReproducesPresetsBitwise) {
  for (const char* name : {"scdm", "lcdm", "mdm"}) {
    run::RunConfig cfg;
    cfg.set_preset(name);
    const cosmo::CosmoParams p = cfg.cosmology();
    cosmo::CosmoParams want = cosmo::CosmoParams::standard_cdm();
    if (std::string(name) == "lcdm") {
      want = cosmo::CosmoParams::lambda_cdm();
    } else if (std::string(name) == "mdm") {
      want = cosmo::CosmoParams::mixed_dark_matter();
    }
    EXPECT_EQ(p.h, want.h) << name;
    EXPECT_EQ(p.omega_c, want.omega_c) << name;  // bitwise, no re-derivation
    EXPECT_EQ(p.omega_b, want.omega_b) << name;
    EXPECT_EQ(p.omega_lambda, want.omega_lambda) << name;
    EXPECT_EQ(p.omega_nu, want.omega_nu) << name;
    EXPECT_EQ(p.n_massive_nu, want.n_massive_nu) << name;
  }
}

TEST(RunConfig, CosmologyClosureMatchesLegacyExpressionBitwise) {
  // The pre-RunConfig entry points closed the universe with
  //   omega_c = 1 - omega_b - omega_lambda - omega_gamma - omega_nu_massless
  // (no massive-neutrino term; omega_nu was always zero there).
  // close_universe() subtracts omega_nu too — with omega_nu = 0.0 the
  // extra subtraction is exact in IEEE arithmetic, so the derived
  // omega_c must be bit-identical: journals hashed under the legacy
  // closure still resume.
  run::RunConfig cfg;
  cfg.h = 0.65;
  cfg.omega_b = 0.0461;
  cfg.omega_lambda = 0.6889;
  const cosmo::CosmoParams p = cfg.cosmology();

  cosmo::CosmoParams legacy = cosmo::CosmoParams::standard_cdm();
  legacy.h = cfg.h;
  legacy.omega_b = cfg.omega_b;
  legacy.omega_lambda = cfg.omega_lambda;
  legacy.omega_c = 1.0 - legacy.omega_b - legacy.omega_lambda -
                   legacy.omega_gamma() - legacy.omega_nu_massless();
  EXPECT_EQ(p.omega_c, legacy.omega_c);
}

TEST(RunConfig, CloseUniverseRejectsOverfullBudget) {
  cosmo::CosmoParams p = cosmo::CosmoParams::standard_cdm();
  p.omega_b = 0.7;
  p.omega_lambda = 0.5;
  EXPECT_THROW(p.close_universe(), InvalidArgument);
}

TEST(RunConfig, PerturbationMaterializationSetsMassiveNuQuadrature) {
  // The momentum grid is not a setting but the background's: a mode of
  // an mdm run carries every node of it, a mode of an scdm run none.
  run::RunConfig cfg;
  EXPECT_EQ(cfg.perturbation().rtol, cfg.rtol);
  for (const char* name : {"scdm", "mdm"}) {
    cfg.set_preset(name);
    const auto ctx = run::make_context(cfg);
    const boltzmann::ModeEquations eq(ctx->background(),
                                      ctx->recombination(),
                                      cfg.perturbation(), 0.01);
    EXPECT_EQ(eq.layout().n_q(),
              cfg.n_massive_nu > 0 ? cosmo::NuDensity::kQNodes : 0u)
        << name;
  }
}

TEST(RunConfig, ReferenceMarkdownCoversEveryKey) {
  const std::string md = run::config_reference_markdown();
  for (const auto& key : run::config_keys()) {
    EXPECT_NE(md.find(std::string("`") + key.key + "`"),
              std::string::npos)
        << "key missing from reference table: " << key.key;
  }
}

// docs/operations.md embeds the generated reference between marker
// comments; this keeps the committed table identical to the code's.
TEST(RunConfig, OperationsDocMatchesGeneratedReference) {
  const std::string path =
      std::string(PLINGER_REPO_ROOT) + "/docs/operations.md";
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open()) << path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string doc = ss.str();
  const std::string begin = "<!-- BEGIN GENERATED: run-config-keys -->\n";
  const std::string end = "<!-- END GENERATED: run-config-keys -->";
  const auto b = doc.find(begin);
  const auto e = doc.find(end);
  ASSERT_NE(b, std::string::npos) << "missing begin marker";
  ASSERT_NE(e, std::string::npos) << "missing end marker";
  const std::string embedded = doc.substr(b + begin.size(),
                                          e - b - begin.size());
  EXPECT_EQ(embedded, run::config_reference_markdown())
      << "docs/operations.md is stale: regenerate the table between the "
         "run-config-keys markers from run::config_reference_markdown()";
}
