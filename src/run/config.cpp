#include "run/config.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/suggest.hpp"

namespace plinger::run {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_size(std::size_t v) { return std::to_string(v); }

double parse_double(const char* key, const std::string& s) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  PLINGER_REQUIRE(!s.empty() && used == s.size(),
                  std::string(key) + ": not a number: '" + s + "'");
  // nan and inf parse, but no key means them; casts downstream would be
  // undefined behaviour.
  PLINGER_REQUIRE(std::isfinite(v),
                  std::string(key) + ": not a finite number: '" + s + "'");
  return v;
}

std::size_t parse_size(const char* key, const std::string& s) {
  const double v = parse_double(key, s);
  PLINGER_REQUIRE(v >= 0.0 && std::floor(v) == v && v <= 1e15,
                  std::string(key) + ": not a non-negative integer: '" +
                      s + "'");
  return static_cast<std::size_t>(v);
}

int parse_int(const char* key, const std::string& s) {
  const double v = parse_double(key, s);
  PLINGER_REQUIRE(std::floor(v) == v && std::abs(v) <= 1e9,
                  std::string(key) + ": not an integer: '" + s + "'");
  return static_cast<int>(v);
}

bool parse_bool(const char* key, const std::string& s) {
  return parse_double(key, s) != 0.0;  // the historical 0/1 convention
}

void require_choice(const char* key, const std::string& v,
                    std::initializer_list<const char*> allowed) {
  for (const char* a : allowed) {
    if (v == a) return;
  }
  std::ostringstream os;
  os << key << ": '" << v << "' is not one of {";
  bool first = true;
  for (const char* a : allowed) {
    os << (first ? "" : ", ") << a;
    first = false;
  }
  os << "}";
  const std::string suggestion = common::closest_within_two(
      v, std::vector<std::string>(allowed.begin(), allowed.end()));
  if (!suggestion.empty()) {
    os << "; did you mean '" << suggestion << "'?";
  }
  throw InvalidArgument(os.str());
}

void apply_preset(RunConfig& c, const char* key, const std::string& v) {
  require_choice(key, v, {"scdm", "lcdm", "mdm"});
  c.set_preset(v);
}

using Getter = std::string (*)(const RunConfig&);
using Setter = void (*)(RunConfig&, const char* key, const std::string&);

struct KeyImpl {
  ConfigKey doc;
  Getter get;
  Setter set;
};

#define PLINGER_KEY_DOUBLE(key, field, dflt, meaning)                   \
  KeyImpl{{key, dflt, meaning},                                         \
          [](const RunConfig& c) { return fmt_double(c.field); },       \
          [](RunConfig& c, const char* k, const std::string& v) {       \
            c.field = parse_double(k, v);                               \
          }}
#define PLINGER_KEY_SIZE(key, field, dflt, meaning)                     \
  KeyImpl{{key, dflt, meaning},                                         \
          [](const RunConfig& c) { return fmt_size(c.field); },         \
          [](RunConfig& c, const char* k, const std::string& v) {       \
            c.field = parse_size(k, v);                                 \
          }}
#define PLINGER_KEY_INT(key, field, dflt, meaning)                      \
  KeyImpl{{key, dflt, meaning},                                         \
          [](const RunConfig& c) { return std::to_string(c.field); },   \
          [](RunConfig& c, const char* k, const std::string& v) {       \
            c.field = parse_int(k, v);                                  \
          }}
#define PLINGER_KEY_BOOL(key, field, dflt, meaning)                     \
  KeyImpl{{key, dflt, meaning},                                         \
          [](const RunConfig& c) {                                      \
            return std::string(c.field ? "1" : "0");                    \
          },                                                            \
          [](RunConfig& c, const char* k, const std::string& v) {       \
            c.field = parse_bool(k, v);                                 \
          }}
#define PLINGER_KEY_STRING(key, field, dflt, meaning)                   \
  KeyImpl{{key, dflt, meaning},                                         \
          [](const RunConfig& c) { return c.field; },                   \
          [](RunConfig& c, const char*, const std::string& v) {         \
            c.field = v;                                                \
          }}
#define PLINGER_KEY_CHOICE(key, field, dflt, meaning, ...)              \
  KeyImpl{{key, dflt, meaning},                                         \
          [](const RunConfig& c) { return c.field; },                   \
          [](RunConfig& c, const char* k, const std::string& v) {       \
            require_choice(k, v, {__VA_ARGS__});                        \
            c.field = v;                                                \
          }}

const KeyImpl kKeys[] = {
    // --- cosmology ---
    KeyImpl{{"preset", "scdm",
             "cosmology base: scdm / lcdm / mdm (applied before the "
             "per-parameter keys below)"},
            [](const RunConfig& c) { return c.preset; },
            apply_preset},
    PLINGER_KEY_DOUBLE("h", h, "0.5", "Hubble parameter H0/(100 km/s/Mpc)"),
    PLINGER_KEY_DOUBLE("omega_b", omega_b, "0.05",
                       "baryon density (omega_c is derived to close the "
                       "universe)"),
    PLINGER_KEY_DOUBLE("omega_lambda", omega_lambda, "0",
                       "cosmological constant"),
    PLINGER_KEY_DOUBLE("omega_nu", omega_nu, "0",
                       "massive-neutrino density"),
    PLINGER_KEY_INT("n_massive_nu", n_massive_nu, "0",
                    "number of degenerate massive neutrino species"),
    PLINGER_KEY_DOUBLE("n_eff_massless", n_eff_massless, "3",
                       "number of massless neutrino species"),
    PLINGER_KEY_DOUBLE("t_cmb", t_cmb, "2.726", "CMB temperature [K]"),
    PLINGER_KEY_DOUBLE("y_helium", y_helium, "0.24",
                       "primordial helium mass fraction"),
    PLINGER_KEY_DOUBLE("n_s", n_s, "1.0", "primordial spectral index"),
    PLINGER_KEY_DOUBLE("z_reion", z_reion, "0",
                       "optional tanh reionization redshift (0 = off)"),
    // --- k-grid ---
    PLINGER_KEY_CHOICE("grid", grid, "log",
                       "k-grid kind: log / linear (k_min..k_max, n_k "
                       "points) or cl (the C_l grid, derived from l_max "
                       "and the conformal age)",
                       "log", "linear", "cl"),
    PLINGER_KEY_DOUBLE("k_min", k_min, "1e-4",
                       "k-grid lower bound [1/Mpc] (log/linear grids)"),
    PLINGER_KEY_DOUBLE("k_max", k_max, "0.1",
                       "k-grid upper bound [1/Mpc] (log/linear grids)"),
    PLINGER_KEY_SIZE("n_k", n_k, "32",
                     "number of wavenumbers (log/linear grids)"),
    PLINGER_KEY_SIZE("l_max", l_max, "300",
                     "target multipole of the cl grid (and of the C_l "
                     "product stage)"),
    PLINGER_KEY_DOUBLE("points_per_osc", points_per_osc, "2.5",
                       "cl grid: k samples per Theta_l oscillation"),
    PLINGER_KEY_DOUBLE("k_margin", k_margin, "1.25",
                       "cl grid: k_max = k_margin * l_max / tau0"),
    PLINGER_KEY_CHOICE("order", order, "largest",
                       "issue order: largest (the paper's "
                       "largest-k-first) / natural / random",
                       "largest", "natural", "random"),
    // --- integration ---
    PLINGER_KEY_CHOICE("ic", ic, "adiabatic",
                       "initial conditions: adiabatic / isocurvature",
                       "adiabatic", "isocurvature"),
    PLINGER_KEY_CHOICE("integrator", integrator, "auto",
                       "ODE core: auto (dverk under solver = hierarchy, "
                       "dop853 under los and auto) / dverk (the paper's "
                       "Verner 6(5)) / dop853 (Dormand-Prince 8(5,3); "
                       "its dense output answers the LOS source times "
                       "inside accepted steps)",
                       "auto", "dverk", "dop853"),
    PLINGER_KEY_DOUBLE("rtol", rtol, "1e-5",
                       "integrator relative tolerance"),
    PLINGER_KEY_SIZE("lmax_photon", lmax_photon, "128",
                     "sizes no tower (each mode's photon tower is "
                     "lmax_photon_for_k under lmax_cap, or the LOS short "
                     "tower); only enters the store identity and bounds "
                     "lmax_polarization"),
    PLINGER_KEY_SIZE("lmax_polarization", lmax_polarization, "32",
                     "photon polarization hierarchy size"),
    PLINGER_KEY_SIZE("lmax_neutrino", lmax_neutrino, "32",
                     "massless neutrino hierarchy size"),
    PLINGER_KEY_DOUBLE("tau_end", tau_end, "0",
                       "end of evolution [Mpc]; 0 = the conformal age"),
    PLINGER_KEY_DOUBLE("lmax_cap", lmax_cap, "12000",
                       "cap on the k-dependent photon hierarchy"),
    // --- solver ---
    PLINGER_KEY_CHOICE("solver", solver, "hierarchy",
                       "hierarchy (full Boltzmann tower, the golden "
                       "reference) / los (short hierarchy + line-of-"
                       "sight projection; held to the hierarchy by the "
                       "ctest accuracy gate) / auto (the same run as "
                       "los)",
                       "hierarchy", "los", "auto"),
    PLINGER_KEY_CHOICE("los_accuracy", los_accuracy, "standard",
                       "LOS sampling tier: draft / standard / high "
                       "(sets lmax_evolve and the source sample "
                       "counts; solver = los only)",
                       "draft", "standard", "high"),
    PLINGER_KEY_DOUBLE("tca_eps", tca_eps, "0.008",
                       "tight-coupling exit threshold (smaller = exit "
                       "earlier = slower but tighter)"),
    // --- driver ---
    PLINGER_KEY_CHOICE("driver", driver, "threads",
                       "run driver: serial (LINGER) / autotask (shared "
                       "cursor) / threads (PLINGER master+workers)",
                       "serial", "autotask", "threads"),
    PLINGER_KEY_INT("workers", workers, "2",
                    "worker ranks or threads (threads driver world size "
                    "is workers + 1)"),
    // --- transport ---
    PLINGER_KEY_CHOICE("transport", transport, "inproc",
                       "threads-driver message transport: inproc "
                       "(in-process mailboxes) / tcp (cross-process "
                       "sockets; the master listens on tcp_listen and "
                       "plinger_worker processes join it)",
                       "inproc", "tcp"),
    PLINGER_KEY_STRING("tcp_listen", tcp_listen, "*(empty)*",
                       "transport = tcp, master side: listen endpoint "
                       "host:port (port 0 = kernel-assigned)"),
    PLINGER_KEY_STRING("tcp_connect", tcp_connect, "*(empty)*",
                       "transport = tcp, worker side: the master "
                       "endpoint host:port a plinger_worker process "
                       "joins"),
    PLINGER_KEY_INT("tcp_retry", tcp_retry, "1",
                    "worker-side initial-connect attempts (1 = single "
                    "bounded connect; > 1 retries with exponential "
                    "backoff while the master comes up)"),
    PLINGER_KEY_INT("tcp_backoff_ms", tcp_backoff_ms, "250",
                    "sleep before the second connect attempt, doubling "
                    "each further retry (tcp_retry > 1 only)"),
    // --- checkpoint store ---
    PLINGER_KEY_STRING("store", store, "*(empty)*",
                       "checkpoint journal path; empty = no "
                       "checkpointing"),
    PLINGER_KEY_SIZE("flush_interval", flush_interval, "1",
                     "journal flush cadence in modes (1 = every mode, 0 "
                     "= only on close)"),
    PLINGER_KEY_SIZE("stop_after", stop_after, "0",
                     "stop issuing fresh modes after this many "
                     "checkpointed appends (0 = off; budgeted runs)"),
    // --- trace ---
    PLINGER_KEY_BOOL("trace", trace, "0",
                     "1 = record the per-mode/per-worker timeline and "
                     "print the Figure-1 report"),
    PLINGER_KEY_STRING("trace_json", trace_json, "linger_trace.json",
                       "Chrome-trace output path (with trace = 1)"),
    // --- fault tolerance ---
    PLINGER_KEY_DOUBLE("fault_timeout", fault_timeout, "0",
                       "per-mode stall deadline scale [s]; 0 disables "
                       "stall detection (death notices still work)"),
    PLINGER_KEY_INT("max_retries", max_retries, "2",
                    "integration-failure retries per mode before it is "
                    "recorded failed"),
};

#undef PLINGER_KEY_DOUBLE
#undef PLINGER_KEY_SIZE
#undef PLINGER_KEY_INT
#undef PLINGER_KEY_BOOL
#undef PLINGER_KEY_STRING
#undef PLINGER_KEY_CHOICE

constexpr std::size_t kNKeys = sizeof(kKeys) / sizeof(kKeys[0]);

// config_keys() serves ConfigKey rows only; build them once.
std::vector<ConfigKey> make_doc_rows() {
  std::vector<ConfigKey> rows;
  rows.reserve(kNKeys);
  for (const KeyImpl& k : kKeys) rows.push_back(k.doc);
  return rows;
}

}  // namespace

void RunConfig::set_preset(const std::string& name) {
  require_choice("preset", name, {"scdm", "lcdm", "mdm"});
  preset = name;
  // The surface fields of the CosmoParams preset; omega_c stays derived.
  const cosmo::CosmoParams p =
      name == "lcdm"  ? cosmo::CosmoParams::lambda_cdm()
      : name == "mdm" ? cosmo::CosmoParams::mixed_dark_matter()
                      : cosmo::CosmoParams::standard_cdm();
  h = p.h;
  omega_b = p.omega_b;
  omega_lambda = p.omega_lambda;
  omega_nu = p.omega_nu;
  n_massive_nu = p.n_massive_nu;
  n_eff_massless = p.n_eff_massless;
  t_cmb = p.t_cmb;
  y_helium = p.y_helium;
  n_s = p.n_s;
}

void RunConfig::validate() const {
  PLINGER_REQUIRE(z_reion >= 0.0, "z_reion must be >= 0");
  if (grid == "cl") {
    PLINGER_REQUIRE(l_max >= 2, "l_max must be >= 2");
    PLINGER_REQUIRE(points_per_osc >= 1.0, "points_per_osc must be >= 1");
    PLINGER_REQUIRE(k_margin > 0.0, "k_margin must be positive");
  } else {
    PLINGER_REQUIRE(k_min > 0.0, "k_min must be positive");
    PLINGER_REQUIRE(k_max > k_min, "k_max must exceed k_min");
    PLINGER_REQUIRE(n_k >= 2, "n_k must be >= 2");
  }
  PLINGER_REQUIRE(rtol > 0.0 && rtol <= 0.1,
                  "rtol out of range (0, 0.1]");
  PLINGER_REQUIRE(lmax_photon >= 4, "lmax_photon must be >= 4");
  PLINGER_REQUIRE(lmax_polarization >= 4 &&
                      lmax_polarization <= lmax_photon,
                  "lmax_polarization must be in [4, lmax_photon]");
  PLINGER_REQUIRE(lmax_neutrino >= 4, "lmax_neutrino must be >= 4");
  PLINGER_REQUIRE(tau_end >= 0.0, "tau_end must be >= 0 (0 = conformal age)");
  // Bounded like every size key, so the drivers' size_t cast is defined.
  PLINGER_REQUIRE(lmax_cap >= 12.0 && lmax_cap <= 1e15,
                  "lmax_cap must be in [12, 1e15]");
  require_choice("solver", solver, {"hierarchy", "los", "auto"});
  require_choice("los_accuracy", los_accuracy,
                 {"draft", "standard", "high"});
  require_choice("integrator", integrator, {"auto", "dverk", "dop853"});
  PLINGER_REQUIRE(tca_eps > 0.0 && tca_eps <= 0.1,
                  "tca_eps out of range (0, 0.1]");
  if (solver == "los" || solver == "auto") {
    const boltzmann::LosOptions lopts = los_options();
    boltzmann::validate_los_options(lopts);
    // The short hierarchy replaces lmax_photon per mode, so the
    // polarization tower must fit under it, not under lmax_photon.
    PLINGER_REQUIRE(lmax_polarization <= lopts.lmax_evolve,
                    "solver = los: lmax_polarization exceeds the los_"
                    "accuracy tier's lmax_evolve");
  }
  PLINGER_REQUIRE(workers >= 1, "workers must be >= 1");
  require_choice("transport", transport, {"inproc", "tcp"});
  if (transport == "tcp") {
    PLINGER_REQUIRE(driver == "threads",
                    "transport = tcp requires driver = threads (the "
                    "serial/autotask drivers have no message passing)");
    PLINGER_REQUIRE(!tcp_listen.empty() || !tcp_connect.empty(),
                    "transport = tcp needs tcp_listen (master) or "
                    "tcp_connect (worker process)");
  }
  PLINGER_REQUIRE(tcp_retry >= 1, "tcp_retry must be >= 1");
  PLINGER_REQUIRE(tcp_backoff_ms >= 0, "tcp_backoff_ms must be >= 0");
  PLINGER_REQUIRE(fault_timeout >= 0.0, "fault_timeout must be >= 0");
  PLINGER_REQUIRE(max_retries >= 0, "max_retries must be >= 0");
  // The cosmology budget: materializing throws on a closure with no
  // room for omega_c, and CosmoParams::validate range-checks the rest.
  cosmology().validate();
}

cosmo::CosmoParams RunConfig::cosmology() const {
  // An untouched preset surface returns the preset struct verbatim —
  // this preserves lambda_cdm's explicit omega_c = 0.30, where
  // re-deriving through the closure could differ in the last ulp.
  const cosmo::CosmoParams base =
      preset == "lcdm"  ? cosmo::CosmoParams::lambda_cdm()
      : preset == "mdm" ? cosmo::CosmoParams::mixed_dark_matter()
                        : cosmo::CosmoParams::standard_cdm();
  if (h == base.h && omega_b == base.omega_b &&
      omega_lambda == base.omega_lambda && omega_nu == base.omega_nu &&
      n_massive_nu == base.n_massive_nu &&
      n_eff_massless == base.n_eff_massless && t_cmb == base.t_cmb &&
      y_helium == base.y_helium && n_s == base.n_s) {
    return base;
  }
  cosmo::CosmoParams p;
  p.h = h;
  p.omega_b = omega_b;
  p.omega_lambda = omega_lambda;
  p.omega_nu = omega_nu;
  p.n_massive_nu = n_massive_nu;
  p.n_eff_massless = n_eff_massless;
  p.t_cmb = t_cmb;
  p.y_helium = y_helium;
  p.n_s = n_s;
  p.close_universe();
  return p;
}

boltzmann::PerturbationConfig RunConfig::perturbation() const {
  boltzmann::PerturbationConfig cfg;
  cfg.ic_type = ic == "isocurvature"
                    ? boltzmann::InitialConditionType::cdm_isocurvature
                    : boltzmann::InitialConditionType::adiabatic;
  // auto: the hierarchy keeps the paper's DVERK (the goldens and every
  // hierarchy identity depend on it); the LOS route samples each mode
  // at its source times, which DOP853's dense output answers without
  // clamping a step to each of them.
  const bool dop853 = integrator == "auto" ? solver != "hierarchy"
                                           : integrator == "dop853";
  cfg.integrator = dop853 ? boltzmann::IntegratorKind::dop853
                          : boltzmann::IntegratorKind::dverk;
  cfg.rtol = rtol;
  cfg.lmax_photon = lmax_photon;
  cfg.lmax_polarization = lmax_polarization;
  cfg.lmax_neutrino = lmax_neutrino;
  cfg.tca_eps = tca_eps;
  return cfg;
}

boltzmann::LosOptions RunConfig::los_options() const {
  return boltzmann::los_options_for_accuracy(los_accuracy);
}

cosmo::Recombination::Options RunConfig::recombination_options() const {
  cosmo::Recombination::Options ropts;
  ropts.z_reion = z_reion;
  return ropts;
}

parallel::IssueOrder RunConfig::issue_order() const {
  if (order == "natural") return parallel::IssueOrder::natural;
  if (order == "random") return parallel::IssueOrder::random_shuffle;
  return parallel::IssueOrder::largest_first;
}

std::string RunConfig::to_params_text() const {
  std::ostringstream os;
  for (const KeyImpl& k : kKeys) {
    os << k.doc.key << " = " << k.get(*this) << "\n";
  }
  return os.str();
}

ConfigParse parse_config(const io::KeyValueMap& kv) {
  ConfigParse out;
  for (const auto& [key, value] : kv) {
    (void)value;
    bool known = false;
    for (const KeyImpl& k : kKeys) {
      if (key == k.doc.key) {
        known = true;
        break;
      }
    }
    if (!known) out.unknown_keys.push_back(key);
  }
  // Table order, so `preset` rebases the cosmology before the
  // per-parameter overrides no matter how the file orders its lines.
  for (const KeyImpl& k : kKeys) {
    const auto it = kv.find(k.doc.key);
    if (it != kv.end()) k.set(out.config, k.doc.key, it->second);
  }
  out.config.validate();
  return out;
}

std::span<const ConfigKey> config_keys() {
  static const std::vector<ConfigKey> rows = make_doc_rows();
  return rows;
}

std::string config_key_suggestion(const std::string& unknown) {
  std::vector<std::string> names;
  names.reserve(kNKeys);
  for (const KeyImpl& k : kKeys) names.emplace_back(k.doc.key);
  return common::closest_within_two(unknown, names);
}

std::string config_reference_markdown() {
  std::ostringstream os;
  os << "| key | default | meaning |\n";
  os << "|-----|---------|---------|\n";
  for (const ConfigKey& k : config_keys()) {
    os << "| `" << k.key << "` | " << k.dflt << " | " << k.meaning
       << " |\n";
  }
  return os.str();
}

}  // namespace plinger::run
