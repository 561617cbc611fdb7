// Seeded mutation test over the two parsers of untrusted key = value
// text: serve::parse_request (a daemon RUN body) and io::parse_params
// (ini files, and the lexical layer under every RUN body).  Valid bodies
// are damaged four ways: seeded bytes flipped, the text cut short, one
// of '=', '#', CR or NUL inserted, and a numeric value swapped for nan,
// inf or 1e308.  Every case must end in a typed refusal or a valid
// parse: nothing escapes parse_request, which answers either an ERR or a
// config whose doubles are all finite and whose to_params_text()
// re-parses equal; parse_params throws only InvalidArgument.

#include <cctype>
#include <cmath>
#include <cstddef>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "io/params.hpp"
#include "run/config.hpp"
#include "serve/request.hpp"

namespace sv = plinger::serve;
namespace rn = plinger::run;

namespace {

/// Valid RUN bodies covering every grid and solver family.
const std::vector<std::string>& seeds() {
  static const std::vector<std::string> bodies = {
      "preset = lcdm\nn_k = 8\nk_min = 1e-4\nk_max = 0.04\nrtol = 1e-5\n"
      "lmax_photon = 24\nlmax_polarization = 8\nlmax_neutrino = 8\n"
      "driver = autotask\nworkers = 2\nz_reion = 8\n",
      "grid = cl\nl_max = 120\npoints_per_osc = 2.5\nk_margin = 1.25\n"
      "solver = los\nlos_accuracy = draft\nlmax_polarization = 12\n"
      "tau_end = 0\nlmax_cap = 600\nfault_timeout = 1.5\n",
      "preset = mdm  # comment\ngrid = linear\nk_min = 0.002\n"
      "k_max = 0.02\nn_k = 6\ntau_end = 600\nlmax_cap = 24\n"
      "integrator = dop853\nsolver = auto\nmax_retries = 3\norder = "
      "natural\nh = 0.55\nomega_b = 0.06\nn_s = 0.97\n"};
  return bodies;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// Every double of the config, for the finiteness oracle.
std::vector<double> doubles_of(const rn::RunConfig& c) {
  return {c.h,        c.omega_b, c.omega_lambda,   c.omega_nu,
          c.n_eff_massless, c.t_cmb, c.y_helium,    c.n_s,
          c.z_reion,  c.k_min,   c.k_max,          c.points_per_osc,
          c.k_margin, c.rtol,    c.tau_end,        c.lmax_cap,
          c.tca_eps,  c.fault_timeout};
}

/// One damaged body, by kind: 0 flip bytes, 1 truncate, 2 insert a
/// structural byte, 3 swap a numeric value for a non-finite or huge one.
std::string mutate(const std::string& body, int kind, std::mt19937& rng) {
  std::string s = body;
  const auto at = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  switch (kind) {
    case 0: {
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < flips; ++i) {
        s[at(s.size())] ^= static_cast<char>(1 + rng() % 255);
      }
      break;
    }
    case 1:
      s.resize(at(s.size()));
      break;
    case 2: {
      static const char kBytes[] = {'=', '#', '\r', '\0'};
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(at(s.size() + 1)),
               kBytes[rng() % 4]);
      break;
    }
    default: {
      // The value after the n-th '=' whose first byte is a digit.
      std::vector<std::size_t> starts;
      for (std::size_t i = 0; i + 2 < s.size(); ++i) {
        if (s[i] == '=' &&
            std::isdigit(static_cast<unsigned char>(s[i + 2])) != 0) {
          starts.push_back(i + 2);
        }
      }
      static const char* kValues[] = {"nan", "inf", "-inf", "1e308",
                                      "NaN", "+inf", "-1e308"};
      const std::size_t b = starts[at(starts.size())];
      std::size_t e = b;
      while (e < s.size() && s[e] != '\n' && s[e] != ' ') ++e;
      s.replace(b, e - b, kValues[rng() % 7]);
      break;
    }
  }
  return s;
}

/// The parse_request oracle for one body.
void expect_err_or_finite_round_trip(const std::string& body) {
  sv::RequestParse p;
  try {
    p = sv::parse_request("RUN", split_lines(body));
  } catch (const std::exception& e) {
    ADD_FAILURE() << "escaped parse_request: " << e.what() << "\nbody:\n"
                  << body;
    return;
  }
  if (!p.error.empty()) return;
  for (const double v : doubles_of(p.request.config)) {
    ASSERT_TRUE(std::isfinite(v)) << "accepted non-finite value\nbody:\n"
                                  << body;
  }
  std::istringstream text(p.request.config.to_params_text());
  const rn::ConfigParse again =
      rn::parse_config(plinger::io::parse_params(text));
  EXPECT_TRUE(again.unknown_keys.empty());
  EXPECT_EQ(again.config, p.request.config) << "body:\n" << body;
}

}  // namespace

TEST(RequestMutation, SeedsParseAndRoundTrip) {
  for (const std::string& body : seeds()) {
    const sv::RequestParse p = sv::parse_request("RUN", split_lines(body));
    EXPECT_EQ(p.error, "") << body;
    expect_err_or_finite_round_trip(body);
  }
}

TEST(RequestMutation, DamagedBodiesAreRefusedOrParseFinite) {
  std::mt19937 rng(20260418u);
  for (const std::string& seed : seeds()) {
    for (int kind = 0; kind < 4; ++kind) {
      for (int i = 0; i < 250; ++i) {
        expect_err_or_finite_round_trip(mutate(seed, kind, rng));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(RequestMutation, ParseParamsThrowsOnlyInvalidArgument) {
  std::mt19937 rng(7u);
  for (const std::string& seed : seeds()) {
    for (int kind = 0; kind < 4; ++kind) {
      for (int i = 0; i < 250; ++i) {
        const std::string text = mutate(seed, kind, rng);
        std::istringstream is(text);
        try {
          (void)plinger::io::parse_params(is);
        } catch (const plinger::InvalidArgument&) {
          // A typed refusal (an assignment with an empty key).
        } catch (const std::exception& e) {
          ADD_FAILURE() << "parse_params threw " << e.what() << "\ntext:\n"
                        << text;
        }
      }
    }
  }
}

TEST(RequestMutation, NonFiniteAndUncastableValuesAreRefused) {
  // Minimised from the mutation runs: each of these used to be accepted
  // (a log grid skips the cl-grid range checks, and the other keys had
  // no upper bound), leaving a nan/inf in the config or an lmax_cap
  // whose size_t cast in the drivers is undefined.
  for (const char* line :
       {"points_per_osc = nan", "k_margin = inf", "k_max = inf",
        "tau_end = inf", "lmax_cap = inf", "lmax_cap = 1e308",
        "z_reion = inf", "fault_timeout = inf"}) {
    const sv::RequestParse p = sv::parse_request("RUN", {line});
    EXPECT_NE(p.error, "") << line;
  }
  // The bound itself is castable and parses.
  EXPECT_EQ(sv::parse_request("RUN", {"lmax_cap = 1e15"}).error, "");
}
