#pragma once

/// Adaptive embedded Runge-Kutta integrators.
///
/// The paper integrates the Einstein-Boltzmann system with DVERK, Hull,
/// Enright & Jackson's implementation of Verner's 8-stage 6(5) pair
/// (obtained from netlib).  We reproduce that pair exactly
/// (VernerDverkTableau, driven by Dverk) and also provide
/// Dormand-Prince 8(5,3) with dense output (Dop853), the
/// `integrator = dop853` alternative that bench_integrator compares
/// against DVERK.
///
/// Both cores expose the same calls: integrate() over [t0, t1] with an
/// optional per-step observer, and integrate_dense(), which answers a
/// list of sample times.  They share the entry checks with the first
/// step, the per-step guard and the one stage kernel (namespace
/// detail); each keeps its own step controller and error estimate.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace plinger::math {

/// Controls for adaptive ODE integration.
struct OdeOptions {
  double rtol = 1e-6;      ///< relative tolerance per component
  double atol = 1e-12;     ///< absolute tolerance per component
  double h_init = 0.0;     ///< initial step; 0 selects (t1-t0)/100
  double h_max = 0.0;      ///< maximum |step|; 0 means unlimited
  long max_steps = 2'000'000;  ///< hard cap on accepted+rejected steps
};

/// Counters accumulated over one integrate() call.
struct OdeStats {
  long n_accepted = 0;  ///< accepted steps
  long n_rejected = 0;  ///< rejected (error too large) steps
  long n_rhs = 0;       ///< right-hand-side evaluations

  OdeStats& operator+=(const OdeStats& o) {
    n_accepted += o.n_accepted;
    n_rejected += o.n_rejected;
    n_rhs += o.n_rhs;
    return *this;
  }
};

namespace detail {

/// Entry checks of every integration call, then its first trial step
/// size: h_init if set, else a hundredth of the interval, capped at
/// h_max.
inline double first_step(double t0, double t1, const OdeOptions& opts) {
  PLINGER_REQUIRE(t1 != t0, "integration interval is empty");
  PLINGER_REQUIRE(opts.rtol > 0.0 && opts.atol >= 0.0,
                  "tolerances must be positive");
  double h = opts.h_init != 0.0 ? std::abs(opts.h_init)
                                : std::abs(t1 - t0) / 100.0;
  if (opts.h_max > 0.0) h = std::min(h, opts.h_max);
  return h;
}

/// The smallest |step| is kStepFloorUlps machine epsilons of
/// max(|t|, |t1|): below that, t + h cannot be told from t.
inline constexpr double kStepFloorUlps = 16.0;

/// Per-step guard: clamp |h| to what is left of [t, t1], stretch a step
/// that would stop short of t1 by less than the floor so that it ends
/// at t1 (as Hairer's dop853 does near xend; the sub-floor remainder it
/// would leave could not be stepped), then throw NumericalFailure if
/// |h| underflowed the floor or the step budget is spent.
inline void guard_step(double t, double t1, double& h,
                       const OdeOptions& opts, const OdeStats& stats) {
  const double h_floor = kStepFloorUlps *
                         std::numeric_limits<double>::epsilon() *
                         std::max(std::abs(t), std::abs(t1));
  const double rest = std::abs(t1 - t);
  h = rest - h < h_floor ? rest : h;
  if (h < h_floor) {
    throw NumericalFailure("ODE step size underflow at t=" +
                           std::to_string(t));
  }
  if (stats.n_accepted + stats.n_rejected >= opts.max_steps) {
    throw NumericalFailure("ODE max_steps exceeded at t=" +
                           std::to_string(t));
  }
}

/// Calls fn(std::integral_constant<int, I>{}) for I = First..Last-1 in
/// order, so that a stage loop can pass each tableau row to
/// stage_kernel as a template argument.
template <int First, int Last, class Fn>
inline void static_for(Fn&& fn) {
  [&]<int... I>(std::integer_sequence<int, I...>) {
    (fn(std::integral_constant<int, First + I>{}), ...);
  }(std::make_integer_sequence<int, Last - First>{});
}

/// The element loop of stage_kernel, one stream k per row entry M.
/// x + -0.0 is x bit for bit, signed zeros included, so -0.0 starts a
/// sum without a y term and stands in for the skipped zero entries.
template <const auto& Row, bool AddY, int... M, class... K>
inline void stage_loop(std::size_t n, double h, double* __restrict__ out,
                       const double* __restrict__ y,
                       const K* __restrict__... k) {
  for (std::size_t j = 0; j < n; ++j) {
    double acc = AddY ? y[j] : -0.0;
    ((acc += M == 0 || Row[M] != 0.0 ? h * Row[M] * k[j] : -0.0), ...);
    out[j] = acc;
  }
}

/// The one stage kernel of both cores.  For a tableau row known at
/// compile time it writes, in one element-major pass over the state,
///
///   out[j] = y[j] + c_0 k[0][j] + c_m k[m][j] + ...,   c_m = h * Row[m],
///
/// in m order over m = 0 and every later m with Row[m] != 0, a test
/// decided at compile time (rows are lower triangular, so it also drops
/// the zero tail past the stage).  y = nullptr drops the y term; h = 1
/// leaves the weights unscaled.  Each element is its own chain of IEEE
/// operations (y plus the first term, then one term at a time), so
/// vectorizing the loop cannot change a bit.
template <const auto& Row, class Y>
inline void stage_kernel(std::vector<double>& out, const Y& y, double h,
                         const std::vector<double>* k) {
  constexpr bool add_y = !std::is_null_pointer_v<Y>;
  const double* yp = nullptr;
  if constexpr (add_y) yp = y.data();
  [&]<int... M>(std::integer_sequence<int, M...>) {
    stage_loop<Row, add_y, M...>(out.size(), h, out.data(), yp,
                                 k[M].data()...);
  }(std::make_integer_sequence<int, std::size(Row)>{});
}

/// The one-term row with which stage_kernel forms y + h * sum.
inline constexpr double kUnitRow[1] = {1.0};

}  // namespace detail

/// Verner's 6(5) pair as used in DVERK (Hull, Enright & Jackson 1976).
/// 8 stages; the 6th-order weights propagate the solution, the embedded
/// 5th-order weights provide the error estimate.
struct VernerDverkTableau {
  static constexpr int stages = 8;
  static constexpr int order = 6;  ///< order of the propagated solution
  static constexpr double c[stages] = {0.0,       1.0 / 6.0, 4.0 / 15.0,
                                       2.0 / 3.0, 5.0 / 6.0, 1.0,
                                       1.0 / 15.0, 1.0};
  static constexpr double a[stages][stages] = {
      {},
      {1.0 / 6.0},
      {4.0 / 75.0, 16.0 / 75.0},
      {5.0 / 6.0, -8.0 / 3.0, 5.0 / 2.0},
      {-165.0 / 64.0, 55.0 / 6.0, -425.0 / 64.0, 85.0 / 96.0},
      {12.0 / 5.0, -8.0, 4015.0 / 612.0, -11.0 / 36.0, 88.0 / 255.0},
      {-8263.0 / 15000.0, 124.0 / 75.0, -643.0 / 680.0, -81.0 / 250.0,
       2484.0 / 10625.0, 0.0},
      {3501.0 / 1720.0, -300.0 / 43.0, 297275.0 / 52632.0, -319.0 / 2322.0,
       24068.0 / 84065.0, 0.0, 3850.0 / 26703.0},
  };
  /// 6th-order solution weights.
  static constexpr double b[stages] = {3.0 / 40.0,    0.0,
                                       875.0 / 2244.0, 23.0 / 72.0,
                                       264.0 / 1955.0, 0.0,
                                       125.0 / 11592.0, 43.0 / 616.0};
  /// Embedded 5th-order weights.
  static constexpr double bhat[stages] = {13.0 / 160.0,   0.0,
                                          2375.0 / 5984.0, 5.0 / 16.0,
                                          12.0 / 85.0,     3.0 / 44.0,
                                          0.0,             0.0};
  /// Error weights of the embedded estimate, b - bhat.
  static constexpr double e[stages] = {
      b[0] - bhat[0], b[1] - bhat[1], b[2] - bhat[2], b[3] - bhat[3],
      b[4] - bhat[4], b[5] - bhat[5], b[6] - bhat[6], b[7] - bhat[7]};
};

/// The paper's integrator: Verner 6(5) as in netlib DVERK, under a
/// standard step-doubling-free embedded-pair controller.  Each step
/// computes the 6th-order solution and the embedded 5th-order error
/// estimate; a step is accepted when the weighted RMS error is <= 1,
/// and the step size is rescaled by err^(-1/6) with a safety factor.
///
/// The right-hand side is any callable f(t, y, dydt) taking
/// (double, std::span<const double>, std::span<double>).  Workspace is
/// reused across calls, so one integrator instance per mode avoids
/// per-step allocation.
class Dverk {
 public:
  using T = VernerDverkTableau;

  Dverk() = default;

  /// Integrate y from t0 to t1 in place.  Throws NumericalFailure if the
  /// step size underflows or max_steps is exhausted.  The optional observer
  /// is called as observer(t, y) after every accepted step (and once at t0).
  template <class F, class Observer>
  OdeStats integrate(F&& f, double t0, double t1, std::vector<double>& y,
                     const OdeOptions& opts, Observer&& observer) {
    double h = detail::first_step(t0, t1, opts);
    resize_workspace(y.size());
    rtol_ = opts.rtol;
    atol_ = opts.atol;

    const double dir = (t1 > t0) ? 1.0 : -1.0;
    double t = t0;
    OdeStats stats;
    observer(t, std::span<const double>(y));

    while (dir * (t1 - t) > 0.0) {
      detail::guard_step(t, t1, h, opts, stats);
      const double err = attempt_step(f, t, dir * h, y, stats);
      if (err <= 1.0) {
        t += dir * h;
        y.swap(y_new_);
        observer(t, std::span<const double>(y));
        ++stats.n_accepted;
        h *= step_growth(err);
      } else {
        ++stats.n_rejected;
        h *= step_shrink(err);
      }
      if (opts.h_max > 0.0) h = std::min(h, opts.h_max);
    }
    return stats;
  }

  /// Overload without an observer.
  template <class F>
  OdeStats integrate(F&& f, double t0, double t1, std::vector<double>& y,
                     const OdeOptions& opts) {
    return integrate(std::forward<F>(f), t0, t1, y, opts,
                     [](double, std::span<const double>) {});
  }

  /// Sampled integration, the same call as Dop853::integrate_dense:
  /// on_sample(t, y) fires once per entry of sample_ts, in order, and
  /// sample_ts must be sorted along the integration direction.  DVERK
  /// has no continuous extension, so the steps are clamped: a fresh
  /// integrate() leg runs up to each time inside (t0, t1) and the leg's
  /// end state answers it.  Entries at or before t0 are answered from
  /// the initial state, entries at or past t1 from the final one.
  template <class F, class Sampler>
  OdeStats integrate_dense(F&& f, double t0, double t1,
                           std::vector<double>& y, const OdeOptions& opts,
                           std::span<const double> sample_ts,
                           Sampler&& on_sample) {
    detail::first_step(t0, t1, opts);  // entry checks before any sample
    const double dir = (t1 > t0) ? 1.0 : -1.0;
    OdeStats stats;
    double t = t0;
    const auto leg = [&](double t_to) {
      stats += integrate(f, t, t_to, y, opts);
      t = t_to;
    };
    std::size_t si = 0;
    for (; si < sample_ts.size() && dir * (t1 - sample_ts[si]) > 0.0; ++si) {
      if (dir * (sample_ts[si] - t) > 0.0) leg(sample_ts[si]);
      on_sample(sample_ts[si], std::span<const double>(y));
    }
    leg(t1);
    for (; si < sample_ts.size(); ++si) {
      on_sample(sample_ts[si], std::span<const double>(y));
    }
    return stats;
  }

 private:
  void resize_workspace(std::size_t n) {
    if (y_new_.size() != n) {
      y_new_.assign(n, 0.0);
      y_tmp_.assign(n, 0.0);
      d_.assign(n, 0.0);
      for (auto& k : k_) k.assign(n, 0.0);
    }
  }

  /// One trial step of size h (signed).  Fills y_new_ with the high-order
  /// solution and returns the weighted RMS error of the embedded estimate.
  template <class F>
  double attempt_step(F&& f, double t, double h, const std::vector<double>& y,
                      OdeStats& stats) {
    constexpr int s = T::stages;
    const std::size_t n = y.size();
    const double* yp = y.data();

    f(t, std::span<const double>(y), std::span<double>(k_[0]));
    detail::static_for<1, s>([&](auto i) {
      detail::stage_kernel<T::a[i]>(y_tmp_, y, h, k_);
      f(t + T::c[i] * h, std::span<const double>(y_tmp_),
        std::span<double>(k_[i]));
    });
    stats.n_rhs += s;

    // High-order solution y_new = y + h sum b[m] k[m], embedded error
    // vector d = h sum (b[m]-bhat[m]) k[m].
    detail::stage_kernel<T::b>(y_new_, y, h, k_);
    detail::stage_kernel<T::e>(d_, nullptr, h, k_);

    double err_sq = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double scale =
          atol_ + rtol_ * std::max(std::abs(yp[j]), std::abs(y_new_[j]));
      const double e = d_[j] / scale;
      err_sq += e * e;
    }
    return std::sqrt(err_sq / static_cast<double>(n));
  }

  static double step_growth(double err) {
    constexpr double safety = 0.9, max_growth = 5.0;
    if (err <= 0.0) return max_growth;
    return std::min(max_growth, safety * std::pow(err, -1.0 / T::order));
  }
  static double step_shrink(double err) {
    constexpr double safety = 0.9, min_shrink = 0.1;
    return std::max(min_shrink, safety * std::pow(err, -1.0 / T::order));
  }

  double rtol_ = 1e-6;   ///< copied from OdeOptions at integrate() entry
  double atol_ = 1e-12;  ///< copied from OdeOptions at integrate() entry
  std::vector<double> y_new_, y_tmp_, d_;
  std::vector<double> k_[T::stages];
};

/// Dormand-Prince 8(5,3) coefficients as in Hairer, Norsett & Wanner's
/// dop853 (Solving Ordinary Differential Equations I, 2nd ed.): the
/// 12-stage 8th-order pair with a combined 5th/3rd-order error
/// estimate, plus the 3 extra stages and d-weights of the 7th-order
/// continuous output.  Stage indices are 0-based: k[0..11] are the
/// trial stages, k[12] is the step-end derivative f(t+h, y1) (reused as
/// the next step's k[0]), k[13..15] are the dense-output stages.
struct Dop853Tableau {
  static constexpr int stages = 12;   ///< f-evals per trial step
  static constexpr int dense_stages = 3;
  static constexpr int order = 8;     ///< order of the propagated solution

  static constexpr double c[stages] = {
      0.0,
      0.0526001519587677318785587544488,
      0.0789002279381515978178381316732,
      0.118350341907227396726757197510,
      0.281649658092772603273242802490,
      1.0 / 3.0,
      0.25,
      0.307692307692307692307692307692,
      0.651282051282051282051282051282,
      0.6,
      6.0 / 7.0,
      1.0,
  };
  static constexpr double a[stages][stages] = {
      {},
      {5.26001519587677318785587544488e-2},
      {1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2},
      {2.95875854768068491816892993775e-2, 0.0,
       8.87627564304205475450678981324e-2},
      {2.41365134159266685502369798665e-1, 0.0,
       -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1},
      {3.7037037037037037037037037037e-2, 0.0, 0.0,
       1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1},
      {3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
       6.02165389804559606850219397283e-2, -1.7578125e-2},
      {3.70920001185047927108779319836e-2, 0.0, 0.0,
       1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
       -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3},
      {6.24110958716075717114429577812e-1, 0.0, 0.0,
       -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
       2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
       -4.34898841810699588477366255144e1},
      {4.77662536438264365890433908527e-1, 0.0, 0.0,
       -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
       2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
       -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2},
      {-9.3714243008598732571704021658e-1, 0.0, 0.0,
       5.18637242884406370830023853209, 1.09143734899672957818500254654,
       -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
       2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
       -3.0467644718982195003823669022},
      {2.27331014751653820792359768449, 0.0, 0.0,
       -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
       -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
       -2.85899827713502369474065508674, -8.87285693353062954433549289258,
       1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1},
  };
  /// 8th-order solution weights.
  static constexpr double b[stages] = {
      5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
      4.45031289275240888144113950566, 1.89151789931450038304281599044,
      -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
      -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
      4.47106157277725905176885569043e-2,
  };
  /// The 3rd-order comparison weights: err3 = sum(b k) - bhh1 k1 -
  /// bhh2 k9 - bhh3 k12 (damps the 5th-order estimate near rough
  /// solutions; Hairer's "stiffness-proof" combination).
  static constexpr double bhh1 = 0.244094488188976377952755905512;
  static constexpr double bhh2 = 0.733846688281611857341361741547;
  static constexpr double bhh3 = 0.0220588235294117647058823529412;
  /// 5th-order error weights (b - bhat, already differenced).
  static constexpr double er[stages] = {
      0.01312004499419488073250102996, 0.0, 0.0, 0.0, 0.0,
      -1.225156446376204440720569753, -0.4957589496572501915214079952,
      1.664377182454986536961530415, -0.3503288487499736816886487290,
      0.3341791187130174790297318841, 0.08192320648511571246570742613,
      -0.02235530786388629525884427845,
  };

  /// Dense-output stage nodes c14..c16 and their stage rows over
  /// k[0..15] (k13 at index 12, k14/k15 at 13/14).
  static constexpr double cd[dense_stages] = {0.1, 0.2, 7.0 / 9.0};
  static constexpr double ad[dense_stages][16] = {
      {5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
       2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
       -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
       8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
       -8.298e-3},
      {3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
       2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
       -5.49237485713909884646569340306e-2, 0.0, 0.0,
       -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
       -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1},
      {-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
       -4.69762141536116384314449447206, 7.68342119606259904184240953878,
       4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
       0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
       2.9475147891527723389556272149, -9.15095847217987001081870187138},
  };
  /// Continuous-output weights for cont4..cont7, over k[0..15].
  static constexpr double d[4][16] = {
      {-8.4289382761090128651353491142, 0.0, 0.0, 0.0, 0.0,
       0.56671495351937776962531783590, -3.0689499459498916912797304727,
       2.3846676565120698287728149680, 2.1170345824450282767155149946,
       -0.87139158377797299206789907490, 2.2404374302607882758541771650,
       0.63157877876946881815570249290, -0.088990336451333310820698117400,
       18.148505520854727256656404962, -9.1946323924783554000451984436,
       -4.4360363875948939664310572000},
      {10.427508642579134603413151009, 0.0, 0.0, 0.0, 0.0,
       242.28349177525818288430175319, 165.20045171727028198505394887,
       -374.54675472269020279518312152, -22.113666853125306036270938578,
       7.7334326684722638389603898808, -30.674084731089398182061213626,
       -9.3321305264302278729567221706, 15.697238121770843886131091075,
       -31.139403219565177677282850411, -9.3529243588444783865713862664,
       35.816841486394083752465898540},
      {19.985053242002433820987653617, 0.0, 0.0, 0.0, 0.0,
       -387.03730874935176555105901742, -189.17813819516756882830838328,
       527.80815920542364900561016686, -11.573902539959630126141871134,
       6.8812326946963000169666922661, -1.0006050966910838403183860980,
       0.77771377980534432092869265740, -2.7782057523535084065932004339,
       -60.196695231264120758267380846, 84.320405506677161018159903784,
       11.992291136182789328035130030},
      {-25.693933462703749003312586129, 0.0, 0.0, 0.0, 0.0,
       -154.18974869023643374053993627, -231.52937917604549567536039109,
       357.63911791061412378285349910, 93.405324183624310003907691704,
       -37.458323136451633156875139351, 104.09964950896230045147246184,
       29.840293426660503123344363579, -43.533456590011143754432175058,
       96.324553959188282948394950600, -39.177261675615439165231486172,
       -149.72683625798562581422125276},
  };
};

/// Dormand-Prince 8(5,3) with 7th-order dense output (Hairer's dop853).
///
/// A peer of Dverk with two structural upgrades over the paper's DVERK
/// core:
///
///  * the 8th-order pair takes far fewer RHS evaluations at tight
///    tolerances (the step-end derivative is reused as the next step's
///    first stage, so an accepted step costs 12 evals, a rejected one
///    11), with the combined 5th/3rd error estimate and Hairer's
///    stabilized step controller;
///  * integrate_dense() answers output times by evaluating the
///    continuous extension *inside* an accepted step (3 extra stages,
///    paid only for steps that actually contain a sample) instead of
///    clamping the step to land on each output time — the sampling
///    cost no longer scales with the output grid.
class Dop853 {
 public:
  using T = Dop853Tableau;
  static constexpr int order = T::order;

  Dop853() = default;

  /// Integrate y from t0 to t1 in place; same contract as
  /// Dverk::integrate (observer after every accepted step and once at
  /// t0; throws NumericalFailure on step underflow / max_steps).
  template <class F, class Observer>
  OdeStats integrate(F&& f, double t0, double t1, std::vector<double>& y,
                     const OdeOptions& opts, Observer&& observer) {
    return run(std::forward<F>(f), t0, t1, y, opts,
               std::forward<Observer>(observer), std::span<const double>{},
               [](double, std::span<const double>) {});
  }

  /// Overload without an observer.
  template <class F>
  OdeStats integrate(F&& f, double t0, double t1, std::vector<double>& y,
                     const OdeOptions& opts) {
    return integrate(std::forward<F>(f), t0, t1, y, opts,
                     [](double, std::span<const double>) {});
  }

  /// Integrate with dense-output sampling: on_sample(t, y_interp) fires
  /// once per entry of sample_ts, in order, with the 7th-order
  /// continuous extension of the accepted step containing t.  sample_ts
  /// must be sorted along the integration direction; entries at the
  /// interval endpoints are answered from the endpoint states exactly.
  /// The step size is never clamped to a sample time.
  template <class F, class Sampler>
  OdeStats integrate_dense(F&& f, double t0, double t1,
                           std::vector<double>& y, const OdeOptions& opts,
                           std::span<const double> sample_ts,
                           Sampler&& on_sample) {
    return run(std::forward<F>(f), t0, t1, y, opts,
               [](double, std::span<const double>) {}, sample_ts,
               std::forward<Sampler>(on_sample));
  }

 private:
  template <class F, class Observer, class Sampler>
  OdeStats run(F&& f, double t0, double t1, std::vector<double>& y,
               const OdeOptions& opts, Observer&& observer,
               std::span<const double> sample_ts, Sampler&& on_sample) {
    double h = detail::first_step(t0, t1, opts);
    resize_workspace(y.size());
    rtol_ = opts.rtol;
    atol_ = opts.atol;

    const double dir = (t1 > t0) ? 1.0 : -1.0;
    double t = t0;
    OdeStats stats;
    observer(t, std::span<const double>(y));
    std::size_t si = 0;
    while (si < sample_ts.size() && dir * (sample_ts[si] - t0) <= 0.0) {
      on_sample(sample_ts[si], std::span<const double>(y));
      ++si;
    }

    f(t, std::span<const double>(y), std::span<double>(k_[0]));
    ++stats.n_rhs;

    // Hairer's stabilized controller: hnew = h / fac with
    // fac = fac11 / facold^beta clipped to [1/fac1, 1/fac2]^-1 around
    // safe.  beta > 0 damps oscillating step sequences; the dop853
    // default is 0 (pure err^(-1/8) with memory disabled).
    constexpr double kSafe = 0.9, kFac1 = 0.333, kFac2 = 6.0, kBeta = 0.0;
    constexpr double kExpo1 = 1.0 / 8.0 - kBeta * 0.2;
    const double facc1 = 1.0 / kFac1, facc2 = 1.0 / kFac2;
    double facold = 1e-4;
    bool rejected = false;

    while (dir * (t1 - t) > 0.0) {
      detail::guard_step(t, t1, h, opts, stats);
      const double err = attempt_step(f, t, dir * h, y, stats);
      const double fac11 = std::pow(err, kExpo1);
      if (err <= 1.0) {
        double fac = fac11 / std::pow(facold, kBeta);
        fac = std::max(facc2, std::min(facc1, fac / kSafe));
        facold = std::max(err, 1e-4);

        const double t_new = t + dir * h;
        // Step-end derivative: next step's first stage (FSAL) and the
        // cont3 term of the continuous extension.
        f(t_new, std::span<const double>(y_new_), std::span<double>(k_[12]));
        ++stats.n_rhs;

        bool dense_ready = false;
        while (si < sample_ts.size() &&
               dir * (sample_ts[si] - t_new) <= 0.0) {
          if (sample_ts[si] == t_new) {
            on_sample(t_new, std::span<const double>(y_new_));
          } else {
            if (!dense_ready) {
              prepare_dense(f, t, dir * h, y, stats);
              dense_ready = true;
            }
            dense_eval(sample_ts[si], t, dir * h);
            on_sample(sample_ts[si], std::span<const double>(y_sample_));
          }
          ++si;
        }

        t = t_new;
        y.swap(y_new_);
        k_[0].swap(k_[12]);
        observer(t, std::span<const double>(y));
        ++stats.n_accepted;
        double h_new = h / fac;
        if (rejected) h_new = std::min(h_new, h);
        h = h_new;
        rejected = false;
      } else {
        ++stats.n_rejected;
        h = h / std::min(facc1, fac11 / kSafe);
        rejected = true;
      }
      if (opts.h_max > 0.0) h = std::min(h, opts.h_max);
    }
    // Sample times at (or, by roundoff, just past) t1 that the last
    // accepted step did not cover are answered from the final state.
    while (si < sample_ts.size()) {
      on_sample(sample_ts[si], std::span<const double>(y));
      ++si;
    }
    return stats;
  }

  void resize_workspace(std::size_t n) {
    if (y_new_.size() != n) {
      y_new_.assign(n, 0.0);
      y_tmp_.assign(n, 0.0);
      y_sample_.assign(n, 0.0);
      bsum_.assign(n, 0.0);
      err_.assign(n, 0.0);
      for (auto& k : k_) k.assign(n, 0.0);
      for (auto& c : cont_) c.assign(n, 0.0);
    }
  }

  /// One trial step of size h (signed).  Assumes k_[0] = f(t, y)
  /// (FSAL), fills stages k_[1..11], bsum_ = sum b[m] k[m], y_new_, and
  /// returns Hairer's combined 5th/3rd error measure (accept when
  /// <= 1).
  template <class F>
  double attempt_step(F&& f, double t, double h, const std::vector<double>& y,
                      OdeStats& stats) {
    constexpr int s = T::stages;
    const std::size_t n = y.size();
    const double* yp = y.data();

    detail::static_for<1, s>([&](auto i) {
      detail::stage_kernel<T::a[i]>(y_tmp_, y, h, k_);
      f(t + T::c[i] * h, std::span<const double>(y_tmp_),
        std::span<double>(k_[i]));
    });
    stats.n_rhs += s - 1;

    // bsum = sum b[m] k[m] (unscaled), y_new = y + h bsum.
    detail::stage_kernel<T::b>(bsum_, nullptr, 1.0, k_);
    detail::stage_kernel<detail::kUnitRow>(y_new_, y, h, &bsum_);

    // 5th-order estimate from the er weights, 3rd-order from the bhh
    // difference; the combination err5^2/sqrt(err5^2 + 0.01 err3^2)
    // keeps the 5th-order estimate in charge while damping it where the
    // 3rd-order one explodes (Hairer's dop853 error).
    detail::stage_kernel<T::er>(err_, nullptr, 1.0, k_);
    double err5_sq = 0.0, err3_sq = 0.0;
    {
      const double* k1 = k_[0].data();
      const double* k9 = k_[8].data();
      const double* k12 = k_[11].data();
      for (std::size_t j = 0; j < n; ++j) {
        const double sk =
            atol_ + rtol_ * std::max(std::abs(yp[j]), std::abs(y_new_[j]));
        const double e5 = err_[j] / sk;
        const double e3 = (bsum_[j] - T::bhh1 * k1[j] - T::bhh2 * k9[j] -
                           T::bhh3 * k12[j]) /
                          sk;
        err5_sq += e5 * e5;
        err3_sq += e3 * e3;
      }
    }
    double deno = err5_sq + 0.01 * err3_sq;
    if (deno <= 0.0) deno = 1.0;
    return std::abs(h) * err5_sq *
           std::sqrt(1.0 / (static_cast<double>(n) * deno));
  }

  /// Build the continuous extension of the step [t, t+h]: cont0..3 from
  /// the step endpoints and k1/k13, cont4..7 from the d-weights over
  /// all 16 stages (the 3 extra stages are evaluated here — the cost is
  /// paid only for steps that contain a sample).
  template <class F>
  void prepare_dense(F&& f, double t, double h, const std::vector<double>& y,
                     OdeStats& stats) {
    constexpr int s = T::stages;
    const std::size_t n = y.size();
    const double* yp = y.data();
    const double* yn = y_new_.data();
    const double* k1 = k_[0].data();
    const double* k13 = k_[12].data();
    for (std::size_t j = 0; j < n; ++j) {
      const double ydiff = yn[j] - yp[j];
      const double bspl = h * k1[j] - ydiff;
      cont_[0][j] = yp[j];
      cont_[1][j] = ydiff;
      cont_[2][j] = bspl;
      cont_[3][j] = ydiff - h * k13[j] - bspl;
    }
    detail::static_for<0, T::dense_stages>([&](auto d) {
      detail::stage_kernel<T::ad[d]>(y_tmp_, y, h, k_);
      f(t + T::cd[d] * h, std::span<const double>(y_tmp_),
        std::span<double>(k_[s + 1 + d]));
    });
    stats.n_rhs += T::dense_stages;
    detail::static_for<0, 4>([&](auto r) {
      detail::stage_kernel<T::d[r]>(cont_[4 + r], nullptr, h, k_);
    });
  }

  /// Evaluate the continuous extension at ts inside [t_old, t_old+h],
  /// into y_sample_.
  void dense_eval(double ts, double t_old, double h) {
    const double s = (ts - t_old) / h;
    const double s1 = 1.0 - s;
    const std::size_t n = y_sample_.size();
    for (std::size_t j = 0; j < n; ++j) {
      y_sample_[j] =
          cont_[0][j] +
          s * (cont_[1][j] +
               s1 * (cont_[2][j] +
                     s * (cont_[3][j] +
                          s1 * (cont_[4][j] +
                                s * (cont_[5][j] +
                                     s1 * (cont_[6][j] +
                                           s * cont_[7][j]))))));
    }
  }

  double rtol_ = 1e-6;
  double atol_ = 1e-12;
  std::vector<double> y_new_, y_tmp_, y_sample_, bsum_;
  std::vector<double> err_;      ///< 5th-order error sum er[m] k[m]
  std::vector<double> k_[16];    ///< trial stages, k13, dense stages
  std::vector<double> cont_[8];  ///< continuous-output coefficients
};

}  // namespace plinger::math
