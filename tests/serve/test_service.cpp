// SpectrumService tests: the three-tier answer path (compute, LRU,
// journal warm start across a "restart"), identity-keyed coalescing of
// concurrent identical requests (exactly one computation, bitwise-
// identical responses), streamed progress, and validation failures.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "run/config.hpp"
#include "serve/service.hpp"

namespace sv = plinger::serve;
namespace rn = plinger::run;
namespace fs = std::filesystem;

namespace {

/// Small enough to answer in tens of milliseconds; i makes distinct
/// run identities at the same cost (and the same cosmology, so the
/// context cache absorbs everything but the integration).
rn::RunConfig fast_config(std::size_t i = 0) {
  rn::RunConfig cfg;
  cfg.n_k = 4;
  cfg.k_min = 1e-4 * (1.0 + 0.01 * static_cast<double>(i));
  cfg.k_max = 0.04;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 8;
  cfg.lmax_neutrino = 8;
  cfg.driver = "autotask";
  cfg.workers = 2;
  return cfg;
}

/// A scratch journal directory per test, cleaned before use.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "plinger_serve_" + name;
  fs::remove_all(dir);
  return dir;
}

}  // namespace

TEST(SpectrumService, TierProgressionComputeThenLruThenJournal) {
  const std::string dir = scratch_dir("tiers");
  sv::ServeOptions opts;
  opts.journal_dir = dir;

  std::string compute_payload;
  std::uint64_t identity = 0;
  {
    sv::SpectrumService service(opts);
    const sv::Answer cold = service.answer(fast_config());
    EXPECT_EQ(cold.tier, sv::Tier::compute);
    EXPECT_EQ(cold.body->modes, 4u);
    EXPECT_FALSE(cold.body->degraded);
    compute_payload = cold.body->payload;
    identity = cold.body->identity;
    EXPECT_TRUE(fs::exists(service.journal_path(identity)));

    const sv::Answer warm = service.answer(fast_config());
    EXPECT_EQ(warm.tier, sv::Tier::lru);
    // The LRU hands back the very same immutable body.
    EXPECT_EQ(warm.body.get(), cold.body.get());

    const sv::ServeStats s = service.stats();
    EXPECT_EQ(s.requests, 2u);
    EXPECT_EQ(s.computes, 1u);
    EXPECT_EQ(s.lru_hits, 1u);
    EXPECT_EQ(s.journal_hits, 0u);
    EXPECT_EQ(s.lru_size, 1u);
  }

  // "Restart the daemon": a fresh service over the same journal dir
  // answers from the store, without recomputing, bitwise identically.
  sv::SpectrumService restarted(opts);
  const sv::Answer resumed = restarted.answer(fast_config());
  EXPECT_EQ(resumed.tier, sv::Tier::journal);
  EXPECT_EQ(resumed.body->identity, identity);
  EXPECT_EQ(resumed.body->payload, compute_payload);
  const sv::ServeStats s = restarted.stats();
  EXPECT_EQ(s.computes, 0u);
  EXPECT_EQ(s.journal_hits, 1u);

  fs::remove_all(dir);
}

TEST(SpectrumService, ReionizationIsAnotherAnswer) {
  // z_reion is part of the run identity: a RUN differing only in it is
  // computed, not answered from the other's LRU entry or journal.
  const std::string dir = scratch_dir("reion");
  sv::ServeOptions opts;
  opts.journal_dir = dir;
  sv::SpectrumService service(opts);
  const sv::Answer plain = service.answer(fast_config());
  rn::RunConfig cfg = fast_config();
  cfg.z_reion = 10.0;
  const sv::Answer reion = service.answer(cfg);
  EXPECT_EQ(plain.tier, sv::Tier::compute);
  EXPECT_EQ(reion.tier, sv::Tier::compute);
  EXPECT_NE(reion.body->identity, plain.body->identity);
  EXPECT_NE(reion.body->payload, plain.body->payload);
  EXPECT_EQ(service.stats().computes, 2u);
  fs::remove_all(dir);
}

TEST(SpectrumService, PayloadCarriesPolarizationColumnsAndCoverage) {
  // Every CL row is "CL l tt ee te"; the POL line between the rows and
  // the COBE factor reports the honest polarization reach, so a client
  // can tell live EE/TE entries from structural zeros.
  sv::SpectrumService service(sv::ServeOptions{});
  const sv::Answer a = service.answer(fast_config());
  const std::string& p = a.body->payload;

  std::size_t cl_rows = 0;
  bool ee_alive = false;
  std::istringstream is(p);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("CL ", 0) != 0) continue;
    ++cl_rows;
    std::istringstream row(line);
    std::string tag;
    std::size_t l = 0;
    double tt = 0.0, ee = 0.0, te = 0.0;
    ASSERT_TRUE(row >> tag >> l >> tt >> ee >> te) << line;
    ee_alive = ee_alive || ee != 0.0;
    (void)tt;
    (void)te;
  }
  EXPECT_EQ(cl_rows, a.body->l_max - 1);
  EXPECT_TRUE(ee_alive) << "EE column is all zeros";

  const auto pol_at = p.find("POL l_max_pol=");
  ASSERT_NE(pol_at, std::string::npos) << p;
  EXPECT_LT(pol_at, p.find("COBE "));
  const std::size_t reach =
      std::stoul(p.substr(pol_at + std::string("POL l_max_pol=").size()));
  EXPECT_GE(reach, 2u);
}

TEST(SpectrumService, CoalescesConcurrentIdenticalRequests) {
  const std::string dir = scratch_dir("coalesce");
  constexpr int kWaiters = 5;  // 1 builder + 4 coalesced

  sv::ServeOptions opts;
  opts.journal_dir = dir;
  // Gate the builder inside its computation so the others provably
  // arrive while it is in flight.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  opts.on_compute = [released] { released.wait(); };

  sv::SpectrumService service(opts);
  std::vector<std::thread> threads;
  std::vector<sv::Answer> answers(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&service, &answers, i] {
      answers[i] = service.answer(fast_config());
    });
  }
  // All requests registered: one builder holding at the gate, the rest
  // joined onto its future.
  while (service.stats().coalesced <
         static_cast<std::uint64_t>(kWaiters - 1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.stats().in_flight, 1u);
  release.set_value();
  for (auto& t : threads) t.join();

  // Exactly one computation happened...
  const sv::ServeStats s = service.stats();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(s.computes, 1u);
  EXPECT_EQ(s.coalesced, static_cast<std::uint64_t>(kWaiters - 1));
  EXPECT_EQ(s.in_flight, 0u);

  // ...and every response is the same object, hence rendered bitwise
  // identically (every waiter reports the builder's tier).
  const std::string reference = sv::render_response(answers[0]);
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(answers[i].body.get(), answers[0].body.get());
    EXPECT_EQ(answers[i].tier, sv::Tier::compute);
    EXPECT_EQ(sv::render_response(answers[i]), reference);
  }

  fs::remove_all(dir);
}

TEST(SpectrumService, ProgressStreamsToEverySubscriber) {
  sv::ServeOptions opts;  // no journal dir: LRU-only service
  sv::SpectrumService service(opts);

  // The callbacks run under the driver's sink lock, one at a time.
  std::vector<std::size_t> dones;
  std::size_t total_seen = 0;
  const sv::Answer a = service.answer(
      fast_config(), [&](std::size_t done, std::size_t total) {
        dones.push_back(done);
        total_seen = total;
      });
  EXPECT_EQ(a.tier, sv::Tier::compute);
  // One notification per landed mode, counted 1..total in order.
  EXPECT_EQ(dones, (std::vector<std::size_t>{1, 2, 3, 4}));
  EXPECT_EQ(total_seen, 4u);

  // An LRU hit answers instantly: no progress callbacks fire.
  std::atomic<std::size_t> calls{0};
  const sv::Answer warm =
      service.answer(fast_config(),
                     [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(warm.tier, sv::Tier::lru);
  EXPECT_EQ(calls.load(), 0u);

  // Four autotask workers land modes concurrently, and the count still
  // arrives in order.  With the LRU and the journal off every answer
  // is a fresh compute.
  rn::RunConfig los;
  los.set_preset("lcdm");
  los.solver = "los";
  los.grid = "cl";
  los.l_max = 60;
  los.driver = "autotask";
  los.workers = 4;
  sv::ServeOptions uncached;
  uncached.lru_capacity = 0;
  sv::SpectrumService recompute(uncached);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::size_t> seen;
    std::size_t total = 0;
    const sv::Answer ans = recompute.answer(
        los, [&](std::size_t done, std::size_t t) {
          seen.push_back(done);
          total = t;
        });
    EXPECT_EQ(ans.tier, sv::Tier::compute);
    EXPECT_EQ(ans.body->modes, total);
    ASSERT_EQ(seen.size(), total) << rep;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], i + 1) << "answer " << rep;
    }
  }
  EXPECT_EQ(recompute.stats().computes, 3u);
}

TEST(SpectrumService, LruEvictionFallsBackToJournal) {
  const std::string dir = scratch_dir("evict");
  sv::ServeOptions opts;
  opts.journal_dir = dir;
  opts.lru_capacity = 1;
  sv::SpectrumService service(opts);

  const sv::Answer a0 = service.answer(fast_config(0));
  const sv::Answer a1 = service.answer(fast_config(1));  // evicts 0
  EXPECT_EQ(a0.tier, sv::Tier::compute);
  EXPECT_EQ(a1.tier, sv::Tier::compute);

  // Identity 0 left the LRU but not the journal: answered from disk,
  // not recomputed, and byte-identical to the original.
  const sv::Answer again = service.answer(fast_config(0));
  EXPECT_EQ(again.tier, sv::Tier::journal);
  EXPECT_EQ(again.body->payload, a0.body->payload);
  EXPECT_EQ(service.stats().computes, 2u);

  fs::remove_all(dir);
}

TEST(SpectrumService, ByteBudgetEvictionReportsBytes) {
  sv::ServeOptions opts;  // LRU-only service
  sv::SpectrumService service(opts);

  const sv::Answer a0 = service.answer(fast_config(0));
  const sv::ServeStats after_one = service.stats();
  EXPECT_EQ(after_one.lru_bytes, a0.body->payload.size());
  EXPECT_EQ(after_one.lru_evicted_bytes, 0u);

  // A budget of one payload: the second distinct identity evicts the
  // first, and the stats account for exactly its rendered size.
  sv::ServeOptions tight;
  tight.lru_max_bytes = a0.body->payload.size() + 1;
  sv::SpectrumService budgeted(tight);
  const sv::Answer b0 = budgeted.answer(fast_config(0));
  const sv::Answer b1 = budgeted.answer(fast_config(1));
  const sv::ServeStats s = budgeted.stats();
  EXPECT_EQ(s.lru_size, 1u);
  EXPECT_EQ(s.lru_bytes, b1.body->payload.size());
  EXPECT_EQ(s.lru_evicted_bytes, b0.body->payload.size());

  // The evicted identity recomputes (no journal dir to fall back on).
  const sv::Answer again = budgeted.answer(fast_config(0));
  EXPECT_EQ(again.tier, sv::Tier::compute);
  EXPECT_EQ(again.body->payload, b0.body->payload);
}

TEST(SpectrumService, InvalidConfigThrowsAndCachesNothing) {
  sv::SpectrumService service(sv::ServeOptions{});
  rn::RunConfig bad = fast_config();
  bad.rtol = 0.0;
  EXPECT_THROW(service.answer(bad), plinger::InvalidArgument);
  const sv::ServeStats s = service.stats();
  EXPECT_EQ(s.computes, 0u);
  EXPECT_EQ(s.lru_size, 0u);
  EXPECT_EQ(s.in_flight, 0u);
}

TEST(SpectrumService, RequestsCannotPlaceJournalsOrTraces) {
  // Embedded callers might hand a config with store/trace wiring; the
  // service owns persistence, so those fields are cleared, not obeyed.
  const std::string dir = scratch_dir("fence");
  sv::ServeOptions opts;
  opts.journal_dir = dir;
  sv::SpectrumService service(opts);

  rn::RunConfig cfg = fast_config();
  cfg.store = dir + "/rogue.pj";
  cfg.trace = true;
  const sv::Answer a = service.answer(cfg);
  EXPECT_EQ(a.tier, sv::Tier::compute);
  EXPECT_FALSE(fs::exists(dir + "/rogue.pj"));
  EXPECT_TRUE(fs::exists(service.journal_path(a.body->identity)));

  // And the fenced fields do not fork the identity: the same physics
  // without them is the same cached answer.
  const sv::Answer same = service.answer(fast_config());
  EXPECT_EQ(same.tier, sv::Tier::lru);
  EXPECT_EQ(same.body.get(), a.body.get());

  fs::remove_all(dir);
}

TEST(SpectrumService, RunThatLostEveryWorkerAnswersOneErrLine) {
  // A one-worker run whose worker is settled as lost at once delivers
  // no mode, so there is no C_2 to normalize.  The answer is one ERR
  // line with the DEGRADED fields and the delivered count, not the
  // normalization's internal requirement; nothing is memoized, and the
  // service answers the next request as usual.
  const std::string dir = scratch_dir("all_lost");
  sv::ServeOptions opts;
  opts.journal_dir = dir;
  sv::SpectrumService service(opts);
  rn::RunConfig cfg;
  cfg.set_preset("lcdm");
  cfg.solver = "hierarchy";
  cfg.n_k = 4;
  cfg.k_max = 0.3;
  cfg.workers = 1;
  cfg.fault_timeout = 1e-9;
  std::string what;
  try {
    (void)service.answer(cfg);
  } catch (const std::exception& e) {
    what = e.what();
  }
  // The lost worker's in-flight mode counts as reassigned (0 or 1).
  const std::size_t at = what.find("reassigned=") + 11;
  ASSERT_LT(at, what.size()) << what;
  EXPECT_TRUE(what[at] == '0' || what[at] == '1') << what;
  std::string masked = what;
  masked[at] = 'n';
  EXPECT_EQ(masked,
            "DEGRADED workers_lost=1 reassigned=n quarantined=0 failed=0 "
            "delivered=0/4: no C_2 to normalize");
  EXPECT_EQ(service.stats().lru_size, 0u);
  EXPECT_EQ(service.stats().in_flight, 0u);

  const sv::Answer ok = service.answer(fast_config());
  EXPECT_EQ(ok.tier, sv::Tier::compute);
  EXPECT_FALSE(ok.body->degraded);
  EXPECT_EQ(sv::render_response(ok).rfind("OK identity=", 0), 0u);
  fs::remove_all(dir);
}
