// run::ContextCache: the one build-once owner of RunContexts behind
// run_batch and the serve daemon.
//
// The cache promises: one build per cosmology however many callers ask
// at once, with every other caller told it reused; oldest-inserted
// eviction at insertion time, which a hit does not postpone; and a
// build that throws reaches every caller and leaves nothing cached.

#include <gtest/gtest.h>

#include <cstddef>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "run/config.hpp"
#include "run/context.hpp"

using namespace plinger;

namespace {

/// Standard CDM at Hubble parameter h: one cosmology per h.
run::RunConfig cosmology(double h) {
  run::RunConfig cfg;
  cfg.set_preset("scdm");
  cfg.h = h;
  return cfg;
}

/// Runs ask(i) on n threads released together; joins before returning.
template <class Ask>
void ask_at_once(int n, const Ask& ask) {
  std::latch start(n);
  std::vector<std::jthread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      ask(i);
    });
  }
}

}  // namespace

TEST(ContextCache, ConcurrentAskersShareOneBuild) {
  constexpr int kCallers = 8;
  run::ContextCache cache;
  std::vector<run::ContextCache::Lookup> got(kCallers);
  ask_at_once(kCallers, [&](int i) { got[i] = cache.get(cosmology(0.5)); });

  int built = 0;
  for (const auto& lookup : got) {
    ASSERT_NE(lookup.context, nullptr);
    EXPECT_EQ(lookup.context, got.front().context);  // one object
    built += lookup.reused ? 0 : 1;
  }
  EXPECT_EQ(built, 1);  // everyone else was told they reused it
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.get(cosmology(0.5)).reused);
}

TEST(ContextCache, InsertionEvictsTheOldestInsertedAndHitsDoNotRefresh) {
  run::ContextCache cache(2);
  const auto a = cache.get(cosmology(0.50));
  const auto b = cache.get(cosmology(0.55));
  EXPECT_FALSE(a.reused);
  EXPECT_FALSE(b.reused);

  // C's insertion evicts A, the oldest inserted.
  EXPECT_FALSE(cache.get(cosmology(0.60)).reused);
  EXPECT_EQ(cache.size(), 2u);
  // A hit on B does not make B younger than C ...
  const auto b_again = cache.get(cosmology(0.55));
  EXPECT_TRUE(b_again.reused);
  EXPECT_EQ(b_again.context, b.context);
  // ... so D's insertion evicts B, and C stays.
  EXPECT_FALSE(cache.get(cosmology(0.65)).reused);
  EXPECT_TRUE(cache.get(cosmology(0.60)).reused);
  const auto b_rebuilt = cache.get(cosmology(0.55));
  EXPECT_FALSE(b_rebuilt.reused);
  EXPECT_NE(b_rebuilt.context, b.context);
  EXPECT_EQ(cache.size(), 2u);

  // An evicted context in use lives on through its shared_ptr.
  EXPECT_GT(a.context->conformal_age(), 0.0);
  EXPECT_FALSE(cache.get(cosmology(0.50)).reused);
}

TEST(ContextCache, AFailedBuildReachesEveryWaiterAndIsNotCached) {
  // h = 0.1 closes (cosmology() and its key succeed), but Background
  // refuses it, so the context's construction throws.
  constexpr int kCallers = 8;
  run::ContextCache cache;
  std::vector<int> refused(kCallers, 0);
  ask_at_once(kCallers, [&](int i) {
    try {
      cache.get(cosmology(0.1));
    } catch (const InvalidArgument&) {
      refused[i] = 1;
    }
  });
  for (int i = 0; i < kCallers; ++i) EXPECT_EQ(refused[i], 1) << i;
  EXPECT_EQ(cache.size(), 0u);

  // Nothing was cached, so the next ask builds (and fails) again, and a
  // good cosmology after it builds as usual.
  EXPECT_THROW(cache.get(cosmology(0.1)), InvalidArgument);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(cosmology(0.5)).reused);
  EXPECT_EQ(cache.size(), 1u);
}
