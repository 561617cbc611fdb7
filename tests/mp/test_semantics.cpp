// Transport semantics beyond the basics: selective blocking probes,
// zero-length and large payloads, and cross-personality equivalences.

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "mp/inproc.hpp"

namespace pm = plinger::mp;

TEST(Semantics, ProbeForSpecificTagWaitsPastOthers) {
  // A probe for tag 5 must not be satisfied by a queued tag 4.
  pm::InProcWorld w(2);
  w.send(0, 1, 4, std::vector<double>{1.0});
  std::atomic<bool> got{false};
  std::thread prober([&] {
    (void)w.probe(1, 0, 5);
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got.load());
  w.send(0, 1, 5, std::vector<double>{2.0});
  prober.join();
  EXPECT_TRUE(got.load());
  // The tag-4 message is still queued.
  const auto pr = w.probe(1, 0, 4);
  EXPECT_EQ(pr.tag, 4);
}

TEST(Semantics, ZeroLengthPayload) {
  pm::InProcWorld w(2);
  w.send(0, 1, 3, std::vector<double>{});
  const auto pr = w.probe(1, 0, 3);
  EXPECT_EQ(pr.length, 0u);
  std::vector<double> out;
  EXPECT_EQ(w.recv(1, 0, 3, out), 0u);
  EXPECT_EQ(w.stats().n_bytes, 0u);
  EXPECT_EQ(w.stats().n_messages, 1u);
}

TEST(Semantics, MegabytePayloadRoundTrip) {
  pm::InProcWorld w(2);
  std::vector<double> big(131072);  // 1 MiB of doubles
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<double>(i) * 0.5;
  }
  w.send(0, 1, 5, big);
  std::vector<double> out(big.size());
  EXPECT_EQ(w.recv(1, 0, 5, out), big.size());
  EXPECT_EQ(out, big);
  EXPECT_EQ(w.stats().max_message_bytes, big.size() * 8);
}

TEST(Semantics, SelfSendIsAllowed) {
  // A rank may enqueue to itself (PVM permits it; useful for loopback
  // tests).
  pm::InProcWorld w(2);
  w.send(1, 1, 2, std::vector<double>{9.0});
  std::vector<double> out(1);
  w.recv(1, 1, 2, out);
  EXPECT_EQ(out[0], 9.0);
}

TEST(Semantics, PersonalitiesAgreeOnInOrderTraffic) {
  // For a stream consumed strictly in arrival order, both library
  // personalities behave identically.
  for (auto lib : {pm::Library::mpisim, pm::Library::mplsim}) {
    pm::InProcWorld w(2, lib);
    for (double i = 0; i < 20; ++i) {
      w.send(0, 1, 1 + (static_cast<int>(i) % 3),
             std::vector<double>{i});
    }
    for (int i = 0; i < 20; ++i) {
      const auto pr = w.probe(1, pm::kAnySource, pm::kAnyTag);
      std::vector<double> out(1);
      w.recv(1, pr.source, pr.tag, out);
      EXPECT_EQ(out[0], static_cast<double>(i));
    }
  }
}

TEST(Semantics, ManyRanksAllToOne) {
  const int n = 32;
  pm::InProcWorld w(n + 1);
  for (int r = 1; r <= n; ++r) {
    w.send(r, 0, 2, std::vector<double>{static_cast<double>(r)});
  }
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto pr = w.probe(0, pm::kAnySource, 2);
    std::vector<double> out(1);
    w.recv(0, pr.source, 2, out);
    sum += out[0];
  }
  EXPECT_EQ(sum, n * (n + 1) / 2.0);
}
