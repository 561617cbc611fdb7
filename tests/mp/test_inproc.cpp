#include "mp/inproc.hpp"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pm = plinger::mp;

TEST(InProcWorld, SendRecvBasic) {
  pm::InProcWorld w(2);
  const std::vector<double> data = {1.0, 2.0, 3.0};
  w.send(0, 1, 7, data);
  std::vector<double> out(3, 0.0);
  const std::size_t n = w.recv(1, 0, 7, out);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(out, data);
}

TEST(InProcWorld, ProbeReportsWithoutConsuming) {
  pm::InProcWorld w(2);
  const std::vector<double> data = {4.0, 5.0};
  w.send(0, 1, 3, data);
  const auto pr = w.probe(1, pm::kAnySource, pm::kAnyTag);
  EXPECT_EQ(pr.tag, 3);
  EXPECT_EQ(pr.source, 0);
  EXPECT_EQ(pr.length, 2u);
  // Still there.
  const auto pr2 = w.probe(1, 0, 3);
  EXPECT_EQ(pr2.length, 2u);
  std::vector<double> out(2);
  w.recv(1, 0, 3, out);
  EXPECT_EQ(out[1], 5.0);
}

TEST(InProcWorld, WildcardsMatchAny) {
  pm::InProcWorld w(3);
  w.send(2, 0, 9, std::vector<double>{1.0});
  const auto pr = w.probe(0, pm::kAnySource, pm::kAnyTag);
  EXPECT_EQ(pr.source, 2);
  EXPECT_EQ(pr.tag, 9);
  std::vector<double> out(1);
  EXPECT_EQ(w.recv(0, pm::kAnySource, pm::kAnyTag, out), 1u);
}

TEST(InProcWorld, PerPairOrderingPreserved) {
  pm::InProcWorld w(2);
  for (double i = 0; i < 10; ++i) w.send(0, 1, 5, std::vector<double>{i});
  for (double i = 0; i < 10; ++i) {
    std::vector<double> out(1);
    w.recv(1, 0, 5, out);
    EXPECT_EQ(out[0], i);
  }
}

TEST(InProcWorld, TagSelectiveRetrieval) {
  // Out-of-order by tag, as MPI and PVM both allow.
  pm::InProcWorld w(2, pm::Library::mpisim);
  w.send(0, 1, 4, std::vector<double>{1.0});
  w.send(0, 1, 5, std::vector<double>{2.0});
  std::vector<double> out(1);
  w.recv(1, 0, 5, out);  // later message first
  EXPECT_EQ(out[0], 2.0);
  w.recv(1, 0, 4, out);
  EXPECT_EQ(out[0], 1.0);
}

TEST(InProcWorld, MplRejectsOutOfOrderReceive) {
  pm::InProcWorld w(2, pm::Library::mplsim);
  w.send(0, 1, 4, std::vector<double>{1.0});
  w.send(0, 1, 5, std::vector<double>{2.0});
  std::vector<double> out(1);
  EXPECT_THROW(w.recv(1, 0, 5, out), pm::ProtocolError);
  // In-order is fine.
  EXPECT_EQ(w.recv(1, 0, 4, out), 1u);
  EXPECT_EQ(w.recv(1, 0, 5, out), 1u);
}

TEST(InProcWorld, MplAllowsInterleavedSources) {
  // Order is per source: a message from rank 2 may be taken before an
  // earlier-queued one from rank 1.
  pm::InProcWorld w(3, pm::Library::mplsim);
  w.send(1, 0, 4, std::vector<double>{1.0});
  w.send(2, 0, 4, std::vector<double>{2.0});
  std::vector<double> out(1);
  w.recv(0, 2, 4, out);
  EXPECT_EQ(out[0], 2.0);
  w.recv(0, 1, 4, out);
  EXPECT_EQ(out[0], 1.0);
}

TEST(InProcWorld, TruncatedReceiveReportsFullLength) {
  pm::InProcWorld w(2);
  w.send(0, 1, 1, std::vector<double>{1.0, 2.0, 3.0, 4.0});
  std::vector<double> out(2);
  const std::size_t full = w.recv(1, 0, 1, out);
  EXPECT_EQ(full, 4u);
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], 2.0);
}

TEST(InProcWorld, StatsAccounting) {
  pm::InProcWorld w(2);
  w.send(0, 1, 2, std::vector<double>(10, 0.0));
  w.send(0, 1, 5, std::vector<double>(100, 0.0));
  const auto s = w.stats();
  EXPECT_EQ(s.n_messages, 2u);
  EXPECT_EQ(s.n_bytes, 110u * 8u);
  EXPECT_EQ(s.max_message_bytes, 800u);
  EXPECT_EQ(s.per_tag[2], 1u);
  EXPECT_EQ(s.per_tag[5], 1u);
  EXPECT_EQ(s.per_tag[3], 0u);
}

// Tag 7 is the protocol's failure/death-notice path: it must land in its
// own per_tag slot, not the tag-0 catch-all (it used to be folded there,
// hiding failure traffic from the stats).
TEST(InProcWorld, StatsCountTag7InOwnSlot) {
  pm::InProcWorld w(2);
  w.send(1, 0, 7, std::vector<double>{3.0, 0.0});
  w.send(1, 0, 7, std::vector<double>{0.0, 1.0});
  w.send(1, 0, 8, std::vector<double>{1.0});   // out of protocol range
  w.send(1, 0, 0, std::vector<double>{1.0});
  const auto s = w.stats();
  EXPECT_EQ(s.per_tag.size(), 8u);
  EXPECT_EQ(s.per_tag[7], 2u);
  EXPECT_EQ(s.per_tag[0], 2u);  // tags outside 1..7 pool in slot 0
}

TEST(InProcWorld, ProbeForTimesOutThenFinds) {
  pm::InProcWorld w(2);
  const auto miss = w.probe_for(0, 1, 4, 0.01);
  EXPECT_FALSE(miss.has_value());
  w.send(1, 0, 4, std::vector<double>{7.0});
  const auto hit = w.probe_for(0, 1, 4, 1.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tag, 4);
  EXPECT_EQ(hit->source, 1);
  EXPECT_EQ(hit->length, 1u);
}

TEST(InProcWorld, BlockingRecvWakesOnSend) {
  pm::InProcWorld w(2);
  std::vector<double> out(1, 0.0);
  std::thread receiver([&] { w.recv(1, 0, 7, out); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  w.send(0, 1, 7, std::vector<double>{42.0});
  receiver.join();
  EXPECT_EQ(out[0], 42.0);
}

TEST(InProcWorld, ConcurrentProducersStress) {
  const int n_senders = 8, per_sender = 200;
  pm::InProcWorld w(n_senders + 1);
  std::vector<std::thread> senders;
  for (int s = 1; s <= n_senders; ++s) {
    senders.emplace_back([&w, s] {
      for (int i = 0; i < per_sender; ++i) {
        w.send(s, 0, 1, std::vector<double>{static_cast<double>(i)});
      }
    });
  }
  // Receiver: consume everything, checking per-source monotonicity.
  std::vector<double> next(static_cast<std::size_t>(n_senders) + 1, 0.0);
  for (int i = 0; i < n_senders * per_sender; ++i) {
    const auto pr = w.probe(0, pm::kAnySource, pm::kAnyTag);
    std::vector<double> out(1);
    w.recv(0, pr.source, pr.tag, out);
    EXPECT_EQ(out[0], next[static_cast<std::size_t>(pr.source)]);
    next[static_cast<std::size_t>(pr.source)] += 1.0;
  }
  for (auto& t : senders) t.join();
  EXPECT_EQ(w.stats().n_messages,
            static_cast<std::uint64_t>(n_senders * per_sender));
}

TEST(InProcWorld, RejectsBadRanksAndTags) {
  pm::InProcWorld w(2);
  EXPECT_THROW(w.send(0, 5, 1, std::vector<double>{1.0}),
               plinger::InvalidArgument);
  EXPECT_THROW(w.send(-1, 1, 1, std::vector<double>{1.0}),
               plinger::InvalidArgument);
  EXPECT_THROW(w.send(0, 1, -3, std::vector<double>{1.0}),
               plinger::InvalidArgument);
  EXPECT_THROW(pm::InProcWorld(0), plinger::InvalidArgument);
}
