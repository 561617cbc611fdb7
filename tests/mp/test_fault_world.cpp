#include "mp/fault_world.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace pm = plinger::mp;

namespace {

pm::FaultAction action(pm::FaultKind kind, int rank, int tag,
                       int occurrence = 1, std::size_t ik = 0,
                       double delay = 0.0) {
  pm::FaultAction a;
  a.kind = kind;
  a.rank = rank;
  a.tag = tag;
  a.occurrence = occurrence;
  a.ik = ik;
  a.delay_seconds = delay;
  return a;
}

pm::FaultPlan plan_of(pm::FaultAction a) {
  pm::FaultPlan p;
  p.actions.push_back(a);
  return p;
}

/// A tag-4 result header whose slot 0 carries ik, padded to the wire's
/// 21 doubles.
std::vector<double> header_of(std::size_t ik) {
  std::vector<double> h(21, 0.0);
  h[0] = static_cast<double>(ik);
  return h;
}

}  // namespace

TEST(FaultWorld, KillBeforeSendThrowsNotifiesAndSilencesRank) {
  pm::FaultInjectingWorld w(
      3, plan_of(action(pm::FaultKind::kill_before_send, 1, 2)));
  w.send(0, 1, 3, std::vector<double>{4.0});  // queued before the kill
  EXPECT_THROW(w.send(1, 0, 2, std::vector<double>{0.0}), pm::RankKilled);
  EXPECT_TRUE(w.is_killed(1));
  // The master got the synthetic death notice instead of the request.
  const auto pr = w.probe(0, pm::kAnySource, pm::kAnyTag);
  EXPECT_EQ(pr.tag, 7);
  EXPECT_EQ(pr.source, 1);
  std::vector<double> notice(2, -1.0);
  EXPECT_EQ(w.recv(0, 1, 7, notice), 2u);
  EXPECT_EQ(notice[0], 0.0);  // ik unknown
  EXPECT_EQ(notice[1], 1.0);  // code: worker lost
  // Every later send by the dead rank throws.  Its receives drain what
  // was queued before the kill, then throw; sends to it vanish without
  // error.
  EXPECT_THROW(w.send(1, 0, 2, std::vector<double>{0.0}), pm::RankKilled);
  std::vector<double> assign(1, 0.0);
  EXPECT_EQ(w.recv(1, 0, 3, assign), 1u);
  EXPECT_EQ(assign[0], 4.0);
  EXPECT_THROW(w.recv(1, 0, 3, notice), pm::RankKilled);
  w.send(0, 1, 3, std::vector<double>{5.0});  // no throw, no delivery
  EXPECT_THROW(w.probe(1, 0, 3), pm::RankKilled);
  EXPECT_THROW((void)w.probe_for(1, 0, 3, 30.0), pm::RankKilled);
  // Rank 2 is unaffected.
  w.send(2, 0, 2, std::vector<double>{0.0});
  EXPECT_FALSE(w.is_killed(2));
}

TEST(FaultWorld, KillAfterSendDeliversMessageThenNotice) {
  pm::FaultInjectingWorld w(
      2, plan_of(action(pm::FaultKind::kill_after_send, 1, 2)));
  EXPECT_THROW(w.send(1, 0, 2, std::vector<double>{0.0}), pm::RankKilled);
  // Per-source order at the master: the request, then the notice.
  const auto first = w.probe(0, 1, pm::kAnyTag);
  EXPECT_EQ(first.tag, 2);
  std::vector<double> buf(2, 0.0);
  w.recv(0, 1, 2, buf);
  const auto second = w.probe(0, 1, pm::kAnyTag);
  EXPECT_EQ(second.tag, 7);
}

TEST(FaultWorld, NotifyOffKillsSilently) {
  auto plan = plan_of(action(pm::FaultKind::kill_before_send, 1, 2));
  plan.notify_on_kill = false;
  pm::FaultInjectingWorld w(2, plan);
  EXPECT_THROW(w.send(1, 0, 2, std::vector<double>{0.0}), pm::RankKilled);
  EXPECT_FALSE(w.probe_for(0, pm::kAnySource, pm::kAnyTag, 0.01));
}

TEST(FaultWorld, DropMessageFiresOnce) {
  pm::FaultInjectingWorld w(
      2, plan_of(action(pm::FaultKind::drop_message, 1, 2)));
  w.send(1, 0, 2, std::vector<double>{1.0});  // dropped
  w.send(1, 0, 2, std::vector<double>{2.0});  // delivered
  std::vector<double> buf(1, 0.0);
  w.recv(0, 1, 2, buf);
  EXPECT_EQ(buf[0], 2.0);
  EXPECT_FALSE(w.probe_for(0, pm::kAnySource, pm::kAnyTag, 0.01));
  ASSERT_EQ(w.injected().size(), 1u);
  EXPECT_EQ(w.injected()[0].kind, pm::FaultKind::drop_message);
}

TEST(FaultWorld, DuplicateMessageDeliversTwice) {
  pm::FaultInjectingWorld w(
      2, plan_of(action(pm::FaultKind::duplicate_message, 1, 2)));
  w.send(1, 0, 2, std::vector<double>{3.0});
  std::vector<double> buf(1, 0.0);
  w.recv(0, 1, 2, buf);
  EXPECT_EQ(buf[0], 3.0);
  buf[0] = 0.0;
  w.recv(0, 1, 2, buf);
  EXPECT_EQ(buf[0], 3.0);
}

TEST(FaultWorld, DelayedMessageArrivesLate) {
  pm::FaultInjectingWorld w(
      2, plan_of(action(pm::FaultKind::delay_message, 1, 2,
                        /*occurrence=*/1, /*ik=*/0, /*delay=*/0.05)));
  w.send(1, 0, 2, std::vector<double>{4.0});
  EXPECT_FALSE(w.probe_for(0, 1, 2, 0.005));
  const auto pr = w.probe(0, 1, 2);  // blocks until the helper delivers
  EXPECT_EQ(pr.tag, 2);
}

TEST(FaultWorld, DropOfHeaderExtendsToPairedPayload) {
  pm::FaultInjectingWorld w(
      2, plan_of(action(pm::FaultKind::drop_message, 1, 4)));
  w.send(1, 0, 4, header_of(3));                       // dropped
  w.send(1, 0, 5, std::vector<double>{3.0, 0.0});      // dropped (pair)
  EXPECT_FALSE(w.probe_for(0, pm::kAnySource, pm::kAnyTag, 0.01));
  // The next result goes through whole.
  w.send(1, 0, 4, header_of(4));
  w.send(1, 0, 5, std::vector<double>{4.0, 0.0});
  EXPECT_EQ(w.probe(0, 1, pm::kAnyTag).tag, 4);
}

TEST(FaultWorld, KillAfterHeaderExtendsToPayloadThenDies) {
  pm::FaultInjectingWorld w(
      2, plan_of(action(pm::FaultKind::kill_after_send, 1, 4)));
  w.send(1, 0, 4, header_of(3));  // delivered; death armed for the pair
  EXPECT_THROW(w.send(1, 0, 5, std::vector<double>{3.0, 0.0}),
               pm::RankKilled);
  // The master sees the complete result, then the notice — never a
  // header without its payload.
  EXPECT_EQ(w.probe(0, 1, pm::kAnyTag).tag, 4);
  std::vector<double> buf(21, 0.0);
  w.recv(0, 1, 4, buf);
  EXPECT_EQ(w.probe(0, 1, pm::kAnyTag).tag, 5);
  w.recv(0, 1, 5, buf);
  EXPECT_EQ(w.probe(0, 1, pm::kAnyTag).tag, 7);
}

TEST(FaultWorld, DuplicatedResultReplaysWholePair) {
  // Duplicating a tag-4 header must replay the whole result as
  // H,P,H,P — two back-to-back headers would read as a headerless
  // payload to the master.
  pm::FaultInjectingWorld w(
      2, plan_of(action(pm::FaultKind::duplicate_message, 1, 4)));
  w.send(1, 0, 4, header_of(3));
  w.send(1, 0, 5, std::vector<double>{3.0, 0.0});
  std::vector<double> buf(21, 0.0);
  for (int copy = 0; copy < 2; ++copy) {
    EXPECT_EQ(w.probe(0, 1, pm::kAnyTag).tag, 4) << copy;
    w.recv(0, 1, 4, buf);
    EXPECT_EQ(buf[0], 3.0);
    EXPECT_EQ(w.probe(0, 1, pm::kAnyTag).tag, 5) << copy;
    w.recv(0, 1, 5, buf);
  }
  EXPECT_FALSE(w.probe_for(0, pm::kAnySource, pm::kAnyTag, 0.01));
}

TEST(FaultWorld, DelayedHeaderPayloadPairStaysOrdered) {
  pm::FaultInjectingWorld w(
      2, plan_of(action(pm::FaultKind::delay_message, 1, 4,
                        /*occurrence=*/1, /*ik=*/0, /*delay=*/0.02)));
  w.send(1, 0, 4, header_of(6));
  w.send(1, 0, 5, std::vector<double>{6.0, 0.0});
  // Nothing yet; after the delay the pair arrives header-first.
  EXPECT_EQ(w.probe(0, 1, pm::kAnyTag).tag, 4);
  std::vector<double> buf(21, 0.0);
  w.recv(0, 1, 4, buf);
  EXPECT_EQ(buf[0], 6.0);
  EXPECT_EQ(w.probe(0, 1, pm::kAnyTag).tag, 5);
}

TEST(FaultWorld, IkFilterMatchesOnlyThatMode) {
  pm::FaultInjectingWorld w(
      2, plan_of(action(pm::FaultKind::drop_message, 1, 4,
                        /*occurrence=*/1, /*ik=*/5)));
  w.send(1, 0, 4, header_of(3));  // ik 3: passes
  w.send(1, 0, 5, std::vector<double>{3.0, 0.0});
  w.send(1, 0, 4, header_of(5));  // ik 5: dropped with its payload
  w.send(1, 0, 5, std::vector<double>{5.0, 0.0});
  std::vector<double> buf(21, 0.0);
  w.recv(0, 1, 4, buf);
  EXPECT_EQ(buf[0], 3.0);
  w.recv(0, 1, 5, buf);
  EXPECT_FALSE(w.probe_for(0, pm::kAnySource, pm::kAnyTag, 0.01));
}

TEST(FaultWorld, OccurrenceSelectsNthMatchingSend) {
  pm::FaultInjectingWorld w(
      2, plan_of(action(pm::FaultKind::drop_message, 1, 2,
                        /*occurrence=*/2)));
  w.send(1, 0, 2, std::vector<double>{1.0});  // passes
  w.send(1, 0, 2, std::vector<double>{2.0});  // dropped
  w.send(1, 0, 2, std::vector<double>{3.0});  // passes (fired once)
  std::vector<double> buf(1, 0.0);
  w.recv(0, 1, 2, buf);
  EXPECT_EQ(buf[0], 1.0);
  w.recv(0, 1, 2, buf);
  EXPECT_EQ(buf[0], 3.0);
}

TEST(FaultWorld, SeededKillIsDeterministicAndInRange) {
  for (unsigned seed = 0; seed < 64; ++seed) {
    const auto a = pm::FaultPlan::seeded_kill(seed, 4);
    const auto b = pm::FaultPlan::seeded_kill(seed, 4);
    ASSERT_EQ(a.actions.size(), 1u);
    EXPECT_EQ(a.actions[0].rank, b.actions[0].rank);
    EXPECT_EQ(a.actions[0].tag, b.actions[0].tag);
    EXPECT_EQ(static_cast<int>(a.actions[0].kind),
              static_cast<int>(b.actions[0].kind));
    EXPECT_GE(a.actions[0].rank, 1);
    EXPECT_LE(a.actions[0].rank, 4);
  }
}

TEST(FaultWorld, PlanValidationRejectsBadActions) {
  EXPECT_THROW(pm::FaultInjectingWorld(
                   2, plan_of(action(pm::FaultKind::drop_message, 9, 2))),
               plinger::Error);
  EXPECT_THROW(pm::FaultInjectingWorld(
                   2, plan_of(action(pm::FaultKind::drop_message, 1, 2,
                                     /*occurrence=*/0))),
               plinger::Error);
}
