#include "mp/fault_world.hpp"

#include <chrono>
#include <cmath>
#include <string>

namespace plinger::mp {

namespace {

/// ik carried in the payload, for the tags that carry one (3/4/5/7 all
/// put it in slot 0); 0 for everything else.
std::size_t payload_ik(int tag, std::span<const double> data) {
  if (data.empty()) return 0;
  if (tag < 3 || tag > 7 || tag == 6) return 0;
  const double v = data[0];
  if (!(v > 0.0) || v > 1e15) return 0;
  return static_cast<std::size_t>(std::llround(v));
}

/// Deterministic 64-bit mix (splitmix64 finalizer) for seeded plans.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultPlan FaultPlan::seeded_kill(unsigned seed, int n_workers) {
  PLINGER_REQUIRE(n_workers >= 1, "seeded_kill: need >= 1 worker");
  const std::uint64_t h = mix64(seed);
  FaultAction a;
  a.rank = 1 + static_cast<int>(h % static_cast<std::uint64_t>(n_workers));
  switch (mix64(h) % 3) {
    case 0:  // dies before ever asking for work
      a.kind = FaultKind::kill_before_send;
      a.tag = 2;
      break;
    case 1:  // dies mid-mode, its result lost
      a.kind = FaultKind::kill_before_send;
      a.tag = 4;
      break;
    default:  // dies right after delivering its first result
      a.kind = FaultKind::kill_after_send;
      a.tag = 4;
      break;
  }
  a.occurrence = 1;
  FaultPlan plan;
  plan.actions.push_back(a);
  return plan;
}

FaultInjectingWorld::FaultInjectingWorld(int nprocs, FaultPlan plan,
                                         Library lib)
    : InProcWorld(nprocs, lib),
      plan_(std::move(plan)),
      killed_(static_cast<std::size_t>(nprocs), 0),
      fired_(plan_.actions.size(), 0),
      sends_seen_(plan_.actions.size(), 0),
      pending_payload_(static_cast<std::size_t>(nprocs),
                       FaultKind::drop_message),
      pending_payload_set_(static_cast<std::size_t>(nprocs), 0),
      held_header_(static_cast<std::size_t>(nprocs)),
      held_header_set_(static_cast<std::size_t>(nprocs), 0) {
  for (const FaultAction& a : plan_.actions) {
    PLINGER_REQUIRE(a.rank >= 0 && a.rank < nprocs,
                    "FaultPlan: action rank out of range");
    PLINGER_REQUIRE(a.occurrence >= 1, "FaultPlan: occurrence is 1-based");
    PLINGER_REQUIRE(a.kind != FaultKind::delay_message ||
                        a.delay_seconds >= 0.0,
                    "FaultPlan: negative delay");
  }
}

FaultInjectingWorld::~FaultInjectingWorld() = default;  // joins delayed_

bool FaultInjectingWorld::is_killed(int rank) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rank >= 0 && rank < size() &&
         killed_[static_cast<std::size_t>(rank)] != 0;
}

std::vector<InjectedFault> FaultInjectingWorld::injected() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return log_;
}

std::size_t FaultInjectingWorld::n_fired() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const char f : fired_) n += f != 0;
  return n;
}

void FaultInjectingWorld::check_alive(int rank) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (rank >= 0 && rank < size() &&
      killed_[static_cast<std::size_t>(rank)] != 0) {
    throw RankKilled("rank " + std::to_string(rank) +
                     " was killed by fault injection");
  }
}

void FaultInjectingWorld::hold_for_rendezvous(int from) const {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      bool pending_other = false;
      for (std::size_t i = 0; i < plan_.actions.size(); ++i) {
        if (fired_[i] == 0 && plan_.actions[i].rank != from) {
          pending_other = true;
          break;
        }
      }
      if (!pending_other) return;
    }
    // Valve: a plan that can no longer fire (e.g. its target died to an
    // earlier action) must not hang the run.
    if (std::chrono::steady_clock::now() - t0 > std::chrono::seconds(5)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void FaultInjectingWorld::kill(int rank, int tag, std::size_t ik,
                               FaultKind kind) {
  // Caller holds no lock.  Mark dead first so concurrent sends by the
  // same rank fail fast and sends to it vanish, end its receives, then
  // notify the master.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    killed_[static_cast<std::size_t>(rank)] = 1;
    log_.push_back(InjectedFault{kind, rank, tag, ik});
  }
  const RankKilled death("rank " + std::to_string(rank) +
                         " killed by fault injection at tag " +
                         std::to_string(tag));
  close_mailbox(rank, std::make_exception_ptr(death));
  if (plan_.notify_on_kill && rank != 0) notify_worker_lost(rank);
  throw death;
}

void FaultInjectingWorld::send(int from, int to, int tag,
                               std::span<const double> data) {
  check_alive(from);
  if (plan_.hold_healthy_results && tag == 4) hold_for_rendezvous(from);
  const std::size_t ik = payload_ik(tag, data);

  bool deliver = true;
  bool kill_before = false;
  bool kill_after = false;
  bool hold_header = false;  ///< tag-4 of a delayed pair: stash only
  int copies = 1;
  double delay = -1.0;       ///< >= 0: deliver via helper thread
  HeldHeader released;       ///< delayed tag-4 to deliver before tag-5
  bool have_released = false;
  bool dup_pair = false;     ///< tag-5 closing a duplicated pair
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (killed_[static_cast<std::size_t>(to)] != 0) {
      return;  // the target process is gone; the message vanishes
    }
    const auto f = static_cast<std::size_t>(from);
    FaultKind kind{};
    bool match = false;
    double action_delay = 0.0;
    // A drop/duplicate/delay/kill-after of a tag-4 header extends to
    // the paired tag-5 payload: the two-record result travels as one
    // unit on the wire, and splitting it would wedge the master in a
    // receive the plan never intended.
    if (tag == 5 && pending_payload_set_[f]) {
      kind = pending_payload_[f];
      pending_payload_set_[f] = 0;
      match = true;
      if (held_header_set_[f] && (kind == FaultKind::delay_message ||
                                  kind == FaultKind::duplicate_message)) {
        released = std::move(held_header_[f]);
        held_header_set_[f] = 0;
        have_released = true;
        action_delay = released.delay_seconds;
        if (kind == FaultKind::duplicate_message) {
          // The whole pair replays after this payload: P, then H, P
          // again — never two headers back to back, which would read
          // as a headerless payload to the master.
          dup_pair = true;
          match = false;
        }
      }
    } else {
      for (std::size_t i = 0; i < plan_.actions.size(); ++i) {
        const FaultAction& a = plan_.actions[i];
        if (fired_[i]) continue;
        if (a.rank != from) continue;
        if (a.tag != kAnyTag && a.tag != tag) continue;
        if (a.ik != 0 && a.ik != ik) continue;
        if (++sends_seen_[i] <
            static_cast<std::uint64_t>(a.occurrence)) {
          continue;
        }
        fired_[i] = 1;
        kind = a.kind;
        action_delay = a.delay_seconds;
        match = true;
        if (tag == 4 && kind != FaultKind::kill_before_send) {
          pending_payload_[f] = kind;
          pending_payload_set_[f] = 1;
          if (kind == FaultKind::kill_after_send) {
            match = false;  // the rank dies after the payload instead
          } else if (kind == FaultKind::delay_message) {
            held_header_[f] = HeldHeader{
                to, a.delay_seconds,
                std::vector<double>(data.begin(), data.end())};
            held_header_set_[f] = 1;
            hold_header = true;
            match = false;
            log_.push_back(InjectedFault{kind, from, tag, ik});
          } else if (kind == FaultKind::duplicate_message) {
            // Deliver the header once now and stash a copy: the
            // duplicate pair is emitted when the tag-5 closes it.
            held_header_[f] = HeldHeader{
                to, 0.0, std::vector<double>(data.begin(), data.end())};
            held_header_set_[f] = 1;
            match = false;
            log_.push_back(InjectedFault{kind, from, tag, ik});
          }
        }
        break;
      }
    }
    if (match) {
      switch (kind) {
        case FaultKind::kill_before_send:
          kill_before = true;
          break;
        case FaultKind::kill_after_send:
          kill_after = true;
          break;
        case FaultKind::drop_message:
          deliver = false;
          log_.push_back(InjectedFault{kind, from, tag, ik});
          break;
        case FaultKind::duplicate_message:
          copies = 2;
          log_.push_back(InjectedFault{kind, from, tag, ik});
          break;
        case FaultKind::delay_message:
          delay = action_delay;
          log_.push_back(InjectedFault{kind, from, tag, ik});
          break;
      }
    }
  }

  if (kill_before) {
    kill(from, tag, ik, FaultKind::kill_before_send);  // throws
  }
  if (hold_header || !deliver) return;
  if (delay >= 0.0 && !kill_after) {
    // Deliver later from a helper thread (joined in the destructor); a
    // released header travels first so per-source order is preserved.
    std::vector<double> copy(data.begin(), data.end());
    const std::lock_guard<std::mutex> lock(mutex_);
    delayed_.emplace_back([this, from, to, tag, copy = std::move(copy),
                           delay, released = std::move(released),
                           have_released] {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      if (have_released) {
        InProcWorld::send(from, released.to, 4, released.data);
      }
      InProcWorld::send(from, to, tag, copy);
    });
    return;
  }
  if (dup_pair) {
    InProcWorld::send(from, to, tag, data);
    InProcWorld::send(from, released.to, 4, released.data);
    InProcWorld::send(from, to, tag, data);
    return;
  }
  for (int c = 0; c < copies; ++c) {
    InProcWorld::send(from, to, tag, data);
  }
  if (kill_after) {
    kill(from, tag, ik, FaultKind::kill_after_send);  // throws
  }
}

}  // namespace plinger::mp
