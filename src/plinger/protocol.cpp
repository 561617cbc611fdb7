#include "plinger/protocol.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/timing.hpp"
#include "plinger/records.hpp"

namespace plinger::parallel {

MasterStats run_master(mp::PassContext& ctx, const KSchedule& schedule,
                       const RunSetup& setup, store::RunIdentity identity,
                       const ResultSink& sink, TraceRecorder* trace,
                       const StopPredicate& stop_early) {
  PLINGER_REQUIRE(ctx.is_master(), "run_master called on a worker rank");
  const int n_workers = ctx.world->size() - 1;
  PLINGER_REQUIRE(n_workers >= 1, "run_master: no workers");
  const FaultConfig& fc = setup.fault;
  const bool timed = fc.timeout_seconds > 0.0;

  // Broadcast initial data to workers (tag 1, 5 doubles), derived from
  // the run: tau_end, lmax_cap, identity high half, grid size, identity
  // low half.  Only the identity is checked; the rest is informational.
  const auto [id_hi, id_lo] = identity.halves();
  const double init[5] = {setup.tau_end, setup.lmax_cap, id_hi,
                          static_cast<double>(schedule.size()), id_lo};
  mp::mybcastreal(ctx, init, kTagInit);

  MasterStats mstats;
  std::size_t ik = schedule.ik_first();  // next fresh wavenumber (0: none)
  // Two recovery queues with different urgency: `requeue` holds modes
  // reassigned after a worker death/stall — they were already issued
  // once, so they re-enter the schedule largest-k-first (§5.2) and are
  // merged against the fresh chain by wavenumber.  `deferred` holds
  // integration-failure retries (tag-7 code 0): same inputs, same
  // worker pool, so retrying immediately mostly burns CPU — they back
  // off until everything else has been issued.
  std::deque<std::size_t> requeue;
  std::deque<std::size_t> deferred;
  std::map<std::size_t, int> attempts;   // integration failures per ik
  std::map<std::size_t, int> reassigns;  // death/stall reassigns per ik
  std::set<std::size_t> done;            // sunk iks (dedup on recovery)
  const auto nslots = static_cast<std::size_t>(n_workers) + 1;
  std::vector<std::size_t> assigned(nslots, 0);  // outstanding ik (0: idle)
  std::vector<double> deadline(nslots, 0.0);     // absolute wallclock
  std::vector<char> dead(nslots, 0);     // declared lost
  std::vector<char> settled(nslots, 0);  // stopped or dead
  // Idle but not stopped: a worker that found the issue queues dry
  // while other assignments were still outstanding.  It is kept waiting
  // (no reply yet) because any outstanding mode may bounce back —
  // failure report, stall, death — and recovery needs somewhere to run;
  // stopping it here is how a reassigned mode ends up with no worker
  // left to take it.
  std::vector<char> parked(nslots, 0);
  int n_settled = 0;
  std::size_t outstanding = 0;  // live assignments without a reply yet
  bool stopping = false;        // stop predicate fired: no new work
  std::vector<double> header(kHeaderLength, 0.0);

  // Deadline scale: integration cost grows with k (lmax ~ k * tau0), so
  // a mode's allowance is the configured timeout scaled by k / kmax.
  double kmax = 0.0;
  for (std::size_t i = schedule.ik_first(); i != 0; i = schedule.ik_next(i)) {
    kmax = std::max(kmax, schedule.k_of_ik(i));
  }
  const auto mode_deadline = [&](std::size_t ikm) {
    const double scale =
        (kmax > 0.0 && ikm != 0) ? schedule.k_of_ik(ikm) / kmax : 1.0;
    return wallclock_seconds() + fc.timeout_floor_seconds +
           fc.timeout_seconds * scale;
  };
  if (timed) {
    // Until its first request arrives, a worker gets the full allowance;
    // this catches workers that die before ever asking for work.
    const double d0 = wallclock_seconds() + fc.timeout_floor_seconds +
                      fc.timeout_seconds;
    for (int w = 1; w <= n_workers; ++w) {
      deadline[static_cast<std::size_t>(w)] = d0;
    }
  }

  // Wavenumbers that would still have been issued, for the early-stop
  // and degraded-completion accounting.
  const auto count_unissued = [&] {
    std::size_t n = requeue.size() + deferred.size();
    for (std::size_t i = ik; i != 0; i = schedule.ik_next(i)) ++n;
    return n;
  };

  const auto queue_erase = [](std::deque<std::size_t>& q, std::size_t v) {
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (*it == v) {
        q.erase(it);
        return;
      }
    }
  };

  // A dead/stalled worker's outstanding mode re-enters the schedule —
  // unless it has already been computed by someone else, the run is
  // winding down, or the mode has now eaten max_reassignments workers
  // (then it is quarantined as poison rather than handed a new victim).
  const auto reassign_mode = [&](std::size_t ikm) {
    if (ikm == 0 || done.count(ikm) != 0) return;
    if (stopping) {
      ++mstats.n_unissued;
      return;
    }
    if (++reassigns[ikm] > fc.max_reassignments) {
      mstats.quarantined_ik.push_back(ikm);
      if (trace) trace->record_fault(FaultEvent::Kind::quarantine, 0, ikm);
      return;
    }
    const double km = schedule.k_of_ik(ikm);
    auto it = requeue.begin();
    while (it != requeue.end() && schedule.k_of_ik(*it) >= km) ++it;
    requeue.insert(it, ikm);
    ++mstats.n_reassigned;
    if (trace) trace->record_fault(FaultEvent::Kind::reassign, 0, ikm);
  };

  const auto declare_lost = [&](int w, FaultEvent::Kind kind) {
    const auto ws = static_cast<std::size_t>(w);
    if (dead[ws]) return;
    dead[ws] = 1;
    mstats.lost_workers.push_back(w);
    if (trace) trace->record_fault(kind, w, assigned[ws]);
    if (assigned[ws] != 0) {
      --outstanding;
      reassign_mode(assigned[ws]);
      assigned[ws] = 0;
    }
    if (!settled[ws]) {
      settled[ws] = 1;
      parked[ws] = 0;
      ++n_settled;
    }
  };

  // A stall is softer than a death notice: the worker may merely be
  // slow, so it also gets a stop message — if it ever wakes up it exits
  // cleanly instead of blocking on a reply that will never come (and
  // its late result, if any, is deduplicated on arrival).
  const auto declare_stalled = [&](int w) {
    try {
      const double y = 0.0;
      mp::mysendreal(ctx, std::span<const double>(&y, 1), kTagStop, w);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    declare_lost(w, FaultEvent::Kind::stall_timeout);
  };

  // Next mode to issue: recovery requeue and fresh chain merged
  // largest-k-first, deferred retries only once both are dry.
  const auto pop_next = [&]() -> std::size_t {
    if (stopping) return 0;
    if (!requeue.empty() &&
        (ik == 0 || schedule.k_of_ik(requeue.front()) >=
                        schedule.k_of_ik(ik))) {
      const std::size_t n = requeue.front();
      requeue.pop_front();
      return n;
    }
    if (ik != 0) {
      const std::size_t n = ik;
      ik = schedule.ik_next(ik);
      return n;
    }
    if (!requeue.empty()) {
      const std::size_t n = requeue.front();
      requeue.pop_front();
      return n;
    }
    if (!deferred.empty()) {
      const std::size_t n = deferred.front();
      deferred.pop_front();
      return n;
    }
    return 0;
  };

  const auto work_pending = [&] {
    return (!stopping &&
            (ik != 0 || !requeue.empty() || !deferred.empty())) ||
           outstanding > 0;
  };

  const auto issue_to = [&](int w, std::size_t next) {
    const auto ws = static_cast<std::size_t>(w);
    if (trace) trace->record_assign(next, w);
    const double y = static_cast<double>(next);
    ++outstanding;
    assigned[ws] = next;
    parked[ws] = 0;
    if (timed) deadline[ws] = mode_deadline(next);
    mp::mysendreal(ctx, std::span<const double>(&y, 1), kTagAssign, w);
  };
  const auto stop_worker = [&](int w) {
    const auto ws = static_cast<std::size_t>(w);
    const double y = 0.0;
    mp::mysendreal(ctx, std::span<const double>(&y, 1), kTagStop, w);
    settled[ws] = 1;
    parked[ws] = 0;
    ++n_settled;
  };

  // Serve until nothing more is issuable, every assignment has reported
  // back, and every worker has been stopped or declared dead.  (A
  // residual schedule from a resumed run may issue fewer wavenumbers
  // than the grid has — or none at all, in which case this only stops
  // the workers.)
  try {
    for (;;) {
      // Parked workers first: unpark them onto recovery work that has
      // appeared since, or stop them once nothing is outstanding
      // anymore (or the run is winding down).
      for (int w = 1; w <= n_workers; ++w) {
        const auto ws = static_cast<std::size_t>(w);
        if (!parked[ws] || settled[ws]) continue;
        const std::size_t next = pop_next();
        if (next != 0) {
          issue_to(w, next);
        } else if (outstanding == 0 || stopping) {
          stop_worker(w);
        }
      }
      if (!work_pending() && n_settled >= n_workers) break;
      if (n_settled == n_workers) {
        // Work remains but nobody is left to run it: complete degraded.
        mstats.all_workers_lost =
            static_cast<int>(mstats.lost_workers.size()) == n_workers;
        mstats.n_unissued = count_unissued();
        break;
      }

      int msgtype = 0, itid = 0;
      if (timed) {
        // Bounded wait: sleep no further than the earliest deadline of
        // an unsettled worker, and declare that worker lost if nothing
        // at all arrives by then.
        bool got = false;
        while (!got) {
          double earliest = 0.0;
          int w_earliest = 0;
          for (int w = 1; w <= n_workers; ++w) {
            const auto ws = static_cast<std::size_t>(w);
            // A parked worker is idle by the master's own choice: it
            // has no assignment and therefore no deadline to miss.
            if (settled[ws] || parked[ws]) continue;
            if (w_earliest == 0 || deadline[ws] < earliest) {
              earliest = deadline[ws];
              w_earliest = w;
            }
          }
          // Nobody left with a deadline: either everyone settled, or
          // only parked workers remain and the drain at the top of the
          // loop owes them work or a stop.
          if (w_earliest == 0) break;
          const double wait =
              std::max(earliest - wallclock_seconds(), 0.0);
          const std::optional<mp::ProbeResult> pr = ctx.world->probe_for(
              ctx.mytid, mp::kAnySource, mp::kAnyTag, wait);
          if (pr) {
            msgtype = pr->tag;
            itid = pr->source;
            got = true;
          } else {
            declare_stalled(w_earliest);
          }
        }
        if (!got) continue;  // re-evaluate the loop condition
      } else {
        mp::mycheckany(ctx, msgtype, itid);
      }
      const auto its = static_cast<std::size_t>(itid);

      bool want_reply = false;
      if (msgtype == kTagRequest) {
        // Worker is ready for its first ik; the message carries no data.
        double dummy = 0.0;
        mp::myrecvreal(ctx, std::span<double>(&dummy, 1), kTagRequest, itid);
        // A settled worker's late request needs no reply (its stop or
        // its death is already in the books), and neither does a
        // duplicated request from a worker that already holds work.
        want_reply = !settled[its] && assigned[its] == 0;
      } else if (msgtype == kTagHeader) {
        // First part of a result.
        mp::myrecvreal(ctx, header, kTagHeader, itid);
        // The payload (or, when the sender died mid-result, its tag-7
        // death notice) is the next message from this sender; probe
        // reports the true length, so size the buffer from the probe
        // (MPI_Get_count idiom).
        std::optional<mp::ProbeResult> pr;
        if (timed) {
          const double wait =
              std::max(deadline[its] - wallclock_seconds(),
                       fc.timeout_floor_seconds);
          pr = ctx.world->probe_for(ctx.mytid, itid, mp::kAnyTag, wait);
        } else {
          pr = ctx.world->probe(ctx.mytid, itid, mp::kAnyTag);
        }
        if (!pr) {
          // Header arrived but the payload never did: the sender
          // stalled mid-result.  The half-result is discarded.
          declare_stalled(itid);
        } else if (pr->tag == kTagError) {
          // Died between header and payload; fall through to the
          // notice handling below on the next loop iteration.
        } else if (pr->tag != kTagPayload) {
          throw mp::ProtocolError(
              "master: expected payload from worker " +
              std::to_string(itid) + ", got tag " +
              std::to_string(pr->tag));
        } else {
          std::vector<double> payload(pr->length, 0.0);
          mp::myrecvreal(ctx, payload, kTagPayload, itid);

          std::size_t ik_done_now = 0;
          const boltzmann::ModeResult result =
              unpack_records(header, payload, ik_done_now);
          // Live completion: this worker is still on the books and this
          // result settles its current assignment.  Anything else is a
          // duplicate or the late result of a worker already declared
          // lost — still sunk (once) but never re-counted.
          const bool live = !settled[its] && assigned[its] == ik_done_now;
          if (live) {
            assigned[its] = 0;
            --outstanding;
          }
          if (done.insert(ik_done_now).second) {
            queue_erase(requeue, ik_done_now);
            queue_erase(deferred, ik_done_now);
            sink(ik_done_now, result);
            // The sink may have checkpointed this result; ask whether
            // to wind down (the store's flush-then-stop hook, or an
            // external budget).
            if (!stopping && stop_early && stop_early()) {
              stopping = true;
              mstats.stopped_early = true;
              mstats.n_unissued = count_unissued();
            }
          }
          want_reply = live;
        }
      } else if (msgtype == kTagError) {
        // Failure path: {ik, code}.  Code 0 (or the legacy one-double
        // form) is an integration failure from a live worker; code 1 is
        // a death notice — the transport telling us the sender is gone.
        std::array<double, 2> err{0.0, kFailureCodeRetry};
        const std::size_t nerr = mp::myrecvreal(ctx, err, kTagError, itid);
        const double code = nerr >= 2 ? err[1] : kFailureCodeRetry;
        const auto ik_failed =
            static_cast<std::size_t>(std::llround(err[0]));
        if (code == kFailureCodeWorkerLost) {
          declare_lost(itid, FaultEvent::Kind::worker_lost);
        } else {
          const bool live = !settled[its] && assigned[its] == ik_failed;
          if (live) {
            assigned[its] = 0;
            --outstanding;
            if (stopping) {
              ++mstats.n_unissued;  // winding down: no further retries
            } else if (done.count(ik_failed) != 0) {
              // Already computed by another worker after a reassignment.
            } else if (++attempts[ik_failed] <= fc.max_retries) {
              deferred.push_back(ik_failed);
              ++mstats.n_requeued;
            } else {
              mstats.failed_ik.push_back(ik_failed);
            }
          }
          // !live: a duplicated report, or the late report of a worker
          // already declared lost (its mode was reassigned) — drop it.
          want_reply = live;
        }
      } else {
        throw mp::ProtocolError("master received unexpected tag " +
                                std::to_string(msgtype));
      }

      if (want_reply) {
        const std::size_t next = pop_next();
        if (next != 0) {
          // Reply with the next wavenumber (tag 3).
          issue_to(itid, next);
        } else if (!stopping && outstanding > 0) {
          // Queues are dry but other assignments are still out, and any
          // of them may bounce back and need this worker: park it (the
          // reply is deferred to the top-of-loop drain).
          parked[its] = 1;
          if (timed) {
            deadline[its] = std::numeric_limits<double>::infinity();
          }
        } else {
          // No more wavenumbers: tell the worker to stop (tag 6).
          stop_worker(itid);
        }
      }
    }
  } catch (...) {
    // A master-side failure (a sink exception — e.g. the checkpoint
    // store surfacing a write error — or a protocol violation) must not
    // strand the workers: each is blocked in, or headed for, the
    // receive of its next assignment, and the caller's joins would
    // deadlock.  Send every still-running worker a stop before
    // unwinding; in-flight results simply stay undelivered.
    for (int w = 1; w <= n_workers; ++w) {
      if (settled[static_cast<std::size_t>(w)]) continue;
      try {
        const double y = 0.0;
        mp::mysendreal(ctx, std::span<const double>(&y, 1), kTagStop, w);
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
    }
    throw;
  }
  return mstats;
}

void run_worker(mp::PassContext& ctx, const KSchedule& schedule,
                store::RunIdentity identity, const EvolveFn& evolve,
                TraceRecorder* trace) {
  PLINGER_REQUIRE(!ctx.is_master(), "run_worker called on the master rank");

  // Receive initial data from master (tag 1) and admit the run only if
  // it is this worker's own: the identity covers everything that shapes
  // a result.  A refusal reaches the master as this worker's death
  // notice, so it settles the rank at once instead of waiting on it.
  std::array<double, 5> init{};
  mp::mycheckone(ctx, kTagInit, ctx.mastid);
  mp::myrecvreal(ctx, init, kTagInit, ctx.mastid);
  const std::optional<store::RunIdentity> broadcast =
      store::RunIdentity::from_halves(init[2], init[4]);
  if (broadcast != identity) {
    const double notice[2] = {0.0, kFailureCodeWorkerLost};
    mp::mysendreal(ctx, notice, kTagError, ctx.mastid);
    throw Error("worker: the master broadcast run " +
                (broadcast ? broadcast->hex() : std::string("(unreadable)")) +
                ", but this worker's inputs give run " + identity.hex() +
                "; refusing to compute modes of another run");
  }

  // Ask for a wavenumber (tag 2; no data, 1 double as in the paper).
  const double zero = 0.0;
  mp::mysendreal(ctx, std::span<const double>(&zero, 1), kTagRequest,
                 ctx.mastid);

  for (;;) {
    // Receive next ik (tag 3) or stop (tag 6).
    int msgtype = 0;
    mp::mychecktid(ctx, msgtype, ctx.mastid);
    double value = 0.0;
    mp::myrecvreal(ctx, std::span<double>(&value, 1), msgtype, ctx.mastid);
    if (msgtype == kTagStop) break;
    PLINGER_REQUIRE(msgtype == kTagAssign,
                    "worker: unexpected tag from master");

    const auto ik = static_cast<std::size_t>(std::llround(value));
    boltzmann::EvolveRequest req;
    req.k = schedule.k_of_ik(ik);
    const double t_start = trace ? trace->now() : 0.0;
    const double cpu0 = trace ? thread_cpu_seconds() : 0.0;
    try {
      const boltzmann::ModeResult result = evolve(req);
      if (trace) {
        trace->record_span(ik, req.k, ctx.mytid, /*completed=*/true,
                           t_start, trace->now(), result.cpu_seconds,
                           result.flops);
      }
      const auto header = pack_header(ik, result);
      const auto payload = pack_payload(ik, result);
      mp::mysendreal(ctx, header, kTagHeader, ctx.mastid);
      mp::mysendreal(ctx, payload, kTagPayload, ctx.mastid);
    } catch (const std::exception&) {
      // Report the failure (tag 7) and keep serving: whatever the evolve
      // step threw (a numerical failure, std::bad_alloc), the master
      // retries the mode and then records it failed.
      if (trace) {
        trace->record_span(ik, req.k, ctx.mytid, /*completed=*/false,
                           t_start, trace->now(),
                           thread_cpu_seconds() - cpu0, 0);
      }
      const double report[2] = {static_cast<double>(ik), kFailureCodeRetry};
      mp::mysendreal(ctx, std::span<const double>(report, 2), kTagError,
                     ctx.mastid);
    }
  }
}

}  // namespace plinger::parallel
