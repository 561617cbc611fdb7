#include "plinger/trace.hpp"

#include <algorithm>
#include <cmath>

#include "common/timing.hpp"
#include "io/ascii_table.hpp"

namespace plinger::parallel {

TraceRecorder::TraceRecorder() : origin_(wallclock_seconds()) {}

double TraceRecorder::now() const { return wallclock_seconds() - origin_; }

void TraceRecorder::record_assign(std::size_t ik, int worker, double t) {
  if (t < 0.0) t = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  trace_.assigns.push_back(AssignEvent{ik, worker, t});
  enqueued_[ik] = t;
}

void TraceRecorder::record_span(std::size_t ik, double k, int worker,
                                bool completed, double t_start,
                                double t_finish, double cpu_seconds,
                                std::uint64_t flops) {
  ModeSpan span;
  span.ik = ik;
  span.k = k;
  span.worker = worker;
  span.completed = completed;
  span.t_start = t_start;
  span.t_finish = t_finish;
  span.cpu_seconds = cpu_seconds;
  span.flops = flops;
  const std::lock_guard<std::mutex> lock(mutex_);
  span.attempt = ++attempts_[ik];
  const auto it = enqueued_.find(ik);
  if (it != enqueued_.end()) span.t_enqueue = it->second;
  trace_.spans.push_back(span);
}

void TraceRecorder::record_message(int tag, int source, int dest,
                                   std::size_t bytes, double t) {
  if (t < 0.0) t = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  trace_.messages.push_back(MessageEvent{tag, source, dest, bytes, t});
}

void TraceRecorder::record_fault(FaultEvent::Kind kind, int worker,
                                 std::size_t ik, double t) {
  if (t < 0.0) t = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  trace_.faults.push_back(FaultEvent{kind, worker, ik, t});
}

Trace TraceRecorder::finish(int n_workers, double t_end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  trace_.n_workers = n_workers;
  if (t_end >= 0.0) {
    trace_.t_end = t_end;
  } else {
    trace_.t_end = wallclock_seconds() - origin_;
    for (const ModeSpan& s : trace_.spans) {
      trace_.t_end = std::max(trace_.t_end, s.t_finish);
    }
  }
  Trace out = std::move(trace_);
  trace_ = Trace{};
  attempts_.clear();
  enqueued_.clear();
  return out;
}

RunReport make_run_report(const Trace& trace) {
  RunReport rep;
  rep.wallclock_seconds = trace.t_end;
  rep.n_workers = trace.n_workers;

  // Per-worker rollup: every worker 1..n plus any id spans mention.
  std::map<int, WorkerTimeline> by_worker;
  for (int w = 1; w <= trace.n_workers; ++w) by_worker[w].worker = w;
  for (const ModeSpan& s : trace.spans) {
    WorkerTimeline& wt = by_worker[s.worker];
    wt.worker = s.worker;
    if (s.completed) {
      ++wt.n_completed;
      ++rep.n_modes_completed;
    } else {
      ++wt.n_failed;
    }
    ++rep.n_attempts;
    const double dur = s.t_finish - s.t_start;
    wt.busy_seconds += dur;
    wt.cpu_seconds += s.cpu_seconds;
    wt.flops += s.flops;
    if (wt.n_completed + wt.n_failed == 1) {
      wt.first_start = s.t_start;
      wt.last_finish = s.t_finish;
    } else {
      wt.first_start = std::min(wt.first_start, s.t_start);
      wt.last_finish = std::max(wt.last_finish, s.t_finish);
    }
  }
  for (auto& [w, wt] : by_worker) {
    wt.idle_seconds = std::max(0.0, rep.wallclock_seconds - wt.busy_seconds);
    wt.idle_tail_seconds =
        std::max(0.0, rep.wallclock_seconds - wt.last_finish);
    wt.efficiency = rep.wallclock_seconds > 0.0
                        ? wt.busy_seconds / rep.wallclock_seconds
                        : 0.0;
    rep.total_busy_seconds += wt.busy_seconds;
    rep.total_cpu_seconds += wt.cpu_seconds;
    rep.total_flops += wt.flops;
    rep.idle_tail_seconds =
        std::max(rep.idle_tail_seconds, wt.idle_tail_seconds);
    rep.mean_idle_tail_seconds += wt.idle_tail_seconds;
    rep.workers.push_back(wt);
  }
  if (!rep.workers.empty()) {
    rep.mean_idle_tail_seconds /= static_cast<double>(rep.workers.size());
  }
  const double denom =
      rep.wallclock_seconds * static_cast<double>(std::max(1, rep.n_workers));
  rep.parallel_efficiency = denom > 0.0 ? rep.total_cpu_seconds / denom : 0.0;

  for (const MessageEvent& m : trace.messages) {
    ++rep.n_messages;
    rep.n_bytes += m.bytes;
    rep.max_message_bytes =
        std::max<std::uint64_t>(rep.max_message_bytes, m.bytes);
    const std::size_t slot =
        (m.tag >= 1 && m.tag <= 7) ? static_cast<std::size_t>(m.tag) : 0;
    ++rep.per_tag[slot];
    rep.per_tag_bytes[slot] += m.bytes;
  }
  if (rep.total_cpu_seconds > 0.0) {
    const LinkModel link;
    const double transit =
        static_cast<double>(rep.n_messages) * link.latency_seconds +
        static_cast<double>(rep.n_bytes) / link.bytes_per_second;
    rep.message_overhead_ratio = transit / rep.total_cpu_seconds;
  }
  for (const FaultEvent& f : trace.faults) {
    switch (f.kind) {
      case FaultEvent::Kind::worker_lost:
      case FaultEvent::Kind::stall_timeout:
        ++rep.n_workers_lost;
        break;
      case FaultEvent::Kind::reassign:
        ++rep.n_reassigned;
        break;
      case FaultEvent::Kind::quarantine:
        ++rep.n_quarantined;
        break;
    }
  }
  return rep;
}

void write_ascii_report(std::ostream& os, const RunReport& rep) {
  os << "# run-trace report (paper Figure 1 / sections 4, 5.2)\n";
  io::AsciiTableWriter table(
      os, {"worker", "modes", "failed", "busy_s", "idle_s", "tail_s",
           "cpu_s", "efficiency", "mflops"},
      6);
  for (const WorkerTimeline& w : rep.workers) {
    const double dur = w.busy_seconds;
    const double mflops =
        dur > 0.0 ? static_cast<double>(w.flops) / dur / 1e6 : 0.0;
    table.row(std::array<double, 9>{
        static_cast<double>(w.worker), static_cast<double>(w.n_completed),
        static_cast<double>(w.n_failed), w.busy_seconds, w.idle_seconds,
        w.idle_tail_seconds, w.cpu_seconds, w.efficiency, mflops});
  }
  os << "# wallclock_s          " << rep.wallclock_seconds << "\n"
     << "# modes completed      " << rep.n_modes_completed << " ("
     << rep.n_attempts << " attempts)\n"
     << "# total cpu_s          " << rep.total_cpu_seconds << "\n"
     << "# parallel efficiency  " << rep.parallel_efficiency << "\n"
     << "# idle tail_s max/mean " << rep.idle_tail_seconds << " / "
     << rep.mean_idle_tail_seconds << "\n"
     << "# messages             " << rep.n_messages << " (" << rep.n_bytes
     << " bytes, max " << rep.max_message_bytes << ")\n"
     << "# per tag 1..7         ";
  for (std::size_t tag = 1; tag < rep.per_tag.size(); ++tag) {
    os << rep.per_tag[tag] << (tag + 1 < rep.per_tag.size() ? " " : "");
  }
  os << "\n# msg overhead / cpu   " << rep.message_overhead_ratio << "\n";
  if (rep.n_workers_lost || rep.n_reassigned || rep.n_quarantined) {
    os << "# faults               " << rep.n_workers_lost
       << " workers lost, " << rep.n_reassigned << " modes reassigned, "
       << rep.n_quarantined << " quarantined\n";
  }
}

namespace {

/// Microseconds for the trace_event "ts"/"dur" fields.
double usec(double seconds) { return seconds * 1e6; }

}  // namespace

void write_chrome_trace(std::ostream& os, const Trace& trace) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  for (const ModeSpan& s : trace.spans) {
    sep();
    os << "{\"name\":\"ik " << s.ik << (s.completed ? "" : " FAILED")
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.worker
       << ",\"ts\":" << usec(s.t_start)
       << ",\"dur\":" << usec(s.t_finish - s.t_start)
       << ",\"args\":{\"k\":" << s.k << ",\"attempt\":" << s.attempt
       << ",\"cpu_s\":" << s.cpu_seconds << ",\"flops\":" << s.flops
       << ",\"queue_wait_s\":"
       << (s.t_enqueue > 0.0 ? s.t_start - s.t_enqueue : 0.0) << "}}";
  }
  for (const AssignEvent& a : trace.assigns) {
    sep();
    os << "{\"name\":\"assign ik " << a.ik
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":0,\"ts\":"
       << usec(a.t) << ",\"args\":{\"worker\":" << a.worker << "}}";
  }
  for (const MessageEvent& m : trace.messages) {
    sep();
    os << "{\"name\":\"tag " << m.tag
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << m.dest
       << ",\"ts\":" << usec(m.t) << ",\"args\":{\"source\":" << m.source
       << ",\"dest\":" << m.dest << ",\"bytes\":" << m.bytes << "}}";
  }
  for (const FaultEvent& f : trace.faults) {
    const char* name = "fault";
    switch (f.kind) {
      case FaultEvent::Kind::worker_lost: name = "worker lost"; break;
      case FaultEvent::Kind::stall_timeout: name = "stall timeout"; break;
      case FaultEvent::Kind::reassign: name = "reassign"; break;
      case FaultEvent::Kind::quarantine: name = "quarantine"; break;
    }
    sep();
    os << "{\"name\":\"" << name
       << "\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":"
       << usec(f.t) << ",\"args\":{\"worker\":" << f.worker
       << ",\"ik\":" << f.ik << "}}";
  }
  // Human-readable thread names: master = rank 0, workers above.
  sep();
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"master\"}}";
  for (int w = 1; w <= trace.n_workers; ++w) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << w
       << ",\"args\":{\"name\":\"worker " << w << "\"}}";
  }
  os << "\n]}\n";
}

}  // namespace plinger::parallel
