#include "mp/inproc.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

namespace plinger::mp {

namespace {

/// The longest wait probe_for times, about 32 years.  wait_for keeps
/// its deadline in int64 nanoseconds, which overflow past about 9.2e9 s;
/// a longer timeout is no deadline at all.
constexpr double kMaxTimedWaitSeconds = 1e9;

}  // namespace

InProcWorld::InProcWorld(int nprocs, Library lib) : lib_(lib) {
  PLINGER_REQUIRE(nprocs >= 1 && nprocs <= 100000,
                  "InProcWorld: nprocs out of range");
  boxes_.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
}

void InProcWorld::check_rank(int rank) const {
  PLINGER_REQUIRE(rank >= 0 && rank < size(), "InProcWorld: bad rank");
}

void InProcWorld::send(int from, int to, int tag,
                       std::span<const double> data) {
  check_rank(from);
  check_rank(to);
  PLINGER_REQUIRE(tag >= 0, "send: tag must be non-negative");
  Message msg;
  msg.tag = tag;
  msg.source = from;
  msg.payload.assign(data.begin(), data.end());
  const std::size_t bytes = msg.size_bytes();
  enqueue_local(to, std::move(msg));
  count_send(from, to, tag, bytes);
}

void InProcWorld::enqueue_local(int to, Message msg) {
  Mailbox& box = *boxes_[static_cast<std::size_t>(to)];
  const std::lock_guard<std::mutex> lock(box.mutex);
  if (box.closed) return;  // the rank is gone; its mail vanishes
  box.queue.push_back(std::move(msg));
  box.cv.notify_all();
}

void InProcWorld::close_mailbox(int rank, std::exception_ptr why) {
  check_rank(rank);
  Mailbox& box = *boxes_[static_cast<std::size_t>(rank)];
  const std::lock_guard<std::mutex> lock(box.mutex);
  if (!box.closed) box.closed = std::move(why);
  box.cv.notify_all();
}

void InProcWorld::count_send(int from, int to, int tag, std::size_t bytes) {
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.n_messages;
    stats_.n_bytes += bytes;
    stats_.max_message_bytes = std::max(stats_.max_message_bytes,
                                        static_cast<std::uint64_t>(bytes));
    const std::size_t slot =
        (tag >= 1 && tag <= 7) ? static_cast<std::size_t>(tag) : 0;
    ++stats_.per_tag[slot];
  }
  if (observer_) observer_(from, to, tag, bytes);
}

void InProcWorld::notify_worker_lost(int rank) {
  constexpr int kTag = 7;
  Message notice;
  notice.tag = kTag;
  notice.source = rank;
  notice.payload = {0.0, 1.0};
  const std::size_t bytes = notice.size_bytes();
  enqueue_local(0, std::move(notice));
  count_send(rank, 0, kTag, bytes);
}

void InProcWorld::set_send_observer(SendObserver observer) {
  observer_ = std::move(observer);
}

const Message* InProcWorld::find_match(const Mailbox& box, int source,
                                       int tag) const {
  for (const Message& m : box.queue) {
    const bool src_ok = (source == kAnySource) || (m.source == source);
    const bool tag_ok = (tag == kAnyTag) || (m.tag == tag);
    if (src_ok && tag_ok) return &m;
  }
  return nullptr;
}

const Message* InProcWorld::wait_match(const Mailbox& box,
                                       std::unique_lock<std::mutex>& lock,
                                       int source, int tag,
                                       double timeout_seconds) const {
  const Message* match = nullptr;
  const auto ready = [&] {
    match = find_match(box, source, tag);
    return match != nullptr || box.closed != nullptr;
  };
  if (timeout_seconds > kMaxTimedWaitSeconds) {
    box.cv.wait(lock, ready);
  } else if (!box.cv.wait_for(
                 lock,
                 std::chrono::duration<double>(std::max(timeout_seconds, 0.0)),
                 ready)) {
    return nullptr;
  }
  if (match == nullptr) std::rethrow_exception(box.closed);
  return match;
}

ProbeResult InProcWorld::probe(int rank, int source, int tag) const {
  return *probe_for(rank, source, tag,
                    std::numeric_limits<double>::infinity());
}

std::optional<ProbeResult> InProcWorld::probe_for(
    int rank, int source, int tag, double timeout_seconds) const {
  check_rank(rank);
  const Mailbox& box = *boxes_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lock(box.mutex);
  const Message* match =
      wait_match(box, lock, source, tag, timeout_seconds);
  if (match == nullptr) return std::nullopt;
  return ProbeResult{match->tag, match->source, match->payload.size()};
}

std::size_t InProcWorld::recv(int rank, int source, int tag,
                              std::span<double> out) {
  check_rank(rank);
  Mailbox& box = *boxes_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lock(box.mutex);
  const Message* match = wait_match(box, lock, source, tag,
                                    std::numeric_limits<double>::infinity());

  if (lib_ == Library::mplsim) {
    // The MPL restriction (paper §4): a receive must take the oldest
    // pending message from its source.
    for (const Message& m : box.queue) {
      if (m.source == match->source) {
        if (&m != match) {
          throw ProtocolError(
              "mplsim: receive would skip an earlier message from source " +
              std::to_string(match->source) + " (tag " +
              std::to_string(m.tag) + " pending before tag " +
              std::to_string(match->tag) + ")");
        }
        break;
      }
    }
  }

  const std::size_t n = std::min(out.size(), match->payload.size());
  std::copy_n(match->payload.begin(), n, out.begin());
  const std::size_t full = match->payload.size();
  // Erase the matched message.
  for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
    if (&*it == match) {
      box.queue.erase(it);
      break;
    }
  }
  return full;
}

TransportStats InProcWorld::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace plinger::mp
