// serve_mcmc: the spectrum daemon under an MCMC-like closed loop.
//
// The spectrum_serve stack (SpectrumService + SpectrumServer) runs
// in-process on an ephemeral loopback port with the daemon defaults.
// Two client connections each replay one chain of a seeded random walk
// over a lattice of lcdm cosmologies (omega_b x h); a chain sends its
// next request only after the previous reply, and a rejected proposal
// re-requests the current point.  The chains advance in lockstep, like
// the walkers of an ensemble sampler evaluated in parallel: both send
// step i, and neither sends step i + 1 before both have their replies.
// At mid-log the daemon restarts over the same journal directory.
//
// The lattice (20 points) is larger than the daemon's context cache (16)
// and smaller than its LRU (64): every spectrum is computed once per
// lifetime, later requests are LRU or journal hits, and a hit whose
// context was evicted still pays a context rebuild.  Lockstep makes the
// daemon's work a function of the log alone, which a model of its caches
// (daemon_work) predicts exactly; logs of different seeds carry the same
// work (make_log), so the seed changes the path, not the load.

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/timing.hpp"
#include "io/params.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "store/mode_result_store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace serve = plinger::serve;
namespace run = plinger::run;
namespace store = plinger::store;
using plinger::process_cpu_seconds;
using plinger::wallclock_seconds;

constexpr double kOmegaB[] = {0.040, 0.045, 0.050, 0.055, 0.060};
constexpr double kH[] = {0.60, 0.65, 0.70, 0.75};
constexpr int kNB = 5;
constexpr int kNH = 4;
constexpr int kLattice = kNB * kNH;
constexpr int kChains = 2;
constexpr std::size_t kLMax = 20;

// setup_s is the median over pairs (one per lifetime) of daemon
// constructions, this many made back to back after every replay: a pair
// takes about 25 us, and its cost flips between about 15 and 32 us every
// few milliseconds, so the samples are spread over the whole run.  The
// log's own restarts follow heavy work mid-replay and are not sampled.
constexpr int kSetupProbePairs = 40;

// Requests per chain and replay.  Longer logs rarely qualify (make_log):
// the daemon's work in them nearly always depends on arrival order.
constexpr std::size_t kRequestsPerChain = 150;

/// An untraced run replays the log at least this often (more while time
/// remains), so its latency percentiles rest on >= 1000 requests; the
/// reduced size of the self-test replays it once.
int min_replays(const Options& opt) { return opt.small ? 1 : 4; }

/// splitmix64: a fixed, portable generator, so a seed names one log on
/// every platform.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  int below(int n) {
    return static_cast<int>(uniform() * static_cast<double>(n));
  }
};

/// A synthetic log-likelihood peaked mid-lattice; only the walk uses it.
double log_like(int ib, int ih) {
  const double db = (ib - 2.0) / 1.6;
  const double dh = (ih - 1.5) / 1.3;
  return -0.5 * (db * db + dh * dh);
}

/// The request log: per chain, the lattice point of every request.
struct McmcLog {
  std::vector<std::vector<int>> chains;

  std::size_t requests() const {
    std::size_t n = 0;
    for (const auto& c : chains) n += c.size();
    return n;
  }
  std::size_t distinct() const {
    std::set<int> seen;
    for (const auto& c : chains) seen.insert(c.begin(), c.end());
    return seen.size();
  }
  std::uint64_t digest() const {  // FNV-1a over chain-major points
    std::uint64_t h = 1469598103934665603ull;
    for (const auto& c : chains) {
      for (int p : c) {
        h ^= static_cast<std::uint64_t>(p) + 1;
        h *= 1099511628211ull;
      }
      h ^= 0xff;
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// One Metropolis walk per chain: each step proposes a lattice
/// neighbour; a proposal off the lattice or rejected leaves the chain
/// where it is, so its next request repeats the current point.
McmcLog walk(std::uint64_t seed, std::size_t per_chain) {
  McmcLog log;
  SplitMix64 rng{seed};
  for (int c = 0; c < kChains; ++c) {
    int ib = rng.below(kNB), ih = rng.below(kNH);
    std::vector<int> steps;
    for (std::size_t i = 0; i < per_chain; ++i) {
      steps.push_back(ib * kNH + ih);
      int nb = ib, nh = ih;
      switch (rng.below(4)) {
        case 0: --nb; break;
        case 1: ++nb; break;
        case 2: --nh; break;
        default: ++nh; break;
      }
      const double u = rng.uniform();
      if (nb >= 0 && nb < kNB && nh >= 0 && nh < kNH &&
          u < std::exp(log_like(nb, nh) - log_like(ib, ih))) {
        ib = nb;
        ih = nh;
      }
    }
    log.chains.push_back(std::move(steps));
  }
  return log;
}

/// What one chain's request costs the daemon in one lockstep step.
struct ChainWork {
  enum Context : std::uint8_t { cached, built, awaited };
  enum Answer : std::uint8_t { lru, compute, journal, coalesced };
  Context context = cached;  ///< awaited: another chain was building it
  Answer answer = lru;       ///< coalesced: waited for another's answer
  auto operator<=>(const ChainWork&) const = default;
};

/// The daemon's work for one replay of a log.  The process runs on one
/// CPU, so a step in which both chains compute gives two requests at
/// about twice a lone compute's latency; three such steps (six requests)
/// hold p99, as 1% of a 300-request replay is its third slowest.
struct DaemonWork {
  int builds = 0;     ///< context builds
  int computes = 0;   ///< tier-3 computations
  int journal = 0;    ///< tier-2 journal answers
  int coalesced = 0;  ///< requests that waited for another's answer
  int paired = 0;     ///< steps in which both chains compute
};

/// One lockstep step from a context cache (oldest-built first), with the
/// chains' requests reaching the daemon in `order`.
struct StepOutcome {
  std::vector<int> contexts;  ///< the context cache after the step
  std::vector<int> answered;  ///< points answered by a build, sorted
  std::array<ChainWork, kChains> work;  ///< sorted: who did it is moot
};

StepOutcome step(const std::vector<int>& contexts, const std::set<int>& lru,
                 const std::set<int>& journaled,
                 const std::array<int, kChains>& points,
                 const std::array<int, kChains>& order, std::size_t capacity) {
  StepOutcome out{contexts, {}, {}};
  std::array<ChainWork, kChains> work;
  // SpectrumService::answer: context_for (a miss inserts the point and
  // evicts the oldest-built; a point another chain is building is
  // awaited), then the LRU, then the in-flight table.
  std::vector<int> building;
  for (const int c : order) {
    const int p = points[static_cast<std::size_t>(c)];
    ChainWork& w = work[static_cast<std::size_t>(c)];
    if (std::find(building.begin(), building.end(), p) != building.end()) {
      w.context = ChainWork::awaited;
    } else if (std::find(out.contexts.begin(), out.contexts.end(), p) ==
               out.contexts.end()) {
      w.context = ChainWork::built;
      building.push_back(p);
      out.contexts.push_back(p);
      if (out.contexts.size() > capacity) {
        out.contexts.erase(out.contexts.begin());
      }
    }
  }
  for (const int c : order) {
    const int p = points[static_cast<std::size_t>(c)];
    ChainWork& w = work[static_cast<std::size_t>(c)];
    if (lru.count(p)) {
      w.answer = ChainWork::lru;
    } else if (std::find(out.answered.begin(), out.answered.end(), p) !=
               out.answered.end()) {
      w.answer = ChainWork::coalesced;
    } else {
      w.answer = journaled.count(p) ? ChainWork::journal : ChainWork::compute;
      out.answered.push_back(p);
    }
  }
  std::sort(out.answered.begin(), out.answered.end());
  std::sort(work.begin(), work.end());
  out.work = work;
  return out;
}

/// The daemon's work for one replay of `log` in lockstep, or nothing when
/// it depends on the order in which one step's requests reach the daemon
/// (two context builds in a step can enter the cache either way round,
/// and a build can evict the other chain's context before or after that
/// chain looks it up).  With `every_order`, every order of every step is
/// followed and all of them must do the same work; without it, only the
/// chains' own order is (a quick estimate).
std::optional<DaemonWork> daemon_work(const McmcLog& log, bool every_order) {
  constexpr std::size_t kMaxStates = 64;
  const std::size_t capacity = serve::ServeOptions{}.context_capacity;
  const std::size_t n = log.chains.front().size();
  DaemonWork total;
  std::set<int> journaled;
  for (const auto& [lo, hi] : {std::pair{std::size_t{0}, n / 2},
                               std::pair{n / 2, n}}) {
    std::set<std::vector<int>> states{{}};  // reachable context caches
    std::set<int> lru, computed;
    for (std::size_t s = lo; s < hi; ++s) {
      std::array<int, kChains> points;
      for (std::size_t c = 0; c < kChains; ++c) points[c] = log.chains[c][s];
      std::set<std::vector<int>> next;
      std::optional<StepOutcome> first;
      for (const auto& contexts : states) {
        std::array<int, kChains> order;
        std::iota(order.begin(), order.end(), 0);
        do {
          StepOutcome o = step(contexts, lru, journaled, points, order,
                               capacity);
          if (!first) {
            first = o;
          } else if (o.answered != first->answered || o.work != first->work) {
            return std::nullopt;
          }
          next.insert(std::move(o.contexts));
        } while (every_order &&
                 std::next_permutation(order.begin(), order.end()));
      }
      if (next.size() > kMaxStates) return std::nullopt;
      states = std::move(next);
      int computing = 0;
      for (const ChainWork& w : first->work) {
        total.builds += w.context == ChainWork::built;
        total.computes += w.answer == ChainWork::compute;
        total.journal += w.answer == ChainWork::journal;
        total.coalesced += w.answer == ChainWork::coalesced;
        computing += w.answer == ChainWork::compute;
      }
      total.paired += computing == kChains;
      for (const int p : first->answered) {
        lru.insert(p);
        if (!journaled.count(p)) computed.insert(p);
      }
    }
    journaled.insert(computed.begin(), computed.end());
  }
  return total;
}

/// A log and the work it gives the daemon.
struct QualifiedLog {
  McmcLog log;
  DaemonWork work;
};

/// The next walk of `stream` that qualifies and does the `wanted` work.
/// A walk qualifies when it visits more cosmologies than the context
/// cache holds, its daemon work does not depend on arrival order, and it
/// never has both chains ask for one unanswered spectrum in the same
/// step: whether the second request then coalesces or, arriving after a
/// quick journal answer, hits the LRU depends on thread timing.
template <class Wanted>
QualifiedLog next_qualified(SplitMix64& stream, std::size_t per_chain,
                            const Wanted& wanted) {
  const std::size_t capacity = serve::ServeOptions{}.context_capacity;
  for (int attempt = 0; attempt < 1000000; ++attempt) {
    McmcLog log = walk(stream.next(), per_chain);
    if (log.distinct() <= capacity) continue;
    const auto quick = daemon_work(log, false);
    if (quick->coalesced != 0 || !wanted(*quick)) continue;
    if (const auto work = daemon_work(log, true)) {
      return {std::move(log), *work};
    }
  }
  throw std::runtime_error("no serve_mcmc log qualifies");
}

/// The request log of a seed.  The seed drives a stream of candidate
/// walks; the log is the first qualifying candidate whose context
/// builds, computes, journal answers and paired computes each equal
/// their median over 63 fixed qualifying reference walks.  Seeds vary
/// the path but not the work, so runs with different seeds measure the
/// same load.
QualifiedLog make_log(std::uint64_t seed, std::size_t per_chain) {
  constexpr int kReferences = 63;
  const auto key = [](const DaemonWork& w) {
    return std::array{w.builds, w.computes, w.journal, w.paired};
  };
  const auto any = [](const DaemonWork&) { return true; };
  std::array<std::vector<int>, 4> refs;
  SplitMix64 fixed{0};
  for (int i = 0; i < kReferences; ++i) {
    const auto k = key(next_qualified(fixed, per_chain, any).work);
    for (std::size_t f = 0; f < k.size(); ++f) refs[f].push_back(k[f]);
  }
  std::array<int, 4> target;
  for (std::size_t f = 0; f < refs.size(); ++f) {
    auto& v = refs[f];
    std::nth_element(v.begin(), v.begin() + kReferences / 2, v.end());
    target[f] = v[kReferences / 2];
  }
  SplitMix64 candidates{seed};
  return next_qualified(candidates, per_chain, [&](const DaemonWork& w) {
    return key(w) == target;
  });
}

std::string config_body(int point) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "preset = lcdm\nomega_b = %.3f\nh = %.2f\nsolver = auto\n"
                "grid = cl\nl_max = %zu\nworkers = 1\n",
                kOmegaB[point / kNH], kH[point % kNH], kLMax);
  return buf;
}

run::RunConfig parse_config(const std::string& body) {
  std::istringstream is(body);
  return run::parse_config(plinger::io::parse_params(is)).config;
}

/// One blocking loopback connection speaking the serve protocol.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    if (fd_ < 0) throw std::runtime_error("client: socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("client: connect failed: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::send(fd_, text.data() + off, text.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("client: send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// The next line without its newline; throws on a closed connection.
  std::string line() {
    while (true) {
      const auto nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        std::string out = buf_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ == buf_.size()) buf_.clear(), pos_ = 0;
        return out;
      }
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("client: connection closed");
      buf_.append(chunk, static_cast<std::size_t>(n));
      received_ += static_cast<std::size_t>(n);
    }
  }

  std::size_t received() const { return received_; }

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
  std::size_t received_ = 0;
};

/// The first reply body seen for each identity; every later reply for
/// that identity must match it byte for byte.
class Bodies {
 public:
  bool matches(const std::string& identity, std::string body) {
    const std::lock_guard<std::mutex> lock(mutex_);
    // try_emplace leaves `body` untouched when the identity is known.
    const auto [it, first] = first_.try_emplace(identity, std::move(body));
    return first || it->second == body;
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::string> first_;
};

struct Reply {
  bool ok = false;
  bool identical = true;  ///< body matches the identity's first body
  std::string status;     ///< the OK (or ERR) line
  std::string tier;       ///< tier= of the OK line
  double sent_at = 0.0;        ///< wallclock of the first byte sent
  double latency_s = 0.0;      ///< first byte sent to DONE received
  double first_progress_s = -1.0;  ///< to the first PROGRESS line
  std::size_t bytes = 0;
  int chain = 0;
};

std::string field(const std::string& line, const std::string& key) {
  const auto at = line.find(" " + key + "=");
  if (at == std::string::npos) return "";
  const auto from = at + key.size() + 2;
  return line.substr(from, line.find(' ', from) - from);
}

Reply request(Client& c, const std::string& body, Bodies& bodies) {
  Reply r;
  const std::size_t b0 = c.received();
  r.sent_at = wallclock_seconds();
  c.send("RUN\n" + body + "END\n");
  while (true) {
    std::string line = c.line();
    if (line.rfind("PROGRESS ", 0) == 0) {
      if (r.first_progress_s < 0.0) {
        r.first_progress_s = wallclock_seconds() - r.sent_at;
      }
      continue;
    }
    r.status = line;
    r.ok = line.rfind("OK ", 0) == 0;
    break;
  }
  std::string payload;  // every line after the OK line, through DONE
  if (r.ok) {
    for (std::string line = c.line();; line = c.line()) {
      payload += line;
      payload += '\n';
      if (line == "DONE") break;
    }
  }
  r.latency_s = wallclock_seconds() - r.sent_at;
  r.bytes = c.received() - b0;
  if (r.ok) {
    r.tier = field(r.status, "tier");
    r.identical =
        bodies.matches(field(r.status, "identity"), std::move(payload));
  }
  return r;
}

/// The STATS counters of a daemon, by name.
std::map<std::string, double> stats(std::uint16_t port) {
  Client c(port);
  c.send("STATS\n");
  std::map<std::string, double> out;
  for (std::string line = c.line(); line != "DONE"; line = c.line()) {
    std::istringstream fields(line);
    std::string tag, name;
    double v = 0.0;
    if (fields >> tag >> name >> v && tag == "STAT") out[name] = v;
  }
  return out;
}

/// One daemon lifetime: service + server over a journal directory.
/// Construction ends when the server's listen() has returned, i.e. when
/// the daemon accepts connections; serve() then runs on its own thread
/// until the object is destroyed.
class Daemon {
 public:
  explicit Daemon(const std::string& journal_dir)
      : service_(options(journal_dir)),
        server_(service_, serve::ServerOptions{}) {}
  ~Daemon() {
    server_.request_stop();
    if (thread_.joinable()) thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Serve, and confirm with a PING that requests are answered.
  void start() {
    thread_ = std::jthread([this] {
      try {
        server_.serve();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
    Client c(port());
    c.send("PING\n");
    if (c.line() != "PONG") throw std::runtime_error("daemon: no PONG");
  }

  std::uint16_t port() const { return server_.port(); }
  std::exception_ptr error() const { return error_; }

 private:
  static serve::ServeOptions options(const std::string& journal_dir) {
    serve::ServeOptions o;  // daemon defaults: 2 slots, LRU 64, 16 contexts
    o.journal_dir = journal_dir;
    return o;
  }

  serve::SpectrumService service_;
  serve::SpectrumServer server_;
  std::exception_ptr error_;
  std::jthread thread_;
};

std::unique_ptr<Daemon> start_daemon(const std::string& journal_dir) {
  auto d = std::make_unique<Daemon>(journal_dir);
  d->start();
  return d;
}

/// What one replay of the log measured.
struct Replay {
  double solve_s = 0.0;  ///< first request sent to last reply received
  double cpu_s = 0.0;
  std::vector<Reply> replies;
  double computes = 0, coalesced = 0, requests = 0;
  std::map<std::string, double> store;  ///< traced replays only
};

/// Every journal left by the log: their size, the time to read them,
/// and the time to append their records to fresh journals.
std::map<std::string, double> store_layer(const fs::path& journal_dir,
                                          const fs::path& scratch,
                                          Spans& spans, int parent) {
  double bytes = 0.0, read_s = 0.0, append_s = 0.0;
  int n = 0;
  for (const auto& entry : fs::directory_iterator(journal_dir)) {
    if (entry.path().extension() != ".pj") continue;
    bytes += static_cast<double>(entry.file_size());
    int h = spans.open("store.read_journal", parent);
    const store::JournalContents contents = store::read_journal(entry.path());
    read_s += spans.close(h);
    store::StoreOptions so;
    so.path = (scratch / ("replay-" + std::to_string(n++) + ".pj")).string();
    h = spans.open("store.append", parent);
    {
      store::ModeResultStore st(so, contents.identity, contents.n_k);
      for (const auto& [ik, r] : contents.results) st.append(ik, r);
      st.flush();
    }
    append_s += spans.close(h);
  }
  return {{"store.journal_bytes", bytes},
          {"store.read_journal_s", read_s},
          {"store.append_s", append_s}};
}

Replay replay(const McmcLog& log, const Options& opt, Bodies& bodies,
              Spans* spans) {
  const ScratchDir dir(opt.work_dir, "serve_mcmc");
  const std::string journals = (dir.path() / "journals").string();
  Replay out;
  out.replies.reserve(log.requests());
  std::vector<std::vector<Reply>> per_chain(kChains);
  const std::size_t half = log.chains.front().size() / 2;

  double t_first = 0.0, c_first = 0.0;
  // The chains of one lifetime, in lockstep: each sends step i + 1 only
  // after every chain has its reply to step i.  A chain that fails drops
  // out of the barrier, so the other is never left waiting.
  const auto run_half = [&](std::uint16_t port, std::size_t from,
                            std::size_t to) {
    std::vector<std::exception_ptr> errors(kChains);
    std::barrier step_done(kChains);
    {
      std::vector<std::jthread> chains;
      for (int ch = 0; ch < kChains; ++ch) {
        chains.emplace_back([&, ch] {
          const auto chain = static_cast<std::size_t>(ch);
          try {
            Client c(port);
            for (std::size_t i = from; i < to; ++i) {
              Reply r = request(c, config_body(log.chains[chain][i]), bodies);
              r.chain = ch;
              per_chain[chain].push_back(std::move(r));
              step_done.arrive_and_wait();
            }
          } catch (...) {
            errors[chain] = std::current_exception();
            step_done.arrive_and_drop();
          }
        });
      }
    }
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  };
  const auto add_stats = [&](std::uint16_t port) {
    const auto s = stats(port);
    out.computes += s.at("computes");
    out.coalesced += s.at("coalesced");
    out.requests += s.at("requests");
  };

  auto daemon = start_daemon(journals);
  t_first = wallclock_seconds();
  c_first = process_cpu_seconds();
  run_half(daemon->port(), 0, half);
  add_stats(daemon->port());
  if (daemon->error()) std::rethrow_exception(daemon->error());
  daemon.reset();  // restart over the same journal directory
  daemon = start_daemon(journals);
  run_half(daemon->port(), half, log.chains.front().size());
  double t_last = 0.0;
  for (const auto& replies : per_chain) {
    for (const Reply& r : replies) {
      t_last = std::max(t_last, r.sent_at + r.latency_s);
    }
  }
  out.cpu_s = process_cpu_seconds() - c_first;
  out.solve_s = t_last - t_first;
  add_stats(daemon->port());
  if (daemon->error()) std::rethrow_exception(daemon->error());
  daemon.reset();

  for (auto& replies : per_chain) {
    for (Reply& r : replies) out.replies.push_back(std::move(r));
  }
  if (spans != nullptr) {
    const int root = spans->add("bench.replay", spans->at(t_first),
                                spans->at(t_last));
    std::uint64_t id = 0;
    for (const Reply& r : out.replies) {
      const int h = spans->add("serve.request." + r.tier,
                               spans->at(r.sent_at),
                               spans->at(r.sent_at + r.latency_s), root, id,
                               r.chain + 1);
      if (r.first_progress_s >= 0.0) {
        spans->add("serve.wait_first_progress", spans->at(r.sent_at),
                   spans->at(r.sent_at + r.first_progress_s), h, id,
                   r.chain + 1);
      }
      ++id;
    }
    const int st = spans->open("bench.store_replay");
    out.store = store_layer(journals, dir.path(), *spans, st);
    spans->close(st);
  }
  return out;
}

/// The serve correctness gates: every reply OK, and every reply for one
/// identity byte-identical after its OK line, whichever tier answered.
/// Returns the failed replies.
std::uint64_t gate(const std::vector<Reply>& replies, Result& res) {
  std::uint64_t failed = 0;
  for (const Reply& r : replies) {
    if (r.ok && r.identical) continue;
    ++failed;
    res.note("gate_failure", r.ok ? "reply differs from an earlier one for "
                                     "the same identity: '" + r.status + "'"
                                  : "reply '" + r.status + "'");
  }
  return failed;
}

/// The per-request latencies of a set of replies, optionally of one tier.
std::vector<double> latencies_ms(const std::vector<Reply>& replies,
                                 const std::string& tier = "") {
  std::vector<double> v;
  for (const Reply& r : replies) {
    if (tier.empty() || r.tier == tier) v.push_back(r.latency_s * 1e3);
  }
  return v;
}

/// The three context constructors and the RunPlan constructor on a few
/// lattice points, as RunContext and the daemon call them.
void context_probe(const McmcLog& log, Spans& spans, Samples& layer) {
  const int root = spans.open("bench.context_probe");
  std::set<int> done;
  for (int point : log.chains.front()) {
    if (done.size() == 3) break;
    if (!done.insert(point).second) continue;
    const run::RunConfig cfg = parse_config(config_body(point));
    const auto id = static_cast<std::uint64_t>(point);
    probe_context(cfg, spans, root, id, layer);
    const auto ctx = run::make_context(cfg);
    const int h = spans.open("run.plan", root, id);
    const run::RunPlan plan(cfg, ctx);
    layer.add("run.plan_s", spans.close(h));
  }
  spans.close(root);
}

/// Confine the calling thread, and so every thread it starts later, to
/// the highest-numbered CPU it may run on; returns that CPU.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("serve_mcmc: sched_getaffinity failed");
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (cpu < 0 || ::sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("serve_mcmc: sched_setaffinity failed");
  }
  return cpu;
}

}  // namespace

void print_serve_log(const Options& opt) {
  const QualifiedLog q = make_log(opt.seed, kRequestsPerChain);
  const serve::ServeOptions defaults;
  std::printf(
      "{\"seed\": %llu, \"digest\": \"%016llx\", \"requests\": %zu, "
      "\"min_replays\": %d, \"lattice\": %d, \"distinct\": %zu, "
      "\"context_capacity\": %zu, \"lru_capacity\": %zu, "
      "\"builds\": %d, \"computes\": %d, \"journal\": %d, "
      "\"coalesced\": %d, \"paired\": %d}\n",
      static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(q.log.digest()), q.log.requests(),
      min_replays(opt), kLattice, q.log.distinct(), defaults.context_capacity,
      defaults.lru_capacity, q.work.builds, q.work.computes, q.work.journal,
      q.work.coalesced, q.work.paired);
}

Result run_serve_mcmc(const Options& opt) {
  Result res;
  // The daemon, both chains and the set-up probes share one CPU.  Two
  // requests are still in flight at once (both compute slots, the
  // in-flight table), but their heavy work takes turns instead of
  // depending on how many cores the shared host lends the machine at the
  // moment, and a reply hands over between threads on one CPU instead of
  // waking an idle one.
  res.note("cpu", std::to_string(pin_to_one_cpu()));
  // One malloc arena: on one CPU per-thread arenas buy no concurrency,
  // and they left peak RSS wherever each thread's frees happened to land
  // (59-70 MB from run to run, against 41 MB within 1% with one arena).
  ::mallopt(M_ARENA_MAX, 1);
  const QualifiedLog q = make_log(opt.seed, kRequestsPerChain);
  const McmcLog& log = q.log;
  res.note("seed", std::to_string(opt.seed));
  res.note("lattice", std::to_string(kLattice));
  res.note("distinct_cosmologies", std::to_string(log.distinct()));
  res.note("model_builds", std::to_string(q.work.builds));
  res.note("model_computes", std::to_string(q.work.computes));
  res.note("model_journal", std::to_string(q.work.journal));
  res.note("model_coalesced", std::to_string(q.work.coalesced));
  res.note("model_paired_computes", std::to_string(q.work.paired));

  const double start = wallclock_seconds();
  std::vector<double> setup;
  const auto probe_setup = [&] {
    for (int i = 0; i < kSetupProbePairs; ++i) {
      double pair = 0.0;
      for (int lifetime = 0; lifetime < 2; ++lifetime) {
        const ScratchDir dir(opt.work_dir, "serve_setup");
        const double t0 = wallclock_seconds();
        const Daemon daemon(dir.path().string());
        pair += wallclock_seconds() - t0;
      }
      setup.push_back(pair);
    }
  };

  Bodies bodies;
  std::vector<Reply> all;
  std::vector<double> solve, cpu;
  std::map<std::string, std::size_t> tiers;
  double computes = 0.0, coalesced = 0.0;
  int off_model = 0;  // replays whose STATS disagree with daemon_work
  std::string solve_list;
  const auto account = [&](const Replay& r) {
    res.attempted += r.replies.size();
    res.failed += gate(r.replies, res);
    for (const Reply& reply : r.replies) ++tiers[reply.tier];
    computes += r.computes;
    coalesced += r.coalesced;
    off_model += r.computes != q.work.computes ||
                 r.coalesced != q.work.coalesced;
  };

  // A traced run replays the log once untraced (for the overhead) and
  // once traced; an untraced run replays it at least min_replays times
  // and then until the time is up.
  int replays = 0;
  double last = 0.0;
  do {
    const double t0 = wallclock_seconds();
    Replay r = replay(log, opt, bodies, nullptr);
    probe_setup();
    last = wallclock_seconds() - t0;
    account(r);
    solve.push_back(r.solve_s);
    cpu.push_back(r.cpu_s);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.3f", solve_list.empty() ? "" : " ",
                  r.solve_s);
    solve_list += buf;
    all.insert(all.end(), r.replies.begin(), r.replies.end());
    ++replays;
  } while (!opt.trace &&
           (replays < min_replays(opt) ||
            wallclock_seconds() + last <= start + opt.seconds));

  if (!opt.trace) {
    res.metrics = {{"setup_s", median(setup)},
                   {"solve_s", median(solve)},
                   {"cpu_s", median(cpu)},
                   {"peak_rss_mb", peak_rss_mb()},
                   {"p50_ms", percentile(latencies_ms(all), 0.50)},
                   {"p99_ms", percentile(latencies_ms(all), 0.99)}};
  } else {
    Spans spans;
    Samples layer;
    const Replay r = replay(log, opt, bodies, &spans);
    account(r);
    ++replays;
    context_probe(log, spans, layer);
    layer.medians_into(res.metrics);
    for (const auto& [name, v] : r.store) res.metrics[name] = v;
    std::vector<double> lru = latencies_ms(r.replies, "lru");
    std::vector<double> first_progress;
    double bytes = 0.0;
    for (const Reply& reply : r.replies) {
      if (reply.tier == "compute" && reply.first_progress_s >= 0.0) {
        first_progress.push_back(reply.first_progress_s * 1e3);
      }
      bytes += static_cast<double>(reply.bytes);
    }
    res.metrics["serve.lru_p50_ms"] = median(lru);
    res.metrics["serve.journal_p50_ms"] =
        median(latencies_ms(r.replies, "journal"));
    res.metrics["serve.compute_p50_ms"] =
        median(latencies_ms(r.replies, "compute"));
    res.metrics["serve.lru_over_10ms"] = static_cast<double>(
        std::count_if(lru.begin(), lru.end(), [](double ms) {
          return ms > 10.0;
        }));
    res.metrics["serve.first_progress_ms"] = median(first_progress);
    res.metrics["serve.computes"] = r.computes;
    res.metrics["serve.coalesced"] = r.coalesced;
    res.metrics["serve.hit_ratio"] =
        r.requests > 0 ? (r.requests - r.computes) / r.requests : 0.0;
    res.metrics["serve.reply_bytes"] = bytes;
    res.metrics["bench.trace_overhead_s"] = r.solve_s - median(solve);
    write_trace(spans, opt, res);
  }

  res.correct = res.failed == 0;
  res.note("replays", std::to_string(replays));
  res.note("replay_solve_s", solve_list);
  res.note("replays_off_model", std::to_string(off_model));
  res.note("requests", std::to_string(res.attempted));
  for (const auto& [tier, n] : tiers) {
    res.note("tier_" + tier, std::to_string(n));
  }
  res.note("computes", std::to_string(static_cast<long long>(computes)));
  res.note("coalesced", std::to_string(static_cast<long long>(coalesced)));
  return res;
}

}  // namespace perfbench
