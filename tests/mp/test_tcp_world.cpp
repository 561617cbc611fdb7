// TCP transport tests (ctest label transport).
//
// Three layers, matching docs/protocol.md "TCP transport wire grammar":
//
//  * frame codec — byte-exact round trips through encode_frame /
//    FrameParser, and rejection of everything the grammar forbids
//    (bad magic, oversized length, CRC mismatch); a torn frame is
//    "need more bytes", never a parse;
//  * loopback worlds — rendezvous rank assignment, Appendix-A message
//    delivery, star-topology enforcement, and the fault mapping: an
//    abrupt close, garbage bytes, or a never-connected rank all become
//    the synthesized tag-7 death notice on the master, and a vanished
//    master becomes PeerLost on the worker;
//  * multi-process E2E — fork/exec real plinger_worker processes
//    against a listening master and require C_l bitwise identical to
//    the in-process threads driver, including when one worker is
//    SIGKILLed mid-run and its modes are reassigned, and require a
//    worker whose own tau_end/lmax_cap disagree with the master's
//    broadcast to refuse it;
//  * line-of-sight shaping — a worker thread projecting to another
//    l_max than the master's is refused at the master's sink, before
//    its towers reach the journal.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "mp/tcp_world.hpp"
#include "mp/wrappers.hpp"
#include "plinger/driver.hpp"
#include "run/config.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"
#include "store/mode_result_store.hpp"

namespace pm = plinger::mp;
namespace pp = plinger::parallel;
namespace pb = plinger::boltzmann;
namespace run = plinger::run;

namespace {

// --- frame codec -----------------------------------------------------

pm::Frame parse_one(const std::vector<unsigned char>& bytes) {
  pm::FrameParser parser;
  parser.feed(bytes);
  auto f = parser.next();
  EXPECT_TRUE(f.has_value());
  return f ? *f : pm::Frame{};
}

TEST(TcpFrame, RoundTripsByteAtATime) {
  const std::vector<double> payload{1.5, -2.25, 0.0, 1e300, -0.0};
  const auto bytes = pm::encode_frame(pp::kTagHeader, 3, payload);
  ASSERT_EQ(bytes.size(), pm::kFrameHeaderBytes + payload.size() * 8);

  pm::FrameParser parser;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // No frame may appear before the last byte arrives.
    EXPECT_FALSE(parser.next().has_value()) << "byte " << i;
    parser.feed({&bytes[i], 1});
  }
  const auto f = parser.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->tag, pp::kTagHeader);
  EXPECT_EQ(f->source, 3);
  ASSERT_EQ(f->payload.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    // Bitwise: -0.0 and giant magnitudes must survive the wire.
    EXPECT_EQ(std::memcmp(&f->payload[i], &payload[i], 8), 0) << i;
  }
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(TcpFrame, EmptyPayloadAndBackToBackFrames) {
  auto bytes = pm::encode_frame(pp::kTagRequest, 2, {});
  const auto second = pm::encode_frame(pp::kTagStop, 0, {{42.0}});
  bytes.insert(bytes.end(), second.begin(), second.end());

  pm::FrameParser parser;
  parser.feed(bytes);
  const auto a = parser.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->tag, pp::kTagRequest);
  EXPECT_TRUE(a->payload.empty());
  const auto b = parser.next();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->tag, pp::kTagStop);
  ASSERT_EQ(b->payload.size(), 1u);
  EXPECT_EQ(b->payload[0], 42.0);
  EXPECT_FALSE(parser.next().has_value());
}

TEST(TcpFrame, NegativeControlTagsRoundTrip) {
  const auto f = parse_one(pm::encode_frame(
      pm::kCtrlWelcome, 0, {{double(pm::kWireVersion), 3.0, 5.0}}));
  EXPECT_EQ(f.tag, pm::kCtrlWelcome);
  ASSERT_EQ(f.payload.size(), 3u);
  EXPECT_EQ(f.payload[1], 3.0);
}

TEST(TcpFrame, TornFrameIsNotAFrame) {
  const auto bytes = pm::encode_frame(pp::kTagPayload, 1, {{1.0, 2.0}});
  pm::FrameParser parser;
  parser.feed({bytes.data(), bytes.size() - 1});
  EXPECT_FALSE(parser.next().has_value());  // needs more bytes, no throw
  EXPECT_EQ(parser.buffered_bytes(), bytes.size() - 1);
}

TEST(TcpFrame, CrcMismatchRejected) {
  auto bytes = pm::encode_frame(pp::kTagPayload, 1, {{1.0, 2.0}});
  bytes[pm::kFrameHeaderBytes + 3] ^= 0x40;  // flip one payload bit
  pm::FrameParser parser;
  parser.feed(bytes);
  EXPECT_THROW(parser.next(), pm::ProtocolError);
}

TEST(TcpFrame, BadMagicRejected) {
  auto bytes = pm::encode_frame(pp::kTagRequest, 1, {});
  bytes[0] = 'X';
  pm::FrameParser parser;
  parser.feed(bytes);
  EXPECT_THROW(parser.next(), pm::ProtocolError);
}

TEST(TcpFrame, OversizedLengthRejected) {
  auto bytes = pm::encode_frame(pp::kTagRequest, 1, {});
  const std::uint32_t huge = pm::kMaxFrameDoubles + 1;
  std::memcpy(&bytes[4], &huge, 4);  // length field, offset 4
  pm::FrameParser parser;
  parser.feed(bytes);
  EXPECT_THROW(parser.next(), pm::ProtocolError);
}

TEST(TcpFrame, GarbageStreamRejected) {
  std::vector<unsigned char> trash(64);
  for (std::size_t i = 0; i < trash.size(); ++i) {
    trash[i] = static_cast<unsigned char>(0xA5 ^ i);
  }
  pm::FrameParser parser;
  parser.feed(trash);
  EXPECT_THROW(parser.next(), pm::ProtocolError);
}

TEST(TcpEndpoint, ParsesHostColonPort) {
  const auto ep = pm::parse_endpoint("127.0.0.1:7777");
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 7777);
  EXPECT_EQ(pm::parse_endpoint("localhost:0").port, 0);
}

TEST(TcpEndpoint, RejectsMalformed) {
  EXPECT_THROW(pm::parse_endpoint(""), plinger::InvalidArgument);
  EXPECT_THROW(pm::parse_endpoint("nohost"), plinger::InvalidArgument);
  EXPECT_THROW(pm::parse_endpoint(":80"), plinger::InvalidArgument);
  EXPECT_THROW(pm::parse_endpoint("h:"), plinger::InvalidArgument);
  EXPECT_THROW(pm::parse_endpoint("h:abc"), plinger::InvalidArgument);
  EXPECT_THROW(pm::parse_endpoint("h:70000"), plinger::InvalidArgument);
}

// --- loopback worlds -------------------------------------------------

/// A raw client socket that completes the HELLO/WELCOME rendezvous but
/// is not a TcpWorld — for misbehaving-peer tests.
struct RawClient {
  int fd = -1;
  int rank = -1;

  // Not a constructor: ASSERT_* needs a void function to return from.
  void dial(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)), 0);
    const auto hello = pm::encode_frame(pm::kCtrlHello, -1,
                                        {{double(pm::kWireVersion)}});
    ASSERT_EQ(::send(fd, hello.data(), hello.size(), 0),
              static_cast<ssize_t>(hello.size()));
    // Read the WELCOME so the master believes the handshake completed.
    pm::FrameParser parser;
    unsigned char buf[256];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      parser.feed({buf, static_cast<std::size_t>(n)});
      if (auto f = parser.next()) {
        ASSERT_EQ(f->tag, pm::kCtrlWelcome);
        rank = static_cast<int>(f->payload.at(1));
        return;
      }
    }
  }
  ~RawClient() {
    if (fd >= 0) ::close(fd);
  }
};

/// Wait until pred() holds or ~2 s pass; the transport's loss detection
/// runs on socket threads, so tests poll rather than sleep blind.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

TEST(TcpWorldLoopback, RendezvousAssignsRanksInConnectionOrder) {
  auto master = pm::TcpWorld::listen("127.0.0.1", 0, 2);
  ASSERT_GT(master->port(), 0);  // port 0 resolved by the kernel
  EXPECT_EQ(master->size(), 3);
  EXPECT_EQ(master->local_rank(), 0);

  std::unique_ptr<pm::TcpWorld> w1, w2;
  std::thread t1([&] { w1 = pm::TcpWorld::connect("127.0.0.1",
                                                  master->port()); });
  std::thread t2([&] { w2 = pm::TcpWorld::connect("127.0.0.1",
                                                  master->port()); });
  EXPECT_EQ(master->accept_workers(10.0), 2);
  t1.join();
  t2.join();
  ASSERT_TRUE(w1 && w2);
  EXPECT_EQ(w1->size(), 3);
  EXPECT_EQ(w2->size(), 3);
  EXPECT_GE(w1->local_rank(), 1);
  EXPECT_GE(w2->local_rank(), 1);
  EXPECT_NE(w1->local_rank(), w2->local_rank());
  EXPECT_EQ(master->n_peers_lost(), 0);
}

TEST(TcpWorldLoopback, DeliversAppendixATraffic) {
  auto master = pm::TcpWorld::listen("127.0.0.1", 0, 1);
  std::unique_ptr<pm::TcpWorld> worker;
  std::thread t([&] { worker = pm::TcpWorld::connect("127.0.0.1",
                                                     master->port()); });
  ASSERT_EQ(master->accept_workers(10.0), 1);
  t.join();
  const int wr = worker->local_rank();

  // Worker asks for work (tag 2), master assigns (tag 3).
  worker->send(wr, 0, pp::kTagRequest, {{double(wr)}});
  const auto req = master->probe(0, pm::kAnySource, pp::kTagRequest);
  EXPECT_EQ(req.source, wr);
  std::vector<double> buf(req.length);
  master->recv(0, req.source, req.tag, buf);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], double(wr));

  master->send(0, wr, pp::kTagAssign, {{4.0, 0.0125, 24.0}});
  const auto asn = worker->probe(wr, 0, pp::kTagAssign);
  EXPECT_EQ(asn.length, 3u);
  std::vector<double> abuf(asn.length);
  worker->recv(wr, 0, pp::kTagAssign, abuf);
  EXPECT_EQ(abuf[1], 0.0125);

  // Both endpoints account for both directions, so master-side totals
  // match what an in-process world would have recorded.  The inbound
  // count lands on the socket thread, so poll briefly.
  EXPECT_TRUE(eventually([&] { return master->stats().n_messages == 2u; }));
  EXPECT_TRUE(eventually([&] { return worker->stats().n_messages == 2u; }));
}

TEST(TcpWorldLoopback, WorkerToWorkerSendIsAProtocolViolation) {
  auto master = pm::TcpWorld::listen("127.0.0.1", 0, 2);
  std::unique_ptr<pm::TcpWorld> w1, w2;
  std::thread t1([&] { w1 = pm::TcpWorld::connect("127.0.0.1",
                                                  master->port()); });
  std::thread t2([&] { w2 = pm::TcpWorld::connect("127.0.0.1",
                                                  master->port()); });
  ASSERT_EQ(master->accept_workers(10.0), 2);
  t1.join();
  t2.join();
  const int wr = w1->local_rank();
  const int other = wr == 1 ? 2 : 1;
  EXPECT_THROW(w1->send(wr, other, pp::kTagRequest, {{1.0}}),
               pm::ProtocolError);
  // Sending on behalf of a remote rank is equally forbidden.
  EXPECT_THROW(w1->send(0, wr, pp::kTagAssign, {{1.0}}),
               plinger::InvalidArgument);
}

TEST(TcpWorldLoopback, AbruptCloseSynthesizesDeathNotice) {
  auto master = pm::TcpWorld::listen("127.0.0.1", 0, 1);
  auto client = std::make_unique<RawClient>();
  // dial() blocks on the WELCOME, which accept_workers() sends — so the
  // two must overlap.
  std::thread t([&] { client->dial(master->port()); });
  ASSERT_EQ(master->accept_workers(10.0), 1);
  t.join();
  const int rank = client->rank;
  ASSERT_EQ(rank, 1);

  client.reset();  // close without GOODBYE: a dirty death
  ASSERT_TRUE(eventually([&] { return master->n_peers_lost() == 1; }));
  const auto p = master->probe(0, pm::kAnySource, pp::kTagError);
  EXPECT_EQ(p.source, rank);
  std::vector<double> buf(p.length);
  master->recv(0, p.source, p.tag, buf);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[1], pp::kFailureCodeWorkerLost);
}

TEST(TcpWorldLoopback, GarbageBytesDropThePeer) {
  auto master = pm::TcpWorld::listen("127.0.0.1", 0, 1);
  RawClient client;
  std::thread t([&] { client.dial(master->port()); });
  ASSERT_EQ(master->accept_workers(10.0), 1);
  t.join();
  ASSERT_GE(client.fd, 0);

  const char trash[] = "definitely not a PLTW frame";
  ASSERT_GT(::send(client.fd, trash, sizeof(trash), 0), 0);
  ASSERT_TRUE(eventually([&] { return master->n_peers_lost() == 1; }));
  const auto p = master->probe(0, pm::kAnySource, pp::kTagError);
  EXPECT_EQ(p.source, client.rank);
}

TEST(TcpWorldLoopback, MissingRankAtDeadlineIsDeclaredLost) {
  auto master = pm::TcpWorld::listen("127.0.0.1", 0, 2);
  std::unique_ptr<pm::TcpWorld> worker;
  std::thread t([&] { worker = pm::TcpWorld::connect("127.0.0.1",
                                                     master->port()); });
  // Only one of two workers ever dials in; the accept window closes and
  // the run proceeds degraded with rank 2 pre-declared dead.
  EXPECT_EQ(master->accept_workers(0.5), 1);
  t.join();
  EXPECT_EQ(master->n_peers_lost(), 1);
  const auto p = master->probe(0, pm::kAnySource, pp::kTagError);
  EXPECT_EQ(p.source, 2);
}

TEST(TcpWorldLoopback, VanishedMasterThrowsPeerLost) {
  auto master = pm::TcpWorld::listen("127.0.0.1", 0, 1);
  std::unique_ptr<pm::TcpWorld> worker;
  std::thread t([&] { worker = pm::TcpWorld::connect("127.0.0.1",
                                                     master->port()); });
  ASSERT_EQ(master->accept_workers(10.0), 1);
  t.join();
  const int wr = worker->local_rank();

  master.reset();  // the master process is gone
  EXPECT_THROW(worker->probe(wr, 0, pp::kTagAssign), pm::PeerLost);
  EXPECT_THROW(
      {
        std::vector<double> buf(4);
        worker->recv(wr, 0, pp::kTagAssign, buf);
      },
      pm::PeerLost);
  // Queued-before-loss messages would still be drained; with none
  // queued, send() to the dead master stays silent (fault_world
  // convention) rather than throwing from the transport.
  worker->send(wr, 0, pp::kTagRequest, {{1.0}});
}

// --- bounded-retry connect ------------------------------------------

TEST(TcpWorldBackoff, RejectsInvalidRetryPolicy) {
  EXPECT_THROW((void)pm::TcpWorld::connect_with_backoff(
                   "127.0.0.1", 1, /*attempts=*/0, /*backoff_ms=*/10),
               plinger::InvalidArgument);
  EXPECT_THROW((void)pm::TcpWorld::connect_with_backoff(
                   "127.0.0.1", 1, /*attempts=*/2, /*backoff_ms=*/-1),
               plinger::InvalidArgument);
}

TEST(TcpWorldBackoff, BoundedAttemptsThenLastErrorRethrown) {
  // Reserve a port with no listener behind it: every attempt fails
  // immediately (attempt_timeout 0 = exactly one connect() syscall per
  // attempt), so the call must spend its attempt budget and rethrow —
  // and the doubling sleeps (10 + 20 ms) must actually have happened.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);  // bound but never listened: connections are refused

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)pm::TcpWorld::connect_with_backoff(
                   "127.0.0.1", port, /*attempts=*/3, /*backoff_ms=*/10,
                   /*attempt_timeout_seconds=*/0.0),
               plinger::Error);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 25);
}

TEST(TcpWorldBackoff, ConnectsOnceTheMasterComesUp) {
  // The deployment story the flag exists for: the worker dials before
  // the master listens, keeps retrying, and joins the rendezvous when
  // the listener finally appears on the same port.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);

  std::unique_ptr<pm::TcpWorld> worker;
  std::thread dialer([&] {
    worker = pm::TcpWorld::connect_with_backoff(
        "127.0.0.1", port, /*attempts=*/200, /*backoff_ms=*/5,
        /*attempt_timeout_seconds=*/0.05);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto master = pm::TcpWorld::listen("127.0.0.1", port, 1);
  EXPECT_EQ(master->accept_workers(10.0), 1);
  dialer.join();
  ASSERT_TRUE(worker);
  EXPECT_EQ(worker->size(), 2);
  EXPECT_EQ(worker->local_rank(), 1);
  EXPECT_EQ(master->n_peers_lost(), 0);
}

// --- multi-process E2E ----------------------------------------------

run::RunConfig e2e_config() {
  run::RunConfig cfg;
  cfg.grid = "linear";
  cfg.k_min = 0.002;
  cfg.k_max = 0.02;
  cfg.n_k = 6;
  cfg.l_max = 24;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 12;
  cfg.rtol = 1e-5;
  cfg.tau_end = 600.0;
  cfg.lmax_cap = 24;
  cfg.driver = "threads";
  cfg.workers = 2;
  return cfg;
}

std::filesystem::path write_params(const run::RunConfig& cfg,
                                   const std::string& stem) {
  const auto path = std::filesystem::temp_directory_path() /
                    (stem + "_" + std::to_string(::getpid()) + ".ini");
  std::ofstream out(path);
  out << cfg.to_params_text();
  return path;
}

pid_t spawn_worker(const std::filesystem::path& params, int port) {
  const std::string connect = "127.0.0.1:" + std::to_string(port);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: quiet stdout, keep stderr for diagnostics.
    std::freopen("/dev/null", "w", stdout);
    ::execl(PLINGER_WORKER_BIN, "plinger_worker", params.c_str(),
            "--connect", connect.c_str(), (char*)nullptr);
    std::perror("execl plinger_worker");
    ::_exit(127);
  }
  return pid;
}

int wait_exit(pid_t pid) {
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

void expect_wire_bitwise_equal(
    const std::map<std::size_t, pb::ModeResult>& got,
    const std::map<std::size_t, pb::ModeResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [ik, w] : want) {
    ASSERT_TRUE(got.count(ik)) << ik;
    const auto& g = got.at(ik);
    EXPECT_EQ(g.k, w.k) << ik;
    EXPECT_EQ(g.lmax, w.lmax) << ik;
    ASSERT_EQ(g.f_gamma.size(), w.f_gamma.size()) << ik;
    for (std::size_t l = 0; l < w.f_gamma.size(); ++l) {
      EXPECT_EQ(g.f_gamma[l], w.f_gamma[l]) << ik << " l=" << l;
    }
    ASSERT_EQ(g.g_gamma.size(), w.g_gamma.size()) << ik;
    for (std::size_t l = 0; l < w.g_gamma.size(); ++l) {
      EXPECT_EQ(g.g_gamma[l], w.g_gamma[l]) << ik << " l=" << l;
    }
  }
}

TEST(TcpE2E, TwoProcessRunMatchesThreadsDriverBitwise) {
  // The second input evolves to today (tau_end = 0) under a binding
  // lmax_cap: the worker processes must resolve the conformal age and
  // size the photon tower from the cap exactly as the serial driver.
  run::RunConfig today = e2e_config();
  today.tau_end = 0.0;
  for (const run::RunConfig& cfg : {e2e_config(), today}) {
    SCOPED_TRACE("tau_end " + std::to_string(cfg.tau_end));
    const auto ctx = run::make_context(cfg);
    const run::RunPlan plan(cfg, ctx);

    // In-process references.
    const auto ref = pp::run_plinger_threads(
        ctx->background(), ctx->recombination(), plan.perturbation(),
        plan.schedule(), plan.setup(), cfg.workers);
    const auto serial = pp::run_linger_serial(
        ctx->background(), ctx->recombination(), plan.perturbation(),
        plan.schedule(), plan.setup());

    // Cross-process run: listen on an ephemeral port, fork two real
    // plinger_worker processes pointed at the same parameter file.
    auto world = pm::TcpWorld::listen("127.0.0.1", 0, cfg.workers);
    const auto params = write_params(cfg, "tcp_e2e");
    std::vector<pid_t> pids;
    for (int i = 0; i < cfg.workers; ++i) {
      pids.push_back(spawn_worker(params, world->port()));
    }
    ASSERT_EQ(world->accept_workers(30.0), cfg.workers);
    const auto out = pp::run_plinger_tcp(
        ctx->background(), ctx->recombination(), plan.perturbation(),
        plan.schedule(), plan.setup(), *world);
    world.reset();  // GOODBYE: lets the workers exit cleanly
    for (const pid_t pid : pids) {
      const int status = wait_exit(pid);
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
    }
    std::filesystem::remove(params);

    EXPECT_FALSE(out.completed_degraded);
    EXPECT_EQ(out.n_workers, cfg.workers);
    expect_wire_bitwise_equal(out.results, ref.results);
    expect_wire_bitwise_equal(out.results, serial.results);

    // The acceptance criterion proper: bitwise-identical C_l.
    const auto cl_ref = run::make_spectra(plan, ref);
    const auto cl_tcp = run::make_spectra(plan, out);
    ASSERT_EQ(cl_tcp.temperature.cl.size(), cl_ref.temperature.cl.size());
    for (std::size_t l = 0; l < cl_ref.temperature.cl.size(); ++l) {
      EXPECT_EQ(cl_tcp.temperature.cl[l], cl_ref.temperature.cl[l])
          << "l " << l;
    }
  }
}

TEST(TcpE2E, WorkerRefusesABroadcastItDoesNotShapeFrom) {
  // A worker process shapes every request from its own parameter file,
  // while the master stamps the journal with the tau_end and lmax_cap it
  // broadcasts.  A worker whose file disagrees must refuse the tag-1
  // broadcast (exit 1) rather than compute modes the master would sink
  // under the wrong identity; the master's stall deadline then retires
  // it and the run ends degraded with nothing computed.
  run::RunConfig cfg = e2e_config();
  cfg.workers = 1;
  cfg.fault_timeout = 1.0;
  const auto ctx = run::make_context(cfg);
  const run::RunPlan plan(cfg, ctx);
  run::RunConfig other_cap = cfg;
  other_cap.lmax_cap = 30;
  run::RunConfig other_end = cfg;
  other_end.tau_end = 0.0;
  for (const run::RunConfig& worker_cfg : {other_cap, other_end}) {
    auto world = pm::TcpWorld::listen("127.0.0.1", 0, cfg.workers);
    const auto params = write_params(worker_cfg, "tcp_refuse");
    const pid_t pid = spawn_worker(params, world->port());
    ASSERT_EQ(world->accept_workers(30.0), cfg.workers);
    const auto out = pp::run_plinger_tcp(
        ctx->background(), ctx->recombination(), plan.perturbation(),
        plan.schedule(), plan.setup(), *world);
    world.reset();
    const int status = wait_exit(pid);
    std::filesystem::remove(params);

    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1) << status;
    EXPECT_TRUE(out.results.empty());
    EXPECT_TRUE(out.master.all_workers_lost);
    EXPECT_TRUE(out.completed_degraded);
  }
}

TEST(TcpE2E, WorkerKilledMidRunStillCompletesBitwise) {
  const run::RunConfig cfg = e2e_config();
  const auto ctx = run::make_context(cfg);
  const run::RunPlan plan(cfg, ctx);
  const auto ref = pp::run_plinger_threads(
      ctx->background(), ctx->recombination(), plan.perturbation(),
      plan.schedule(), plan.setup(), cfg.workers);

  auto world = pm::TcpWorld::listen("127.0.0.1", 0, cfg.workers);
  const auto params = write_params(cfg, "tcp_kill");
  std::vector<pid_t> pids;
  for (int i = 0; i < cfg.workers; ++i) {
    pids.push_back(spawn_worker(params, world->port()));
  }
  ASSERT_EQ(world->accept_workers(30.0), cfg.workers);

  // Drive the master loop directly so the first settled result can
  // SIGKILL a worker process while its remaining modes are in flight —
  // the connection loss must surface as the tag-7 death notice and the
  // orphaned modes must be reassigned to the survivor.
  auto pctx = pm::initpass(*world, 0);
  std::map<std::size_t, pb::ModeResult> results;
  bool killed = false;
  const auto stats = pp::run_master(
      pctx, plan.schedule(), plan.setup(),
      [&](std::size_t ik, const pb::ModeResult& r) {
        results.emplace(ik, r);
        if (!killed) {
          killed = true;
          ::kill(pids[0], SIGKILL);
        }
      });
  pm::endpass(pctx);
  world.reset();
  ::kill(pids[0], SIGKILL);  // no-op if already dead
  wait_exit(pids[0]);
  const int status = wait_exit(pids[1]);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  std::filesystem::remove(params);

  ASSERT_TRUE(killed);
  EXPECT_EQ(stats.lost_workers.size(), 1u);
  EXPECT_TRUE(stats.failed_ik.empty());
  EXPECT_TRUE(stats.quarantined_ik.empty());
  // Every mode still lands, and every one is bitwise identical.
  expect_wire_bitwise_equal(results, ref.results);
}

// --- line-of-sight shaping across the wire ---------------------------

TEST(TcpLos, MasterRefusesTowersOfAnotherLmax) {
  // The tag-1 broadcast carries tau_end and lmax_cap but not the LOS
  // shaping, and on a log grid l_max does not move n_k: a worker started
  // with l_max 40 passes every broadcast cross-check of a master at 60.
  // The master's sink must refuse its towers before the journal append,
  // name l_max, and stop the worker.
  run::RunConfig cfg;
  cfg.grid = "log";
  cfg.k_min = 0.004;
  cfg.k_max = 0.04;
  cfg.n_k = 4;
  cfg.l_max = 60;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 12;
  cfg.rtol = 1e-5;
  cfg.solver = "los";
  cfg.los_accuracy = "draft";
  cfg.workers = 1;
  run::RunConfig worker_cfg = cfg;
  worker_cfg.l_max = 40;
  cfg.store = ::testing::TempDir() + "plinger_tcp_misshaped.pj";
  std::filesystem::remove(cfg.store);
  const auto ctx = run::make_context(cfg);
  const run::RunPlan plan(cfg, ctx);
  const run::RunPlan worker_plan(worker_cfg, ctx);
  ASSERT_EQ(worker_plan.schedule().size(), plan.schedule().size());

  auto world = pm::TcpWorld::listen("127.0.0.1", 0, cfg.workers);
  std::thread worker([&] {
    auto link = pm::TcpWorld::connect("127.0.0.1", world->port());
    pp::run_plinger_tcp_worker(ctx->background(), ctx->recombination(),
                               worker_plan.perturbation(),
                               worker_plan.schedule(), worker_plan.setup(),
                               *link);
  });
  ASSERT_EQ(world->accept_workers(30.0), cfg.workers);
  try {
    (void)pp::run_plinger_tcp(ctx->background(), ctx->recombination(),
                              plan.perturbation(), plan.schedule(),
                              plan.setup(), *world);
    ADD_FAILURE() << "the master accepted towers of another l_max";
  } catch (const pp::MisshapedResult& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("41/41"), std::string::npos) << msg;
    EXPECT_NE(msg.find("l_max = 60"), std::string::npos) << msg;
  }
  worker.join();  // returns once the master's stop has reached it
  world.reset();

  EXPECT_TRUE(plinger::store::read_journal(cfg.store).results.empty());
  std::filesystem::remove(cfg.store);
}

}  // namespace
