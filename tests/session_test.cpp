// Session loop under hostile peers (DESIGN.md §11): slow-loris drip-feeds,
// oversized request lines, stalled readers, vanished peers, and SIGTERM
// drain — all over real descriptors (socketpairs), so the sanitizer nets
// exercise the exact code the TCP server runs.
#include "server/session.hpp"

#include <gtest/gtest.h>

#ifdef __unix__

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attr/tnam.hpp"
#include "common/fault_injection.hpp"
#include "data/dataset_snapshot.hpp"
#include "eval/datasets.hpp"
#include "server/protocol.hpp"

namespace laca {
namespace {

class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(m_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void WaitUntilOpen() {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [this] { return open_; });
  }
  void AwaitArrivals(size_t n) {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [this, n] { return arrivals_ >= n; });
  }
  void Arrive() {
    {
      std::lock_guard<std::mutex> lock(m_);
      ++arrivals_;
    }
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool open_ = false;
  size_t arrivals_ = 0;
};

/// The client side of a socketpair: blocking line-oriented reads with a
/// hard test timeout, so a regression hangs an assertion, not the suite.
class TestClient {
 public:
  explicit TestClient(int fd) : fd_(fd) {}
  ~TestClient() { Close(); }

  void Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << "client write failed: " << std::strerror(errno);
      off += static_cast<size_t>(n);
    }
  }

  /// Reads one '\n'-terminated line; "" means EOF, a fatal failure means
  /// the 5-second test deadline expired.
  std::string ReadLine() {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      if (eof_) return "";
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int pr = ::poll(&pfd, 1, 5000);
      EXPECT_GT(pr, 0) << "test client timed out waiting for a line";
      if (pr <= 0) return "";
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
      } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
        eof_ = true;
      }
    }
  }

  /// Half-close: the session sees EOF after consuming what was sent, but
  /// this client can still read responses.
  void FinishSending() { ::shutdown(fd_, SHUT_WR); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  bool eof_ = false;
};

/// Owns one end of a socketpair and runs RunSession over it on a thread.
class SessionUnderTest {
 public:
  SessionUnderTest(ServingEngine& engine, size_t max_line_bytes,
                   ReadDeadlines deadlines,
                   const std::atomic<bool>* stop = nullptr,
                   double write_timeout_ms = 0.0) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server_fd_ = fds[0];
    client_fd_ = fds[1];
    EXPECT_TRUE(SetNonBlocking(server_fd_));
    reader_ = std::make_unique<FdLineReader>(server_fd_, max_line_bytes,
                                             deadlines, stop);
    writer_ = std::make_unique<FdLineWriter>(server_fd_, write_timeout_ms);
    result_ = std::async(std::launch::async, [this, &engine] {
      SessionResult r = RunSession(engine, SessionHooks{}, *reader_, *writer_);
      ::close(server_fd_);  // the session is over; the client sees EOF
      return r;
    });
  }

  int ReleaseClientFd() { return std::exchange(client_fd_, -1); }
  SessionResult Join() { return result_.get(); }

  ~SessionUnderTest() {
    if (client_fd_ >= 0) ::close(client_fd_);
    if (result_.valid()) result_.get();
  }

 private:
  int server_fd_ = -1;
  int client_fd_ = -1;
  std::unique_ptr<FdLineReader> reader_;
  std::unique_ptr<FdLineWriter> writer_;
  std::future<SessionResult> result_;
};

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Sessions write to peers that vanished; laca_serve ignores SIGPIPE in
    // main() and these tests drive the same writer code.
    std::signal(SIGPIPE, SIG_IGN);
    ds_ = &GetDataset("cora-sim");
    TnamOptions topts;
    topts.k = 32;
    Tnam tnam = Tnam::Build(ds_->data.attributes, topts);
    std::vector<PreparedTnam> tnams;
    tnams.push_back(PreparedTnam{static_cast<int>(tnam.dim()),
                                 std::move(tnam)});
    snap_ = ds_->snapshot->WithTnams(std::move(tnams), /*version=*/1);
  }
  static void TearDownTestSuite() { snap_.reset(); }

  static ServingOptions WithWorkers(size_t workers) {
    ServingOptions opts;
    opts.num_workers = workers;
    return opts;
  }

  static const Dataset* ds_;
  static std::shared_ptr<const DatasetSnapshot> snap_;
};

const Dataset* SessionTest::ds_ = nullptr;
std::shared_ptr<const DatasetSnapshot> SessionTest::snap_;

TEST_F(SessionTest, LockstepClientGetsEachResponseWithoutPipelining) {
  // The strictest client shape: one request, then a blocking read for its
  // response before sending anything else. Only the kAgain path (the
  // completion wakeup, or the poll tick when there is none) can serve it —
  // a session that flushes only on the next input line hangs.
  ServingEngine engine(snap_, WithWorkers(2));
  SessionUnderTest session(engine, 1 << 20, ReadDeadlines{});
  TestClient client(session.ReleaseClientFd());

  client.Send("0 5\n");
  EXPECT_TRUE(StartsWith(client.ReadLine(), "OK id=1 ")) << "first response";
  client.Send("health\n");
  EXPECT_TRUE(StartsWith(client.ReadLine(), "HEALTH status="));
  client.Send("0 5\n");
  EXPECT_TRUE(StartsWith(client.ReadLine(), "OK id=3 "));

  client.Close();
  SessionResult r = session.Join();
  EXPECT_EQ(r.end, SessionResult::End::kEof);
  EXPECT_EQ(r.requests, 3u);
}

TEST_F(SessionTest, SlowLorisIsClosedWithinTheLineBudget) {
  // A peer drip-feeding a never-ending line: the deadline anchors at the
  // line's first byte and the trickle cannot reset it. The earlier,
  // complete request still gets its tagged response before the idless
  // timeout line.
  ServingEngine engine(snap_, WithWorkers(2));
  ReadDeadlines deadlines;
  deadlines.line_ms = 150.0;
  SessionUnderTest session(engine, 1 << 20, deadlines);
  TestClient client(session.ReleaseClientFd());

  client.Send("0 5\n");
  client.Send("0 ");  // the loris begins: a line that never finishes
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  client.Send("5");  // still alive, still no newline — must not re-anchor

  EXPECT_TRUE(StartsWith(client.ReadLine(), "OK id=1 "));
  EXPECT_EQ(client.ReadLine(), "ERR read_timeout");
  EXPECT_EQ(client.ReadLine(), "");  // EOF: the session closed
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  EXPECT_LT(waited, 4.0) << "line deadline did not bound the session";

  SessionResult r = session.Join();
  EXPECT_EQ(r.end, SessionResult::End::kTimeout);
  EXPECT_EQ(r.requests, 1u);  // the unfinished line never got an id
}

TEST_F(SessionTest, IdleDeadlineReclaimsQuietConnections) {
  ServingEngine engine(snap_, WithWorkers(1));
  ReadDeadlines deadlines;
  deadlines.idle_ms = 100.0;
  SessionUnderTest session(engine, 1 << 20, deadlines);
  TestClient client(session.ReleaseClientFd());

  EXPECT_EQ(client.ReadLine(), "ERR read_timeout");
  EXPECT_EQ(client.ReadLine(), "");
  EXPECT_EQ(session.Join().end, SessionResult::End::kTimeout);
}

TEST_F(SessionTest, OversizedRequestLineGetsTaggedErrorThenCloses) {
  // The overlong verdict must arrive BEFORE the newline ever shows up —
  // a hostile peer could otherwise grow the buffer without bound.
  ServingEngine engine(snap_, WithWorkers(1));
  SessionUnderTest session(engine, /*max_line_bytes=*/64, ReadDeadlines{});
  TestClient client(session.ReleaseClientFd());

  client.Send("0 5\n");  // id=1, fine
  client.Send(std::string(4096, 'x'));  // no newline, far over the bound
  EXPECT_TRUE(StartsWith(client.ReadLine(), "OK id=1 "));
  EXPECT_EQ(client.ReadLine(),
            "ERR id=2 code=invalid msg=request line exceeds 64 bytes");
  EXPECT_EQ(client.ReadLine(), "");

  SessionResult r = session.Join();
  EXPECT_EQ(r.end, SessionResult::End::kOverlong);
  EXPECT_EQ(r.requests, 2u);  // the oversized line consumed id 2
}

TEST_F(SessionTest, FinalUnterminatedLineIsStillServed) {
  ServingEngine engine(snap_, WithWorkers(1));
  SessionUnderTest session(engine, 1 << 20, ReadDeadlines{});
  TestClient client(session.ReleaseClientFd());

  client.Send("stats");  // no trailing newline
  client.FinishSending();
  EXPECT_TRUE(StartsWith(client.ReadLine(), "STATS qps="));
  EXPECT_EQ(client.ReadLine(), "");
  EXPECT_EQ(session.Join().end, SessionResult::End::kEof);
}

TEST_F(SessionTest, ShutdownCommandEndsTheSessionAfterItsResponse) {
  ServingEngine engine(snap_, WithWorkers(1));
  SessionUnderTest session(engine, 1 << 20, ReadDeadlines{});
  TestClient client(session.ReleaseClientFd());

  client.Send("0 5\nshutdown\n0 5\n");  // the third line must never run
  EXPECT_TRUE(StartsWith(client.ReadLine(), "OK id=1 "));
  EXPECT_EQ(client.ReadLine(), "OK id=2 shutdown");
  EXPECT_EQ(client.ReadLine(), "");

  SessionResult r = session.Join();
  EXPECT_EQ(r.end, SessionResult::End::kShutdown);
  EXPECT_EQ(r.requests, 2u);
}

TEST_F(SessionTest, WriteStallBudgetBoundsAReaderThatNeverDrains) {
  // Unit-level: a pipe whose buffer is already full is a peer that stopped
  // reading. The writer must give up within its budget, not block forever.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(SetNonBlocking(fds[1]));
  // Pack the pipe until the kernel says EAGAIN.
  std::string filler(4096, 'z');
  for (;;) {
    const ssize_t n = ::write(fds[1], filler.data(), filler.size());
    if (n < 0) {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
      break;
    }
  }
  FdLineWriter writer(fds[1], /*write_timeout_ms=*/100.0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(writer.Write("response nobody will read"));
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  EXPECT_GE(waited, 0.05);  // it did wait for the budget...
  EXPECT_LT(waited, 4.0);   // ...but the budget bounded it
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.Write("still closed"));  // failed writers stay failed
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(SessionTest, PeerDisconnectMidStreamDrainsAdmittedWork) {
  // The peer vanishes while requests are parked in the engine. Every
  // admitted future must still be consumed (zero admitted-but-lost), the
  // session must end, and the engine must stay healthy for the next peer.
  Gate gate;
  ServingOptions opts = WithWorkers(1);
  opts.worker_hook = [&gate] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);
  {
    SessionUnderTest session(engine, 1 << 20, ReadDeadlines{});
    TestClient client(session.ReleaseClientFd());
    client.Send("0 5\n0 5\n0 5\n");
    gate.AwaitArrivals(1);  // the engine owns at least the first request
    client.Close();         // vanish: RST/EOF with three requests in flight
    gate.Open();
    SessionResult r = session.Join();  // returns only once futures drained
    EXPECT_EQ(r.requests, 3u);
  }
  ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST_F(SessionTest, SessionKillFaultAbandonsThePeerNotTheWork) {
  // The chaos harness's mid-request disconnect, provoked deterministically:
  // the kill site fires on the second request line; the first request was
  // already admitted and must still run to completion.
  auto injector = std::make_shared<FaultInjector>();
  injector->Arm(FaultSite::kSessionKill, /*at_hit=*/2);
  ScopedGlobalFaultInjector scoped(injector);

  ServingEngine engine(snap_, WithWorkers(1));
  SessionUnderTest session(engine, 1 << 20, ReadDeadlines{});
  TestClient client(session.ReleaseClientFd());
  client.Send("0 5\n0 5\n");
  // Nothing is written after the kill; at most request 1's response was
  // already on the wire before the fault fired.
  size_t lines = 0;
  for (std::string l = client.ReadLine(); !l.empty(); l = client.ReadLine()) {
    EXPECT_TRUE(StartsWith(l, "OK id=1 ")) << l;
    ++lines;
  }
  EXPECT_LE(lines, 1u);

  SessionResult r = session.Join();
  EXPECT_EQ(r.end, SessionResult::End::kKilled);
  EXPECT_EQ(r.requests, 1u);  // the killing line itself got no id
  EXPECT_EQ(injector->fired(FaultSite::kSessionKill), 1u);

  ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(stats.admitted, 1u);
}

TEST_F(SessionTest, StopFlagDrainsConcurrentSessionsWithoutLosingWork) {
  // SIGTERM drain under concurrent traffic: several live sessions with
  // requests parked in the engine, then the stop flag rises. Every session
  // must end orderly (kEof), every already-admitted request must complete
  // AND its response must reach its client before the close.
  constexpr size_t kSessions = 3;
  constexpr size_t kPerSession = 2;
  Gate gate;
  std::atomic<bool> stop{false};
  ServingOptions opts = WithWorkers(2);
  opts.worker_hook = [&gate] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  std::vector<std::unique_ptr<SessionUnderTest>> sessions;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (size_t i = 0; i < kSessions; ++i) {
    sessions.push_back(std::make_unique<SessionUnderTest>(
        engine, 1 << 20, ReadDeadlines{}, &stop));
    clients.push_back(
        std::make_unique<TestClient>(sessions.back()->ReleaseClientFd()));
    for (size_t j = 0; j < kPerSession; ++j) clients.back()->Send("0 5\n");
  }
  // Both workers parked on claimed requests; the rest queue behind them.
  // The stop flag must not rise before every request line was admitted —
  // the drain contract covers admitted work, not unread socket bytes.
  gate.AwaitArrivals(2);
  while (engine.Stats().admitted < kSessions * kPerSession) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  stop.store(true);  // SIGTERM
  gate.Open();       // workers resume so the drain can finish

  for (size_t i = 0; i < kSessions; ++i) {
    size_t ok_lines = 0;
    for (std::string l = clients[i]->ReadLine(); !l.empty();
         l = clients[i]->ReadLine()) {
      EXPECT_TRUE(StartsWith(l, "OK id=")) << l;
      ++ok_lines;
    }
    EXPECT_EQ(ok_lines, kPerSession) << "session " << i << " lost responses";
    SessionResult r = sessions[i]->Join();
    EXPECT_EQ(r.end, SessionResult::End::kEof);
    EXPECT_EQ(r.requests, kPerSession);
  }
  ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.admitted, kSessions * kPerSession);
  EXPECT_EQ(stats.completed, stats.admitted);  // zero admitted-but-lost
}

TEST_F(SessionTest, PipeReaderEnforcesTheLineBound) {
  // stdin mode's reader: FdLineReader over a blocking pipe, as laca_serve
  // uses it on fd 0 (no O_NONBLOCK — reads only follow POLLIN).
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  TestClient writer(fds[1]);
  writer.Send(std::string(256, 'y') + "\n");
  FdLineReader reader(fds[0], /*max_line_bytes=*/64, ReadDeadlines{});
  std::string line;
  EXPECT_EQ(reader.Next(&line), ReadStatus::kOverlong);
  ::close(fds[0]);

  ASSERT_EQ(::pipe(fds), 0);
  TestClient ok_writer(fds[1]);
  ok_writer.Send("stats\n");
  ok_writer.Close();
  FdLineReader ok_reader(fds[0], 64, ReadDeadlines{});
  EXPECT_EQ(ok_reader.Next(&line), ReadStatus::kLine);
  EXPECT_EQ(line, "stats");
  EXPECT_EQ(ok_reader.Next(&line), ReadStatus::kEof);
  ::close(fds[0]);
}

TEST_F(SessionTest, LockstepAnswersAreWrittenWhenTheyCompleteNotAtTheTick) {
  // A client in strict request/response lockstep sends nothing while it
  // waits, so only the engine's completion wakeup can get its answer out
  // before the session's 20 ms poll tick. Requests are cheap (eps=0.05 on
  // cora-sim), so K round trips take far less than K ticks; a session that
  // flushes only on its tick needs about one full tick per round trip.
  constexpr int kRoundTrips = 40;
  constexpr double kPollTickMs = 20.0;  // kPollTickMs in session.cpp
  ServingEngine engine(snap_, WithWorkers(1));
  SessionUnderTest session(engine, 1 << 20, ReadDeadlines{});
  TestClient client(session.ReleaseClientFd());

  client.Send("0 3 eps=0.05\n");  // warm the worker's arena first
  ASSERT_TRUE(StartsWith(client.ReadLine(), "OK id=1 "));
  const auto start = std::chrono::steady_clock::now();
  for (int i = 1; i <= kRoundTrips; ++i) {
    client.Send(std::to_string(i) + " 3 eps=0.05\n");
    const std::string line = client.ReadLine();
    ASSERT_TRUE(StartsWith(line, "OK id=" + std::to_string(i + 1) + " "))
        << line;
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_LT(elapsed_ms, kRoundTrips * kPollTickMs / 4)
      << "lockstep answers waited for the poll tick";

  client.Close();
  EXPECT_EQ(session.Join().requests, static_cast<uint64_t>(kRoundTrips + 1));
}

TEST_F(SessionTest, WakeupFlushesAnAnswerWithoutExtendingThePartialLine) {
  // An answer that completes while a partial request line is buffered is
  // written at once, and the wakeup that carried it leaves the partial
  // line's deadline anchored at its first byte: the timeout lands at
  // line_ms, not line_ms after the answer.
  constexpr double kLineMs = 300.0;
  constexpr auto kComputeHold = std::chrono::milliseconds(150);
  ServingOptions opts = WithWorkers(1);
  opts.worker_hook = [kComputeHold] {
    std::this_thread::sleep_for(kComputeHold);
  };
  ServingEngine engine(snap_, opts);
  ReadDeadlines deadlines;
  deadlines.line_ms = kLineMs;
  SessionUnderTest session(engine, 1 << 20, deadlines);
  TestClient client(session.ReleaseClientFd());

  const auto start = std::chrono::steady_clock::now();
  auto since_start_ms = [&start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  client.Send("0 5\n0 ");  // a request, then a line that never finishes
  EXPECT_TRUE(StartsWith(client.ReadLine(), "OK id=1 "));
  EXPECT_LT(since_start_ms(), kLineMs) << "answer held back by the partial";
  EXPECT_EQ(client.ReadLine(), "ERR read_timeout");
  const double timed_out_ms = since_start_ms();
  EXPECT_GE(timed_out_ms, kLineMs - 1.0);
  EXPECT_LT(timed_out_ms, kLineMs + 140.0)
      << "the completion wakeup re-anchored the line deadline";
  EXPECT_EQ(session.Join().end, SessionResult::End::kTimeout);
}

}  // namespace
}  // namespace laca

#endif  // __unix__
