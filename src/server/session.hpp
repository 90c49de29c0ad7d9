// One request/response session over a line stream (DESIGN.md §11).
//
// Extracted from the laca_serve binary so the hostile-client behaviors —
// slow-loris drip-feeds, oversized request lines, stalled readers, peers
// that vanish mid-response, SIGTERM drain — are exercised by sanitizer
// tests against the real session loop, not a re-implementation.
//
// The session reads protocol lines (server/protocol.hpp) through a
// FdLineReader and emits exactly one response line per request through a
// LineWriter, strictly in request order; a bounded pending window keeps
// reading ahead of the slowest in-flight request. The reader enforces the
// untrusted-input bounds:
//
//   * a hard cap on request-line bytes — an overlong line gets a tagged
//     `ERR ... code=invalid msg=request line exceeds N bytes` and the
//     session ends (the peer is hostile or broken; there is no way to
//     resynchronize mid-line);
//   * a full-line deadline anchored at the line's first byte — a client
//     dripping one byte per second holds a session thread forever without
//     it (the slow-loris); on expiry the session emits an idless
//     `ERR read_timeout` and ends;
//   * an optional idle deadline between requests;
//   * a stop flag checked every poll tick, so SIGTERM drain reaches
//     sessions blocked in a read.
//
// Responses are written the moment they complete: the reader's self-pipe
// waker hands RunSession an on-ready callback, the session passes it to
// every ServingEngine::Submit, and the engine's completion wakes the
// reader out of poll(2) so the session flushes at once instead of at the
// next tick.
//
// Writers carry their own stall budget: a peer that stops draining its
// receive buffer fails the write within write_timeout_ms and the session
// stops emitting — but every already-admitted future is still consumed
// before the session closes, so admitted work is never abandoned
// (the zero-admitted-but-lost invariant the chaos harness asserts).
#ifndef LACA_SERVER_SESSION_HPP_
#define LACA_SERVER_SESSION_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <string>

#include "server/reload_manager.hpp"
#include "server/serving_engine.hpp"

namespace laca {

/// Outcome of one FdLineReader::Next call.
enum class ReadStatus : uint8_t {
  kLine,      ///< `line` holds the next line, terminator stripped
  kAgain,     ///< no complete line yet (a tick or a completion wakeup);
              ///< the session flushes ready responses and calls Next again
  kEof,       ///< orderly end of stream (or stop flag raised)
  kOverlong,  ///< the line exceeded max_line_bytes before its newline
  kTimeout,   ///< a read or idle deadline expired
};

/// Sink for response lines. Write() appends the newline and reports false
/// once the peer is unreachable (or its stall budget is spent); the session
/// then drains its in-flight work without emitting and closes cleanly.
class LineWriter {
 public:
  virtual ~LineWriter() = default;
  virtual bool Write(const std::string& line) = 0;
  bool ok() const { return !failed_; }

 protected:
  /// Consults the global fault injector's send_stall site (sleeps the
  /// injector's stall duration when it fires). Implementations call this
  /// at the top of Write so tests can provoke write-path slowness.
  static void MaybeStallSend();

  bool failed_ = false;
};

/// stdio-backed writer (stdin/stdout mode).
class StdioLineWriter : public LineWriter {
 public:
  explicit StdioLineWriter(std::FILE* out) : out_(out) {}
  bool Write(const std::string& line) override;

 private:
  std::FILE* out_;
};

#ifdef __unix__
/// Per-line and idle deadlines for FdLineReader, in milliseconds; 0
/// disables that deadline (but the stop flag is still polled).
struct ReadDeadlines {
  double line_ms = 0.0;  ///< budget for one full line from its first byte
  double idle_ms = 0.0;  ///< budget for the first byte of the next line
};

/// Self-pipe that wakes a FdLineReader out of poll(2) (session.cpp).
class SessionWaker;

/// The source of request lines: a poll(2)-driven reader over a descriptor
/// (sockets and pipes alike — the TCP sessions, stdin mode and the
/// sanitizer tests share this code). It owns the input bounds. It only
/// reads after POLLIN, so a blocking descriptor such as stdin works too.
/// The line deadline anchors at the first buffered byte of the current
/// line, so a drip-feeding client cannot reset it by staying barely
/// alive; the anchors persist across the kAgain returns (ticks and
/// completion wakeups) that let the session flush responses to a client
/// waiting in request/response lockstep.
class FdLineReader {
 public:
  FdLineReader(int fd, size_t max_line_bytes, ReadDeadlines deadlines,
               const std::atomic<bool>* stop = nullptr);
  ReadStatus Next(std::string* line);
  /// A callback that wakes a Next() blocked waiting for input, making it
  /// return kAgain; RunSession hands it to the engine as every request's
  /// on-ready callback. Safe to call from any thread, at any time — also
  /// after this reader is gone. Empty when the waker could not be made:
  /// the session then sees finished answers only at its poll tick.
  std::function<void()> ReadyCallback();
  size_t max_line_bytes() const { return max_line_bytes_; }

 private:
  const int fd_;
  const size_t max_line_bytes_;
  const ReadDeadlines deadlines_;
  const std::atomic<bool>* stop_;
  const std::shared_ptr<SessionWaker> waker_;  ///< null: tick-only
  std::string buf_;
  bool eof_ = false;
  bool line_armed_ = false;  ///< first byte of the current line seen
  bool idle_armed_ = false;  ///< waiting for the next line's first byte
  std::chrono::steady_clock::time_point line_anchor_;
  std::chrono::steady_clock::time_point idle_anchor_;
};

/// write(2)-backed writer for TCP sessions: retries EINTR, EAGAIN, and
/// short writes, turns EPIPE/ECONNRESET into a clean `false`, and spends at
/// most write_timeout_ms per line waiting for the peer to drain its buffer
/// (0 = wait forever). The descriptor should be nonblocking so the budget
/// is enforceable.
class FdLineWriter : public LineWriter {
 public:
  explicit FdLineWriter(int fd, double write_timeout_ms = 0.0)
      : fd_(fd), write_timeout_ms_(write_timeout_ms) {}
  bool Write(const std::string& line) override;

 private:
  const int fd_;
  const double write_timeout_ms_;
  std::string buf_;
};

/// Sets O_NONBLOCK on `fd` (the FdLineWriter contract; sockets served by
/// FdLineReader set it too). Returns false on fcntl failure.
bool SetNonBlocking(int fd);
#endif  // __unix__

/// Serving-binary capabilities a session can invoke beyond clustering
/// requests. Null members degrade gracefully (reload → ERR invalid).
struct SessionHooks {
  std::function<std::string()> stats_line;   ///< renders one STATS line
  std::function<std::string()> health_line;  ///< renders one HEALTH line
  /// Enqueues a background reload; the future resolves after retries.
  std::function<std::future<ReloadOutcome>()> request_reload;
};

struct SessionLimits {
  /// Responses the session will buffer ahead of the slowest in-flight
  /// request before blocking the read loop. 0 = workers * 4 + 256.
  size_t max_pending = 0;
};

struct SessionResult {
  enum class End : uint8_t {
    kEof,          ///< orderly end of input (incl. stop-flag drain)
    kShutdown,     ///< the peer sent `shutdown`
    kOverlong,     ///< closed on an oversized request line
    kTimeout,      ///< closed on a read/idle deadline
    kWriteClosed,  ///< the peer stopped accepting responses
    kKilled,       ///< the session_kill fault site fired
  };
  End end = End::kEof;
  uint64_t requests = 0;  ///< request lines consumed (ids issued)
};

#ifdef __unix__
/// Runs one session to completion. Responses are emitted strictly in
/// request order; `stats`, `health`, and `reload` responses are rendered at
/// emission time. Whatever ends the session, every admitted future is
/// drained before returning.
SessionResult RunSession(ServingEngine& engine, const SessionHooks& hooks,
                         FdLineReader& in, LineWriter& out,
                         const SessionLimits& limits = {});
#endif  // __unix__

}  // namespace laca

#endif  // LACA_SERVER_SESSION_HPP_
