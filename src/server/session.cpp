#include "server/session.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#ifdef __unix__
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>
#endif

#include "common/fault_injection.hpp"
#include "server/protocol.hpp"

namespace laca {
namespace {

using SteadyClock = std::chrono::steady_clock;

// Poll granularity: the latency bound on noticing a stop flag or an expired
// deadline, on draining a full write buffer, and on delivering an answer
// when the reader has no waker (or for reload responses, which resolve
// without one). Completed requests wake the reader directly, so this tick
// is not on the answer path; it stays large enough that an idle session is
// effectively free.
constexpr int kPollTickMs = 20;

double ElapsedMs(SteadyClock::time_point since) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - since)
      .count();
}

}  // namespace

void LineWriter::MaybeStallSend() {
  if (std::shared_ptr<FaultInjector> fi = GlobalFaultInjector()) {
    if (fi->ShouldFire(FaultSite::kSendStall)) {
      std::this_thread::sleep_for(fi->stall_duration());
    }
  }
}

bool StdioLineWriter::Write(const std::string& line) {
  if (failed_) return false;
  MaybeStallSend();
  std::fprintf(out_, "%s\n", line.c_str());
  std::fflush(out_);
  if (std::ferror(out_)) failed_ = true;
  return !failed_;
}

#ifdef __unix__

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Shared between a reader and every on-ready callback it handed out, so a
// completion that lands after the session ended writes to a still-open
// pipe. Both ends are non-blocking and close-on-exec.
class SessionWaker {
 public:
  /// Null when the pipe cannot be made (EMFILE and friends); the session
  /// then falls back to tick-driven delivery.
  static std::shared_ptr<SessionWaker> Create() {
    int fds[2] = {-1, -1};
    if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) return nullptr;
    try {
      return std::make_shared<SessionWaker>(fds[0], fds[1]);
    } catch (...) {
      ::close(fds[0]);
      ::close(fds[1]);
      return nullptr;
    }
  }
  SessionWaker(int read_fd, int write_fd)
      : read_fd_(read_fd), write_fd_(write_fd) {}
  SessionWaker(const SessionWaker&) = delete;
  SessionWaker& operator=(const SessionWaker&) = delete;
  ~SessionWaker() {
    ::close(read_fd_);
    ::close(write_fd_);
  }

  /// Makes read_fd() readable. A full pipe (EAGAIN) is already readable.
  void Notify() {
    const char byte = 1;
    while (::write(write_fd_, &byte, 1) < 0 && errno == EINTR) {
    }
  }
  /// Empties the pipe, so the next poll(2) blocks until the next Notify().
  void Drain() {
    char sink[256];
    for (;;) {
      const ssize_t n = ::read(read_fd_, sink, sizeof(sink));
      if (n > 0 || (n < 0 && errno == EINTR)) continue;
      return;  // EAGAIN: empty
    }
  }
  int read_fd() const { return read_fd_; }

 private:
  const int read_fd_;
  const int write_fd_;
};

FdLineReader::FdLineReader(int fd, size_t max_line_bytes,
                           ReadDeadlines deadlines,
                           const std::atomic<bool>* stop)
    : fd_(fd),
      max_line_bytes_(max_line_bytes),
      deadlines_(deadlines),
      stop_(stop),
      waker_(SessionWaker::Create()) {}

std::function<void()> FdLineReader::ReadyCallback() {
  if (waker_ == nullptr) return {};
  return [waker = waker_] { waker->Notify(); };
}

ReadStatus FdLineReader::Next(std::string* line) {
  line->clear();
  // The deadline anchors persist across kAgain ticks: the line deadline
  // anchors at the first byte of the current line (leftover bytes from the
  // previous read belong to this line, so they anchor immediately), the
  // idle deadline at the moment the previous line completed.
  if (!idle_armed_) {
    idle_armed_ = true;
    idle_anchor_ = SteadyClock::now();
  }
  if (!buf_.empty() && !line_armed_) {
    line_armed_ = true;
    line_anchor_ = SteadyClock::now();
  }
  for (;;) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      line_armed_ = false;
      idle_armed_ = false;
      return line->size() > max_line_bytes_ ? ReadStatus::kOverlong
                                            : ReadStatus::kLine;
    }
    if (buf_.size() > max_line_bytes_) {
      buf_.clear();  // hostile input; the session closes, nothing to save
      return ReadStatus::kOverlong;
    }
    if (eof_) {
      if (buf_.empty()) return ReadStatus::kEof;
      *line = std::move(buf_);  // final unterminated line still delivered
      buf_.clear();
      return ReadStatus::kLine;
    }
    if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
      return ReadStatus::kEof;
    }

    int wait_ms = kPollTickMs;
    if (line_armed_ && deadlines_.line_ms > 0.0) {
      const double remaining = deadlines_.line_ms - ElapsedMs(line_anchor_);
      if (remaining <= 0.0) return ReadStatus::kTimeout;  // slow-loris
      wait_ms = std::min(wait_ms, static_cast<int>(std::ceil(remaining)));
    } else if (!line_armed_ && deadlines_.idle_ms > 0.0) {
      const double remaining = deadlines_.idle_ms - ElapsedMs(idle_anchor_);
      if (remaining <= 0.0) return ReadStatus::kTimeout;
      wait_ms = std::min(wait_ms, static_cast<int>(std::ceil(remaining)));
    }

    pollfd pfds[2]{};
    pfds[0].fd = fd_;
    pfds[0].events = POLLIN;
    nfds_t nfds = 1;
    if (waker_ != nullptr) {
      pfds[1].fd = waker_->read_fd();
      pfds[1].events = POLLIN;
      nfds = 2;
    }
    const int pr = ::poll(pfds, nfds, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) return ReadStatus::kAgain;  // caller re-checks
      eof_ = true;  // unpollable descriptor = stream over
      continue;
    }
    if (pr == 0) {
      return ReadStatus::kAgain;  // tick: let the session flush responses
    }
    if (nfds == 2 && pfds[1].revents != 0) {
      // A request completed: return so the session writes it now. The line
      // and idle anchors stay armed, so a wakeup never extends a deadline.
      waker_->Drain();
      return ReadStatus::kAgain;
    }

    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      if (!line_armed_) {
        line_armed_ = true;
        line_anchor_ = SteadyClock::now();
      }
      buf_.append(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      eof_ = true;
    } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      eof_ = true;  // ECONNRESET and friends: deliver what we have, then end
    }
  }
}

bool FdLineWriter::Write(const std::string& line) {
  if (failed_) return false;
  MaybeStallSend();
  buf_.assign(line);
  buf_.push_back('\n');
  const char* data = buf_.data();
  size_t len = buf_.size();
  const SteadyClock::time_point start = SteadyClock::now();
  while (len > 0) {
    const ssize_t n = ::write(fd_, data, len);
    if (n > 0) {
      data += n;
      len -= static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The peer's receive buffer is full. Wait for drain within the stall
      // budget; a reader that never drains costs at most write_timeout_ms.
      int wait_ms = kPollTickMs;
      if (write_timeout_ms_ > 0.0) {
        const double remaining = write_timeout_ms_ - ElapsedMs(start);
        if (remaining <= 0.0) {
          failed_ = true;  // stalled writer: budget spent, peer is hostile
          return false;
        }
        wait_ms = std::min(wait_ms, static_cast<int>(std::ceil(remaining)));
      }
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLOUT;
      if (::poll(&pfd, 1, wait_ms) < 0 && errno != EINTR) {
        failed_ = true;
        return false;
      }
      continue;
    }
    failed_ = true;  // EPIPE, ECONNRESET, ...: peer is gone
    return false;
  }
  return true;
}

SessionResult RunSession(ServingEngine& engine, const SessionHooks& hooks,
                         FdLineReader& in, LineWriter& out,
                         const SessionLimits& limits) {
  using End = SessionResult::End;
  struct Pending {
    uint64_t id = 0;
    std::optional<std::string> ready;    // immediate response (errors)
    std::function<std::string()> lazy;   // rendered at emission (stats)
    std::future<ReloadOutcome> reload;   // background reload ticket
    std::future<ServeResponse> response;
  };
  std::deque<Pending> pending;
  const size_t max_pending = limits.max_pending != 0
                                 ? limits.max_pending
                                 : engine.num_workers() * 4 + 256;
  SessionResult result;
  bool muted = false;  // peer unreachable or session killed: drain silently
  // Handed to every Submit: a finished request wakes the reader, so its
  // answer is written now rather than at the next poll tick.
  const std::function<void()> on_ready = in.ReadyCallback();

  auto render_reload = [](uint64_t id, ReloadOutcome r) {
    if (r.ok) return FormatReloadResponse(id, r.version);
    ServeResponse resp;
    resp.status = ServeStatus::kInvalid;
    resp.error = "reload failed: " + r.error;
    return FormatResponse(id, resp);
  };
  auto emit_front = [&] {
    Pending p = std::move(pending.front());
    pending.pop_front();
    std::string line;
    if (p.ready) {
      line = std::move(*p.ready);
    } else if (p.lazy) {
      line = p.lazy();
    } else if (p.reload.valid()) {
      line = render_reload(p.id, p.reload.get());
    } else {
      line = FormatResponse(p.id, p.response.get());
    }
    if (!muted) out.Write(line);  // futures are resolved either way
  };
  auto front_ready = [&]() -> bool {
    const Pending& p = pending.front();
    if (p.ready || p.lazy) return true;
    if (p.reload.valid()) {
      return p.reload.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    }
    return p.response.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  };
  auto flush_ready = [&](bool all) {
    while (!pending.empty()) {
      if (!all && !front_ready()) break;
      emit_front();
    }
  };

  std::string line;
  for (;;) {
    const ReadStatus rs = in.Next(&line);
    if (rs == ReadStatus::kAgain) {
      // Wakeup or idle tick: emit whatever became ready so a client waiting
      // in request/response lockstep gets its answer without sending more.
      flush_ready(/*all=*/false);
      if (!muted && !out.ok()) {
        muted = true;
        result.end = End::kWriteClosed;
        break;
      }
      continue;
    }
    if (rs == ReadStatus::kEof) {
      result.end = End::kEof;
      break;
    }
    if (rs == ReadStatus::kTimeout) {
      // Earlier ids flush first so the idless timeout line cannot appear
      // to belong to a request that was already admitted.
      result.end = End::kTimeout;
      flush_ready(/*all=*/true);
      if (!muted) out.Write("ERR read_timeout");
      return result;
    }
    if (rs == ReadStatus::kOverlong) {
      result.end = End::kOverlong;
      const uint64_t id = ++result.requests;  // the oversized line's id
      flush_ready(/*all=*/true);
      ServeResponse resp;
      resp.status = ServeStatus::kInvalid;
      resp.error = "request line exceeds " +
                   std::to_string(in.max_line_bytes()) + " bytes";
      if (!muted) out.Write(FormatResponse(id, resp));
      return result;
    }

    std::string_view sv(line);
    while (!sv.empty() && (sv.back() == '\n' || sv.back() == '\r')) {
      sv.remove_suffix(1);
    }
    if (sv.empty() || sv.front() == '#') continue;

    if (std::shared_ptr<FaultInjector> fi = GlobalFaultInjector();
        fi != nullptr && fi->ShouldFire(FaultSite::kSessionKill)) {
      muted = true;  // as if the peer vanished: no more reads or writes
      result.end = End::kKilled;
      break;
    }

    const uint64_t id = ++result.requests;
    ParsedLine parsed = ParseRequestLine(sv);
    Pending p;
    p.id = id;
    switch (parsed.kind) {
      case ParsedLine::Kind::kStats:
        if (hooks.stats_line) {
          p.lazy = hooks.stats_line;
        } else {
          p.lazy = [&engine] {
            ServingStats s = engine.Stats();
            const double qps =
                s.uptime_seconds > 0.0 ? s.completed / s.uptime_seconds : 0.0;
            return FormatStatsLine(s, qps);
          };
        }
        break;
      case ParsedLine::Kind::kHealth:
        if (hooks.health_line) {
          p.lazy = hooks.health_line;
        } else {
          p.lazy = [&engine] { return FormatHealthLine(engine.Stats()); };
        }
        break;
      case ParsedLine::Kind::kReload:
        // The rebuild (and its retries) run off this thread; requests keep
        // flowing on the old snapshot and this slot resolves once the
        // ticket reaches its final outcome.
        if (hooks.request_reload) {
          p.reload = hooks.request_reload();
        } else {
          ServeResponse resp;
          resp.status = ServeStatus::kInvalid;
          resp.error = "reload is not supported by this server";
          p.ready = FormatResponse(id, resp);
        }
        break;
      case ParsedLine::Kind::kShutdown:
        p.ready = "OK id=" + std::to_string(id) + " shutdown";
        break;
      case ParsedLine::Kind::kError: {
        ServeResponse resp;
        resp.status = ServeStatus::kInvalid;
        resp.error = parsed.error;
        p.ready = FormatResponse(id, resp);
        break;
      }
      case ParsedLine::Kind::kRequest: {
        Admission admission = engine.Submit(parsed.request, on_ready);
        if (admission.ok()) {
          p.response = std::move(admission.response);
        } else {
          ServeResponse resp;
          resp.status = admission.status;
          resp.error = std::move(admission.error);
          resp.retry_after_ms = admission.retry_after_ms;
          p.ready = FormatResponse(id, resp);
        }
        break;
      }
    }
    pending.push_back(std::move(p));
    flush_ready(/*all=*/false);
    if (pending.size() >= max_pending) emit_front();  // blocks on the oldest
    if (!muted && !out.ok()) {
      muted = true;  // peer disconnected; drain below, then close
      result.end = End::kWriteClosed;
      break;
    }
    if (parsed.kind == ParsedLine::Kind::kShutdown) {
      result.end = End::kShutdown;
      break;
    }
  }
  flush_ready(/*all=*/true);
  return result;
}

#endif  // __unix__

}  // namespace laca
