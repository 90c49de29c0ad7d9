// Cooperative cancellation for the diffusion hot path (DESIGN.md §9).
//
// A CancelToken carries a deadline and a manual cancel flag. Compute kernels
// poll it at bounded intervals (every kCancelPollOps push operations plus
// every round boundary) and unwind by throwing CancelledError when it has
// tripped; the unwind path restores every workspace invariant (see
// DiffusionWorkspace::AbortCall), so a cancelled call leaves the warm arena
// reusable and allocation-free for the next request.
//
// Cost contract: a null token pointer costs one predictable branch per poll
// site; an armed token reads the steady clock only once per poll interval.
// bench_micro_kernels witnesses the end-to-end overhead at <2% on the serial
// diffusion workload.
#ifndef LACA_COMMON_CANCEL_HPP_
#define LACA_COMMON_CANCEL_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace laca {

/// Thrown by compute kernels when their CancelToken trips. Derives from
/// std::runtime_error, NOT std::invalid_argument: a deadline says nothing
/// about the request's validity.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("deadline exceeded") {}
};

/// Push operations between deadline polls. One poll per ~hundreds of edge
/// traversals keeps the worst-case budget overshoot far below a round while
/// the clock read stays invisible next to the scatter work.
constexpr uint64_t kCancelPollOps = 512;

/// Deadline + manual cancel flag, polled cooperatively by compute loops.
///
/// One writer arms/disarms it (the worker that owns the request); Cancel()
/// may be called from any thread. Reusable across requests: workers keep one
/// token alive for their lifetime and re-arm it per job.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Arms the token: Expired() starts comparing against `deadline`.
  void ArmDeadline(Clock::time_point deadline) {
    deadline_ = deadline;
    cancelled_.store(false, std::memory_order_relaxed);
    polls_left_.store(0, std::memory_order_relaxed);
    has_deadline_.store(true, std::memory_order_release);
  }

  /// Clears the deadline, the poll countdown and the cancel flag (token
  /// never trips).
  void Disarm() {
    has_deadline_.store(false, std::memory_order_relaxed);
    polls_left_.store(0, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_relaxed);
  }

  /// Trips the token immediately, from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  /// Trips the token at its `polls`-th Expired() check from now (1 = the
  /// next one), as if Cancel() had landed exactly there: a deterministic
  /// cancellation point inside a kernel for tests. 0 disables the countdown.
  /// Only the polling thread may arm it.
  void CancelAfterPolls(uint64_t polls) {
    cancelled_.store(false, std::memory_order_relaxed);
    polls_left_.store(polls, std::memory_order_relaxed);
  }

  bool Expired() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    const uint64_t polls_left = polls_left_.load(std::memory_order_relaxed);
    if (polls_left == 1) return true;  // tripped; stays tripped until re-armed
    if (polls_left != 0) {
      polls_left_.store(polls_left - 1, std::memory_order_relaxed);
    }
    if (!has_deadline_.load(std::memory_order_acquire)) return false;
    return Clock::now() >= deadline_;
  }

  void ThrowIfExpired() const {
    if (Expired()) throw CancelledError();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  // Polls left until a CancelAfterPolls() trip (1 = tripped); 0 = no
  // countdown. Written only by the polling thread, so a relaxed load/store
  // pair suffices.
  mutable std::atomic<uint64_t> polls_left_{0};
  Clock::time_point deadline_{};
};

}  // namespace laca

#endif  // LACA_COMMON_CANCEL_HPP_
