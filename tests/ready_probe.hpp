// Witness for ServingEngine::Submit's on-ready contract (DESIGN.md §7): an
// admitted request's callback runs exactly once, and only when its future
// is already ready; a rejected request's never runs. Shared by serving_test
// and serving_cache_test, which drive every path that resolves a request.
#ifndef LACA_TESTS_READY_PROBE_HPP_
#define LACA_TESTS_READY_PROBE_HPP_

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "server/serving_engine.hpp"

namespace laca {

/// One request's probe. The callback captures `this`, so a probe must
/// outlive every engine it submitted to (declare probes before the engine,
/// or Shutdown() the engine before they go out of scope).
class ReadyProbe {
 public:
  /// Submits `req` with this probe's callback and keeps the future. Returns
  /// the admission status.
  ServeStatus Submit(ServingEngine& engine, const ServeRequest& req) {
    {
      std::lock_guard<std::mutex> lock(m_);
      submitter_ = std::this_thread::get_id();
      in_submit_ = true;
    }
    Admission a = engine.Submit(req, [this] { Fire(); });
    {
      std::lock_guard<std::mutex> lock(m_);
      in_submit_ = false;
      future_ = std::move(a.response);
      bound_ = true;
      // A cache hit resolves inside Submit, on this thread, before the
      // future exists outside the engine: the earliest point to look at it
      // is right here.
      if (fired_in_submit_) {
        ready_at_fire_ = Ready();
        checked_ = true;
      }
    }
    cv_.notify_all();
    return a.status;
  }

  /// Waits (bounded) for the callback to have looked at the future, then
  /// returns the response.
  ServeResponse Get() {
    std::unique_lock<std::mutex> lock(m_);
    const bool fired = cv_.wait_for(lock, std::chrono::seconds(10),
                                    [this] { return checked_; });
    EXPECT_TRUE(fired) << "on-ready callback never ran";
    if (!fired || !future_.valid()) return ServeResponse{};
    return future_.get();
  }

  int calls() const {
    std::lock_guard<std::mutex> lock(m_);
    return calls_;
  }
  bool ready_at_fire() const {
    std::lock_guard<std::mutex> lock(m_);
    return ready_at_fire_;
  }

 private:
  void Fire() {
    std::unique_lock<std::mutex> lock(m_);
    ++calls_;
    if (in_submit_ && std::this_thread::get_id() == submitter_) {
      fired_in_submit_ = true;  // checked once Submit hands the future back
      return;
    }
    // A worker resolved it: wait until Submit has handed over the future
    // (it may still be returning), then look at it before Get() can.
    cv_.wait(lock, [this] { return bound_; });
    ready_at_fire_ = Ready();
    checked_ = true;
    lock.unlock();
    cv_.notify_all();
  }

  bool Ready() const {
    return future_.valid() && future_.wait_for(std::chrono::seconds(0)) ==
                                  std::future_status::ready;
  }

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::thread::id submitter_;
  bool in_submit_ = false;
  bool bound_ = false;
  bool fired_in_submit_ = false;
  bool checked_ = false;  ///< ready_at_fire_ is final
  bool ready_at_fire_ = false;
  int calls_ = 0;
  std::future<ServeResponse> future_;
};

/// The contract, checked once the engine can no longer resolve anything.
inline void ExpectResolvedOnce(const ReadyProbe& probe, const char* what) {
  EXPECT_EQ(probe.calls(), 1) << what;
  EXPECT_TRUE(probe.ready_at_fire()) << what << ": ran before the future";
}

}  // namespace laca

#endif  // LACA_TESTS_READY_PROBE_HPP_
