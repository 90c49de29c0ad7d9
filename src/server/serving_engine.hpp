// Long-lived serving layer over LACA (DESIGN.md §7, §8).
//
// The batch API (core/batch.hpp) answers a fixed query list and tears its
// fleet down; a deployment serving heavy traffic instead keeps the dataset,
// the TNAM(s), and a fixed worker fleet warm for the process lifetime and
// admits requests as they arrive. ServingEngine is that layer:
//
//   * ownership through a versioned DatasetSnapshot (data/): the engine
//     acquires snapshots from an internal SnapshotStore, every admitted
//     request pins the snapshot version it was validated against for its
//     whole lifetime, and Reload() atomically publishes a new version under
//     live traffic — in-flight requests finish on their acquired version,
//     the retired version drains when its last reader releases it;
//   * a fixed fleet of worker threads, each owning a warm Laca per prepared
//     TNAM on one shared DiffusionWorkspace (the arena reaches its per-graph
//     steady state after the first requests and then stays allocation-free —
//     the alloc counter is exported through Stats() as the witness); after a
//     reload, idle workers rebind to the new version off the request path;
//   * a bounded admission queue with explicit backpressure: Submit() beyond
//     max_queue_depth returns kOverloaded immediately — it never blocks and
//     never grows the queue without bound;
//   * brownout shedding ahead of that hard bound (DESIGN.md §11): when the
//     recent served p99 or the projected queue wait crosses a configured
//     fraction of the deadline budget, Submit() sheds with kBrownout and a
//     retry_after_ms hint, and recovers with hysteresis once the queue
//     drains — so sustained overload degrades into fast, honest rejections
//     instead of a queue full of requests that will die of deadline;
//   * deadline-aware service: a request's budget (per-request timeout_ms or
//     the engine default) is anchored at ADMISSION, so queue wait counts
//     against it. Workers shed already-expired jobs at claim time without
//     computing (shed_in_queue), and arm a cooperative CancelToken for the
//     rest — a mid-compute trip unwinds within one poll interval, leaves the
//     warm workspace reusable, and resolves the future with
//     kDeadlineExceeded (cancelled counter);
//   * an opt-in versioned result cache + single-flight coalescing
//     (server/result_cache.hpp, DESIGN.md §13): full-tier hits resolve at
//     admission without consuming queue depth; canonically identical
//     concurrent requests coalesce onto one leader's computation (followers'
//     deadlines bound their wait; a cancelled/failed leader promotes a live
//     follower instead of failing the group); in two-tier mode workers
//     reuse the cached Step-1 diffusion vector and re-run only the cheap
//     sweep. The snapshot version lives in every key, so Reload()
//     invalidates for free and coalesced groups never mix versions;
//   * graceful drain: Shutdown() completes every admitted request, rejects
//     new ones with kShuttingDown, and joins the fleet. Every admitted
//     future is fulfilled — shed, cancelled, failed, or served.
//
// Determinism: each request runs Laca::Cluster on a private warm engine, so
// responses are bit-identical to the serial call on the same snapshot for
// every worker count (serving_test proves it at 1/2/4/8 workers, before and
// after a reload).
#ifndef LACA_SERVER_SERVING_ENGINE_HPP_
#define LACA_SERVER_SERVING_ENGINE_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/fault_injection.hpp"
#include "common/mutex.hpp"
#include "core/laca.hpp"
#include "data/dataset_snapshot.hpp"
#include "server/result_cache.hpp"

namespace laca {

/// Outcome class of one serving request.
enum class ServeStatus : uint8_t {
  kOk = 0,
  /// Admission queue at max_queue_depth; retry later (backpressure).
  kOverloaded,
  /// Proactive brownout shed: served latency or projected queue wait crossed
  /// the configured fraction of the deadline budget, so admission sheds
  /// BEFORE the queue fills and deadlines start burning compute. Carries a
  /// retry_after_ms hint; recovery is hysteretic (DESIGN.md §11).
  kBrownout,
  /// The engine is draining; no new requests are admitted.
  kShuttingDown,
  /// The request failed validation.
  kInvalid,
  /// The admission-anchored budget ran out: either shed unclaimed in the
  /// queue (no compute spent) or cancelled mid-compute by the worker's
  /// CancelToken.
  kDeadlineExceeded,
  /// The engine failed the request (worker initialization or an exception
  /// during compute) — the request itself may have been perfectly valid.
  kInternal,
};

const char* ToString(ServeStatus status);

/// One clustering request. Overrides left negative fall back to the
/// engine-wide defaults (ServingOptions::defaults).
struct ServeRequest {
  NodeId seed = 0;
  /// Requested cluster size |C_s|.
  size_t size = 1;
  double alpha = -1.0;    ///< restart factor override, in [0, 1)
  double epsilon = -1.0;  ///< diffusion threshold override, > 0
  double sigma = -1.0;    ///< AdaptiveDiffuse balance override, >= 0
  /// TNAM dimension override: selects among the active snapshot's prepared
  /// TNAMs; -1 = the snapshot default (its first entry). A k the snapshot
  /// does not carry is rejected as kInvalid — TNAMs are preprocessing
  /// artifacts, never built on the request path.
  int k = -1;
  /// Total budget in milliseconds, anchored at admission (queue wait counts
  /// against it). Negative = the engine default
  /// (ServingOptions::default_timeout_ms); 0 = explicitly no deadline, even
  /// when the engine has a default. Validated at admission: NaN or a
  /// non-finite positive value is kInvalid.
  double timeout_ms = -1.0;
};

struct ServeResponse {
  ServeStatus status = ServeStatus::kOk;
  std::vector<NodeId> cluster;
  std::string error;
  double queue_seconds = 0.0;  ///< admission -> worker claim
  double total_seconds = 0.0;  ///< admission -> completion
  /// Advisory client backoff hint, > 0 on kOverloaded/kBrownout rejections:
  /// roughly how long until admission is likely to succeed again.
  double retry_after_ms = 0.0;
};

struct ServingOptions {
  /// Worker fleet size, one thread per worker; 0 = hardware concurrency.
  size_t num_workers = 0;
  /// Admitted-but-unclaimed request bound. Submissions beyond it are
  /// rejected with kOverloaded (never queued, never blocked).
  size_t max_queue_depth = 1024;
  /// Defaults for per-request option overrides.
  LacaOptions defaults;
  /// Engine-wide request budget in milliseconds; 0 = no deadline unless the
  /// request carries its own timeout_ms. Must be finite and >= 0.
  double default_timeout_ms = 0.0;
  /// Brownout entry threshold as a fraction of default_timeout_ms: when the
  /// recent served p99 OR the projected queue wait for a new admission
  /// (queue_depth * EWMA service time / workers) reaches
  /// brownout_enter_fraction * default_timeout_ms, Submit() sheds with
  /// kBrownout + a retry_after_ms hint instead of queueing work that will
  /// burn its budget waiting. 0 disables brownout (the default). Requires a
  /// nonzero default_timeout_ms — the thresholds are fractions of it.
  double brownout_enter_fraction = 0.0;
  /// Brownout exit threshold (hysteresis), also a fraction of
  /// default_timeout_ms: admission resumes once the projected queue wait is
  /// back under brownout_exit_fraction * default_timeout_ms and the queue
  /// has drained to at most one entry per worker. Must be < the enter
  /// fraction when brownout is enabled.
  double brownout_exit_fraction = 0.25;
  /// Optional fault injector consulted by the workers (worker_stall,
  /// compute_throw, promise_path sites). Null = no faults. Shared so tests
  /// and laca_serve can keep a handle for assertions.
  std::shared_ptr<FaultInjector> fault_injector;
  /// Test hook: runs on the worker thread after claiming a request, before
  /// computing. Lets tests park workers to fill the queue deterministically.
  /// Runs AFTER the shed check — an already-expired job sheds without the
  /// hook firing, and a job parked in the hook past its deadline trips at
  /// the first cancellation poll, so both paths are deterministic to test.
  std::function<void()> worker_hook;
  /// Versioned result cache + single-flight coalescing (DESIGN.md §13).
  /// Default mode is kOff: hits and coalesced followers complete without
  /// ever claiming a worker, which changes the accounting tests pin — so
  /// caching is an explicit opt-in (laca_serve turns it on by default).
  ResultCacheOptions cache;
};

/// Aggregate serving counters, readable at any time.
struct ServingStats {
  uint64_t admitted = 0;
  uint64_t completed = 0;
  uint64_t rejected_overload = 0;
  uint64_t rejected_shutdown = 0;
  uint64_t rejected_invalid = 0;
  /// Shed proactively while the engine was in brownout.
  uint64_t rejected_brownout = 0;
  /// Whether admission is currently shedding on the brownout signal.
  bool brownout_active = false;
  /// Times the brownout latch has been entered since construction.
  uint64_t brownout_entries = 0;
  /// The projected queue wait for a new admission right now, in ms
  /// (queue_depth * EWMA service seconds / workers) — the brownout signal.
  double est_queue_wait_ms = 0.0;
  /// Admitted requests whose budget ran out: shed_in_queue + cancelled.
  uint64_t deadline_exceeded = 0;
  /// Expired before a worker claimed them; no compute was spent.
  uint64_t shed_in_queue = 0;
  /// Cancelled mid-compute by the worker's CancelToken.
  uint64_t cancelled = 0;
  /// Failed with kInternal (worker init or compute exception).
  uint64_t internal = 0;
  size_t queue_depth = 0;  ///< currently admitted-but-unclaimed
  size_t in_flight = 0;    ///< currently claimed by a worker
  size_t workers = 0;
  /// The admission bound, exported so health reporting is self-contained.
  size_t max_queue_depth = 0;
  /// Summed warm-workspace alloc counters across the fleet; flat across
  /// steady-state requests (the zero-allocation witness, DESIGN.md §2).
  uint64_t alloc_events = 0;
  /// Version of the snapshot new admissions acquire.
  uint64_t active_version = 0;
  /// Retired snapshot versions still pinned by some in-flight reader.
  size_t retired_live = 0;
  /// Successful Reload() publications since construction.
  uint64_t reloads = 0;
  // Result-cache counters (all zero with the cache off, DESIGN.md §13).
  /// Full-tier probes served at admission without touching the queue.
  uint64_t cache_hits = 0;
  /// Full-tier probes that went on to admission (queue or coalesce).
  uint64_t cache_misses = 0;
  /// Requests that attached to an identical in-flight leader instead of
  /// claiming queue depth (single-flight followers).
  uint64_t coalesced = 0;
  /// Diffusion-tier (Step-1 pi') probes, two-tier mode only.
  uint64_t cache_pi_hits = 0;
  uint64_t cache_pi_misses = 0;
  /// Byte-budget evictions across both tiers.
  uint64_t cache_evictions = 0;
  /// Resident cache bytes / entries across both tiers.
  uint64_t cache_bytes = 0;
  uint64_t cache_entries = 0;
  double uptime_seconds = 0.0;
  /// Total-latency percentiles over the retained window (last
  /// `latency_window` SERVED completions — shed, cancelled, and failed
  /// requests never enter the window, so the percentiles describe what a
  /// successful caller experienced); 0 when nothing served yet.
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  size_t latency_window = 0;
};

/// Result of ServingEngine::Submit. `response` is valid iff ok().
struct Admission {
  ServeStatus status = ServeStatus::kInvalid;
  std::string error;  ///< set for kInvalid rejections
  std::future<ServeResponse> response;
  /// Advisory backoff hint (> 0 on kOverloaded/kBrownout rejections).
  double retry_after_ms = 0.0;
  bool ok() const { return status == ServeStatus::kOk; }
};

class ServingEngine {
 public:
  /// Serves `snapshot` (DatasetSnapshot::Create already validated its
  /// cross-component consistency; the snapshot's TNAM list decides the
  /// servable k's, empty = topology-only). Validates options eagerly —
  /// worker threads must never die on a construction error. Workers start
  /// immediately.
  explicit ServingEngine(std::shared_ptr<const DatasetSnapshot> snapshot,
                         const ServingOptions& opts = {});

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Drains and joins (Shutdown()).
  ~ServingEngine();

  /// Admission control. Never blocks: an invalid request, a full queue, or
  /// a draining engine is rejected immediately with the matching status.
  /// Admitted requests resolve through the returned future; every admitted
  /// future is always fulfilled, including across Shutdown(). The request
  /// is validated against — and pinned to — the snapshot version active at
  /// admission.
  ///
  /// `on_ready`, if set, runs exactly once per ADMITTED request, after its
  /// future is ready and outside the engine lock (on a worker thread, or
  /// inside this call for a cache hit); a rejected request never runs it.
  /// It must not throw and must not block: it exists so a caller waiting on
  /// other events (a session in poll(2)) learns that an answer is ready.
  Admission Submit(const ServeRequest& request,
                   std::function<void()> on_ready = {});

  /// Publishes `next` as the active snapshot (RCU swap; throws
  /// std::invalid_argument unless its version strictly advances). New
  /// admissions acquire it immediately; requests admitted earlier finish on
  /// their pinned version. Idle workers rebind their warm workspaces to the
  /// new version off the request path; busy workers rebind as soon as they
  /// drain. Safe to call concurrently with Submit()/Stats()/Shutdown().
  void Reload(std::shared_ptr<const DatasetSnapshot> next);

  /// The snapshot new admissions currently acquire.
  std::shared_ptr<const DatasetSnapshot> snapshot() const {
    return store_.Acquire();
  }

  /// Graceful drain: stops admitting (new Submits get kShuttingDown),
  /// completes every already-admitted request, then joins the worker fleet.
  /// Idempotent and safe to call concurrently with Submit().
  void Shutdown();

  ServingStats Stats() const;

  size_t num_workers() const { return workers_.size(); }

 private:
  using Clock = std::chrono::steady_clock;

  /// Fulfils one admitted request: its promise plus the caller's optional
  /// on-ready callback. Every fulfilment site goes through Resolve(), so
  /// the callback runs exactly once, after the future is ready; callers
  /// invoke it outside mu_.
  struct Completion {
    std::promise<ServeResponse> promise;
    std::function<void()> on_ready;
    void Resolve(ServeResponse resp) {
      promise.set_value(std::move(resp));
      if (on_ready) on_ready();
    }
  };

  struct Job {
    ServeRequest request;
    /// The snapshot this request was validated against; the worker computes
    /// on it even if a newer version was published meanwhile.
    std::shared_ptr<const DatasetSnapshot> snapshot;
    size_t tnam_index = 0;
    Completion completion;
    Clock::time_point admitted_at;
    /// Absolute deadline (admitted_at + resolved budget) when has_deadline.
    Clock::time_point deadline;
    bool has_deadline = false;
    /// Canonical cache identity (meaningful iff lead).
    CacheKey key;
    /// True when the cache is on: this job leads a single-flight group and
    /// must resolve it (publish + release waiters, or promote) on completion.
    bool lead = false;
  };

  /// One parked follower of a single-flight group: an admitted request whose
  /// future resolves from the leader's computation. Keeps only its own
  /// timing/deadline — the canonical inputs live in the Flight.
  struct Waiter {
    Completion completion;
    Clock::time_point admitted_at;
    Clock::time_point deadline;
    bool has_deadline = false;
  };

  /// A single-flight group: one leader Job (in the queue or claimed) plus
  /// the followers coalesced onto it. request/snapshot/tnam_index are the
  /// leader's canonical inputs, retained so a failed/cancelled leader can be
  /// replaced by promoting a waiter into a new leader Job (every member is
  /// canonically identical, so any member's inputs reproduce the result).
  struct Flight {
    ServeRequest request;
    std::shared_ptr<const DatasetSnapshot> snapshot;
    size_t tnam_index = 0;
    std::vector<Waiter> waiters;
  };

  /// Per-worker warm state, constructed on the worker thread itself.
  struct Worker {
    std::thread thread;
    /// Published workspace alloc counter, updated after every request (the
    /// workspace itself is worker-private and not safe to read concurrently).
    std::atomic<uint64_t> alloc_events{0};
  };

  void WorkerLoop(size_t w) LACA_EXCLUDES(mu_);
  ServeResponse Validate(const ServeRequest& request,
                         const DatasetSnapshot& snapshot,
                         size_t* tnam_index) const;
  /// Completion bookkeeping for one claimed job: decrements in_flight,
  /// counts the outcome, and records the latency window entry (served
  /// requests only — see ServingStats).
  void FinishJob(const ServeResponse& resp, bool shed_in_queue)
      LACA_EXCLUDES(mu_);
  /// The outcome-counter half of FinishJob, split out so the lock scope is
  /// explicit and compiler-checked.
  void RecordOutcomeLocked(const ServeResponse& resp, bool shed_in_queue)
      LACA_REQUIRES(mu_);
  /// The projected queue wait for a request admitted right now, in ms.
  double EstQueueWaitMsLocked() const LACA_REQUIRES(mu_);
  /// Re-evaluates the brownout latch from the current signals (called on
  /// every admission attempt and every completion, so recovery needs no
  /// traffic to be observed).
  void UpdateBrownoutLocked() LACA_REQUIRES(mu_);
  /// The advisory retry_after_ms hint for a rejection issued right now.
  double SuggestRetryMsLocked() const LACA_REQUIRES(mu_);
  /// The canonical cache key of a validated request against its pinned
  /// snapshot (CanonicalCacheKey over the resolved parameters).
  CacheKey KeyFor(const ServeRequest& request, const DatasetSnapshot& snapshot,
                  size_t tnam_index) const;
  /// Leader completion for a single-flight group: on kOk, publishes the
  /// full-tier entry and releases every waiter (expired ones resolve
  /// kDeadlineExceeded — their deadline bounds their wait); on any other
  /// outcome, promotes the oldest live waiter into a new leader Job at the
  /// queue front (leader cancellation must not fail the group) and resolves
  /// only the expired waiters. Promises are fulfilled outside mu_.
  void ResolveFlight(Job& job, const ServeResponse& resp) LACA_EXCLUDES(mu_);
  /// Completion accounting for one follower/cache-hit response: counts it
  /// completed (and into the served latency window on kOk) WITHOUT touching
  /// in_flight_ or the service-time EWMA — no worker was claimed and no
  /// compute was spent, so feeding 0 into the EWMA would wreck the brownout
  /// projection.
  void RecordPassiveCompletionLocked(const ServeResponse& resp)
      LACA_REQUIRES(mu_);

  SnapshotStore store_;
  ServingOptions opts_;
  Clock::time_point started_at_;

  mutable Mutex mu_;
  CondVar work_ready_;
  std::deque<Job> queue_ LACA_GUARDED_BY(mu_);
  size_t in_flight_ LACA_GUARDED_BY(mu_) = 0;
  bool draining_ LACA_GUARDED_BY(mu_) = false;
  /// Bumped by Reload() under mu_; wakes idle workers to rebind their warm
  /// state to the newly published snapshot off the request path.
  uint64_t reload_epoch_ LACA_GUARDED_BY(mu_) = 0;
  // Counters and the latency ring.
  uint64_t admitted_ LACA_GUARDED_BY(mu_) = 0;
  uint64_t completed_ LACA_GUARDED_BY(mu_) = 0;
  uint64_t rejected_overload_ LACA_GUARDED_BY(mu_) = 0;
  uint64_t rejected_shutdown_ LACA_GUARDED_BY(mu_) = 0;
  uint64_t rejected_invalid_ LACA_GUARDED_BY(mu_) = 0;
  uint64_t shed_in_queue_ LACA_GUARDED_BY(mu_) = 0;
  uint64_t cancelled_ LACA_GUARDED_BY(mu_) = 0;
  uint64_t internal_ LACA_GUARDED_BY(mu_) = 0;
  uint64_t coalesced_ LACA_GUARDED_BY(mu_) = 0;
  /// Single-flight registry: canonical key -> the group led by the one Job
  /// carrying that key. Present only while the cache is on.
  std::unordered_map<CacheKey, Flight, CacheKeyHash> flights_
      LACA_GUARDED_BY(mu_);
  std::vector<double> latency_ring_ LACA_GUARDED_BY(mu_);
  size_t latency_cursor_ LACA_GUARDED_BY(mu_) = 0;
  size_t latency_count_ LACA_GUARDED_BY(mu_) = 0;
  // Brownout state (DESIGN.md §11): a latch over two signals — the recent
  // served p99 (small control ring, refreshed every few completions) and the
  // projected queue wait (instantaneous, so recovery works with no traffic).
  bool brownout_ LACA_GUARDED_BY(mu_) = false;
  uint64_t rejected_brownout_ LACA_GUARDED_BY(mu_) = 0;
  uint64_t brownout_entries_ LACA_GUARDED_BY(mu_) = 0;
  double ewma_service_s_ LACA_GUARDED_BY(mu_) = 0.0;
  std::vector<double> ctrl_ring_ LACA_GUARDED_BY(mu_);
  size_t ctrl_cursor_ LACA_GUARDED_BY(mu_) = 0;
  size_t ctrl_count_ LACA_GUARDED_BY(mu_) = 0;
  double ctrl_p99_s_ LACA_GUARDED_BY(mu_) = 0.0;
  size_t served_since_refresh_ LACA_GUARDED_BY(mu_) = 0;

  // Serializes Shutdown() joiners; never taken while holding mu_ (Shutdown
  // releases mu_ before joining — a worker draining the queue needs it).
  Mutex join_mu_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Null when ServingOptions::cache.mode is kOff. Internally sharded and
  /// thread-safe; never accessed under mu_ (probes and publishes stay off
  /// the admission lock).
  std::unique_ptr<ResultCache> cache_;
};

}  // namespace laca

#endif  // LACA_SERVER_SERVING_ENGINE_HPP_
