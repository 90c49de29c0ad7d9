#include "server/serving_engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "common/cancel.hpp"
#include "common/diffusion_workspace.hpp"
#include "common/error.hpp"

namespace laca {
namespace {

// Completions retained for the percentile window. Fixed so the stats path
// allocates nothing per request once the ring is full.
constexpr size_t kLatencyWindow = 4096;

// Brownout control window: small enough that its p99 tracks the last few
// seconds of service under load (and that the periodic refresh sort is
// negligible), reset on brownout exit so a past storm cannot re-trip the
// latch without fresh evidence.
constexpr size_t kBrownoutWindow = 64;
// Served completions between p99 refreshes of the control window.
constexpr size_t kBrownoutRefreshEvery = 16;
// EWMA weight for the per-request service-time estimate.
constexpr double kServiceEwmaAlpha = 0.2;
// retry_after_ms hints stay within [1ms, 60s] no matter the signals.
constexpr double kMinRetryMs = 1.0;
constexpr double kMaxRetryMs = 60000.0;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

const char* ToString(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kOverloaded:
      return "overloaded";
    case ServeStatus::kBrownout:
      return "brownout";
    case ServeStatus::kShuttingDown:
      return "shutting_down";
    case ServeStatus::kInvalid:
      return "invalid";
    case ServeStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServeStatus::kInternal:
      return "internal";
  }
  return "unknown";
}

ServingEngine::ServingEngine(std::shared_ptr<const DatasetSnapshot> snapshot,
                             const ServingOptions& opts)
    : store_(std::move(snapshot)),  // rejects null; Create validated the rest
      opts_(opts),
      started_at_(Clock::now()) {
  LACA_CHECK(opts.max_queue_depth >= 1, "max_queue_depth must be >= 1");
  LACA_CHECK(std::isfinite(opts.default_timeout_ms) &&
                 opts.default_timeout_ms >= 0.0,
             "default_timeout_ms must be finite and >= 0");
  LACA_CHECK(std::isfinite(opts.brownout_enter_fraction) &&
                 opts.brownout_enter_fraction >= 0.0,
             "brownout_enter_fraction must be finite and >= 0");
  if (opts.brownout_enter_fraction > 0.0) {
    // Brownout thresholds are fractions of the deadline budget; without a
    // budget there is nothing to be a fraction of.
    LACA_CHECK(opts.default_timeout_ms > 0.0,
               "brownout requires a nonzero default_timeout_ms budget");
    LACA_CHECK(std::isfinite(opts.brownout_exit_fraction) &&
                   opts.brownout_exit_fraction >= 0.0 &&
                   opts.brownout_exit_fraction < opts.brownout_enter_fraction,
               "brownout_exit_fraction must be in [0, enter_fraction)");
  }
  latency_ring_.resize(kLatencyWindow, 0.0);
  ctrl_ring_.resize(kBrownoutWindow, 0.0);
  if (opts.cache.mode != CacheMode::kOff) {
    cache_ = std::make_unique<ResultCache>(opts.cache);
  }

  const size_t num_workers =
      opts.num_workers != 0
          ? opts.num_workers
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  size_t spawned = 0;
  try {
    for (size_t w = 0; w < num_workers; ++w) {
      workers_[w]->thread = std::thread([this, w] { WorkerLoop(w); });
      ++spawned;
    }
  } catch (...) {
    // Thread creation can fail under pid/rlimit pressure. Unwinding with
    // joinable threads in workers_ would std::terminate, so drain and join
    // the part of the fleet that did start before rethrowing.
    {
      MutexLock lock(mu_);
      draining_ = true;
    }
    work_ready_.NotifyAll();
    for (size_t w = 0; w < spawned; ++w) workers_[w]->thread.join();
    throw;
  }
}

ServingEngine::~ServingEngine() { Shutdown(); }

ServeResponse ServingEngine::Validate(const ServeRequest& req,
                                      const DatasetSnapshot& snapshot,
                                      size_t* tnam_index) const {
  ServeResponse resp;
  resp.status = ServeStatus::kInvalid;
  if (req.seed >= snapshot.graph().num_nodes()) {
    resp.error = "seed out of range";
    return resp;
  }
  if (req.size < 1 || req.size > snapshot.graph().num_nodes()) {
    resp.error = "size must be in [1, num_nodes]";
    return resp;
  }
  // Negative override = unset (ServeRequest contract), so only the
  // out-of-domain non-negative values are rejected — and NaN, which would
  // otherwise compare false everywhere and silently serve the defaults.
  if (std::isnan(req.alpha) || req.alpha >= 1.0) {
    resp.error = "alpha must be in [0, 1)";
    return resp;
  }
  if (std::isnan(req.epsilon) || req.epsilon == 0.0) {
    resp.error = "epsilon must be > 0";
    return resp;
  }
  if (std::isnan(req.sigma)) {
    resp.error = "sigma must be >= 0";
    return resp;
  }
  // Negative = engine default, 0 = explicitly no deadline; anything else
  // must be a finite positive budget (NaN/inf would silently arm garbage).
  if (std::isnan(req.timeout_ms) ||
      (req.timeout_ms > 0.0 && !std::isfinite(req.timeout_ms))) {
    resp.error = "timeout_ms must be finite";
    return resp;
  }
  *tnam_index = 0;
  if (req.k >= 0) {
    std::span<const PreparedTnam> tnams = snapshot.tnams();
    auto it = std::find_if(tnams.begin(), tnams.end(),
                           [&](const PreparedTnam& e) { return e.k == req.k; });
    if (it == tnams.end()) {
      resp.error = "no TNAM prepared for k=" + std::to_string(req.k);
      return resp;
    }
    *tnam_index = static_cast<size_t>(it - tnams.begin());
  }
  resp.status = ServeStatus::kOk;
  return resp;
}

Admission ServingEngine::Submit(const ServeRequest& request,
                                std::function<void()> on_ready) {
  Admission admission;
  const Clock::time_point arrived_at = Clock::now();
  // Pin the active version for this request's whole lifetime: validation,
  // queueing, and computation all see this one snapshot even if a Reload()
  // publishes a newer version meanwhile.
  std::shared_ptr<const DatasetSnapshot> snapshot = store_.Acquire();
  size_t tnam_index = 0;
  ServeResponse validation = Validate(request, *snapshot, &tnam_index);
  if (validation.status != ServeStatus::kOk) {
    MutexLock lock(mu_);
    ++rejected_invalid_;
    admission.status = ServeStatus::kInvalid;
    admission.error = std::move(validation.error);
    return admission;
  }

  // Cache probe BEFORE queue admission (DESIGN.md §13): a full-tier hit is
  // resolved right here — it never consumes queue depth, never claims a
  // worker, and bypasses overload/brownout shedding entirely (serving a
  // cached result costs less than rejecting the request). The key is the
  // canonical request identity, so textually distinct spellings of one
  // request share a line, and the snapshot version inside it guarantees a
  // hit is always the pinned version's answer.
  CacheKey key;
  if (cache_ != nullptr) {
    key = KeyFor(request, *snapshot, tnam_index);
    if (std::shared_ptr<const std::vector<NodeId>> hit = cache_->GetFull(key)) {
      ServeResponse resp;
      resp.status = ServeStatus::kOk;
      resp.cluster = *hit;
      {
        MutexLock lock(mu_);
        if (draining_) {
          ++rejected_shutdown_;
          admission.status = ServeStatus::kShuttingDown;
          return admission;
        }
        ++admitted_;
        resp.total_seconds = Seconds(Clock::now() - arrived_at);
        RecordPassiveCompletionLocked(resp);
      }
      Completion ready{{}, std::move(on_ready)};
      admission.response = ready.promise.get_future();
      ready.Resolve(std::move(resp));
      admission.status = ServeStatus::kOk;
      return admission;
    }
  }

  std::future<ServeResponse> future;
  {
    MutexLock lock(mu_);
    if (draining_) {
      ++rejected_shutdown_;
      admission.status = ServeStatus::kShuttingDown;
      return admission;
    }
    // Single-flight attach, checked BEFORE the queue bound and brownout: a
    // follower consumes no queue depth and no compute, so coalescing turns
    // would-be rejections of the hottest keys into waits on work already
    // under way.
    if (cache_ != nullptr) {
      auto flight = flights_.find(key);
      if (flight != flights_.end()) {
        Waiter waiter;
        waiter.admitted_at = arrived_at;
        const double budget_ms = request.timeout_ms >= 0.0
                                     ? request.timeout_ms
                                     : opts_.default_timeout_ms;
        if (budget_ms > 0.0) {
          waiter.has_deadline = true;
          waiter.deadline =
              arrived_at + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   budget_ms));
        }
        waiter.completion.on_ready = std::move(on_ready);
        future = waiter.completion.promise.get_future();
        flight->second.waiters.push_back(std::move(waiter));
        ++admitted_;
        ++coalesced_;
        admission.status = ServeStatus::kOk;
        admission.response = std::move(future);
        return admission;
      }
    }
    if (queue_.size() >= opts_.max_queue_depth) {
      // Backpressure: reject, never block, never grow past the bound. The
      // rejection paths run before the Job exists, so an overloaded Submit
      // performs no promise/shared-state allocation.
      ++rejected_overload_;
      admission.status = ServeStatus::kOverloaded;
      admission.retry_after_ms = SuggestRetryMsLocked();
      return admission;
    }
    // Brownout check AFTER the hard bound (a full queue is kOverloaded, the
    // stronger signal) but before any admission work. Evaluated here too so
    // the latch can release on an idle engine without waiting for a
    // completion that will never come.
    UpdateBrownoutLocked();
    if (brownout_) {
      ++rejected_brownout_;
      admission.status = ServeStatus::kBrownout;
      admission.error = "brownout: shedding ahead of deadline budget";
      admission.retry_after_ms = SuggestRetryMsLocked();
      return admission;
    }
    Job job;
    job.request = request;
    job.tnam_index = tnam_index;
    job.admitted_at = Clock::now();
    if (cache_ != nullptr) {
      // This job leads a new single-flight group; identical requests
      // admitted while it is queued or computing attach as waiters. The
      // Flight keeps its own snapshot/request copy so a failed leader can
      // be replaced by promoting a waiter.
      job.key = key;
      job.lead = true;
      Flight flight;
      flight.request = request;
      flight.snapshot = snapshot;
      flight.tnam_index = tnam_index;
      flights_.emplace(key, std::move(flight));
    }
    job.snapshot = std::move(snapshot);
    // Resolve the budget now and anchor the deadline at admission: queue
    // wait spends it exactly like compute does. timeout_ms == 0 opts out of
    // the engine default.
    const double budget_ms =
        request.timeout_ms >= 0.0 ? request.timeout_ms : opts_.default_timeout_ms;
    if (budget_ms > 0.0) {
      job.has_deadline = true;
      job.deadline =
          job.admitted_at + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    budget_ms));
    }
    job.completion.on_ready = std::move(on_ready);
    future = job.completion.promise.get_future();
    queue_.push_back(std::move(job));
    ++admitted_;
  }
  work_ready_.NotifyOne();
  admission.status = ServeStatus::kOk;
  admission.response = std::move(future);
  return admission;
}

void ServingEngine::Reload(std::shared_ptr<const DatasetSnapshot> next) {
  // Publish validates (non-null, strictly advancing version) and swaps
  // atomically; requests admitted before this point keep their pinned
  // version, requests admitted after acquire the new one.
  store_.Publish(std::move(next));
  {
    MutexLock lock(mu_);
    ++reload_epoch_;
  }
  // Wake the whole fleet: idle workers rebind their warm state to the new
  // version now, off the request path, instead of on the next request.
  work_ready_.NotifyAll();
  // The version in every key already makes stale entries unreachable;
  // sweeping reclaims their bytes eagerly instead of waiting for LRU
  // pressure. (In-flight groups keyed on retired versions still resolve —
  // flights are registered by key, not swept.)
  if (cache_ != nullptr) cache_->RetainVersion(store_.Acquire()->version());
}

void ServingEngine::WorkerLoop(size_t w) {
  // Warm per-worker state: one diffusion arena shared by one Laca per
  // prepared TNAM of the bound snapshot (same borrowed-workspace pattern as
  // the bench harnesses). Built on this thread so fleet startup
  // parallelizes; the snapshot was pre-validated, so only allocation can
  // fail here.
  std::optional<DiffusionWorkspace> workspace;
  std::shared_ptr<const DatasetSnapshot> bound;
  std::vector<std::unique_ptr<Laca>> lacas;
  std::string init_error;
  uint64_t seen_epoch = 0;
  // One token for the worker's lifetime, re-armed per deadlined job: the
  // compute core only ever borrows it, so no per-request allocation.
  CancelToken cancel;

  // (Re)binds the warm state to `snap`. The workspace persists across
  // rebinds (the arena re-sizes for the new graph and then reaches a new
  // steady state); the Lacas are rebuilt because they pin the snapshot's
  // graph/TNAM references. On failure the worker stays alive and
  // degraded: it keeps claiming jobs and failing them explicitly, so
  // admitted futures are always fulfilled.
  auto bind = [&](std::shared_ptr<const DatasetSnapshot> snap) {
    if (snap == bound) return;
    lacas.clear();  // drop engines referencing the outgoing snapshot first
    bound.reset();
    try {
      if (!workspace) workspace.emplace(snap->graph());
      std::span<const PreparedTnam> tnams = snap->tnams();
      lacas.reserve(std::max<size_t>(tnams.size(), 1));
      if (tnams.empty()) {
        // Topology-only (w/o SNAS) serving.
        lacas.push_back(
            std::make_unique<Laca>(snap->graph(), nullptr, &*workspace));
      } else {
        for (const PreparedTnam& entry : tnams) {
          lacas.push_back(std::make_unique<Laca>(snap->graph(), &entry.tnam,
                                                 &*workspace));
        }
      }
      bound = std::move(snap);
      init_error.clear();
    } catch (const std::exception& e) {
      lacas.clear();
      init_error = std::string("worker initialization failed: ") + e.what();
    }
  };

  bind(store_.Acquire());

  for (;;) {
    Job job;
    bool prewarm = false;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !draining_ && reload_epoch_ == seen_epoch) {
        work_ready_.Wait(mu_);
      }
      if (queue_.empty()) {
        if (draining_) return;  // draining and fully drained
        seen_epoch = reload_epoch_;  // woken to rebind, not to work
        prewarm = true;
      } else {
        job = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
      }
    }
    if (prewarm) {
      bind(store_.Acquire());
      if (workspace) {
        workers_[w]->alloc_events.store(workspace->alloc_events(),
                                        std::memory_order_relaxed);
      }
      continue;
    }
    // Shed already-expired jobs before the hook and before any compute: the
    // budget is gone, so the cheapest correct response is the only correct
    // response. Ordering before the hook keeps tests deterministic — a
    // queued job that expired while workers were parked sheds without the
    // hook ever firing for it.
    if (job.has_deadline && Clock::now() >= job.deadline) {
      ServeResponse resp;
      resp.status = ServeStatus::kDeadlineExceeded;
      resp.error = "deadline exceeded in queue";
      const double waited = Seconds(Clock::now() - job.admitted_at);
      resp.queue_seconds = waited;
      resp.total_seconds = waited;
      job.snapshot.reset();
      FinishJob(resp, /*shed_in_queue=*/true);
      // A shed leader must not strand its followers: promotion turns the
      // oldest live waiter into the new leader (ResolveFlight non-kOk path).
      if (job.lead) ResolveFlight(job, resp);
      job.completion.Resolve(std::move(resp));
      continue;
    }
    if (opts_.worker_hook) opts_.worker_hook();

    // Service time is anchored here: after the parking hook (test
    // scaffolding that models queue pressure) but before the injected
    // stall — a stalled worker IS slow service, and the brownout EWMA
    // must see it that way or chaos-induced slowness never projects into
    // the queue-wait estimate.
    ServeResponse resp;
    const Clock::time_point claimed = Clock::now();
    resp.queue_seconds = Seconds(claimed - job.admitted_at);
    if (opts_.fault_injector &&
        opts_.fault_injector->ShouldFire(FaultSite::kWorkerStall)) {
      std::this_thread::sleep_for(opts_.fault_injector->stall_duration());
    }
    // The job computes on its pinned snapshot, never on a newer one. This
    // rebind is the slow path — it only runs when a reload landed while
    // this worker was busy (idle workers rebound in the prewarm branch).
    if (job.snapshot != bound) bind(job.snapshot);
    if (!init_error.empty()) {
      resp.status = ServeStatus::kInternal;
      resp.error = init_error;
    } else {
      LacaOptions lopts = opts_.defaults;
      const ServeRequest& req = job.request;
      if (req.alpha >= 0.0) lopts.alpha = req.alpha;
      if (req.epsilon >= 0.0) lopts.epsilon = req.epsilon;
      if (req.sigma >= 0.0) lopts.sigma = req.sigma;
      if (job.has_deadline) {
        cancel.ArmDeadline(job.deadline);
        lopts.cancel = &cancel;
      }
      try {
        if (opts_.fault_injector) {
          opts_.fault_injector->MaybeThrow(FaultSite::kComputeThrow,
                                           "compute_throw");
        }
        // Two-tier fast path: reuse the cached Step-1 diffusion vector for
        // this (version, seed, alpha, eps, sigma) and re-run only the cheap
        // Step-2/3 sweep — bit-identical to the cold path because the
        // cached pi' preserves exact entry order and both paths share
        // FinishBddFromRwr. A miss computes cold and publishes the
        // extracted pi' (shrunk: the cache charges by capacity).
        std::shared_ptr<const SparseVector> rwr;
        if (cache_ != nullptr) rwr = cache_->GetRwr(job.key);
        if (rwr != nullptr) {
          resp.cluster = lacas[job.tnam_index]->ClusterFromRwr(
              req.seed, req.size, *rwr, lopts);
        } else if (cache_ != nullptr &&
                   cache_->mode() == CacheMode::kTwoTier) {
          SparseVector rwr_out;
          resp.cluster = lacas[job.tnam_index]->Cluster(req.seed, req.size,
                                                        lopts, &rwr_out);
          rwr_out.ShrinkToFit();
          cache_->PutRwr(job.key, std::make_shared<const SparseVector>(
                                      std::move(rwr_out)));
        } else {
          resp.cluster =
              lacas[job.tnam_index]->Cluster(req.seed, req.size, lopts);
        }
        resp.status = ServeStatus::kOk;
      } catch (const CancelledError&) {
        // The compute core restored the workspace invariants (AbortCall)
        // before unwinding, so this worker's warm state is untouched.
        resp.status = ServeStatus::kDeadlineExceeded;
        resp.error = "deadline exceeded mid-compute";
        resp.cluster.clear();
      } catch (const std::exception& e) {
        // An exception fails exactly this request; the worker keeps its warm
        // state and keeps claiming.
        resp.status = ServeStatus::kInternal;
        resp.error = e.what();
        resp.cluster.clear();
      }
      cancel.Disarm();
      workers_[w]->alloc_events.store(workspace->alloc_events(),
                                      std::memory_order_relaxed);
    }
    resp.total_seconds = Seconds(Clock::now() - job.admitted_at);

    // The promise path must fulfill the future no matter what: an injected
    // fault here downgrades the response to kInternal but never loses it.
    if (opts_.fault_injector) {
      try {
        opts_.fault_injector->MaybeThrow(FaultSite::kPromisePath,
                                         "promise_path");
      } catch (const std::exception& e) {
        resp.status = ServeStatus::kInternal;
        resp.error = e.what();
        resp.cluster.clear();
      }
    }

    // Release the pinned snapshot before fulfilling the promise: a reload
    // test observing "retired version destroyed" through the response
    // future must not race this worker's reference.
    job.snapshot.reset();
    FinishJob(resp, /*shed_in_queue=*/false);
    // Resolve the single-flight group before the leader's own future: the
    // flight's snapshot reference is dropped inside (same drain guarantee
    // as the reset above), followers are released or one is promoted, and
    // on kOk the full-tier entry is published for future admissions.
    if (job.lead) ResolveFlight(job, resp);
    job.completion.Resolve(std::move(resp));
  }
}

void ServingEngine::FinishJob(const ServeResponse& resp, bool shed_in_queue) {
  MutexLock lock(mu_);
  RecordOutcomeLocked(resp, shed_in_queue);
}

void ServingEngine::RecordOutcomeLocked(const ServeResponse& resp,
                                        bool shed_in_queue) {
  --in_flight_;
  ++completed_;
  switch (resp.status) {
    case ServeStatus::kOk:
      // Served requests only: the percentile window describes successful
      // service, not the (fast) shed/cancel exits.
      latency_ring_[latency_cursor_] = resp.total_seconds;
      latency_cursor_ = (latency_cursor_ + 1) % latency_ring_.size();
      latency_count_ = std::min(latency_count_ + 1, latency_ring_.size());
      // Brownout signals: the service-time EWMA feeds the projected queue
      // wait; the control ring feeds the recent-p99 entry signal. The
      // compute time (total minus queue) is the right EWMA input — queue
      // wait is what the projection derives, not what it consumes.
      {
        const double service_s =
            std::max(resp.total_seconds - resp.queue_seconds, 0.0);
        ewma_service_s_ = ewma_service_s_ == 0.0
                              ? service_s
                              : (1.0 - kServiceEwmaAlpha) * ewma_service_s_ +
                                    kServiceEwmaAlpha * service_s;
        ctrl_ring_[ctrl_cursor_] = resp.total_seconds;
        ctrl_cursor_ = (ctrl_cursor_ + 1) % ctrl_ring_.size();
        ctrl_count_ = std::min(ctrl_count_ + 1, ctrl_ring_.size());
        if (++served_since_refresh_ >= kBrownoutRefreshEvery) {
          served_since_refresh_ = 0;
          std::vector<double> window(ctrl_ring_.begin(),
                                     ctrl_ring_.begin() + ctrl_count_);
          std::sort(window.begin(), window.end());
          ctrl_p99_s_ = window[(window.size() - 1) * 99 / 100];
        }
      }
      break;
    case ServeStatus::kDeadlineExceeded:
      if (shed_in_queue) {
        ++shed_in_queue_;
      } else {
        ++cancelled_;
      }
      break;
    default:
      ++internal_;
      break;
  }
  UpdateBrownoutLocked();
}

void ServingEngine::RecordPassiveCompletionLocked(const ServeResponse& resp) {
  // A follower or cache hit completes without claiming a worker: count it
  // completed (admitted==completed must hold across every path) and, on
  // kOk, into the served latency window — but never into in_flight_ or the
  // service-time EWMA, whose inputs are worker compute times.
  ++completed_;
  switch (resp.status) {
    case ServeStatus::kOk:
      latency_ring_[latency_cursor_] = resp.total_seconds;
      latency_cursor_ = (latency_cursor_ + 1) % latency_ring_.size();
      latency_count_ = std::min(latency_count_ + 1, latency_ring_.size());
      break;
    case ServeStatus::kDeadlineExceeded:
      // Expired while waiting, no compute spent — the queue-shed class.
      ++shed_in_queue_;
      break;
    default:
      ++internal_;
      break;
  }
  UpdateBrownoutLocked();
}

CacheKey ServingEngine::KeyFor(const ServeRequest& request,
                               const DatasetSnapshot& snapshot,
                               size_t tnam_index) const {
  // Resolve the TNAM k actually served: an omitted override (-1) means the
  // snapshot default, so `k=32` and no k against a k=32 default TNAM are
  // one identity. -1 survives only for topology-only snapshots.
  std::span<const PreparedTnam> tnams = snapshot.tnams();
  const int64_t resolved_k =
      tnams.empty() ? -1 : static_cast<int64_t>(tnams[tnam_index].k);
  return CanonicalCacheKey(snapshot.version(), request.seed, request.size,
                           request.alpha, request.epsilon, request.sigma,
                           resolved_k, opts_.defaults);
}

void ServingEngine::ResolveFlight(Job& job, const ServeResponse& resp) {
  // Publish before releasing waiters: a racing Submit either finds the
  // flight (and coalesces) or finds the cache line (and hits) — never a
  // gap where it recomputes work that just finished. Only kOk results are
  // ever published.
  if (resp.status == ServeStatus::kOk) {
    cache_->PutFull(job.key,
                    std::make_shared<const std::vector<NodeId>>(resp.cluster));
  }
  const Clock::time_point now = Clock::now();
  std::vector<std::pair<Completion, ServeResponse>> ready;
  bool promoted = false;
  {
    MutexLock lock(mu_);
    auto it = flights_.find(job.key);
    if (it == flights_.end()) return;  // defensive: the leader owns the entry
    Flight& flight = it->second;
    if (resp.status == ServeStatus::kOk) {
      for (Waiter& w : flight.waiters) {
        ServeResponse follower;
        const double waited = Seconds(now - w.admitted_at);
        if (w.has_deadline && now >= w.deadline) {
          // The follower's own budget bounds its wait, even on a group that
          // ultimately succeeded.
          follower.status = ServeStatus::kDeadlineExceeded;
          follower.error = "deadline exceeded waiting for coalesced result";
        } else {
          follower.status = ServeStatus::kOk;
          follower.cluster = resp.cluster;
        }
        follower.queue_seconds = waited;
        follower.total_seconds = waited;
        RecordPassiveCompletionLocked(follower);
        ready.emplace_back(std::move(w.completion), std::move(follower));
      }
      // Erasing the flight drops its snapshot reference — same retired-
      // version drain guarantee as the worker's own snapshot release.
      flights_.erase(it);
    } else {
      // The leader shed, was cancelled, or failed. Its outcome is its own;
      // the group is not failed with it: expired waiters resolve now, and
      // the oldest live waiter is promoted into a new leader Job at the
      // queue FRONT (it has waited longest; the push may transiently
      // exceed max_queue_depth by one, which beats failing an admitted
      // request). Remaining waiters keep waiting on the new leader.
      std::vector<Waiter> live;
      live.reserve(flight.waiters.size());
      for (Waiter& w : flight.waiters) {
        if (w.has_deadline && now >= w.deadline) {
          ServeResponse follower;
          follower.status = ServeStatus::kDeadlineExceeded;
          follower.error = "deadline exceeded waiting for coalesced result";
          const double waited = Seconds(now - w.admitted_at);
          follower.queue_seconds = waited;
          follower.total_seconds = waited;
          RecordPassiveCompletionLocked(follower);
          ready.emplace_back(std::move(w.completion), std::move(follower));
        } else {
          live.push_back(std::move(w));
        }
      }
      if (live.empty()) {
        flights_.erase(it);
      } else {
        Waiter& next = live.front();
        Job successor;
        successor.request = flight.request;
        successor.snapshot = flight.snapshot;
        successor.tnam_index = flight.tnam_index;
        successor.completion = std::move(next.completion);
        successor.admitted_at = next.admitted_at;
        successor.deadline = next.deadline;
        successor.has_deadline = next.has_deadline;
        successor.key = job.key;
        successor.lead = true;
        flight.waiters.assign(std::make_move_iterator(live.begin() + 1),
                              std::make_move_iterator(live.end()));
        queue_.push_front(std::move(successor));
        promoted = true;
      }
    }
  }
  if (promoted) work_ready_.NotifyOne();
  // Completions resolve outside mu_: neither a continuation blocking on a
  // future nor an on-ready callback may run under the admission lock.
  for (auto& [completion, response] : ready) {
    completion.Resolve(std::move(response));
  }
}

double ServingEngine::EstQueueWaitMsLocked() const {
  const size_t workers = workers_.empty() ? 1 : workers_.size();
  return static_cast<double>(queue_.size()) * ewma_service_s_ * 1e3 /
         static_cast<double>(workers);
}

void ServingEngine::UpdateBrownoutLocked() {
  const double budget_ms = opts_.default_timeout_ms;
  if (opts_.brownout_enter_fraction <= 0.0 || budget_ms <= 0.0) return;
  const double est_ms = EstQueueWaitMsLocked();
  if (!brownout_) {
    const double enter_ms = opts_.brownout_enter_fraction * budget_ms;
    if (est_ms >= enter_ms || ctrl_p99_s_ * 1e3 >= enter_ms) {
      brownout_ = true;
      ++brownout_entries_;
    }
    return;
  }
  // Hysteretic exit: the projected wait must be back under the exit
  // threshold AND the queue must have actually drained (at most one entry
  // per worker). The p99 signal is entry-only — it evidences the storm that
  // happened, not the capacity available now — and the control ring resets
  // here so the next entry needs fresh evidence.
  const double exit_ms = opts_.brownout_exit_fraction * budget_ms;
  if (est_ms <= exit_ms && queue_.size() <= workers_.size()) {
    brownout_ = false;
    ctrl_count_ = 0;
    ctrl_cursor_ = 0;
    ctrl_p99_s_ = 0.0;
    served_since_refresh_ = 0;
  }
}

double ServingEngine::SuggestRetryMsLocked() const {
  // Roughly the time for the backlog to drain to the healthy regime: the
  // projected wait for a new admission, floored by one service time (an
  // instant retry against a full queue is never useful). Advisory, clamped.
  const double est_ms = EstQueueWaitMsLocked();
  const double hint = std::max(est_ms * 0.5, ewma_service_s_ * 1e3);
  return std::clamp(hint, kMinRetryMs, kMaxRetryMs);
}

void ServingEngine::Shutdown() {
  {
    MutexLock lock(mu_);
    draining_ = true;
  }
  work_ready_.NotifyAll();
  // Joining implies the queue is drained and every in-flight request
  // finished: workers only exit on (draining && queue empty). Serialized so
  // concurrent Shutdown() callers both return only once the fleet is down.
  MutexLock jlock(join_mu_);
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Defensive sweep: with the fleet joined, every leader resolved its
  // flight (or promoted a successor that was then drained and resolved), so
  // this should find nothing. If an invariant ever breaks, admitted waiter
  // futures must still be fulfilled — a stranded future is the one failure
  // mode this layer promises away.
  std::vector<std::pair<Completion, ServeResponse>> stranded;
  {
    MutexLock lock(mu_);
    for (auto& [key, flight] : flights_) {
      for (Waiter& w : flight.waiters) {
        ServeResponse resp;
        resp.status = ServeStatus::kShuttingDown;
        resp.error = "engine shut down before the coalesced result arrived";
        RecordPassiveCompletionLocked(resp);
        stranded.emplace_back(std::move(w.completion), std::move(resp));
      }
    }
    flights_.clear();
  }
  for (auto& [completion, response] : stranded) {
    completion.Resolve(std::move(response));
  }
}

ServingStats ServingEngine::Stats() const {
  ServingStats stats;
  std::vector<double> window;
  {
    MutexLock lock(mu_);
    stats.admitted = admitted_;
    stats.completed = completed_;
    stats.rejected_overload = rejected_overload_;
    stats.rejected_shutdown = rejected_shutdown_;
    stats.rejected_invalid = rejected_invalid_;
    stats.rejected_brownout = rejected_brownout_;
    stats.brownout_active = brownout_;
    stats.brownout_entries = brownout_entries_;
    stats.est_queue_wait_ms = EstQueueWaitMsLocked();
    stats.shed_in_queue = shed_in_queue_;
    stats.cancelled = cancelled_;
    stats.internal = internal_;
    stats.deadline_exceeded = shed_in_queue_ + cancelled_;
    stats.queue_depth = queue_.size();
    stats.in_flight = in_flight_;
    stats.coalesced = coalesced_;
    window.assign(latency_ring_.begin(),
                  latency_ring_.begin() + latency_count_);
  }
  stats.workers = workers_.size();
  stats.max_queue_depth = opts_.max_queue_depth;
  for (const auto& worker : workers_) {
    stats.alloc_events += worker->alloc_events.load(std::memory_order_relaxed);
  }
  stats.active_version = store_.Acquire()->version();
  stats.retired_live = store_.retired_live();
  stats.reloads = store_.publish_count();
  stats.uptime_seconds = Seconds(Clock::now() - started_at_);
  if (cache_ != nullptr) {
    const ResultCacheStats cs = cache_->Stats();
    stats.cache_hits = cs.full.hits;
    stats.cache_misses = cs.full.misses;
    stats.cache_pi_hits = cs.rwr.hits;
    stats.cache_pi_misses = cs.rwr.misses;
    stats.cache_evictions = cs.full.evictions + cs.rwr.evictions;
    stats.cache_bytes = cs.full.bytes + cs.rwr.bytes;
    stats.cache_entries = cs.full.entries + cs.rwr.entries;
  }
  stats.latency_window = window.size();
  if (!window.empty()) {
    std::sort(window.begin(), window.end());
    stats.p50_seconds = window[(window.size() - 1) / 2];
    stats.p99_seconds = window[(window.size() - 1) * 99 / 100];
  }
  return stats;
}

}  // namespace laca
