#include "server/serving_engine.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "attr/tnam.hpp"
#include "data/dataset_snapshot.hpp"
#include "eval/datasets.hpp"
#include "server/protocol.hpp"
#include "ready_probe.hpp"

namespace laca {
namespace {

// A manually-released gate for parking engine workers inside worker_hook.
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
  /// Blocks until `n` threads have arrived at Arrive().
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

class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = &GetDataset("cora-sim");
    snap_ = MakeSnapshot(/*version=*/1, /*k=*/32);
  }
  static void TearDownTestSuite() { snap_.reset(); }

  /// A snapshot over the registry dataset carrying one TNAM built at
  /// dimension `k`, keyed by its dim (shares the underlying data).
  static std::shared_ptr<const DatasetSnapshot> MakeSnapshot(uint64_t version,
                                                             int k) {
    TnamOptions topts;
    topts.k = k;
    Tnam tnam = Tnam::Build(ds_->data.attributes, topts);
    std::vector<PreparedTnam> tnams;
    const int key = static_cast<int>(tnam.dim());
    tnams.push_back(PreparedTnam{key, std::move(tnam)});
    return ds_->snapshot->WithTnams(std::move(tnams), version);
  }

  static const Tnam* DefaultTnam() { return &snap_->tnams()[0].tnam; }

  static std::vector<ServeRequest> MakeRequests(size_t count) {
    std::vector<NodeId> seeds = SampleSeeds(*ds_, count);
    std::vector<ServeRequest> requests;
    for (NodeId seed : seeds) {
      ServeRequest req;
      req.seed = seed;
      req.size = ds_->data.communities.GroundTruthCluster(seed).size();
      requests.push_back(req);
    }
    return requests;
  }

  /// Engine options pinning an exact worker count (the fleet is clamped to
  /// the thread budget, so the budget must name the count explicitly —
  /// otherwise a single-core host would clamp every fleet to one worker).
  static ServingOptions WithWorkers(size_t workers) {
    ServingOptions opts;
    opts.num_workers = workers;
    return opts;
  }

  /// Serial oracle: Laca::Cluster on `snapshot`'s default TNAM.
  static std::vector<std::vector<NodeId>> SerialExpected(
      const DatasetSnapshot& snapshot,
      const std::vector<ServeRequest>& requests) {
    Laca serial(snapshot.graph(), snapshot.tnams().empty()
                                      ? nullptr
                                      : &snapshot.tnams()[0].tnam);
    LacaOptions defaults;
    std::vector<std::vector<NodeId>> expected;
    for (const ServeRequest& req : requests) {
      expected.push_back(serial.Cluster(req.seed, req.size, defaults));
    }
    return expected;
  }

  static const Dataset* ds_;
  static std::shared_ptr<const DatasetSnapshot> snap_;
};

const Dataset* ServingTest::ds_ = nullptr;
std::shared_ptr<const DatasetSnapshot> ServingTest::snap_;

TEST_F(ServingTest, BitIdenticalToSerialClusterAtEveryWorkerCount) {
  std::vector<ServeRequest> requests = MakeRequests(12);
  std::vector<std::vector<NodeId>> expected = SerialExpected(*snap_, requests);

  for (size_t workers : {1u, 2u, 4u, 8u}) {
    ServingEngine engine(snap_, WithWorkers(workers));
    ASSERT_EQ(engine.num_workers(), workers);
    std::vector<std::future<ServeResponse>> futures;
    for (const ServeRequest& req : requests) {
      Admission a = engine.Submit(req);
      ASSERT_TRUE(a.ok()) << a.error;
      futures.push_back(std::move(a.response));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      ServeResponse resp = futures[i].get();
      ASSERT_EQ(resp.status, ServeStatus::kOk) << resp.error;
      EXPECT_EQ(resp.cluster, expected[i])
          << "workers=" << workers << " request " << i;
    }
  }
}

TEST_F(ServingTest, PerRequestOverridesMatchSerialWithSameOptions) {
  ServeRequest req = MakeRequests(1)[0];
  req.size = 25;
  req.alpha = 0.5;
  req.epsilon = 1e-4;

  LacaOptions serial_opts;
  serial_opts.alpha = 0.5;
  serial_opts.epsilon = 1e-4;
  Laca serial(ds_->data.graph, DefaultTnam());
  std::vector<NodeId> with_overrides =
      serial.Cluster(req.seed, req.size, serial_opts);
  std::vector<NodeId> with_defaults =
      serial.Cluster(req.seed, req.size, LacaOptions{});
  // The overrides must actually matter on this dataset, or the test below
  // could not tell "override applied" from "override ignored".
  ASSERT_NE(with_overrides, with_defaults);

  ServingEngine engine(snap_, WithWorkers(2));
  Admission a = engine.Submit(req);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.response.get().cluster, with_overrides);

  ServeRequest plain;
  plain.seed = req.seed;
  plain.size = req.size;
  Admission b = engine.Submit(plain);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.response.get().cluster, with_defaults);
}

TEST_F(ServingTest, KOverrideSelectsAmongPreparedTnams) {
  TnamOptions topts;
  topts.k = 8;
  std::vector<PreparedTnam> entries;
  entries.push_back(PreparedTnam{static_cast<int>(DefaultTnam()->dim()),
                                 *DefaultTnam()});
  entries.push_back(PreparedTnam{8, Tnam::Build(ds_->data.attributes, topts)});
  std::shared_ptr<const DatasetSnapshot> multi =
      ds_->snapshot->WithTnams(std::move(entries), 1);
  ServingEngine engine(multi, WithWorkers(2));

  ServeRequest req = MakeRequests(1)[0];
  req.size = 20;
  Laca with_default(ds_->data.graph, &multi->tnams()[0].tnam);
  Laca with_small(ds_->data.graph, &multi->tnams()[1].tnam);
  LacaOptions defaults;

  Admission def = engine.Submit(req);
  req.k = 8;
  Admission k8 = engine.Submit(req);
  ASSERT_TRUE(def.ok() && k8.ok());
  EXPECT_EQ(def.response.get().cluster,
            with_default.Cluster(req.seed, req.size, defaults));
  EXPECT_EQ(k8.response.get().cluster,
            with_small.Cluster(req.seed, req.size, defaults));

  req.k = 999;
  Admission missing = engine.Submit(req);
  EXPECT_EQ(missing.status, ServeStatus::kInvalid);
  EXPECT_NE(missing.error.find("999"), std::string::npos);
}

TEST_F(ServingTest, InvalidRequestsRejectedAtAdmission) {
  ServingEngine engine(snap_, WithWorkers(1));
  ServeRequest bad_seed;
  bad_seed.seed = ds_->num_nodes();
  bad_seed.size = 5;
  EXPECT_EQ(engine.Submit(bad_seed).status, ServeStatus::kInvalid);

  ServeRequest bad_size;
  bad_size.seed = 0;
  bad_size.size = 0;
  EXPECT_EQ(engine.Submit(bad_size).status, ServeStatus::kInvalid);

  ServeRequest bad_alpha;
  bad_alpha.seed = 0;
  bad_alpha.size = 5;
  bad_alpha.alpha = 1.5;
  EXPECT_EQ(engine.Submit(bad_alpha).status, ServeStatus::kInvalid);

  // The engine still serves good requests afterwards.
  ServeRequest good;
  good.seed = 0;
  good.size = 5;
  Admission a = engine.Submit(good);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.response.get().status, ServeStatus::kOk);
  EXPECT_EQ(engine.Stats().rejected_invalid, 3u);
}

TEST_F(ServingTest, AdmissionQueueRejectsBeyondDepthWithoutBlocking) {
  Gate gate;
  ServingOptions opts = WithWorkers(1);
  opts.max_queue_depth = 2;
  opts.worker_hook = [&gate] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  ServeRequest req;
  req.seed = 0;
  req.size = 5;
  Admission claimed = engine.Submit(req);  // claimed by the (parked) worker
  ASSERT_TRUE(claimed.ok());
  gate.AwaitArrivals(1);  // the worker holds it; the queue is now empty

  Admission q1 = engine.Submit(req);
  Admission q2 = engine.Submit(req);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(engine.Stats().queue_depth, 2u);

  // Beyond the configured depth: immediate rejection, no blocking, no growth.
  Admission overflow = engine.Submit(req);
  EXPECT_EQ(overflow.status, ServeStatus::kOverloaded);
  EXPECT_EQ(engine.Stats().queue_depth, 2u);
  EXPECT_EQ(engine.Stats().rejected_overload, 1u);

  gate.Open();
  EXPECT_EQ(claimed.response.get().status, ServeStatus::kOk);
  EXPECT_EQ(q1.response.get().status, ServeStatus::kOk);
  EXPECT_EQ(q2.response.get().status, ServeStatus::kOk);

  // Capacity freed: admission works again.
  Admission after = engine.Submit(req);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.response.get().status, ServeStatus::kOk);
}

TEST_F(ServingTest, GracefulShutdownDrainsAdmittedAndRejectsNew) {
  Gate gate;
  ServingOptions opts = WithWorkers(1);
  opts.worker_hook = [&gate] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  ServeRequest req;
  req.seed = 0;
  req.size = 5;
  Admission in_flight = engine.Submit(req);
  ASSERT_TRUE(in_flight.ok());
  gate.AwaitArrivals(1);
  Admission queued1 = engine.Submit(req);
  Admission queued2 = engine.Submit(req);
  ASSERT_TRUE(queued1.ok() && queued2.ok());

  // Shutdown mid-drain: one request parked on the worker, two queued.
  std::thread closer([&engine] { engine.Shutdown(); });
  // Draining starts before the gate opens; new submissions must be turned
  // away while the admitted ones are still pending.
  while (engine.Submit(req).status != ServeStatus::kShuttingDown) {
    std::this_thread::yield();
  }
  gate.Open();
  closer.join();

  // Every admitted request was completed, none dropped.
  EXPECT_EQ(in_flight.response.get().status, ServeStatus::kOk);
  EXPECT_EQ(queued1.response.get().status, ServeStatus::kOk);
  EXPECT_EQ(queued2.response.get().status, ServeStatus::kOk);
  EXPECT_EQ(engine.Submit(req).status, ServeStatus::kShuttingDown);
  EXPECT_GE(engine.Stats().rejected_shutdown, 2u);
  engine.Shutdown();  // idempotent
}

TEST_F(ServingTest, ConcurrentSubmittersDuringShutdownNeverLoseAFuture) {
  // The stop-while-submitting race of the admission queue: several threads
  // hammer Submit while another drains the engine. Every admitted future
  // must resolve; every rejection must be explicit. (TSan covers the rest.)
  ServingEngine engine(snap_, WithWorkers(2));
  std::atomic<uint64_t> resolved{0}, rejected{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&engine, &resolved, &rejected] {
      ServeRequest req;
      req.seed = 0;
      req.size = 5;
      for (int i = 0; i < 50; ++i) {
        Admission a = engine.Submit(req);
        if (a.ok()) {
          a.response.get();
          resolved.fetch_add(1);
        } else {
          EXPECT_EQ(a.status, ServeStatus::kShuttingDown);
          rejected.fetch_add(1);
        }
      }
    });
  }
  engine.Shutdown();
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(resolved.load() + rejected.load(), 200u);
  EXPECT_EQ(engine.Stats().completed, resolved.load());
}

TEST_F(ServingTest, WarmWorkerAllocCounterStaysFlat) {
  // Park both workers on the gate with one request each before measuring, so
  // BOTH arenas are provably exercised during warmup (otherwise a worker
  // could stay cold through warmup and allocate during the measured phase).
  Gate gate;
  ServingOptions opts = WithWorkers(2);
  opts.worker_hook = [&gate] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);
  std::vector<ServeRequest> requests = MakeRequests(10);
  {
    Admission a = engine.Submit(requests[0]);
    Admission b = engine.Submit(requests[1]);
    ASSERT_TRUE(a.ok() && b.ok());
    gate.AwaitArrivals(2);  // one request parked on each worker
    gate.Open();
    EXPECT_EQ(a.response.get().status, ServeStatus::kOk);
    EXPECT_EQ(b.response.get().status, ServeStatus::kOk);
  }

  auto run_round = [&] {
    std::vector<std::future<ServeResponse>> futures;
    for (const ServeRequest& req : requests) {
      Admission a = engine.Submit(req);
      ASSERT_TRUE(a.ok());
      futures.push_back(std::move(a.response));
    }
    for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);
  };

  // Warm up until the per-worker arenas reach their steady state (two
  // consecutive rounds without a single buffer growth), then demand
  // perfectly flat allocation counters over many further requests.
  uint64_t last = 0;
  int flat_rounds = 0;
  for (int round = 0; round < 20 && flat_rounds < 2; ++round) {
    run_round();
    const uint64_t now = engine.Stats().alloc_events;
    flat_rounds = now == last ? flat_rounds + 1 : 0;
    last = now;
  }
  ASSERT_EQ(flat_rounds, 2) << "arena never reached a steady state";
  for (int round = 0; round < 5; ++round) run_round();
  EXPECT_EQ(engine.Stats().alloc_events, last)
      << "warm request path allocated";
}

TEST_F(ServingTest, TopologyOnlyModeServes) {
  // The registry snapshot carries no TNAMs: topology-only (w/o SNAS) mode.
  ServingEngine engine(ds_->snapshot, WithWorkers(2));
  ServeRequest req;
  req.seed = 0;
  req.size = 8;
  Admission a = engine.Submit(req);
  ASSERT_TRUE(a.ok());
  ServeResponse resp = a.response.get();
  ASSERT_EQ(resp.status, ServeStatus::kOk);
  ASSERT_EQ(resp.cluster.size(), 8u);
  EXPECT_EQ(resp.cluster.front(), 0u);

  // In topology-only mode every explicit k is unknown.
  req.k = 32;
  EXPECT_EQ(engine.Submit(req).status, ServeStatus::kInvalid);
}

TEST_F(ServingTest, SnapshotValidatesEagerly) {
  // A mismatched TNAM must throw when the snapshot is assembled, never
  // inside a worker thread (where it would terminate the process).
  const Dataset& other = GetDataset("pubmed-sim");
  ASSERT_NE(other.num_nodes(), ds_->num_nodes());
  std::vector<PreparedTnam> mismatched;
  mismatched.push_back(PreparedTnam{static_cast<int>(DefaultTnam()->dim()),
                                    *DefaultTnam()});
  EXPECT_THROW(other.snapshot->WithTnams(std::move(mismatched), 1),
               std::invalid_argument);

  std::vector<PreparedTnam> dup;
  dup.push_back(PreparedTnam{7, *DefaultTnam()});
  dup.push_back(PreparedTnam{7, *DefaultTnam()});
  EXPECT_THROW(ds_->snapshot->WithTnams(std::move(dup), 1),
               std::invalid_argument);

  EXPECT_THROW(ServingEngine(nullptr, WithWorkers(1)), std::invalid_argument);

  ServingOptions opts = WithWorkers(1);
  opts.max_queue_depth = 0;
  EXPECT_THROW(ServingEngine(snap_, opts), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Hot reload: snapshot swap under live traffic (DESIGN.md §8).

TEST_F(ServingTest, ReloadSwitchesVersionsBitIdenticallyAtEveryWorkerCount) {
  // v1 serves the k=32 TNAM, v2 the k=16 one; responses must equal the
  // serial Laca::Cluster on whichever version served them, at 1/2/4/8
  // workers, before and after the swap.
  std::shared_ptr<const DatasetSnapshot> v2 = MakeSnapshot(2, /*k=*/16);
  std::vector<ServeRequest> requests = MakeRequests(8);
  std::vector<std::vector<NodeId>> expected_v1 =
      SerialExpected(*snap_, requests);
  std::vector<std::vector<NodeId>> expected_v2 = SerialExpected(*v2, requests);

  for (size_t workers : {1u, 2u, 4u, 8u}) {
    ServingEngine engine(snap_, WithWorkers(workers));
    ASSERT_EQ(engine.Stats().active_version, 1u);

    auto run_and_check =
        [&](const std::vector<std::vector<NodeId>>& expected) {
          std::vector<std::future<ServeResponse>> futures;
          for (const ServeRequest& req : requests) {
            Admission a = engine.Submit(req);
            ASSERT_TRUE(a.ok()) << a.error;
            futures.push_back(std::move(a.response));
          }
          for (size_t i = 0; i < futures.size(); ++i) {
            ServeResponse resp = futures[i].get();
            ASSERT_EQ(resp.status, ServeStatus::kOk) << resp.error;
            EXPECT_EQ(resp.cluster, expected[i])
                << "workers=" << workers << " request " << i;
          }
        };
    run_and_check(expected_v1);
    engine.Reload(v2);
    EXPECT_EQ(engine.Stats().active_version, 2u);
    run_and_check(expected_v2);
    EXPECT_EQ(engine.Stats().reloads, 1u);
  }
}

TEST_F(ServingTest, ReloadUnderConcurrentTrafficLosesNoAdmittedRequest) {
  // Submitters hammer one fixed request while the main thread swaps
  // versions back and forth. Every admitted future must resolve kOk with a
  // response bit-identical to the serial answer of SOME version — never a
  // mix, never a drop.
  ServeRequest req = MakeRequests(1)[0];
  req.size = 15;
  std::shared_ptr<const DatasetSnapshot> v2 = MakeSnapshot(2, /*k=*/16);
  std::shared_ptr<const DatasetSnapshot> v3 = MakeSnapshot(3, /*k=*/32);
  const std::vector<NodeId> expect_v1 =
      SerialExpected(*snap_, {req})[0];
  const std::vector<NodeId> expect_v2 = SerialExpected(*v2, {req})[0];
  // v3 rebuilds the k=32 TNAM with the same options: bit-identical to v1's
  // (the PR 3 determinism contract), so its serial answer is expect_v1.
  ASSERT_EQ(SerialExpected(*v3, {req})[0], expect_v1);

  ServingEngine engine(snap_, WithWorkers(2));
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> resolved{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&] {
      while (!stop.load()) {
        Admission a = engine.Submit(req);
        ASSERT_TRUE(a.ok()) << a.error;  // queue is deep enough not to fill
        admitted.fetch_add(1);
        ServeResponse resp = a.response.get();
        ASSERT_EQ(resp.status, ServeStatus::kOk) << resp.error;
        ASSERT_TRUE(resp.cluster == expect_v1 || resp.cluster == expect_v2);
        resolved.fetch_add(1);
      }
    });
  }
  engine.Reload(v2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.Reload(v3);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(admitted.load(), resolved.load());
  EXPECT_GT(resolved.load(), 0u);
  EXPECT_EQ(engine.Stats().active_version, 3u);
  EXPECT_EQ(engine.Stats().reloads, 2u);
  EXPECT_EQ(engine.Stats().completed, resolved.load());
}

TEST_F(ServingTest, RetiredSnapshotDrainsAfterLastInFlightReaderCompletes) {
  // Deterministic drain witness: park the only worker mid-request (it and
  // its job pin v1), publish v2, and verify v1 survives exactly until the
  // in-flight request completes and the worker rebinds.
  std::shared_ptr<const DatasetSnapshot> v1 = MakeSnapshot(1, /*k=*/32);
  std::weak_ptr<const DatasetSnapshot> watch = v1;

  Gate gate;
  ServingOptions opts = WithWorkers(1);
  opts.worker_hook = [&gate] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(v1, opts);
  v1.reset();  // the engine (store + workers + jobs) now owns every v1 ref

  ServeRequest req;
  req.seed = 0;
  req.size = 5;
  Admission a = engine.Submit(req);
  ASSERT_TRUE(a.ok());
  gate.AwaitArrivals(1);  // the worker holds the v1 job

  engine.Reload(MakeSnapshot(2, /*k=*/16));
  EXPECT_EQ(engine.Stats().active_version, 2u);
  // The in-flight request still pins the retired version.
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(engine.Stats().retired_live, 1u);

  gate.Open();
  EXPECT_EQ(a.response.get().status, ServeStatus::kOk);
  // With the request done, the idle worker rebinds to v2 off the request
  // path and the last v1 reference drains.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!watch.expired() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(watch.expired()) << "retired snapshot never drained";
  EXPECT_EQ(engine.Stats().retired_live, 0u);

  // The engine keeps serving on v2.
  Admission b = engine.Submit(req);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.response.get().status, ServeStatus::kOk);
}

TEST_F(ServingTest, StaleReloadIsRejectedAndServingContinues) {
  ServingEngine engine(snap_, WithWorkers(1));
  // Same version (1) does not strictly advance: the publish must fail
  // loudly instead of rolling the serving data back.
  EXPECT_THROW(engine.Reload(MakeSnapshot(1, /*k=*/16)),
               std::invalid_argument);
  EXPECT_THROW(engine.Reload(nullptr), std::invalid_argument);
  EXPECT_EQ(engine.Stats().active_version, 1u);
  EXPECT_EQ(engine.Stats().reloads, 0u);

  ServeRequest req;
  req.seed = 0;
  req.size = 5;
  Admission a = engine.Submit(req);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.response.get().status, ServeStatus::kOk);
}

TEST_F(ServingTest, AllocCounterFlatOnBothSidesOfAReload) {
  // The zero-allocation steady state must hold on the old snapshot, survive
  // the swap (the rebind may allocate — that is the off-request-path cost),
  // and re-establish on the new snapshot.
  ServingEngine engine(snap_, WithWorkers(2));
  std::vector<ServeRequest> requests = MakeRequests(10);

  auto run_round = [&] {
    std::vector<std::future<ServeResponse>> futures;
    for (const ServeRequest& req : requests) {
      Admission a = engine.Submit(req);
      ASSERT_TRUE(a.ok());
      futures.push_back(std::move(a.response));
    }
    for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);
  };
  auto settle_flat = [&](const char* phase) -> uint64_t {
    uint64_t last = 0;
    int flat_rounds = 0;
    for (int round = 0; round < 20 && flat_rounds < 2; ++round) {
      run_round();
      const uint64_t now = engine.Stats().alloc_events;
      flat_rounds = now == last ? flat_rounds + 1 : 0;
      last = now;
    }
    EXPECT_EQ(flat_rounds, 2) << phase << ": arena never reached steady state";
    return last;
  };

  const uint64_t steady_v1 = settle_flat("v1");
  for (int round = 0; round < 3; ++round) run_round();
  EXPECT_EQ(engine.Stats().alloc_events, steady_v1)
      << "v1 warm request path allocated";

  engine.Reload(MakeSnapshot(2, /*k=*/16));
  const uint64_t steady_v2 = settle_flat("v2");
  for (int round = 0; round < 3; ++round) run_round();
  EXPECT_EQ(engine.Stats().alloc_events, steady_v2)
      << "v2 warm request path allocated";
}

// ---------------------------------------------------------------------------
// Deadlines: admission-anchored budgets, queue shedding, mid-compute
// cancellation (DESIGN.md §9).

TEST_F(ServingTest, DeadlineShedsExpiredQueuedRequestsWithoutCompute) {
  // Park the only worker on a no-deadline job, let a 25 ms-budget job expire
  // in the queue behind it, and verify the worker sheds it at claim time:
  // kDeadlineExceeded, no compute (the hook never fires for it), and the
  // shed_in_queue counter — not cancelled — records it.
  Gate gate;
  std::atomic<size_t> hook_arrivals{0};
  ServingOptions opts = WithWorkers(1);
  opts.worker_hook = [&gate, &hook_arrivals] {
    hook_arrivals.fetch_add(1);
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  ServeRequest blocker;
  blocker.seed = 0;
  blocker.size = 5;
  blocker.timeout_ms = 0.0;  // explicitly no deadline
  Admission parked = engine.Submit(blocker);
  ASSERT_TRUE(parked.ok());
  gate.AwaitArrivals(1);  // the worker holds the blocker; the queue is empty

  ServeRequest doomed = blocker;
  doomed.timeout_ms = 25.0;
  Admission queued = engine.Submit(doomed);
  ASSERT_TRUE(queued.ok());  // admission does not pre-judge the deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  gate.Open();

  // The blocker waited far past 25 ms on the gate but carries no deadline.
  EXPECT_EQ(parked.response.get().status, ServeStatus::kOk);
  ServeResponse shed = queued.response.get();
  EXPECT_EQ(shed.status, ServeStatus::kDeadlineExceeded);
  EXPECT_NE(shed.error.find("queue"), std::string::npos) << shed.error;
  // Shed at claim: the whole lifetime was queue wait.
  EXPECT_DOUBLE_EQ(shed.queue_seconds, shed.total_seconds);
  EXPECT_GE(shed.total_seconds, 0.025);

  ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.shed_in_queue, 1u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 2u);  // a shed request still completes
  EXPECT_EQ(hook_arrivals.load(), 1u) << "shed job reached the compute path";
  // The latency window describes served requests only.
  EXPECT_EQ(stats.latency_window, 1u);
}

TEST_F(ServingTest, DeadlineCancelsMidComputeAndWorkspaceStaysReusable) {
  // A job claimed before its deadline but parked (in the hook) past it must
  // trip the CancelToken at the first poll, resolve kDeadlineExceeded via
  // the `cancelled` counter, and leave the worker's warm workspace able to
  // produce bit-identical answers — with a flat alloc counter.
  Gate gate;
  std::atomic<bool> park{false};
  ServingOptions opts = WithWorkers(1);
  opts.worker_hook = [&gate, &park] {
    if (!park.load()) return;
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  ServeRequest req = MakeRequests(1)[0];
  req.size = 20;
  const std::vector<NodeId> expected = SerialExpected(*snap_, {req})[0];

  // Warm the arena to its steady state first, so the post-cancel assertion
  // measures the cancellation path and not first-touch growth.
  uint64_t steady = 0;
  int flat_rounds = 0;
  for (int round = 0; round < 20 && flat_rounds < 2; ++round) {
    Admission a = engine.Submit(req);
    ASSERT_TRUE(a.ok());
    ASSERT_EQ(a.response.get().status, ServeStatus::kOk);
    const uint64_t now = engine.Stats().alloc_events;
    flat_rounds = now == steady ? flat_rounds + 1 : 0;
    steady = now;
  }
  ASSERT_EQ(flat_rounds, 2) << "arena never reached a steady state";

  park.store(true);
  ServeRequest doomed = req;
  doomed.timeout_ms = 150.0;
  Admission a = engine.Submit(doomed);
  ASSERT_TRUE(a.ok());
  gate.AwaitArrivals(1);  // claimed pre-deadline: the shed path is off
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  park.store(false);
  gate.Open();

  ServeResponse cancelled = a.response.get();
  EXPECT_EQ(cancelled.status, ServeStatus::kDeadlineExceeded);
  EXPECT_NE(cancelled.error.find("mid-compute"), std::string::npos)
      << cancelled.error;
  EXPECT_TRUE(cancelled.cluster.empty());

  ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.shed_in_queue, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);

  // The same workspace, same request, no deadline: bit-identical to serial,
  // and the cancellation unwound without allocating.
  Admission b = engine.Submit(req);
  ASSERT_TRUE(b.ok());
  ServeResponse ok = b.response.get();
  ASSERT_EQ(ok.status, ServeStatus::kOk);
  EXPECT_EQ(ok.cluster, expected);
  EXPECT_EQ(engine.Stats().alloc_events, steady)
      << "cancellation path allocated";
}

TEST_F(ServingTest, DefaultTimeoutAppliesAndZeroOverrideOptsOut) {
  // Engine-wide default budget of 30 ms; a request with timeout_ms=0 opts
  // out even while the default sheds its queue-mates.
  Gate gate;
  ServingOptions opts = WithWorkers(1);
  opts.default_timeout_ms = 30.0;
  opts.worker_hook = [&gate] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  ServeRequest blocker;
  blocker.seed = 0;
  blocker.size = 5;
  blocker.timeout_ms = 0.0;
  Admission parked = engine.Submit(blocker);
  ASSERT_TRUE(parked.ok());
  gate.AwaitArrivals(1);

  ServeRequest inherits = blocker;
  inherits.timeout_ms = -1.0;  // falls back to the engine default
  Admission doomed = engine.Submit(inherits);
  ServeRequest opts_out = blocker;  // timeout_ms = 0: no deadline
  Admission survivor = engine.Submit(opts_out);
  ASSERT_TRUE(doomed.ok() && survivor.ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  gate.Open();

  EXPECT_EQ(parked.response.get().status, ServeStatus::kOk);
  EXPECT_EQ(doomed.response.get().status, ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(survivor.response.get().status, ServeStatus::kOk);
  EXPECT_EQ(engine.Stats().shed_in_queue, 1u);
}

TEST_F(ServingTest, TimeoutValidationRejectsNaNAndInfinity) {
  ServingEngine engine(snap_, WithWorkers(1));
  ServeRequest req;
  req.seed = 0;
  req.size = 5;

  req.timeout_ms = std::numeric_limits<double>::quiet_NaN();
  Admission nan = engine.Submit(req);
  EXPECT_EQ(nan.status, ServeStatus::kInvalid);
  EXPECT_NE(nan.error.find("timeout"), std::string::npos) << nan.error;

  req.timeout_ms = std::numeric_limits<double>::infinity();
  EXPECT_EQ(engine.Submit(req).status, ServeStatus::kInvalid);

  // The engine-wide default is validated at construction.
  ServingOptions bad = WithWorkers(1);
  bad.default_timeout_ms = -1.0;
  EXPECT_THROW(ServingEngine(snap_, bad), std::invalid_argument);
}

TEST_F(ServingTest, DeadlineAndConcurrentReloadKeepServing) {
  // Reload publishes v2 while a deadlined job is parked on the worker; the
  // cancellation must not disturb the swap, and the next request serves the
  // new version bit-identically.
  Gate gate;
  std::atomic<bool> park{true};
  ServingOptions opts = WithWorkers(1);
  opts.worker_hook = [&gate, &park] {
    if (!park.load()) return;
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  ServeRequest req = MakeRequests(1)[0];
  req.size = 15;
  ServeRequest doomed = req;
  doomed.timeout_ms = 150.0;
  Admission a = engine.Submit(doomed);
  ASSERT_TRUE(a.ok());
  gate.AwaitArrivals(1);

  std::shared_ptr<const DatasetSnapshot> v2 = MakeSnapshot(2, /*k=*/16);
  const std::vector<NodeId> expected_v2 = SerialExpected(*v2, {req})[0];
  engine.Reload(v2);
  EXPECT_EQ(engine.Stats().active_version, 2u);

  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  park.store(false);
  gate.Open();
  EXPECT_EQ(a.response.get().status, ServeStatus::kDeadlineExceeded);

  Admission b = engine.Submit(req);
  ASSERT_TRUE(b.ok());
  ServeResponse resp = b.response.get();
  ASSERT_EQ(resp.status, ServeStatus::kOk);
  EXPECT_EQ(resp.cluster, expected_v2);
  EXPECT_EQ(engine.Stats().cancelled, 1u);
}

TEST_F(ServingTest, ShutdownFulfillsEveryAdmittedFutureIncludingDeadlined) {
  // Drain with a mixed backlog: one job parked on the worker, one queued
  // job that expires during the drain, one queued without a deadline. Every
  // admitted future resolves; the expired one sheds, the rest serve.
  Gate gate;
  std::atomic<bool> park{true};
  ServingOptions opts = WithWorkers(1);
  opts.worker_hook = [&gate, &park] {
    if (!park.load()) return;
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  ServeRequest req;
  req.seed = 0;
  req.size = 5;
  Admission parked_job = engine.Submit(req);
  ASSERT_TRUE(parked_job.ok());
  gate.AwaitArrivals(1);

  ServeRequest doomed = req;
  doomed.timeout_ms = 25.0;
  Admission expiring = engine.Submit(doomed);
  Admission plain = engine.Submit(req);
  ASSERT_TRUE(expiring.ok() && plain.ok());

  // Submits racing the drain may still be admitted until the flag lands;
  // keep their futures — they too must be fulfilled.
  std::vector<std::future<ServeResponse>> racers;
  std::thread closer([&engine] { engine.Shutdown(); });
  while (true) {
    Admission racer = engine.Submit(req);
    if (racer.status == ServeStatus::kShuttingDown) break;
    ASSERT_TRUE(racer.ok());
    racers.push_back(std::move(racer.response));
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  park.store(false);
  gate.Open();
  closer.join();

  EXPECT_EQ(parked_job.response.get().status, ServeStatus::kOk);
  EXPECT_EQ(expiring.response.get().status, ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(plain.response.get().status, ServeStatus::kOk);
  for (auto& f : racers) EXPECT_EQ(f.get().status, ServeStatus::kOk);
  ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.completed, 3u + racers.size());
  EXPECT_EQ(stats.shed_in_queue, 1u);
}

// ---------------------------------------------------------------------------
// Fault injection: provoked failures must stay contained (DESIGN.md §9).

TEST_F(ServingTest, InjectedComputeThrowFailsExactlyThatRequest) {
  ServingOptions opts = WithWorkers(1);
  opts.fault_injector = std::make_shared<FaultInjector>();
  opts.fault_injector->Arm(FaultSite::kComputeThrow, /*at_hit=*/2);
  ServingEngine engine(snap_, opts);

  ServeRequest req;
  req.seed = 0;
  req.size = 5;
  auto serve_one = [&] {
    Admission a = engine.Submit(req);
    EXPECT_TRUE(a.ok());
    return a.response.get();
  };
  EXPECT_EQ(serve_one().status, ServeStatus::kOk);
  ServeResponse failed = serve_one();  // the armed 2nd compute
  EXPECT_EQ(failed.status, ServeStatus::kInternal);
  EXPECT_NE(failed.error.find("injected fault"), std::string::npos)
      << failed.error;
  // The worker survived its exception and keeps claiming.
  EXPECT_EQ(serve_one().status, ServeStatus::kOk);
  ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.internal, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST_F(ServingTest, InjectedWorkerStallDegradesThroughputButDrains) {
  ServingOptions opts = WithWorkers(2);
  opts.fault_injector = std::make_shared<FaultInjector>();
  opts.fault_injector->Arm(FaultSite::kWorkerStall);
  opts.fault_injector->set_stall_ms(50);
  std::vector<std::future<ServeResponse>> futures;
  {
    ServingEngine engine(snap_, opts);
    ServeRequest req;
    req.seed = 0;
    req.size = 5;
    for (int i = 0; i < 6; ++i) {
      Admission a = engine.Submit(req);
      ASSERT_TRUE(a.ok());
      futures.push_back(std::move(a.response));
    }
    engine.Shutdown();  // must drain through the stalls, never deadlock
    EXPECT_EQ(engine.Stats().completed, 6u);
  }
  for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);
  EXPECT_GE(opts.fault_injector->fired(FaultSite::kWorkerStall), 6u);
}

TEST_F(ServingTest, InjectedPromisePathFaultStillFulfillsTheFuture) {
  // A fault on the completion path itself must degrade the response, not
  // leak a broken promise (which would hang the caller forever).
  ServingOptions opts = WithWorkers(1);
  opts.fault_injector = std::make_shared<FaultInjector>();
  opts.fault_injector->Arm(FaultSite::kPromisePath, /*at_hit=*/1);
  ServingEngine engine(snap_, opts);

  ServeRequest req;
  req.seed = 0;
  req.size = 5;
  Admission a = engine.Submit(req);
  ASSERT_TRUE(a.ok());
  ServeResponse resp = a.response.get();  // must not hang
  EXPECT_EQ(resp.status, ServeStatus::kInternal);
  EXPECT_NE(resp.error.find("injected fault"), std::string::npos);

  Admission b = engine.Submit(req);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.response.get().status, ServeStatus::kOk);
}

// Submit's on-ready callback fires exactly once per admitted request, only
// once its future is ready, on every worker-side resolution path: a served
// request, a compute exception (kInternal), and a claim-time shed. A
// rejected request never fires it. (The cache and single-flight paths are
// covered in serving_cache_test.) A missed path would only show as a
// session answering at its poll tick instead of at completion.
TEST_F(ServingTest, OnReadyFiresOnceOnEveryWorkerResolutionPath) {
  ReadyProbe served, failed, parked, shed, invalid;
  Gate gate;
  std::atomic<bool> park{false};
  ServingOptions opts = WithWorkers(1);
  opts.fault_injector = std::make_shared<FaultInjector>();
  opts.fault_injector->Arm(FaultSite::kComputeThrow, /*at_hit=*/2);
  opts.worker_hook = [&] {
    if (!park.load()) return;
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  ServeRequest req;
  req.seed = 0;
  req.size = 5;
  ASSERT_EQ(served.Submit(engine, req), ServeStatus::kOk);
  EXPECT_EQ(served.Get().status, ServeStatus::kOk);
  ASSERT_EQ(failed.Submit(engine, req), ServeStatus::kOk);
  EXPECT_EQ(failed.Get().status, ServeStatus::kInternal);  // compute_throw

  // Claim-time shed: the only worker parks on a job while a 20 ms-budget
  // job expires behind it.
  park.store(true);
  ASSERT_EQ(parked.Submit(engine, req), ServeStatus::kOk);
  gate.AwaitArrivals(1);
  ServeRequest doomed = req;
  doomed.timeout_ms = 20.0;
  ASSERT_EQ(shed.Submit(engine, doomed), ServeStatus::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate.Open();
  EXPECT_EQ(parked.Get().status, ServeStatus::kOk);
  EXPECT_EQ(shed.Get().status, ServeStatus::kDeadlineExceeded);

  ServeRequest bad = req;
  bad.size = 0;
  EXPECT_EQ(invalid.Submit(engine, bad), ServeStatus::kInvalid);

  engine.Shutdown();  // nothing can resolve after this
  EXPECT_EQ(engine.Stats().shed_in_queue, 1u);
  ExpectResolvedOnce(served, "worker completion");
  ExpectResolvedOnce(failed, "compute exception");
  ExpectResolvedOnce(parked, "worker completion after a park");
  ExpectResolvedOnce(shed, "claim-time shed");
  EXPECT_EQ(invalid.calls(), 0) << "a rejected request ran its callback";
}

// ---------------------------------------------------------------------------
// Protocol: the untrusted request-parsing boundary.

TEST(ServingProtocolTest, ParsesFullRequestLine) {
  ParsedLine p = ParseRequestLine("17 25 alpha=0.5 eps=1e-4 sigma=0.1 k=16");
  ASSERT_EQ(p.kind, ParsedLine::Kind::kRequest) << p.error;
  EXPECT_EQ(p.request.seed, 17u);
  EXPECT_EQ(p.request.size, 25u);
  EXPECT_DOUBLE_EQ(p.request.alpha, 0.5);
  EXPECT_DOUBLE_EQ(p.request.epsilon, 1e-4);
  EXPECT_DOUBLE_EQ(p.request.sigma, 0.1);
  EXPECT_EQ(p.request.k, 16);
}

TEST(ServingProtocolTest, MinimalRequestLeavesOverridesUnset) {
  ParsedLine p = ParseRequestLine("3 10");
  ASSERT_EQ(p.kind, ParsedLine::Kind::kRequest);
  EXPECT_LT(p.request.alpha, 0.0);
  EXPECT_LT(p.request.epsilon, 0.0);
  EXPECT_EQ(p.request.k, -1);
}

TEST(ServingProtocolTest, RejectsMalformedLines) {
  // Negative ids must not wrap, trailing garbage must not pass, and every
  // rejection must carry the offending token.
  for (const char* line :
       {"-1 5", "3 -5", "3 5x", "3.5 5", "3 5 alpha=1.5", "3 5 eps=0",
        "3 5 eps=1e-4x", "3 5 alpha=", "3 5 k=-2", "3 5 k=2b", "3 5 wat=1",
        "3 5 sigma=nan", "3", "seed 5"}) {
    ParsedLine p = ParseRequestLine(line);
    EXPECT_EQ(p.kind, ParsedLine::Kind::kError) << line;
    EXPECT_FALSE(p.error.empty()) << line;
  }
}

TEST(ServingProtocolTest, MalformedDiagnosticsAreSanitizedAndBounded) {
  // Fuzz-found (tests/fuzz_corpora/fuzz_protocol/regression-ctrl-echo.bin):
  // a rejected token's raw bytes were echoed verbatim into the ERR line, so
  // control bytes reached the single-line wire protocol and operator logs.
  ParsedLine ctrl = ParseRequestLine(std::string("0\x01 5"));
  ASSERT_EQ(ctrl.kind, ParsedLine::Kind::kError);
  for (unsigned char c : ctrl.error) {
    EXPECT_TRUE(c >= 0x20 && c < 0x7f) << "raw byte " << int(c) << " escaped";
  }
  EXPECT_NE(ctrl.error.find("\\x01"), std::string::npos) << ctrl.error;

  // Fuzz-found (regression-unbounded-echo.bin): a garbage line below two
  // tokens echoed the WHOLE line, making the ERR response size track the
  // request size.
  ParsedLine huge = ParseRequestLine(std::string(5000, 'A'));
  ASSERT_EQ(huge.kind, ParsedLine::Kind::kError);
  EXPECT_LE(huge.error.size(), 128u);
  EXPECT_NE(huge.error.find("..."), std::string::npos) << huge.error;
}

TEST(ServingProtocolTest, ParsesTimeoutField) {
  ParsedLine p = ParseRequestLine("3 10 timeout_ms=250");
  ASSERT_EQ(p.kind, ParsedLine::Kind::kRequest) << p.error;
  EXPECT_DOUBLE_EQ(p.request.timeout_ms, 250.0);

  // 0 is meaningful: it opts OUT of a server-wide default budget.
  ParsedLine zero = ParseRequestLine("3 10 timeout_ms=0");
  ASSERT_EQ(zero.kind, ParsedLine::Kind::kRequest);
  EXPECT_DOUBLE_EQ(zero.request.timeout_ms, 0.0);

  // Absent leaves the sentinel so the engine default applies.
  EXPECT_LT(ParseRequestLine("3 10").request.timeout_ms, 0.0);

  for (const char* line : {"3 5 timeout_ms=-1", "3 5 timeout_ms=nan",
                           "3 5 timeout_ms=1x", "3 5 timeout_ms="}) {
    ParsedLine bad = ParseRequestLine(line);
    EXPECT_EQ(bad.kind, ParsedLine::Kind::kError) << line;
    EXPECT_FALSE(bad.error.empty()) << line;
  }
}

TEST(ServingProtocolTest, FormatsDeadlineAndInternalErrors) {
  ServeResponse deadline;
  deadline.status = ServeStatus::kDeadlineExceeded;
  deadline.error = "deadline exceeded in queue";
  EXPECT_EQ(FormatResponse(3, deadline),
            "ERR id=3 code=deadline_exceeded msg=deadline exceeded in queue");

  ServeResponse internal;
  internal.status = ServeStatus::kInternal;
  EXPECT_EQ(FormatResponse(4, internal),
            "ERR id=4 code=internal msg=internal");
}

TEST(ServingProtocolTest, HealthLineReportsOkAndDegraded) {
  EXPECT_EQ(ParseRequestLine("health").kind, ParsedLine::Kind::kHealth);

  ServingStats stats;
  stats.active_version = 4;
  stats.workers = 2;
  stats.queue_depth = 3;
  stats.max_queue_depth = 8;
  stats.shed_in_queue = 5;
  stats.cancelled = 2;
  stats.deadline_exceeded = 7;
  stats.internal = 1;
  stats.reloads = 6;
  const std::string ok = FormatHealthLine(stats);
  EXPECT_NE(ok.find("HEALTH status=ok"), std::string::npos) << ok;
  EXPECT_NE(ok.find("version=4"), std::string::npos) << ok;
  EXPECT_NE(ok.find("queue=3/8"), std::string::npos) << ok;
  EXPECT_NE(ok.find("shed_in_queue=5"), std::string::npos) << ok;
  EXPECT_NE(ok.find("deadline_exceeded=7"), std::string::npos) << ok;
  EXPECT_NE(ok.find("cancelled=2"), std::string::npos) << ok;
  EXPECT_NE(ok.find("internal=1"), std::string::npos) << ok;
  EXPECT_NE(ok.find("reloads=6"), std::string::npos) << ok;

  // Degraded exactly when the admission queue is at its bound: the next
  // Submit would bounce with kOverloaded.
  stats.queue_depth = stats.max_queue_depth;
  EXPECT_NE(FormatHealthLine(stats).find("HEALTH status=degraded"),
            std::string::npos);
}

TEST(ServingProtocolTest, StatsLineCarriesDeadlineCounters) {
  ServingStats stats;
  stats.deadline_exceeded = 9;
  stats.shed_in_queue = 6;
  stats.cancelled = 3;
  stats.internal = 2;
  const std::string line = FormatStatsLine(stats, 0.0);
  EXPECT_NE(line.find("deadline=9"), std::string::npos) << line;
  EXPECT_NE(line.find("shed=6"), std::string::npos) << line;
  EXPECT_NE(line.find("cancelled=3"), std::string::npos) << line;
  EXPECT_NE(line.find("internal=2"), std::string::npos) << line;
}

TEST_F(ServingTest, BrownoutShedsOnProjectedQueueWaitAndRecovers) {
  // Phase 1: one stalled completion seeds the service-time EWMA (the
  // injected stall counts as service, like any slow worker). Phase 2: the
  // worker parks in the hook (queue pressure), the queue packs, and the
  // projected wait (queue_depth x EWMA / workers) crosses the entry
  // threshold.
  std::atomic<bool> park{false};
  Gate gate;
  ServingOptions opts = WithWorkers(1);
  opts.default_timeout_ms = 100.0;
  opts.brownout_enter_fraction = 0.5;  // shed at >= 50ms projected wait
  opts.brownout_exit_fraction = 0.1;   // recover at <= 10ms
  opts.fault_injector = std::make_shared<FaultInjector>();
  opts.fault_injector->Arm(FaultSite::kWorkerStall);
  opts.fault_injector->set_stall_ms(30);  // every service takes >= 30ms
  opts.worker_hook = [&] {
    if (park.load()) {
      gate.Arrive();
      gate.WaitUntilOpen();
    }
  };
  ServingEngine engine(snap_, opts);

  ServeRequest req;
  req.seed = 0;
  req.size = 5;
  req.timeout_ms = 0.0;  // opt out: this test sheds on projection, not expiry
  Admission warm = engine.Submit(req);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.response.get().status, ServeStatus::kOk);  // EWMA >= 30ms

  park.store(true);
  Admission parked = engine.Submit(req);
  ASSERT_TRUE(parked.ok());
  gate.AwaitArrivals(1);  // worker holds it; the queue is empty

  // Each queued request adds >= 30ms of projected wait; the entry threshold
  // (50ms) must trip within a few submissions, well before the queue bound.
  std::vector<Admission> admitted;
  Admission shed;
  bool tripped = false;
  for (int i = 0; i < 10 && !tripped; ++i) {
    Admission a = engine.Submit(req);
    if (a.status == ServeStatus::kBrownout) {
      shed = std::move(a);
      tripped = true;
    } else {
      ASSERT_TRUE(a.ok());
      admitted.push_back(std::move(a));
    }
  }
  ServingStats during = engine.Stats();
  gate.Open();  // whatever the verdict, never leave the worker parked
  EXPECT_TRUE(tripped) << "projected-wait brownout never engaged";
  EXPECT_GE(shed.retry_after_ms, 1.0);  // actionable backoff hint
  EXPECT_TRUE(during.brownout_active);
  EXPECT_GE(during.brownout_entries, 1u);
  EXPECT_GE(during.rejected_brownout, 1u);
  EXPECT_GT(during.est_queue_wait_ms, 0.0);

  // Recovery: drain everything, then the next admission both flips the
  // hysteresis (projected wait 0 <= exit, queue empty) and is accepted.
  EXPECT_EQ(parked.response.get().status, ServeStatus::kOk);
  for (Admission& a : admitted) {
    EXPECT_EQ(a.response.get().status, ServeStatus::kOk);
  }
  Admission after = engine.Submit(req);
  ASSERT_TRUE(after.ok()) << "brownout failed to release after drain";
  EXPECT_EQ(after.response.get().status, ServeStatus::kOk);
  EXPECT_FALSE(engine.Stats().brownout_active);
}

TEST_F(ServingTest, BrownoutEntersOnServedTailLatencyWhileQueueIsBackedUp) {
  // The second entry signal: served p99 over the control window. The hook
  // sleep is pre-claim (queue time), so the service EWMA stays near zero
  // and the projected-wait signal cannot trip — only the p99 path can.
  // The latch then holds exactly as long as the hysteresis says it should:
  // while the queue is still deeper than the worker fleet.
  ServingOptions opts = WithWorkers(1);
  opts.default_timeout_ms = 100.0;
  opts.brownout_enter_fraction = 0.5;  // p99 >= 50ms trips
  opts.brownout_exit_fraction = 0.05;
  opts.worker_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };
  ServingEngine engine(snap_, opts);

  ServeRequest req;
  req.seed = 0;
  req.size = 5;
  req.timeout_ms = 0.0;
  // 15 served one at a time (>= 60ms wall each), then a 16th with five
  // more pipelined behind it. The p99 refresh runs at the 16th completion
  // — with the queue five deep, so the exit hysteresis (queue <= workers)
  // cannot release the latch before this test observes it.
  for (int i = 0; i < 15; ++i) {
    Admission a = engine.Submit(req);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.response.get().status, ServeStatus::kOk);
  }
  std::vector<Admission> tail;
  Admission shed;
  bool shed_seen = false;
  for (int i = 0; i < 6; ++i) {
    Admission a = engine.Submit(req);
    if (a.status == ServeStatus::kBrownout) {
      // On a slow machine (sanitizer builds) the 16th completion can run
      // its refresh and latch while this loop is still pipelining — the
      // early shed IS the signal this test is after.
      shed = std::move(a);
      shed_seen = true;
      break;
    }
    ASSERT_TRUE(a.ok());
    tail.push_back(std::move(a));
  }
  if (!shed_seen) {
    // The 16th completion latches the brownout; the five queued requests
    // give a multi-hundred-ms window to observe it before exit is
    // possible.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!engine.Stats().brownout_active &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(engine.Stats().brownout_active) << "p99 signal never tripped";
    Admission a = engine.Submit(req);
    if (a.status == ServeStatus::kBrownout) {
      shed = std::move(a);
      shed_seen = true;
    } else {
      // The latch can release between the poll and the submit if the tail
      // drained first; entry is still on record below.
      ASSERT_TRUE(a.ok());
      tail.push_back(std::move(a));
    }
  }
  if (shed_seen) {
    EXPECT_GE(shed.retry_after_ms, 1.0);
  }
  EXPECT_GE(engine.Stats().brownout_entries, 1u) << "p99 entry never latched";

  // Drain; the latch releases once the queue is back at fleet depth.
  for (Admission& a : tail) {
    EXPECT_EQ(a.response.get().status, ServeStatus::kOk);
  }
  Admission after = engine.Submit(req);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.response.get().status, ServeStatus::kOk);
  EXPECT_FALSE(engine.Stats().brownout_active);
}

TEST_F(ServingTest, BrownoutConfigurationIsValidatedEagerly) {
  // Thresholds are fractions of the deadline budget: without a budget the
  // feature is meaningless, and exit >= enter would flap forever.
  ServingOptions no_budget = WithWorkers(1);
  no_budget.brownout_enter_fraction = 0.5;
  no_budget.default_timeout_ms = 0.0;
  EXPECT_THROW(ServingEngine(snap_, no_budget), std::invalid_argument);

  ServingOptions inverted = WithWorkers(1);
  inverted.default_timeout_ms = 100.0;
  inverted.brownout_enter_fraction = 0.5;
  inverted.brownout_exit_fraction = 0.5;
  EXPECT_THROW(ServingEngine(snap_, inverted), std::invalid_argument);

  ServingOptions off = WithWorkers(1);
  off.brownout_enter_fraction = 0.0;  // disabled: no budget needed
  ServingEngine engine(snap_, off);
  EXPECT_FALSE(engine.Stats().brownout_active);
}

TEST_F(ServingTest, OverloadRejectionCarriesRetryHint) {
  Gate gate;
  ServingOptions opts = WithWorkers(1);
  opts.max_queue_depth = 1;
  opts.worker_hook = [&gate] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  ServeRequest req;
  req.seed = 0;
  req.size = 5;
  Admission claimed = engine.Submit(req);
  ASSERT_TRUE(claimed.ok());
  gate.AwaitArrivals(1);
  Admission queued = engine.Submit(req);
  ASSERT_TRUE(queued.ok());

  Admission overflow = engine.Submit(req);
  EXPECT_EQ(overflow.status, ServeStatus::kOverloaded);
  EXPECT_GE(overflow.retry_after_ms, 1.0);  // clients get a backoff hint

  gate.Open();
  EXPECT_EQ(claimed.response.get().status, ServeStatus::kOk);
  EXPECT_EQ(queued.response.get().status, ServeStatus::kOk);
}

TEST(ServingProtocolTest, ErrorLinesAppendRetryAfterHint) {
  ServeResponse busy;
  busy.status = ServeStatus::kBrownout;
  busy.error = "brownout: shedding ahead of deadline budget";
  busy.retry_after_ms = 42.4;
  EXPECT_EQ(FormatResponse(5, busy),
            "ERR id=5 code=brownout msg=brownout: shedding ahead of deadline "
            "budget retry_after_ms=42");

  // No hint -> no token (the pre-existing ERR shape is unchanged).
  ServeResponse plain;
  plain.status = ServeStatus::kOverloaded;
  EXPECT_EQ(FormatResponse(6, plain),
            "ERR id=6 code=overloaded msg=overloaded");
}

TEST(ServingProtocolTest, HealthReasonsNameEveryActiveCause) {
  ServingStats stats;
  stats.queue_depth = 8;
  stats.max_queue_depth = 8;
  stats.brownout_active = true;
  HealthExtra extra;
  extra.reload_failing = true;
  extra.quarantined_dir = "snap.quarantined.0";
  extra.active_connections = 3;
  extra.max_connections = 64;
  const std::string line = FormatHealthLine(stats, extra);
  EXPECT_NE(line.find("HEALTH status=degraded"), std::string::npos) << line;
  EXPECT_NE(line.find("reasons=queue_full,brownout,reload_failing,"
                      "quarantined=snap.quarantined.0"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("conns=3/64"), std::string::npos) << line;

  // Healthy: no reasons token at all, conns still reported when capped.
  ServingStats ok_stats;
  ok_stats.max_queue_depth = 8;
  const std::string ok = FormatHealthLine(ok_stats, HealthExtra{0, 16, false,
                                                               ""});
  EXPECT_NE(ok.find("HEALTH status=ok"), std::string::npos) << ok;
  EXPECT_EQ(ok.find("reasons="), std::string::npos) << ok;
  EXPECT_NE(ok.find("conns=0/16"), std::string::npos) << ok;

  // The stdio shape (no connection cap): the legacy line, byte for byte.
  EXPECT_EQ(FormatHealthLine(ok_stats), FormatHealthLine(ok_stats,
                                                         HealthExtra{}));
}

TEST(ServingProtocolTest, StatsLineCountsBrownoutSheds) {
  ServingStats stats;
  stats.rejected_overload = 2;
  stats.rejected_brownout = 5;
  const std::string line = FormatStatsLine(stats, 0.0);
  EXPECT_NE(line.find("brownout=5"), std::string::npos) << line;
  EXPECT_NE(line.find("rejected=7"), std::string::npos) << line;  // summed in
}

TEST(ServingProtocolTest, CommandsAndFormatting) {
  EXPECT_EQ(ParseRequestLine("stats").kind, ParsedLine::Kind::kStats);
  EXPECT_EQ(ParseRequestLine("reload").kind, ParsedLine::Kind::kReload);
  EXPECT_EQ(ParseRequestLine("shutdown").kind, ParsedLine::Kind::kShutdown);

  ServeResponse ok;
  ok.status = ServeStatus::kOk;
  ok.cluster = {3, 1, 4};
  ok.total_seconds = 0.001;
  ok.queue_seconds = 0.0005;
  EXPECT_EQ(FormatResponse(7, ok),
            "OK id=7 us=1000 queue_us=500 n=3 nodes=3,1,4");

  ServeResponse overload;
  overload.status = ServeStatus::kOverloaded;
  EXPECT_EQ(FormatResponse(9, overload),
            "ERR id=9 code=overloaded msg=overloaded");

  EXPECT_EQ(FormatReloadResponse(2, 5), "OK id=2 reload version=5");

  ServingStats stats;
  stats.active_version = 4;
  stats.retired_live = 1;
  stats.reloads = 3;
  const std::string line = FormatStatsLine(stats, 0.0);
  EXPECT_NE(line.find("version=4"), std::string::npos) << line;
  EXPECT_NE(line.find("retired=1"), std::string::npos) << line;
  EXPECT_NE(line.find("reloads=3"), std::string::npos) << line;
}

}  // namespace
}  // namespace laca
