// Serving-layer tests for the result cache + single-flight coalescing
// (DESIGN.md §13): coalescing witnesses, bit-identity of hits across fleet
// sizes and cache modes, reload/version purity, retired-snapshot drain with
// cached entries resident, and the follower-deadline / leader-shed
// promotion accounting. Runs under the same ASan/TSan nets as serving_test.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "attr/tnam.hpp"
#include "data/dataset_snapshot.hpp"
#include "eval/datasets.hpp"
#include "server/protocol.hpp"
#include "server/serving_engine.hpp"
#include "ready_probe.hpp"

namespace laca {
namespace {

// A manually-released gate for parking engine workers inside worker_hook
// (same scaffolding as serving_test.cpp).
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

class ServingCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = &GetDataset("cora-sim");
    snap_ = MakeSnapshot(/*version=*/1, /*k=*/32);
  }
  static void TearDownTestSuite() { snap_.reset(); }

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

  static ServingOptions WithWorkers(size_t workers, CacheMode mode) {
    ServingOptions opts;
    opts.num_workers = workers;
    opts.cache.mode = mode;
    return opts;
  }

  /// Serial oracle: Laca::Cluster on `snapshot`'s default TNAM.
  static std::vector<NodeId> SerialExpected(const DatasetSnapshot& snapshot,
                                            const ServeRequest& req) {
    Laca serial(snapshot.graph(), snapshot.tnams().empty()
                                      ? nullptr
                                      : &snapshot.tnams()[0].tnam);
    LacaOptions defaults;
    return serial.Cluster(req.seed, req.size, defaults);
  }

  static const Dataset* ds_;
  static std::shared_ptr<const DatasetSnapshot> snap_;
};

const Dataset* ServingCacheTest::ds_ = nullptr;
std::shared_ptr<const DatasetSnapshot> ServingCacheTest::snap_;

// The acceptance witness: N concurrent identical requests, exactly ONE
// computation. The worker parks on its first claim, so every later submit
// finds the leader's flight and attaches; the compute counter (worker_hook
// fires once per CLAIMED job) proves nothing else reached a worker.
TEST_F(ServingCacheTest, SingleFlightRunsOneComputationForNIdenticalRequests) {
  constexpr size_t kClients = 8;
  Gate gate;
  std::atomic<size_t> claims{0};
  ServingOptions opts = WithWorkers(1, CacheMode::kFull);
  opts.worker_hook = [&] {
    claims.fetch_add(1);
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  ServeRequest req = MakeRequests(1)[0];
  std::vector<std::future<ServeResponse>> futures;
  Admission leader = engine.Submit(req);
  ASSERT_TRUE(leader.ok()) << leader.error;
  futures.push_back(std::move(leader.response));
  gate.AwaitArrivals(1);  // the leader is claimed and parked mid-flight
  for (size_t i = 1; i < kClients; ++i) {
    Admission a = engine.Submit(req);
    ASSERT_TRUE(a.ok()) << a.error;
    futures.push_back(std::move(a.response));
  }
  gate.Open();

  const std::vector<NodeId> expected = SerialExpected(*snap_, req);
  for (auto& f : futures) {
    ServeResponse resp = f.get();
    ASSERT_EQ(resp.status, ServeStatus::kOk) << resp.error;
    EXPECT_EQ(resp.cluster, expected);
  }
  EXPECT_EQ(claims.load(), 1u);
  const ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.coalesced, kClients - 1);
  EXPECT_EQ(stats.admitted, kClients);
  EXPECT_EQ(stats.completed, kClients);
}

// Warm hits replay the cold answer bit for bit, at every fleet size and in
// both cache modes; two-tier additionally reuses the Step-1 vector for a
// size-varied request and must still match the serial oracle exactly.
TEST_F(ServingCacheTest, HitsAreBitIdenticalAcrossWorkersAndModes) {
  std::vector<ServeRequest> requests = MakeRequests(6);
  for (CacheMode mode : {CacheMode::kFull, CacheMode::kTwoTier}) {
    for (size_t workers : {1u, 2u, 4u, 8u}) {
      ServingEngine engine(snap_, WithWorkers(workers, mode));
      auto serve = [&](const ServeRequest& req) {
        Admission a = engine.Submit(req);
        EXPECT_TRUE(a.ok()) << a.error;
        ServeResponse resp = a.response.get();
        EXPECT_EQ(resp.status, ServeStatus::kOk) << resp.error;
        return resp.cluster;
      };
      std::vector<std::vector<NodeId>> cold;
      for (const ServeRequest& req : requests) cold.push_back(serve(req));
      for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(serve(requests[i]), cold[i]) << "warm hit diverged";
        EXPECT_EQ(cold[i], SerialExpected(*snap_, requests[i]));
      }
      ServingStats stats = engine.Stats();
      EXPECT_GE(stats.cache_hits, requests.size());
      EXPECT_EQ(stats.admitted, stats.completed);
      if (mode == CacheMode::kTwoTier) {
        // Same seed, different size: full tier misses, diffusion tier hits,
        // and the sweep-only recompute is still bit-identical to cold.
        ServeRequest varied = requests[0];
        varied.size += 3;
        EXPECT_EQ(serve(varied), SerialExpected(*snap_, varied));
        stats = engine.Stats();
        EXPECT_GE(stats.cache_pi_hits, 1u);
      }
    }
  }
}

// A reload landing in the middle of a coalesced group must not mix
// versions: the parked group resolves on the snapshot it was admitted
// under, requests admitted after the swap form a NEW flight on the new
// version, and each side matches its own version's serial oracle.
TEST_F(ServingCacheTest, ReloadMidCoalescedGroupKeepsVersionsPure) {
  Gate gate;
  ServingOptions opts = WithWorkers(1, CacheMode::kFull);
  opts.worker_hook = [&] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);
  std::shared_ptr<const DatasetSnapshot> v2 = MakeSnapshot(/*version=*/2,
                                                           /*k=*/16);

  ServeRequest req = MakeRequests(1)[0];
  std::vector<std::future<ServeResponse>> v1_futures;
  Admission leader = engine.Submit(req);
  ASSERT_TRUE(leader.ok()) << leader.error;
  v1_futures.push_back(std::move(leader.response));
  gate.AwaitArrivals(1);  // leader parked mid-compute on v1
  for (int i = 0; i < 2; ++i) {
    Admission a = engine.Submit(req);
    ASSERT_TRUE(a.ok()) << a.error;
    v1_futures.push_back(std::move(a.response));
  }

  engine.Reload(v2);
  // Admitted AFTER the swap: pins v2, so its key (version 2) opens a new
  // flight instead of joining the parked v1 group.
  Admission post = engine.Submit(req);
  ASSERT_TRUE(post.ok()) << post.error;
  gate.Open();

  const std::vector<NodeId> expect_v1 = SerialExpected(*snap_, req);
  const std::vector<NodeId> expect_v2 = SerialExpected(*v2, req);
  for (auto& f : v1_futures) {
    ServeResponse resp = f.get();
    ASSERT_EQ(resp.status, ServeStatus::kOk) << resp.error;
    EXPECT_EQ(resp.cluster, expect_v1);
  }
  ServeResponse post_resp = post.response.get();
  ASSERT_EQ(post_resp.status, ServeStatus::kOk) << post_resp.error;
  EXPECT_EQ(post_resp.cluster, expect_v2);
  const ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.admitted, stats.completed);
  EXPECT_EQ(stats.coalesced, 2u);
}

// Cache entries hold plain value vectors, never snapshot references: a
// retired version must drain after its last in-flight reader even though
// results computed from it are still cached (and still servable).
TEST_F(ServingCacheTest, RetiredSnapshotDrainsWithitsResultsStillCached) {
  std::shared_ptr<const DatasetSnapshot> v1 = MakeSnapshot(/*version=*/1,
                                                           /*k=*/32);
  std::weak_ptr<const DatasetSnapshot> watch = v1;
  ServingEngine engine(v1, WithWorkers(2, CacheMode::kTwoTier));
  v1.reset();  // the engine (store + workers) holds the only references

  std::vector<ServeRequest> requests = MakeRequests(4);
  for (const ServeRequest& req : requests) {
    Admission a = engine.Submit(req);
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_EQ(a.response.get().status, ServeStatus::kOk);
  }
  ASSERT_GT(engine.Stats().cache_entries, 0u);

  engine.Reload(MakeSnapshot(/*version=*/2, /*k=*/32));
  // One request on the new version forces at least one worker rebind; idle
  // workers rebind on the reload wake. The retired v1 must then expire.
  Admission a = engine.Submit(requests[0]);
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_EQ(a.response.get().status, ServeStatus::kOk);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!watch.expired() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(watch.expired())
      << "retired snapshot still alive: a cache entry or flight pins it";
  EXPECT_EQ(engine.Stats().retired_live, 0u);
}

// A shed leader promotes its oldest live waiter into a new leader instead
// of failing the group; expired waiters resolve with their own deadline
// verdict. Either way admitted == completed — no request is ever lost.
TEST_F(ServingCacheTest, LeaderShedPromotesLiveWaiterAndKeepsAccounting) {
  Gate gate;
  ServingOptions opts = WithWorkers(1, CacheMode::kFull);
  opts.worker_hook = [&] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  // A filler (distinct seed) parks the only worker so the group behind it
  // ages in the queue.
  std::vector<ServeRequest> reqs = MakeRequests(2);
  Admission filler = engine.Submit(reqs[0]);
  ASSERT_TRUE(filler.ok()) << filler.error;
  gate.AwaitArrivals(1);

  ServeRequest hot = reqs[1];
  hot.timeout_ms = 40.0;  // the leader's budget will expire while parked
  Admission leader = engine.Submit(hot);
  ASSERT_TRUE(leader.ok()) << leader.error;
  ServeRequest patient = hot;
  patient.timeout_ms = 0.0;  // follower explicitly opts out of any deadline
  Admission follower = engine.Submit(patient);
  ASSERT_TRUE(follower.ok()) << follower.error;

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  gate.Open();

  ASSERT_EQ(filler.response.get().status, ServeStatus::kOk);
  ServeResponse led = leader.response.get();
  EXPECT_EQ(led.status, ServeStatus::kDeadlineExceeded) << led.error;
  ServeResponse promoted = follower.response.get();
  ASSERT_EQ(promoted.status, ServeStatus::kOk) << promoted.error;
  EXPECT_EQ(promoted.cluster, SerialExpected(*snap_, patient));
  const ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.shed_in_queue, 1u);
}

// When every waiter's budget expired with the leader's, the whole group
// resolves kDeadlineExceeded and the flight is erased — nothing is
// promoted, nothing computes, nothing is stranded.
TEST_F(ServingCacheTest, FullyExpiredGroupResolvesWithoutComputing) {
  Gate gate;
  std::atomic<size_t> claims{0};
  ServingOptions opts = WithWorkers(1, CacheMode::kFull);
  opts.worker_hook = [&] {
    claims.fetch_add(1);
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  std::vector<ServeRequest> reqs = MakeRequests(2);
  Admission filler = engine.Submit(reqs[0]);
  ASSERT_TRUE(filler.ok()) << filler.error;
  gate.AwaitArrivals(1);

  ServeRequest hot = reqs[1];
  hot.timeout_ms = 30.0;
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    Admission a = engine.Submit(hot);
    ASSERT_TRUE(a.ok()) << a.error;
    futures.push_back(std::move(a.response));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  gate.Open();

  ASSERT_EQ(filler.response.get().status, ServeStatus::kOk);
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, ServeStatus::kDeadlineExceeded);
  }
  // Only the filler ever reached a worker: the expired leader shed before
  // the hook, and the group resolved with it.
  EXPECT_EQ(claims.load(), 1u);
  const ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.shed_in_queue, 3u);
}

// Submit's on-ready callback on the cache and single-flight paths: a hit
// resolved at admission, a follower released by its leader, a follower
// promoted after its leader was shed, and followers still parked when
// Shutdown() begins. Each fires exactly once, after its future is ready.
TEST_F(ServingCacheTest, OnReadyFiresOnceOnEveryCacheResolutionPath) {
  ReadyProbe cold, hit, leader, follower, doomed_leader, promoted,
      drained_leader, drained_follower;
  Gate gate;
  std::atomic<bool> park{false};
  ServingOptions opts = WithWorkers(1, CacheMode::kFull);
  opts.worker_hook = [&] {
    if (!park.load()) return;
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);
  std::vector<ServeRequest> reqs = MakeRequests(3);

  ASSERT_EQ(cold.Submit(engine, reqs[0]), ServeStatus::kOk);
  EXPECT_EQ(cold.Get().status, ServeStatus::kOk);
  ASSERT_EQ(hit.Submit(engine, reqs[0]), ServeStatus::kOk);  // at admission
  EXPECT_EQ(hit.Get().status, ServeStatus::kOk);
  EXPECT_EQ(engine.Stats().cache_hits, 1u);

  // Released follower: the leader parks, the follower attaches, the leader
  // completes and releases it.
  park.store(true);
  ASSERT_EQ(leader.Submit(engine, reqs[1]), ServeStatus::kOk);
  gate.AwaitArrivals(1);
  ASSERT_EQ(follower.Submit(engine, reqs[1]), ServeStatus::kOk);
  // Promoted follower: a 20 ms-budget leader expires in the queue behind
  // the parked worker; its deadline-free follower is promoted.
  ServeRequest hot = reqs[2];
  hot.timeout_ms = 20.0;
  ASSERT_EQ(doomed_leader.Submit(engine, hot), ServeStatus::kOk);
  hot.timeout_ms = 0.0;
  ASSERT_EQ(promoted.Submit(engine, hot), ServeStatus::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  park.store(false);
  gate.Open();
  EXPECT_EQ(leader.Get().status, ServeStatus::kOk);
  EXPECT_EQ(follower.Get().status, ServeStatus::kOk);
  EXPECT_EQ(doomed_leader.Get().status, ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(promoted.Get().status, ServeStatus::kOk);

  // Shutdown with a group in flight: the drain resolves the leader and its
  // follower. (Shutdown's sweep for waiters stranded without a leader is
  // unreachable while the fleet drains every leader; it resolves through
  // the same Completion::Resolve.)
  Gate drain_gate;
  ServingOptions drain_opts = WithWorkers(1, CacheMode::kFull);
  drain_opts.worker_hook = [&drain_gate] {
    drain_gate.Arrive();
    drain_gate.WaitUntilOpen();
  };
  ServingEngine parked_engine(snap_, drain_opts);
  ASSERT_EQ(drained_leader.Submit(parked_engine, reqs[1]), ServeStatus::kOk);
  drain_gate.AwaitArrivals(1);
  ASSERT_EQ(drained_follower.Submit(parked_engine, reqs[1]), ServeStatus::kOk);
  std::thread shutdown([&parked_engine] { parked_engine.Shutdown(); });
  drain_gate.Open();
  shutdown.join();
  EXPECT_EQ(drained_leader.Get().status, ServeStatus::kOk);
  EXPECT_EQ(drained_follower.Get().status, ServeStatus::kOk);

  engine.Shutdown();
  const ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.coalesced, 2u);
  EXPECT_EQ(stats.shed_in_queue, 1u);
  EXPECT_EQ(stats.completed, stats.admitted);
  ExpectResolvedOnce(cold, "worker completion");
  ExpectResolvedOnce(hit, "cache hit at admission");
  ExpectResolvedOnce(leader, "leader completion");
  ExpectResolvedOnce(follower, "follower released by its leader");
  ExpectResolvedOnce(doomed_leader, "leader shed at claim");
  ExpectResolvedOnce(promoted, "follower promoted after a leader shed");
  ExpectResolvedOnce(drained_leader, "leader drained by Shutdown");
  ExpectResolvedOnce(drained_follower, "follower drained by Shutdown");
}

// The counters surface end to end: engine stats, STATS line, HEALTH line.
TEST_F(ServingCacheTest, CacheCountersFlowThroughStatsAndProtocolLines) {
  ServingEngine engine(snap_, WithWorkers(2, CacheMode::kTwoTier));
  ServeRequest req = MakeRequests(1)[0];
  for (int round = 0; round < 2; ++round) {
    Admission a = engine.Submit(req);
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_EQ(a.response.get().status, ServeStatus::kOk);
  }
  const ServingStats stats = engine.Stats();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_misses, 1u);
  EXPECT_GT(stats.cache_bytes, 0u);
  EXPECT_GT(stats.cache_entries, 0u);

  const std::string stats_line = FormatStatsLine(stats, /*qps=*/0.0);
  EXPECT_NE(stats_line.find(" coalesced="), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find(" cache_hits="), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find(" cache_misses="), std::string::npos);
  EXPECT_NE(stats_line.find(" cache_pi_hits="), std::string::npos);
  EXPECT_NE(stats_line.find(" cache_evictions="), std::string::npos);
  EXPECT_NE(stats_line.find(" cache_bytes="), std::string::npos);
  const std::string health_line = FormatHealthLine(stats);
  EXPECT_NE(health_line.find(" cache_hits="), std::string::npos)
      << health_line;
  EXPECT_NE(health_line.find(" coalesced="), std::string::npos);
}

// With the cache off the engine behaves exactly as before: no coalescing,
// no counters, every request computes.
TEST_F(ServingCacheTest, OffModeComputesEveryRequest) {
  ServingEngine engine(snap_, WithWorkers(2, CacheMode::kOff));
  ServeRequest req = MakeRequests(1)[0];
  const std::vector<NodeId> expected = SerialExpected(*snap_, req);
  for (int round = 0; round < 3; ++round) {
    Admission a = engine.Submit(req);
    ASSERT_TRUE(a.ok()) << a.error;
    ServeResponse resp = a.response.get();
    ASSERT_EQ(resp.status, ServeStatus::kOk) << resp.error;
    EXPECT_EQ(resp.cluster, expected);
  }
  const ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
}

}  // namespace
}  // namespace laca
