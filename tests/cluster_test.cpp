#include "core/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "diffusion/exact.hpp"
#include "eval/metrics.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace laca {
namespace {

/// Two 5-cliques joined by one bridge — the canonical sweep-cut testbed.
Graph Barbell() {
  GraphBuilder b(10);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  }
  for (NodeId u = 5; u < 10; ++u) {
    for (NodeId v = u + 1; v < 10; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(4, 5);  // bridge
  return b.Build();
}

// ---------------------------------------------------------------------------
// TopKCluster.

TEST(TopKClusterTest, SeedComesFirstEvenWithZeroScore) {
  SparseVector scores;
  scores.Add(3, 0.9);
  scores.Add(7, 0.8);
  std::vector<NodeId> cluster = TopKCluster(scores, /*seed=*/1, 2);
  ASSERT_EQ(cluster.size(), 2u);
  EXPECT_EQ(cluster[0], 1u);
  EXPECT_EQ(cluster[1], 3u);
}

TEST(TopKClusterTest, SeedNotDuplicatedWhenScored) {
  SparseVector scores;
  scores.Add(1, 0.9);
  scores.Add(2, 0.5);
  std::vector<NodeId> cluster = TopKCluster(scores, 1, 2);
  EXPECT_EQ(cluster, (std::vector<NodeId>{1, 2}));
}

TEST(TopKClusterTest, TiesBreakByNodeId) {
  SparseVector scores;
  scores.Add(9, 0.5);
  scores.Add(2, 0.5);
  scores.Add(5, 0.5);
  std::vector<NodeId> cluster = TopKCluster(scores, 0, 3);
  EXPECT_EQ(cluster, (std::vector<NodeId>{0, 2, 5}));
}

TEST(TopKClusterTest, ReturnsFewerWhenSupportIsSmall) {
  SparseVector scores;
  scores.Add(4, 1.0);
  std::vector<NodeId> cluster = TopKCluster(scores, 4, 10);
  EXPECT_EQ(cluster, (std::vector<NodeId>{4}));
}

// The implementation TopKCluster replaced (compact, fully sort by value,
// scan): the oracle for the property test below.
std::vector<NodeId> ReferenceTopK(const SparseVector& scores, NodeId seed,
                                  size_t size) {
  SparseVector sorted = scores;
  sorted.SortByValueDesc();
  std::vector<NodeId> cluster;
  cluster.push_back(seed);
  for (const auto& e : sorted.entries()) {
    if (cluster.size() >= size) break;
    if (e.index == seed) continue;
    cluster.push_back(e.index);
  }
  return cluster;
}

TEST(TopKClusterTest, MatchesFullSortOnRandomInputs) {
  // Randomized inputs over a small value alphabet, so ties are common;
  // about half are built compact (the fast path), the rest carry duplicate
  // indices and exact zeros (the compaction path). The counters witness
  // that every case the selection must get right actually occurred.
  const std::vector<double> alphabet = {0.0, -0.5, 0.25, 0.5, 1.0, 2.0};
  std::mt19937 rng(20250325);
  size_t compact_inputs = 0, with_duplicates = 0, with_zeros = 0,
         seed_in_top = 0, seed_outside_top = 0, size_past_support = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const NodeId n = 1 + static_cast<NodeId>(rng() % 40);
    const size_t count = rng() % (2 * n + 1);
    SparseVector scores;
    std::vector<bool> seen(n, false);
    bool dup = false, zero = false;
    for (size_t i = 0; i < count; ++i) {
      const NodeId idx = static_cast<NodeId>(rng() % n);
      const double value = (rng() % 4 == 0)
                               ? std::ldexp(static_cast<double>(rng() % 64), -5)
                               : alphabet[rng() % alphabet.size()];
      dup = dup || seen[idx];
      zero = zero || value == 0.0;
      seen[idx] = true;
      scores.Add(idx, value);
    }
    if (rng() % 2 == 0) {
      scores.Compact();  // strictly index-ascending, no zeros
      dup = zero = false;
      ++compact_inputs;
    }
    with_duplicates += dup;
    with_zeros += zero;
    const NodeId seed = static_cast<NodeId>(rng() % n);
    const size_t size = 1 + rng() % (n + 4);

    SparseVector ranked = scores;
    ranked.SortByValueDesc();
    const auto& top = ranked.entries();
    const size_t prefix = std::min(size, top.size());
    const bool in_top =
        std::any_of(top.begin(), top.begin() + prefix,
                    [seed](const SparseVector::Entry& e) {
                      return e.index == seed;
                    });
    seed_in_top += in_top;
    seed_outside_top += !in_top;
    size_past_support += size > top.size();

    ASSERT_EQ(TopKCluster(scores, seed, size),
              ReferenceTopK(scores, seed, size))
        << "trial " << trial << " n=" << n << " seed=" << seed
        << " size=" << size;
  }
  EXPECT_GT(compact_inputs, 0u);
  EXPECT_GT(with_duplicates, 0u);
  EXPECT_GT(with_zeros, 0u);
  EXPECT_GT(seed_in_top, 0u);
  EXPECT_GT(seed_outside_top, 0u);
  EXPECT_GT(size_past_support, 0u);
}

TEST(TopKClusterTest, ZeroSizeThrows) {
  EXPECT_THROW(TopKCluster(SparseVector(), 0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PadWithBfs.

TEST(PadWithBfsTest, PadsFromSeedOutward) {
  Graph g = Barbell();
  std::vector<NodeId> cluster =
      PadWithBfs(g, {0}, /*size=*/5, /*seed=*/0);
  EXPECT_EQ(cluster.size(), 5u);
  // All of clique A is closer to the seed than anything across the bridge.
  std::sort(cluster.begin(), cluster.end());
  EXPECT_EQ(cluster, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(PadWithBfsTest, AlreadyLargeEnoughIsUntouched) {
  Graph g = Barbell();
  std::vector<NodeId> cluster = {0, 9, 3};
  EXPECT_EQ(PadWithBfs(g, cluster, 3, 0), cluster);
  EXPECT_EQ(PadWithBfs(g, cluster, 2, 0), cluster);
}

TEST(PadWithBfsTest, StopsAtComponentBoundary) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);  // separate component
  Graph g = b.Build();
  std::vector<NodeId> cluster = PadWithBfs(g, {0}, 6, 0);
  // Only nodes reachable from the seed can pad the cluster.
  std::sort(cluster.begin(), cluster.end());
  EXPECT_EQ(cluster, (std::vector<NodeId>{0, 1, 2}));
}

// The implementation PadWithBfs replaced (a deque frontier plus a redundant
// membership set), kept as the oracle for the property test below.
std::vector<NodeId> ReferencePadWithBfs(const Graph& graph,
                                        std::vector<NodeId> cluster,
                                        size_t size, NodeId seed) {
  if (cluster.size() >= size) return cluster;
  std::unordered_set<NodeId> in(cluster.begin(), cluster.end());
  std::deque<NodeId> queue;
  queue.push_back(seed);
  for (NodeId v : cluster) {
    if (v != seed) queue.push_back(v);
  }
  std::unordered_set<NodeId> visited(cluster.begin(), cluster.end());
  visited.insert(seed);
  while (!queue.empty() && cluster.size() < size) {
    NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : graph.Neighbors(u)) {
      if (visited.insert(v).second) {
        queue.push_back(v);
        if (in.insert(v).second) {
          cluster.push_back(v);
          if (cluster.size() >= size) break;
        }
      }
    }
  }
  return cluster;
}

TEST(PadWithBfsTest, MatchesReferenceOnRandomInputs) {
  std::mt19937_64 rng(2024);
  size_t without_seed = 0, beyond_reach = 0, already_full = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // A few random components plus isolated nodes, so the BFS reach from
    // the seed is often smaller than the requested size.
    const NodeId n = 8 + static_cast<NodeId>(rng() % 48);
    const NodeId blocks = 1 + static_cast<NodeId>(rng() % 4);
    GraphBuilder b(n);
    const size_t edges = rng() % (3 * n);
    for (size_t e = 0; e < edges; ++e) {
      const NodeId u = static_cast<NodeId>(rng() % n);
      const NodeId v = static_cast<NodeId>(rng() % n);
      if (u != v && u % blocks == v % blocks) b.AddEdge(u, v);
    }
    Graph g = b.Build();
    const NodeId seed = static_cast<NodeId>(rng() % n);
    std::vector<NodeId> cluster;
    const bool include_seed = rng() % 3 != 0;
    if (include_seed) cluster.push_back(seed);
    const size_t extra = rng() % 6;
    for (size_t i = 0; i < extra; ++i) {
      cluster.push_back(static_cast<NodeId>(rng() % n));  // may repeat
    }
    std::shuffle(cluster.begin(), cluster.end(), rng);
    const size_t size = 1 + rng() % (n + 4);
    if (std::find(cluster.begin(), cluster.end(), seed) == cluster.end()) {
      ++without_seed;
    }
    if (size <= cluster.size()) ++already_full;
    std::vector<NodeId> want = ReferencePadWithBfs(g, cluster, size, seed);
    if (want.size() < size) ++beyond_reach;
    EXPECT_EQ(PadWithBfs(g, cluster, size, seed), want) << "trial " << trial;
  }
  // Every branch the property covers actually occurred.
  EXPECT_GT(without_seed, 0u);
  EXPECT_GT(beyond_reach, 0u);
  EXPECT_GT(already_full, 0u);
}

// ---------------------------------------------------------------------------
// SweepCut.

TEST(SweepCutTest, FindsThePlantedCliqueCut) {
  Graph g = Barbell();
  SparseVector scores =
      SparseVector::FromDense(ExactRwr(g, 0, 0.8), 1e-12);
  // Degree-normalize, as every diffusion method in the library does.
  for (auto& e : scores.mutable_entries()) e.value /= g.Degree(e.index);
  SweepResult result = SweepCut(g, scores);
  std::vector<NodeId> cluster = result.cluster;
  std::sort(cluster.begin(), cluster.end());
  EXPECT_EQ(cluster, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  // Clique volume = 5*4 + 1 bridge endpoint = 21; cut = 1.
  EXPECT_NEAR(result.conductance, 1.0 / 21.0, 1e-12);
}

TEST(SweepCutTest, ConductanceMatchesIndependentMetric) {
  Graph g = GenerateAttributedSbm([] {
               AttributedSbmOptions o;
               o.num_nodes = 300;
               o.num_communities = 4;
               o.avg_degree = 8.0;
               o.attr_dim = 0;
               o.seed = 21;
               return o;
             }()).graph;
  SparseVector scores =
      SparseVector::FromDense(ExactRwr(g, 5, 0.8), 1e-9);
  for (auto& e : scores.mutable_entries()) e.value /= g.Degree(e.index);
  SweepResult result = SweepCut(g, scores, /*max_size=*/100);
  ASSERT_FALSE(result.cluster.empty());
  EXPECT_NEAR(result.conductance, Conductance(g, result.cluster), 1e-9);
}

TEST(SweepCutTest, IsTheMinimumOverAllPrefixes) {
  Graph g = Barbell();
  SparseVector scores;
  // A deliberately bad ordering: alternating cliques.
  const NodeId order[] = {0, 5, 1, 6, 2, 7, 3, 8, 4, 9};
  double v = 1.0;
  for (NodeId u : order) {
    scores.Add(u, v);
    v *= 0.9;
  }
  SweepResult result = SweepCut(g, scores);

  // Recompute every prefix conductance independently.
  double best = 2.0;
  std::vector<NodeId> prefix;
  for (NodeId u : order) {
    prefix.push_back(u);
    if (prefix.size() == 10) break;  // whole graph is not a cut
    best = std::min(best, Conductance(g, prefix));
  }
  EXPECT_NEAR(result.conductance, best, 1e-12);
}

TEST(SweepCutTest, MaxSizeBoundsTheCluster) {
  Graph g = Barbell();
  SparseVector scores =
      SparseVector::FromDense(ExactRwr(g, 0, 0.8), 1e-12);
  SweepResult result = SweepCut(g, scores, /*max_size=*/3);
  EXPECT_LE(result.cluster.size(), 3u);
}

TEST(SweepCutTest, EmptyScoresYieldEmptyCluster) {
  SweepResult result = SweepCut(Barbell(), SparseVector());
  EXPECT_TRUE(result.cluster.empty());
  EXPECT_DOUBLE_EQ(result.conductance, 1.0);
}

TEST(SweepCutTest, WholeComponentPrefixIsSkippedOnConnectedGraph) {
  // On a connected graph the full-node-set prefix has denominator 0 and must
  // not be reported as a conductance-0 cluster.
  Graph g = Barbell();
  SparseVector scores;
  for (NodeId v = 0; v < 10; ++v) scores.Add(v, 1.0 - 0.01 * v);
  SweepResult result = SweepCut(g, scores);
  EXPECT_LT(result.cluster.size(), 10u);
  EXPECT_GT(result.conductance, 0.0);
}

}  // namespace
}  // namespace laca
