#include "core/cluster.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"

namespace laca {

namespace {

using Entry = SparseVector::Entry;

// Value descending, NodeId ascending: SortByValueDesc's order. A total order
// on compacted entries (indices are unique), so any selection algorithm
// finds the same top entries in the same order.
bool RanksBefore(const Entry& a, const Entry& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.index < b.index;
}

// True when Compact() would leave `entries` unchanged: strictly ascending
// indices (hence no duplicates) and no exact zeros. Diffusion outputs are
// built this way, so the common case skips compaction's index sort.
bool IsCompact(const std::vector<Entry>& entries) {
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].value == 0.0) return false;
    if (i > 0 && entries[i - 1].index >= entries[i].index) return false;
  }
  return true;
}

}  // namespace

std::vector<NodeId> TopKCluster(const SparseVector& scores, NodeId seed,
                                size_t size) {
  LACA_CHECK(size >= 1, "cluster size must be >= 1");
  std::vector<Entry> ranked;
  if (IsCompact(scores.entries())) {
    ranked = scores.entries();
  } else {
    SparseVector compacted = scores;
    compacted.Compact();
    ranked = std::move(compacted.mutable_entries());
  }
  // Only the `size` best entries can reach the cluster: if the seed is among
  // them it takes one of the slots, otherwise the best size-1 fill them. So
  // select that prefix and sort only it.
  const size_t top = std::min(size, ranked.size());
  std::nth_element(ranked.begin(), ranked.begin() + top, ranked.end(),
                   RanksBefore);
  std::sort(ranked.begin(), ranked.begin() + top, RanksBefore);
  std::vector<NodeId> cluster;
  cluster.reserve(size);
  cluster.push_back(seed);
  for (size_t i = 0; i < top && cluster.size() < size; ++i) {
    if (ranked[i].index != seed) cluster.push_back(ranked[i].index);
  }
  return cluster;
}

std::vector<NodeId> PadWithBfs(const Graph& graph, std::vector<NodeId> cluster,
                               size_t size, NodeId seed) {
  if (cluster.size() >= size) return cluster;
  // `visited` starts as cluster + seed, so every newly visited node is also
  // new to the cluster.
  std::unordered_set<NodeId> visited(cluster.begin(), cluster.end());
  visited.insert(seed);
  // Start the BFS frontier from the existing cluster (seed first).
  std::vector<NodeId> queue;
  queue.reserve(cluster.size() + 1);
  queue.push_back(seed);
  for (NodeId v : cluster) {
    if (v != seed) queue.push_back(v);
  }
  for (size_t head = 0; head < queue.size() && cluster.size() < size;
       ++head) {
    for (NodeId v : graph.Neighbors(queue[head])) {
      if (visited.insert(v).second) {
        queue.push_back(v);
        cluster.push_back(v);
        if (cluster.size() >= size) break;
      }
    }
  }
  return cluster;
}

SweepResult SweepCut(const Graph& graph, const SparseVector& scores,
                     size_t max_size) {
  SparseVector sorted = scores;
  sorted.SortByValueDesc();
  const double total_volume = graph.TotalVolume();

  std::unordered_set<NodeId> in_set;
  double volume = 0.0, cut = 0.0;
  SweepResult best;
  best.conductance = 2.0;  // above any real conductance
  size_t best_prefix = 0;

  size_t limit = sorted.Size();
  if (max_size > 0) limit = std::min(limit, max_size);
  std::vector<NodeId> prefix;
  prefix.reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    NodeId u = sorted.entries()[i].index;
    double internal = 0.0;
    auto nbrs = graph.Neighbors(u);
    auto wts = graph.NeighborWeights(u);
    for (size_t e = 0; e < nbrs.size(); ++e) {
      if (in_set.count(nbrs[e])) {
        internal += graph.is_weighted() ? wts[e] : 1.0;
      }
    }
    in_set.insert(u);
    prefix.push_back(u);
    volume += graph.Degree(u);
    cut += graph.Degree(u) - 2.0 * internal;
    double denom = std::min(volume, total_volume - volume);
    if (denom <= 0.0) break;  // prefix swallowed more than half the graph
    double phi = cut / denom;
    if (phi < best.conductance) {
      best.conductance = phi;
      best_prefix = i + 1;
    }
  }
  best.cluster.assign(prefix.begin(), prefix.begin() + best_prefix);
  if (best_prefix == 0) best.conductance = 1.0;  // nothing sweepable
  return best;
}

}  // namespace laca
