#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/error.hpp"

namespace laca {

uint64_t Graph::NextInstanceId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;  // ids start at 1
}

Graph::Graph(std::vector<EdgeIndex> offsets, std::vector<NodeId> adjacency,
             std::vector<double> weights)
    : offsets_(std::move(offsets)),
      adjacency_(std::move(adjacency)),
      weights_(std::move(weights)) {
  LACA_CHECK(!offsets_.empty(), "offsets must contain at least one entry");
  LACA_CHECK(offsets_.front() == 0, "offsets must start at 0");
  LACA_CHECK(offsets_.back() == adjacency_.size(),
             "offsets must end at adjacency size");
  LACA_CHECK(adjacency_.size() % 2 == 0,
             "undirected graph must store each edge twice");
  LACA_CHECK(weights_.empty() || weights_.size() == adjacency_.size(),
             "weights must be empty or parallel to adjacency");
  const size_t n = offsets_.size() - 1;
  // The full offsets array must be validated before ANY adjacency indexing:
  // with front==0 and back==size checked above, monotonicity bounds every
  // middle offset. Fuzz-found: interleaving the two scans let offsets
  // [0, 2, 0] over an empty adjacency read out of bounds at v=0 before the
  // v=1 monotonicity check could reject the payload.
  for (size_t v = 0; v < n; ++v) {
    LACA_CHECK(offsets_[v] <= offsets_[v + 1], "offsets must be non-decreasing");
  }
  for (size_t v = 0; v < n; ++v) {
    for (EdgeIndex e = offsets_[v]; e + 1 < offsets_[v + 1]; ++e) {
      LACA_CHECK(adjacency_[e] < adjacency_[e + 1],
                 "adjacency lists must be sorted and duplicate-free");
    }
  }
  for (NodeId u : adjacency_) {
    LACA_CHECK(u < n, "adjacency entry out of range");
  }
  for (double w : weights_) {
    LACA_CHECK(w > 0.0, "edge weights must be strictly positive");
    LACA_CHECK(std::isfinite(w), "edge weights must be finite");
  }
  // Undirected: every stored (v, u) needs its mirror (u, v) with the same
  // weight. It suffices to match each upper entry (u > v) to a distinct
  // lower entry of u's list, and to find as many upper as lower entries.
  // Visiting v in increasing order feeds each u's list its lower entries in
  // increasing order, so one cursor per node walks them: linear, with no
  // per-edge search, and only the upper half needs the random access.
  std::vector<EdgeIndex> cursor(offsets_.begin(), offsets_.end() - 1);
  size_t upper = 0, lower = 0;
  for (size_t v = 0; v < n; ++v) {
    for (EdgeIndex e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      const NodeId u = adjacency_[e];
      if (u <= v) {
        lower += u < v;  // a self-loop is its own mirror
        continue;
      }
      ++upper;
      const EdgeIndex m = cursor[u]++;
      LACA_CHECK(m < offsets_[u + 1] && adjacency_[m] == v,
                 "adjacency must be symmetric: an edge lacks its mirror");
      LACA_CHECK(weights_.empty() || weights_[m] == weights_[e],
                 "edge weights must be symmetric");
    }
  }
  LACA_CHECK(upper == lower,
             "adjacency must be symmetric: an edge lacks its mirror");

  degree_.resize(n);
  degree_count_.resize(n);
  for (size_t v = 0; v < n; ++v) {
    degree_count_[v] = static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
    if (weights_.empty()) {
      degree_[v] = static_cast<double>(degree_count_[v]);
    } else {
      double d = 0.0;
      for (EdgeIndex e = offsets_[v]; e < offsets_[v + 1]; ++e) d += weights_[e];
      LACA_CHECK(std::isfinite(d), "weighted degree overflows to infinity");
      degree_[v] = d;
    }
    total_volume_ += degree_[v];
  }
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double Graph::EdgeWeight(NodeId u, NodeId v) const {
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return 0.0;
  if (weights_.empty()) return 1.0;
  return weights_[offsets_[u] + (it - nbrs.begin())];
}

double Graph::Volume(std::span<const NodeId> nodes) const {
  double vol = 0.0;
  for (NodeId v : nodes) vol += degree_[v];
  return vol;
}

NodeId Graph::MaxDegree() const {
  NodeId best = 0;
  for (NodeId c : degree_count_) best = std::max(best, c);
  return best;
}

}  // namespace laca
