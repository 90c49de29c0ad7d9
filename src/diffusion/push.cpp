#include "diffusion/push.hpp"

#include "common/error.hpp"

namespace laca {
namespace {

// The push loop, specialized on weightedness so the per-edge path carries no
// is_weighted() branch and no repeated Degree(v) division (inv_degree is a
// precomputed multiply). All state lives in the workspace: `r`/`q` dense
// scratch, the queued flags, and a fixed-capacity FIFO ring — the queued flag
// dedupes enqueues, so at most n entries are ever pending and the ring never
// wraps into itself.
template <bool Weighted>
QueuePushResult QueuePushImpl(const Graph& graph, const SparseVector& f,
                              const QueuePushOptions& opts,
                              DiffusionWorkspace* ws) {
  const NodeId n = graph.num_nodes();
  double* const r = ws->r();
  double* const q = ws->q();
  uint8_t* const queued = ws->queued();
  NodeId* const ring = ws->queue_ring();
  const size_t cap = ws->queue_capacity();
  const double* const deg = graph.degrees().data();
  const double* const inv_deg = ws->inv_degree();
  const EdgeIndex* const offsets = graph.offsets().data();
  const NodeId* const adjacency = graph.adjacency().data();
  const double* const weights = Weighted ? graph.weights().data() : nullptr;
  uint32_t* const stamp = ws->stamp();
  const uint32_t call_stamp = ws->call_stamp();
  std::vector<NodeId>& touched = ws->r_support();
  std::vector<NodeId>& converted = ws->q_support();
  const double alpha = opts.alpha;
  const double eps = opts.epsilon;

  size_t head = 0, tail = 0, pending = 0;
  auto add_residual = [&](NodeId v, double value) {
    // Stamp-deduplicated like the DiffusionEngine kernels, so r_support is
    // duplicate-free across every workspace client — the non-greedy round
    // relies on that to drain each support entry exactly once. (The old
    // r==0 && q==0 test was equivalent here but left the invariant
    // per-kernel instead of workspace-wide.)
    if (stamp[v] != call_stamp) {
      stamp[v] = call_stamp;
      touched.push_back(v);
    }
    r[v] += value;
    if (!queued[v] && r[v] >= eps * deg[v]) {
      queued[v] = 1;
      ring[tail] = v;
      tail = tail + 1 == cap ? 0 : tail + 1;
      ++pending;
    }
  };

  // Validate before the first mutation: a mid-seed throw would strand set
  // queued[] flags, breaking the workspace's self-cleaning invariant for
  // every later call.
  for (const auto& e : f.entries()) {
    LACA_CHECK(e.index < n, "input vector index out of range");
    LACA_CHECK(e.value >= 0.0, "input vector must be non-negative");
  }
  for (const auto& e : f.entries()) {
    if (e.value > 0.0) add_residual(e.index, e.value);
  }

  QueuePushResult result;
  while (pending > 0) {
    const NodeId u = ring[head];
    head = head + 1 == cap ? 0 : head + 1;
    --pending;
    queued[u] = 0;
    const double ru = r[u];
    if (ru < eps * deg[u]) continue;  // decayed below threshold meanwhile
    r[u] = 0.0;
    if (q[u] == 0.0) converted.push_back(u);
    q[u] += (1.0 - alpha) * ru;
    ++result.pushes;

    const EdgeIndex begin = offsets[u];
    const EdgeIndex end = offsets[u + 1];
    result.edge_work += end - begin;
    const double spread = alpha * ru * inv_deg[u];
    if constexpr (Weighted) {
      for (EdgeIndex e = begin; e < end; ++e) {
        add_residual(adjacency[e], spread * weights[e]);
      }
    } else {
      for (EdgeIndex e = begin; e < end; ++e) {
        add_residual(adjacency[e], spread);
      }
    }
  }

  result.reserve.mutable_entries().reserve(converted.size());
  result.residual.mutable_entries().reserve(touched.size());
  for (NodeId v : touched) {
    if (q[v] != 0.0) result.reserve.Add(v, q[v]);
    if (r[v] != 0.0) result.residual.Add(v, r[v]);
  }
  result.reserve.SortByIndex();
  result.residual.SortByIndex();
  return result;
}

}  // namespace

QueuePushResult QueuePush(const Graph& graph, const SparseVector& f,
                          const QueuePushOptions& opts,
                          DiffusionWorkspace* workspace) {
  LACA_CHECK(opts.alpha > 0.0 && opts.alpha < 1.0, "alpha must be in (0, 1)");
  LACA_CHECK(opts.epsilon > 0.0, "epsilon must be positive");
  LACA_CHECK(workspace != nullptr, "workspace must not be null");
  workspace->Bind(graph);
  workspace->BeginCall();
  return graph.is_weighted() ? QueuePushImpl<true>(graph, f, opts, workspace)
                             : QueuePushImpl<false>(graph, f, opts, workspace);
}

QueuePushResult QueuePush(const Graph& graph, const SparseVector& f,
                          const QueuePushOptions& opts) {
  DiffusionWorkspace workspace(graph);
  return QueuePush(graph, f, opts, &workspace);
}

}  // namespace laca
