// Batch local clustering: many seeds over a shared graph + TNAM.
//
// The paper's evaluation protocol answers 500 seed queries per dataset; each
// query is an independent local computation, so a deployment fans them out
// over threads. The graph and TNAM are shared read-only; every worker owns a
// private Laca instance (the diffusion scratch is per-worker), so results are
// bit-identical to the serial loop regardless of thread count.
#ifndef LACA_CORE_BATCH_HPP_
#define LACA_CORE_BATCH_HPP_

#include <cstddef>
#include <span>
#include <vector>

#include "core/laca.hpp"

namespace laca {

/// One local-clustering request.
struct BatchQuery {
  NodeId seed = 0;
  /// Requested cluster size |C_s| (the paper sets it to |Y_s|).
  size_t size = 1;
};

/// Options for BatchCluster.
struct BatchClusterOptions {
  LacaOptions laca;
  /// Thread budget; 0 uses the hardware concurrency. The batch runs
  /// min(queries, budget) workers, each answering queries serially on one
  /// warm Laca; results are bit-identical for every budget.
  size_t num_threads = 0;
};

/// Answers every query with Laca::Cluster. Results are returned in query
/// order and are independent of `num_threads`. Throws std::invalid_argument
/// on invalid queries (bad seed / zero size), like the serial API.
std::vector<std::vector<NodeId>> BatchCluster(const Graph& graph,
                                              const Tnam* tnam,
                                              std::span<const BatchQuery> queries,
                                              const BatchClusterOptions& opts);

}  // namespace laca

#endif  // LACA_CORE_BATCH_HPP_
