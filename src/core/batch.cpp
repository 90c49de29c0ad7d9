#include "core/batch.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/thread_pool.hpp"

namespace laca {

std::vector<std::vector<NodeId>> BatchCluster(
    const Graph& graph, const Tnam* tnam, std::span<const BatchQuery> queries,
    const BatchClusterOptions& opts) {
  std::vector<std::vector<NodeId>> results(queries.size());
  if (queries.empty()) return results;

  // More workers than queries would just idle (and waste a Laca
  // construction each).
  const size_t threads =
      opts.num_threads != 0
          ? opts.num_threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t workers = std::min(queries.size(), threads);

  // Dynamic scheduling: every worker keeps one Laca (a warm workspace across
  // all the queries it claims) and pulls the next query off a shared atomic
  // counter, so skewed seed costs rebalance instead of serializing on one
  // worker. The counter is declared before the pool and group so that ANY
  // exit — including an exception unwinding past group's waiting destructor
  // — destroys it only after every worker that can touch it has finished.
  std::atomic<size_t> next{0};
  auto work = [&] {
    Laca laca(graph, tnam);
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < queries.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      results[i] = laca.Cluster(queries[i].seed, queries[i].size, opts.laca);
    }
  };
  if (workers == 1) {
    work();  // no pool: the calling thread answers everything in order
    return results;
  }
  ThreadPool pool(workers);
  TaskGroup group(pool);
  for (size_t w = 0; w < workers; ++w) group.Submit(work);
  group.Wait();  // per-batch: rethrows this batch's first error only
  return results;
}

}  // namespace laca
