#include "core/batch.hpp"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "attr/tnam.hpp"
#include "eval/datasets.hpp"

namespace laca {
namespace {

class BatchClusterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = &GetDataset("cora-sim");
    TnamOptions topts;
    tnam_ = new Tnam(Tnam::Build(ds_->data.attributes, topts));
  }
  static void TearDownTestSuite() {
    delete tnam_;
    tnam_ = nullptr;
  }

  static std::vector<BatchQuery> MakeQueries(size_t count) {
    std::vector<NodeId> seeds = SampleSeeds(*ds_, count);
    std::vector<BatchQuery> queries;
    for (NodeId seed : seeds) {
      queries.push_back(
          {seed, ds_->data.communities.GroundTruthCluster(seed).size()});
    }
    return queries;
  }

  static const Dataset* ds_;
  static Tnam* tnam_;
};

const Dataset* BatchClusterTest::ds_ = nullptr;
Tnam* BatchClusterTest::tnam_ = nullptr;

TEST_F(BatchClusterTest, MatchesSerialClusterCalls) {
  std::vector<BatchQuery> queries = MakeQueries(12);
  BatchClusterOptions opts;
  opts.num_threads = 4;
  std::vector<std::vector<NodeId>> batch =
      BatchCluster(ds_->data.graph, tnam_, queries, opts);

  Laca serial(ds_->data.graph, tnam_);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i],
              serial.Cluster(queries[i].seed, queries[i].size, opts.laca))
        << "query " << i;
  }
}

TEST_F(BatchClusterTest, ResultsIndependentOfThreadCount) {
  std::vector<BatchQuery> queries = MakeQueries(9);
  BatchClusterOptions one, many;
  one.num_threads = 1;
  many.num_threads = 8;
  EXPECT_EQ(BatchCluster(ds_->data.graph, tnam_, queries, one),
            BatchCluster(ds_->data.graph, tnam_, queries, many));
}

TEST_F(BatchClusterTest, MoreWorkersThanQueries) {
  // Regression: worker counts far above the query count must clamp cleanly
  // and still answer every query exactly once.
  std::vector<BatchQuery> queries = MakeQueries(3);
  BatchClusterOptions serial, oversized;
  serial.num_threads = 1;
  oversized.num_threads = 100;
  std::vector<std::vector<NodeId>> expected =
      BatchCluster(ds_->data.graph, tnam_, queries, serial);
  EXPECT_EQ(BatchCluster(ds_->data.graph, tnam_, queries, oversized),
            expected);
}

TEST_F(BatchClusterTest, WorkerCountFollowsTheBudget) {
  // The batch runs min(queries, num_threads) workers, 0 = hardware
  // concurrency. Budgets below, equal to and above the query count, and the
  // default, must all give the serial answers.
  std::vector<BatchQuery> queries = MakeQueries(11);
  BatchClusterOptions base;
  base.num_threads = 1;
  std::vector<std::vector<NodeId>> expected =
      BatchCluster(ds_->data.graph, tnam_, queries, base);
  for (size_t threads : {0u, 1u, 2u, 5u, 11u, 16u}) {
    BatchClusterOptions opts;
    opts.num_threads = threads;
    EXPECT_EQ(BatchCluster(ds_->data.graph, tnam_, queries, opts), expected)
        << "threads=" << threads;
  }
}

TEST_F(BatchClusterTest, SurplusThreadsChangeNothing) {
  // Fewer queries than threads: one worker per query, the surplus idles.
  // Results must stay bit-identical to the serial single-thread answers.
  std::vector<BatchQuery> queries = MakeQueries(3);
  BatchClusterOptions serial;
  serial.num_threads = 1;
  std::vector<std::vector<NodeId>> expected =
      BatchCluster(ds_->data.graph, tnam_, queries, serial);

  for (size_t total : {8u, 12u}) {
    BatchClusterOptions opts;
    opts.num_threads = total;
    EXPECT_EQ(BatchCluster(ds_->data.graph, tnam_, queries, opts), expected)
        << "total=" << total;
  }
}

TEST_F(BatchClusterTest, SingleQueryWithWideBudget) {
  // The big-graph regime of Fig. 10: one query, many threads. It runs on
  // one serial worker; the answer must match the serial one exactly.
  std::vector<BatchQuery> queries = MakeQueries(1);
  BatchClusterOptions serial, wide;
  serial.num_threads = 1;
  wide.num_threads = 8;
  EXPECT_EQ(BatchCluster(ds_->data.graph, tnam_, queries, wide),
            BatchCluster(ds_->data.graph, tnam_, queries, serial));
}

TEST_F(BatchClusterTest, WithoutSnasMode) {
  std::vector<BatchQuery> queries = MakeQueries(4);
  BatchClusterOptions opts;
  std::vector<std::vector<NodeId>> results =
      BatchCluster(ds_->data.graph, /*tnam=*/nullptr, queries, opts);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_FALSE(results[i].empty());
    EXPECT_EQ(results[i].front(), queries[i].seed);
  }
}

TEST_F(BatchClusterTest, EmptyQueryListIsANoop) {
  BatchClusterOptions opts;
  EXPECT_TRUE(
      BatchCluster(ds_->data.graph, tnam_, {}, opts).empty());
}

TEST_F(BatchClusterTest, InvalidQueryPropagates) {
  std::vector<BatchQuery> queries = {{0, 0}};  // zero size
  BatchClusterOptions opts;
  EXPECT_THROW(BatchCluster(ds_->data.graph, tnam_, queries, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace laca
