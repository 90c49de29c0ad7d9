#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace laca {
namespace {

Graph Triangle() {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  return b.Build();
}

TEST(GraphBuilderTest, BasicConstruction) {
  Graph g = Triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(g.DegreeCount(v), 2u);
    EXPECT_DOUBLE_EQ(g.Degree(v), 2.0);
  }
  EXPECT_DOUBLE_EQ(g.TotalVolume(), 6.0);
}

TEST(GraphBuilderTest, DeduplicatesEdges) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.DegreeCount(0), 1u);
}

TEST(GraphBuilderTest, DropsSelfLoops) {
  GraphBuilder b(2);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, WeightedMergesSumWeights) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 2.0);
  b.AddEdge(1, 0, 3.0);
  Graph g = b.Build(/*weighted=*/true);
  EXPECT_TRUE(g.is_weighted());
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(g.Degree(0), 5.0);
  EXPECT_EQ(g.DegreeCount(0), 1u);
}

TEST(GraphBuilderTest, RejectsNonPositiveWeight) {
  GraphBuilder b(2);
  EXPECT_THROW(b.AddEdge(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(b.AddEdge(0, 1, -1.0), std::invalid_argument);
}

TEST(GraphBuilderTest, ImplicitNodeCreation) {
  GraphBuilder b;
  b.AddEdge(0, 7);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.DegreeCount(3), 0u);
}

TEST(GraphTest, AdjacencySortedAndSearchable) {
  GraphBuilder b(5);
  b.AddEdge(2, 4);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  auto nbrs = g.Neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 3u);
  EXPECT_EQ(nbrs[2], 4u);
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_TRUE(g.HasEdge(3, 2));
  EXPECT_FALSE(g.HasEdge(0, 4));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(2, 4), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 4), 0.0);
}

TEST(GraphTest, VolumeOfSubset) {
  Graph g = Triangle();
  std::vector<NodeId> set = {0, 1};
  EXPECT_DOUBLE_EQ(g.Volume(set), 4.0);
}

TEST(GraphTest, MaxDegree) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  Graph g = b.Build();
  EXPECT_EQ(g.MaxDegree(), 3u);
}

TEST(GraphTest, RawCsrValidation) {
  // offsets must start at 0.
  EXPECT_THROW(Graph({1, 2}, {0, 0}, {}), std::invalid_argument);
  // offsets must end at adjacency size.
  EXPECT_THROW(Graph({0, 1}, {0, 1}, {}), std::invalid_argument);
  // adjacency out of range.
  EXPECT_THROW(Graph({0, 1, 2}, {5, 0}, {}), std::invalid_argument);
  // unsorted adjacency list.
  EXPECT_THROW(Graph({0, 2, 3, 4}, {2, 1, 0, 0}, {}), std::invalid_argument);
  // negative weight.
  EXPECT_THROW(Graph({0, 1, 2}, {1, 0}, {-1.0, -1.0}), std::invalid_argument);
}

// Asserts that constructing the CSR throws invalid_argument naming `fault`.
void ExpectRejected(std::vector<EdgeIndex> offsets,
                    std::vector<NodeId> adjacency, std::vector<double> weights,
                    const std::string& fault) {
  try {
    Graph g(std::move(offsets), std::move(adjacency), std::move(weights));
    ADD_FAILURE() << "accepted a CSR with fault: " << fault;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(fault), std::string::npos)
        << e.what();
  }
}

TEST(GraphTest, RawCsrMustBeSymmetric) {
  // Node 0 lists 1 and 2, but neither lists 0 back: this used to build with
  // deg(1) = deg(2) = 0.
  ExpectRejected({0, 2, 2, 2}, {1, 2}, {}, "symmetric");
  // Every node has one entry, but the edges point one way round a 4-cycle.
  ExpectRejected({0, 1, 2, 3, 4}, {1, 2, 3, 0}, {}, "symmetric");
  // Nodes 1 and 2 list 0, but 0 lists nothing.
  ExpectRejected({0, 0, 1, 2}, {0, 0}, {}, "symmetric");
  // Mirrors exist, but their weights differ.
  ExpectRejected({0, 1, 2}, {1, 0}, {1.0, 2.0}, "weights must be symmetric");
  // A valid raw CSR (path 0-1-2, weighted) still builds.
  Graph g({0, 1, 3, 4}, {1, 0, 2, 1}, {0.5, 0.5, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(g.Degree(1), 2.5);
}

TEST(GraphTest, RawCsrWeightsMustBeFinite) {
  const double inf = std::numeric_limits<double>::infinity();
  ExpectRejected({0, 1, 2}, {1, 0}, {inf, inf}, "finite");
  ExpectRejected({0, 1, 2}, {1, 0},
                 {std::numeric_limits<double>::quiet_NaN(), 1.0},
                 "strictly positive");
  // Finite weights whose sum overflows would give deg = inf all the same.
  const double big = std::numeric_limits<double>::max();
  ExpectRejected({0, 2, 3, 4}, {1, 2, 0, 0}, {big, big, big, big},
                 "infinity");
}

TEST(GraphTest, Fig4ExampleDegrees) {
  Graph g = Fig4ExampleGraph();
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.DegreeCount(0), 4u);  // v1
  EXPECT_EQ(g.DegreeCount(1), 3u);  // v2
  EXPECT_EQ(g.DegreeCount(2), 2u);  // v3
  EXPECT_EQ(g.DegreeCount(3), 2u);  // v4
  EXPECT_EQ(g.DegreeCount(4), 5u);  // v5
}

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "laca_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& f) { return (dir_ / f).string(); }
  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  Graph g = Triangle();
  SaveEdgeList(g, Path("g.txt"));
  Graph loaded = LoadEdgeList(Path("g.txt"));
  EXPECT_EQ(loaded.num_nodes(), 3u);
  EXPECT_EQ(loaded.num_edges(), 3u);
  EXPECT_TRUE(loaded.HasEdge(0, 2));
}

TEST_F(GraphIoTest, WeightedEdgeListRoundTrip) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(1, 2, 2.5);
  Graph g = b.Build(true);
  SaveEdgeList(g, Path("w.txt"));
  Graph loaded = LoadEdgeList(Path("w.txt"), 0, /*weighted=*/true);
  EXPECT_DOUBLE_EQ(loaded.EdgeWeight(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(loaded.EdgeWeight(1, 2), 2.5);
}

TEST_F(GraphIoTest, MissingFileThrows) {
  EXPECT_THROW(LoadEdgeList(Path("nope.txt")), std::invalid_argument);
}

TEST_F(GraphIoTest, MalformedEdgeThrows) {
  FILE* f = fopen(Path("bad.txt").c_str(), "w");
  fputs("0 banana\n", f);
  fclose(f);
  EXPECT_THROW(LoadEdgeList(Path("bad.txt")), std::invalid_argument);
}

TEST_F(GraphIoTest, AttributesRoundTrip) {
  AttributeMatrix attrs(3, 4);
  attrs.SetRow(0, {{1, 2.0}, {3, 1.0}});
  attrs.SetRow(2, {{0, 1.0}});
  attrs.Normalize();
  SaveAttributes(attrs, Path("a.txt"));
  AttributeMatrix loaded = LoadAttributes(Path("a.txt"));
  EXPECT_EQ(loaded.num_rows(), 3u);
  EXPECT_EQ(loaded.num_cols(), 4u);
  EXPECT_NEAR(loaded.Dot(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(loaded.Dot(0, 2), 0.0, 1e-9);
  EXPECT_EQ(loaded.Row(1).size(), 0u);
}

// The untrusted-input regressions: LoadAttributes used raw std::stoul/stod
// on col:val tokens, so negative columns wrapped silently to huge indices,
// trailing garbage was accepted, and missing values threw context-free
// exceptions. Every rejection must now carry the file:line (and token)
// context, and the wrap/garbage cases must be rejected at all.
class AttributeParsingTest : public GraphIoTest {
 protected:
  std::string WriteAttrs(const std::string& body) {
    const std::string path = Path("attrs.txt");
    FILE* f = fopen(path.c_str(), "w");
    fputs(body.c_str(), f);
    fclose(f);
    return path;
  }

  // Asserts LoadAttributes throws std::invalid_argument whose message names
  // the file and line — the pre-PR std::stoul/std::stod path either threw
  // context-free messages, threw std::out_of_range, or accepted the input.
  void ExpectRejectedWithContext(const std::string& body,
                                 const std::string& token) {
    const std::string path = WriteAttrs(body);
    try {
      LoadAttributes(path);
      FAIL() << "accepted: " << body;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path + ":"), std::string::npos)
          << "no file:line context in: " << msg;
      EXPECT_NE(msg.find(token), std::string::npos)
          << "offending token '" << token << "' missing from: " << msg;
    } catch (const std::exception& e) {
      FAIL() << "wrong exception type (" << e.what() << ") for: " << body;
    }
  }
};

TEST_F(AttributeParsingTest, NegativeColumnRejectedWithContext) {
  ExpectRejectedWithContext("3 4\n0 -1:0.5\n", "-1:0.5");
}

TEST_F(AttributeParsingTest, MissingValueRejectedWithContext) {
  ExpectRejectedWithContext("3 4\n0 3:\n", "3:");
}

TEST_F(AttributeParsingTest, TrailingGarbageRejected) {
  // Pre-PR stod("1.0x") parsed 1.0 and silently dropped the garbage.
  ExpectRejectedWithContext("3 4\n0 3:1.0x\n", "3:1.0x");
}

TEST_F(AttributeParsingTest, ColumnBeyondHeaderRejectedWithContext) {
  ExpectRejectedWithContext("3 4\n0 9:1.0\n", "9:1.0");
}

TEST_F(AttributeParsingTest, HugeColumnDoesNotEscapeAsOutOfRange) {
  // Pre-PR std::stoul threw std::out_of_range here, bypassing every
  // invalid_argument handler in the loaders' callers.
  ExpectRejectedWithContext("3 4\n0 99999999999999999999:1.0\n",
                            "99999999999999999999:1.0");
}

TEST_F(AttributeParsingTest, NegativeHeaderCannotWrapIntoHugeAllocation) {
  ExpectRejectedWithContext("-3 4\n", "-3");
}

TEST_F(AttributeParsingTest, NegativeNodeIdRejectedWithContext) {
  ExpectRejectedWithContext("3 4\n-2 1:0.5\n", "-2");
}

TEST_F(AttributeParsingTest, NonFiniteValueRejected) {
  ExpectRejectedWithContext("3 4\n0 1:nan\n", "1:nan");
}

TEST_F(AttributeParsingTest, StrictParserStillAcceptsValidInput) {
  const std::string path =
      WriteAttrs("3 4\n# comment\n0 1:-0.5 2:1e-3\n2 0:2.5\n");
  AttributeMatrix attrs = LoadAttributes(path);
  EXPECT_EQ(attrs.num_rows(), 3u);
  EXPECT_EQ(attrs.num_cols(), 4u);
  EXPECT_EQ(attrs.Row(0).size(), 2u);
  EXPECT_EQ(attrs.Row(2).size(), 1u);
}

TEST_F(GraphIoTest, EdgeListNegativeEndpointRejected) {
  // Pre-PR istream extraction wrapped "-1" to 2^64-1 and the cast truncated
  // it into a bogus node id that silently grew the graph.
  FILE* f = fopen(Path("neg.txt").c_str(), "w");
  fputs("0 1\n-1 2\n", f);
  fclose(f);
  EXPECT_THROW(LoadEdgeList(Path("neg.txt")), std::invalid_argument);
}

TEST_F(GraphIoTest, EdgeListTrailingGarbageEndpointRejected) {
  FILE* f = fopen(Path("junk.txt").c_str(), "w");
  fputs("0 1\n2 3x\n", f);
  fclose(f);
  EXPECT_THROW(LoadEdgeList(Path("junk.txt")), std::invalid_argument);
}

TEST_F(GraphIoTest, CommunitiesRoundTrip) {
  Communities comms;
  comms.members = {{0, 1, 2}, {2, 3}};
  comms.node_comms = {{0}, {0}, {0, 1}, {1}};
  SaveCommunities(comms, Path("c.txt"));
  Communities loaded = LoadCommunities(Path("c.txt"), 4);
  ASSERT_EQ(loaded.members.size(), 2u);
  EXPECT_EQ(loaded.members[0].size(), 3u);
  EXPECT_EQ(loaded.node_comms[2].size(), 2u);
  std::vector<NodeId> y2 = loaded.GroundTruthCluster(2);
  EXPECT_EQ(y2.size(), 4u);  // union of both communities
}

}  // namespace
}  // namespace laca
