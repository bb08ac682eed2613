#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/io.h"
#include "src/graph/params.h"
#include "src/graph/subgraph.h"

namespace unilocal {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.valid());
}

TEST(Graph, BuilderDeduplicatesAndDropsSelfLoops) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(2, 2);
  b.add_edge(1, 2);
  Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_TRUE(g.valid());
}

TEST(Graph, FromEdgesZeroNodesIgnoresEverything) {
  const Graph g = Graph::from_edges(0, {{0, 1}, {2, 2}, {-1, 0}});
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.edges().empty());
  EXPECT_TRUE(g.valid());
}

TEST(Graph, FromEdgesKeepsIsolatedNodes) {
  const Graph g = Graph::from_edges(6, {{0, 1}});
  EXPECT_EQ(g.num_nodes(), 6);
  EXPECT_EQ(g.num_edges(), 1);
  for (NodeId v = 2; v < 6; ++v) EXPECT_EQ(g.degree(v), 0);
  EXPECT_TRUE(g.valid());
}

TEST(Graph, FromEdgesNormalizesDuplicatesConsistently) {
  // Duplicates in both orientations, self-loops, and out-of-range endpoints
  // must all collapse without desynchronizing num_edges() from edges().
  const Graph g = Graph::from_edges(
      4, {{0, 1}, {1, 0}, {0, 1}, {3, 3}, {2, 3}, {3, 2}, {1, 7}, {-2, 1}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edges().size(), static_cast<std::size_t>(g.num_edges()));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_TRUE(g.valid());
}

TEST(Graph, BuilderBuildTwiceIsConsistent) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph first = b.build();
  b.add_edge(1, 2);
  b.add_edge(0, 1);  // duplicate of an already-built edge
  const Graph second = b.build();
  EXPECT_EQ(first.num_edges(), 1);
  EXPECT_EQ(second.num_edges(), 2);
  EXPECT_EQ(second.edges().size(), 2u);
  EXPECT_TRUE(second.valid());
}

TEST(Csr, MatchesGraphAndReversePortsRoundTrip) {
  Rng rng(21);
  const Graph g = gnp(80, 0.08, rng);
  const CsrGraph csr(g);
  ASSERT_EQ(csr.num_nodes(), g.num_nodes());
  ASSERT_EQ(csr.num_directed_edges(), 2 * g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(csr.degree(v), g.degree(v));
    const auto& nbrs = g.neighbors(v);
    for (NodeId j = 0; j < csr.degree(v); ++j) {
      EXPECT_EQ(csr.neighbor(v, j), nbrs[static_cast<std::size_t>(j)]);
      // reverse_port(v, j) is v's port at the far end of the edge.
      const NodeId u = csr.neighbor(v, j);
      const NodeId back = csr.reverse_port(v, j);
      EXPECT_EQ(csr.neighbor(u, back), v);
      // in_edge_index names u's slot towards v.
      EXPECT_EQ(csr.in_edge_index(v, j), csr.edge_index(u, back));
    }
  }
}

TEST(Csr, EmptyAndIsolated) {
  const CsrGraph empty{Graph(0)};
  EXPECT_EQ(empty.num_nodes(), 0);
  EXPECT_EQ(empty.num_directed_edges(), 0);
  const CsrGraph isolated{Graph(5)};
  EXPECT_EQ(isolated.num_nodes(), 5);
  EXPECT_EQ(isolated.num_directed_edges(), 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(isolated.degree(v), 0);
}

TEST(Graph, EdgesSortedAndSymmetric) {
  Rng rng(1);
  Graph g = gnp(60, 0.1, rng);
  EXPECT_TRUE(g.valid());
  for (const auto& [u, v] : g.edges()) {
    EXPECT_LT(u, v);
    EXPECT_TRUE(g.has_edge(v, u));
  }
}

TEST(Generators, PathProperties) {
  Graph g = path_graph(10);
  EXPECT_EQ(g.num_edges(), 9);
  EXPECT_EQ(max_degree(g), 2);
  EXPECT_TRUE(is_forest(g));
  EXPECT_EQ(diameter(g), 9);
}

TEST(Generators, CycleProperties) {
  Graph g = cycle_graph(12);
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_EQ(max_degree(g), 2);
  EXPECT_FALSE(is_forest(g));
  EXPECT_EQ(num_components(g), 1);
}

TEST(Generators, CompleteGraph) {
  Graph g = complete_graph(8);
  EXPECT_EQ(g.num_edges(), 28);
  EXPECT_EQ(max_degree(g), 7);
  EXPECT_EQ(degeneracy(g), 7);
  EXPECT_EQ(diameter(g), 1);
}

TEST(Generators, CompleteBipartite) {
  Graph g = complete_bipartite(3, 5);
  EXPECT_EQ(g.num_edges(), 15);
  EXPECT_EQ(max_degree(g), 5);
  EXPECT_EQ(degeneracy(g), 3);
}

TEST(Generators, GridProperties) {
  Graph g = grid_graph(6, 5);
  EXPECT_EQ(g.num_nodes(), 30);
  EXPECT_EQ(g.num_edges(), 6 * 4 + 5 * 5);
  EXPECT_EQ(max_degree(g), 4);
  EXPECT_LE(degeneracy(g), 2);  // grids are 2-degenerate
}

TEST(Generators, Hypercube) {
  Graph g = hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16);
  EXPECT_EQ(max_degree(g), 4);
  EXPECT_EQ(g.num_edges(), 32);
  EXPECT_EQ(diameter(g), 4);
}

TEST(Generators, GnpEdgeCountReasonable) {
  Rng rng(2);
  Graph g = gnp(400, 0.02, rng);
  const double expected = 0.02 * 400 * 399 / 2;
  EXPECT_GT(g.num_edges(), expected * 0.6);
  EXPECT_LT(g.num_edges(), expected * 1.4);
  EXPECT_TRUE(g.valid());
}

TEST(Generators, GnpExtremes) {
  Rng rng(3);
  EXPECT_EQ(gnp(50, 0.0, rng).num_edges(), 0);
  EXPECT_EQ(gnp(10, 1.0, rng).num_edges(), 45);
}

TEST(Generators, BoundedDegreeRespectsCap) {
  Rng rng(4);
  for (NodeId cap : {2, 4, 8}) {
    Graph g = random_bounded_degree(200, cap, 0.9, rng);
    EXPECT_LE(max_degree(g), cap);
    EXPECT_GT(g.num_edges(), 0);
  }
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = random_tree(100, rng);
    EXPECT_EQ(g.num_edges(), 99);
    EXPECT_TRUE(is_forest(g));
    EXPECT_EQ(num_components(g), 1);
  }
}

TEST(Generators, RandomForestComponents) {
  Rng rng(6);
  Graph g = random_forest(120, 7, rng);
  EXPECT_TRUE(is_forest(g));
  EXPECT_EQ(num_components(g), 7);
}

TEST(Generators, LayeredForestArboricityBound) {
  Rng rng(7);
  for (int layers : {1, 2, 3}) {
    Graph g = random_layered_forest(150, layers, rng);
    // Union of `layers` forests: arboricity <= layers, degeneracy <= 2*layers.
    EXPECT_LE(degeneracy(g), 2 * layers);
    EXPECT_GE(nash_williams_lower_bound(g), 0);
  }
}

TEST(Generators, PowerLawBasics) {
  Rng rng(8);
  Graph g = power_law(300, 2.5, 4.0, rng);
  EXPECT_TRUE(g.valid());
  EXPECT_GT(g.num_edges(), 100);
}

TEST(Generators, RandomGeometricValid) {
  Rng rng(9);
  Graph g = random_geometric(300, 0.08, rng);
  EXPECT_TRUE(g.valid());
}

TEST(Generators, CaterpillarIsTreeLike) {
  Rng rng(10);
  Graph g = caterpillar(30, 40, rng);
  EXPECT_EQ(g.num_nodes(), 70);
  EXPECT_TRUE(is_forest(g));
  EXPECT_LE(degeneracy(g), 1);
}

TEST(Params, DegeneracyKnownValues) {
  EXPECT_EQ(degeneracy(path_graph(10)), 1);
  EXPECT_EQ(degeneracy(cycle_graph(10)), 2);
  EXPECT_EQ(degeneracy(complete_graph(6)), 5);
  Rng rng(11);
  EXPECT_EQ(degeneracy(random_tree(80, rng)), 1);
}

TEST(Params, DegeneracyMonotoneUnderSubgraphs) {
  Rng rng(12);
  Graph g = gnp(120, 0.05, rng);
  const NodeId full = degeneracy(g);
  std::vector<bool> keep(static_cast<std::size_t>(g.num_nodes()), false);
  for (NodeId v = 0; v < 60; ++v) keep[static_cast<std::size_t>(v)] = true;
  const auto sub = induced_subgraph(g, keep);
  EXPECT_LE(degeneracy(sub.graph), full);
}

TEST(Params, NashWilliamsLowerBoundsDegeneracyProxy) {
  Rng rng(13);
  Graph g = gnp(100, 0.1, rng);
  EXPECT_LE(nash_williams_lower_bound(g), degeneracy(g) + 1);
}

TEST(Params, ComponentsAndBfs) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  Graph g = b.build();
  EXPECT_EQ(num_components(g), 3);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], 2);
  EXPECT_EQ(dist[3], -1);
  EXPECT_EQ(dist[5], -1);
}

TEST(Subgraph, MappingConsistent) {
  Graph g = cycle_graph(8);
  std::vector<bool> keep(8, true);
  keep[0] = keep[4] = false;
  const auto sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.num_nodes(), 6);
  EXPECT_EQ(sub.graph.num_edges(), 4);  // two paths of 3 nodes
  for (NodeId v = 0; v < sub.graph.num_nodes(); ++v) {
    EXPECT_EQ(sub.to_new[static_cast<std::size_t>(
                  sub.to_old[static_cast<std::size_t>(v)])],
              v);
  }
  EXPECT_EQ(sub.to_new[0], -1);
  EXPECT_EQ(sub.to_new[4], -1);
}

TEST(Subgraph, KeepNothingAndEverything) {
  Graph g = complete_graph(5);
  const auto none = induced_subgraph(g, std::vector<bool>(5, false));
  EXPECT_EQ(none.graph.num_nodes(), 0);
  const auto all = induced_subgraph(g, std::vector<bool>(5, true));
  EXPECT_EQ(all.graph.num_edges(), 10);
}

TEST(Io, EdgeListRoundTrip) {
  Rng rng(14);
  Graph g = gnp(50, 0.1, rng);
  const Graph parsed = from_edge_list_string(to_edge_list_string(g));
  EXPECT_EQ(parsed, g);
}

TEST(Io, RejectsMalformed) {
  EXPECT_THROW(from_edge_list_string("3 1\n0 7\n"), std::runtime_error);
  EXPECT_THROW(from_edge_list_string("3 2\n0 1\n"), std::runtime_error);
  EXPECT_THROW(from_edge_list_string("-1 0\n"), std::runtime_error);
}

TEST(Io, RejectsSelfLoops) {
  EXPECT_THROW(from_edge_list_string("3 1\n1 1\n"), std::runtime_error);
  EXPECT_THROW(from_edge_list_string("3 2\n0 1\n2 2\n"), std::runtime_error);
}

TEST(Io, RejectsWrongEdgeCountHeaders) {
  // Header promises more edges than the body provides.
  EXPECT_THROW(from_edge_list_string("4 3\n0 1\n1 2\n"), std::runtime_error);
  EXPECT_THROW(from_edge_list_string("4 1\n"), std::runtime_error);
  // A negative count is a bad header, not a truncation.
  EXPECT_THROW(from_edge_list_string("4 -1\n"), std::runtime_error);
}

/// from_edge_list_string's error message, or "" when it loads.
std::string edge_list_error(const std::string& text) {
  try {
    from_edge_list_string(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Io, RejectsNodeCountsPastNodeId) {
  // 4294967298 wraps to 2 in a 32-bit NodeId; 2147483648 to a negative
  // count. Both must fail at the header, naming the count and the limit.
  EXPECT_EQ(edge_list_error("4294967298 1\n0 2147483648\n"),
            "edge list: node count 4294967298 exceeds 2147483647");
  EXPECT_EQ(edge_list_error("2147483648 0\n"),
            "edge list: node count 2147483648 exceeds 2147483647");
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

TEST(Io, NamesTheNodeCountWhenItCannotAllocate) {
  // The sanitizers' allocators abort on a failed allocation instead of
  // throwing std::bad_alloc, and reserve more address space than the cap.
  if (kSanitized) GTEST_SKIP() << "a sanitizer allocator aborts on failure";
  // Cap this process's address space at 8 GB, so the 24-byte adjacency
  // list per node (about 51 and 48 GB here) fails on any host.
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_AS, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = std::min<rlim_t>(saved.rlim_cur, rlim_t{8} << 30);
  ASSERT_EQ(setrlimit(RLIMIT_AS, &capped), 0);
  const std::string widest = edge_list_error("2147483647 0\n");
  const std::string wide = edge_list_error("2000000000 1\n0 1\n");
  ASSERT_EQ(setrlimit(RLIMIT_AS, &saved), 0);
  EXPECT_EQ(widest, "edge list: cannot allocate 2147483647 nodes");
  EXPECT_EQ(wide, "edge list: cannot allocate 2000000000 nodes");
}

TEST(Io, DotContainsNodesAndEdges) {
  Graph g = path_graph(3);
  const std::string dot = to_dot(g, {"a", "b", "c"});
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"b\""), std::string::npos);
}

}  // namespace
}  // namespace unilocal
