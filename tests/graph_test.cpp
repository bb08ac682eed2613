#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

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

/// Every port of g against its row, the flat arrays and the far end:
/// reverse_port(v, j) is v's port at the far end of the edge, and
/// in_edge_index names that end's slot towards v.
void expect_ports_round_trip(const Graph& g) {
  ASSERT_EQ(g.offsets_data()[g.num_nodes()], g.num_directed_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    ASSERT_EQ(nbrs.size(), static_cast<std::size_t>(g.degree(v)));
    for (NodeId j = 0; j < g.degree(v); ++j) {
      const NodeId u = g.neighbor(v, j);
      EXPECT_EQ(u, nbrs[static_cast<std::size_t>(j)]);
      EXPECT_EQ(g.neighbors_data()[g.edge_index(v, j)], u);
      const NodeId back = g.reverse_port(v, j);
      EXPECT_EQ(g.reverse_ports_data()[g.edge_index(v, j)], back);
      ASSERT_GE(back, 0);
      ASSERT_LT(back, g.degree(u));
      EXPECT_EQ(g.neighbor(u, back), v);
      EXPECT_EQ(g.reverse_port(u, back), j);
      EXPECT_EQ(g.in_edge_index(v, j), g.edge_index(u, back));
    }
  }
}

TEST(Graph, MatchesAdjacencyAndReversePortsRoundTrip) {
  Rng rng(21);
  const Graph g = gnp(80, 0.08, rng);
  ASSERT_EQ(g.num_directed_edges(), 2 * g.num_edges());
  EXPECT_TRUE(g.valid());
  expect_ports_round_trip(g);
}

TEST(Graph, EmptyAndIsolated) {
  for (const Graph& empty : {Graph(), Graph(0)}) {
    EXPECT_EQ(empty.num_nodes(), 0);
    EXPECT_EQ(empty.num_directed_edges(), 0);
    EXPECT_TRUE(empty.valid());
    EXPECT_EQ(empty, Graph::from_edges(0, {}));
  }
  const Graph isolated(5);
  EXPECT_EQ(isolated.num_nodes(), 5);
  EXPECT_EQ(isolated.num_directed_edges(), 0);
  EXPECT_TRUE(isolated.valid());
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(isolated.degree(v), 0);
  EXPECT_EQ(isolated, GraphBuilder(5).build());
}

TEST(Graph, BuildMatchesASetPerNodeOnRandomEdgeLists) {
  // Duplicates in both orientations, self-loops and endpoints outside
  // [0, n): each row must hold exactly the node's distinct in-range
  // neighbours, ascending.
  Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<NodeId>(rng.next_below(40));
    const auto draws = static_cast<int>(rng.next_below(160));
    std::vector<std::pair<NodeId, NodeId>> edges;
    std::vector<std::set<NodeId>> oracle(static_cast<std::size_t>(n));
    for (int k = 0; k < draws; ++k) {
      NodeId u = static_cast<NodeId>(rng.next_below(n + 6)) - 3;
      NodeId v = static_cast<NodeId>(rng.next_below(n + 6)) - 3;
      if (rng.next_bool(0.1)) v = u;
      if (!edges.empty() && rng.next_bool(0.2)) {
        std::tie(v, u) = edges[rng.next_below(edges.size())];  // reversed
      }
      edges.emplace_back(u, v);
      if (u >= 0 && v >= 0 && u < n && v < n && u != v) {
        oracle[static_cast<std::size_t>(u)].insert(v);
        oracle[static_cast<std::size_t>(v)].insert(u);
      }
    }
    const Graph g = Graph::from_edges(n, edges);
    ASSERT_EQ(g.num_nodes(), n) << "trial " << trial;
    std::int64_t directed = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto& row = oracle[static_cast<std::size_t>(v)];
      const auto nbrs = g.neighbors(v);
      EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(), row.begin(), row.end()))
          << "trial " << trial << " node " << v;
      directed += static_cast<std::int64_t>(row.size());
    }
    EXPECT_EQ(g.num_directed_edges(), directed) << "trial " << trial;
    EXPECT_EQ(g.num_edges(), directed / 2) << "trial " << trial;
    EXPECT_TRUE(g.valid()) << "trial " << trial;
    expect_ports_round_trip(g);
  }
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

TEST(Subgraph, EqualsFromEdgesOverTheKeptEdgesRelabelled) {
  Rng rng(41);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<NodeId>(rng.next_below(50));
    const Graph g = gnp(n, 0.02 * static_cast<double>(trial % 10), rng);
    const double keep_share = trial % 3 == 0   ? 1.0
                              : trial % 3 == 1 ? 0.0
                                               : rng.next_double();
    std::vector<bool> keep(static_cast<std::size_t>(n));
    for (std::size_t v = 0; v < keep.size(); ++v)
      keep[v] = rng.next_bool(keep_share);
    std::vector<NodeId> relabel(keep.size(), -1);
    NodeId kept = 0;
    for (std::size_t v = 0; v < keep.size(); ++v)
      if (keep[v]) relabel[v] = kept++;
    std::vector<std::pair<NodeId, NodeId>> kept_edges;
    for (const auto& [u, v] : g.edges()) {
      const NodeId new_u = relabel[static_cast<std::size_t>(u)];
      const NodeId new_v = relabel[static_cast<std::size_t>(v)];
      if (new_u >= 0 && new_v >= 0) kept_edges.emplace_back(new_v, new_u);
    }
    const Graph expected = Graph::from_edges(kept, kept_edges);
    const InducedSubgraph sub = induced_subgraph(g, keep);
    EXPECT_EQ(sub.graph, expected) << "trial " << trial;
    EXPECT_TRUE(std::equal(
        sub.graph.reverse_ports_data(),
        sub.graph.reverse_ports_data() + sub.graph.num_directed_edges(),
        expected.reverse_ports_data()))
        << "trial " << trial;
    EXPECT_TRUE(sub.graph.valid()) << "trial " << trial;
    EXPECT_EQ(sub.to_new, relabel) << "trial " << trial;
  }
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
  // A number run into other characters is malformed, not two tokens.
  EXPECT_THROW(from_edge_list_string("4 2\n0 1+2 3\n"), std::runtime_error);
  EXPECT_THROW(from_edge_list_string("4x 0\n"), std::runtime_error);
  EXPECT_THROW(from_edge_list_string("4 1\n0 1x\n"), std::runtime_error);
}

TEST(Io, RejectsSelfLoops) {
  EXPECT_THROW(from_edge_list_string("3 1\n1 1\n"), std::runtime_error);
  EXPECT_THROW(from_edge_list_string("3 2\n0 1\n2 2\n"), std::runtime_error);
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

TEST(Io, RejectsWrongEdgeCountHeaders) {
  // Header promises more edges than the body provides.
  EXPECT_THROW(from_edge_list_string("4 3\n0 1\n1 2\n"), std::runtime_error);
  EXPECT_THROW(from_edge_list_string("4 1\n"), std::runtime_error);
  // A negative count is a bad header, not a truncation.
  EXPECT_THROW(from_edge_list_string("4 -1\n"), std::runtime_error);
  // Header promises fewer edges than the body holds: the extra edge, or
  // whatever follows, must not be dropped unread.
  EXPECT_EQ(edge_list_error("3 1\n0 1\n1 2\n"),
            "edge list: data after the header's 1 edges");
  EXPECT_EQ(edge_list_error("3 1\n0 1\nfoo\n"),
            "edge list: data after the header's 1 edges");
  // Trailing whitespace is not data.
  EXPECT_EQ(from_edge_list_string("3 1\n0 1\n \t\n\n").num_edges(), 1);
  EXPECT_EQ(from_edge_list_string("3 1\n0 1").num_edges(), 1);
}

/// The whitespace-separated tokens of `text`, split by hand.
std::vector<std::string> tokens_of(const std::string& text) {
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : text + " ") {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) {
      token += c;
    } else if (!token.empty()) {
      tokens.push_back(token);
      token.clear();
    }
  }
  return tokens;
}

/// An independent reading of the edge-list grammar: n, m, then exactly m
/// in-range, loop-free endpoint pairs, every token an optionally signed
/// decimal int64. nullopt when the text is malformed.
std::optional<Graph> oracle_edge_list(const std::string& text) {
  std::vector<std::int64_t> values;
  for (const std::string& token : tokens_of(text)) {
    const bool plus = token[0] == '+';
    const char* first = token.data() + (plus ? 1 : 0);
    const char* last = token.data() + token.size();
    std::int64_t value = 0;
    const auto [stop, error] = std::from_chars(first, last, value);
    if ((plus && *first == '-') || error != std::errc() || stop != last)
      return std::nullopt;
    values.push_back(value);
  }
  if (values.size() < 2 || values[0] < 0 ||
      values[0] > std::numeric_limits<NodeId>::max() || values[1] < 0 ||
      (values.size() - 2) / 2 != static_cast<std::uint64_t>(values[1]) ||
      values.size() % 2 != 0)
    return std::nullopt;
  const std::int64_t n = values[0];
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t k = 2; k < values.size(); k += 2) {
    const std::int64_t u = values[k];
    const std::int64_t v = values[k + 1];
    if (u < 0 || v < 0 || u >= n || v >= n || u == v) return std::nullopt;
    edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return Graph::from_edges(static_cast<NodeId>(n), edges);
}

/// One to three seeded byte or token mutations of `text`.
std::string mutate_edge_list(const std::string& text, Rng& rng) {
  static const std::vector<std::string> kTokens = {
      "0", "1", "-1", "+2", "-0", "007", "3x", "x", "1e3", "0x1", "+-1",
      "1+2", "2147483648", "9223372036854775807", "9223372036854775808",
      "-9223372036854775809", "\xff"};
  static const std::string kBytes = "0123456789 \n\t\r\v\f+-xe.";
  std::string out = text;
  const int mutations = 1 + static_cast<int>(rng.next_below(3));
  for (int k = 0; k < mutations; ++k) {
    const auto at = static_cast<std::size_t>(rng.next_below(out.size() + 1));
    const char byte = rng.next_bool(0.8)
                          ? kBytes[rng.next_below(kBytes.size())]
                          : static_cast<char>(rng.next_below(256));
    switch (rng.next_below(5)) {
      case 0:  // replace a byte
        if (at < out.size()) out[at] = byte;
        break;
      case 1:  // insert a byte
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), byte);
        break;
      case 2:  // delete a byte
        if (at < out.size()) out.erase(at, 1);
        break;
      default: {  // replace, drop, duplicate or append a whole token
        std::vector<std::string> tokens = tokens_of(out);
        const std::size_t t = rng.next_below(tokens.size() + 1);
        const std::string& fresh = kTokens[rng.next_below(kTokens.size())];
        if (t == tokens.size()) {
          tokens.push_back(fresh);
        } else if (rng.next_bool(0.5)) {
          tokens[t] = fresh;
        } else if (rng.next_bool(0.5)) {
          tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(t));
        } else {
          tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t),
                        tokens[t]);
        }
        out.clear();
        for (const std::string& token : tokens) out += token + " ";
      }
    }
  }
  return out;
}

/// Whether the text's first number has 7 to 10 digits: a header the reader
/// may accept with millions of nodes, whose arrays this test does not
/// allocate. Longer numbers overflow NodeId and fail at the header;
/// Io.NamesTheNodeCountWhenItCannotAllocate covers the large counts.
bool asks_for_millions_of_nodes(const std::string& text) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
    ++i;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) ++i;
  std::size_t digits = 0;
  while (i + digits < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[i + digits])))
    ++digits;
  return digits >= 7 && digits <= 10;
}

TEST(Io, MutatedEdgeListsParseLikeTheOracleOrFailNamed) {
  Rng rng(51);
  const std::string base = to_edge_list_string(gnp(12, 0.3, rng));
  int accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::string text = mutate_edge_list(base, rng);
    if (asks_for_millions_of_nodes(text)) continue;
    const std::optional<Graph> expected = oracle_edge_list(text);
    try {
      const Graph parsed = from_edge_list_string(text);
      ASSERT_TRUE(expected.has_value()) << "accepted: " << text;
      EXPECT_EQ(parsed, *expected) << text;
      ++accepted;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("edge list:", 0), 0u)
          << e.what() << " on " << text;
      EXPECT_FALSE(expected.has_value()) << e.what() << " on " << text;
    }
  }
  // Both outcomes must be exercised, or the mutations prove nothing.
  EXPECT_GT(accepted, 100);
  EXPECT_LT(accepted, 3900);
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
  // Cap this process's address space at 8 GB, so the 8-byte offset per
  // node (about 17 and 16 GB here) fails on any host.
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
