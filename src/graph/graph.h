// The network topology for the LOCAL-model simulator.
//
// Nodes are indexed 0..n-1 ("slots"); the unique identities Id(v) the paper
// assumes live in the Instance (src/runtime/instance.h), not here, so the
// same topology can be reused under different identity assignments.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace unilocal {

using NodeId = std::int32_t;

struct InducedSubgraph;

/// Simple undirected graph in compressed-sparse-row form: three flat
/// arrays — offsets (n + 1), neighbours (2m, each row ascending) and
/// reverse ports (2m, parallel to the neighbours) — so a round engine can
/// index any directed edge (v, port) as a dense integer and message delivery
/// needs no reverse-port search. Invariants: no self-loops, no parallel
/// edges, every row sorted ascending. Graphs may be disconnected (the
/// paper's problems are closed under disjoint union).
class Graph {
 public:
  /// The empty graph; Graph(n) has n isolated nodes.
  Graph() = default;
  explicit Graph(NodeId n) : offsets_(static_cast<std::size_t>(n) + 1, 0) {}

  /// Builds a graph from an edge list; ignores self-loops, duplicates in
  /// either orientation, and edges with endpoints outside [0, n). n = 0
  /// yields the empty graph, and nodes no edge mentions stay isolated —
  /// num_edges() always equals edges().size().
  static Graph from_edges(NodeId n,
                          const std::vector<std::pair<NodeId, NodeId>>& edges);

  NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(offsets_.size() - 1);
  }
  std::int64_t num_edges() const noexcept {
    return static_cast<std::int64_t>(neighbors_.size() / 2);
  }
  /// Number of directed edges (2m); also the size of the dense edge-index
  /// space [0, num_directed_edges()).
  std::int64_t num_directed_edges() const noexcept {
    return static_cast<std::int64_t>(neighbors_.size());
  }

  std::int64_t offset(NodeId v) const {
    return offsets_[static_cast<std::size_t>(v)];
  }
  NodeId degree(NodeId v) const {
    return static_cast<NodeId>(offsets_[static_cast<std::size_t>(v) + 1] -
                               offsets_[static_cast<std::size_t>(v)]);
  }
  std::span<const NodeId> neighbors(NodeId v) const {
    return {neighbors_.data() + offset(v),
            static_cast<std::size_t>(degree(v))};
  }
  NodeId neighbor(NodeId v, NodeId port) const {
    return neighbors_[static_cast<std::size_t>(offset(v) + port)];
  }

  /// Raw offsets array (n + 1 entries) — the batched kernel path hands this
  /// to KernelBatchCtx so batch fns index degrees and per-port lanes without
  /// a per-node accessor call.
  const std::int64_t* offsets_data() const noexcept { return offsets_.data(); }
  /// Raw neighbour and reverse-port arrays (2m entries each, indexed by
  /// edge_index) — the round arena walks a sender's row through these.
  const NodeId* neighbors_data() const noexcept { return neighbors_.data(); }
  const NodeId* reverse_ports_data() const noexcept {
    return reverse_ports_.data();
  }

  /// The port of v in the adjacency list of its j-th neighbour — i.e. the
  /// direction a reply must take. reverse_port(v, j) == p means
  /// neighbor(neighbor(v, j), p) == v.
  NodeId reverse_port(NodeId v, NodeId j) const {
    return reverse_ports_[static_cast<std::size_t>(offset(v) + j)];
  }

  /// Dense index of the directed edge (v, port j). Sender-keyed tables (the
  /// synchronizer's history, the delayed network's per-edge streams) file
  /// what v sends on port j here; the receiver-keyed round arena files what
  /// v RECEIVES on port j here.
  std::int64_t edge_index(NodeId v, NodeId j) const { return offset(v) + j; }

  /// Dense index of the reverse directed edge (u, reverse_port(v, j)), u
  /// the j-th neighbour of v. Sender-keyed tables read what v receives on
  /// port j there; the receiver-keyed round arena writes v's send on port j
  /// there.
  std::int64_t in_edge_index(NodeId v, NodeId j) const {
    return offset(neighbor(v, j)) + reverse_port(v, j);
  }

  bool has_edge(NodeId u, NodeId v) const;

  /// All edges as (u, v) with u < v, lexicographically sorted.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// True when invariants hold (used by tests and debug assertions),
  /// including monotone offsets and consistent reverse ports.
  bool valid() const;

  bool operator==(const Graph& other) const {
    return offsets_ == other.offsets_ && neighbors_ == other.neighbors_;
  }

 private:
  friend class GraphBuilder;
  friend InducedSubgraph induced_subgraph(const Graph& g,
                                          const std::vector<bool>& keep);
  std::vector<std::int64_t> offsets_{0};  // n + 1
  std::vector<NodeId> neighbors_;         // 2m, each row sorted ascending
  std::vector<NodeId> reverse_ports_;     // 2m, parallel to neighbors_
};

/// Incremental construction helper that tolerates duplicates, self-loops,
/// and out-of-range endpoints, and normalizes on build(). build() may be
/// called repeatedly (later calls see edges added since).
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId n) : n_(n) {}

  void add_edge(NodeId u, NodeId v);
  Graph build();

 private:
  NodeId n_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace unilocal
