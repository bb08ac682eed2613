// Immutable compressed-sparse-row (CSR) view of a Graph.
//
// The simulator's hot loops walk adjacency constantly; the Graph's
// vector-of-vectors layout costs one pointer chase per node. CsrGraph packs
// the same topology into three flat arrays — offsets, neighbors, and
// precomputed reverse ports — so a round engine can index any directed edge
// (v, port) as a dense integer and message delivery needs no per-run
// reverse-port recomputation. Built once per topology (Instance caches it)
// and shared by every run over that graph.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/graph.h"

namespace unilocal {

class CsrGraph {
 public:
  CsrGraph() = default;
  explicit CsrGraph(const Graph& g);

  NodeId num_nodes() const noexcept { return n_; }
  /// Number of directed edges (2m); also the size of the dense edge-index
  /// space [0, num_directed_edges()).
  std::int64_t num_directed_edges() const noexcept {
    return static_cast<std::int64_t>(neighbors_.size());
  }

  std::int64_t offset(NodeId v) const {
    return offsets_[static_cast<std::size_t>(v)];
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
    const NodeId u = neighbor(v, j);
    return offset(u) + reverse_port(v, j);
  }

 private:
  NodeId n_ = 0;
  std::vector<std::int64_t> offsets_;    // n + 1
  std::vector<NodeId> neighbors_;        // 2m, each list sorted ascending
  std::vector<NodeId> reverse_ports_;    // 2m, parallel to neighbors_
};

}  // namespace unilocal
