#include "src/graph/graph.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace unilocal {

Graph Graph::from_edges(NodeId n,
                        const std::vector<std::pair<NodeId, NodeId>>& edges) {
  GraphBuilder builder(n);
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return builder.build();
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> Graph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> result;
  result.reserve(static_cast<std::size_t>(num_edges()));
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) result.emplace_back(u, v);
    }
  }
  return result;
}

bool Graph::valid() const {
  if (offsets_.empty() || offsets_.front() != 0 ||
      offsets_.back() != num_directed_edges() ||
      reverse_ports_.size() != neighbors_.size() ||
      !std::is_sorted(offsets_.begin(), offsets_.end()))
    return false;
  for (NodeId u = 0; u < num_nodes(); ++u) {
    const auto nbrs = neighbors(u);
    if (std::adjacent_find(nbrs.begin(), nbrs.end(),
                           std::greater_equal<NodeId>()) != nbrs.end())
      return false;  // not strictly ascending
    for (NodeId j = 0; j < degree(u); ++j) {
      const NodeId v = neighbor(u, j);
      if (v < 0 || v >= num_nodes() || v == u) return false;
      const NodeId back = reverse_port(u, j);
      if (back < 0 || back >= degree(v) || neighbor(v, back) != u)
        return false;
    }
  }
  return true;
}

void GraphBuilder::add_edge(NodeId u, NodeId v) {
  if (u < 0 || u >= n_ || v < 0 || v >= n_) return;
  if (u == v) return;
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  Graph g(n_);
  for (const auto& [u, v] : edges_) {
    ++g.offsets_[static_cast<std::size_t>(u) + 1];
    ++g.offsets_[static_cast<std::size_t>(v) + 1];
  }
  std::partial_sum(g.offsets_.begin(), g.offsets_.end(), g.offsets_.begin());
  g.neighbors_.resize(2 * edges_.size());
  g.reverse_ports_.resize(2 * edges_.size());
  // In lexicographic (u < v) order, row x receives every smaller neighbour
  // (from pairs (u, x), swept in ascending u) before every larger one (from
  // pairs (x, v), ascending v), so each row comes out ascending, and both
  // ends of a pair learn each other's port as it is written.
  std::vector<std::int64_t> next(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges_) {
    const std::int64_t at_u = next[static_cast<std::size_t>(u)]++;
    const std::int64_t at_v = next[static_cast<std::size_t>(v)]++;
    g.neighbors_[static_cast<std::size_t>(at_u)] = v;
    g.neighbors_[static_cast<std::size_t>(at_v)] = u;
    g.reverse_ports_[static_cast<std::size_t>(at_u)] =
        static_cast<NodeId>(at_v - g.offset(v));
    g.reverse_ports_[static_cast<std::size_t>(at_v)] =
        static_cast<NodeId>(at_u - g.offset(u));
  }
  return g;
}

}  // namespace unilocal
