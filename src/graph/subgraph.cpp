#include "src/graph/subgraph.h"

#include <cassert>

namespace unilocal {

InducedSubgraph induced_subgraph(const Graph& g,
                                 const std::vector<bool>& keep) {
  assert(keep.size() == static_cast<std::size_t>(g.num_nodes()));
  InducedSubgraph result;
  result.to_new.assign(static_cast<std::size_t>(g.num_nodes()), -1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (keep[static_cast<std::size_t>(v)]) {
      result.to_new[static_cast<std::size_t>(v)] =
          static_cast<NodeId>(result.to_old.size());
      result.to_old.push_back(v);
    }
  }
  // to_new is monotone, so each filtered row stays ascending.
  Graph& sub = result.graph;
  sub.offsets_.reserve(result.to_old.size() + 1);
  for (const NodeId old_u : result.to_old) {
    for (const NodeId old_v : g.neighbors(old_u)) {
      const NodeId new_v = result.to_new[static_cast<std::size_t>(old_v)];
      if (new_v >= 0) sub.neighbors_.push_back(new_v);
    }
    sub.offsets_.push_back(static_cast<std::int64_t>(sub.neighbors_.size()));
  }
  // Sweeping rows in ascending u, the neighbours of v already swept are
  // exactly those smaller than u, so a per-node counter is u's port in v's
  // row.
  sub.reverse_ports_.resize(sub.neighbors_.size());
  std::vector<NodeId> next_port(result.to_old.size(), 0);
  for (std::size_t i = 0; i < sub.neighbors_.size(); ++i)
    sub.reverse_ports_[i] =
        next_port[static_cast<std::size_t>(sub.neighbors_[i])]++;
  return result;
}

}  // namespace unilocal
