#include "src/runtime/instance.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace unilocal {

std::int64_t Instance::max_identity() const {
  std::int64_t best = 0;
  for (std::int64_t id : identities) best = std::max(best, id);
  return best;
}

bool Instance::valid() const {
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  if (identities.size() != n || inputs.size() != n) return false;
  std::unordered_set<std::int64_t> seen;
  for (std::int64_t id : identities) {
    if (id < 0 || id >= (std::int64_t{1} << 31)) return false;
    if (!seen.insert(id).second) return false;
  }
  return graph.valid();
}

Instance make_instance(Graph g, IdentityScheme scheme, std::uint64_t seed) {
  Instance instance;
  const NodeId n = g.num_nodes();
  instance.graph = std::move(g);
  instance.identities.resize(static_cast<std::size_t>(n));
  instance.inputs.assign(static_cast<std::size_t>(n), {});
  Rng rng(seed);
  switch (scheme) {
    case IdentityScheme::kSequential:
      for (NodeId v = 0; v < n; ++v)
        instance.identities[static_cast<std::size_t>(v)] = v + 1;
      break;
    case IdentityScheme::kRandomPermuted: {
      auto perm = random_permutation(static_cast<std::size_t>(n), rng);
      for (NodeId v = 0; v < n; ++v)
        instance.identities[static_cast<std::size_t>(v)] =
            perm[static_cast<std::size_t>(v)] + 1;
      break;
    }
    case IdentityScheme::kRandomSparse: {
      std::unordered_set<std::int64_t> used;
      for (NodeId v = 0; v < n; ++v) {
        std::int64_t id = 0;
        do {
          id = static_cast<std::int64_t>(rng.next_below(std::uint64_t{1} << 31));
        } while (id == 0 || !used.insert(id).second);
        instance.identities[static_cast<std::size_t>(v)] = id;
      }
      break;
    }
  }
  return instance;
}

Instance restrict_instance(const Instance& instance, InducedSubgraph sub,
                           const std::vector<Input>& new_inputs) {
  Instance result;
  result.graph = std::move(sub.graph);
  const std::size_t kept = sub.to_old.size();
  result.identities.resize(kept);
  result.inputs.resize(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    const std::size_t old_v = static_cast<std::size_t>(sub.to_old[i]);
    result.identities[i] = instance.identities[old_v];
    result.inputs[i] = new_inputs[old_v];
  }
  return result;
}

}  // namespace unilocal
